from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

import fx
from qvbench.core import FiniteAlgebra, Signature, SignatureError, congruence_closure, quotient
from qvbench.implicit import (
    FunctionalityViolation,
    ImplicitOpSpec,
    PartialOperation,
    arg_var,
    induced_partial_op,
    witness_var,
)
from qvbench.logic import (
    App,
    Equation,
    PpFormula,
    Quasiequation,
    UnboundVariableError,
    Var,
    check_quasiequation,
    compile_pp,
    compile_term,
    eval_term,
    satisfies_pp,
)
from qvbench.parser import parse_pp_formula

import oracles

MEET_XY = App("meet", (Var("x"), Var("y")))


def naive_pp(A, phi, assignment):
    """Oracle: expand the existential into a finite disjunction over all
    witness tuples, in lexicographic order, and evaluate each conjunct
    directly.  Returns the first witness that satisfies the body, or None."""
    for witness in iproduct(range(A.size), repeat=len(phi.bound_vars)):
        env = dict(assignment)
        env.update(zip(phi.bound_vars, witness))
        if all(
            oracles.eval_term(A, eq.left, env) == oracles.eval_term(A, eq.right, env)
            for eq in phi.body
        ):
            return dict(zip(phi.bound_vars, witness))
    return None


@st.composite
def bdl_algebras(draw, max_size=4):
    n = draw(st.integers(1, max_size))
    tables = tuple(
        tuple(draw(st.integers(0, n - 1)) for _ in range(n**k))
        for _, k in fx.BDL.symbols
    )
    return FiniteAlgebra("H", fx.BDL, n, tables)


VARIABLES = ("x", "y", "z")
MIXED = Signature("Mixed", (("c", 0), ("u", 1), ("f", 2), ("t", 3)))


def terms_over(signature, depth, variables=VARIABLES):
    """Terms in `variables` over the signature, of depth at most `depth`."""
    leaves = st.sampled_from(
        [Var(v) for v in variables] + [App(sym) for sym, k in signature.symbols if k == 0]
    )
    if depth == 0:
        return leaves
    sub = terms_over(signature, depth - 1, variables)
    apps = [
        st.tuples(*[sub] * k).map(lambda args, sym=sym: App(sym, args))
        for sym, k in signature.symbols
        if k > 0
    ]
    return st.one_of(leaves, *apps)


@st.composite
def bdl_pp_formulas(draw):
    """BDL pp formulas: 0-2 of x, y, z bound, and 1-3 equations of depth at
    most 2 in x, y, z."""
    bound = draw(st.lists(st.sampled_from(VARIABLES), max_size=2, unique=True))
    side = terms_over(fx.BDL, 2)
    body = draw(st.lists(st.builds(Equation, side, side), min_size=1, max_size=3))
    return PpFormula(tuple(bound), tuple(body))


@st.composite
def tables_over(draw, signature, max_size):
    """Tables of a random size, total or with unassigned (None) cells."""
    n = draw(st.integers(1, max_size))
    value = st.integers(0, n - 1)
    cell = st.one_of(st.none(), value, value) if draw(st.booleans()) else value
    tables = tuple(
        tuple(draw(cell) for _ in range(n**k)) for _, k in signature.symbols
    )
    return oracles.PartialTables(signature, n, tables)


def marked(P):
    """P's tables with the unassigned cells numbered over all tables in
    order, the c-th holding ~c, and the marker of an oracle's Unassigned."""
    offsets = [0]
    for _, k in P.signature.symbols:
        offsets.append(offsets[-1] + P.size**k)
    tables = [
        [~(offsets[i] + flat) if cell is None else cell for flat, cell in enumerate(table)]
        for i, table in enumerate(P.tables)
    ]

    def marker(cell):
        i = [sym for sym, _ in P.signature.symbols].index(cell.symbol)
        flat = 0
        for a in cell.args:
            flat = flat * P.size + a
        return ~(offsets[i] + flat)

    return tables, marker


class TestCompileTerm:
    """The compiled kernel against the recursive oracle: equal values on
    total tables, and in the partial form also on partial tables, with the
    marker of the first unassigned cell that the oracle reads when it reads
    one."""

    @staticmethod
    def check(P, t, data):
        values = [data.draw(st.integers(0, P.size - 1), label=v) for v in VARIABLES]
        expected = oracles.eval_term(P, t, dict(zip(VARIABLES, values)))
        tables, marker = marked(P)
        if isinstance(expected, oracles.Unassigned):
            expected = marker(expected)
        elif all(None not in table for table in P.tables):
            f = compile_term(P.signature, t, VARIABLES)
            assert f(P.tables, P.size, values) == expected
        f = compile_term(P.signature, t, VARIABLES, partial=True)
        assert f(tables, P.size, values) == expected

    @settings(max_examples=200, deadline=None)
    @given(P=tables_over(fx.BDL, 4), t=terms_over(fx.BDL, 3), data=st.data())
    def test_agrees_with_oracle_on_bdl(self, P, t, data):
        self.check(P, t, data)

    @settings(max_examples=150, deadline=None)
    @given(P=tables_over(MIXED, 3), t=terms_over(MIXED, 3), data=st.data())
    def test_agrees_with_oracle_at_every_arity(self, P, t, data):
        self.check(P, t, data)

    def test_unassigned_cell_gives_its_marker(self):
        """join(meet(x, y), x) on the 2-element lattice: an unassigned cell
        is reported by its marker, whether an argument or the outer lookup
        reads it; a marker read as an argument is never used as an index."""
        f = compile_term(fx.BDL, App("join", (MEET_XY, Var("x"))), ["x", "y"], partial=True)
        meet = [0, 1, 0, -7]
        join = [0, 1, -3, 1]
        assert f([meet, join, [0], [1]], 2, [1, 0]) == 1
        assert f([meet, join, [0], [1]], 2, [1, 1]) == -7
        assert f([meet, join, [0], [1]], 2, [0, 1]) == -3

    def test_errors_raise_at_compile_time(self):
        for partial in (False, True):
            with pytest.raises(UnboundVariableError):
                compile_term(fx.BDL, MEET_XY, ["x"], partial)
            with pytest.raises(SignatureError, match="unknown symbol"):
                compile_term(fx.BDL, App("xor", (Var("x"), Var("x"))), ["x"], partial)
            with pytest.raises(SignatureError, match="applied to 1 arguments"):
                compile_term(fx.BDL, App("meet", (Var("x"),)), ["x"], partial)


class TestEvalTerm:
    def test_meet_on_chain3(self):
        assert eval_term(fx.CHAIN3, MEET_XY, {"x": 1, "y": 2}) == 1

    def test_variable(self):
        assert eval_term(fx.DIAMOND, Var("x"), {"x": 2}) == 2

    def test_double_negation_on_twoba(self):
        t = App("not", (App("not", (Var("x"),)),))
        assert eval_term(fx.TWO_BA, t, {"x": 0}) == 0

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            eval_term(fx.CHAIN2, Var("q"), {})

    def test_unknown_symbol(self):
        with pytest.raises(Exception, match="unknown symbol"):
            eval_term(fx.CHAIN2, App("xor", (Var("x"), Var("x"))), {"x": 0})


class TestSatisfiesPp:
    def test_complement_of_bottom(self):
        ok, witness = satisfies_pp(fx.CHAIN3, fx.COMPL.formula, {"x1": 0, "y": 2})
        assert ok and witness == {}

    def test_middle_has_no_complement(self):
        for y in range(3):
            ok, _ = satisfies_pp(fx.CHAIN3, fx.COMPL.formula, {"x1": 1, "y": y})
            assert not ok

    def test_reflexive_body_always_true(self):
        phi = PpFormula((), (Equation(Var("x"), Var("x")),))
        ok, witness = satisfies_pp(fx.DIAMOND, phi, {"x": 2})
        assert ok and witness == {}

    def test_witness_reported_lex_least(self):
        phi = PpFormula(("z1",), (Equation(Var("z1"), Var("z1")),))
        ok, witness = satisfies_pp(fx.DIAMOND, phi, {})
        assert ok and witness == {"z1": 0}

    @settings(max_examples=150, deadline=None)
    @given(A=bdl_algebras(), data=st.data())
    def test_agrees_with_naive_expansion(self, A, data):
        """The fixture formulas and random ones: the same verdict as the
        full expansion over witness tuples, and its first witness."""
        formulas = [fx.COMPL.formula, fx.COMPL_PADDED.formula, fx.JOIN_WITH_COMPL.formula]
        phi = data.draw(st.one_of(st.sampled_from(formulas), bdl_pp_formulas()))
        assignment = {
            v: data.draw(st.integers(0, A.size - 1), label=v) for v in phi.free_vars()
        }
        ok, witness = satisfies_pp(A, phi, assignment)
        least = naive_pp(A, phi, assignment)
        assert ok == (least is not None)
        assert witness == least


@st.composite
def mixed_algebras(draw, max_size=3):
    n = draw(st.integers(1, max_size))
    tables = tuple(
        tuple(draw(st.integers(0, n - 1)) for _ in range(n**k)) for _, k in MIXED.symbols
    )
    return FiniteAlgebra("M", MIXED, n, tables)


@st.composite
def mixed_pp_formulas(draw):
    """Mixed pp formulas: 0-3 bound variables from x, y, z, w (w occurs in no
    equation), and 1-3 equations of depth at most 2 in x, y, z, so that
    equations with no bound variable and repeated variables occur."""
    bound = draw(st.lists(st.sampled_from(VARIABLES + ("w",)), max_size=3, unique=True))
    side = terms_over(MIXED, 2)
    body = draw(st.lists(st.builds(Equation, side, side), min_size=1, max_size=3))
    return PpFormula(tuple(bound), tuple(body))


def oracle_graph(A, spec):
    """The graph of `spec` on A from the brute-force witness search: one
    search per argument tuple and value, the first tuple related to two
    values reported with the two least of them."""
    search = oracles.pp_witnesses(A.signature, spec.formula, spec.variables)

    def related(args, b):
        return next(search(A.tables, A.size, args + (b,)), None) is not None

    graph = []
    for args in iproduct(range(A.size), repeat=spec.arity):
        values = [b for b in range(A.size) if related(args, b)]
        if len(values) > 1:
            return FunctionalityViolation(A, args, values[0], values[1])
        if values:
            graph.append((args, values[0]))
    return PartialOperation(A, spec.arity, tuple(graph))


@st.composite
def mixed_specs(draw):
    """Implicit operations over Mixed: arity 1-2, 0-2 witnesses, a body of
    1-3 equations in x1.., y, z1.., most often led by y = term."""
    arity = draw(st.integers(1, 2))
    width = draw(st.integers(0, 2))
    names = [arg_var(i) for i in range(arity)] + ["y"] + [witness_var(i) for i in range(width)]
    side = terms_over(MIXED, 2, names)
    lead = st.one_of(st.builds(Equation, st.just(Var("y")), side), st.builds(Equation, side, side))
    body = [draw(lead)] + draw(st.lists(st.builds(Equation, side, side), max_size=2))
    bound = tuple(witness_var(i) for i in range(width))
    return ImplicitOpSpec("p", MIXED, arity, width, PpFormula(bound, tuple(body)))


class TestCompilePp:
    """The staged kernel against the brute-force loop it replaced: the same
    witnesses in the same (lexicographic) order."""

    @staticmethod
    def check(A, phi, free, values):
        staged = compile_pp(A.signature, phi, free)(A.tables, A.size, values)
        brute = oracles.pp_witnesses(A.signature, phi, free)(A.tables, A.size, values)
        assert list(staged) == list(brute)

    @settings(max_examples=300, deadline=None)
    @given(A=mixed_algebras(), phi=mixed_pp_formulas(), data=st.data())
    def test_witness_sequence_agrees_with_oracle(self, A, phi, data):
        free = data.draw(st.permutations(phi.free_vars()), label="free")
        values = [data.draw(st.integers(0, A.size - 1), label=v) for v in free]
        self.check(A, phi, free, values)

    @pytest.mark.parametrize("text", [
        "exists [] . f(x,y) = u(x)",
        "exists [x,y,z] . t(x,x,y) = z & f(z,z) = u(y)",
        "exists [w,x] . u(x) = y",
        "exists [z,x] . f(y,y) = c & u(z) = f(x,y)",
        "exists [y,z] . u(z) = x & t(x,y,z) = f(z,y)",
    ], ids=["no-bound-variable", "three-bound-repeated", "unused-bound-variable",
            "guard-equation", "test-at-last-bound"])
    def test_named_shapes_on_every_assignment(self, text):
        phi = parse_pp_formula(text, MIXED)
        A = FiniteAlgebra("M3", MIXED, 3, (
            (1,),
            (2, 0, 2),
            (0, 2, 1, 1, 1, 0, 2, 0, 2),
            tuple((a * b + c) % 3 for a in range(3) for b in range(3) for c in range(3)),
        ))
        free = phi.free_vars()
        for values in iproduct(range(A.size), repeat=len(free)):
            self.check(A, phi, free, values)

    @settings(max_examples=200, deadline=None)
    @given(A=mixed_algebras(), spec=mixed_specs())
    def test_induced_graph_agrees_with_oracle(self, A, spec):
        """The single y-first search per argument tuple gives the oracle's
        entries, or its violating tuple and two least values."""
        assert induced_partial_op(A, spec) == oracle_graph(A, spec)


ANTISYMMETRY = Quasiequation(
    (
        Equation(App("meet", (Var("x"), Var("y"))), Var("x")),
        Equation(App("meet", (Var("y"), Var("x"))), Var("y")),
    ),
    Equation(Var("x"), Var("y")),
)

TRIVIALIZER = Quasiequation((), Equation(Var("x"), Var("y")))


class TestCheckQuasiequation:
    def test_antisymmetry_on_chain2(self):
        ok, cex = check_quasiequation(fx.CHAIN2, ANTISYMMETRY)
        assert ok and cex is None

    def test_trivializer_fails_with_least_counterexample(self):
        ok, cex = check_quasiequation(fx.CHAIN3, TRIVIALIZER)
        assert not ok
        assert cex == {"x": 0, "y": 1}

    def test_tautology(self):
        q = Quasiequation((Equation(Var("x"), Var("y")),), Equation(Var("x"), Var("y")))
        ok, _ = check_quasiequation(fx.DIAMOND, q)
        assert ok

    @settings(max_examples=40, deadline=None)
    @given(A=bdl_algebras(max_size=3), data=st.data())
    def test_premise_free_antitone_under_quotients(self, A, data):
        """Equations are preserved by surjective images."""
        q = data.draw(st.sampled_from([qe for qe in fx.DL_AXIOMS]))
        pair = (
            data.draw(st.integers(0, A.size - 1)),
            data.draw(st.integers(0, A.size - 1)),
        )
        ok_A, _ = check_quasiequation(A, q)
        if ok_A:
            Q, _ = quotient(A, congruence_closure(A, [pair]))
            ok_Q, _ = check_quasiequation(Q, q)
            assert ok_Q
