import math
from itertools import combinations, product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

import fx
import oracles
from oracles import build_algebra, finer_or_equal, identity_congruence, is_congruence, permuted
from test_logic import terms_over
from qvbench import core, quasivariety
from qvbench.core import (
    Congruence,
    FiniteAlgebra,
    Homomorphism,
    Signature,
    SignatureError,
    are_isomorphic,
    congruence_closure,
    enumerate_homomorphisms,
    is_embedding,
    is_homomorphism,
    quotient,
    trivial_algebra,
)
from qvbench.adjunction import PpExpansionSpec, free_extension
from qvbench.beth import expansion_members
from qvbench.implicit import induced_partial_op
from qvbench.logic import (
    App, Equation, Quasiequation, Var, _define, _shape, check_quasiequation, compile_term,
)
from qvbench.quasivariety import (
    Amalgam,
    CapExceeded,
    GenerationStopped,
    NotFoundWithinBound,
    Quasivariety,
    Verdict,
    _axiomatic_models,
    _member_classes,
    bounded_amalgamation,
    enumerate_members,
    free_algebra,
    generate_in_product,
    members_up_to,
    membership,
    relative_congruence,
)


def intersect_k_congruences(A, pairs, K):
    """Oracle: intersect all compatible partitions that contain the pairs and
    whose quotient passes membership."""
    relations = []
    for labels in oracles.all_partitions(A.size):
        if not all(labels[a] == labels[b] for a, b in pairs):
            continue
        if not is_congruence(A, labels):
            continue
        Q, _ = quotient(A, Congruence.from_labels(A, labels))
        if membership(Q, K).holds:
            relations.append(labels)
    assert relations, "total congruence should always qualify"
    meet = [
        tuple(lab[i] for lab in relations) for i in range(A.size)
    ]
    return Congruence.from_labels(A, meet)


WRONG_DIAMOND = build_algebra(
    "WrongDiamond",
    fx.BDL,
    4,
    {
        "meet": lambda a, b: a & b,
        # join broken at the atom pair: 1 v 2 = 1 instead of 3
        "join": lambda a, b: 1 if {a, b} == {1, 2} else a | b,
        "bot": 0,
        "top": 3,
    },
)


class TestMembership:
    def test_chain3_in_dl(self):
        result = membership(fx.CHAIN3, fx.DL)
        assert result.holds
        assert len(result.separating) == 2
        for h in result.separating:
            assert is_homomorphism(h)

    def test_trivial_in_any_generated(self):
        assert membership(trivial_algebra(fx.BDL), fx.DL).holds
        assert membership(trivial_algebra(fx.BA), fx.BOOL).holds

    def test_wrong_join_rejected(self):
        result = membership(WRONG_DIAMOND, fx.DL)
        assert not result.holds
        assert result.inseparable is not None

    def test_axiomatic_membership(self):
        assert membership(fx.DIAMOND, fx.DLAX).holds
        bad = membership(WRONG_DIAMOND, fx.DLAX)
        assert not bad.holds
        assert bad.failed_axiom is not None
        assert bad.assignment is not None

    def test_invariant_under_isomorphism(self):
        for perm in [(1, 0, 2, 3), (3, 2, 1, 0), (0, 2, 1, 3)]:
            assert membership(permuted(fx.DIAMOND, perm), fx.DL).holds


class TestRelativeCongruence:
    def test_collapse_m_with_top(self):
        theta = relative_congruence(fx.CHAIN3, [(1, 2)], fx.DL)
        assert theta.partition == (0, 1, 1)
        Q, _ = quotient(fx.CHAIN3, theta)
        assert are_isomorphic(Q, fx.CHAIN2)
        assert membership(Q, fx.DL).holds

    def test_empty_pairs_on_member(self):
        assert relative_congruence(fx.DIAMOND, [], fx.DL) == identity_congruence(fx.DIAMOND)

    def test_collapse_ends_is_total(self):
        theta = relative_congruence(fx.CHAIN3, [(0, 2)], fx.DL)
        assert theta.partition == (0, 0, 0)

    def test_axiomatic_and_generated_agree_with_oracle(self):
        for A in members_up_to(fx.DL, 4):
            for a, b in combinations(range(A.size), 2):
                generated = relative_congruence(A, [(a, b)], fx.DL)
                axiomatic = relative_congruence(A, [(a, b)], fx.DLAX)
                oracle = intersect_k_congruences(A, [(a, b)], fx.DL)
                assert generated == axiomatic == oracle
                assert finer_or_equal(congruence_closure(A, [(a, b)]), generated)
                Q, _ = quotient(A, generated)
                assert membership(Q, fx.DL).holds


class TestFreeAlgebra:
    def test_free_dl_on_two(self):
        T, gens = free_algebra(fx.DL, ["x", "y"])
        assert T.size == 6
        assert set(gens) == {"x", "y"}

    def test_free_bool_on_one(self):
        T, _ = free_algebra(fx.BOOL, ["x"])
        assert T.size == 4

    def test_free_bool_on_two(self):
        T, _ = free_algebra(fx.BOOL, ["x", "y"])
        assert T.size == 16

    def test_universal_property_by_unique_lift_counting(self):
        for K, names in [(fx.DL, ["x", "y"]), (fx.BOOL, ["x"])]:
            T, gens = free_algebra(K, names)
            for U in members_up_to(K, 4):
                homs = enumerate_homomorphisms(T, U, K.signature)
                assert len(homs) == U.size ** len(names)
                images = sorted(tuple(h(gens[n]) for n in names) for h in homs)
                assert images == sorted(iproduct(range(U.size), repeat=len(names)))

    def test_axiomatic_presentation_rejected(self):
        with pytest.raises(ValueError, match="generated"):
            free_algebra(fx.DLAX, ["x"])

    def test_product_cap(self):
        with pytest.raises(CapExceeded):
            free_algebra(fx.DL, ["x", "y"], product_cap=3)


# One shared signature for product generation: every arity from 0 to 3, and
# random tables make `f` non-commutative.
GEN_SIG = Signature("gen", (("c", 0), ("u", 1), ("f", 2), ("t", 3)))


@st.composite
def product_inputs(draw):
    """Factors over a sub-signature of GEN_SIG that keeps `f`: 1-4 factors
    of sizes 1-4, a factor sometimes repeated, and 0-5 seed tuples, sometimes
    none and sometimes with a repeat.  The product stays small enough for
    the reference to visit every argument tuple: at most 64 elements, 12
    with the ternary symbol."""
    symbols = tuple(s for s in GEN_SIG.symbols if s[0] == "f" or draw(st.booleans()))
    signature = Signature("gen", symbols)
    most = 12 if ("t", 3) in symbols else 64
    factors = []
    for _ in range(draw(st.integers(1, 4))):
        room = most // max(1, math.prod(f.size for f in factors))
        if factors and draw(st.booleans()) and factors[-1].size <= room:
            factors.append(factors[-1])
            continue
        if room < 1:
            break
        n = draw(st.integers(1, min(4, room)))
        tables = tuple(
            tuple(draw(st.integers(0, n - 1)) for _ in range(n**k)) for _, k in symbols
        )
        factors.append(FiniteAlgebra("P", signature, n, tables))
    seed = st.tuples(*(st.integers(0, f.size - 1) for f in factors))
    seeds = draw(st.lists(seed, min_size=1, max_size=4))
    if draw(st.integers(0, 5)) == 0:
        seeds = []
    elif draw(st.booleans()):
        seeds.append(draw(st.sampled_from(seeds)))
    return factors, seeds, signature


def _outcome(fn, *args):
    try:
        result = fn(*args)
    except (CapExceeded, ValueError) as exc:
        return type(exc), str(exc)
    return result, result.algebra.name


class TestGenerateInProduct:
    @settings(max_examples=150, deadline=None)
    @given(inputs=product_inputs(), data=st.data())
    def test_matches_reference_generation(self, inputs, data):
        """The same elements, tables, seed indices and first-producer trace
        as the reference, which applies every operation coordinate by
        coordinate and fills the tables by applying them again; also the
        same refusal when the product exceeds the cap, and when nothing is
        generated."""
        factors, seeds, signature = inputs
        potential = math.prod(f.size for f in factors)
        cap = data.draw(st.sampled_from([potential - 1, potential, 10**6]))
        args = (factors, seeds, signature, cap, "G")
        got = _outcome(generate_in_product, *args)
        assert got == _outcome(oracles.generate_in_product, *args)
        if cap < potential:
            assert got[0] is CapExceeded

    def test_factor_outside_the_signature_rejected(self):
        with pytest.raises(SignatureError):
            generate_in_product([fx.CHAIN2], [(0,), (1,)], fx.BA)


def _gen_factor(n, c, u, f, t):
    """A factor over GEN_SIG with the constant c and the tables of u, f, t."""
    cells = lambda k, op: tuple(op(*args) for args in iproduct(range(n), repeat=k))  # noqa: E731
    return FiniteAlgebra(f"P{n}", GEN_SIG, n, ((c,), cells(1, u), cells(2, f), cells(3, t)))


# Two constants and three binary symbols: m is commutative in every factor
# below, f in none, and g in C3 and C2 but not in D2.
COMM_SIG = Signature("comm", (("c", 0), ("d", 0), ("m", 2), ("f", 2), ("g", 2)))


# p(x, y) = x is not commutative; m = min is.
PM_SIG = Signature("pm", (("p", 2), ("m", 2)))


def _comm_factor(n, c, d, m, f, g):
    cells = lambda op: tuple(op(a, b) for a, b in iproduct(range(n), repeat=2))  # noqa: E731
    return FiniteAlgebra(f"P{n}", COMM_SIG, n, ((c,), (d,), cells(m), cells(f), cells(g)))


def _symmetrized(A, sym):
    """A with the binary `sym` made commutative: f(a, b) := f(min, max)."""
    slot = [s for s, _ in A.signature.symbols].index(sym)
    table = tuple(A.tables[slot][min(a, b) * A.size + max(a, b)]
                  for a, b in iproduct(range(A.size), repeat=2))
    return FiniteAlgebra(A.name, A.signature, A.size,
                         A.tables[:slot] + (table,) + A.tables[slot + 1:])


class TestBitSlicedGeneration:
    """Paths of the bit-sliced generation that no fixture reaches: every
    fixture generator has 2 elements, so it never needs more than one value
    plane, and it never mixes factor tables."""

    P3 = _gen_factor(3, 0, lambda a: (2 * a + 1) % 3,
                     lambda a, b: a if a == b else (a + 2 * b) % 3, lambda a, b, d: (a * b + d) % 3)
    P2 = _gen_factor(2, 1, lambda a: a, lambda a, b: a & (1 - b), lambda a, b, d: a ^ b ^ d)
    Q2 = _gen_factor(2, 0, lambda a: 1 - a, lambda a, b: a | b,
                     lambda a, b, d: (a & b) | (a & d) | (b & d))

    C3 = _comm_factor(3, 0, 2, lambda a, b: (a + b) % 3, lambda a, b: (2 * a + b) % 3, min)
    C2 = _comm_factor(2, 1, 0, lambda a, b: a & b, lambda a, b: a & (1 - b), lambda a, b: a | b)
    D2 = _comm_factor(2, 0, 0, lambda a, b: a ^ b, lambda a, b: b, lambda a, b: a & (1 - b))

    @pytest.mark.parametrize("seeds, size", [
        ([], 12),                          # the constants generate half the product
        ([(1, 0, 0, 1), (2, 1, 1, 0)], 24),
    ], ids=["constants", "seeded"])
    def test_mixed_factors_match_reference(self, seeds, size):
        """A 3-element factor (two value planes) and two different 2-element
        factors, one repeated (three groups, one of two coordinates), under
        a constant and symbols of arity 1, 2 and 3."""
        factors = [self.P3, self.P2, self.Q2, self.P2]
        got = generate_in_product(factors, seeds, GEN_SIG, 10**6, "G")
        assert got == oracles.generate_in_product(factors, seeds, GEN_SIG, 10**6, "G")
        assert got.algebra.size == size

    def test_kernels_shared_across_factor_counts(self):
        """A kernel depends on the factor tables alone, not on how many
        factors share them: once free DL on one generator (2 factors) and
        the Boolean reflection of Chain2 (1 factor) have compiled a kernel
        per symbol, free DL on 2 and 3 generators (4 and 8 factors) and the
        reflection of Chain3 (2 factors) add none to the code cache."""
        free_algebra(fx.DL, ["x"])
        free_extension(fx.CHAIN2, fx.DL_TO_BOOL)
        misses = _define.cache_info().misses
        free_algebra(fx.DL, ["x", "y"])
        free_algebra(fx.DL, ["x", "y", "z"])
        free_extension(fx.CHAIN3, fx.DL_TO_BOOL)
        assert _define.cache_info().misses == misses

    def test_repeated_call_builds_no_kernel_source(self, monkeypatch):
        """A kernel is cached on its factor tables, arity and width, so a
        second free DL on one generator builds no expression source."""
        built = []

        def counted(*args):
            built.append(args)
            return plane_expressions(*args)

        plane_expressions = quasivariety._plane_expressions
        monkeypatch.setattr(quasivariety, "_plane_expressions", counted)
        quasivariety._kernel.cache_clear()
        free_algebra(fx.DL, ["x"])
        assert len(built) == len(fx.BDL.symbols)
        built.clear()
        free_algebra(fx.DL, ["x"])
        assert built == []

    @pytest.mark.parametrize("seeds, size", [
        ([], 6),
        ([(2, 1, 0, 1), (1, 0, 1, 0)], 12),
    ], ids=["constants", "seeded"])
    def test_commutative_symbols_match_reference(self, seeds, size):
        """`m` is commutative in every factor and takes half rows; `f` is
        not commutative and `g` is commutative in the 3-element factor and
        one 2-element factor but not the other, so both take whole rows.
        Elements, tables, seed indices and trace equal the reference."""
        factors = [self.C3, self.C2, self.D2, self.C2]
        got = generate_in_product(factors, seeds, COMM_SIG, 10**6, "G")
        assert got == oracles.generate_in_product(factors, seeds, COMM_SIG, 10**6, "G")
        assert got.algebra.size == size

    @pytest.mark.parametrize("factors, signature, rows", [
        ([C3, C2, D2, C2], COMM_SIG, {"m": 1, "f": 2, "g": 2}),
        ([C3, C2, C2], COMM_SIG, {"m": 1, "f": 2, "g": 1}),
        ([D2], COMM_SIG, {"m": 1, "f": 2, "g": 2}),
        ([fx.TWO_IMP], fx.BIMP, {"meet": 1, "join": 1, "imp": 2}),
    ], ids=["mixed", "symmetric-g", "asymmetric-g", "bimp"])
    def test_half_rows_for_commutative_tables_only(self, monkeypatch, factors, signature, rows):
        """A binary kernel is one comprehension over the pool when the
        symbol's table is symmetric in every group of factors, and two
        otherwise: g is symmetric in C3 and C2 but not in D2, and BIMP's
        imp is not commutative."""
        sources = []
        define = quasivariety._define
        monkeypatch.setattr(quasivariety, "_define",
                            lambda source: sources.append(source) or define(source))
        quasivariety._kernel.cache_clear()
        generate_in_product(factors, [], signature, 10**6, "G")
        binary = [sym for sym, k in signature.symbols if k == 2]
        kernels = [source for source in sources if "pool" in source]
        assert dict(zip(binary, (source.count(" in pool]") for source in kernels))) == rows

    @settings(max_examples=100, deadline=None)
    @given(inputs=product_inputs(), data=st.data())
    def test_symmetrized_tables_match_reference(self, inputs, data):
        """Random products whose binary symbol is made commutative in a
        drawn set of factors: in all of them it takes half rows, otherwise
        whole ones.  Both match the reference."""
        factors, seeds, signature = inputs
        factors = [_symmetrized(A, "f") if data.draw(st.booleans()) else A for A in factors]
        args = (factors, seeds, signature, 10**6, "G")
        assert _outcome(generate_in_product, *args) == _outcome(oracles.generate_in_product, *args)

    @pytest.mark.parametrize("factors, seeds, signature", [
        ([], [(), ()], COMM_SIG),
        ([FiniteAlgebra("PM", PM_SIG, 2, ((0, 0, 1, 1), (0, 0, 0, 1)))], [(1,)], PM_SIG),
    ], ids=["empty-product", "idempotent"])
    def test_one_element_closure(self, factors, seeds, signature):
        """A closure of one element has 1 x 1 binary tables; the tables
        phase must not take `itemgetter` of its one index, which returns a
        bare value.  The empty product, and a seed that an idempotent
        commutative and a non-commutative symbol both fix."""
        got = generate_in_product(factors, seeds, signature, 10**6, "G")
        assert got == oracles.generate_in_product(factors, seeds, signature, 10**6, "G")
        assert got.algebra.size == 1
        assert all(table == (0,) for table in got.algebra.tables)

    def test_seed_outside_the_product_rejected(self):
        with pytest.raises(ValueError, match="not an element of the product"):
            generate_in_product([fx.CHAIN2, fx.CHAIN3], [(1, 3)], fx.BDL)
        with pytest.raises(ValueError, match="not an element of the product"):
            generate_in_product([fx.CHAIN2, fx.CHAIN3], [(1,)], fx.BDL)


class TestStoppedGeneration:
    @settings(max_examples=150, deadline=None)
    @given(inputs=product_inputs(), data=st.data())
    def test_stop_matches_reference_discovery(self, inputs, data):
        """With `stop_after` = s, a closure of at most s elements is returned
        as without it; a larger one raises `GenerationStopped` with the
        reference's first s + 1 tuples in the order of discovery and their
        first producers, arguments given by discovery number."""
        factors, seeds, signature = inputs
        reached = list(oracles.discovery(factors, seeds, signature).items())
        stop = data.draw(st.integers(0, len(reached) + 1))
        try:
            got = generate_in_product(factors, seeds, signature, 10**6, "G", stop_after=stop)
        except GenerationStopped as exc:
            assert stop < len(reached)
            number = {t: i for i, (t, _) in enumerate(reached)}
            expected = reached[:stop + 1]
            assert exc.elements == tuple(t for t, _ in expected)
            assert exc.trace == tuple(
                origin if origin[0] == "seed"
                else (origin[0],) + tuple(number[a] for a in origin[1:])
                for _, origin in expected
            )
        except ValueError:  # nothing reached
            assert reached == []
        else:
            assert stop >= len(reached)
            assert got == generate_in_product(factors, seeds, signature, 10**6, "G")

    def test_stop_does_not_lift_the_cap(self):
        with pytest.raises(CapExceeded):
            generate_in_product([fx.CHAIN2] * 3, [], fx.BDL, 7, stop_after=1)


_x, _y, _z = Var("x"), Var("y"), Var("z")


def _semilattice_axioms(op, unit, bottom=None):
    """Idempotent, commutative and associative `op` with `unit` as its
    identity, and `bottom` absorbing when given."""
    def f(a, b):
        return App(op, (a, b))

    pairs = [
        (f(_x, _x), _x),
        (f(_x, _y), f(_y, _x)),
        (f(f(_x, _y), _z), f(_x, f(_y, _z))),
        (f(_x, App(unit)), _x),
    ]
    if bottom is not None:
        pairs.append((f(_x, App(bottom)), App(bottom)))
    return tuple(Quasiequation((), Equation(lhs, rhs)) for lhs, rhs in pairs)


MSLAX = Quasivariety("MSLAX", fx.MSL, axioms=_semilattice_axioms("meet", "top", "bot"))
MONAX = Quasivariety("MONAX", fx.MON, axioms=_semilattice_axioms("mul", "e"))


@st.composite
def generated_quasivarieties(draw):
    """A generated quasivariety and a bound 1-5: 1-2 generators of 2-3
    elements with random tables over a nonempty part of {c/0, u/1, f/2}."""
    symbols = draw(st.lists(st.sampled_from(CUF.symbols), min_size=1, unique=True))
    signature = Signature("gens", tuple(sorted(symbols, key=CUF.symbols.index)))
    generators = []
    for _ in range(draw(st.integers(1, 2))):
        n = draw(st.integers(2, 3))
        tables = tuple(
            tuple(draw(st.integers(0, n - 1)) for _ in range(n**k)) for _, k in signature.symbols
        )
        generators.append(FiniteAlgebra("G", signature, n, tables))
    K = Quasivariety("K", signature, generators=tuple(generators))
    return K, draw(st.integers(1, 5))


class TestEnumerateMembers:
    def test_sizes_one_and_two(self):
        assert len(enumerate_members(fx.DL, 1)) == 1
        members2 = enumerate_members(fx.DL, 2)
        assert len(members2) == 1
        assert are_isomorphic(members2[0], fx.CHAIN2)

    def test_size_four_chain_and_diamond(self):
        members = enumerate_members(fx.DL, 4)
        assert len(members) == 2
        assert sorted(
            ("chain" if are_isomorphic(A, fx.CHAIN4) else "diamond") for A in members
        ) == ["chain", "diamond"]

    def test_all_members_pass_membership(self):
        for A in members_up_to(fx.DL, 4):
            assert membership(A, fx.DL).holds

    def test_bound_below_one_gives_no_members(self):
        """No member is larger than the bound, whichever presentation: the
        generated search starts from the trivial algebra, which a bound of 0
        excludes as the axiomatic search does."""
        assert members_up_to(fx.DL, 0) == members_up_to(fx.DLAX, 0) == []

    def test_axiomatic_enumeration_small(self):
        ms1 = enumerate_members(fx.DLAX, 1)
        assert len(ms1) == 1
        ms2 = enumerate_members(fx.DLAX, 2)
        assert len(ms2) == 1
        assert are_isomorphic(ms2[0], fx.CHAIN2)

    def test_axiomatic_matches_generated_up_to_size_five(self):
        """The axiom list is a complete base for the generated class at every
        size up to 5: both presentations list the same classes (1, 1, 1, 2,
        3 per size, OEIS A006982), and each axiomatic class is isomorphic to
        exactly one generated class."""
        for n in range(1, 6):
            gen = enumerate_members(fx.DL, n)
            axi = enumerate_members(fx.DLAX, n)
            assert len(gen) == len(axi) == [1, 1, 1, 2, 3][n - 1]
            for A in axi:
                assert sum(are_isomorphic(A, B) for B in gen) == 1

    def test_dl_class_counts_match_a006982_up_to_twelve(self):
        """Distributive lattices of n elements up to isomorphism, n = 1..12,
        are 1, 1, 1, 2, 3, 5, 8, 15, 26, 47, 82, 151 (OEIS A006982).  Each
        class found is a member and no two of the same size are
        isomorphic."""
        members = members_up_to(fx.DL, 12)
        sizes = [A.size for A in members]
        assert [sizes.count(n) for n in range(1, 13)] == [
            1, 1, 1, 2, 3, 5, 8, 15, 26, 47, 82, 151
        ]
        assert all(membership(A, fx.DL).holds for A in members)
        for A, B in combinations(members, 2):
            if A.size == B.size:
                assert not are_isomorphic(A, B)

    def test_generated_semilattice_counts_a006966_at_eight(self):
        """The generated MSL and MON classes of 8 elements number 222 each
        (OEIS A006966)."""
        for K in (fx.MSLQ, fx.MONQ):
            assert len(enumerate_members(K, 8)) == 222

    @given(generated_quasivarieties())
    @settings(max_examples=60, deadline=None)
    def test_generated_members_match_the_reference(self, case):
        """The search lists the tables of `oracles.member_classes`, which
        expands every class and offers every subdirect subuniverse, in the
        same order."""
        K, bound = case
        got = _member_classes.__wrapped__(K, bound)
        assert [A.tables for A in got] == [A.tables for A in oracles.member_classes(K, bound)]

    @pytest.mark.parametrize("K, most", [(fx.DL, 8), (fx.MSLQ, 6), (fx.MONQ, 6)])
    def test_fixture_members_match_the_reference(self, K, most):
        for bound in range(1, most + 1):
            got = _member_classes.__wrapped__(K, bound)
            assert [A.tables for A in got] == [A.tables for A in oracles.member_classes(K, bound)]

    @pytest.mark.parametrize("K, lo, hi", [
        (fx.DL, 4, 8), (fx.MSLQ, 4, 6), (fx.MONQ, 4, 6),
        (fx.DLAX, 3, 5), (MSLAX, 4, 5), (MONAX, 4, 5),
    ], ids=lambda v: getattr(v, "name", v))
    def test_representatives_do_not_depend_on_the_bound(self, K, lo, hi):
        """The classes within a bound are those of a larger bound, cut to
        size, with the same tables: each class keeps the first copy found,
        and a larger bound adds only larger classes, which lead to no
        smaller one."""
        small = _member_classes.__wrapped__(K, lo)
        large = _member_classes.__wrapped__(K, hi)
        assert [A.tables for A in small] == [A.tables for A in large if A.size <= lo]

    def test_dl_member_search_expands_no_class_at_the_bound(self, monkeypatch):
        """A cold enumeration of DL up to size 8 searches C x G for 21 of
        its 36 classes: every class of fewer than 8 elements, and none of
        the 15 of 8.  The count is deterministic."""
        factors = []
        original = quasivariety.all_subuniverses

        def counting(P, max_size=None, first_factor=None):
            factors.append(first_factor)
            return original(P, max_size=max_size, first_factor=first_factor)

        monkeypatch.setattr(quasivariety, "all_subuniverses", counting)
        members = _member_classes.__wrapped__(fx.DL, 8)
        assert len(members) == 36
        assert len(factors) == 21
        assert 8 not in factors

    @staticmethod
    def _closes(monkeypatch, K, bound):
        """The classes of a cold enumeration and its `core._close` calls."""
        calls = 0
        original = core._close

        def counting(*args):
            nonlocal calls
            calls += 1
            return original(*args)

        monkeypatch.setattr(core, "_close", counting)
        return len(_member_classes.__wrapped__(K, bound)), calls

    def test_dl_member_search_closure_work_is_pinned(self, monkeypatch):
        """A cold enumeration of DL up to size 8 makes exactly 928 calls to
        `core._close`, the closure loop: one per candidate extension the
        subuniverse search closes (907) and one closure of the constants
        per search (21, one per class below the bound); the count is
        deterministic.  The search without its canonicity test fails here,
        and so do the search without the coordinate stop (3,555), the
        search of the 15 classes at the bound, the set-based search that
        closed each candidate before testing its least size, Close-by-One
        without inherited failures and without the stop (4,594), and the
        `seen` search that tried every extension of every set found."""
        assert self._closes(monkeypatch, fx.DL, 8) == (36, 928)

    def test_dl12_member_search_closure_work_is_pinned(self, monkeypatch):
        """Up to size 12, where the coordinate stop saves most: 342 classes
        and exactly 24,380 `core._close` calls.  Without the stop the search
        makes 541,885, with FCbO's inherited failures 23,830."""
        assert self._closes(monkeypatch, fx.DL, 12) == (342, 24_380)

    def test_dl_member_search_builds_only_new_classes(self, monkeypatch):
        """A cold enumeration of DL up to size 8 builds exactly 59
        subalgebras.  Of the 219 subdirect subuniverses of some C x G found,
        76 have |C| elements; each is isomorphic to C, so it is not built.
        Of the other 143, 84 have the tables of an earlier candidate and are
        answered by the registry's lookup before they are built; building
        them all first made 143.  The count is deterministic."""
        calls = 0
        original = quasivariety.FiniteAlgebra

        def counting(*args):
            nonlocal calls
            calls += 1
            return original(*args)

        monkeypatch.setattr(quasivariety, "FiniteAlgebra", counting)
        members = _member_classes.__wrapped__(fx.DL, 8)
        assert len(members) == 36
        assert calls == 59

    @pytest.mark.parametrize("K, bound, classes, searches", [
        (fx.DL, 8, 36, 24), (fx.MSLQ, 6, 25, 20), (fx.MONQ, 6, 25, 20),
        (fx.DL, 12, 342, 608), (MONAX, 6, 25, 924),
    ], ids=lambda v: getattr(v, "name", v))
    def test_member_search_isomorphism_work_is_pinned(
        self, monkeypatch, K, bound, classes, searches
    ):
        """A cold enumeration makes exactly this many isomorphism tests,
        `find_isomorphism` calls from the registry; the count is
        deterministic.  Of DL 8's 143 candidates, 84 have the tables of an
        earlier one and get its answer from the registry's lookup, with no
        search.  The registry without that lookup makes 108 calls at DL 8
        and 74 at MSLQ 6 and MONQ 6, and one that looks up only the classes
        it added, not the copies it found isomorphic, fails here too.  The
        profile domains and the plans kept per class make each test
        cheaper, not fewer: DL 12 and MONAX 6 made 608 and 924 before
        them."""
        calls = 0
        original = core.find_isomorphism

        def counting(*args):
            nonlocal calls
            calls += 1
            return original(*args)

        monkeypatch.setattr(core, "find_isomorphism", counting)
        members = _member_classes.__wrapped__(K, bound)
        assert len(members) == classes
        assert calls == searches

    def test_bool_members(self):
        sizes = [A.size for A in members_up_to(fx.BOOL, 4)]
        assert sizes == [1, 2, 4]

    def test_msl_members(self):
        sizes = [A.size for A in members_up_to(fx.MSLQ, 4)]
        assert sizes == [1, 2, 3, 4, 4]


F2 = Signature("f2", (("f", 2),))
CUF = Signature("cuf", (("c", 0), ("u", 1), ("f", 2)))
CDU = Signature("cdu", (("c", 0), ("d", 0), ("u", 1)))


def _f(a, b):
    return App("f", (a, b))


def _u(a):
    return App("u", (a,))


_INJECTIVE_U = Quasiequation((Equation(_u(_x), _u(_y)),), Equation(_x, _y))


# Quasiequations random equations rarely give: bases with many models, and
# premises that a partial table leaves undecided.
AXIOM_POOL = {
    F2: (
        Quasiequation((), Equation(_f(_x, _y), _f(_y, _x))),
        Quasiequation((), Equation(_f(_x, _x), _x)),
        Quasiequation((), Equation(_f(_f(_x, _y), _z), _f(_x, _f(_y, _z)))),
        Quasiequation((Equation(_f(_x, _y), _f(_x, _z)),), Equation(_y, _z)),
    ),
}
AXIOM_POOL[CUF] = AXIOM_POOL[F2] + (
    _INJECTIVE_U,
    Quasiequation((Equation(_f(_x, _y), App("c")),), Equation(_x, _u(_y))),
)
AXIOM_POOL[CDU] = (_INJECTIVE_U, Quasiequation((), Equation(_u(_u(_x)), _x)))


@st.composite
def axiom_sets(draw):
    """A signature, 1-3 quasiequations over it and a size: {f/2} and
    {c/0, d/0, u/1} at sizes 1-3 and {c/0, u/1, f/2} at sizes 1-2, so that
    the oracle can list every table.  With two constants, the second is a
    cell whose value can be an element that no argument has shown yet.
    Each quasiequation is either random, with 0-1 premises and equations of
    depth at most 2, or drawn from AXIOM_POOL."""
    signature, most = draw(st.sampled_from([(F2, 3), (CUF, 2), (CDU, 3)]))
    side = terms_over(signature, 2)
    equations = st.builds(Equation, side, side)
    random = st.builds(
        Quasiequation, st.lists(equations, max_size=1).map(tuple), equations
    )
    axioms = draw(st.lists(
        st.one_of(random, st.sampled_from(AXIOM_POOL[signature])), min_size=1, max_size=3
    ))
    return signature, tuple(axioms), draw(st.sampled_from(range(most, 0, -1)))


class TestAxiomaticModels:
    def test_semilattice_axioms_count_a006966_up_to_five(self):
        """Meet-semilattices with bottom and top (MSL) and idempotent
        commutative monoids (MON, the unit as top) of n elements up to
        isomorphism, n = 1..5, are 1, 1, 1, 2, 5 (OEIS A006966: a finite
        meet-semilattice with top is a lattice).  Both equational bases give
        these counts, and every class found satisfies its axioms."""
        for K in (MSLAX, MONAX):
            members = members_up_to(K, 5)
            sizes = [A.size for A in members]
            assert [sizes.count(n) for n in range(1, 6)] == [1, 1, 1, 2, 5]
            assert all(membership(A, K).holds for A in members)

    def test_axiomatic_search_work_is_pinned(self):
        """The search returns exactly 3 labelled models of the DL axioms at
        size 4 and 12 at size 5, for 2 and 3 classes.  The count is
        deterministic; a search without the least-number heuristic, or with
        its cells in row-major order, returns more (36 at size 4 without
        it)."""
        assert [len(_axiomatic_models(fx.BDL, fx.DL_AXIOMS, n)) for n in (4, 5)] == [3, 12]

    def test_axiomatic_classes_at_size_six(self):
        """At size 6 the DL axioms give 5 classes (OEIS A006982) and both
        semilattice bases 15 each (A006966), and each axiomatic class is
        isomorphic to exactly one generated class of that size."""
        for K, G, count in ((fx.DLAX, fx.DL, 5), (MSLAX, fx.MSLQ, 15), (MONAX, fx.MONQ, 15)):
            axi, gen = enumerate_members(K, 6), enumerate_members(G, 6)
            assert len(axi) == len(gen) == count
            for A in axi:
                assert sum(are_isomorphic(A, B) for B in gen) == 1

    def test_compiled_term_calls_are_pinned(self, monkeypatch):
        """The search at DLAX size 5 calls compiled sides exactly 24,419
        times.  A search that evaluated every undecided instance at every
        node made 307,240; a return to such sweeps fails the bound of a
        tenth of that."""
        calls = 0

        def counted(*args, **kwargs):
            f = compile_term(*args, **kwargs)

            def g(*values):
                nonlocal calls
                calls += 1
                return f(*values)

            return g

        monkeypatch.setattr(quasivariety, "compile_term", counted)
        assert len(_axiomatic_models(fx.BDL, fx.DL_AXIOMS, 5)) == 12
        assert calls == 24_419
        assert calls < 307_240 // 10

    def test_cold_enumeration_compiles_each_shape_once(self, monkeypatch):
        """A cold enumeration of DLAX 3, MSLAX 4 and MONAX 4, the bench's
        axiomatic workload, compiles each axiom's sides once per class: 44
        `compile_term` calls, where a compile at every size made 150.  Their
        23 sources have 7 shapes, so the code cache compiles 7 times, where
        one compile per source made 23."""
        calls = 0

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return compile_term(*args, **kwargs)

        monkeypatch.setattr(quasivariety, "compile_term", counted)
        for cache in (_member_classes, _define, _shape):
            cache.cache_clear()
        for K, n in ((fx.DLAX, 3), (MSLAX, 4), (MONAX, 4)):
            members_up_to(K, n)
        assert calls == 44
        assert _define.cache_info().misses == 23
        assert _shape.cache_info().misses == 7

    @pytest.mark.parametrize("K", [fx.DLAX, MSLAX, MONAX], ids=lambda K: K.name)
    def test_matches_reference_search_up_to_size_five(self, K):
        """The watched search returns the tables of the reference search,
        which evaluates every undecided instance at every node, in the same
        order."""
        for n in range(1, 6):
            assert [A.tables for A in _axiomatic_models(K.signature, K.axioms, n)] == [
                A.tables for A in oracles.axiomatic_search(K.signature, K.axioms, n)
            ]

    @settings(max_examples=60, deadline=None)
    @given(inputs=axiom_sets())
    def test_matches_reference_search(self, inputs):
        """The same on random axiom sets, premises included."""
        signature, axioms, n = inputs
        assert [A.tables for A in _axiomatic_models(signature, axioms, n)] == [
            A.tables for A in oracles.axiomatic_search(signature, axioms, n)
        ]

    @settings(max_examples=30, deadline=None)
    @given(inputs=axiom_sets())
    def test_matches_brute_force_models(self, inputs):
        """Every model the search returns satisfies every axiom, and its
        models meet exactly the isomorphism classes of the models found by
        trying every table assignment."""
        signature, axioms, n = inputs
        models = _axiomatic_models(signature, axioms, n)
        for A in models:
            assert all(check_quasiequation(A, q)[0] for q in axioms)
        found = {oracles.canonical_form(A) for A in models}
        assert found == oracles.axiomatic_models(signature, axioms, n)


def embedding(A, B, mapping):
    h = Homomorphism(A, B, A.signature, mapping)
    assert is_homomorphism(h) and is_embedding(h)
    return h


class TestBoundedAmalgamation:
    def test_identity_span(self):
        ident = embedding(fx.CHAIN2, fx.CHAIN2, (0, 1))
        result = bounded_amalgamation(
            fx.CHAIN2, fx.CHAIN2, fx.CHAIN2, ident, ident, fx.DL, 2
        ).certificate
        assert isinstance(result, Amalgam)
        assert result.apex.size == 2

    def test_chain3_span_found_within_four(self):
        f = embedding(fx.CHAIN2, fx.CHAIN3, (0, 2))
        verdict = bounded_amalgamation(fx.CHAIN2, fx.CHAIN3, fx.CHAIN3, f, f, fx.DL, 4)
        assert verdict.holds
        result = verdict.certificate
        assert isinstance(result, Amalgam)
        assert result.apex.size <= 4
        # replay: the square commutes and both legs embed
        assert is_embedding(result.left_leg) and is_embedding(result.right_leg)
        for a in range(2):
            assert result.left_leg(f(a)) == result.right_leg(f(a))

    def test_bound_too_small(self):
        f = embedding(fx.CHAIN2, fx.CHAIN3, (0, 2))
        result = bounded_amalgamation(fx.CHAIN2, fx.CHAIN3, fx.CHAIN3, f, f, fx.DL, 1)
        assert result == Verdict("amalgamation", "unknown-within-bound", NotFoundWithinBound(1))

    def test_non_embedding_rejected(self):
        bad = Homomorphism(fx.CHAIN3, fx.CHAIN2, fx.BDL, (0, 0, 1))
        with pytest.raises(ValueError, match="embedding"):
            bounded_amalgamation(fx.CHAIN3, fx.CHAIN2, fx.CHAIN2, bad, bad, fx.DL, 2)


class TestCacheNames:
    """Caches compare keys by structure; names come from the caller, whatever
    equal key filled a cache first."""

    def test_member_names_do_not_depend_on_call_order(self):
        lattices = Signature("Lat", fx.BDL.symbols)
        for order in (("Alpha", "Beta"), ("Beta", "Alpha")):
            _member_classes.cache_clear()
            got = {
                label: members_up_to(Quasivariety(label, lattices, generators=(fx.CHAIN2,)), 3)
                for label in order
            }
            for label, members in got.items():
                assert [A.name for A in members] == [f"{label}/n1#0", f"{label}/n2#1", f"{label}/n3#2"]
                assert all(A.signature.name == "Lat" for A in members)
            assert [A.name for A in enumerate_members(fx.DL, 2)] == ["DL/n2#1"]

    def test_induced_op_carries_the_callers_algebra(self):
        for names in (("C3a", "C3b"), ("C3b", "C3a")):
            for name in names:
                A = fx.CHAIN3.renamed(name)
                op = induced_partial_op(A, fx.COMPL)
                assert op.algebra is A
                assert op.graph == (((0,), 2), ((2,), 0))

    def test_free_extension_named_after_its_argument(self):
        for names in (("C3a", "C3b"), ("C3b", "C3a")):
            for name in names:
                fe = free_extension(fx.CHAIN3.renamed(name), fx.DL_TO_BOOL)
                assert fe.algebra.name == fe.gen.algebra.name == f"F({name})"
                assert fe.unit.source.name == name
                assert fe.algebra.size == 4

    def test_expansion_members_named_after_the_base(self):
        for names in (("Alpha", "Beta"), ("Beta", "Alpha")):
            for name in names:
                base = Quasivariety(name, fx.BDL, generators=(fx.CHAIN2,))
                P = PpExpansionSpec(base, fx.PP_COMPL.ops)
                members = expansion_members(P, 4)
                assert [A.name for A in members] == [
                    f"S({name})[+]/n{A.size}#{i}" for i, A in enumerate(members)
                ]
                assert members and all(A.signature is P.expanded_signature for A in members)
