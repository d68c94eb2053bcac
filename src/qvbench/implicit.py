"""pp-defined implicit operations: induced partial graphs, homomorphism
preservation, extendability, totalization, unique witnesses, and a bounded
search for pp definitions of a given graph family.

Every "for all members" claim here is a bound-parameterized verdict; the bound
travels with the result and no global negative is ever emitted.
"""
from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations, combinations_with_replacement, islice, product as iproduct

from .core import (
    FiniteAlgebra,
    Homomorphism,
    Signature,
    SignatureError,
    direct_product,
    enumerate_embeddings,
    enumerate_homomorphisms,
    identity_homomorphism,
    record,
    replace,
    trivial_algebra,
)
from .logic import (
    App,
    Equation,
    LogicError,
    PpFormula,
    Term,
    Var,
    compile_pp,
    compile_term,
    term_variables,
)
from .quasivariety import (
    NotFoundWithinBound,
    Quasivariety,
    members_up_to,
)


def arg_var(i: int) -> str:
    return f"x{i + 1}"


def witness_var(i: int) -> str:
    return f"z{i + 1}"


RESULT_VAR = "y"


@record
class ImplicitOpSpec:
    """A pp formula with the fixed variable convention: arguments x1..xn,
    result y, witnesses z1..zm (the bound variables, in that order)."""
    name: str
    signature: Signature
    arity: int
    witness_count: int
    formula: PpFormula

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise LogicError("implicit operations have arity >= 1")
        expected = tuple(witness_var(i) for i in range(self.witness_count))
        if self.formula.bound_vars != expected:
            raise LogicError(
                f"{self.name!r}: bound variables must be {expected}, got {self.formula.bound_vars}"
            )
        allowed = set(self.variables)
        stray = [v for v in self.formula.free_vars() if v not in allowed]
        if stray:
            raise LogicError(f"{self.name!r}: free variables {stray} violate the x1..xn,y convention")

    @property
    def variables(self) -> list[str]:
        """The argument variables, then the result variable."""
        return [arg_var(i) for i in range(self.arity)] + [RESULT_VAR]


@record
class PartialOperation:
    algebra: FiniteAlgebra
    arity: int
    graph: tuple[tuple[tuple[int, ...], int], ...]

    @cached_property
    def as_dict(self) -> dict[tuple[int, ...], int]:
        return dict(self.graph)

    @property
    def is_total(self) -> bool:
        return len(self.graph) == self.algebra.size**self.arity

    def defined_at(self, args: tuple[int, ...]) -> bool:
        return args in self.as_dict


@record
class FunctionalityViolation:
    """The formula relates one argument tuple to two distinct values, so it
    does not define a partial function on this algebra."""
    algebra: FiniteAlgebra
    args: tuple[int, ...]
    value_a: int
    value_b: int


def induced_partial_op(A: FiniteAlgebra, s: ImplicitOpSpec) -> PartialOperation | FunctionalityViolation:
    """For each argument tuple, collect the values the formula relates it to:
    none = undefined, one = graph entry, two or more = structured violation."""
    if not A.signature.includes(s.signature):
        raise SignatureError(f"{s.name!r} is not over a reduct of {A.signature.name!r}")
    return replace(_induced(A, s), algebra=A)


@lru_cache(maxsize=None)
def _induced(A: FiniteAlgebra, s: ImplicitOpSpec) -> PartialOperation | FunctionalityViolation:
    """The result of `induced_partial_op` on the first algebra equal to A: the
    cache key compares algebras by structure, so the caller's A replaces it."""
    n = A.size
    # One search per argument tuple, with y searched last, so that an
    # equation without y is tested once per witness tuple rather than once
    # per value of y.  The search collects every value; the two least are
    # a violation's certificate.
    formula = PpFormula((*s.formula.bound_vars, RESULT_VAR), s.formula.body)
    search = compile_pp(A.signature, formula, s.variables[:-1])
    graph: list[tuple[tuple[int, ...], int]] = []
    for args in iproduct(range(n), repeat=s.arity):
        values = sorted({witness[-1] for witness in search(A.tables, n, args)})
        if len(values) > 1:
            return FunctionalityViolation(A, args, values[0], values[1])
        if values:
            graph.append((args, values[0]))
    return PartialOperation(A, s.arity, tuple(graph))


# bench/spans.py reads the cache statistics of the public call.
induced_partial_op.cache_info = _induced.cache_info


def graphs_on(family, A: FiniteAlgebra) -> PartialOperation | FunctionalityViolation:
    """A graph family is either an ImplicitOpSpec (induced graphs) or a callable
    assigning a PartialOperation to each algebra."""
    if isinstance(family, ImplicitOpSpec):
        return induced_partial_op(A, family)
    return family(A)


@record
class PreservationViolation:
    hom: Homomorphism
    args: tuple[int, ...]
    reason: str  # "domain" (image tuple undefined) or "value" (images disagree)


def generator_products(K: Quasivariety, bound: int) -> list[FiniteAlgebra]:
    """Finite products of generators with at most `bound` factors, including
    the empty product."""
    if not K.is_generated:
        raise ValueError("generator products need a generated presentation")
    out = [trivial_algebra(K.signature)]
    for count in range(1, bound + 1):
        for combo in combinations_with_replacement(K.generators, count):
            if len(combo) == 1:
                out.append(combo[0])
            else:
                out.append(direct_product(list(combo)))
    return out


def check_preservation(
    family,
    K: Quasivariety,
    bound: int,
    language: Signature | None = None,
):
    """Verify that the family's graphs on all products of generators (up to
    `bound` factors) are preserved by every language-reduct homomorphism
    between them.  pp-induced families pass by construction, so this doubles
    as a sanity oracle for them."""
    if language is None:
        if not isinstance(family, ImplicitOpSpec):
            raise ValueError("a callable family needs an explicit language")
        language = family.signature
    algebras = generator_products(K, bound)
    graphs = []
    for P in algebras:
        g = graphs_on(family, P)
        if isinstance(g, FunctionalityViolation):
            return g
        graphs.append(g)
    for i, P1 in enumerate(algebras):
        for j, P2 in enumerate(algebras):
            for h in enumerate_homomorphisms(P1, P2, language):
                target = graphs[j].as_dict
                for args, value in graphs[i].graph:
                    image = h.apply_tuple(args)
                    if image not in target:
                        return PreservationViolation(h, args, "domain")
                    if target[image] != h(value):
                        return PreservationViolation(h, args, "value")
    return "ok"


@record
class Extension:
    algebra: FiniteAlgebra
    embedding: Homomorphism


def check_extendable(
    s: ImplicitOpSpec,
    K: Quasivariety,
    A: FiniteAlgebra,
    args: tuple[int, ...],
    size_bound: int,
) -> Extension | NotFoundWithinBound:
    """Search for a member extending A on which the operation is defined at the
    image of `args`; tuples already in the domain extend trivially."""
    op = induced_partial_op(A, s)
    if isinstance(op, PartialOperation) and op.defined_at(args):
        return Extension(A, identity_homomorphism(A, K.signature))
    for B in members_up_to(K, size_bound):
        if B.size < A.size:
            continue
        opB = induced_partial_op(B, s)
        if not isinstance(opB, PartialOperation):
            continue
        for e in enumerate_embeddings(A, B, K.signature):
            if opB.defined_at(e.apply_tuple(args)):
                return Extension(B, e)
    return NotFoundWithinBound(size_bound)


def check_totalizable(
    s: ImplicitOpSpec,
    K: Quasivariety,
    A: FiniteAlgebra,
    size_bound: int,
) -> Extension | NotFoundWithinBound:
    """Like check_extendable but the target must make the operation total on
    its whole universe (it then extends the original graph automatically,
    since pp graphs are preserved along embeddings)."""
    op = induced_partial_op(A, s)
    if isinstance(op, PartialOperation) and op.is_total:
        return Extension(A, identity_homomorphism(A, K.signature))
    for B in members_up_to(K, size_bound):
        if B.size < A.size:
            continue
        opB = induced_partial_op(B, s)
        if not isinstance(opB, PartialOperation) or not opB.is_total:
            continue
        embeddings = enumerate_embeddings(A, B, K.signature)
        if embeddings:
            return Extension(B, embeddings[0])
    return NotFoundWithinBound(size_bound)


@record
class UniqueWitnessViolation:
    algebra: FiniteAlgebra
    args: tuple[int, ...]
    witness_a: tuple[int, ...]
    witness_b: tuple[int, ...]


def check_unique_witnesses(
    s: ImplicitOpSpec,
    K: Quasivariety,
    bound: int,
):
    """On every member up to the bound and every defined tuple, the defining
    formula must have exactly one witness tuple; with no witness variables the
    empty tuple is trivially unique."""
    witnesses = compile_pp(K.signature, s.formula, s.variables)
    for A in members_up_to(K, bound):
        op = induced_partial_op(A, s)
        if isinstance(op, FunctionalityViolation):
            return op
        for args, value in op.graph:
            found = list(islice(witnesses(A.tables, A.size, args + (value,)), 2))
            if len(found) > 1:
                return UniqueWitnessViolation(A, args, found[0], found[1])
    return "ok"


# ---------------------------------------------------------------------------
# Bounded pp-definability search


def _terms_up_to_depth(language: Signature, variables: list[str], depth: int) -> list[Term]:
    """All terms over the language in the given variables, by depth layers;
    constants count as depth 1."""
    layers: list[list[Term]] = [[Var(v) for v in variables]]
    all_terms: list[Term] = list(layers[0])
    for _ in range(depth):
        prev = list(all_terms)
        layer: list[Term] = []
        for sym, k in language.symbols:
            for args in iproduct(prev, repeat=k):
                t = App(sym, args)
                if t not in all_terms and t not in layer:
                    layer.append(t)
        layers.append(layer)
        all_terms.extend(layer)
    return all_terms


def _product_graph(g1: PartialOperation, g2: PartialOperation, P: FiniteAlgebra) -> PartialOperation:
    """Componentwise combination of two graphs on the product of their
    algebras."""
    n2 = g2.algebra.size
    entries = []
    for args1, v1 in g1.graph:
        for args2, v2 in g2.graph:
            args = tuple(a1 * n2 + a2 for a1, a2 in zip(args1, args2))
            entries.append((args, v1 * n2 + v2))
    return PartialOperation(P, g1.arity, tuple(sorted(entries)))


class _MaskTarget:
    """Satisfaction bitmasks for one target algebra: assignments to
    (x1..xn, y, z1..zw) are bit positions (last variable fastest), each
    equation contributes one mask, and a candidate body is the AND of its
    equation masks.  The body matches the expected graph when, for every
    argument block, exactly the expected value has a nonzero witness chunk."""

    def __init__(self, A: FiniteAlgebra, expected: PartialOperation, variables, w: int):
        self.size = A.size
        self.chunk = A.size**w
        assignments = list(iproduct(range(A.size), repeat=len(variables)))
        vectors: dict[Term, list[int]] = {}

        def vec(t: Term) -> list[int]:
            if t not in vectors:
                f = compile_term(A.signature, t, variables)
                vectors[t] = [f(A.tables, A.size, a) for a in assignments]
            return vectors[t]

        self.eq_mask: dict[tuple[int, int], int] = {}
        self.term_vec = vec
        arity = expected.arity
        self.blocks = []
        expected_map = expected.as_dict
        for args in iproduct(range(A.size), repeat=arity):
            self.blocks.append((args, expected_map.get(args)))

    def mask_for(self, eq_key, eq: Equation) -> int:
        if eq_key not in self.eq_mask:
            lv, rv = self.term_vec(eq.left), self.term_vec(eq.right)
            m = 0
            for i in range(len(lv)):
                if lv[i] == rv[i]:
                    m |= 1 << i
            self.eq_mask[eq_key] = m
        return self.eq_mask[eq_key]

    def matches(self, mask: int) -> bool:
        chunk_bits = (1 << self.chunk) - 1
        pos = 0
        block = 0
        for args, want in self.blocks:
            for y in range(self.size):
                defined = (mask >> pos) & chunk_bits
                if bool(defined) != (want == y):
                    return False
                pos += self.chunk
            block += 1
        return True


def bounded_pp_definability_search(
    graphs: list[tuple[FiniteAlgebra, PartialOperation]],
    language: Signature,
    depth: int,
    width: int,
    max_witnesses: int = 2,
) -> PpFormula | NotFoundWithinBound:
    """Enumerate candidate pp formulas (witness count ascending, then equation
    count, then equation index tuples over depth-ordered terms) and return the
    first whose induced graphs match the given ones on every listed algebra
    and on all their pairwise products."""
    if not graphs:
        raise ValueError("need at least one target graph")
    arity = graphs[0][1].arity
    all_targets = list(graphs)
    for i in range(len(graphs)):
        for j in range(i, len(graphs)):
            G1, g1 = graphs[i]
            G2, g2 = graphs[j]
            P = direct_product([G1, G2])
            all_targets.append((P, _product_graph(g1, g2, P)))
    # A body that never mentions the result variable cannot define a nonempty
    # functional graph on an algebra with two or more elements.
    need_result_var = any(
        g.graph and A.size >= 2 for A, g in all_targets
    )

    for w in range(max_witnesses + 1):
        variables = [arg_var(i) for i in range(arity)] + [RESULT_VAR]
        variables += [witness_var(i) for i in range(w)]
        terms = _terms_up_to_depth(language, variables, depth)
        equations = []
        mentions_y = []
        for i in range(len(terms)):
            for j in range(i + 1, len(terms)):
                eq = Equation(terms[i], terms[j])
                equations.append(eq)
                mentions_y.append(
                    RESULT_VAR in term_variables(terms[i]) | term_variables(terms[j])
                )
        targets = [
            _MaskTarget(A, g, variables, w) for A, g in all_targets
        ]
        for count in range(1, width + 1):
            for body in combinations(range(len(equations)), count):
                if need_result_var and not any(mentions_y[i] for i in body):
                    continue
                ok = True
                for t in targets:
                    mask = -1
                    for i in body:
                        mask &= t.mask_for(i, equations[i])
                    if not t.matches(mask):
                        ok = False
                        break
                if ok:
                    return PpFormula(
                        tuple(witness_var(i) for i in range(w)),
                        tuple(equations[i] for i in body),
                    )
    return NotFoundWithinBound(depth)
