"""Expansions of quasivarieties and the free-extension adjunction.

The free extension of an algebra is computed by the hom-product reflection:
the subalgebra of the product of generator copies indexed by all base-language
homomorphisms into generator reducts, generated by the element tuples.  Each
element remembers one producing term over the generator tuples (the
generation trace), which is what the counit and the functorial action chase
through.  `universal_property_check` tests one reflection against the
universal property, but no command runs it.  Each check returns a
`Verdict`; the sweeps return one per member, beside it.

The unit and counit verdicts need no full reflection: the unit's from the
seeds (`unit_collapse`), the counit's from a generation stopped at |B| + 1
elements (`counit_collapse`), so neither takes the product cap.
"""
from __future__ import annotations

from functools import cached_property
from itertools import product as iproduct

from .core import (
    FiniteAlgebra,
    Homomorphism,
    Signature,
    SignatureError,
    enumerate_embeddings,
    enumerate_homomorphisms,
    generated_subalgebra,
    is_embedding,
    is_homomorphism,
    record,
    reduct,
)
from .implicit import (
    FunctionalityViolation,
    ImplicitOpSpec,
    induced_partial_op,
)
from .quasivariety import (
    DEFAULT_PRODUCT_CAP,
    CapExceeded,
    GenerationStopped,
    GenResult,
    NotAMember,
    Quasivariety,
    Verdict,
    generate_in_product,
    members_up_to,
    membership,
    require_member,
)


@record
class ExpansionSpec:
    """A base quasivariety together with one over a larger signature; whether
    the reduct functor actually lands in the base is a checked property, not an
    invariant."""
    base: Quasivariety
    expanded: Quasivariety

    def __post_init__(self) -> None:
        if not self.expanded.signature.includes(self.base.signature):
            raise SignatureError(
                f"signature of {self.expanded.name!r} does not include that of {self.base.name!r}"
            )


@record
class PpExpansionSpec:
    """A base quasivariety plus named pp operations; the derived signature adds
    one fresh symbol per operation."""
    base: Quasivariety
    ops: tuple[tuple[str, ImplicitOpSpec], ...]

    def __post_init__(self) -> None:
        base_syms = {sym for sym, _ in self.base.signature.symbols}
        seen = set()
        for sym, spec in self.ops:
            if sym in base_syms or sym in seen:
                raise SignatureError(f"operation symbol {sym!r} clashes")
            if not self.base.signature.includes(spec.signature):
                raise SignatureError(f"{spec.name!r} is not over a reduct of the base signature")
            seen.add(sym)

    @cached_property
    def expanded_signature(self) -> Signature:
        symbols = self.base.signature.symbols + tuple(
            (sym, spec.arity) for sym, spec in self.ops
        )
        suffix = ",".join(sym for sym, _ in self.ops)
        return Signature(f"{self.base.signature.name}[{suffix}]", symbols)


@record
class UndefinedAt:
    op_symbol: str
    args: tuple[int, ...]


@record
class ExpansionViolation:
    algebra: FiniteAlgebra
    certificate: object


def check_expansion(E: ExpansionSpec, bound: int) -> Verdict:
    """Bounded well-definedness of the reduct functor: every member of the
    expanded class up to `bound` must have its base reduct in the base class.
    The categorical checks presuppose the reduct functor, so they report its
    failure instead of their own verdicts."""
    for B in members_up_to(E.expanded, bound):
        v = _reduct_verdict(B, E)
        if not v.holds:
            return v
    return Verdict("reduct-well-defined", "holds")


def _reduct_verdict(B: FiniteAlgebra, E: ExpansionSpec) -> Verdict:
    """Whether the base reduct of B, an expanded member, is a base member."""
    result = membership(reduct(B, E.base.signature), E.base)
    if result.holds:
        return Verdict("reduct-well-defined", "holds")
    return Verdict(
        "reduct-well-defined", "fails", ExpansionViolation(B, result),
        ("reduct-well-defined fails: an expanded member has a reduct "
         "outside the base class",),
    )


def expand_algebra(
    A: FiniteAlgebra, P: PpExpansionSpec
) -> FiniteAlgebra | UndefinedAt | FunctionalityViolation:
    """Interpret each added symbol by its induced operation on A, a member of
    the base class; defined only when every one of them is total on A."""
    new_tables = []
    for sym, spec in P.ops:
        op = induced_partial_op(A, spec)
        if isinstance(op, FunctionalityViolation):
            return op
        if not op.is_total:
            for args in iproduct(range(A.size), repeat=spec.arity):
                if not op.defined_at(args):
                    return UndefinedAt(sym, args)
        table = tuple(
            op.as_dict[args] for args in iproduct(range(A.size), repeat=spec.arity)
        )
        new_tables.append(table)
    return FiniteAlgebra(
        f"{A.name}[+]", P.expanded_signature, A.size, A.tables + tuple(new_tables)
    )


@record
class PpMembership:
    status: str  # "in-class" | "in-closure" | "no" | "unknown-within-bound"
    witness: tuple[FiniteAlgebra, Homomorphism] | None = None
    certificate: object | None = None
    bound: int | None = None


def pp_expansion_membership(
    B: FiniteAlgebra, P: PpExpansionSpec, size_bound: int
) -> PpMembership:
    """Classify B against the class of expanded members and its closure under
    subalgebras.  A table value disagreeing with a defined induced value is a
    definite refusal: embeddings preserve pp graphs, so no extension can
    reconcile them."""
    sig = P.expanded_signature
    if B.signature != sig:
        raise SignatureError(f"{B.name!r} is not over {sig.name!r}")
    red = reduct(B, P.base.signature)
    base_membership = membership(red, P.base)
    if not base_membership.holds:
        return PpMembership("no", certificate=base_membership)
    total = True
    for sym, spec in P.ops:
        op = induced_partial_op(red, spec)
        if isinstance(op, FunctionalityViolation):
            return PpMembership("no", certificate=op)
        for args, value in op.graph:
            if B.apply(sym, args) != value:
                return PpMembership(
                    "no",
                    certificate=("mismatch", sym, args, B.apply(sym, args), value),
                )
        if not op.is_total:
            total = False
    if total:
        return PpMembership("in-class")
    for D in members_up_to(P.base, size_bound):
        C = expand_algebra(D, P)
        if not isinstance(C, FiniteAlgebra):
            continue
        found = enumerate_embeddings(B, C, sig, limit=1)
        if found:
            return PpMembership("in-closure", witness=(C, found[0]), bound=size_bound)
    return PpMembership("unknown-within-bound", bound=size_bound)


def induced_expansion(P: PpExpansionSpec) -> ExpansionSpec:
    """The expanded class generated by the expanded generators.  This presents
    the subalgebra closure of the expanded members exactly when every operation
    is total on every generator, which is required here."""
    expanded_gens = []
    for G in P.base.generators or ():
        C = expand_algebra(G, P)
        if not isinstance(C, FiniteAlgebra):
            raise ValueError(
                f"operations are not total on generator {G.name!r}; no generated presentation"
            )
        expanded_gens.append(C.renamed(f"{G.name}[+]"))
    if not expanded_gens:
        raise ValueError("induced expansions need a generated base presentation")
    M = Quasivariety(
        f"{P.base.name}[{','.join(sym for sym, _ in P.ops)}]",
        P.expanded_signature,
        generators=tuple(expanded_gens),
    )
    return ExpansionSpec(P.base, M)


@record
class FreeExtension:
    algebra: FiniteAlgebra     # the reflected algebra, a member of the expansion
    unit: Homomorphism         # base-language map into its reduct
    factor_count: int
    gen: GenResult

    @property
    def unit_injective(self) -> bool:
        return is_embedding(self.unit)


def free_extension(
    A: FiniteAlgebra, E: ExpansionSpec, product_cap: int = DEFAULT_PRODUCT_CAP
) -> FreeExtension:
    """Reflect A into the expanded class: one product factor per pair of an
    expanded generator and a base-language homomorphism of A into its reduct;
    generate `F(A)` from the element tuples.  Over an empty index set every
    seed is the empty tuple, so F(A) has one element and the unit is
    constant."""
    require_member(A, E.base)
    factors, homs = _coordinates(A, E)
    seeds = [tuple(h(a) for h in homs) for a in range(A.size)]
    gen = generate_in_product(factors, seeds, E.expanded.signature, product_cap, f"F({A.name})")
    unit = Homomorphism(A, gen.algebra, E.base.signature, gen.seed_index)
    return FreeExtension(gen.algebra, unit, len(factors), gen)


def _coordinates(A: FiniteAlgebra, E: ExpansionSpec) -> tuple[list[FiniteAlgebra], list[Homomorphism]]:
    """The coordinates of A's reflection, in product order: per expanded
    generator G, each base-language homomorphism A -> U(G), with G as its
    factor."""
    if not E.expanded.is_generated:
        raise ValueError("free extensions need a generated expanded presentation")
    factors: list[FiniteAlgebra] = []
    homs: list[Homomorphism] = []
    for G in E.expanded.generators:
        for h in enumerate_homomorphisms(A, reduct(G, E.base.signature), E.base.signature):
            factors.append(G)
            homs.append(h)
    return factors, homs


def _chase_trace(trace: tuple[tuple, ...], seed_images: list[int], target: FiniteAlgebra) -> tuple[int, ...]:
    """Evaluate each element's producing term in the target, starting from the
    given images of the seed elements."""
    out: list[int | None] = [None] * len(trace)
    def value(i: int) -> int:
        if out[i] is not None:
            return out[i]
        origin = trace[i]
        if origin[0] == "seed":
            v = seed_images[origin[1]]
        else:
            sym = origin[0]
            v = target.apply(sym, tuple(value(j) for j in origin[1:]))
        out[i] = v
        return v
    return tuple(value(i) for i in range(len(trace)))


def _evaluation(gen: GenResult, B: FiniteAlgebra) -> Homomorphism:
    """The counit map from a reflection of B's reduct, seeded by B's elements
    in order, back to B, by generator chasing.  It is re-verified to be a
    homomorphism that sends each unit image to its element, which makes it
    the unique one."""
    mapping = _chase_trace(gen.trace, list(range(B.size)), B)
    eps = Homomorphism(gen.algebra, B, gen.algebra.signature, mapping)
    if not is_homomorphism(eps):
        raise AssertionError("generator chasing did not produce a homomorphism")
    if any(mapping[u] != b for b, u in enumerate(gen.seed_index)):
        raise AssertionError("counit does not retract the unit")
    return eps


def counit(B: FiniteAlgebra, E: ExpansionSpec) -> Homomorphism:
    """The evaluation map from the free extension of B's reduct back to B."""
    return _evaluation(free_extension(reduct(B, E.base.signature), E).gen, B)


@record
class LiftViolation:
    member: FiniteAlgebra
    base_map: Homomorphism
    kind: str  # "no-lift" | "not-generated"


def universal_property_check(
    A: FiniteAlgebra,
    E: ExpansionSpec,
    bound: int,
    free: FreeExtension | None = None,
) -> Verdict:
    """For every member B up to the bound and every base-language map
    A -> reduct(B), there must be exactly one expanded-language homomorphism
    from the free extension to B commuting with the unit.  Existence is checked
    by chasing the trace; uniqueness follows once the unit image generates the
    free extension, which is verified explicitly."""
    fe = free if free is not None else free_extension(A, E)
    generated = generated_subalgebra(fe.algebra, set(fe.unit.mapping))
    if len(generated) != fe.algebra.size:
        return Verdict(
            "universal-property", "fails", LiftViolation(fe.algebra, fe.unit, "not-generated")
        )
    for B in members_up_to(E.expanded, bound):
        redB = reduct(B, E.base.signature)
        for g in enumerate_homomorphisms(A, redB, E.base.signature):
            mapping = _chase_trace(fe.gen.trace, [g(a) for a in range(A.size)], B)
            candidate = Homomorphism(fe.algebra, B, E.expanded.signature, mapping)
            if not is_homomorphism(candidate) or any(
                mapping[fe.unit(a)] != g(a) for a in range(A.size)
            ):
                return Verdict("universal-property", "fails", LiftViolation(B, g, "no-lift"))
    return Verdict("universal-property", "holds")


def counit_verdict(B: FiniteAlgebra, E: ExpansionSpec) -> Verdict:
    """Bijectivity of the counit at B, a member of the expanded class (the
    counit is always surjective here, so bijective = injective), certified by
    its map and F's size; unknown within the bound, with the product's size
    and the cap, when the reflection is over the cap.  A member whose reduct
    is outside the base class has no counit: its verdict is that
    `reduct-well-defined` failure, as `check_expansion` reports it."""
    try:
        eps = counit(B, E)
    except NotAMember:  # the reflection refused the reduct of B
        return _reduct_verdict(B, E)
    except CapExceeded as exc:
        return Verdict(
            "counit-iso", "unknown-within-bound", {"product-cap": exc.cap, "product-size": exc.size}
        )
    bijective = eps.source.size == B.size and len(set(eps.mapping)) == B.size
    return Verdict(
        "counit-iso", "holds" if bijective else "fails",
        {"counit-map": eps.mapping, "reflected-size": eps.source.size},
    )


def check_counit_iso(E: ExpansionSpec, bound: int) -> list[tuple[FiniteAlgebra, Verdict]]:
    """Each member of the expanded class up to the bound, with its
    `counit_verdict`."""
    return [(B, counit_verdict(B, E)) for B in members_up_to(E.expanded, bound)]


# ---------------------------------------------------------------------------
# Unit and counit verdicts without full reflections


def unit_collapse(A: FiniteAlgebra, E: ExpansionSpec) -> tuple[int, int] | None:
    """The unit at a base member A, decided from its seeds as
    `beth.unit_counit_verdict` says.  None when it is injective; else two
    elements with the same seed: the first whose seed equals an earlier
    one's, after that earlier one."""
    _, homs = _coordinates(A, E)
    first: dict[tuple, int] = {}
    for a in range(A.size):
        b = first.setdefault(tuple(h(a) for h in homs), a)
        if b != a:
            return b, a
    return None


def check_unit_mono(E: ExpansionSpec, bound: int) -> list[tuple[FiniteAlgebra, Verdict]]:
    """Each base member up to the bound, with the verdict of its
    `unit_collapse`: a failure names two elements with the same seed.  No
    product is built, so no cap applies.  The `unit` command's sweep;
    `bench/spans.py` times it by this name."""
    out = []
    for A in members_up_to(E.base, bound):
        pair = unit_collapse(A, E)
        out.append((A, Verdict("unit-mono", "holds") if pair is None
                    else Verdict("unit-mono", "fails", {"same-seed": pair})))
    return out


@record
class CounitCollapse:
    """Two elements of F(U B) that the counit at B identifies, given as terms
    over B's elements by a straight-line program.  Its registers are B's
    elements 0..|B|-1, then one per step: (symbol, operand registers), the
    symbol applied to those registers' values.  The registers `terms` both
    take `value` in B.  Started from hom(b) for b in B instead, with `hom` a
    base-language homomorphism U B -> U G and G the expanded `generator`,
    the program takes the two `generator_values` there, which differ.

    Of the |B| + 1 elements a stopped generation reaches, the pair is the
    first, in the order of discovery, whose counit value an earlier one has,
    and that earlier one; (G, h) is the first coordinate at which they
    differ.  It replays by table evaluation in B and G alone."""
    algebra: FiniteAlgebra
    steps: tuple[tuple, ...]
    terms: tuple[int, int]
    value: int
    generator: FiniteAlgebra
    hom: tuple[int, ...]
    generator_values: tuple[int, int]


def counit_collapse(B: FiniteAlgebra, E: ExpansionSpec) -> CounitCollapse | None:
    """The counit at an expanded member B, decided with a stop as
    `beth.unit_counit_verdict` says: None when it is an isomorphism, whose
    counit map then passes the self-checks of `counit`, else its
    `CounitCollapse`.  Its cost is bounded by the stop and by the
    homomorphisms `_coordinates` enumerates, so no product cap applies."""
    factors, homs = _coordinates(reduct(B, E.base.signature), E)
    seeds = [tuple(h(b) for h in homs) for b in range(B.size)]
    try:
        gen = generate_in_product(factors, seeds, E.expanded.signature, stop_after=B.size)
    except GenerationStopped as stop:
        return _collapse(B, factors, homs, stop)
    if gen.algebra.size < B.size:
        raise ValueError(f"{B.name!r} is not a member of {E.expanded.name!r}")
    _evaluation(gen, B)
    return None


def _collapse(B: FiniteAlgebra, factors, homs, stop: GenerationStopped) -> CounitCollapse:
    """The certificate of a stopped counit generation: the pigeonhole pair,
    and the steps of the trace that produce it."""
    values = _chase_trace(stop.trace, list(range(B.size)), B)
    first: dict[int, int] = {}
    for j, v in enumerate(values):
        i = first.setdefault(v, j)
        if i != j:
            break
    x, y = stop.elements[i], stop.elements[j]
    c = next(c for c in range(len(factors)) if x[c] != y[c])
    needed: set[int] = set()
    todo = [i, j]
    while todo:
        e = todo.pop()
        if e not in needed:
            needed.add(e)
            if stop.trace[e][0] != "seed":
                todo.extend(stop.trace[e][1:])
    register: dict[int, int] = {}
    steps: list[tuple] = []
    for e in sorted(needed):  # producers come before what they produce
        origin = stop.trace[e]
        if origin[0] == "seed":
            register[e] = origin[1]
        else:
            register[e] = B.size + len(steps)
            steps.append((origin[0],) + tuple(register[a] for a in origin[1:]))
    return CounitCollapse(
        B, tuple(steps), (register[i], register[j]), values[i],
        factors[c], homs[c].mapping, (x[c], y[c]),
    )
