"""Bound-parameterized checks for the headline properties: simplicity of pp
expansions, the interpolation criterion, Beth-companion verdicts relative to a
test family, regular monomorphisms, mono-reflectivity, faithful term
equivalence, and the cross-validation of the main theorem's three
characterizations.

Negative verdicts always carry a replayable certificate; "Beth companion"
verdicts are relative to the supplied operation family, since the full class of
implicit operations is not finitely enumerable.
"""
from __future__ import annotations

from itertools import product as iproduct

from .core import (
    FiniteAlgebra,
    Homomorphism,
    IsoRegistry,
    Signature,
    SignatureError,
    all_subuniverses,
    enumerate_homomorphisms,
    generated_subalgebra,
    is_embedding,
    record,
    reduct,
    replace,
    subalgebra,
)
from .logic import App, Term, Var, compile_term, term_variables
from .adjunction import (
    ExpansionSpec,
    PpExpansionSpec,
    check_expansion,
    counit_collapse,
    expand_algebra,
    unit_collapse,
)
from .implicit import FunctionalityViolation, ImplicitOpSpec, induced_partial_op
from .quasivariety import (
    NotFoundWithinBound,
    Quasivariety,
    Verdict,
    label_classes,
    members_up_to,
    membership,
    require_member,
)


class PreconditionError(ValueError):
    """A check's stated precondition failed; no verdict is produced."""

    def __init__(self, message: str, certificate=None):
        super().__init__(message)
        self.certificate = certificate


@record
class TermTranslation:
    """Arity-preserving map from source symbols to target terms in x1..xn;
    omitted symbols translate to themselves when the target shares them."""
    source: Signature
    target: Signature
    mapping: tuple[tuple[str, Term], ...] = ()

    def __post_init__(self) -> None:
        given = dict(self.mapping)
        for sym, term in given.items():
            k = self.source.arity(sym)
            allowed = {f"x{i + 1}" for i in range(k)}
            if not term_variables(term) <= allowed:
                raise SignatureError(f"translation of {sym}/{k} uses variables outside x1..x{k}")

    def term_for(self, sym: str) -> Term:
        given = dict(self.mapping)
        if sym in given:
            return given[sym]
        k = self.source.arity(sym)
        if self.target.arities.get(sym) != k:
            raise SignatureError(f"no translation given for {sym!r} and target lacks it")
        return App(sym, tuple(Var(f"x{i + 1}") for i in range(k)))


def apply_translation(tr: TermTranslation, B: FiniteAlgebra) -> FiniteAlgebra:
    """The source-signature algebra on B's universe interpreting each source
    symbol by its translated term evaluated in B."""
    if B.signature != tr.target:
        raise SignatureError(f"{B.name!r} is not over the translation target")
    tables = []
    for sym, k in tr.source.symbols:
        f = compile_term(B.signature, tr.term_for(sym), [f"x{i + 1}" for i in range(k)])
        tables.append(tuple(f(B.tables, B.size, args) for args in iproduct(range(B.size), repeat=k)))
    return FiniteAlgebra(f"tr({B.name})", tr.source, B.size, tuple(tables))


# ---------------------------------------------------------------------------
# Members of a pp expansion at a bound


def expansion_members(P: PpExpansionSpec, bound: int) -> tuple[FiniteAlgebra, ...]:
    """Members of the subalgebra closure of the expanded class up to the bound,
    up to isomorphism: subalgebras of expanded members, one per class, sorted
    by (size, tables) and named `S(base)[+]/n{size}#{index}`."""
    registry = IsoRegistry()
    for D in members_up_to(P.base, bound):
        C = expand_algebra(D, P)
        if not isinstance(C, FiniteAlgebra):
            continue
        for sub in all_subuniverses(C, max_size=bound):
            S, _ = subalgebra(C, sub)
            registry.add(S)
    members = sorted(registry.members, key=lambda A: (A.size, A.tables))
    return tuple(label_classes(members, f"S({P.base.name})[+]", P.expanded_signature))


def _in_class(B: FiniteAlgebra, P: PpExpansionSpec):
    """None when B is literally an expanded member, else the first cell, in
    symbol then argument order, where an induced operation of B's base
    reduct is undefined.  B is a subalgebra of an expanded member, so its
    reduct is a base member and every pp graph of the larger member restricts
    to B's tables: totality is the only thing that can fail."""
    C = expand_algebra(reduct(B, P.base.signature), P)
    if isinstance(C, FiniteAlgebra):
        return None
    return ("undefined-at", C.op_symbol, C.args)


def check_simple(P: PpExpansionSpec, bound: int) -> Verdict:
    """Simplicity of the pp expansion relative to its presenting family: every
    member of the subalgebra closure up to the bound must already be an
    expanded member.  The verdict is family-relative: a closure that fails here
    may still be presentable by a different operation family."""
    for B in expansion_members(P, bound):
        cert = _in_class(B, P)
        if cert is not None:
            return Verdict("simple-pp-expansion", "fails", (B, cert))
    return Verdict("simple-pp-expansion", "holds")


def check_interpolation_criterion(
    A: FiniteAlgebra, s: ImplicitOpSpec, base_signature: Signature
) -> Verdict:
    """Term interpolation at every defined tuple, operationalized as
    subuniverse membership: the value of the operation on the base reduct must
    lie in the subalgebra of A (full signature) generated by the arguments,
    since term values at a tuple are exactly that subuniverse."""
    if not A.signature.includes(base_signature):
        raise SignatureError("algebra does not expand the base signature")
    op = induced_partial_op(A, s)
    if isinstance(op, FunctionalityViolation):
        return Verdict("interpolation-criterion", "fails", certificate=op)
    for args, value in op.graph:
        generated = generated_subalgebra(A, set(args))
        if value not in generated:
            return Verdict(
                "interpolation-criterion",
                "fails",
                certificate=(A, args, value, tuple(sorted(generated))),
            )
    return Verdict("interpolation-criterion", "holds")


def check_beth_companion(
    P: PpExpansionSpec,
    ops_under_test: tuple[ImplicitOpSpec, ...],
    bound: int,
) -> Verdict:
    """Interpolation for every supplied operation on every member of the
    expansion up to the bound.  The verdict is explicitly relative to the
    supplied family: the class of all implicit operations is not enumerable."""
    notes = ("verdict relative to the supplied operation family",)
    if not ops_under_test:
        return Verdict("beth-companion", "holds", notes=notes + ("vacuous: empty operation family",))
    for B in expansion_members(P, bound):
        for s in ops_under_test:
            v = check_interpolation_criterion(B, s, P.base.signature)
            if not v.holds:
                return Verdict("beth-companion", "fails", (B, s.name, v.certificate), notes)
    return Verdict("beth-companion", "holds", notes=notes)


def check_regular_mono(h: Homomorphism, M: Quasivariety, size_bound: int) -> Verdict:
    """Search for a parallel pair whose equalizer is exactly the image of the
    embedding, over codomains up to `size_bound`.  Positive answers carry the
    replayable witness, the codomain and the pair's maps; negatives are
    bound-relative only.  The target must be a member of M, which makes the
    source one too."""
    if not is_embedding(h):
        raise PreconditionError("the given homomorphism is not an embedding")
    B = h.target
    require_member(B, M)
    image = set(h.mapping)
    for C in members_up_to(M, size_bound):
        homs = enumerate_homomorphisms(B, C, M.signature)
        for i in range(len(homs)):
            for j in range(i, len(homs)):
                g1, g2 = homs[i], homs[j]
                equalizer = {b for b in range(B.size) if g1(b) == g2(b)}
                if equalizer == image:
                    return Verdict(
                        "regular-mono", "holds",
                        {"codomain": C, "parallel-pair": (g1.mapping, g2.mapping)},
                    )
    return Verdict("regular-mono", "unknown-within-bound", NotFoundWithinBound(size_bound))


def check_mono_reflective(E: ExpansionSpec, bound: int) -> Verdict:
    """Three bounded sub-checks, all required: (a) fullness of the reduct
    functor, that is, every base-language map between expanded members
    preserves the extra operations, then (b) unit injectivity and (c) counit
    bijectivity, which are `unit_counit_verdict`.  A reduct functor that is
    not well defined fails first, under `reduct-well-defined`.  This is the
    `mono-reflective` verdict of `cross_validate_main_theorem`."""
    return cross_validate_main_theorem(E, None, bound)["mono-reflective"]


def _not_full(E: ExpansionSpec, bound: int) -> Verdict | None:
    """The failed `mono-reflective` verdict of a reduct functor that is not
    full within the bound.  An expanded homomorphism is a base one, so equal
    counts mean equal lists; both are in lexicographic order, so the first
    base map missing from the expanded list is the first that is not an
    expanded homomorphism.  With no symbol added, the lists are equal."""
    if E.base.signature.includes(E.expanded.signature):
        return None
    members = members_up_to(E.expanded, bound)
    reducts = [reduct(A, E.base.signature) for A in members]
    for A, redA in zip(members, reducts):
        for B, redB in zip(members, reducts):
            base = enumerate_homomorphisms(redA, redB, E.base.signature)
            expanded = enumerate_homomorphisms(A, B, E.expanded.signature)
            if len(base) != len(expanded):
                kept = {g.mapping for g in expanded}
                h = next(h for h in base if h.mapping not in kept)
                return Verdict("mono-reflective", "fails", ("not-full", A, B, h.mapping))
    return None


def unit_counit_verdict(E: ExpansionSpec, bound: int) -> Verdict:
    """The conjunction: unit componentwise injective and counit componentwise
    bijective, over the enumerated members, decided without full
    reflections.  A reduct functor that is not well defined fails first,
    under `reduct-well-defined`.  Otherwise the verdict holds or fails
    within the bound alone: no product cap applies.

    The unit at A sends a to its seed tuple (h(a))_h, over the base
    homomorphisms h: A -> U(G), so it is injective exactly when they
    separate the points of A; with none, F(A) is trivial and the unit is
    injective iff |A| = 1.  No product is built.  A failure's certificate
    is ("unit-not-mono", A, two elements with the same seed).  The counit
    at B is onto, so it is an isomorphism exactly when F(U B) has |B|
    elements; generation stops as soon as a (|B| + 1)-th element would be
    interned, which bounds its work however large the product, and a
    failure's certificate is ("counit-not-iso",
    `adjunction.CounitCollapse`).  The `unit` command decides its
    instances the same way (`check_unit_mono`).  Only the `counit` command
    builds every reflection (`check_counit_iso`): it prints each member's
    counit map, whose ids number the elements of the full F, and F's size,
    so only there can the product cap leave an instance unknown."""
    reduct_verdict = check_expansion(E, bound)
    if not reduct_verdict.holds:
        return reduct_verdict
    for A in members_up_to(E.base, bound):
        pair = unit_collapse(A, E)
        if pair is not None:
            return Verdict("unit-mono-counit-iso", "fails", ("unit-not-mono", A, pair))
    for B in members_up_to(E.expanded, bound):
        collapse = counit_collapse(B, E)
        if collapse is not None:
            return Verdict("unit-mono-counit-iso", "fails", ("counit-not-iso", collapse))
    return Verdict("unit-mono-counit-iso", "holds")


def check_faithful_term_equivalence(
    M1: Quasivariety,
    M2: Quasivariety,
    tau: TermTranslation,
    rho: TermTranslation,
    K: Quasivariety,
    bound: int,
) -> Verdict:
    """The four conditions of a faithful term equivalence relative to the base:
    translated members land in the other class and the translations compose to
    the identity on the nose, over the enumerated members."""
    for sym, k in K.signature.symbols:
        ident = App(sym, tuple(Var(f"x{i + 1}") for i in range(k)))
        if tau.term_for(sym) != ident or rho.term_for(sym) != ident:
            raise PreconditionError(
                f"translations must fix the base symbol {sym!r}", certificate=sym
            )
    if tau.source != M1.signature or tau.target != M2.signature:
        raise PreconditionError("tau must translate the first signature into the second")
    if rho.source != M2.signature or rho.target != M1.signature:
        raise PreconditionError("rho must translate the second signature into the first")
    # Each direction checks the members of one class: a round-trip failure,
    # (iii) or (iv), is reported in preference to an escape, (i) or (ii),
    # since it replays by pure table evaluation, with no class reasoning.
    directions = (
        (M1, rho, tau, M2, "(iii)", "(i)", "second"),
        (M2, tau, rho, M1, "(iv)", "(ii)", "first"),
    )
    for source, there, back, target, trip, escape, which in directions:
        for A in members_up_to(source, bound):
            moved = apply_translation(there, A)
            returned = apply_translation(back, moved)
            if returned.tables != A.tables:
                return Verdict(
                    "faithful-term-equivalence", "fails",
                    (f"{trip} round trip differs", A, _table_diff(returned, A)),
                )
            if not membership(moved, target).holds:
                return Verdict(
                    "faithful-term-equivalence", "fails",
                    (f"{escape} translated member escapes the {which} class", A),
                )
    return Verdict("faithful-term-equivalence", "holds")


def _table_diff(got: FiniteAlgebra, expected: FiniteAlgebra):
    for (sym, k), tg, te in zip(expected.signature.symbols, got.tables, expected.tables):
        if tg != te:
            for flat, (a, b) in enumerate(zip(tg, te)):
                if a != b:
                    args = []
                    rest = flat
                    for _ in range(k):
                        args.append(rest % expected.size)
                        rest //= expected.size
                    return (sym, tuple(reversed(args)), a, b)
    return None


def cross_validate_main_theorem(
    E: ExpansionSpec,
    P: PpExpansionSpec | None,
    bound: int,
) -> dict[str, Verdict]:
    """Run the three characterizations at the same bound and report agreement:
    the verdicts `simple-pp-expansion` (only with a family P),
    `unit-mono-counit-iso`, `mono-reflective` and `consistency`, by name, in
    that order.  Each holds or fails within the bound, and two of them agree
    when their statuses are equal.  The simplicity check is relative to the
    supplied family, so its disagreement with the categorical checks can
    also mean the closure is simple via a different family; the other two
    must always agree.  All three presuppose a well-defined reduct functor:
    when some expanded member has a reduct outside the base, both
    categorical verdicts are the `reduct-well-defined` failure of
    `unit_counit_verdict`, and `consistency` fails.  Each verdict is
    computed once: `mono-reflective` reuses the `unit_counit_verdict` after
    its fullness check."""
    verdicts = {} if P is None else {"simple-pp-expansion": check_simple(P, bound)}
    uc = verdicts["unit-mono-counit-iso"] = unit_counit_verdict(E, bound)
    if uc.claim == "reduct-well-defined":
        verdicts["mono-reflective"] = uc
        verdicts["consistency"] = Verdict("consistency", "fails", notes=(
            "the reduct functor is not well defined within the bound; "
            "the main theorem does not apply",
        ))
        return verdicts
    mr = verdicts["mono-reflective"] = _not_full(E, bound) or replace(uc, claim="mono-reflective")
    consistent = uc.status == mr.status
    notes = []
    if P is None:
        notes.append("no operation family supplied; simplicity check not applicable")
    elif verdicts["simple-pp-expansion"].status != uc.status:
        consistent = False
        notes.append(
            "family-relative simplicity disagrees with the categorical checks; "
            "the closure may be simple via a different family"
        )
    verdicts["consistency"] = Verdict("consistency", "holds" if consistent else "fails", notes=tuple(notes))
    return verdicts


def check_simplicity_transfer(
    M1: Quasivariety,
    M2: Quasivariety,
    tau: TermTranslation,
    rho: TermTranslation,
    K: Quasivariety,
    bound: int,
    equivalence: Verdict,
) -> Verdict:
    """Once the faithful term equivalence holds at the bound, the categorical
    simplicity verdicts of the two expansions must agree at the same bound.
    `equivalence` is that equivalence's verdict at this bound, from
    `check_faithful_term_equivalence`."""
    if not equivalence.holds:
        raise PreconditionError(
            "faithful term equivalence does not hold at this bound", certificate=equivalence
        )
    v1 = unit_counit_verdict(ExpansionSpec(K, M1), bound)
    v2 = unit_counit_verdict(ExpansionSpec(K, M2), bound)
    if v1.status == v2.status:
        return Verdict("simplicity-transfer", "holds", notes=(f"both expansions: {v1.status}",))
    return Verdict("simplicity-transfer", "fails", (v1, v2))
