import math
import subprocess
import sys
from itertools import product as iproduct

import pytest
from hypothesis import assume, given, settings, strategies as st

from qvbench import adjunction
from qvbench.adjunction import (
    ExpansionSpec,
    ExpansionViolation,
    FreeExtension,
    LiftViolation,
    PpExpansionSpec,
    UndefinedAt,
    check_counit_iso,
    check_expansion,
    check_unit_mono,
    counit,
    counit_collapse,
    counit_verdict,
    expand_algebra,
    free_extension,
    induced_expansion,
    pp_expansion_membership,
    unit_collapse,
    universal_property_check,
)
from qvbench.beth import cross_validate_main_theorem, unit_counit_verdict
from qvbench.core import (
    FiniteAlgebra,
    Homomorphism,
    Signature,
    SignatureError,
    are_isomorphic,
    enumerate_homomorphisms,
    is_embedding,
    is_homomorphism,
    reduct,
)
from qvbench.quasivariety import (
    DEFAULT_PRODUCT_CAP,
    GenerationStopped,
    Quasivariety,
    generate_in_product,
    members_up_to,
    membership,
)

import fx
from oracles import build_algebra, free_extension_map, reflection_units


class TestSpecs:
    def test_expansion_signature_inclusion_checked(self):
        with pytest.raises(SignatureError):
            ExpansionSpec(fx.BOOL, fx.DL)

    def test_pp_expansion_symbol_clash(self):
        with pytest.raises(SignatureError):
            PpExpansionSpec(fx.DL, (("meet", fx.COMPL),))

    def test_expanded_signature(self):
        assert fx.PP_COMPL.expanded_signature == fx.BA


class TestCheckExpansion:
    def test_dl_to_bool_ok(self):
        assert check_expansion(fx.DL_TO_BOOL, 4).holds

    def test_trivial_ok(self):
        assert check_expansion(fx.DL_TRIVIAL, 4).holds

    def test_msl_to_dl_ok(self):
        assert check_expansion(fx.MSL_TO_DL, 4).holds

    def test_violation_surfaces(self):
        # a "Boolean" generator whose lattice part is not distributive is not
        # even a lattice here: break absorption so the reduct fails membership
        bad = build_algebra(
            "BadBA", fx.BA, 2,
            {"meet": min, "join": lambda a, b: 1, "bot": 0, "top": 1, "not": lambda a: 1 - a},
        )
        E = ExpansionSpec(fx.DL, Quasivariety("BadQ", fx.BA, generators=(bad,)))
        result = check_expansion(E, 2)
        assert (result.claim, result.status) == ("reduct-well-defined", "fails")
        assert isinstance(result.certificate, ExpansionViolation)


class TestExpandAlgebra:
    def test_diamond_becomes_fourba(self):
        assert expand_algebra(fx.DIAMOND, fx.PP_COMPL) == fx.FOUR_BA

    def test_chain2_becomes_twoba(self):
        assert expand_algebra(fx.CHAIN2, fx.PP_COMPL) == fx.TWO_BA

    def test_chain3_undefined_at_middle(self):
        result = expand_algebra(fx.CHAIN3, fx.PP_COMPL)
        assert result == UndefinedAt("not", (1,))

    def test_round_trip_idempotent(self):
        expanded = expand_algebra(fx.DIAMOND, fx.PP_COMPL)
        again = expand_algebra(reduct(expanded, fx.BDL), fx.PP_COMPL)
        assert again == expanded


class TestPpExpansionMembership:
    def test_fourba_in_class(self):
        B = reduct(fx.FOUR_BA, fx.PP_COMPL.expanded_signature)
        assert pp_expansion_membership(B, fx.PP_COMPL, 4).status == "in-class"

    def test_twoba_in_class(self):
        B = reduct(fx.TWO_BA, fx.PP_COMPL.expanded_signature)
        assert pp_expansion_membership(B, fx.PP_COMPL, 4).status == "in-class"

    def test_wrong_not_table_refused(self):
        bad = build_algebra(
            "BadFour", fx.BA, 4,
            {"meet": lambda a, b: a & b, "join": lambda a, b: a | b,
             "bot": 0, "top": 3,
             "not": lambda a: {0: 3, 1: 1, 2: 2, 3: 0}[a]},
        )
        result = pp_expansion_membership(bad, fx.PP_COMPL, 4)
        assert result.status == "no"
        assert result.certificate[0] == "mismatch"

    def test_subalgebra_of_expanded_member_in_closure(self):
        P = fx.PP_JC
        C = expand_algebra(fx.DIAMOND, P)
        from qvbench.core import subalgebra

        B, _ = subalgebra(C, {0, 1, 3})
        result = pp_expansion_membership(B, P, 4)
        assert result.status == "in-closure"
        witness_alg, witness_emb = result.witness
        assert is_embedding(witness_emb) and is_homomorphism(witness_emb)


class TestFreeExtension:
    def test_booleanization_of_chain3(self):
        fe = free_extension(fx.CHAIN3, fx.DL_TO_BOOL)
        assert fe.algebra.size == 4
        assert fe.unit_injective
        assert fe.unit.mapping == (0, 1, 3)
        assert membership(fe.algebra, fx.BOOL).holds

    def test_booleanization_of_diamond_is_bijective(self):
        fe = free_extension(fx.DIAMOND, fx.DL_TO_BOOL)
        assert fe.algebra.size == 4
        assert fe.unit_injective
        assert are_isomorphic(fe.algebra, fx.FOUR_BA)

    def test_join_completion_of_meet_diamond(self):
        fe = free_extension(fx.DIAMOND_MS, fx.MSL_TO_DL)
        assert fe.algebra.size == 5
        assert fe.unit_injective
        assert membership(fe.algebra, fx.DL).holds

    def test_unit_is_base_homomorphism(self):
        fe = free_extension(fx.CHAIN3, fx.DL_TO_BOOL)
        assert is_homomorphism(fe.unit)

    def test_output_in_expanded_class(self):
        for A in members_up_to(fx.MSLQ, 4):
            fe = free_extension(A, fx.MSL_TO_DL)
            assert membership(fe.algebra, fx.DL).holds


class TestCounit:
    def test_bijective_on_fourba(self):
        eps = counit(fx.FOUR_BA, fx.DL_TO_BOOL)
        assert eps.source.size == 4
        assert sorted(eps.mapping) == [0, 1, 2, 3]

    def test_bijective_on_twoba(self):
        eps = counit(fx.TWO_BA, fx.DL_TO_BOOL)
        assert sorted(eps.mapping) == [0, 1]

    def test_not_injective_on_diamond_over_msl(self):
        eps = counit(fx.DIAMOND, fx.MSL_TO_DL)
        assert eps.source.size == 5
        assert len(set(eps.mapping)) == 4  # surjective but not injective

    def test_counit_retracts_unit(self):
        for B in (fx.TWO_BA, fx.FOUR_BA):
            E = fx.DL_TO_BOOL
            eps = counit(B, E)
            fe = free_extension(reduct(B, fx.BDL), E)
            for b in range(B.size):
                assert eps(fe.unit(b)) == b


class TestUniversalProperty:
    def test_chain3_booleanization(self):
        assert universal_property_check(fx.CHAIN3, fx.DL_TO_BOOL, 4).holds

    def test_chain2_small_bound(self):
        assert universal_property_check(fx.CHAIN2, fx.DL_TO_BOOL, 2).holds

    def test_diamond_over_msl(self):
        assert universal_property_check(fx.DIAMOND_MS, fx.MSL_TO_DL, 4).holds

    def test_truncated_free_extension_violates(self):
        """Dropping one hom-product factor breaks the lift for that very map."""
        A, E = fx.CHAIN3, fx.DL_TO_BOOL
        factors, homs = [], []
        for G in E.expanded.generators:
            for h in enumerate_homomorphisms(A, reduct(G, fx.BDL), fx.BDL):
                factors.append(G)
                homs.append(h)
        kept = factors[1:], homs[1:]
        seeds = [tuple(h(a) for h in kept[1]) for a in range(A.size)]
        gen = generate_in_product(kept[0], seeds, E.expanded.signature)
        truncated = FreeExtension(
            gen.algebra,
            Homomorphism(A, gen.algebra, fx.BDL, gen.seed_index),
            len(kept[0]),
            gen,
        )
        result = universal_property_check(A, E, 4, free=truncated)
        assert result.status == "fails"
        assert isinstance(result.certificate, LiftViolation)
        assert result.certificate.kind == "no-lift"


class TestUnitCounitSweeps:
    def test_unit_mono_dl_to_bool(self):
        assert all(v.holds for _, v in check_unit_mono(fx.DL_TO_BOOL, 4))

    def test_unit_mono_trivial(self):
        assert all(v.holds for _, v in check_unit_mono(fx.DL_TRIVIAL, 4))

    def test_unit_mono_msl_to_dl(self):
        # the unit stays injective here; the failure lives in the counit
        assert all(v.holds for _, v in check_unit_mono(fx.MSL_TO_DL, 4))

    def test_counit_iso_dl_to_bool(self):
        assert all(v.holds for _, v in check_counit_iso(fx.DL_TO_BOOL, 4))

    def test_counit_iso_trivial(self):
        assert all(v.holds for _, v in check_counit_iso(fx.DL_TRIVIAL, 4))

    def test_counit_fails_at_diamond_over_msl(self):
        instances = check_counit_iso(fx.MSL_TO_DL, 4)
        bad = [(B, v) for B, v in instances if not v.holds]
        assert len(bad) == 1
        (B, v), = bad
        assert are_isomorphic(B, fx.DIAMOND) and v.status == "fails"
        assert v.certificate["reflected-size"] == 5
        assert v.certificate["counit-map"] == counit(B, fx.MSL_TO_DL).mapping

    def test_counit_verdict_of_one_member(self):
        v = counit_verdict(fx.DIAMOND, fx.MSL_TO_DL)
        assert v.status == "fails" and v.certificate["reflected-size"] == 5
        assert counit_verdict(fx.FOUR_BA, fx.DL_TO_BOOL).holds


class TestAdjunctionLaws:
    def algebra_pairs(self):
        return [
            (fx.CHAIN3, fx.DL_TO_BOOL),
            (fx.DIAMOND, fx.DL_TO_BOOL),
            (fx.DIAMOND_MS, fx.MSL_TO_DL),
            (fx.CHAIN2_MS, fx.MSL_TO_DL),
        ]

    def test_triangle_identity_on_free_extension(self):
        """counit at the free extension composed with the reflected unit is the
        identity."""
        for A, E in self.algebra_pairs():
            fe = free_extension(A, E)
            red = reduct(fe.algebra, E.base.signature)
            fe2 = free_extension(red, E)
            reflected_unit = free_extension_map(E, fe.unit, fe, fe2)
            eps = counit(fe.algebra, E)
            for x in range(fe.algebra.size):
                assert eps(reflected_unit(x)) == x

    def test_triangle_identity_on_reducts(self):
        for B, E in [(fx.TWO_BA, fx.DL_TO_BOOL), (fx.FOUR_BA, fx.DL_TO_BOOL),
                     (fx.DIAMOND, fx.MSL_TO_DL), (fx.CHAIN3, fx.MSL_TO_DL)]:
            red = reduct(B, E.base.signature)
            fe = free_extension(red, E)
            eps = counit(B, E)
            for b in range(B.size):
                assert eps(fe.unit(b)) == b

    def test_unit_naturality(self):
        """Reflecting a base map commutes with the units."""
        E = fx.DL_TO_BOOL
        for h in enumerate_homomorphisms(fx.CHAIN3, fx.DIAMOND, fx.BDL):
            feA = free_extension(fx.CHAIN3, E)
            feB = free_extension(fx.DIAMOND, E)
            Fh = free_extension_map(E, h, feA, feB)
            for a in range(fx.CHAIN3.size):
                assert Fh(feA.unit(a)) == feB.unit(h(a))

    def test_counit_naturality(self):
        """For expanded maps g, counit . reflect(reduct(g)) = g . counit."""
        E = fx.DL_TO_BOOL
        for g in enumerate_homomorphisms(fx.FOUR_BA, fx.TWO_BA, fx.BA):
            redg = Homomorphism(
                reduct(fx.FOUR_BA, fx.BDL), reduct(fx.TWO_BA, fx.BDL), fx.BDL, g.mapping
            )
            feA = free_extension(reduct(fx.FOUR_BA, fx.BDL), E)
            feB = free_extension(reduct(fx.TWO_BA, fx.BDL), E)
            Fg = free_extension_map(E, redg, feA, feB)
            epsA = counit(fx.FOUR_BA, E)
            epsB = counit(fx.TWO_BA, E)
            for x in range(feA.algebra.size):
                assert g(epsA(x)) == epsB(Fg(x))


# The six expansions of workspaces/fixtures.qvw.
FIXTURE_EXPANSIONS = {
    "DLtoBOOL": fx.DL_TO_BOOL,
    "MSLtoDL": fx.MSL_TO_DL,
    "DLtoBIMP": fx.DL_TO_BIMP,
    "DLtriv": fx.DL_TRIVIAL,
    "DLcompl": induced_expansion(fx.PP_COMPL),
    "DLjc": induced_expansion(fx.PP_JC),
}

G_SIG = Signature("G", (("g", 2),))
GF_SIG = Signature("GF", (("g", 2), ("f", 2)))


def binary_pair(g: int, f: int) -> ExpansionSpec:
    """K = ISP(2, g) -> M = ISP(2, g, f) for binary g and f on {0, 1}, each
    numbered by its values at (0,0), (0,1), (1,0), (1,1), read as the bits
    of a number from the highest."""
    def table(n):
        return tuple(n >> (3 - i) & 1 for i in range(4))

    K = Quasivariety(f"K{g}", G_SIG, generators=(FiniteAlgebra("Two", G_SIG, 2, (table(g),)),))
    M = Quasivariety(f"M{g}.{f}", GF_SIG,
                     generators=(FiniteAlgebra("TwoF", GF_SIG, 2, (table(g), table(f))),))
    return ExpansionSpec(K, M)


# g(x, y) = y, and f = NOR: the reflection of an n-element set is the whole
# product of 2^n two-element factors, while the verdict fails at the
# one-element member of M.
NOR_PAIR = binary_pair(0b0101, 0b1000)

# K = ISP(2-cycle) -> M = ISP(3-cycle, identity): no member of K, and not
# the one-element member of M, maps into the 3-cycle's reduct.
_U = Signature("U", (("u", 1),))
_V = Signature("V", (("u", 1), ("v", 1)))
SWAP_CYCLE = ExpansionSpec(
    Quasivariety("K", _U, generators=(FiniteAlgebra("Swap", _U, 2, ((1, 0),)),)),
    Quasivariety("M", _V, generators=(FiniteAlgebra("Cycle", _V, 3, ((1, 2, 0), (0, 1, 2))),)),
)


_S = Signature("S", (("f", 1),))
_T = Signature("T", (("f", 1), ("g", 1)))


def unary_pair(f: tuple[int, ...], g: tuple[int, ...]) -> ExpansionSpec:
    """K = ISP(3, f) -> M = ISP(3, f, g) for unary f and g on {0, 1, 2},
    each given by its table."""
    K = Quasivariety("K", _S, generators=(FiniteAlgebra("ThreeF", _S, 3, (f,)),))
    M = Quasivariety("M", _T, generators=(FiniteAlgebra("ThreeFG", _T, 3, (f, g)),))
    return ExpansionSpec(K, M)


# The sets workspace of tests/test_cli.py: sets, as an identity operation,
# expanded by a second one.  Every map of an n-set into the 3-element
# generator is a homomorphism, so F of an n-set has a product of 3^(3^n)
# elements, over the default cap from n = 3.
SETS_PAIR = unary_pair((0, 1, 2), (0, 1, 2))

UNARY = st.tuples(*[st.integers(0, 2)] * 3)

# The unary operations f with f(f(x)) = f(x): over a 3-element generator,
# they leave enough homomorphisms for a member of size at most 5 to have a
# product over the default cap for all but a few g.
IDEMPOTENT = [t for t in iproduct(range(3), repeat=3) if all(t[v] == v for v in t)]


@st.composite
def unary_pairs(draw, fs=UNARY) -> ExpansionSpec:
    """A `unary_pair` whose g is as often as not a term in f, x, f(x) or
    f(f(x)), so that every counit holds, and otherwise any table."""
    f = draw(fs)
    g = draw(st.sampled_from([(0, 1, 2), f, tuple(f[v] for v in f)]) | UNARY)
    return unary_pair(f, g)


def product_size(B: FiniteAlgebra, E: ExpansionSpec) -> int:
    """The size of the product that F(U B) is generated in."""
    factors, _ = adjunction._coordinates(reduct(B, E.base.signature), E)
    return math.prod(G.size for G in factors)


def assert_counit_stop_matches(E: ExpansionSpec, bound: int) -> None:
    """Per member B up to the bound, the stopped generation finds no
    collapse exactly when the full reflection has |B| elements; the
    reflection is built with the cap at its product's size, so that no cap
    refuses it."""
    for B in members_up_to(E.expanded, bound):
        U = reduct(B, E.base.signature)
        size = free_extension(U, E, product_cap=product_size(B, E)).algebra.size
        assert (counit_collapse(B, E) is None) == (size == B.size), B.name


def assert_matches_full_reflections(E: ExpansionSpec, bound: int) -> None:
    """Per member, the unit and counit verdicts decided from the seeds and
    with a stop agree with the ones read off the full reflections; each
    failure's witnesses hold in the full F.  A product over the default cap
    leaves `check_counit_iso` unknown, so it fails here: pairs past the cap
    go through `assert_counit_stop_matches`."""
    units = zip(check_unit_mono(E, bound), reflection_units(E, bound), strict=True)
    for (A, v), (A_ref, unit) in units:
        pair = unit_collapse(A, E)
        assert A == A_ref and v.holds == (pair is None)
        assert v.certificate == (None if pair is None else {"same-seed": pair})
        if unit is None:
            continue
        assert (pair is None) == is_embedding(unit), A.name
        if pair is not None:
            a, b = pair
            assert a != b and unit(a) == unit(b)
    counits = check_counit_iso(E, bound)
    for B, (B_swept, v) in zip(members_up_to(E.expanded, bound), counits, strict=True):
        assert B == B_swept
        collapse = counit_collapse(B, E)
        assert (collapse is None) == v.holds, B.name
        if collapse is not None:
            assert v.certificate["reflected-size"] > B.size


class TestVerdictsWithoutFullReflections:
    @pytest.mark.parametrize("bound", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", sorted(FIXTURE_EXPANSIONS))
    def test_fixture_expansions_match_full_reflections(self, name, bound):
        assert_matches_full_reflections(FIXTURE_EXPANSIONS[name], bound)

    def test_binary_pairs_match_full_reflections(self):
        """All 256 pairs of binary g and f on a 2-element base, at bound 3;
        both verdicts occur."""
        statuses = set()
        for g in range(16):
            for f in range(16):
                E = binary_pair(g, f)
                assert_matches_full_reflections(E, 3)
                statuses.add(unit_counit_verdict(E, 3).status)
        assert statuses == {"holds", "fails"}

    def test_unit_without_homomorphisms(self):
        """No member of K = ISP(2-cycle) maps into the reduct of a 3-cycle,
        so every seed is the empty tuple and F is trivial: the unit is
        injective exactly on the one-element member."""
        E = SWAP_CYCLE
        one, two = members_up_to(E.base, 2)
        assert unit_collapse(one, E) is None
        assert unit_collapse(two, E) == (0, 1)
        assert [v.certificate for _, v in check_unit_mono(E, 2)] == [None, {"same-seed": (0, 1)}]

    def test_zero_factor_reflection(self):
        """A reflection over no coordinates is the one-element algebra: F(A)
        for each base member, with an all-zero unit, and at the trivial
        expanded member, whose reduct maps into no generator either, a
        counit (0,) that is an isomorphism."""
        E = SWAP_CYCLE
        for A in members_up_to(E.base, 2):
            fe = free_extension(A, E)
            assert (fe.algebra.name, fe.algebra.size, fe.factor_count) == (f"F({A.name})", 1, 0)
            assert fe.unit.mapping == (0,) * A.size
        [trivial] = members_up_to(E.expanded, 1)
        assert counit(trivial, E).mapping == (0,)
        assert counit_collapse(trivial, E) is None

    def test_work_pin(self, monkeypatch):
        """Units generate nothing, and each counit instance interns at most
        |B| + 1 elements, in one generation stopped after |B|."""
        calls = []
        original = adjunction.generate_in_product

        def recording(*args, stop_after=None, **kwargs):
            try:
                result = original(*args, stop_after=stop_after, **kwargs)
            except GenerationStopped as stop:
                calls.append((stop_after, len(stop.elements)))
                raise
            calls.append((stop_after, len(result.elements)))
            return result

        monkeypatch.setattr(adjunction, "generate_in_product", recording)
        for E in [*FIXTURE_EXPANSIONS.values(), NOR_PAIR]:
            for A in members_up_to(E.base, 4):
                unit_collapse(A, E)
            assert calls == []
            for B in members_up_to(E.expanded, 4):
                counit_collapse(B, E)
                [(stop, reached)] = calls
                assert stop == B.size and reached <= B.size + 1
                calls.clear()
            unit_counit_verdict(E, 4)
            assert len(calls) <= len(members_up_to(E.expanded, 4))
            assert all(reached <= stop + 1 for stop, reached in calls)
            calls.clear()

    def test_sets_past_the_cap_match_full_reflections(self):
        """The stopped generation takes no cap: from the 3-element set on,
        each product is over the default cap, and every counit is still
        decided, as the full reflection decides it."""
        members = members_up_to(SETS_PAIR.expanded, 5)
        assert [product_size(B, SETS_PAIR) for B in members] == [3 ** 3**n for n in range(1, 6)]
        assert_counit_stop_matches(SETS_PAIR, 5)
        assert unit_counit_verdict(SETS_PAIR, 5).holds

    @settings(max_examples=60, deadline=None)
    @given(E=unary_pairs(st.sampled_from(IDEMPOTENT)))
    def test_generated_pairs_past_the_cap_match_full_reflections(self, E):
        """Pairs with a 3-element generator, some member of which has a
        product over the default cap."""
        assume(any(product_size(B, E) > DEFAULT_PRODUCT_CAP for B in members_up_to(E.expanded, 5)))
        assert_counit_stop_matches(E, 5)

    @settings(max_examples=60, deadline=None)
    @given(E=unary_pairs(), bound=st.integers(1, 5))
    def test_cross_validation_is_decided_within_the_bound(self, E, bound):
        """Every verdict of `cross_validate_main_theorem` holds or fails:
        the bound is its only limit."""
        verdicts = cross_validate_main_theorem(E, None, bound)
        assert {v.status for v in verdicts.values()} <= {"holds", "fails"}

    def test_nor_pair_decided_at_bound_six(self):
        """The NOR pair fails at M's one-element member: its F is all four
        elements of a product of two factors."""
        v = unit_counit_verdict(NOR_PAIR, 6)
        assert v.status == "fails"
        kind, collapse = v.certificate
        assert kind == "counit-not-iso" and collapse.algebra.size == 1


class TestInducedExpansion:
    def test_compl_induces_bool(self):
        E = induced_expansion(fx.PP_COMPL)
        assert E.expanded.signature == fx.BA
        assert E.expanded.generators == (fx.TWO_BA.renamed("x"),)

    def test_partial_on_generator_rejected(self):
        # an operation undefined somewhere on a generator: complement over a
        # three-element chain generator
        DL3 = Quasivariety("DL3", fx.BDL, generators=(fx.CHAIN3,))
        P = PpExpansionSpec(DL3, (("not", fx.COMPL),))
        with pytest.raises(ValueError, match="not total"):
            induced_expansion(P)


def test_booleanization_demo_runs():
    """The walk-through script runs and prints the counit dichotomy: the
    free Boolean extension of Chain3 has 4 elements, every meet-semilattice
    member up to 4 has a mono unit, and among the DL members the counit is
    not iso at DL/n4#3 alone."""
    proc = subprocess.run(
        [sys.executable, "scripts/booleanization_demo.py"], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line.strip() for line in proc.stdout.splitlines()]
    assert "size 4, produced from 2 chain maps" in lines
    assert [line for line in lines if line.startswith("MSLQ/")] == [
        f"MSLQ/n{n}#{i}: mono" for n, i in ((1, 0), (2, 1), (3, 2), (4, 3), (4, 4))
    ]
    assert [line for line in lines if line.endswith("NOT iso")] == ["DL/n4#3: NOT iso"]
    assert "DL/n4#4: iso" in lines
