import pytest

from qvbench import beth
from qvbench.adjunction import (
    ExpansionSpec,
    ExpansionViolation,
    PpExpansionSpec,
    expand_algebra,
    induced_expansion,
)
from qvbench.beth import (
    HarnessReport,
    MainTheoremReport,
    PreconditionError,
    RegularWitness,
    TermTranslation,
    Verdict,
    apply_translation,
    check_beth_companion,
    check_faithful_term_equivalence,
    check_interpolation_criterion,
    check_mono_reflective,
    check_regular_mono,
    check_simple,
    check_simplicity_transfer,
    cross_validate_main_theorem,
    expansion_members,
    harness_unique_witness_expansions,
    unit_counit_verdict,
)
from qvbench.core import (
    Homomorphism,
    are_isomorphic,
    enumerate_homomorphisms,
    generated_subalgebra,
    is_homomorphism,
    reduct,
    trivial_algebra,
)
from qvbench.logic import App, Var
from qvbench.quasivariety import NotFoundWithinBound, Quasivariety, members_up_to, membership

import fx
from oracles import build_algebra


class TestCheckSimple:
    def test_complement_expansion_simple(self):
        assert check_simple(fx.PP_COMPL, 4).holds

    def test_empty_family_simple(self):
        assert check_simple(fx.PP_EMPTY, 4).holds

    def test_join_with_complement_fails_at_chain3(self):
        v = check_simple(fx.PP_JC, 4)
        assert v.status == "fails"
        B, reason = v.certificate
        assert are_isomorphic(reduct(B, fx.BDL), fx.CHAIN3)
        assert reason[0] == "undefined-at"
        # replay: B really is in the closure but not in the class
        from qvbench.adjunction import pp_expansion_membership

        assert pp_expansion_membership(B, fx.PP_JC, 4).status == "in-closure"


class TestExpansionMembers:
    def test_complement_members_are_boolean(self):
        members = expansion_members(fx.PP_COMPL, 4)
        assert [A.size for A in members] == [1, 2, 4]
        for A in members:
            assert membership(reduct(A, fx.BDL), fx.DL).holds

    def test_trivial_family_members_equal_base_members(self):
        members = expansion_members(fx.PP_EMPTY, 4)
        assert [A.size for A in members] == [1, 2, 3, 4, 4]


class TestInterpolationCriterion:
    def test_holds_on_fourba(self):
        v = check_interpolation_criterion(fx.FOUR_BA, fx.COMPL, fx.BDL)
        assert v.holds

    def test_fails_on_plain_diamond(self):
        v = check_interpolation_criterion(fx.DIAMOND, fx.COMPL, fx.BDL)
        assert v.status == "fails"
        A, args, value, generated = v.certificate
        assert args == (1,) and value == 2
        assert generated == (0, 1, 3)

    def test_value_equal_to_argument_holds(self):
        # on the two-element chain the complement of an element is top/bot,
        # both constants, hence always generated
        v = check_interpolation_criterion(fx.CHAIN2, fx.COMPL, fx.BDL)
        assert v.holds

    def test_monotone_under_larger_generator_sets(self):
        for args in [(1,), (2,)]:
            small = generated_subalgebra(fx.DIAMOND, set(args))
            assert small <= generated_subalgebra(fx.DIAMOND, set(args) | {2, 1})


class TestBethCompanion:
    def test_complement_family_holds(self):
        assert check_beth_companion(fx.PP_COMPL, (fx.COMPL,), 4).holds

    def test_trivial_family_fails_at_diamond(self):
        v = check_beth_companion(fx.PP_EMPTY, (fx.COMPL,), 4)
        assert v.status == "fails"
        B, opname, cert = v.certificate
        assert are_isomorphic(B, fx.DIAMOND)
        assert opname == "compl"

    def test_empty_test_family_vacuous(self):
        v = check_beth_companion(fx.PP_COMPL, (), 4)
        assert v.holds
        assert any("vacuous" in n for n in v.notes)


class TestRegularMono:
    def test_identity_embedding(self):
        ident = Homomorphism(fx.TWO_BA, fx.TWO_BA, fx.BA, (0, 1))
        result = check_regular_mono(ident, fx.BOOL, size_bound=4)
        assert isinstance(result, RegularWitness)
        g1, g2 = result.equalizer_of
        eq = {b for b in range(2) if g1(b) == g2(b)}
        assert eq == {0, 1}

    def test_twoba_into_fourba(self):
        h = Homomorphism(fx.TWO_BA, fx.FOUR_BA, fx.BA, (0, 3))
        result = check_regular_mono(h, fx.BOOL, size_bound=4)
        assert isinstance(result, RegularWitness)
        g1, g2 = result.equalizer_of
        # replay the equalizer equation exactly
        assert is_homomorphism(g1) and is_homomorphism(g2)
        eq = {b for b in range(4) if g1(b) == g2(b)}
        assert eq == set(h.mapping)

    def test_bound_one_gives_no_witness(self):
        h = Homomorphism(fx.TWO_BA, fx.FOUR_BA, fx.BA, (0, 3))
        assert check_regular_mono(h, fx.BOOL, size_bound=1) == NotFoundWithinBound(1)

    def test_non_embedding_rejected(self):
        collapse = Homomorphism(fx.CHAIN3, fx.CHAIN2, fx.BDL, (0, 0, 1))
        with pytest.raises(PreconditionError):
            check_regular_mono(collapse, fx.DL, size_bound=2)

    def test_default_bound_is_square(self):
        ident = Homomorphism(fx.TWO_BA, fx.TWO_BA, fx.BA, (0, 1))
        result = check_regular_mono(ident, fx.BOOL)
        assert isinstance(result, RegularWitness)


class TestMonoReflective:
    def test_dl_to_bool_holds(self):
        assert check_mono_reflective(fx.DL_TO_BOOL, 4).holds

    def test_trivial_holds(self):
        assert check_mono_reflective(fx.DL_TRIVIAL, 4).holds

    def test_msl_to_dl_fails_with_certificate(self):
        v = check_mono_reflective(fx.MSL_TO_DL, 4)
        assert v.status == "fails"
        assert v.certificate[0] in ("not-full", "counit-not-iso")

    def test_full_reduct_fails_with_the_unit_counit_certificate(self):
        """DL into its trivial subclass: one language, so the reduct is full,
        and the unit collapses every nontrivial lattice."""
        trivial = Quasivariety("TRIV", fx.BDL, generators=(trivial_algebra(fx.BDL),))
        E = ExpansionSpec(fx.DL, trivial)
        v = check_mono_reflective(E, 3)
        uc = unit_counit_verdict(E, 3)
        assert v.status == uc.status == "fails"
        assert v.certificate == uc.certificate
        assert v.certificate[0] == "unit-not-mono"


class TestFaithfulTermEquivalence:
    def test_not_imp_equivalence_holds(self):
        v = check_faithful_term_equivalence(
            fx.BOOL, fx.BIMPQ, fx.NOT_TO_IMP, fx.IMP_TO_NOT, fx.DL, 4
        )
        assert v.holds

    def test_identity_equivalence(self):
        ident = TermTranslation(fx.BA, fx.BA)
        v = check_faithful_term_equivalence(fx.BOOL, fx.BOOL, ident, ident, fx.DL, 4)
        assert v.holds

    def test_mutated_rho_fails_with_replayable_certificate(self):
        bad_rho = TermTranslation(
            fx.BIMP, fx.BA, (("imp", App("meet", (Var("x1"), Var("x2")))),)
        )
        v = check_faithful_term_equivalence(
            fx.BOOL, fx.BIMPQ, fx.NOT_TO_IMP, bad_rho, fx.DL, 4
        )
        assert v.status == "fails"
        label, A, diff = v.certificate
        assert "(iii)" in label
        # replay: translating there and back really changes that table entry
        sym, args, got, want = diff
        back = apply_translation(fx.NOT_TO_IMP, apply_translation(bad_rho, A))
        assert back.apply(sym, args) == got
        assert A.apply(sym, args) == want
        assert got != want

    def test_unfaithful_translation_rejected(self):
        swapped = TermTranslation(
            fx.BA, fx.BIMP,
            (("meet", App("join", (Var("x1"), Var("x2")))),
             ("not", App("imp", (Var("x1"), App("bot"))))),
        )
        with pytest.raises(PreconditionError):
            check_faithful_term_equivalence(
                fx.BOOL, fx.BIMPQ, swapped, fx.IMP_TO_NOT, fx.DL, 4
            )

    def test_translations_are_mutually_inverse_on_members(self):
        from qvbench.quasivariety import members_up_to

        for A in members_up_to(fx.BOOL, 4):
            rhoA = apply_translation(fx.IMP_TO_NOT, A)
            assert membership(rhoA, fx.BIMPQ).holds
            assert apply_translation(fx.NOT_TO_IMP, rhoA).tables == A.tables
        for B in members_up_to(fx.BIMPQ, 4):
            tauB = apply_translation(fx.NOT_TO_IMP, B)
            assert membership(tauB, fx.BOOL).holds
            assert apply_translation(fx.IMP_TO_NOT, tauB).tables == B.tables


class TestCrossValidation:
    def test_positive_fixture_consistent(self):
        r = cross_validate_main_theorem(fx.DL_TO_BOOL, fx.PP_COMPL, 4)
        assert r.consistent
        assert r.simple.holds and r.unit_counit.holds and r.mono_reflective.holds

    def test_negative_fixture_consistent(self):
        r = cross_validate_main_theorem(fx.MSL_TO_DL, None, 4)
        assert r.consistent
        assert r.simple is None
        assert r.unit_counit.status == "fails"
        assert r.mono_reflective.status == "fails"
        assert any("not applicable" in n for n in r.notes)

    def test_trivial_fixture_consistent(self):
        r = cross_validate_main_theorem(fx.DL_TRIVIAL, fx.PP_EMPTY, 4)
        assert r.consistent

    def test_each_verdict_computed_once(self, monkeypatch):
        """The reduct functor is checked once, and each member's unit and
        counit are decided once, though two verdicts report them."""
        calls = []
        for name in ("_reduct_violation", "unit_collapse", "counit_collapse"):
            def counted(*args, _name=name, _original=getattr(beth, name)):
                calls.append((_name, args[0]))
                return _original(*args)
            monkeypatch.setattr(beth, name, counted)
        r = cross_validate_main_theorem(fx.DL_TO_BOOL, fx.PP_COMPL, 4)
        assert r.unit_counit.holds and r.mono_reflective.holds
        assert calls == (
            [("_reduct_violation", fx.DL_TO_BOOL)]
            + [("unit_collapse", A) for A in members_up_to(fx.DL, 4)]
            + [("counit_collapse", B) for B in members_up_to(fx.BOOL, 4)]
        )

    def test_family_relative_disagreement_is_flagged(self):
        """The join-with-complement closure equals the constant-top expansion,
        so the categorical checks hold while the family-relative simplicity
        check fails; the report must say so rather than crash."""
        E = induced_expansion(fx.PP_JC)
        r = cross_validate_main_theorem(E, fx.PP_JC, 4)
        assert not r.consistent
        assert r.unit_counit.holds and r.mono_reflective.holds
        assert r.simple.status == "fails"
        assert any("family-relative" in n for n in r.notes)


    def test_ill_defined_reduct_fails_every_categorical_check(self):
        """BadQ's generator has a lattice part that breaks absorption, so its
        reduct is not in DL.  Reflecting into it would fail the unit for the
        wrong reason; every check reports the reduct instead."""
        bad = build_algebra(
            "BadBA", fx.BA, 2,
            {"meet": min, "join": lambda a, b: 1, "bot": 0, "top": 1, "not": lambda a: 1 - a},
        )
        E = ExpansionSpec(fx.DL, Quasivariety("BadQ", fx.BA, generators=(bad,)))
        r = cross_validate_main_theorem(E, None, 2)
        for v in (unit_counit_verdict(E, 2), check_mono_reflective(E, 2),
                  r.unit_counit, r.mono_reflective):
            assert (v.claim, v.status) == ("reduct-well-defined", "fails")
            assert isinstance(v.certificate, ExpansionViolation)
            assert not membership(reduct(v.certificate.algebra, fx.BDL), fx.DL).holds
        assert not r.consistent
        assert any("not well defined" in n for n in r.notes)


class TestSimplicityTransfer:
    def test_not_imp_pair_transfers(self):
        v = check_simplicity_transfer(
            fx.BOOL, fx.BIMPQ, fx.NOT_TO_IMP, fx.IMP_TO_NOT, fx.DL, 4
        )
        assert v.holds

    def test_identity_equivalence_trivially_consistent(self):
        ident = TermTranslation(fx.BA, fx.BA)
        v = check_simplicity_transfer(fx.BOOL, fx.BOOL, ident, ident, fx.DL, 4)
        assert v.holds

    def test_failed_faithfulness_reports_precondition(self):
        bad_rho = TermTranslation(
            fx.BIMP, fx.BA, (("imp", App("meet", (Var("x1"), Var("x2")))),)
        )
        with pytest.raises(PreconditionError) as err:
            check_simplicity_transfer(
                fx.BOOL, fx.BIMPQ, fx.NOT_TO_IMP, bad_rho, fx.DL, 4
            )
        assert isinstance(err.value.certificate, Verdict)


class TestHarness:
    def test_complement_expansion_consistent(self):
        r = harness_unique_witness_expansions(fx.PP_COMPL, 4, ext_bound=8)
        assert r.premises_established
        assert r.simple.holds
        assert r.consistent

    def test_padded_witnesses_premises_fail(self):
        P = PpExpansionSpec(fx.DL, (("cp", fx.COMPL_PADDED),))
        r = harness_unique_witness_expansions(P, 4, ext_bound=4)
        assert not r.premises_established
        assert r.simple is None
        assert r.consistent
        assert any("unique-witnesses" in k and v == "fails" for k, v in r.premise_details)

    def test_empty_family_vacuously_consistent(self):
        r = harness_unique_witness_expansions(fx.PP_EMPTY, 4)
        assert r.premises_established and r.consistent

    def test_projection_family_blocks_join_with_complement(self):
        """Without the witness projections the premises would hold while the
        simplicity check fails; the projection's interpolation failure keeps
        the harness sound."""
        r = harness_unique_witness_expansions(fx.PP_JC, 4, ext_bound=8)
        assert not r.premises_established
        assert r.consistent
        assert any(k.startswith("beth-companion") and v == "fails" for k, v in r.premise_details)
