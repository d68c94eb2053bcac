"""Acceptance suite: one test per criterion, each checked at its stated
tolerance against the stated independent oracle, with the runtime limit
enforced and one pass/fail line printed per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.
"""
import hashlib
import importlib.util
import subprocess
import sys
import time
from itertools import combinations, product as iproduct

import pytest

from qvbench.cli import emit_report, load_workspace, run
from qvbench.adjunction import counit, free_extension
from qvbench.beth import (
    check_faithful_term_equivalence,
    check_interpolation_criterion,
    check_simple,
    check_simplicity_transfer,
    cross_validate_main_theorem,
)
from qvbench.beth import TermTranslation, apply_translation
from qvbench.core import (
    Congruence,
    are_isomorphic,
    direct_product,
    all_subuniverses,
    generated_subalgebra,
    enumerate_homomorphisms,
    subalgebra,
    trivial_algebra,
)
from qvbench.implicit import check_totalizable, check_unique_witnesses, induced_partial_op
from qvbench.logic import App, Var, _define, _shape, satisfies_pp
from qvbench.quasivariety import (
    _member_classes, free_algebra, members_up_to, membership, relative_congruence,
)

import fx
import oracles
from oracles import (
    all_partitions, brute_homs, build_algebra, congruence_closure, finer_or_equal,
    harness_unique_witness_expansions, is_congruence, layered_term_values, naive_tuple_closure,
    quotient,
)


class Timer:
    def __init__(self, number, label, limit):
        self.number, self.label, self.limit = number, label, limit

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} ({self.label}): {status} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.limit, f"criterion {self.number} exceeded {self.limit}s"


def test_acceptance_1_booleanization():
    with Timer(1, "booleanization of the three-element chain", 1.0):
        homs = brute_homs(fx.CHAIN3, fx.CHAIN2, fx.BDL)
        assert len(homs) == 2
        seeds = [tuple(h[a] for h in homs) for a in range(3)]
        oracle = naive_tuple_closure([fx.TWO_BA, fx.TWO_BA], seeds, fx.BA)
        assert len(oracle) == 4
        fe = free_extension(fx.CHAIN3, fx.DL_TO_BOOL)
        assert fe.algebra.size == 4
        assert fe.unit_injective
        assert sorted(fe.gen.elements) == sorted(oracle)
        assert [fe.gen.elements[i] for i in fe.unit.mapping] == seeds


def test_acceptance_2_counit_dichotomy():
    with Timer(2, "counit bijective on Boolean members, not on the diamond", 1.0):
        for B in (fx.TWO_BA, fx.FOUR_BA):
            eps = counit(B, fx.DL_TO_BOOL)
            assert eps.source.size == B.size
            assert sorted(eps.mapping) == list(range(B.size))
        homs = brute_homs(fx.DIAMOND_MS, fx.CHAIN2_MS, fx.MSL)
        assert len(homs) == 3
        seeds = [tuple(h[a] for h in homs) for a in range(4)]
        oracle = naive_tuple_closure(
            [fx.CHAIN2, fx.CHAIN2, fx.CHAIN2], seeds, fx.BDL
        )
        assert len(oracle) == 5
        eps = counit(fx.DIAMOND, fx.MSL_TO_DL)
        assert eps.source.size == 5
        assert len(set(eps.mapping)) < eps.source.size


def test_acceptance_3_main_theorem_consistency():
    with Timer(3, "main-theorem cross-validation on the fixture suite", 120.0):
        positive = cross_validate_main_theorem(fx.DL_TO_BOOL, fx.PP_COMPL, 4)
        assert positive["consistency"].holds
        assert positive["simple-pp-expansion"].holds
        assert positive["unit-mono-counit-iso"].holds
        assert positive["mono-reflective"].holds

        negative = cross_validate_main_theorem(fx.MSL_TO_DL, None, 4)
        assert negative["consistency"].holds
        assert "simple-pp-expansion" not in negative
        assert negative["unit-mono-counit-iso"].status == "fails"
        assert negative["mono-reflective"].status == "fails"

        for trivial, P in [(fx.DL_TRIVIAL, fx.PP_EMPTY)]:
            r = cross_validate_main_theorem(trivial, P, 4)
            assert all(v.holds for v in r.values()) and len(r) == 4


def test_acceptance_4_relative_congruence_oracle():
    with Timer(4, "relative congruence: axiomatic = generated = brute force", 60.0):
        for A in members_up_to(fx.DL, 4):
            for pair in combinations(range(A.size), 2):
                generated = relative_congruence(A, [pair], fx.DL)
                axiomatic = relative_congruence(A, [pair], fx.DLAX)
                assert generated.partition == axiomatic.partition
                # brute force: intersect every compatible partition containing
                # the pair whose quotient is a member
                qualifying = []
                for labels in all_partitions(A.size):
                    if labels[pair[0]] != labels[pair[1]]:
                        continue
                    if not is_congruence(A, labels):
                        continue
                    Q, _ = quotient(A, Congruence.from_labels(A, labels))
                    if membership(Q, fx.DL).holds:
                        qualifying.append(labels)
                meet = [tuple(lab[i] for lab in qualifying) for i in range(A.size)]
                oracle = Congruence.from_labels(A, meet)
                assert generated == oracle
                assert finer_or_equal(congruence_closure(A, [pair]), generated)


def test_acceptance_5_free_algebra_cardinalities():
    with Timer(5, "free algebra sizes 6/4/16 with unique lifts", 10.0):
        expected = [(fx.DL, ["x", "y"], 6), (fx.BOOL, ["x"], 4), (fx.BOOL, ["x", "y"], 16)]
        for K, names, size in expected:
            T, gens = free_algebra(K, names)
            assert T.size == size
            for U in members_up_to(K, 4):
                homs = enumerate_homomorphisms(T, U, K.signature)
                # one lift per assignment of generators, each exactly once
                assert len(homs) == U.size ** len(names)
                images = sorted(tuple(h(gens[n]) for n in names) for h in homs)
                assert images == sorted(iproduct(range(U.size), repeat=len(names)))


def test_acceptance_6_interpolation_criterion():
    with Timer(6, "interpolation for complement on Boolean members", 30.0):
        members = []
        seen_sizes = set()
        for k in range(5):
            P = direct_product([fx.TWO_BA] * k) if k else trivial_algebra(fx.BA)
            for sub in all_subuniverses(P):
                S, _ = subalgebra(P, sub)
                members.append(S)
                seen_sizes.add(S.size)
        assert max(seen_sizes) == 16
        for A in members:
            v = check_interpolation_criterion(A, fx.COMPL, fx.BDL)
            assert v.holds, f"interpolation failed on a Boolean member of size {A.size}"
            for a in range(A.size):
                assert layered_term_values(A, {a}, 4) == generated_subalgebra(A, {a})
        v = check_interpolation_criterion(fx.DIAMOND, fx.COMPL, fx.BDL)
        assert v.status == "fails"
        _, args, value, generated = v.certificate
        assert args == (1,) and value == 2 and generated == (0, 1, 3)
        assert layered_term_values(fx.DIAMOND, {1}, 4) == {0, 1, 3}


def lattice_from_order(name, size, below):
    """A bounded lattice on 0..size-1 (0 bottom, size-1 top) from its order:
    `below[a]` is the set of elements strictly under a."""
    down = [set(below[a]) | {a} for a in range(size)]
    up = [{b for b in range(size) if a in down[b]} for a in range(size)]

    def meet(a, b):
        common = down[a] & down[b]
        return next(c for c in common if down[c] >= common)

    def join(a, b):
        common = up[a] & up[b]
        return next(c for c in common if up[c] >= common)

    return build_algebra(name, fx.BDL, size, {"meet": meet, "join": join, "bot": 0, "top": size - 1})


# The two non-distributive five-element lattices.  In a distributive lattice
# an element has at most one complement; in M3 and N5 some have two, so the
# least witness of joincompl is a real choice there.
M3 = lattice_from_order("M3", 5, [set(), {0}, {0}, {0}, {0, 1, 2, 3}])
N5 = lattice_from_order("N5", 5, [set(), {0}, {0, 1}, {0}, {0, 1, 2, 3}])


def test_acceptance_7_pp_evaluation_oracle():
    with Timer(7, "pp satisfaction agrees with full quantifier expansion", 10.0):
        cases = 0
        outcomes = {}
        min_mons = [fx.MIN_MON, direct_product([fx.MIN_MON, fx.MIN_MON])]
        # MONQ up to 4 holds copies of MinMon and its square; leave them out.
        other_monqs = [
            M for M in members_up_to(fx.MONQ, 4)
            if not any(are_isomorphic(M, B) for B in min_mons)
        ]
        suites = [
            (
                [fx.COMPL, fx.COMPL_PADDED, fx.JOIN_WITH_COMPL],
                members_up_to(fx.DL, 5) + [M3, N5],
            ),
            ([fx.INV], min_mons + other_monqs),
        ]
        for specs, algebras in suites:
            for spec in specs:
                phi = spec.formula
                outcomes[spec.name] = {True: 0, False: 0}
                for A in algebras:
                    names = phi.free_vars()
                    for values in iproduct(range(A.size), repeat=len(names)):
                        env = dict(zip(names, values))
                        got, witness = satisfies_pp(A, phi, env)
                        expanded, first = False, None
                        for w in iproduct(range(A.size), repeat=len(phi.bound_vars)):
                            full = dict(env)
                            full.update(zip(phi.bound_vars, w))
                            if all(
                                oracles.eval_term(A, eq.left, full)
                                == oracles.eval_term(A, eq.right, full)
                                for eq in phi.body
                            ):
                                expanded, first = True, dict(zip(phi.bound_vars, w))
                                break
                        assert got == expanded
                        assert witness == first, (spec.name, A.name, env)
                        outcomes[spec.name][got] += 1
                        cases += 1
        for name, counts in outcomes.items():
            assert counts[True] and counts[False], (name, counts)
        # Every spec has two free variables, so an algebra of size n gives
        # n^2 cases, and no two algebras in a suite are isomorphic.  DL up to
        # 5 has 8 members (sizes 1, 2, 3, 4, 4, 5, 5, 5; OEIS A006982), and
        # M3 and N5 add two more of size 5: 1 + 4 + 9 + 2*16 + 5*25 = 171
        # cases for each of the 3 BDL specs.  INV gets 4 + 16 on MinMon and
        # its square, and 1 + 9 + 16 on the other 3 MONQ members up to 4
        # (sizes 1, 3, 4).  Total 3 * 171 + 20 + 26 = 559.
        assert cases > 200


def test_acceptance_8_unique_witness_harness():
    with Timer(8, "unique-witness expansions are simple at the bound", 60.0):
        assert check_unique_witnesses(fx.COMPL, fx.DL, 4).holds
        for A in members_up_to(fx.DL, 4):
            result = check_totalizable(fx.COMPL, fx.DL, A, 8)
            assert result.holds, f"{A.name} does not totalize within 8"
        report = harness_unique_witness_expansions(fx.PP_COMPL, 4, ext_bound=8)
        assert report.premises_established
        assert report.simple is not None and report.simple.holds
        assert report.consistent
        assert check_simple(fx.PP_COMPL, 4).holds


def test_acceptance_9_term_equivalence_suite():
    with Timer(9, "faithful term equivalence and simplicity transfer", 60.0):
        v = check_faithful_term_equivalence(
            fx.BOOL, fx.BIMPQ, fx.NOT_TO_IMP, fx.IMP_TO_NOT, fx.DL, 4
        )
        assert v.holds
        t = check_simplicity_transfer(
            fx.BOOL, fx.BIMPQ, fx.NOT_TO_IMP, fx.IMP_TO_NOT, fx.DL, 4, v
        )
        assert t.holds
        bad_rho = TermTranslation(
            fx.BIMP, fx.BA, (("imp", App("meet", (Var("x1"), Var("x2")))),)
        )
        bad = check_faithful_term_equivalence(
            fx.BOOL, fx.BIMPQ, fx.NOT_TO_IMP, bad_rho, fx.DL, 4
        )
        assert bad.status == "fails"
        label, A, (sym, args, got, want) = bad.certificate
        assert "round trip" in label
        back = apply_translation(fx.NOT_TO_IMP, apply_translation(bad_rho, A))
        assert back.apply(sym, args) == got != want == A.apply(sym, args)


# SHA-256 of each report `scripts/run_fixture_suite.py` writes.  A change that
# alters report bytes updates these and says why.
FIXTURE_SUITE_SHA256 = {
    "amalgamate-chains.json": "8fc096850ea2cb3d4aac82ef53cbdc863da9ffa8e4ff667784bef8f3e153bc2a",
    "cg-chain3-total.json": "de33ff190554d13863f38e3bcb166135e312816b6d5f4fda075ab599cf06a48d",
    "cg-chain3-upper.json": "33b2eb228b1618a789193e209a37d18c8d33d5483b8b4edb9d19ca9287f264e3",
    "check-beth-compl.json": "e214649a8a5f13ba550cfee72594251990eec8c519806e3a5e13829a2a45a52b",
    "check-extendable-chain3.json": "de7f595ce482f4c12d096e8dff70f2d7b2022bff4a6333cb6a6b8fdc7d696301",
    "check-regular-twoba.json": "a79cd3ac9d4be09e485d8e5211f661badd93def798e41dbde97d9b93d11eb398",
    "check-simple-compl.json": "60aa230962c5b74d948674d28cd311925212b362158225ec70915c3695f78a6b",
    "check-simple-jc.json": "0f69bcda49fc576551e89e63c79572513fc2fcdf6dc795ee1a1c051f8a0b4d4e",
    "check-unique-witnesses-compl.json": "1f4ad252449e94b090aaea9bff5d3e8b83eeb7e81c16e912a9eb928b0e714d0f",
    "check-unique-witnesses-padded.json": "9d3d08269b8b485bf51af6ad120b96128403be7fb4320b913981979136efc804",
    "counit-dl-bool.json": "01bd0574e99393e714f0701c92a1e6eba2372ed188d8454110538eab6154f66b",
    "counit-msl-dl.json": "10d0afe85bc11c3ad049d076cc01ccdfffebb962c00ab6a7625e609feeec655c",
    "cross-validate-dl-bool.json": "d8081529cfac60fd2ef04a63807728ec9b647863d4a744b59717a8eabc62ffd6",
    "cross-validate-msl-dl.json": "ea0886b2504f766f4242ff82b69db0e534178e402023c965fe0879fdba720b88",
    "cross-validate-trivial.json": "a999fe36db74c5c3ea9c1aab07d38f341e0f55f03a4decbb0809f33db17e160c",
    "enumerate-dl-4.json": "0448fe9748672bcd77601f6d88339c28c3325fea397099e20bf20b3c2eaa5a73",
    "enumerate-msl-4.json": "392631284abccc7c46dccdd89dd3830e0baec3ef5a15ffa21c1c64573256d6e5",
    "expand-chain3.json": "217de28e0cc9f039eebefc937313c43391d5550d2b9004d56ef662f195d9ad38",
    "expand-diamond.json": "118fbc191d3456cdc9989ed4e00e5ebeaff88554eee2275255356ceca335239f",
    "free-bool-2.json": "7f9cade5b69507c168e5f54b404f68bc670b4c4cf7355e166391ccec857f8e8f",
    "free-dl-2.json": "52a45603c48e89b5d802d896a76b3af6d92169e204e3c3e8069e2c28597c02ae",
    "membership-chain3.json": "d9884fe77549881b3c45871c165e07e24ab8547443e06433826e9f0dec61d134",
    "reflect-chain3.json": "ae392274a4942a58f479fbe76b8c17c3b27c1c49b8d435cf97973dc1767bcef6",
    "reflect-diamond-msl.json": "2584d5363e9952264e213df86f08dbe75487489a2288b827a58a9bb7c87c673b",
    "term-equiv-not-imp.json": "4083afd1dc593b573a2a35a30e4bfe4d5e9b129b9a2acd80bd00f4d46ec50742",
    "unit-dl-bool.json": "9b4f107fb68760188452c41575a1f7f6c06628567e74ccd08a98a66e1efb1cb8",
    "unit-msl-dl.json": "0513a0b3ba2134f7f094f6b91ce72d1f29e16ed9a185d14a0c8203a21f1d7d50",
}


# SHA-256 of the text form, `emit_report(report, "text")`, of each suite
# report.  A change that alters these bytes updates them and says why.
FIXTURE_SUITE_TEXT_SHA256 = {
    "amalgamate-chains.txt": "61738b5cfe788332f63f57b9a03390628e0b2294c503981842c296e4c239bb5f",
    "cg-chain3-total.txt": "3d8a184379f21456922159647ae2227e7cb408745d7e4d30d4d3d26309faa20f",
    "cg-chain3-upper.txt": "1410e9b33d563ea5062e589e3eaebf91771088d9a77ced74084a29349e4509ac",
    "check-beth-compl.txt": "ae7d34768d01428eb6cdbe860a2f146a69c643d38a3050681acd20e636b6f481",
    "check-extendable-chain3.txt": "11b320492ac2cb39dd65c722830d0bfe7b59711111d5e17f74476eb3004b4fbe",
    "check-regular-twoba.txt": "2915dea4cb84ca01fce9ae3f1de50b952fb6be0c9d5608bf0a02efda14e532c4",
    "check-simple-compl.txt": "1376d3c6bc04ec3f6e74ef5c78b21fb05dae5966adae71b56fb629d4a5807472",
    "check-simple-jc.txt": "ce6c8b2169a56bafcc4720e129751d2cd8aa77baf1d205e4b61aa69dc832a0d6",
    "check-unique-witnesses-compl.txt": "30d3ab743c4045695fd3a5e4dc57a700c41510a70978743eba674196f4b9c188",
    "check-unique-witnesses-padded.txt": "bfc1fc26277c9a85c767ccfbca6ec86ea1f5f162927dd72afda3962003562005",
    "counit-dl-bool.txt": "955926046985b974c2e99bea22c1d5db196889eae1b9de9442a2318242d6c6e3",
    "counit-msl-dl.txt": "c33f61e6db51aa30ddae1396e4667279ed1a953df42834af83c5c68c09a91370",
    "cross-validate-dl-bool.txt": "e1af5e87eb13978c43c371363aaff29f4d9116d2a00b66205456857676e53df4",
    "cross-validate-msl-dl.txt": "9085547f74651b22f284ea45134f3053573984c7afd675948b22ed792cf988ed",
    "cross-validate-trivial.txt": "ee13778d9f786928f6495185d6f2c0a34f72d655bc1bcdcbcda2e264a0818779",
    "enumerate-dl-4.txt": "cc79cf61dae68d0d772525e7e1199791015004172d2ce8d46ae89db18da320cf",
    "enumerate-msl-4.txt": "4bbc0bfd724e0c4e661a4978e10d7af41dfc51f6804e1ece82a887ec6a7d7742",
    "expand-chain3.txt": "c1d0a0c87ae1d40638b42d88513e3c80694c69a9125913b3b2c75a619754d261",
    "expand-diamond.txt": "432647c46a5771f035112f90967245cadfd0d1ed6cc304acbd58e918313003a7",
    "free-bool-2.txt": "8629492c0f0466b4ef6eb93779705189fc2aef85fcdaca21ae8c8e5d33d40253",
    "free-dl-2.txt": "6fbd173f51c2846ae58bff244ddc0e44afda9b42dae6dbfec7493754885f7d0a",
    "membership-chain3.txt": "55cc5cde6124bd765651e6b8efc10645a9f797552285fa4194caddc4b8173587",
    "reflect-chain3.txt": "16f153ed68c293e1621301935c1d1344282d9f4e49ba7797a9602b08f48edd98",
    "reflect-diamond-msl.txt": "6c291a94c3021c1790f86a62b2dfdb2d45eed568ccb835150046230f4e731782",
    "term-equiv-not-imp.txt": "2e2dba2f18bd25385bd4c3483284ddb893dd81c94f74f683c76e6111332c197c",
    "unit-dl-bool.txt": "863594684840045ff5be4b9f3b21991157010fc54061f2105a895ef4ce2318db",
    "unit-msl-dl.txt": "69e245aa9d4accc6f4089d96e3be7803af25aaf745c8ad833118d19784ac42bf",
}


def _suite_script():
    spec = importlib.util.spec_from_file_location("run_fixture_suite", "scripts/run_fixture_suite.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_suite_text_reports_pinned():
    digests = {}
    for label, command, flags in _suite_script().SUITE:
        report, _ = run(command, load_workspace("workspaces/fixtures.qvw"), dict(flags))
        digests[f"{label}.txt"] = hashlib.sha256(emit_report(report, "text")).hexdigest()
    assert len(digests) == 27
    assert digests == FIXTURE_SUITE_TEXT_SHA256


# SHA-256 of the `free` reports on workspaces/fixtures.qvw for generator sets
# larger than the suite's: products of 16, 8 and 8 factors, 168, 256 and 256
# elements.  BIMPQ's imp is the one binary symbol that is not commutative.
FREE_REPORT_SHA256 = {
    ("DL", "w,x,y,z"): "04b2a28b6eeff1c7517dd4cb521047e95343b1dd9890844f9cfa3153f15b13d3",
    ("BOOL", "x,y,z"): "73b4f448e1281c5ef0f446433fe45776b8341dc1e7e1bc08b787006ed859013b",
    ("BIMPQ", "x,y,z"): "d1ee53a7bf5e9b9ffed645e301b7a63af24665e7ea55d52c29ee30bd1a6c0255",
}


def test_large_free_reports_pinned():
    for (K, generators), digest in FREE_REPORT_SHA256.items():
        report, code = run("free", load_workspace("workspaces/fixtures.qvw"),
                           {"in": K, "generators": generators})
        assert code == 0
        assert hashlib.sha256(emit_report(report)).hexdigest() == digest


# SHA-256 of `reflect --algebra Chain8 --expansion DLtoBOOL` on the
# unrelabelled bench/workspace.qvw: 7 factors, a seeded generation with a
# unary symbol, 128 elements.
REFLECT_CHAIN8_SHA256 = "768f2142e07eb7c24cc1bb3b5226e4d9dc087766c276e79578b1fea7c13546a8"


def test_chain8_reflection_report_pinned():
    report, code = run("reflect", load_workspace("bench/workspace.qvw"),
                       {"algebra": "Chain8", "expansion": "DLtoBOOL"})
    assert code == 0
    assert hashlib.sha256(emit_report(report)).hexdigest() == REFLECT_CHAIN8_SHA256


def test_acceptance_10_determinism(tmp_path):
    with Timer(10, "byte-identical reports across repeated runs", 300.0):
        outputs = []
        for run_dir in ("first", "second"):
            out = tmp_path / run_dir
            proc = subprocess.run(
                [sys.executable, "scripts/run_fixture_suite.py", str(out)],
                capture_output=True,
            )
            assert proc.returncode in (0, 1, 2), proc.stderr.decode()
            blobs = {
                p.name: p.read_bytes() for p in sorted(out.glob("*.json"))
            }
            assert blobs, "suite produced no reports"
            outputs.append(blobs)
        assert outputs[0] == outputs[1]
        digests = {name: hashlib.sha256(blob).hexdigest() for name, blob in outputs[0].items()}
        assert digests == FIXTURE_SUITE_SHA256


def test_suite_reports_do_not_depend_on_command_order():
    """The suite's commands in reverse order, in one process, each on a
    freshly parsed workspace as the script runs them: whatever ran before a
    command, and whatever it left in a cache, its report keeps its digest."""
    digests = {}
    for label, command, flags in reversed(_suite_script().SUITE):
        report, _ = run(command, load_workspace("workspaces/fixtures.qvw"), dict(flags))
        digests[f"{label}.json"] = hashlib.sha256(emit_report(report)).hexdigest()
    assert len(digests) == 27
    assert digests == FIXTURE_SUITE_SHA256


def test_reports_do_not_depend_on_shared_shapes():
    """One compile of a shape serves sources of every signature and axiom
    set.  The bench's three axiomatic `enumerate` commands and the suite's
    `check-simple` and `cross-validate` commands, run in one process from a
    cold code cache, axiomatic ones first and then in reverse order, give
    the same bytes, and the suite's reports keep their pinned digests."""
    axiomatic = [
        (f"enumerate-{K.lower()}-{n}", "bench/workspace.qvw", "enumerate", {"in": K, "size": n})
        for K, n in (("DLAX", 3), ("MSLAX", 4), ("MONAX", 4))
    ]
    suite = [
        (label, "workspaces/fixtures.qvw", command, flags)
        for label, command, flags in _suite_script().SUITE
        if command in ("check-simple", "cross-validate")
    ]

    def reports(commands):
        for cache in (_define, _shape, _member_classes):
            cache.cache_clear()
        return {
            label: emit_report(run(command, load_workspace(path), dict(flags))[0])
            for label, path, command, flags in commands
        }

    forward = reports(axiomatic + suite)
    assert reports((axiomatic + suite)[::-1]) == forward
    assert len(suite) == 5
    for label, *_ in suite:
        assert hashlib.sha256(forward[label]).hexdigest() == FIXTURE_SUITE_SHA256[f"{label}.json"]
