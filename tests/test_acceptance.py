"""Acceptance suite: one test per criterion, each checked at its stated
tolerance against the stated independent oracle, with the runtime limit
enforced and one pass/fail line printed per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.
"""
import hashlib
import subprocess
import sys
import time
from itertools import combinations, product as iproduct

import pytest

from qvbench import fixtures as fx
from qvbench.cli import emit_report, load_workspace, run
from qvbench.adjunction import check_counit_iso, check_unit_mono, counit, free_extension
from qvbench.beth import (
    check_faithful_term_equivalence,
    check_interpolation_criterion,
    check_simple,
    check_simplicity_transfer,
    cross_validate_main_theorem,
    harness_unique_witness_expansions,
)
from qvbench.beth import TermTranslation, apply_translation
from qvbench.core import (
    Congruence,
    are_isomorphic,
    build_algebra,
    direct_product,
    all_subuniverses,
    congruence_closure,
    generated_subalgebra,
    enumerate_homomorphisms,
    is_congruence,
    quotient,
    subalgebra,
    trivial_algebra,
)
from qvbench.implicit import check_totalizable, check_unique_witnesses, induced_partial_op
from qvbench.logic import App, Var, satisfies_pp
from qvbench.quasivariety import free_algebra, members_up_to, membership, relative_congruence

import oracles
from oracles import all_partitions, brute_homs, layered_term_values, naive_tuple_closure


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
        assert positive.consistent
        assert positive.simple.holds
        assert positive.unit_counit.holds
        assert positive.mono_reflective.holds

        negative = cross_validate_main_theorem(fx.MSL_TO_DL, None, 4)
        assert negative.consistent
        assert negative.simple is None
        assert negative.unit_counit.status == "fails"
        assert negative.mono_reflective.status == "fails"

        for trivial, P in [(fx.DL_TRIVIAL, fx.PP_EMPTY)]:
            r = cross_validate_main_theorem(trivial, P, 4)
            assert r.consistent
            assert r.simple.holds and r.unit_counit.holds and r.mono_reflective.holds


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
                assert congruence_closure(A, [pair]).finer_or_equal(generated)


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
        assert check_unique_witnesses(fx.COMPL, fx.DL, 4) == "ok"
        for A in members_up_to(fx.DL, 4):
            result = check_totalizable(fx.COMPL, fx.DL, A, 8)
            assert not isinstance(result, type(None))
            assert hasattr(result, "algebra"), f"{A.name} does not totalize within 8"
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
            fx.BOOL, fx.BIMPQ, fx.NOT_TO_IMP, fx.IMP_TO_NOT, fx.DL, 4
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
    "amalgamate-chains.json": "598bde31e38bc5d7e19d5872f19e4c1f3064b10a99656ff483b93a0bd751fc6f",
    "cg-chain3-total.json": "f3b9b7f727df6956eaac8e59569f6e01f6cd7c8f38f87dc391cfef7b0e97ebc0",
    "cg-chain3-upper.json": "3271781f378a8c08e8a08b6c56ec3e2fddf0910d1f8c13c92e86a299230fc1c0",
    "check-beth-compl.json": "d56f7141a01b1e39c71df980600ed13bf8709c020c9f09949a610af3c6e644c9",
    "check-extendable-chain3.json": "42331401c58b49a036af2a4a8b27f7c69c8086c40a1c0b2178fa8404fbdc1901",
    "check-regular-twoba.json": "b6d9d602d51c830a03a1300e3a926a6bbac68e9131a56c5eea04a79d754b1a88",
    "check-simple-compl.json": "57082c1369fbbdedf04571e48a11e5bdab3a748eb283f876c526064ff5f8fc5c",
    "check-simple-jc.json": "b3cdb969af402a2c6e8c473dd6c014601ea787007497600f6b2b3ea4f9c957af",
    "check-unique-witnesses-compl.json": "453c1b74fe253697564c84f76fa88a6a5bc7b2db65e89dc7ccf55647d8959788",
    "check-unique-witnesses-padded.json": "f334e1f772fb9607a4ac3fc3a85988634eb43b6642cf6711b3624f21fabcb29a",
    "counit-dl-bool.json": "efbceef7e98a543fb33cd07487c54ba0be03bcd68cb70da3d33db47691477d97",
    "counit-msl-dl.json": "9dc39fe0cbc457bdfac6aa609f35cbb55dc4f4fe974ac1259f5830e311f73156",
    "cross-validate-dl-bool.json": "3471d26f45e55241ef363fe834b7bd250a866de96bbaec1d75f6c350a92fa01d",
    "cross-validate-msl-dl.json": "6cd0d1666aa65cba375712c581d657daca1963d036457dae4dc289b99c24c2b6",
    "cross-validate-trivial.json": "a1d7074f69c5d7cc3bdffeb4bf58a79bd50ee52ffeaa994fe7b2604d184769ec",
    "enumerate-dl-4.json": "a04d0afd1d01bc924f7012c3e7340bfbd55ce59041fa36c11ec4ed38ce36c21f",
    "enumerate-msl-4.json": "8aa73340c41449704cdd96a35a0a65824a4aef3664e88675e9853209a8f8fdf6",
    "expand-chain3.json": "026e76711390a3d9c02e7265a4320be694e2ea681cbffc6a9e95342e5739dcc1",
    "expand-diamond.json": "eaa1e26d48000e236c8e6e36700877c010dda0110e4d91052dcb4c7b87b5b992",
    "free-bool-2.json": "b301956fc464c9732cd8ab75879aa17a846134441a2d7d47440ccf74fe522db5",
    "free-dl-2.json": "2200bfc198c619f6b5374c88f35e8be036dffe4db0c2e8ac5500ff60af96d7ef",
    "membership-chain3.json": "9caa70ed77117a68b72265345cde5be0929215aa22ea1434e27b3a0ab56f9cc5",
    "reflect-chain3.json": "1dba78d265e0f14e6f6b5fae9f519d9fc6dfa8878b6757b83eca4e2ec6968e51",
    "reflect-diamond-msl.json": "5ad11239e304b504d206b1196de883f84c9b97487a4b025f799c9371956cd60e",
    "term-equiv-not-imp.json": "5de54920504e3e073752a1f792483163a7068016c645f557138d1c8446b93c62",
    "unit-dl-bool.json": "c74e1b419309f83b52bdf27a710bab5bf1999c36e37ae0baefce7376a81abcde",
    "unit-msl-dl.json": "56c756641e77ecadf65b5bed32750bf8c4459d10eb7db844dae88b2ab6c2378f",
}


# SHA-256 of the `free` reports on workspaces/fixtures.qvw for generator sets
# larger than the suite's: products of 16 and 8 factors, 168 and 256 elements.
FREE_REPORT_SHA256 = {
    ("DL", "w,x,y,z"): "d48515655c41408f49188596604b85ee94cdfa0926da8f0ea3237ab71d4125ad",
    ("BOOL", "x,y,z"): "83d6bf4381ae1c451d6526acdfd9f0c40db6097af5ac12561d3f9c607b8dd84f",
}


def test_large_free_reports_pinned():
    for (K, generators), digest in FREE_REPORT_SHA256.items():
        report, code = run("free", load_workspace("workspaces/fixtures.qvw"),
                           {"in": K, "generators": generators})
        assert code == 0
        assert hashlib.sha256(emit_report(report)).hexdigest() == digest


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
