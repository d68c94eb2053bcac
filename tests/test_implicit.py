import pytest

import fx
from qvbench import implicit
from qvbench.core import (
    direct_product, enumerate_embeddings, enumerate_homomorphisms, is_embedding, replace,
)
from qvbench.implicit import (
    Extension,
    FunctionalityViolation,
    ImplicitOpSpec,
    PartialOperation,
    PreservationViolation,
    UniqueWitnessViolation,
    _induced,
    bounded_pp_definability_search,
    check_extendable,
    check_preservation,
    check_totalizable,
    check_unique_witnesses,
    generator_products,
    graphs_on,
    induced_partial_op,
)
from qvbench.logic import LogicError, PpFormula, satisfies_pp
from qvbench.parser import parse_workspace
from qvbench.quasivariety import NotFoundWithinBound, Verdict, members_up_to

from oracles import witness_projection_specs


def brute_force_graph(A, spec):
    """Oracle: scan every (args, value) pair directly."""
    entries = {}
    violations = []
    from itertools import product as iproduct

    for args in iproduct(range(A.size), repeat=spec.arity):
        values = [
            b
            for b in range(A.size)
            if satisfies_pp(A, spec.formula, dict(zip(spec.variables, (*args, b))))[0]
        ]
        if len(values) == 1:
            entries[args] = values[0]
        elif len(values) > 1:
            violations.append(args)
    return entries, violations


def lub_family(A):
    """Least upper bound in the meet-order; not pp-definable over MSL."""
    n = A.size

    def leq(a, b):
        return A.apply("meet", (a, b)) == a

    graph = []
    for a in range(n):
        for b in range(n):
            uppers = [c for c in range(n) if leq(a, c) and leq(b, c)]
            least = [c for c in uppers if all(leq(c, d) for d in uppers)]
            if len(least) == 1:
                graph.append(((a, b), least[0]))
    return PartialOperation(A, 2, tuple(graph))


class TestInducedPartialOp:
    def test_compl_on_chain3(self):
        op = induced_partial_op(fx.CHAIN3, fx.COMPL)
        entries, violations = brute_force_graph(fx.CHAIN3, fx.COMPL)
        assert not violations
        assert op.as_dict == entries == {(0,): 2, (2,): 0}
        assert not op.is_total

    def test_compl_total_on_diamond_reduct(self):
        op = induced_partial_op(fx.DIAMOND, fx.COMPL)
        entries, _ = brute_force_graph(fx.DIAMOND, fx.COMPL)
        assert op.as_dict == entries == {(0,): 3, (1,): 2, (2,): 1, (3,): 0}
        assert op.is_total

    def test_inv_on_min_monoid(self):
        op = induced_partial_op(fx.MIN_MON, fx.INV)
        entries, _ = brute_force_graph(fx.MIN_MON, fx.INV)
        assert op.as_dict == entries == {(1,): 1}

    def test_functionality_violation_surfaces(self):
        # y unconstrained except for a satisfiable side condition: every value works
        phi = PpFormula((), (fx.COMPL.formula.body[0],))
        spec = ImplicitOpSpec("halfcompl", fx.BDL, 1, 0, phi)
        result = induced_partial_op(fx.DIAMOND, spec)
        assert isinstance(result, FunctionalityViolation)


class CountingTable(tuple):
    """A table that counts its cell reads."""
    reads = 0

    def __getitem__(self, i):
        CountingTable.reads += 1
        return tuple.__getitem__(self, i)


class TestInducedWork:
    """Deterministic work counts of the graph search, so that a fall back to
    trying every witness tuple fails without timing anything."""

    @pytest.mark.parametrize("name, reads", [
        ("Box12", 9_864),  # 93,024 with y first, 681,216 with a search per value
        ("Bool8", 4_448),  # 24,832 and 101,440 likewise
    ], ids=["Box12", "Bool8"])
    def test_xorpp_cell_reads_pinned(self, name, reads):
        with open("bench/workspace.qvw", encoding="utf-8") as fh:
            ws = parse_workspace(fh.read())
        A = ws.algebras[name]
        counting = replace(A, tables=tuple(CountingTable(t) for t in A.tables))
        CountingTable.reads = 0
        op = _induced.__wrapped__(counting, ws.ppops["xorpp"])  # past the cache
        assert CountingTable.reads == reads
        assert op.graph == induced_partial_op(A, ws.ppops["xorpp"]).graph


class TestPreservation:
    def test_pp_families_preserved(self):
        assert check_preservation(fx.COMPL, fx.DL, 2).holds
        assert check_preservation(fx.INV, fx.MONQ, 2).holds

    def test_lub_family_violated(self):
        verdict = check_preservation(lub_family, fx.MSLQ, 2, language=fx.MSL)
        assert verdict.status == "fails"
        result = verdict.certificate
        assert isinstance(result, PreservationViolation)
        # replay: the violating homomorphism really breaks the graph
        h = result.hom
        src = graphs_on(lub_family, h.source).as_dict
        tgt = graphs_on(lub_family, h.target).as_dict
        image = h.apply_tuple(result.args)
        assert image not in tgt or tgt[image] != h(src[result.args])

    def test_products_include_empty(self):
        ps = generator_products(fx.DL, 2)
        assert [p.size for p in ps] == [1, 2, 4]


class TestExtendable:
    def test_chain3_middle_extends_into_diamond(self):
        verdict = check_extendable(fx.COMPL, fx.DL, fx.CHAIN3, (1,), 4)
        assert verdict.holds
        result = verdict.certificate
        assert isinstance(result, Extension)
        assert result.algebra.size == 4
        assert is_embedding(result.embedding)
        opB = induced_partial_op(result.algebra, fx.COMPL)
        assert opB.defined_at(result.embedding.apply_tuple((1,)))

    def test_already_defined_extends_trivially(self):
        result = check_extendable(fx.COMPL, fx.DL, fx.CHAIN3, (0,), 4).certificate
        assert isinstance(result, Extension)
        assert result.algebra == fx.CHAIN3
        assert result.embedding.mapping == (0, 1, 2)

    def test_chains_up_to_three_do_not_help(self):
        assert check_extendable(fx.COMPL, fx.DL, fx.CHAIN3, (1,), 3) == Verdict(
            "extendable", "unknown-within-bound", NotFoundWithinBound(3)
        )

    def test_extension_agrees_with_original_graph(self):
        result = check_extendable(fx.COMPL, fx.DL, fx.CHAIN3, (1,), 4).certificate
        opA = induced_partial_op(fx.CHAIN3, fx.COMPL)
        opB = induced_partial_op(result.algebra, fx.COMPL)
        e = result.embedding
        for args, value in opA.graph:
            assert opB.as_dict[e.apply_tuple(args)] == e(value)


class TestTotalizable:
    def test_chain3_totalizes_at_diamond(self):
        result = check_totalizable(fx.COMPL, fx.DL, fx.CHAIN3, 4).certificate
        assert isinstance(result, Extension)
        assert result.algebra.size == 4

    def test_chain2_is_already_total(self):
        result = check_totalizable(fx.COMPL, fx.DL, fx.CHAIN2, 4).certificate
        assert result.algebra == fx.CHAIN2

    def test_bound_one(self):
        assert check_totalizable(fx.COMPL, fx.DL, fx.CHAIN2, 1).holds
        assert check_totalizable(fx.COMPL, fx.DL, fx.CHAIN3, 3) == Verdict(
            "totalizable", "unknown-within-bound", NotFoundWithinBound(3)
        )

    def test_chain4_needs_size_eight(self):
        assert check_totalizable(fx.COMPL, fx.DL, fx.CHAIN4, 6).status == "unknown-within-bound"
        verdict = check_totalizable(fx.COMPL, fx.DL, fx.CHAIN4, 8)
        assert verdict.holds and isinstance(verdict.certificate, Extension)
        assert verdict.certificate.algebra.size == 8

    def test_lists_embeddings_only_into_members_where_total(self, monkeypatch):
        """Totalizing each of the 5 DL members up to 4 within 8 lists the
        embeddings of A into B only where the operation is total on B: 3
        `enumerate_embeddings` calls, where listing them into every member
        that A fits in took 21."""
        calls = []

        def counting(*args):
            calls.append(args)
            return enumerate_embeddings(*args)

        monkeypatch.setattr(implicit, "enumerate_embeddings", counting)
        verdicts = [check_totalizable(fx.COMPL, fx.DL, A, 8) for A in members_up_to(fx.DL, 4)]
        assert [v.certificate.algebra.size for v in verdicts] == [1, 2, 4, 4, 8]
        assert len(calls) == 3


class TestUniqueWitnesses:
    def test_compl_vacuously_unique(self):
        assert check_unique_witnesses(fx.COMPL, fx.DL, 4).holds

    def test_inv_vacuously_unique(self):
        assert check_unique_witnesses(fx.INV, fx.MONQ, 2).holds

    def test_padded_witness_violation(self):
        verdict = check_unique_witnesses(fx.COMPL_PADDED, fx.DL, 4)
        assert verdict.status == "fails"
        result = verdict.certificate
        assert isinstance(result, UniqueWitnessViolation)
        assert result.algebra.size >= 2
        assert result.witness_a != result.witness_b

    def test_join_with_complement_unique_in_dl(self):
        assert check_unique_witnesses(fx.JOIN_WITH_COMPL, fx.DL, 4).holds

    def test_monotone_in_bound(self):
        for spec in (fx.COMPL, fx.JOIN_WITH_COMPL):
            ok4 = check_unique_witnesses(spec, fx.DL, 4).holds
            ok2 = check_unique_witnesses(spec, fx.DL, 2).holds
            assert not ok4 or ok2


class TestWitnessProjections:
    def test_projection_shape(self):
        (proj,) = witness_projection_specs(fx.JOIN_WITH_COMPL)
        assert proj.arity == 2
        assert proj.witness_count == 0

    def test_projection_recovers_witness(self):
        (proj,) = witness_projection_specs(fx.JOIN_WITH_COMPL)
        op = induced_partial_op(fx.DIAMOND, proj)
        assert isinstance(op, PartialOperation)
        # for argument a with jc-value top, the witness is a's complement
        assert op.as_dict[(1, 3)] == 2

    def test_no_projections_without_witnesses(self):
        assert witness_projection_specs(fx.COMPL) == ()


class TestPpDefinabilitySearch:
    def test_complement_over_ba_found_at_depth_one(self):
        graph = induced_partial_op(fx.TWO_BA, fx.COMPL)
        found = bounded_pp_definability_search([(fx.TWO_BA, graph)], fx.BA, 1, 1)
        assert isinstance(found, PpFormula)
        spec = ImplicitOpSpec("found", fx.BA, 1, len(found.bound_vars), found)
        assert induced_partial_op(fx.TWO_BA, spec).graph == graph.graph

    def test_complement_over_bdl_found(self):
        target = induced_partial_op(fx.CHAIN2, fx.COMPL)
        found = bounded_pp_definability_search([(fx.CHAIN2, target)], fx.BDL, 1, 2)
        assert isinstance(found, PpFormula)
        spec = ImplicitOpSpec("found", fx.BDL, 1, len(found.bound_vars), found)
        for G in (fx.CHAIN2, fx.CHAIN3, fx.DIAMOND):
            assert induced_partial_op(G, spec).graph == induced_partial_op(G, fx.COMPL).graph

    def test_non_preserved_graph_not_found(self):
        targets = [(fx.CHAIN2_MS, lub_family(fx.CHAIN2_MS))]
        result = bounded_pp_definability_search(targets, fx.MSL, 1, 2)
        assert isinstance(result, NotFoundWithinBound)


class TestSpecValidation:
    def test_variable_convention_enforced(self):
        with pytest.raises(LogicError, match="bound variables"):
            ImplicitOpSpec(
                "bad", fx.BDL, 1, 1,
                PpFormula(("w",), fx.COMPL.formula.body),
            )

    def test_arity_at_least_one(self):
        with pytest.raises(LogicError, match="arity"):
            ImplicitOpSpec("bad", fx.BDL, 0, 0, fx.COMPL.formula)
