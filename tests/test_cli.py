import json
import os
import subprocess
import sys
import time
from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from qvbench import adjunction, beth, cli
from qvbench.core import FiniteAlgebra, Homomorphism, Signature, SignatureError
from qvbench.parser import ParseError, parse_workspace
from qvbench.cli import (
    Report,
    Verdict,
    emit_report,
    jsonable,
    load_workspace,
    main,
    parse_map,
    parse_pairs,
    parse_tuple,
    run,
)
from qvbench.quasivariety import CapExceeded

WS = "workspaces/fixtures.qvw"

# DL expanded by the class generated by a two-element "Boolean algebra" whose
# join is constantly top, so its lattice reduct is not in DL.
BAD_REDUCT_WORKSPACE = """
signature BDL { meet/2; join/2; bot/0; top/0 }
signature BA { meet/2; join/2; bot/0; top/0; not/1 }
algebra Chain2 : BDL {
  universe 2
  op meet = [[0,0],[0,1]]
  op join = [[0,1],[1,1]]
  op bot = 0
  op top = 1
}
algebra BadBA : BA {
  universe 2
  op meet = [[0,0],[0,1]]
  op join = [[1,1],[1,1]]
  op bot = 0
  op top = 1
  op not = [1,0]
}
quasivariety DL : BDL = generated(Chain2)
quasivariety BadQ : BA = generated(BadBA)
expansion DLtoBad := DL -> BadQ
"""

# Sets (one identity operation) expanded by a second identity operation,
# both generated by a 3-element algebra: the reflection of an n-element set
# has one factor per map into it, 3^n of them.
SETS_WORKSPACE = """
signature S { f/1 }
signature T { f/1; g/1 }
algebra ThreeS : S {
  universe 3
  op f = [0,1,2]
}
algebra Three : T {
  universe 3
  op f = [0,1,2]
  op g = [0,1,2]
}
quasivariety Sets : S = generated(ThreeS)
quasivariety TwoOps : T = generated(Three)
expansion SetsToTwoOps := Sets -> TwoOps
"""


# K = ISP(2, g(x,y) = y) -> M = ISP(2, g, f = NOR).  NOR is functionally
# complete, so the reflection of an n-element set is all 2^(2^n) elements
# of its product; the counit fails at the one-element member of M.
NOR_WORKSPACE = """
signature G { g/2 }
signature GF { g/2; f/2 }
algebra Two : G {
  universe 2
  op g = [[0,1],[0,1]]
}
algebra TwoNor : GF {
  universe 2
  op g = [[0,1],[0,1]]
  op f = [[1,0],[0,0]]
}
quasivariety K : G = generated(Two)
quasivariety M : GF = generated(TwoNor)
expansion KtoM := K -> M
"""


# K = ISP(2-cycle) -> M = ISP(3-cycle with the identity beside it): no map
# from a 2-cycle into a 3-cycle preserves u, so a member of K with two
# elements has no base homomorphism into M's generator.
CYCLE_WORKSPACE = """
signature U { u/1 }
signature V { u/1; v/1 }
algebra Swap : U {
  universe 2
  op u = [1,0]
}
algebra Cycle : V {
  universe 3
  op u = [1,2,0]
  op v = [0,1,2]
}
quasivariety K : U = generated(Swap)
quasivariety M : V = generated(Cycle)
expansion SwapToCycle := K -> M
"""


def _table_value(algebra: dict, sym: str, args) -> int:
    """A report algebra's table entry, row-major with the last argument
    varying fastest."""
    flat = 0
    for a in args:
        flat = flat * algebra["size"] + a
    return algebra["tables"][sym][flat]


def _registers(algebra: dict, inputs, steps) -> list:
    registers = list(inputs)
    for sym, *operands in steps:
        registers.append(_table_value(algebra, sym, [registers[r] for r in operands]))
    return registers


def replay_counit_collapse(cert: dict, base_symbols) -> list[str]:
    """Replay a `counit-not-iso` certificate from its JSON by table
    evaluation in B and G alone; the problems found, none when it holds."""
    B, G, h = cert["algebra"], cert["generator"], cert["hom"]
    t, u = cert["terms"]
    problems = []
    in_b = _registers(B, range(B["size"]), cert["steps"])
    if not in_b[t] == in_b[u] == cert["value"]:
        problems.append(f"values in B {in_b[t]}, {in_b[u]}, stated {cert['value']}")
    arities = dict(map(tuple, B["signature"]["symbols"]))
    if len(h) != B["size"] or not all(0 <= v < G["size"] for v in h):
        problems.append("h is not a map from B to G")
        return problems
    for sym in base_symbols:
        for args in iproduct(range(B["size"]), repeat=arities[sym]):
            if h[_table_value(B, sym, args)] != _table_value(G, sym, [h[a] for a in args]):
                problems.append(f"h does not preserve {sym} at {args}")
                break
    in_g = _registers(G, h, cert["steps"])
    if in_g[t] == in_g[u] or [in_g[t], in_g[u]] != cert["generator_values"]:
        problems.append(f"values in G {in_g[t]}, {in_g[u]}, stated {cert['generator_values']}")
    return problems


@st.composite
def report_algebras(draw, name):
    """An algebra of 1-20 elements with symbols of arities 0-3 and random
    tables."""
    n = draw(st.integers(1, 20))
    arities = draw(st.lists(st.integers(0, 3), max_size=3))
    signature = Signature("s", tuple((f"f{i}", k) for i, k in enumerate(arities)))
    rng = draw(st.randoms(use_true_random=False))
    tables = tuple(tuple(rng.randrange(n) for _ in range(n**k)) for k in arities)
    return FiniteAlgebra(name, signature, n, tables)


def _listed(value):
    """`value` with each tuple, such as a report's `Table`, made a list."""
    if isinstance(value, (list, tuple)):
        return [_listed(v) for v in value]
    if isinstance(value, dict):
        return {k: _listed(v) for k, v in value.items()}
    return value


@pytest.fixture(scope="module")
def ws():
    return load_workspace(WS)


WORKSPACE_TEXT = open(WS, encoding="utf-8").read()

# Algebras over the fixtures' signatures outside their classes: a 2-element
# "Boolean algebra" whose not is the identity, the 3-chain with the order
# reversal as not, and M3, the five-element lattice that is not distributive.
OUTSIDE_ALGEBRAS = """
algebra BAIdNot : BA {
  universe 2
  op meet = [[0,0],[0,1]]
  op join = [[0,1],[1,1]]
  op bot = 0
  op top = 1
  op not = [0,1]
}
algebra BAChain3 : BA {
  universe 3
  op meet = [[0,0,0],[0,1,1],[0,1,2]]
  op join = [[0,1,2],[1,1,2],[2,2,2]]
  op bot = 0
  op top = 2
  op not = [2,1,0]
}
algebra M3 : BDL {
  universe 5
  op meet = [[0,0,0,0,0],[0,1,0,0,1],[0,0,2,0,2],[0,0,0,3,3],[0,1,2,3,4]]
  op join = [[0,1,2,3,4],[1,1,4,4,4],[2,4,2,4,4],[3,4,4,3,4],[4,4,4,4,4]]
  op bot = 0
  op top = 4
}
"""


class TestFlagParsing:
    def test_pairs(self):
        assert parse_pairs("(0,2),(1,3)") == [(0, 2), (1, 3)]
        assert parse_pairs("(0, 2)") == [(0, 2)]

    def test_tuple(self):
        assert parse_tuple("(1)") == (1,)
        assert parse_tuple("(0,3)") == (0, 3)

    def test_map(self):
        assert parse_map("0:0,1:3") == {0: 0, 1: 3}
        with pytest.raises(ValueError, match="element 0 is given two images"):
            parse_map("0:3,0:0,1:3")
        with pytest.raises(ValueError, match="^'1:2:3' is not an entry a:b of integers$"):
            parse_map("0:0,1:2:3")

    def test_malformed_pairs_and_tuple(self):
        with pytest.raises(ValueError, match="^--pairs: '0,x' is not a pair a,b of integers$"):
            parse_pairs("(0,1),(0,x)")
        with pytest.raises(ValueError, match="^--tuple: '' is not an integer$"):
            parse_tuple("(1,,2)")


class TestCommands:
    def test_membership(self, ws):
        report, code = run("membership", ws, {"algebra": "Chain3", "in": "DL"})
        assert code == 0
        assert report.instances[0]["verdict"] == "holds"

    def test_cg_total(self, ws):
        report, code = run("cg", ws, {"algebra": "Chain3", "in": "DL", "pairs": "(0,2)"})
        assert code == 0
        cert = report.instances[0]["certificate"]
        assert cert["quotient-size"] == 1
        assert cert["partition"] == [0, 0, 0]

    def test_reflect_chain3(self, ws):
        report, code = run("reflect", ws, {"algebra": "Chain3", "expansion": "DLtoBOOL"})
        assert code == 0
        cert = report.instances[0]["certificate"]
        assert cert["reflected-size"] == 4
        assert cert["unit-injective"] is True

    def test_free(self, ws):
        report, code = run("free", ws, {"in": "DL", "generators": "x,y"})
        assert code == 0
        assert report.instances[0]["certificate"]["size"] == 6

    def test_expand_failure_exit_code(self, ws):
        report, code = run("expand", ws, {"algebra": "Chain3", "expansion": "DLcompl"})
        assert code == 1
        assert report.instances[0]["verdict"] == "fails"

    def test_expand_non_member_rejected(self):
        """`expand` checks its algebra at the command line, before
        `expand_algebra`: one outside the base class is bad input."""
        ws = parse_workspace(WORKSPACE_TEXT + OUTSIDE_ALGEBRAS)
        with pytest.raises(ValueError, match="^'M3' is not a member of 'DL'$"):
            run("expand", ws, {"algebra": "M3", "expansion": "DLcompl"})

    def test_unit_and_counit(self, ws):
        report, code = run("unit", ws, {"expansion": "DLtoBOOL", "max_size": 4})
        assert code == 0 and all(i["verdict"] == "holds" for i in report.instances)
        report, code = run("counit", ws, {"expansion": "MSLtoDL", "max_size": 4})
        assert code == 1
        bad = [i for i in report.instances if i["verdict"] == "fails"]
        assert len(bad) == 1 and bad[0]["certificate"]["reflected-size"] == 5

    def test_check_simple(self, ws):
        _, code = run("check-simple", ws, {"expansion": "DLcompl", "max_size": 4})
        assert code == 0
        _, code = run("check-simple", ws, {"expansion": "DLjc", "max_size": 4})
        assert code == 1

    def test_check_beth(self, ws):
        _, code = run("check-beth", ws, {"expansion": "DLcompl", "ops": "compl", "max_size": 4})
        assert code == 0

    def test_check_regular(self, ws):
        report, code = run(
            "check-regular", ws,
            {"in": "BOOL", "source": "TwoBA", "target": "FourBA", "map": "0:0,1:3",
             "ext_bound": 4},
        )
        assert code == 0
        assert "parallel-pair" in report.instances[0]["certificate"]

    def test_check_extendable_unknown_exit(self, ws):
        _, code = run(
            "check-extendable", ws,
            {"ppop": "compl", "in": "DL", "algebra": "Chain3", "tuple": "(1)", "ext_bound": 3},
        )
        assert code == 2

    def test_check_unique_witnesses(self, ws):
        _, code = run("check-unique-witnesses", ws, {"ppop": "compl", "in": "DL", "max_size": 4})
        assert code == 0
        _, code = run("check-unique-witnesses", ws, {"ppop": "complpad", "in": "DL", "max_size": 4})
        assert code == 1

    def test_term_equiv_with_transfer(self, ws):
        report, code = run(
            "term-equiv", ws,
            {"m1": "BOOL", "m2": "BIMPQ", "tau": "notToImp", "rho": "impToNot",
             "in": "DL", "max_size": 4, "transfer": True},
        )
        assert code == 0
        assert [i["name"] for i in report.instances] == ["BOOL~BIMPQ", "simplicity-transfer"]

    def test_term_equiv_transfer_decides_the_equivalence_once(self, ws, monkeypatch):
        calls = []
        original = beth.check_faithful_term_equivalence

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(cli, "check_faithful_term_equivalence", counted)
        monkeypatch.setattr(beth, "check_faithful_term_equivalence", counted)
        _, code = run(
            "term-equiv", ws,
            {"m1": "BOOL", "m2": "BIMPQ", "tau": "notToImp", "rho": "impToNot",
             "in": "DL", "max_size": 4, "transfer": True},
        )
        assert code == 0
        assert len(calls) == 1

    def test_cross_validate(self, ws):
        report, code = run(
            "cross-validate", ws,
            {"expansion": "DLtoBOOL", "pp_expansion": "DLcompl", "max_size": 4},
        )
        assert code == 0
        names = [i["name"] for i in report.instances]
        assert "consistency" in names

    def test_amalgamate(self, ws):
        report, code = run(
            "amalgamate", ws,
            {"in": "DL", "apex": "Chain2", "left": "Chain3", "right": "Chain3",
             "left_map": "0:0,1:2", "right_map": "0:0,1:2", "ext_bound": 4},
        )
        assert code == 0
        assert report.instances[0]["certificate"]["amalgam"]["size"] <= 4

    def test_enumerate(self, ws):
        report, code = run("enumerate", ws, {"in": "DL", "size": 4})
        assert code == 0
        assert len(report.instances) == 2


class TestReports:
    def test_json_reserializes_byte_identically(self, ws):
        report, _ = run("membership", ws, {"algebra": "Chain3", "in": "DL"})
        payload = emit_report(report, "json")
        parsed = json.loads(payload)
        again = (json.dumps(parsed, sort_keys=True, indent=2) + "\n").encode()
        assert payload == again

    @settings(max_examples=200, deadline=None)
    @given(value=st.recursive(
        st.none() | st.booleans() | st.integers() | st.text()
        | st.floats(allow_nan=False, allow_infinity=False),
        lambda inner: st.lists(inner) | st.lists(inner).map(tuple)
        | st.dictionaries(st.text(), inner) | st.dictionaries(st.integers(), inner),
        max_leaves=30,
    ))
    def test_emitter_matches_json_dumps(self, value):
        """The report emitter writes the bytes of `json.dumps` with sorted
        keys and an indent of 2 for JSON-native values: nested lists, tuples
        and dicts (string or integer keys) over None, bools, ints, floats
        and non-ASCII strings, with lists of plain ints among them."""
        assert cli._json(value, "\n") == json.dumps(value, sort_keys=True, indent=2)

    @pytest.mark.parametrize("value", [
        [], (), [0], [5], (0,), [True, False, 1], [1, True], [False],
        [-1, 0, 1], [0, -3], [0, 1, 3], [2, 2], [7], [0, 1, 2, 10**20],
        {"a": [[0, 1], [1, 0]], "b": [[], [0], [3, 4, 5]]},
    ])
    def test_emitter_int_lists(self, value):
        """Lists that are not `Table`s, such as maps, are scanned for their
        types: lists of plain ints, negative and large ones among them, are
        written per cell, and lists that hold bools element by element."""
        assert cli._json(value, "\n") == json.dumps(value, sort_keys=True, indent=2)

    @pytest.mark.parametrize("cells, size", [
        ((0,), 1), ((0, 0, 0), 1), ((1,), 2), ((0, 1, 1, 0), 2),
        ((9, 10, 0, 10), 11), ((99, 100, 5, 100), 101),
    ])
    def test_emitter_tables(self, cells, size):
        """A `Table` is written from the digit strings of range(size), with
        no scan: one-cell tables, whose lookup gives a bare string, cells at
        0 and at size - 1, and sizes where the digit count changes, alone
        and nested as an algebra's tables are."""
        table = cli.Table(cells, size)
        for value in (table, {"tables": [table, cli.Table(cells[:1], size)]}):
            assert cli._json(value, "\n") == json.dumps(value, sort_keys=True, indent=2)

    def test_emitter_large_table(self):
        """A 30,000-cell `Table` at depth 3, like an operation table in a
        report's instances, beside a plain list of its first cells, like a
        map."""
        cells = [(7 * i * i + 3 * i) % 173 for i in range(30_000)]
        value = {"instances": [{"f": cli.Table(cells, 173), "g": cells[:173]}]}
        assert cli._json(value, "\n") == json.dumps(value, sort_keys=True, indent=2)

    @settings(max_examples=100, deadline=None)
    @given(A=report_algebras("A"), B=report_algebras("B"), data=st.data())
    def test_emitter_tables_match_json_dumps(self, A, B, data):
        """An algebra's tables, written with no scan as `Table`s, and the
        maps beside them give the bytes of `json.dumps` of the same values
        with lists, in `_json` and in both report formats: an algebra, a
        homomorphism into a possibly larger one, and a reflection whose unit
        map is that homomorphism."""
        mapping = tuple(data.draw(st.lists(st.integers(0, B.size - 1), min_size=A.size,
                                           max_size=A.size)))
        h = Homomorphism(A, B, A.signature, mapping)
        reflection = adjunction.FreeExtension(B, h, 1, None)
        for value in (cli.algebra_json(A), jsonable(h), jsonable(reflection)):
            assert cli._json(value, "\n") == json.dumps(_listed(value), sort_keys=True, indent=2)
        instances = [{"name": "A", "verdict": "holds", "certificate": jsonable(h)},
                     {"name": "F(A)", "verdict": "holds", "certificate": jsonable(reflection)}]
        report = Report("check", {"max_size": 4}, instances, "summary")
        listed = Report("check", {"max_size": 4}, _listed(instances), "summary")
        payload = {"version": report.version, "check": "check", "params": {"max_size": 4},
                   "instances": _listed(instances), "summary": "summary",
                   "disclaimer": report.disclaimer}
        assert emit_report(report) == (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()
        assert emit_report(report, "text") == emit_report(listed, "text")

    def test_emitting_tables_scans_none(self, ws):
        """Writing the free DL report on 4 generators, 168 elements, calls
        `max` or `min` on none of its four tables: their range was checked
        when the algebra was built."""
        report, _ = run("free", ws, {"in": "DL", "generators": "w,x,y,z"})
        calls = []

        def profile(frame, event, arg):
            if event == "c_call" and arg in (max, min):
                calls.append(arg.__name__)

        sys.setprofile(profile)
        try:
            emit_report(report)
        finally:
            sys.setprofile(None)
        assert calls == []

    def test_report_schema_fields(self, ws):
        report, _ = run("enumerate", ws, {"in": "DL", "size": 2})
        parsed = json.loads(emit_report(report, "json"))
        assert set(parsed) == {"version", "check", "params", "instances", "summary", "disclaimer"}
        for inst in parsed["instances"]:
            assert "name" in inst and "verdict" in inst and "bound" in inst

    def test_no_floats_anywhere(self, ws):
        report, _ = run("cross-validate", ws, {"expansion": "MSLtoDL", "max_size": 4})
        def scan(x):
            assert not isinstance(x, float)
            if isinstance(x, dict):
                for v in x.values():
                    scan(v)
            if isinstance(x, list):
                for v in x:
                    scan(v)
        scan(json.loads(emit_report(report, "json")))

    def test_failing_verdict_carries_certificate(self, ws):
        report, code = run("check-simple", ws, {"expansion": "DLjc", "max_size": 4})
        assert code == 1
        assert "certificate" in report.instances[0]

    def test_text_format(self, ws):
        report, _ = run("membership", ws, {"algebra": "Chain3", "in": "DL"})
        text = emit_report(report, "text").decode()
        assert "membership" in text and "summary:" in text

    def test_identical_runs_identical_bytes(self, ws):
        r1, _ = run("cross-validate", ws, {"expansion": "DLtoBOOL", "max_size": 4})
        ws2 = load_workspace(WS)
        r2, _ = run("cross-validate", ws2, {"expansion": "DLtoBOOL", "max_size": 4})
        assert emit_report(r1) == emit_report(r2)

    def test_nested_verdict_reports_no_bound(self):
        """A verdict inside a certificate, such as the pair of a failing
        simplicity-transfer, gives its claim, status, certificate and notes;
        the bound it ranged over is its instance's."""
        pair = (Verdict("unit-mono-counit-iso", "holds"), Verdict("reduct-well-defined", "fails", 7, ("n",)))
        assert jsonable(Verdict("simplicity-transfer", "fails", pair)) == {
            "claim": "simplicity-transfer",
            "status": "fails",
            "certificate": [
                {"claim": "unit-mono-counit-iso", "status": "holds"},
                {"claim": "reduct-well-defined", "status": "fails", "certificate": 7, "notes": ["n"]},
            ],
        }


class TestMainEntry:
    def test_main_writes_report_file(self, tmp_path):
        out = tmp_path / "r.json"
        code = main([
            "membership", "--workspace", WS, "--algebra", "Chain3", "--in", "DL",
            "--report", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["check"] == "membership"

    def test_usage_error_exit_three(self, tmp_path):
        bad = tmp_path / "bad.qvw"
        bad.write_text("algebra A : NoSig { universe 1 op f = 0 }")
        code = main(["membership", "--workspace", str(bad), "--algebra", "A", "--in", "DL"])
        assert code == 3

    def test_unknown_object_exit_three(self):
        code = main(["membership", "--workspace", WS, "--algebra", "Nope", "--in", "DL"])
        assert code == 3

    def test_unknown_name_message(self, capsys):
        code = main(["free", "--workspace", WS, "--in", "NOPE", "--generators", "x"])
        assert code == 3
        assert capsys.readouterr().err == "error: no quasivariety named 'NOPE'\n"

    def test_key_error_is_a_crash(self, monkeypatch, capsys):
        """Unknown names raise their own error, so a KeyError is a bug."""
        def crash(ws, flags):
            return {}["missing"]

        monkeypatch.setitem(cli.COMMANDS, "membership", (*cli.COMMANDS["membership"][:2], crash))
        code = main(["membership", "--workspace", WS, "--algebra", "Chain3", "--in", "DL"])
        assert code == 4
        assert "KeyError: 'missing'" in capsys.readouterr().err

    @pytest.mark.parametrize("error", [
        ParseError("bad token", 1, 2), beth.PreconditionError("not an embedding"),
        CapExceeded(16, 3), SignatureError("bad symbol"), OSError("no file"),
    ], ids=["parse", "precondition", "cap", "signature", "os"])
    def test_library_errors_exit_three(self, error, monkeypatch, capsys):
        """Every `ValueError` a handler raises, the package's own error
        classes included, and every `OSError` is a usage error: exit 3 with
        its message."""
        def fail(ws, flags):
            raise error

        monkeypatch.setitem(cli.COMMANDS, "membership", (*cli.COMMANDS["membership"][:2], fail))
        code = main(["membership", "--workspace", WS, "--algebra", "Chain3", "--in", "DL"])
        assert code == 3
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_element_out_of_range_exit_three(self, capsys):
        code = main([
            "cg", "--workspace", WS, "--algebra", "Chain3", "--in", "DL", "--pairs", "(0,9)",
        ])
        assert code == 3
        assert "no element 9" in capsys.readouterr().err

    def test_tuple_out_of_range_or_wrong_arity_exit_three(self, capsys):
        base = ["check-extendable", "--workspace", WS, "--ppop", "compl", "--in", "DL",
                "--algebra", "Chain3", "--tuple"]
        assert main(base + ["(7)"]) == 3
        assert "no element 7" in capsys.readouterr().err
        assert main(base + ["(0,1)"]) == 3
        assert "arity 1" in capsys.readouterr().err

    def test_check_regular_map_key_out_of_range_exit_three(self, capsys):
        code = main([
            "check-regular", "--workspace", WS, "--in", "BOOL", "--source", "TwoBA",
            "--target", "FourBA", "--map", "0:0,1:3,7:1",
        ])
        assert code == 3
        assert "--map: TwoBA has no element 7" in capsys.readouterr().err
        code = main([
            "check-regular", "--workspace", WS, "--in", "BOOL", "--source", "TwoBA",
            "--target", "FourBA", "--map", "0:0",
        ])
        assert code == 3
        assert "--map: no image given for element 1 of TwoBA" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["cg", "--algebra", "Chain3", "--in", "DL", "--pairs", "(0"],
         "--pairs: '0' is not a pair a,b of integers"),
        (["cg", "--algebra", "Chain3", "--in", "DL", "--pairs", "(0,1,2)"],
         "--pairs: '0,1,2' is not a pair a,b of integers"),
        (["check-extendable", "--ppop", "compl", "--in", "DL", "--algebra", "Chain3",
          "--tuple", "(a)"],
         "--tuple: 'a' is not an integer"),
        (["check-regular", "--in", "BOOL", "--source", "TwoBA", "--target", "FourBA",
          "--map", "0:0,1"],
         "--map: '1' is not an entry a:b of integers"),
    ], ids=["pairs-unclosed", "pairs-triple", "tuple-letter", "map-no-colon"])
    def test_malformed_flag_value_exit_three(self, argv, message, capsys):
        """A malformed value is a usage error whose message names the flag
        and the malformed part, not the Python error that found it."""
        assert main(argv[:1] + ["--workspace", WS] + argv[1:]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_map_repeated_element_exit_three(self, capsys):
        """A map that gives one element two images is a usage error, not a
        check of whichever image came last."""
        code = main([
            "check-regular", "--workspace", WS, "--in", "BOOL", "--source", "TwoBA",
            "--target", "FourBA", "--map", "0:3,0:0,1:3", "--ext-bound", "4",
        ])
        assert code == 3
        assert "--map: element 0 is given two images" in capsys.readouterr().err
        code = main([
            "amalgamate", "--workspace", WS, "--in", "DL", "--apex", "Chain2",
            "--left", "Chain3", "--right", "Chain3", "--left-map", "0:0,1:2,1:1",
            "--right-map", "0:0,1:2",
        ])
        assert code == 3
        assert "--left-map: element 1 is given two images" in capsys.readouterr().err

    def test_amalgamate_map_key_out_of_range_exit_three(self, capsys):
        code = main([
            "amalgamate", "--workspace", WS, "--in", "DL", "--apex", "Chain2",
            "--left", "Chain3", "--right", "Chain3", "--left-map", "0:0,1:2",
            "--right-map", "0:0,1:2,5:1",
        ])
        assert code == 3
        assert "--right-map: Chain2 has no element 5" in capsys.readouterr().err

    def test_max_size_below_one_exit_three(self, capsys):
        code = main(["unit", "--workspace", WS, "--expansion", "DLtoBOOL", "--max-size", "0"])
        assert code == 3
        assert "argument --max-size: must be an integer of at least 1" in capsys.readouterr().err
        code = main([
            "check-regular", "--workspace", WS, "--in", "BOOL", "--source", "TwoBA",
            "--target", "FourBA", "--map", "0:0,1:3", "--ext-bound", "-3",
        ])
        assert code == 3
        assert "argument --ext-bound: must be an integer of at least 1" in capsys.readouterr().err

    def test_enumerate_size_below_one_exit_three(self, capsys):
        code = main(["enumerate", "--workspace", WS, "--in", "DL", "--size", "0"])
        assert code == 3
        assert "argument --size: must be an integer of at least 1" in capsys.readouterr().err

    def test_product_cap_only_for_free_and_reflect(self, ws, capsys):
        """Only `free` and `reflect` build a product under the cap, so only
        they report it; a product over the cap is a usage error.  The
        refusal by other commands is `TestBoundTable`'s."""
        code = main(["free", "--workspace", WS, "--in", "DL", "--generators", "x,y",
                     "--product-cap", "16"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["params"]["product-cap"] == 16
        code = main(["reflect", "--workspace", WS, "--algebra", "Chain3",
                     "--expansion", "DLtoBOOL", "--product-cap", "3"])
        assert code == 3
        assert "product of size 4 exceeds cap 3" in capsys.readouterr().err
        report, _ = run("reflect", ws, {"algebra": "Chain3", "expansion": "DLtoBOOL"})
        assert report.params["product-cap"] == 10**6
        report, _ = run("unit", ws, {"expansion": "DLtoBOOL"})
        assert "product-cap" not in report.params

    def test_enumerate_conflicting_bounds_exit_three(self, capsys):
        """`enumerate` lists the members of exactly --size; a second bound
        is a usage error, not a report of either one."""
        code = main(["enumerate", "--workspace", WS, "--in", "DL", "--size", "3", "--max-size", "8"])
        assert code == 3
        assert "unrecognized arguments: --max-size 8" in capsys.readouterr().err

    def test_enumerate_conflicting_bounds_rejected_in_process(self, ws):
        with pytest.raises(ValueError, match="argument --max-size: enumerate takes --size"):
            run("enumerate", ws, {"in": "DL", "size": 3, "max_size": 8})

    @pytest.mark.parametrize("given, size", [
        ([], 4),
        (["--size", "3"], 3),
        (["--size=3"], 3),
    ])
    def test_enumerate_one_bound_reports_as_before(self, capsys, given, size):
        """`enumerate` echoes only its size, default 4, and lists the same
        members as before: DL has 1 class of size 3 and 2 of size 4
        (OEIS A006982)."""
        code = main(["enumerate", "--workspace", WS, "--in", "DL", *given])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["params"] == {"quasivariety": "DL", "size": size}
        assert [i["bound"] for i in report["instances"]] == [size] * {3: 1, 4: 2}[size]

    def test_in_process_bounds_below_one_rejected(self, ws):
        """`run` is the entry the fixture suite and the benchmark call, so it
        checks the bounds itself: a bound of 0 admits no member, and a
        verdict over no member is vacuous."""
        for command, flags in [
            ("check-simple", {"expansion": "DLcompl", "max_size": 0}),
            ("unit", {"expansion": "DLtoBOOL", "max_size": 0}),
        ]:
            with pytest.raises(
                ValueError, match="argument --max-size: must be an integer of at least 1, got '0'"
            ):
                run(command, ws, flags)
        with pytest.raises(ValueError, match="argument --size: must be an integer of at least 1"):
            run("enumerate", ws, {"in": "DL", "size": -1})

    def test_cross_validate_ill_defined_reduct(self, tmp_path):
        """An expansion whose generator's reduct is not a lattice: the
        categorical checks fail on the reduct and the report is not
        consistent."""
        workspace = tmp_path / "bad.qvw"
        workspace.write_text(BAD_REDUCT_WORKSPACE)
        report = tmp_path / "r.json"
        code = main([
            "cross-validate", "--workspace", str(workspace), "--expansion", "DLtoBad",
            "--max-size", "2", "--report", str(report),
        ])
        assert code == 1
        verdicts = {i["name"]: i for i in json.loads(report.read_text())["instances"]}
        for name in ("unit-mono-counit-iso", "mono-reflective"):
            assert verdicts[name]["verdict"] == "fails"
            assert "reduct-well-defined" in verdicts[name]["notes"][0]
            assert verdicts[name]["certificate"]["certificate"]["inseparable"] == [0, 1]
        assert verdicts["consistency"]["verdict"] == "fails"

    @pytest.mark.parametrize("workspace, argv, verdicts", [
        (BAD_REDUCT_WORKSPACE, ["--expansion", "DLtoBad", "--max-size", "2"],
         {"BadQ/n1#0": "holds", "BadQ/n2#1": "fails"}),
        (CYCLE_WORKSPACE, ["--expansion", "SwapToCycle", "--algebra", "Cycle"], {"Cycle": "fails"}),
    ], ids=["sweep", "algebra"])
    def test_counit_ill_defined_reduct(self, tmp_path, workspace, argv, verdicts):
        """A member of the expanded class whose reduct is outside the base
        class has no counit: its instance is the `reduct-well-defined`
        failure, with the member and its failed membership as certificate
        (exit 1), where the reflection of that reduct had refused it as a
        non-member (exit 3)."""
        path = tmp_path / "ws.qvw"
        path.write_text(workspace)
        report = tmp_path / "r.json"
        assert main(["counit", "--workspace", str(path), *argv, "--report", str(report)]) == 1
        instances = json.loads(report.read_text())["instances"]
        assert {i["name"]: i["verdict"] for i in instances} == verdicts
        failed = instances[-1]
        assert "reduct-well-defined" in failed["notes"][0]
        assert failed["certificate"]["algebra"]["name"] == failed["name"]
        assert failed["certificate"]["certificate"]["inseparable"] == [0, 1]

    def test_cap_hit_is_unknown_within_bound(self, tmp_path, capsys):
        """A member whose reflection needs a product over the cap leaves its
        instance unknown within the bound (exit 2) in counit, which builds
        every reflection; `reflect`, whose cap is a flag, still refuses it
        as a usage error (exit 3).  Every map of an n-set into the 3-element
        generator is a homomorphism, so the product has 3^(3^n) elements:
        19,683 for n = 2, over 10^6 from n = 3.  `unit` builds no product:
        those maps separate the points of every set, so each unit holds.
        `cross-validate` takes no cap: its counit generations stop after
        |B| + 1 elements, and the identity operations generate nothing past
        the seeds, so every verdict holds."""
        workspace = tmp_path / "sets.qvw"
        workspace.write_text(SETS_WORKSPACE)
        report = tmp_path / "unit.json"
        code = main(["unit", "--workspace", str(workspace), "--expansion", "SetsToTwoOps",
                     "--report", str(report)])
        assert code == 0
        instances = json.loads(report.read_text())["instances"]
        assert [(i["verdict"], "certificate" in i) for i in instances] == [("holds", False)] * 4
        report = tmp_path / "cross.json"
        code = main(["cross-validate", "--workspace", str(workspace), "--expansion", "SetsToTwoOps",
                     "--report", str(report)])
        assert code == 0
        instances = json.loads(report.read_text())["instances"]
        assert [(i["name"], i["verdict"]) for i in instances] == [
            ("unit-mono-counit-iso", "holds"), ("mono-reflective", "holds"), ("consistency", "holds"),
        ]
        big = {2: 19_683, 3: 3**27, 4: 3**81}
        for args in (["counit"], ["counit", "--algebra", "Three"]):
            report = tmp_path / "r.json"
            code = main([*args, "--workspace", str(workspace), "--expansion", "SetsToTwoOps",
                         "--report", str(report)])
            assert code == 2, args
            instances = json.loads(report.read_text())["instances"]
            # One member per size, in order; --algebra names the 3-element one.
            sizes = [3] if "--algebra" in args else [1, 2, 3, 4]
            assert len(instances) == len(sizes)
            for size, inst in zip(sizes, instances):
                if size <= 2:
                    assert inst["verdict"] == "holds"
                else:
                    assert inst["verdict"] == "unknown-within-bound"
                    assert inst["certificate"] == {"product-cap": 10**6, "product-size": big[size]}
        code = main(["reflect", "--workspace", str(workspace), "--algebra", "ThreeS",
                     "--expansion", "SetsToTwoOps"])
        assert code == 3
        assert f"product of size {3**27} exceeds cap 1000000" in capsys.readouterr().err

    def test_nor_pair_decided_at_bound_four(self, tmp_path):
        """Building the reflection of the 4-element set would take all
        65,536 elements of a 16-factor product; the verdict needs none."""
        workspace = tmp_path / "nor.qvw"
        workspace.write_text(NOR_WORKSPACE)
        report = tmp_path / "r.json"
        start = time.perf_counter()
        code = main(["cross-validate", "--workspace", str(workspace), "--expansion", "KtoM",
                     "--max-size", "4", "--report", str(report)])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert json.loads(report.read_text())["summary"] == "1/3 hold"

    def test_nor_pair_units_decided_at_bound_four(self, tmp_path, monkeypatch):
        """`unit` decides each member from its seeds and generates nothing:
        the reflection of the 4-element set alone would be all 65,536
        elements of a 16-factor product."""
        def no_generation(*args, **kwargs):
            raise AssertionError("the unit command generated a reflection")

        monkeypatch.setattr(adjunction, "generate_in_product", no_generation)
        workspace = tmp_path / "nor.qvw"
        workspace.write_text(NOR_WORKSPACE)
        report = tmp_path / "r.json"
        start = time.perf_counter()
        code = main(["unit", "--workspace", str(workspace), "--expansion", "KtoM",
                     "--max-size", "4", "--report", str(report)])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert json.loads(report.read_text())["summary"] == "4/4 hold"

    def test_failing_unit_names_two_elements_with_one_seed(self, tmp_path):
        """A failing unit's certificate is the pair `unit_collapse` returns:
        no member of K = ISP(2-cycle) maps into the reduct of a 3-cycle, so
        both elements of the 2-element member have the empty seed."""
        workspace = tmp_path / "cycle.qvw"
        workspace.write_text(CYCLE_WORKSPACE)
        report = tmp_path / "r.json"
        code = main(["unit", "--workspace", str(workspace), "--expansion", "SwapToCycle",
                     "--max-size", "2", "--report", str(report)])
        assert code == 1
        instances = json.loads(report.read_text())["instances"]
        assert [i["verdict"] for i in instances] == ["holds", "fails"]
        assert "certificate" not in instances[0]
        assert instances[1]["certificate"] == {"same-seed": [0, 1]}

    @pytest.mark.parametrize("workspace, expansion, base_symbols", [
        (None, "MSLtoDL", ["meet", "bot", "top"]),
        (NOR_WORKSPACE, "KtoM", ["g"]),
    ], ids=["msl-dl", "nor"])
    def test_counit_certificate_replays(self, tmp_path, workspace, expansion, base_symbols):
        """The `counit-not-iso` certificate of cross-validate replays by
        table evaluation in B and G; changing its value, h or one step of
        its program breaks the replay."""
        path = WS
        if workspace is not None:
            path = tmp_path / "ws.qvw"
            path.write_text(workspace)
        report = tmp_path / "r.json"
        code = main(["cross-validate", "--workspace", str(path), "--expansion", expansion,
                     "--max-size", "4", "--report", str(report)])
        assert code == 1
        verdicts = {i["name"]: i for i in json.loads(report.read_text())["instances"]}
        kind, cert = verdicts["unit-mono-counit-iso"]["certificate"]
        assert kind == "counit-not-iso"
        assert replay_counit_collapse(cert, base_symbols) == []
        assert cert["terms"][0] != cert["terms"][1]

        arities = dict(map(tuple, cert["algebra"]["signature"]["symbols"]))
        last = cert["steps"][-1]
        other = next(s for s, k in arities.items() if k == arities[last[0]] and s != last[0])
        h = list(cert["hom"])
        h[0] = (h[0] + 1) % cert["generator"]["size"]
        for mutated in (
            {**cert, "value": cert["value"] + 1},
            {**cert, "hom": h},
            {**cert, "steps": cert["steps"][:-1] + [[other, *last[1:]]]},
        ):
            assert replay_counit_collapse(mutated, base_symbols) != []

    @pytest.mark.parametrize("argv, algebra, quasivariety", [
        (["counit", "--expansion", "DLtoBOOL", "--algebra", "BAIdNot"], "BAIdNot", "BOOL"),
        (["counit", "--expansion", "DLtoBOOL", "--algebra", "BAChain3"], "BAChain3", "BOOL"),
        (["check-regular", "--in", "BOOL", "--source", "TwoBA", "--target", "BAChain3",
          "--map", "0:0,1:2"], "BAChain3", "BOOL"),
        (["check-extendable", "--ppop", "compl", "--in", "DL", "--algebra", "M3", "--tuple", "(1)"],
         "M3", "DL"),
        (["amalgamate", "--in", "DL", "--apex", "Chain2", "--left", "M3", "--right", "Chain3",
          "--left-map", "0:0,1:4", "--right-map", "0:0,1:2"], "M3", "DL"),
        (["amalgamate", "--in", "DL", "--apex", "Chain2", "--left", "Chain3", "--right", "M3",
          "--left-map", "0:0,1:2", "--right-map", "0:0,1:4"], "M3", "DL"),
    ], ids=["counit-not-identity", "counit-chain", "check-regular", "check-extendable",
            "amalgamate-left", "amalgamate-right"])
    def test_algebra_outside_the_class_exit_three(self, tmp_path, capsys, argv, algebra, quasivariety):
        """An algebra outside the command's class is bad input, as in expand
        and reflect: K is closed under subalgebras, so no bound can make it
        embed in a member.  `counit --algebra` checks against the expanded
        class, where generator chasing had failed an assertion (exit 4), and
        the other three had reported unknown-within-bound (exit 2)."""
        workspace = tmp_path / "outside.qvw"
        workspace.write_text(WORKSPACE_TEXT + OUTSIDE_ALGEBRAS)
        assert main(argv[:1] + ["--workspace", str(workspace)] + argv[1:]) == 3
        assert capsys.readouterr().err == f"error: {algebra!r} is not a member of {quasivariety!r}\n"

    def test_crash_exit_four(self, monkeypatch, capsys):
        def crash(ws, flags):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli.COMMANDS, "membership", (*cli.COMMANDS["membership"][:2], crash))
        code = main(["membership", "--workspace", WS, "--algebra", "Chain3", "--in", "DL"])
        assert code == 4
        assert "RuntimeError: boom" in capsys.readouterr().err

    def test_subprocess_runs(self):
        # The child finds the package in src/ whatever PYTHONPATH the caller set.
        path = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "qvbench.cli", "enumerate", "--workspace", WS,
             "--in", "DL", "--size", "3"],
            capture_output=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["summary"] == "1/1 hold"


# The one bound each command honours, as it is echoed in params, with its
# default; None for a command that takes none.
DECLARED_BOUND = {
    **dict.fromkeys(("unit", "counit", "check-simple", "check-beth", "check-unique-witnesses",
                     "term-equiv", "cross-validate"), ("max-size", 4)),
    **dict.fromkeys(("check-regular", "check-extendable", "amalgamate"), ("ext-bound", 6)),
    "enumerate": ("size", 4),
    "free": ("product-cap", 10**6),
    "reflect": ("product-cap", 10**6),
    **dict.fromkeys(("membership", "cg", "expand"), None),
}

# Flags that make each command run quickly at its default bound.
COMMAND_FLAGS = {
    "membership": {"algebra": "Chain3", "in": "DL"},
    "cg": {"algebra": "Chain3", "in": "DL", "pairs": "(1,2)"},
    "free": {"in": "DL", "generators": "x,y"},
    "expand": {"algebra": "Diamond", "expansion": "DLcompl"},
    "reflect": {"algebra": "Chain3", "expansion": "DLtoBOOL"},
    "unit": {"expansion": "DLtoBOOL"},
    "counit": {"expansion": "DLtoBOOL"},
    "check-simple": {"expansion": "DLcompl"},
    "check-beth": {"expansion": "DLcompl", "ops": "compl"},
    "check-regular": {"in": "BOOL", "source": "TwoBA", "target": "FourBA", "map": "0:0,1:3"},
    "check-extendable": {"ppop": "compl", "in": "DL", "algebra": "Chain3", "tuple": "(1)"},
    "check-unique-witnesses": {"ppop": "compl", "in": "DL"},
    "term-equiv": {"m1": "BOOL", "m2": "BIMPQ", "tau": "notToImp", "rho": "impToNot", "in": "DL"},
    "cross-validate": {"expansion": "DLtriv"},
    "amalgamate": {"in": "DL", "apex": "Chain2", "left": "Chain3", "right": "Chain3",
                   "left_map": "0:0,1:2", "right_map": "0:0,1:2"},
    "enumerate": {"in": "DL"},
}

BOUND_FLAGS = ("max-size", "ext-bound", "size", "product-cap")


class TestBoundTable:
    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_one_declared_bound(self, ws, capsys, command):
        """params echo exactly the command's own bound at its default, or no
        bound; every other bound flag is refused in process and on the
        command line."""
        flags = COMMAND_FLAGS[command]
        report, _ = run(command, ws, dict(flags))
        echoed = {k: v for k, v in report.params.items() if k in BOUND_FLAGS}
        declared = DECLARED_BOUND[command]
        assert echoed == ({} if declared is None else dict([declared]))
        argv = [command, "--workspace", WS]
        for key, value in flags.items():
            argv += ["--" + key.replace("_", "-"), value]
        for flag in BOUND_FLAGS:
            if declared is not None and flag == declared[0]:
                continue
            with pytest.raises(ValueError, match=f"argument --{flag}: {command} takes"):
                run(command, ws, {**flags, flag.replace("-", "_"): 3})
            assert main(argv + [f"--{flag}", "3"]) == 3
            assert f"unrecognized arguments: --{flag} 3" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_counit_of_one_algebra_echoes_no_bound(self, tmp_path, fmt):
        """`counit --algebra` decides one given member, and its instance has
        no bound, so its params echo none, with --max-size or without, in
        either format; the sweep over the members echoes the bound that its
        instances carry."""
        base = ["counit", "--workspace", WS, "--expansion", "DLtoBOOL", "--format", fmt]
        for extra, bound in (
            (["--algebra", "FourBA"], None),
            (["--algebra", "FourBA", "--max-size", "3"], None),
            ([], 4),
            (["--max-size", "3"], 3),
        ):
            path = tmp_path / f"report.{fmt}"
            assert main([*base, *extra, "--report", str(path)]) == 0
            text = path.read_text()
            if fmt == "json":
                report = json.loads(text)
                assert report["params"] == {"expansion": "DLtoBOOL"} | (
                    {} if bound is None else {"max-size": bound}
                )
                assert {i["bound"] for i in report["instances"]} == {bound}
            else:
                params = [line for line in text.splitlines() if " = " in line]
                assert params == ["  expansion = DLtoBOOL"] + (
                    [] if bound is None else [f"  max-size = {bound}"]
                )
