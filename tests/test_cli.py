import json
import subprocess
import sys

import pytest

from qvbench import cli
from qvbench.cli import (
    Report,
    emit_report,
    load_workspace,
    main,
    parse_map,
    parse_pairs,
    parse_tuple,
    run,
)

WS = "workspaces/fixtures.qvw"


@pytest.fixture(scope="module")
def ws():
    return load_workspace(WS)


class TestFlagParsing:
    def test_pairs(self):
        assert parse_pairs("(0,2),(1,3)") == [(0, 2), (1, 3)]
        assert parse_pairs("(0, 2)") == [(0, 2)]

    def test_tuple(self):
        assert parse_tuple("(1)") == (1,)
        assert parse_tuple("(0,3)") == (0, 3)

    def test_map(self):
        assert parse_map("0:0,1:3") == {0: 0, 1: 3}


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
        code = main(["unit", "--workspace", WS, "--expansion", "DLtoBOOL", "--ext-bound", "-3"])
        assert code == 3
        assert "argument --ext-bound: must be an integer of at least 1" in capsys.readouterr().err

    def test_enumerate_size_below_one_exit_three(self, capsys):
        code = main(["enumerate", "--workspace", WS, "--in", "DL", "--size", "0"])
        assert code == 3
        assert "argument --size: must be an integer of at least 1" in capsys.readouterr().err

    def test_crash_exit_four(self, monkeypatch, capsys):
        def crash(ws, flags):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._HANDLERS, "membership", crash)
        code = main(["membership", "--workspace", WS, "--algebra", "Chain3", "--in", "DL"])
        assert code == 4
        assert "RuntimeError: boom" in capsys.readouterr().err

    def test_subprocess_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qvbench.cli", "enumerate", "--workspace", WS,
             "--in", "DL", "--size", "3"],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["summary"] == "1/1 hold"
