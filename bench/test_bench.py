"""Tests of the benchmark's own code.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import itertools
import json
import pathlib
import subprocess
import sys

from spans import COUNTS, self_times
from worker import check_answers
from workloads import (
    ENUMERATE_B8,
    SUITE_B4,
    Command,
    Workload,
    distributive_lattice_errors,
    members,
    relabel_table,
    relabel_workspace,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
BDL = {"name": "BDL", "symbols": [["meet", 2], ["join", 2], ["bot", 0], ["top", 0]]}


def lattice(n: int, meet, join) -> dict:
    pairs = list(itertools.product(range(n), repeat=2))
    return {
        "signature": BDL,
        "size": n,
        "tables": {
            "meet": [meet(a, b) for a, b in pairs],
            "join": [join(a, b) for a, b in pairs],
            "bot": [0],
            "top": [n - 1],
        },
    }


def order_lattice(n: int, covers) -> dict:
    """The lattice of a finite bounded order given by its covering pairs."""
    leq = {(a, a) for a in range(n)} | set(covers)
    while True:
        more = {(a, d) for a, b in leq for c, d in leq if b == c} - leq
        if not more:
            break
        leq |= more

    def bound(a, b, below):
        common = [c for c in range(n) if ((c, a) in leq and (c, b) in leq if below
                                          else (a, c) in leq and (b, c) in leq)]
        return next(c for c in common if all(((d, c) if below else (c, d)) in leq for d in common))

    return lattice(n, lambda a, b: bound(a, b, True), lambda a, b: bound(a, b, False))


CHAIN4 = lattice(4, min, max)
DIAMOND = lattice(4, lambda a, b: a & b, lambda a, b: a | b)
PENTAGON = order_lattice(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])  # N5, not distributive


def enumerate_report(*algebras) -> dict:
    return {
        "summary": f"{len(algebras)}/{len(algebras)} hold",
        "instances": [
            {"name": f"m{i}", "verdict": "holds", "certificate": {"algebra": alg}}
            for i, alg in enumerate(algebras)
        ],
    }


def run_worker(workload: str, *flags: str) -> dict:
    ws = ROOT / SUITE_B4.workspace
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), "--workload", workload,
         "--workspace", str(ws), "--seed", "0", *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestChecker:
    def test_right_count_passes(self):
        assert members(2, 4, distributive_lattice_errors)(enumerate_report(CHAIN4, DIAMOND), {}) == []

    def test_wrong_count_is_flagged(self):
        check = members(2, 4, distributive_lattice_errors)
        assert check(enumerate_report(CHAIN4), {}) == ["1 classes, expected 2"]
        wrong = ENUMERATE_B8.commands[0].check(enumerate_report(CHAIN4), {})
        assert "1 classes, expected 15" in wrong

    def test_law_violation_is_flagged(self):
        errors = distributive_lattice_errors(PENTAGON)
        assert errors and all("distributivity" in e for e in errors)

    def test_wrong_exit_code_and_crash_fail_the_command(self):
        cmd = Command("dl-4", "enumerate", {"in": "DL", "size": 4}, 0,
                      members(2, 4, distributive_lattice_errors))
        w = Workload("w", (cmd, cmd, cmd))
        good = json.dumps(enumerate_report(CHAIN4, DIAMOND)).encode()
        failures = check_answers(w, [(0, good), (1, good), ("ValueError: boom", None)], {})
        assert failures == ["dl-4: exit 1, expected 0", "dl-4: ValueError: boom"]


class TestSelfTime:
    def test_self_time_is_duration_minus_children(self):
        spans = [
            ("a", 0.0, 10.0, -1),
            ("b", 1.0, 4.0, 0),
            ("c", 5.0, 7.0, 0),
            ("b", 2.0, 3.0, 1),
        ]
        assert self_times(spans) == {"a": 10.0 - 3.0 - 2.0, "b": (3.0 - 1.0) + 1.0, "c": 2.0}

    def test_overlapping_children_count_once(self):
        spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 5.0, 0), ("c", 4.0, 6.0, 0), ("d", 9.0, 12.0, 0)]
        assert self_times(spans)["a"] == 10.0 - (6.0 - 1.0) - (10.0 - 9.0)


class TestRelabel:
    def test_inverse_relabelling_restores_tables(self):
        perm = (2, 0, 3, 1)
        inverse = tuple(perm.index(i) for i in range(4))
        for sym in ("meet", "join"):
            nested = [DIAMOND["tables"][sym][r * 4:(r + 1) * 4] for r in range(4)]
            assert relabel_table(relabel_table(nested, perm), inverse) == nested
        assert relabel_table(3, perm) == 1
        assert relabel_table([1, 2, 3, 0], perm) == [3, 2, 0, 1]

    def test_same_seed_same_workspace(self):
        text = (ROOT / "bench" / "workspace.qvw").read_text()
        assert relabel_workspace(text, 5) == relabel_workspace(text, 5)
        assert relabel_workspace(text, 5)[0] != relabel_workspace(text, 6)[0]


class TestTracedPass:
    def test_traced_and_untraced_reports_are_identical(self):
        plain = run_worker("suite-b4")
        traced = run_worker("suite-b4", "--trace")
        assert plain["failures"] == traced["failures"] == []
        assert plain["digest"] == traced["digest"]

    def test_counts_repeat_exactly(self):
        first = run_worker("suite-b4", "--trace")["layers"]
        second = run_worker("suite-b4", "--trace")["layers"]
        assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
        assert first["parser.calls"] == 1 + len(SUITE_B4.commands)



def bench_result(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "suite-b4",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestResultLine:
    """The last line of a run holds exactly the metrics BENCHMARK.json lists."""

    def check(self, trace: int, section: str):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        result = bench_result(trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        listed = {m["name"]: m["unit"] for m in spec[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == listed

    def test_untraced_run_reports_end_to_end_metrics(self):
        self.check(0, "end_to_end")

    def test_traced_run_reports_per_layer_metrics(self):
        self.check(1, "per_layer")
