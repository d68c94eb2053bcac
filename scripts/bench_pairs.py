#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternating pairs.

Usage:

    python3 scripts/bench_pairs.py DIR_PARENT DIR_CHANGE --workload W \\
        [--pairs 10] [--seed 1]

Pair i runs the benchmark's command with `--workload W --seed S0+i --trace 0`
in each directory, the parent first in even pairs and the change first in
odd ones, so that a drift of the host's speed falls on both sides alike.
The command, the run length and the end-to-end metrics are read from
DIR_PARENT/BENCHMARK.json, as `bench/spread.py` reads them, so both sides
run as the benchmark runs them.  Give two exported trees (`git archive`):
each run writes its samples to the `.bench_out/` of its own directory, and
this script writes nothing.

It prints each pair's end-to-end metrics, and per metric each side's median
and quartiles, how many pairs the change won (a lower value), and whether
the change's gain is shown: it won at least 9 in 10 pairs, and the gap
between the medians is wider than the parent's interquartile range.  The
quartiles are those of `statistics.quantiles(values, n=4)`, as in
`bench/spread.py`.

Beside them it prints the raw wall time of a pass, unscaled by the
reference samples: per run, the median of the `run_s` samples that the run
kept in `.bench_out/result-<workload>-seed<N>-trace0.json`, and per side
the median and quartiles of those.  It is a diagnostic, not an end-to-end
metric: a scaled time that moves where the raw time does not, or the other
way round, points at the reference samples.
"""
from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys


def bench_run(spec: dict, root: pathlib.Path, workload: str, seed: int) -> dict:
    """The end-to-end metrics of one untraced run in `root`; a failed or
    incorrect run stops the comparison."""
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: {' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{root}: run of seed {seed} was not correct: {result}")
    return {m["name"]: result["metrics"][m["name"]]["value"] for m in spec["end_to_end"]}


def raw_run_s(root: pathlib.Path, workload: str, seed: int) -> float:
    """The median raw pass time of the untraced run of `seed` in `root`."""
    record = json.loads((root / ".bench_out" / f"result-{workload}-seed{seed}-trace0.json").read_text())
    return statistics.median(record["samples"]["run_s"])


def summary(parent: list[float], change: list[float]) -> dict:
    """Medians and quartiles of each side, the change's wins (lower values)
    over the pairs, and whether it shows a gain: at least 9 wins in 10 and a
    gap between the medians wider than the parent's interquartile range."""
    p1, p_med, p3 = statistics.quantiles(parent, n=4)
    c1, c_med, c3 = statistics.quantiles(change, n=4)
    wins = sum(c < p for p, c in zip(parent, change))
    gap = p_med - c_med
    return {
        "parent": (p1, p_med, p3),
        "change": (c1, c_med, c3),
        "wins": wins,
        "pairs": len(parent),
        "gap": gap,
        "parent_iqr": p3 - p1,
        "shown": 10 * wins >= 9 * len(parent) and gap > p3 - p1,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=pathlib.Path)
    ap.add_argument("change", type=pathlib.Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("quartiles need at least 2 pairs")
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in spec["end_to_end"]]

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            root = getattr(args, side)
            run = bench_run(spec, root, args.workload, seed)
            run["raw run_s"] = raw_run_s(root, args.workload, seed)
            runs[side].append(run)
        cells = "  ".join(
            f"{m} {runs['parent'][-1][m]:.5g} -> {runs['change'][-1][m]:.5g}"
            for m in (*metrics, "raw run_s")
        )
        print(f"pair {i + 1} (seed {seed}, {order[0]} first): {cells}", flush=True)

    for m in (*metrics, "raw run_s"):
        s = summary([r[m] for r in runs["parent"]], [r[m] for r in runs["change"]])
        (p1, p_med, p3), (c1, c_med, c3) = s["parent"], s["change"]
        line = (f"{m}: parent {p_med:.5g} [{p1:.5g}, {p3:.5g}]  change {c_med:.5g} [{c1:.5g}, {c3:.5g}]"
                f"  {(c_med - p_med) / p_med:+.1%}  lower in {s['wins']} of {s['pairs']}")
        if m in metrics:
            line += (f"  gap {s['gap']:.5g} vs parent IQR {s['parent_iqr']:.5g}"
                     f"  gain shown: {'yes' if s['shown'] else 'no'}")
        else:
            line += "  (diagnostic, not an end-to-end metric)"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
