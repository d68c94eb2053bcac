#!/usr/bin/env python3
"""Run the benchmark several times per workload, with seeds 1 to N, and
report for every end-to-end metric its median and the distance between the
first and third quartile as a share of the median.

Usage, from the root of a checkout:

    python3 bench/spread.py [--runs 10] [--workload NAME ...] [--baseline PATH]

With --baseline, also makes one traced run per workload and writes the
medians, spreads, the trace and the environment to PATH.
"""
from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def bench_run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["environment"] = json.loads(lines[0].split(":", 1)[1])
    record = ROOT / ".bench_out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    result["samples"] = json.loads(record.read_text())["samples"]
    return result


def spread(values: list) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--baseline")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    baseline = {}
    for w in workloads:
        runs = [bench_run(spec, w, seed, 0) for seed in range(1, args.runs + 1)]
        entry = {"runs": len(runs), "correct": all(r["correct"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "metrics": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values)
            entry["metrics"][name] = {"median": statistics.median(values), "spread": s,
                                      "values": values}
            flag = "ok" if s < bound / 3 else "WIDE"
            print(f"{w:14} {name:12} median {statistics.median(values):10.5g} "
                  f"spread {s:6.3f} (bound {bound}) {flag}", flush=True)
        # The pass time unscaled, and scaled by the samples outside the pass
        # alone, for comparison with run_scaled_s.
        for name in ("run_s", "run_bracketed_s"):
            values = [statistics.median(r["samples"][name]) for r in runs]
            entry["metrics"][name] = {"median": statistics.median(values), "spread": spread(values),
                                      "values": values}
            print(f"{w:14} {name:12} median {statistics.median(values):10.5g} "
                  f"spread {spread(values):6.3f}", flush=True)
        if args.baseline:
            traced = bench_run(spec, w, 1, 1)
            entry["trace"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["trace_correct"] = traced["correct"]
            entry["environment"] = traced["environment"]
        baseline[w] = entry
    if args.baseline:
        pathlib.Path(args.baseline).write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
