#!/usr/bin/env python3
"""The qvbench benchmark: time to verdict of CLI workloads, end to end, and
per-layer self time and work counts from a separate traced run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load is a closed loop with one client: one process runs one command at a
time.  Each pass over a workload's command list runs in a fresh interpreter
(bench/worker.py).  With --trace 0 the run spawns one unmeasured set-up,
then runs passes, each after a set-up-only spawn, until the next one would
end after S seconds, measures set-up alone in the time left, and reports
medians of

    run_scaled_s  wall time of one pass, after set-up, at a reference host
                  speed: the worker times a fixed piece of pure-Python work,
                  which uses no qvbench code, 3 times just after set-up,
                  every 0.1 s of CPU time during the pass and 3 times after
                  it, and multiplies the pass's time by REFERENCE_S over the
                  mean sample time
    setup_s       spawn of the interpreter until qvbench is imported and the
                  workspace parsed, at the reference speed of the 3 samples
                  taken just after it
    peak_rss_mb   peak resident memory of the pass process

The raw wall times, every reference sample with its phase and the pass time
scaled by the samples outside the pass alone (run_bracketed_s) are printed or
kept with the samples.  On a shared host the interpreter's speed drifts by a
third within seconds, which moves raw times of every workload together; the
scaled time cancels that.

With --trace 1 it alternates untraced and traced passes and reports each
layer's self time, the unattributed remainder, the work counts and the
tracing overhead: traced minus untraced run_scaled_s.  The tracer's clock
leaves out the time of the reference samples, so none lands in a layer's
span, and layer self times are scaled like the pass's time.  Every
pass checks its answers against references that do not come from qvbench; a
command that crashes, exits 3 or higher, exceeds its time limit or gives a
wrong answer counts as failed.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Raw samples, the environment and, for traced runs, the
aggregated span tree go to .bench_out/.
"""
from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

from workloads import BENCH_WORKSPACE, WORKLOADS, relabel_workspace  # noqa: E402

HARD_LIMIT_S = 165    # every pass ends by then; the run must end within 180 s


def environment() -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref[5:]
    return {
        "commit": commit,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


class Runner:
    """Spawns worker processes for one workload and collects their samples."""

    def __init__(self, workload: str, seed: int, workspace: pathlib.Path, start: float):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.workspace = workspace
        self.hard_deadline = start + HARD_LIMIT_S
        self.attempted = 0
        self.failed = 0  # commands
        self.failures: list[str] = []  # messages, about commands or whole passes
        self.digests: set[str] = set()
        self.timed_out = False

    def spawn(self, *flags: str) -> tuple[float, dict | None]:
        """Run one worker; returns (spawn time, its JSON result or None)."""
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload.name,
               "--workspace", str(self.workspace), "--seed", str(self.seed), *flags]
        # A fixed string-hash seed keeps set and dict orders, and so the work
        # counts, the same in every pass.
        env = dict(os.environ, PYTHONHASHSEED="0")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=max(1.0, self.hard_deadline - spawned))
        except subprocess.TimeoutExpired:
            self.timed_out = True
            return spawned, None
        if proc.returncode != 0:
            self.failures.append(f"worker exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
            return spawned, None
        return spawned, json.loads(proc.stdout.strip().splitlines()[-1])

    @staticmethod
    def set_up_times(spawned: float, res: dict) -> dict:
        # Set-up at the reference speed, from the samples taken just after it.
        res["setup_raw_s"] = res["setup_done"] - spawned
        res["setup_s"] = res["setup_raw_s"] * res["setup_scale"]
        return res

    def setup(self) -> dict | None:
        spawned, res = self.spawn("--setup-only")
        return None if res is None else self.set_up_times(spawned, res)

    def run_pass(self, trace: bool) -> dict | None:
        spawned, res = self.spawn(*(["--trace"] if trace else []))
        n = len(self.workload.commands)
        self.attempted += n
        if res is None:
            self.failed += n
            return None
        self.failed += len(res["failures"])
        self.failures.extend(res["failures"])
        self.digests.add(res["digest"])
        return self.set_up_times(spawned, res)


def repeat(deadline: float, step) -> list:
    """Call step() at least once, then again while the next call is expected
    to end before the deadline; stops at the first None."""
    results, walls = [], []
    while True:
        t = time.monotonic()
        res = step()
        if res is None:
            break
        results.append(res)
        walls.append(time.monotonic() - t)
        if time.monotonic() + statistics.median(walls) > deadline:
            break
    return results


def untraced_run(r: Runner, deadline: float) -> tuple[dict, dict]:
    r.setup()  # fills __pycache__ and the page cache; not counted
    setups = []

    def step():  # a set-up sample before each pass spreads them over the run
        setups.append(r.setup())
        return r.run_pass(trace=False)

    passes = repeat(deadline, step)
    setups += repeat(deadline, r.setup)  # the time the passes leave
    setups = [s for s in setups if s is not None] + passes
    samples = {
        "run_scaled_s": [p["run_scaled_s"] for p in passes],
        "setup_s": [s["setup_s"] for s in setups],
        "peak_rss_mb": [p["rss_mb"] for p in passes],
    }
    units = {"run_scaled_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    metrics = {k: {"value": statistics.median(v), "unit": units[k]} for k, v in samples.items() if v}
    samples["run_s"] = [p["run_s"] for p in passes]
    samples["run_bracketed_s"] = [p["run_bracketed_s"] for p in passes]
    samples["setup_raw_s"] = [s["setup_raw_s"] for s in setups]
    samples["reference"] = [s["reference"] for s in setups]
    return metrics, samples


def unit_of(name: str) -> str:
    return "s" if name.endswith("_s") else "ratio" if name.endswith("_ratio") else "count"


def traced_run(r: Runner, deadline: float) -> tuple[dict, dict]:
    def pair():
        u = r.run_pass(trace=False)
        t = r.run_pass(trace=True) if u else None
        return (u, t) if t else None

    r.setup()
    pairs = repeat(deadline, pair)
    untraced = [u for u, _ in pairs]
    traced = [t["layers"] for _, t in pairs]
    if not traced:
        return {}, {}
    # Times are medians over the traced passes; counts and their ratios must
    # repeat exactly.
    metrics = {}
    for name in traced[0]:
        values = [t[name] for t in traced]
        if unit_of(name) == "s":
            value = statistics.median(values)
        else:
            value = values[0]
            if any(v != value for v in values):
                r.failures.append(f"{name} differs between traced passes: {values}")
        metrics[name] = {"value": value, "unit": unit_of(name)}
    traced_s = statistics.median(t["run_scaled_s"] for _, t in pairs)
    untraced_s = statistics.median(u["run_scaled_s"] for u in untraced)
    metrics["trace.run_s"] = {"value": traced_s, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
    samples = {
        "run_s": [u["run_s"] for u in untraced],
        "run_scaled_s": [u["run_scaled_s"] for u in untraced],
        "traced_run_s": [t["run_s"] for _, t in pairs],
        "traced_run_scaled_s": [t["run_scaled_s"] for _, t in pairs],
        "reference": [p["reference"] for pair in pairs for p in pair],
        "tree": pairs[0][1]["tree"],
    }
    return metrics, samples


def main() -> int:
    ap = argparse.ArgumentParser(description="qvbench benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.monotonic()

    workload = WORKLOADS[args.workload]
    missing = [p for p in ("src/qvbench/cli.py", workload.workspace) if not (ROOT / p).is_file()]
    if missing:
        sys.stderr.write(f"error: not a qvbench checkout, missing {', '.join(missing)}\n")
        return 2

    OUT.mkdir(exist_ok=True)
    workspace = ROOT / workload.workspace
    if not workload.fixture_suite:
        text, _ = relabel_workspace((ROOT / BENCH_WORKSPACE).read_text(), args.seed)
        workspace = OUT / f"workspace-seed{args.seed}.qvw"
        workspace.write_text(text)

    env = environment()
    runner = Runner(args.workload, args.seed, workspace, start)
    deadline = start + args.seconds
    if args.trace:
        metrics, samples = traced_run(runner, deadline)
    else:
        metrics, samples = untraced_run(runner, deadline)
    if runner.timed_out:
        runner.failures.append(f"a pass did not end within {HARD_LIMIT_S} s of the start")
    if len(runner.digests) > 1:
        runner.failures.append("canonical reports differ between passes")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "failures": runner.failures, "samples": samples}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    for key, values in samples.items():
        if key not in ("tree", "reference") and values:
            print(f"{key}: median {statistics.median(values):.6g} over {len(values)} samples")
    for failure in runner.failures[:20]:
        print(f"failed: {failure}")
    print(json.dumps({
        "correct": not runner.failures and bool(metrics),
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
