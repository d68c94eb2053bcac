"""One timed pass of a workload in a fresh interpreter, so qvbench's
lru_caches start cold, as they do for a CLI user.

Usage: python3 bench/worker.py --workload NAME --workspace PATH --seed N
       [--trace] [--setup-only]

Prints one JSON line: the monotonic time at which qvbench was imported and
the workspace parsed, the host's speed just after that, the pass's wall time,
raw and scaled to the reference speed, peak resident memory, the failed
commands, a digest of every canonical report, every reference sample with
its phase and, with --trace, the per-layer metrics and the aggregated span
tree.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import pathlib
import resource
import signal
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from spans import PASS, Tracer, call_tree, install, layer_metrics  # noqa: E402
from workloads import BENCH_WORKSPACE, WORKLOADS, relabel_workspace  # noqa: E402

COMMAND_LIMIT_S = 60
# The median, over the 15 passes of five 30 s axiomatic-b4 runs (seeds 1-5)
# on a 2-vCPU Xeon KVM guest with Python 3.11.7, of the pass's mean
# reference sample.  Scaled times are seconds at that host's typical speed.
REFERENCE_S = 0.0103
REFERENCE_ITERATIONS = 10_000
SAMPLES_PER_PHASE = 3  # reference samples just after set-up and after the pass
SAMPLE_EVERY_S = 0.1  # CPU time between reference samples during a pass
_TABLE = [(i * 7 + 3) % 101 for i in range(101 * 101)]


class CommandTimeout(BaseException):
    """Raised by the interval timer; a BaseException so that no handler in
    the program can swallow it."""


def _on_alarm(signum, frame):
    raise CommandTimeout()


def reference_s() -> float:
    """Wall time of a fixed piece of pure-Python work that uses no qvbench
    code: table lookups, dict updates and short recursions, the operations
    qvbench spends its time on.  The collector is off while it runs, so the
    size of qvbench's heap does not change it."""
    collecting = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    counts: dict = {}

    def chase(x: int, depth: int) -> int:
        return x if depth == 0 else chase(_TABLE[x * 101 % len(_TABLE)], depth - 1)

    for i in range(REFERENCE_ITERATIONS):
        key = (i % 101, _TABLE[i % len(_TABLE)] % 7)
        counts[key] = counts.get(key, 0) + chase(i % 101, 3)
    elapsed = time.perf_counter() - t0
    if collecting:
        gc.enable()
    return elapsed


class HostSpeed:
    """How fast the host runs the interpreter, from reference samples kept
    with their phase: "before" just after set-up, "after" just after the
    pass, and "in" from a profiling-timer signal every SAMPLE_EVERY_S of CPU
    time during the pass.  `in_pass_s` is the time the "in" samples took,
    which `clock` leaves out, so they add to no pass or span."""

    def __init__(self) -> None:
        self.samples: list[tuple[str, float]] = []
        self.in_pass_s = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self.in_pass_s

    def sample(self, phase: str) -> None:
        self.samples += [(phase, reference_s()) for _ in range(SAMPLES_PER_PHASE)]

    def _on_timer(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(("in", reference_s()))
        self.in_pass_s += time.perf_counter() - t0

    @contextlib.contextmanager
    def during(self):
        signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, signal.SIG_IGN)  # drops a signal still pending

    def scale(self, *phases: str) -> float:
        """A time times this is the time at the reference speed.  The "in"
        samples are spaced evenly in CPU time, so each stands for the same
        amount of the pass's work, and the mean sample time is the pass's
        mean speed."""
        return REFERENCE_S / statistics.fmean(t for p, t in self.samples if p in phases)


def check_answers(workload, outcomes, perms) -> list[str]:
    """One message per failed command: a crash, a usage error (exit 3), a
    timeout, or a verdict or count that differs from the reference."""
    failures = []
    for cmd, (code, payload) in zip(workload.commands, outcomes):
        if payload is None:
            failures.append(f"{cmd.label}: {code}")
            continue
        problems = [] if code == cmd.exit else [f"exit {code}, expected {cmd.exit}"]
        if cmd.check is not None:
            problems += cmd.check(json.loads(payload), perms)
        if problems:
            failures.append(f"{cmd.label}: {'; '.join(problems)}")
    return failures


def run_command(cli, workload, cmd, ws, workspace: str, tracer):
    """(exit code, canonical report bytes), or (what went wrong, None)."""
    span = tracer.open(tracer.layer_id(PASS)) if tracer else None
    signal.setitimer(signal.ITIMER_REAL, COMMAND_LIMIT_S)
    try:
        if workload.fixture_suite:
            ws = cli.load_workspace(workspace)
        report, code = cli.run(cmd.command, ws, dict(cmd.flags))
        return code, cli.emit_report(report, "json")
    except CommandTimeout:
        return f"exceeded {COMMAND_LIMIT_S} s", None
    except Exception as exc:  # a crash or usage error fails the command
        return f"{type(exc).__name__}: {exc}", None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer:
            tracer.close(span)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--workspace", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]

    from qvbench import cli

    speed = HostSpeed()
    tracer = None
    if args.trace:
        tracer = Tracer(speed.clock)
        install(tracer)
    ws = cli.load_workspace(args.workspace)
    setup_done = time.monotonic()
    speed.sample("before")
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done, "setup_scale": speed.scale("before"),
                          "reference": speed.samples}))
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    outcomes = []
    with speed.during():
        t0 = speed.clock()
        for cmd in workload.commands:
            outcomes.append(run_command(cli, workload, cmd, ws, args.workspace, tracer))
        run_s = speed.clock() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    speed.sample("after")
    scale = speed.scale("before", "in", "after")

    perms = {}
    if not workload.fixture_suite:
        perms = relabel_workspace((ROOT / BENCH_WORKSPACE).read_text(), args.seed)[1]
    digest = hashlib.sha256()
    for _, payload in outcomes:
        digest.update(payload or b"-")
    out = {
        "setup_done": setup_done,
        "setup_scale": speed.scale("before"),
        "run_s": run_s,
        # The pass's wall time at the reference speed: slow and fast spells
        # of a shared host cancel out.
        "run_scaled_s": run_s * scale,
        # Scaled by the samples outside the pass alone, for comparison.
        "run_bracketed_s": run_s * speed.scale("before", "after"),
        "rss_mb": rss_mb,
        "reference": speed.samples,
        "attempted": len(outcomes),
        "failures": check_answers(workload, outcomes, perms),
        "digest": digest.hexdigest(),
    }
    if tracer:
        out["layers"] = layer_metrics(tracer, scale)
        out["tree"] = call_tree(tracer.spans())
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
