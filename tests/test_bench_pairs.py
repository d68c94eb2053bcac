"""The summary that `scripts/bench_pairs.py` prints for each metric, and
the raw pass time it reads beside them."""
import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]


def test_quartiles_wins_and_gap():
    """Quartiles by `statistics.quantiles(n=4)`: 11.75, 14.5 and 17.25 for
    the parent's 10..19, an interquartile range of 5.5."""
    s = bench_pairs.summary(PARENT, [v - 6 for v in PARENT])
    assert s["parent"] == (11.75, 14.5, 17.25)
    assert s["change"] == (5.75, 8.5, 11.25)
    assert (s["wins"], s["pairs"], s["gap"], s["parent_iqr"]) == (10, 10, 6.0, 5.5)
    assert s["shown"]


@pytest.mark.parametrize("change, wins, shown", [
    # Every pair won, but the gap of 5 is inside the parent's IQR of 5.5.
    ([v - 5 for v in PARENT], 10, False),
    # A gap of 9 wins 9 of 10 pairs, when one pair reads higher.
    ([v - 9 for v in PARENT[:9]] + [30.0], 9, True),
    # 8 of 10 pairs is not enough, however wide the gap.
    ([v - 9 for v in PARENT[:8]] + [30.0, 30.0], 8, False),
    # A change that reads higher loses every pair.
    ([v + 6 for v in PARENT], 0, False),
])
def test_rule(change, wins, shown):
    s = bench_pairs.summary(PARENT, change)
    assert (s["wins"], s["shown"]) == (wins, shown)


def test_raw_run_s_is_the_median_of_the_kept_samples(tmp_path):
    """The raw time of a run is the median of the unscaled `run_s` samples
    in the result file of its workload and seed, not the scaled metric."""
    out = tmp_path / ".bench_out"
    out.mkdir()
    samples = {"run_s": [0.30, 0.10, 0.20, 0.50], "run_scaled_s": [9.0, 9.0, 9.0, 9.0]}
    (out / "result-enumerate-b8-seed3-trace0.json").write_text(json.dumps({"samples": samples}))
    (out / "result-enumerate-b8-seed4-trace0.json").write_text(json.dumps({"samples": {"run_s": [7.0]}}))
    assert bench_pairs.raw_run_s(tmp_path, "enumerate-b8", 3) == 0.25
    assert bench_pairs.raw_run_s(tmp_path, "enumerate-b8", 4) == 7.0
