"""tools/benchpairs.py's per-metric verdict on synthetic paired runs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "benchpairs.py"
_spec = importlib.util.spec_from_file_location("benchpairs", SCRIPT)
benchpairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(benchpairs)

DECLARED = {
    "steps_per_s": {"unit": "1/s", "better": "higher", "bound": 0.2},
    "round_s": {"unit": "s", "better": "lower", "bound": 0.2},
    "inputs.draws": {"unit": "count", "better": "lower"},
}


def verdicts(metric, parent, change):
    """``summarize``'s verdict on one metric whose pairs read ``parent[i]`` and ``change[i]``."""
    results = {
        "parent": [{"metrics": {metric: {"value": v}}} for v in parent],
        "change": [{"metrics": {metric: {"value": v}}} for v in change],
    }
    return benchpairs.summarize(results, {metric: DECLARED[metric]})[metric]["verdict"]


STEADY = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]


@pytest.mark.parametrize(
    "metric, parent, change, expected",
    [
        # The median falls 25 % against a 20 % bound.
        ("steps_per_s", STEADY, [v * 0.75 for v in STEADY], "worse"),
        # Lower is better: the median rises 25 %.
        ("round_s", STEADY, [v * 1.25 for v in STEADY], "worse"),
        # The parent's IQR (50) is wider than 20 % of its median (100), and the sides overlap.
        ("steps_per_s", [50.0, 150.0] * 5, [60.0, 160.0] * 5, "unresolved"),
        # Same spread, but every change run beats every parent run, on every pair.
        ("steps_per_s", [50.0, 150.0] * 5, [200.0, 300.0] * 5, "gain"),
        # 10 of 10 pairs won, by more than the parent's IQR.
        ("steps_per_s", STEADY, [v + 5.0 for v in STEADY], "gain"),
        ("round_s", STEADY, [v - 5.0 for v in STEADY], "gain"),
        # 9 of 10 pairs won, the tenth tied: ties count for neither side.
        ("steps_per_s", STEADY, [v + 5.0 for v in STEADY[:9]] + STEADY[9:], "gain"),
        # 8 of 10 pairs won.
        ("steps_per_s", STEADY, [v + 5.0 for v in STEADY[:8]] + STEADY[8:], "within bound"),
        # 10 of 10 won, by less than the parent's IQR.
        ("steps_per_s", STEADY, [v + 0.1 for v in STEADY], "within bound"),
        # Identical runs, as reward reads.
        ("steps_per_s", STEADY, STEADY, "within bound"),
        # A 10 % loss is inside the 20 % bound.
        ("steps_per_s", STEADY, [v * 0.9 for v in STEADY], "within bound"),
        # A per-layer count has no bound: it is never worse or unresolved.
        ("inputs.draws", [100.0] * 10, [200.0] * 10, "within bound"),
        ("inputs.draws", [100.0] * 10, [90.0] * 10, "gain"),
    ],
)
def test_summarize_states_each_metrics_verdict(metric, parent, change, expected):
    assert verdicts(metric, parent, change) == expected
