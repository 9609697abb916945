"""Checks of the benchmark's own reference model against the pinned golden files.

Kept short: the repository's test run collects this file too.
"""

from pathlib import Path

from refmodel import ReferenceInput, ReferenceLine, stream
from sortline.config import EnvConfig

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"


def test_model_reproduces_golden_rule_agent_trace():
    lines = (GOLDEN / "trace_basic_random_rba_seed42.csv").read_text().splitlines()
    line = ReferenceLine(EnvConfig())
    line.reset(42)
    cum = 0.0
    for text in lines[1:]:
        step, speed, _mode, occ, acc, reward, cum_reward, purity = text.split(",")
        out = line.step(round(float(speed) * 10), None)
        cum += out.reward
        got = (out.occupancy, out.accuracy, out.reward, cum, out.purity)
        want = (occ, acc, reward, cum_reward, purity)
        assert [f"{x:.6f}" for x in got] == list(want), f"step {step}"
    assert line.steps == 50


def test_model_reproduces_golden_seasonal_inputs():
    lines = (GOLDEN / "seasonal_inputs_seed42.csv").read_text().splitlines()
    inputs = ReferenceInput(seasonal=True, rng=stream(42, "input"))
    for text in lines[1:]:
        _step, a, b = text.split(",")
        assert inputs.draw() == (float(a), float(b))
