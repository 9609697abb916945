"""Property checks the workloads run on the program's outputs, outside the timed region."""

from __future__ import annotations

import json
import math

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program broke a property or disagreed with the model."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def reward_bounds(config) -> tuple[float, float]:
    """Lowest and highest reward one step can pay."""
    return -0.1 - config.action_penalty, config.r_acc + config.r_speed


def check_qtable(agent, config, where: str) -> None:
    """Every Q-value is finite and within the discounted per-step reward bounds."""
    lo, hi = reward_bounds(config)
    scale = 1.0 / (1.0 - agent.discount)
    values = agent.values
    require(bool(np.isfinite(values).all()), f"{where}: non-finite Q-value")
    require(
        float(values.min()) >= lo * scale - 1e-9 and float(values.max()) <= hi * scale + 1e-9,
        f"{where}: Q-values {values.min()}..{values.max()} outside [{lo * scale}, {hi * scale}]",
    )


def check_episode_means(mean_speed, mean_purity, mean_reward, steps, config, where: str) -> None:
    """Means on the x100 scale: purity in [0, 100], speed in [10, 100], and the
    cumulative reward within the per-step bounds times the episode length."""
    lo, hi = reward_bounds(config)
    require(0.0 <= mean_purity <= 100.0, f"{where}: purity {mean_purity}")
    require(10.0 <= mean_speed <= 100.0, f"{where}: speed {mean_speed}")
    require(
        lo * steps - 1e-9 <= mean_reward <= hi * steps + 1e-9,
        f"{where}: reward {mean_reward} outside [{lo * steps}, {hi * steps}]",
    )


def check_roundtrip(trace, loaded, where: str) -> None:
    """A trace read back from its CSV equals the original to six decimals."""
    require(len(loaded.rows) == len(trace.rows), f"{where}: {len(loaded.rows)} rows read back")
    for a, b in zip(trace.rows, loaded.rows):
        require(a.step == b.step and a.mode is b.mode, f"{where}: step {a.step} step/mode differ")
        for name in ("speed", "occupancy", "accuracy", "reward", "cum_reward", "purity"):
            x, y = getattr(a, name), getattr(b, name)
            require(abs(x - y) <= 5e-7 + 1e-12 * abs(x), f"{where}: step {a.step} {name} {x!r} read back {y!r}")


def _reject_constant(token: str):
    raise CheckFailed(f"response carries the non-JSON token {token}")


def strict_loads(line: bytes):
    """Parse one response line, refusing NaN and Infinity tokens."""
    return json.loads(line, parse_constant=_reject_constant)


def finite(x) -> bool:
    return isinstance(x, float) and math.isfinite(x)
