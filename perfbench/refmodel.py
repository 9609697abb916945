"""Independent reference model of the sorting line, for checking outputs.

Written from the documented contract, not from the environment code:

* streams: ``random.Random(int.from_bytes(sha256(b"<root mod 2**64>:<label>")[:8], "big"))``
  for the labels ``input``, ``sorting`` and ``observation`` (the rng docstring);
* input draws: random input takes total ~ U(5, 95) then A-fraction ~ U(0, 1);
  seasonal input takes pattern ~ randrange(9) (level-major, regime-minor) and
  phase length ~ randrange(10, 13) when a phase starts, then total and
  A-fraction from the pattern's ranges (the inputs docstring);
* one step: sort the machine at its carried accuracy, shift the stages,
  draw fresh input, recompute the belt accuracy with one sorting draw, pay
  the reward, observe the input with one observation draw
  (``SortingLineEnv.step``); reset draws the first input and observes once;
* reward and accuracy: the formulas in the README and the sorting docstrings.

It imports neither ``sortline.env`` nor ``sortline.sorting``; it reads only
config fields and builds the ``Observation`` values agents consume.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

from sortline.types import EnvVariant, InputType, Observation, SortingMode

RANDOM_TOTAL = (5.0, 95.0)
LEVEL_TOTALS = ((10.0, 30.0), (40.0, 60.0), (70.0, 90.0))
REGIME_A_SHARE = ((0.70, 0.90), (0.40, 0.60), (0.10, 0.30))
MODE_BONUS = 0.15
MODE_MALUS = 0.10
MISS_REWARD = -0.1


def stream(root: int, label: str) -> random.Random:
    digest = hashlib.sha256(f"{root % 2**64}:{label}".encode("ascii")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def clamp01(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def ratio_class(a: float, b: float) -> SortingMode:
    if a > 3.0 * b:
        return SortingMode.POSITIVE
    if b > 3.0 * a:
        return SortingMode.NEGATIVE
    return SortingMode.BASIC


class ReferenceInput:
    """Input stage draws for one episode."""

    def __init__(self, seasonal: bool, rng: random.Random):
        self.seasonal = seasonal
        self.rng = rng
        self.pattern = 0
        self.left = 0

    def draw(self) -> tuple[float, float]:
        rng = self.rng
        if not self.seasonal:
            total = rng.uniform(*RANDOM_TOTAL)
            share = rng.uniform(0.0, 1.0)
        else:
            if self.left == 0:
                self.pattern = rng.randrange(9)
                self.left = rng.randrange(10, 13)
            self.left -= 1
            level, regime = divmod(self.pattern, 3)
            total = rng.uniform(*LEVEL_TOTALS[level])
            share = rng.uniform(*REGIME_A_SHARE[regime])
        a = total * share
        return a, total - a


@dataclass
class ReferenceStep:
    observation: Observation
    reward: float
    occupancy: float
    accuracy: float
    purity: float


class ReferenceLine:
    """The four-stage line: input -> belt -> machine -> storage."""

    def __init__(self, config):
        self.c = config
        self.advanced = config.variant is EnvVariant.ADVANCED

    def reset(self, seed: int) -> Observation:
        self.inputs = ReferenceInput(self.c.input_type is InputType.SEASONAL, stream(seed, "input"))
        self.sort_rng = stream(seed, "sorting")
        self.obs_rng = stream(seed, "observation")
        self.inp = self.inputs.draw()
        self.belt = (0.0, 0.0)
        self.machine = (0.0, 0.0)
        self.belt_acc = 1.0
        self.machine_acc = 1.0
        self.right = 0.0
        self.wrong = 0.0
        self.prev_speed = None
        self.mode = SortingMode.BASIC
        self.steps = 0
        return self.observe()

    def observe(self) -> Observation:
        level = self.c.obs_noise_level
        u = self.obs_rng.uniform(-level, level)
        a, b = self.inp
        seen = clamp01((a + b) / 100.0 * (1.0 + u))
        return Observation(seen, ratio_class(a, b) if self.advanced else None)

    def step(self, speed: int, mode: SortingMode | None) -> ReferenceStep:
        c = self.c
        if self.steps >= c.episode_length:
            raise RuntimeError("episode is finished")
        a, b = self.machine
        self.right += self.machine_acc * (a + b)
        self.wrong += (1.0 - self.machine_acc) * (a + b)
        self.machine, self.machine_acc = self.belt, self.belt_acc
        self.belt = self.inp
        self.inp = self.inputs.draw()

        changed = self.prev_speed is not None and speed != self.prev_speed
        self.prev_speed = speed
        if mode is not None:
            self.mode = mode
        occ = (self.belt[0] + self.belt[1]) / 100.0
        limit = c.occupancy_limits[speed - 1]
        alpha = 1.0 if occ <= limit else clamp01(1.0 - (occ - limit) * c.abatement)
        if not self.advanced:
            alpha = clamp01(alpha - self.sort_rng.uniform(*c.base_noise_range))
        elif self.mode is ratio_class(*self.belt):
            alpha = clamp01(min(alpha + MODE_BONUS, 1.0) - self.sort_rng.uniform(*c.correct_mode_noise_range))
        else:
            alpha = clamp01(max(alpha - MODE_MALUS, 0.0) - self.sort_rng.uniform(*c.incorrect_mode_noise_range))
        self.belt_acc = alpha

        penalty = c.action_penalty if changed else 0.0
        if alpha < c.threshold:
            reward = MISS_REWARD - penalty
        else:
            reward = (
                c.r_acc * (alpha - c.threshold) / (1.0 - c.threshold)
                + c.r_speed * (speed / 10.0 - 0.1) / 0.9
                - penalty
            )
        stored = self.right + self.wrong
        self.steps += 1
        return ReferenceStep(
            observation=self.observe(),
            reward=reward,
            occupancy=occ,
            accuracy=alpha,
            purity=1.0 if stored == 0.0 else self.right / stored,
        )


def close(x: float, y: float, tol: float = 1e-9) -> bool:
    return math.isclose(x, y, rel_tol=tol, abs_tol=tol)


def replay(config, agent, seed: int, steps: int) -> list[tuple[float, float, float, float, float, float]]:
    """Run one episode through the model with ``agent`` choosing actions.

    Returns one ``(speed, occupancy, accuracy, reward, cum_reward, purity)``
    tuple per step, the trace-row fields the program reports.
    """
    line = ReferenceLine(config)
    obs = line.reset(seed)
    rows = []
    cum = 0.0
    for _ in range(steps):
        action = agent.act(obs)
        out = line.step(action.speed_index, action.mode)
        cum += out.reward
        rows.append((action.speed_index / 10.0, out.occupancy, out.accuracy, out.reward, cum, out.purity))
        obs = out.observation
    return rows


def check_rows(expected, rows, tol: float = 1e-9) -> str | None:
    """Compare model rows with ``(speed, occupancy, accuracy, reward, cum_reward,
    purity)`` rows from the program; return the first mismatch, or None."""
    if len(expected) != len(rows):
        return f"{len(rows)} rows, model has {len(expected)}"
    names = ("speed", "occupancy", "accuracy", "reward", "cum_reward", "purity")
    for step, (want, got) in enumerate(zip(expected, rows), start=1):
        for name, x, y in zip(names, want, got):
            if not close(x, y, tol):
                return f"step {step} {name}: program {y!r}, model {x!r}"
    return None
