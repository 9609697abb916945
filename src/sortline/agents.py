"""Baseline decision-makers: a greedy rule-based table and tabular Q-learning.

Both discretize the observed input total into ``BINS`` (20) equal-width
bins on [0, 1] and, in the advanced variant, key on the observed ratio
category as well.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, EnvConfig
from .env import SortingLineEnv, StepResult
from .rng import AGENT_STREAM, make_stream
from .sorting import apply_mode, base_accuracy, deterministic_accuracy, step_reward
from .types import ACTIONS, MODES, Action, EnvVariant, Observation, SortingMode

BINS = 20


def bin_index(value: float) -> int:
    """Equal-width bin of a value in [0, 1]; the top edge folds into the last bin."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"observation outside [0, 1]: {value}")
    b = int(value * BINS)
    return b if b < BINS else BINS - 1


class Agent:
    """Minimal agent contract used by the episode and benchmark harnesses."""

    name = "agent"
    variant: EnvVariant

    def act(self, obs: Observation) -> Action:
        raise NotImplementedError

    def notify(self, result: StepResult) -> None:
        """Learning agents update here; stateless agents ignore it."""


class RandomAgent(Agent):
    name = "random"

    def __init__(self, variant: EnvVariant, seed: int = 0):
        self.variant = variant
        self._stream = make_stream(seed, AGENT_STREAM)

    def act(self, obs: Observation) -> Action:
        return self._stream.choice(ACTIONS[self.variant])


class _NoiseMean:
    """Stand-in stream whose ``uniform`` returns the midpoint of its range."""

    @staticmethod
    def uniform(lo: float, hi: float) -> float:
        return (lo + hi) / 2.0


def expected_immediate_reward(
    config: EnvConfig,
    occ: float,
    action: Action,
    category: SortingMode | None = None,
) -> float:
    """One-step reward at the noise mean, with no change penalty.

    In the advanced variant the observed ``category`` is taken to be the true
    regime, so a matching mode earns the bonus and a mismatch the malus.
    """
    if config.variant is EnvVariant.ADVANCED:
        pre_noise = deterministic_accuracy(action.speed_index, occ, config)
        alpha = apply_mode(pre_noise, action.mode, category, config, _NoiseMean)
    else:
        alpha = base_accuracy(action.speed_index, occ, config, _NoiseMean)
    return step_reward(alpha, action.speed_index, config, speed_changed=False)


def best_action(config: EnvConfig, occ: float, category: SortingMode | None = None) -> Action:
    """Action maximizing the expected immediate reward at occupancy ``occ``.

    Ties resolve toward the lower speed index (and earlier mode).
    """
    best = None
    best_reward = -float("inf")
    for action in ACTIONS[config.variant]:
        reward = expected_immediate_reward(config, occ, action, category)
        if reward > best_reward:
            best = action
            best_reward = reward
    return best


class RuleBasedAgent(Agent):
    """Greedy per-bin lookup built once from the reward model.

    Each bin's entry is the best action for the bin center, treating the
    observed total as the occupancy the batch will have on the belt.  The
    change penalty is deliberately ignored, so the agent re-optimizes every
    step.
    """

    name = "rba"

    def __init__(self, config: EnvConfig):
        self.variant = config.variant
        self.table: dict[tuple[int, SortingMode | None], Action] = {}
        for b in range(BINS):
            center = (b + 0.5) / BINS
            for category in MODES[config.variant]:
                self.table[(b, category)] = best_action(config, center, category)

    def act(self, obs: Observation) -> Action:
        key = (bin_index(obs.input_total), obs.ratio_category)
        try:
            return self.table[key]
        except KeyError:
            raise ValueError(f"observation does not match agent variant: {obs}") from None


QTABLE_MAGIC = "sortline-qtable"
QTABLE_FORMAT_VERSION = 1

LEARNING_RATE = 0.1
EPSILON_START = 1.0
EPSILON_FINAL = 0.05
EPSILON_DECAY_FRACTION = 0.5


def _read_only_array(data: list, dtype: str):
    """A numpy copy of ``data`` that refuses writes, which would otherwise be lost."""
    import numpy as np  # here, so only readers of a Q-table pay for numpy's import

    array = np.array(data, dtype=dtype)
    array.flags.writeable = False
    return array


class QLearningAgent(Agent):
    """One-step tabular Q-learning over ``BINS`` observation bins.

    Updates step a fraction ``LEARNING_RATE`` (0.1) toward the TD target,
    which discounts the next state's best value by ``discount`` in [0, 1].
    Epsilon decays linearly from ``EPSILON_START`` (1.0) to ``EPSILON_FINAL``
    (0.05) over the first ``EPSILON_DECAY_FRACTION`` (half) of the planned
    training steps, then stays at ``EPSILON_FINAL``.  With
    ``learning`` off (the default outside ``train``), ``act`` is the greedy
    policy with ties toward the lower speed index.

    The table lives in plain Python lists, one row of action values per
    state; ``values`` and ``visits`` hand out read-only numpy copies.
    """

    name = "qtable"

    def __init__(self, variant: EnvVariant, discount: float = 0.9, seed: int = 0):
        if not 0.0 <= discount <= 1.0:  # NaN fails too: training keeps the table NaN-free
            raise ValueError(f"discount must lie in [0, 1], got {discount}")
        self.variant = variant
        self.discount = discount
        self._stream = make_stream(seed, AGENT_STREAM)
        self._category_index = {category: i for i, category in enumerate(MODES[variant])}
        states = BINS * len(self._category_index)
        self._actions = ACTIONS[variant]
        self._q = [[0.0] * len(self._actions) for _ in range(states)]
        self._visits = [0] * states
        self.learning = False
        self._pending: tuple[int, int] | None = None
        self._next: tuple[object, int] = (object(), 0)  # (observation, state index) notify encoded last
        self._planned_steps = 0
        self._steps_done = 0

    @property
    def values(self):
        """Read-only float64 array (states x actions) copied from the table."""
        return _read_only_array(self._q, "float64")

    @property
    def visits(self):
        """Read-only int64 array of the updates made from each state."""
        return _read_only_array(self._visits, "int64")

    def state_index(self, obs: Observation) -> int:
        b = bin_index(obs.input_total)
        try:
            category = self._category_index[obs.ratio_category]
        except KeyError:
            raise ValueError(f"observation does not match agent variant: {obs}") from None
        return b * len(self._category_index) + category

    def epsilon(self) -> float:
        """Current exploration rate under the linear decay schedule."""
        horizon = self._planned_steps * EPSILON_DECAY_FRACTION
        if horizon <= 0:
            return EPSILON_FINAL
        progress = self._steps_done / horizon
        return EPSILON_START + (EPSILON_FINAL - EPSILON_START) * (progress if progress < 1.0 else 1.0)

    def act(self, obs: Observation) -> Action:
        state = self._next[1] if obs is self._next[0] else self.state_index(obs)
        row = self._q[state]
        # index(max(row)) is the first maximum, as argmax; tables hold no NaN.
        if not self.learning:
            return self._actions[row.index(max(row))]
        if self._stream.random() < self.epsilon():
            index = self._stream.randrange(len(self._actions))
        else:
            index = row.index(max(row))
        self._pending = (state, index)
        return self._actions[index]

    def notify(self, result: StepResult) -> None:
        if not self.learning or self._pending is None:
            return
        state, action = self._pending
        self._pending = None
        target = result.reward
        if not result.done:
            next_state = self.state_index(result.observation)
            self._next = (result.observation, next_state)
            target += self.discount * max(self._q[next_state])
        row = self._q[state]
        q = row[action]
        row[action] = q + LEARNING_RATE * (target - q)
        self._visits[state] += 1
        self._steps_done += 1

    def train(self, config: EnvConfig, episodes: int, steps_per_episode: int) -> "QLearningAgent":
        """Run seeded training episodes against a fresh environment.

        Episode seeds come from the agent's exploration stream, so the whole
        run is a deterministic function of the agent seed and the config.
        """
        if config.variant is not self.variant:
            raise ConfigError("agent and config variants differ")
        env = SortingLineEnv(replace(config, episode_length=steps_per_episode))
        self._planned_steps = episodes * steps_per_episode
        self._steps_done = 0
        self.learning = True
        try:
            for _ in range(episodes):
                obs = env.reset(seed=self._stream.getrandbits(63))
                for _ in range(steps_per_episode):
                    result = env.step(self.act(obs))
                    self.notify(result)
                    obs = result.observation
        finally:
            self.learning = False
        return self

    def save(self, path: str | Path) -> None:
        """Write the table as flat text: a four-line header (format tag,
        variant, bins, action count) followed by one row of values per state."""
        lines = [
            f"{QTABLE_MAGIC} {QTABLE_FORMAT_VERSION}",
            f"variant {self.variant.value}",
            f"bins {BINS}",
            f"actions {len(self._actions)}",
        ]
        lines.extend(" ".join(repr(v) for v in row) for row in self._q)
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "QLearningAgent":
        """Read a table written by ``save``; the loaded agent acts greedily."""
        lines = Path(path).read_text().splitlines()
        try:
            magic, version = lines[0].split()
            if magic != QTABLE_MAGIC or int(version) != QTABLE_FORMAT_VERSION:
                raise ValueError
            fields = dict(line.split() for line in lines[1:4])
            variant = EnvVariant(fields["variant"])
            bins = int(fields["bins"])
            actions = int(fields["actions"])
        except (ValueError, KeyError, IndexError):
            raise ValueError(f"{path} is not a recognized table file") from None
        if bins != BINS:
            raise ValueError(f"{path}: {bins} bins, expected {BINS}")
        agent = cls(variant)
        if actions != len(agent._actions):
            raise ValueError(f"{path}: {actions} actions does not match variant {variant.value}")
        rows = [[float(v) for v in line.split()] for line in lines[4:] if line.strip()]
        if len(rows) != len(agent._q) or any(len(r) != actions for r in rows):
            raise ValueError(f"{path}: table shape does not match header")
        if not all(math.isfinite(v) for row in rows for v in row):
            raise ValueError(f"{path}: table holds a non-finite value")
        agent._q = rows
        return agent
