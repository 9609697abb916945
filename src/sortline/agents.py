"""Baseline decision-makers: a greedy rule-based table and tabular Q-learning.

Both discretize the observed input total into ``BINS`` (20) equal-width
bins on [0, 1] and, in the advanced variant, key on the observed ratio
category as well.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ConfigError, EnvConfig
from .env import SortingLineEnv, StepResult
from .rng import AGENT_STREAM, make_stream
from .sorting import apply_mode, base_accuracy, deterministic_accuracy, step_reward
from .types import (
    MODES,
    Action,
    EnvVariant,
    Observation,
    SortingMode,
    action_count,
    action_from_index,
    all_actions,
)

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
        return action_from_index(self._stream.randrange(action_count(self.variant)), self.variant)


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
    for action in all_actions(config.variant):
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


class QLearningAgent(Agent):
    """One-step tabular Q-learning over ``BINS`` observation bins.

    Updates step a fraction ``LEARNING_RATE`` (0.1) toward the TD target,
    which discounts the next state's best value by ``discount`` in [0, 1].
    Epsilon decays linearly from ``EPSILON_START`` (1.0) to ``EPSILON_FINAL``
    (0.05) over the first ``EPSILON_DECAY_FRACTION`` (half) of the planned
    training steps, then stays at ``EPSILON_FINAL``.  With
    ``learning`` off (the default outside ``train``), ``act`` is the greedy
    policy with ties toward the lower speed index.
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
        self.values = np.zeros((states, action_count(variant)))
        self.visits = np.zeros(states, dtype=np.int64)
        self.learning = False
        self._actions = all_actions(variant)
        self._pending: tuple[int, int] | None = None
        self._next: tuple[object, int] = (object(), 0)  # (observation, state index) notify encoded last
        self._planned_steps = 0
        self._steps_done = 0

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
        if not self.learning:
            return self._actions[self.values[state].argmax()]
        if self._stream.random() < self.epsilon():
            index = self._stream.randrange(len(self._actions))
        else:
            index = int(self.values[state].argmax())
        self._pending = (state, index)
        return self._actions[index]

    def notify(self, result: StepResult) -> None:
        if not self.learning or self._pending is None:
            return
        state, action = self._pending
        self._pending = None
        values, visits = self.values, self.visits
        target = result.reward
        if not result.done:
            next_state = self.state_index(result.observation)
            self._next = (result.observation, next_state)
            # max() of the row as a list skips numpy's Python-level reduction
            # wrapper; the maximum is exact, and tables hold no NaN.
            target += self.discount * max(values[next_state].tolist())
        # Read as Python numbers (item), so the updates skip numpy scalars.
        q = values.item(state, action)
        values[state, action] = q + LEARNING_RATE * (target - q)
        visits[state] = visits.item(state) + 1
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
            f"actions {self.values.shape[1]}",
        ]
        lines.extend(" ".join(repr(v) for v in row) for row in self.values.tolist())
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
        if actions != agent.values.shape[1]:
            raise ValueError(f"{path}: {actions} actions does not match variant {variant.value}")
        rows = [[float(v) for v in line.split()] for line in lines[4:] if line.strip()]
        if len(rows) != agent.values.shape[0] or any(len(r) != actions for r in rows):
            raise ValueError(f"{path}: table shape does not match header")
        agent.values = np.array(rows)
        if not np.isfinite(agent.values).all():
            raise ValueError(f"{path}: table holds a non-finite value")
        return agent
