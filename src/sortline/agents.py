"""Baseline decision-makers: a greedy rule-based table and tabular Q-learning.

Both discretize the observed input total into ``BINS`` (20) equal-width
bins on [0, 1] and, in the advanced variant, key on the observed ratio
category as well.
"""

from __future__ import annotations

import math
from math import floor
from pathlib import Path

from .config import ConfigError, EnvConfig, check_field
from .env import StepResult, open_episode, price_step
from .rng import AGENT_STREAM, make_stream
from .types import ACTIONS, MODES, Action, EnvVariant, Observation, SortingMode, validate_action

BINS = 20


def bin_index(value: float) -> int:
    """Equal-width bin of a value in [0, 1]; the top edge folds into the last bin."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"observation outside [0, 1]: {value}")
    b = floor(value * BINS)  # int() of a float runs a slower generic path; at >= 0 floor is the same int
    return b if b < BINS else BINS - 1


def first_max(row: list[float]) -> int:
    """Index of the first maximum of a NaN-free ``row``, as ``np.argmax`` gives it."""
    return row.index(max(row))


class Agent:
    """Minimal agent contract used by the episode and benchmark harnesses."""

    name = "agent"
    variant: EnvVariant

    def act(self, obs: Observation) -> Action:
        raise NotImplementedError

    def notify(self, result: StepResult) -> None:
        """Called with each evaluation step's result; the bundled agents ignore it."""


def check_variant(agent: Agent, config: EnvConfig) -> None:
    if agent.variant is not config.variant:
        raise ConfigError(f"agent variant {agent.variant.value} does not match config {config.variant.value}")


class RandomAgent(Agent):
    name = "random"

    def __init__(self, variant: EnvVariant, seed: int = 0):
        self.variant = variant
        self._stream = make_stream(check_field("seed", seed), AGENT_STREAM)

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
    """One-step reward at the noise mean by ``env.price_step``, as a first step: no change penalty.

    In the advanced variant the observed ``category`` is taken to be the true
    regime, so a matching mode earns the bonus and a mismatch the malus.  An
    occupancy outside [0, 1] or what the variant does not take raises ``ValueError``.
    """
    if not 0.0 <= occ <= 1.0:
        raise ValueError(f"occupancy outside [0, 1]: {occ}")
    validate_action(action, config.variant)
    if category not in MODES[config.variant]:
        raise ValueError(f"{config.variant.value} variant observes no category {category!r}")
    return price_step(action, occ, category, config, _NoiseMean, 0)[1]


def _greedy_actions(config: EnvConfig, occ: float) -> dict[SortingMode | None, Action]:
    """Each observed category's first action of highest ``expected_immediate_reward`` at ``occ``,
    from one pricing pass: the reward model prices a mode only by whether it fits the category."""
    modes, actions = MODES[config.variant], ACTIONS[config.variant]
    n = len(modes)  # speed s's actions, in mode order, are actions[(s - 1) * n:s * n]
    # Priced for category modes[0], each speed's first action fits and its second, if any, misses.
    fits = [expected_immediate_reward(config, occ, a, modes[0]) for a in actions[::n]]
    misses = [expected_immediate_reward(config, occ, a, modes[0]) for a in actions[1::n]] if n > 1 else []
    picks = {}
    for category in modes:
        prices = [(fits if a.mode is category else misses)[a.speed_index - 1] for a in actions]
        # Every price is finite (occ lies in [0, 1]): first_max is the scan's first strict maximum.
        picks[category] = actions[first_max(prices)]
    return picks


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
            for category, action in _greedy_actions(config, (b + 0.5) / BINS).items():
                self.table[(b, category)] = action

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


def epsilon(done: int, planned: int) -> float:
    """Exploration rate after ``done`` of ``planned`` training steps: linear from ``EPSILON_START``
    to ``EPSILON_FINAL`` over their first ``EPSILON_DECAY_FRACTION``, then ``EPSILON_FINAL``."""
    progress = done / (planned * EPSILON_DECAY_FRACTION)
    return EPSILON_START + (EPSILON_FINAL - EPSILON_START) * (progress if progress < 1.0 else 1.0)


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
    Only ``train`` explores, at ``epsilon(done, planned)`` over each call's
    own steps, and learns; ``act`` is always the greedy policy, with ties
    toward the lower speed index, and ``notify`` ignores what it is told.

    The table is plain Python lists, one row of action values per state, and
    ``train`` keeps each state's greedy action through its updates; ``values``
    and ``visits`` hand out read-only numpy copies.
    """

    name = "qtable"

    def __init__(self, variant: EnvVariant, discount: float = 0.9, seed: int = 0):
        if type(discount) not in (int, float) or not 0 <= discount <= 1:  # NaN fails: tables stay NaN-free
            raise ValueError(f"discount must be an int or float in [0, 1], got {discount!r}")
        self.variant = variant
        self.discount = float(discount)
        self._stream = make_stream(check_field("seed", seed), AGENT_STREAM)
        self._category_index = {category: i for i, category in enumerate(MODES[variant])}
        states = BINS * len(self._category_index)
        self._actions = ACTIONS[variant]
        self._q = [[0.0] * len(self._actions) for _ in range(states)]
        self._visits = [0] * states

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

    def act(self, obs: Observation) -> Action:
        return self._actions[first_max(self._q[self.state_index(obs)])]

    def notify(self, result: StepResult) -> None:
        pass  # only train learns; kept as an override, a patch point of perfbench/tracer.py

    def train(self, config: EnvConfig, episodes: int, steps_per_episode: int) -> "QLearningAgent":
        """Run epsilon-greedy Q-learning episodes, each seeded from the agent's stream: the
        draws, observations and rewards of ``SortingLineEnv.reset`` and ``step`` (``open_episode``'s
        sorting stream and tape entries, each observed total binned to a state as it is read, and
        ``price_step``), without the stages, storage or info that learning does not read.  Step
        ``done`` of the call's ``planned`` steps explores with probability ``epsilon(done, planned)``,
        so each call restarts the schedule at 1.0.  Each state's greedy action is kept; a row is
        rescanned only when its greedy entry falls."""
        check_variant(self, config)
        if type(episodes) is not int or episodes < 1:
            raise ConfigError(f"training episodes must be an int of at least 1, got {episodes!r}")
        steps = check_field("episode_length", steps_per_episode)  # as an env's episode would check it
        if steps < 1:
            raise ConfigError(f"training episode length must be at least 1 step, got {steps}")
        planned, done = episodes * steps, 0
        q, visits, actions, stream = self._q, self._visits, self._actions, self._stream
        category_index, per_bin, discount = self._category_index, len(self._category_index), self.discount
        best = [first_max(row) for row in q]  # each state's greedy action, kept through the updates
        for _ in range(episodes):
            sorting_stream, tape = open_episode(config, stream.getrandbits(63), steps)
            _, occ, total, correct = next(tape)
            state, last = bin_index(total) * per_bin + category_index[correct], 0
            for step, (_, next_occ, total, next_correct) in enumerate(tape, 1):
                next_state = bin_index(total) * per_bin + category_index[next_correct]
                row, greedy = q[state], best[state]
                index = stream.randrange(len(actions)) if stream.random() < epsilon(done, planned) else greedy
                action = actions[index]
                _, target = price_step(action, occ, correct, config, sorting_stream, last)
                last = action.speed_index
                if step < steps:
                    target += discount * q[next_state][best[next_state]]
                value = row[index]
                row[index] = new = value + LEARNING_RATE * (target - value)
                if index == greedy and new < value:  # the greedy entry fell: another may lead now
                    best[state] = first_max(row)
                elif new > row[greedy] or new == row[greedy] and index < greedy:  # it leads now
                    best[state] = index
                visits[state] += 1
                done += 1
                occ, correct, state = next_occ, next_correct, next_state
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
        Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")

    @classmethod
    def load(cls, path: str | Path) -> "QLearningAgent":
        """Read a table written by ``save``; the loaded agent acts greedily."""
        try:
            lines = Path(path).read_text(encoding="ascii").splitlines()
            magic, version = lines[0].split()
            if magic != QTABLE_MAGIC or int(version) != QTABLE_FORMAT_VERSION:
                raise ValueError
            fields = dict(line.split() for line in lines[1:4])
            variant = EnvVariant(fields["variant"])
            bins = int(fields["bins"])
            actions = int(fields["actions"])
            rows = [[float(v) for v in line.split()] for line in lines[4:] if line.strip()]
        except (ValueError, KeyError, IndexError):
            raise ValueError(f"{path} is not a recognized table file") from None
        if bins != BINS:
            raise ValueError(f"{path}: {bins} bins, expected {BINS}")
        agent = cls(variant)
        if actions != len(agent._actions):
            raise ValueError(f"{path}: {actions} actions does not match variant {variant.value}")
        if len(rows) != len(agent._q) or any(len(r) != actions for r in rows):
            raise ValueError(f"{path}: table shape does not match header")
        if not all(math.isfinite(v) for row in rows for v in row):
            raise ValueError(f"{path}: table holds a non-finite value")
        agent._q = rows
        return agent
