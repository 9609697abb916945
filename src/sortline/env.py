"""The sorting-line environment: reset, the six-phase step, observation.

Material flows input -> belt -> machine -> storage, advancing one full stage
per step.  The accuracy for a batch is fixed while it sits on the belt (from
the speed and, in the advanced variant, the mode chosen that step) and
travels with the batch into the machine, so each batch is sorted with the
accuracy the agent bought for it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain
from typing import Any, Iterator, NamedTuple

from .config import EnvConfig, check_field
from .inputs import InputGenerator, make_generator
from .rng import INPUT_STREAM, OBSERVATION_STREAM, SORTING_STREAM, make_stream
from .sorting import (
    apply_mode,
    base_accuracy,
    clamp01,
    classify_ratio,
    deterministic_accuracy,
    occupancy,
    purity,
    sort_transfer,
    step_reward,
)
from .types import (
    EMPTY_MIX,
    Action,
    EnvVariant,
    MaterialMix,
    Observation,
    SortingMode,
    StorageTally,
    validate_action,
)


# Read once here, as tests/test_hot_path.py asks of per-step code: CPython 3.11 does not specialize an
# attribute load from a class, and an Enum member load also runs EnumType's __getattr__ hook.
_ADVANCED = EnvVariant.ADVANCED
_new_tuple = tuple.__new__
_flatten = chain.from_iterable


class EpisodeDoneError(RuntimeError):
    """step() was called on a finished episode."""


@dataclass(slots=True)
class EnvState:
    """Mutable snapshot of the line.

    ``accuracy`` belongs to the batch currently on the belt;
    ``machine_accuracy`` is the value that batch carried when it moved on.
    ``speed_index`` is the last step's speed, 0 before the first step.
    """

    input: MaterialMix
    belt: MaterialMix
    machine: MaterialMix
    storage: StorageTally
    speed_index: int
    accuracy: float
    machine_accuracy: float
    step_count: int


class StepResult(NamedTuple):
    observation: Observation
    reward: float
    done: bool
    info: dict[str, Any]


# Inputs an episode's tape draws at a time, ahead of the steps (no draw depends on the actions).
TAPE_CHUNK = 256


def draw_tape(config: EnvConfig, generator: InputGenerator, obs_stream: random.Random, count: int) -> Iterator[tuple]:
    """The next ``count`` inputs of an episode as (mix, occupancy, observed total, category) entries: the mixes, one
    ``generator.draw()`` each; their occupancies; their observed totals, one multiplicative ``obs_stream`` draw each
    at a positive noise level, else the occupancies (``obs_stream`` unread); their ratio categories, None in basic."""
    draw, level = generator.draw, config.obs_noise_level
    mixes = [draw() for _ in range(count)]
    occs = totals = [occupancy(mix) for mix in mixes]  # level 0: occ * (1.0 + (-0.0 + 0.0 * u)) is occ, in [0, 1]
    if level > 0.0:
        uniform01 = obs_stream.random  # uniform(-level, level) written out: level + level is exactly level - (-level)
        totals = [clamp01(occ * (1.0 + (-level + (level + level) * uniform01()))) for occ in occs]
    advanced = config.variant is _ADVANCED
    return zip(mixes, occs, totals, [classify_ratio(mix) for mix in mixes] if advanced else [None] * count)


def open_episode(config: EnvConfig, root: int, steps: int) -> tuple[random.Random, Iterator[tuple]]:
    """Root seed ``root``'s sorting stream, and ``draw_tape``'s entries for the ``steps + 1`` inputs a
    ``steps``-step episode reads, the first input and then one per step (from its input stream, and its
    observation stream, made only at a positive noise level), drawn ``TAPE_CHUNK`` at most at a time as read."""
    generator = make_generator(config.input_type, make_stream(root, INPUT_STREAM))
    sorting_stream = make_stream(root, SORTING_STREAM)
    obs_stream = make_stream(root, OBSERVATION_STREAM) if config.obs_noise_level > 0.0 else None
    starts = range(0, steps + 1, TAPE_CHUNK)
    chunks = (draw_tape(config, generator, obs_stream, min(TAPE_CHUNK, steps + 1 - s)) for s in starts)
    return sorting_stream, _flatten(chunks)


def price_step(
    action: Action, occ: float, correct: SortingMode | None,
    config: EnvConfig, stream: random.Random, last: int,
) -> tuple[float, float]:
    """The accuracy a belt batch of occupancy ``occ`` and true category ``correct`` gets
    under ``action`` (one draw of ``stream``), and the step's reward, which pays ``action_penalty``
    if the speed differs from ``last``, the previous step's speed: 0 before an episode's first."""
    speed, mode = action.speed_index, action.mode
    if mode is None:  # a valid action carries a mode exactly in the advanced variant
        accuracy = base_accuracy(speed, occ, config, stream)
    else:
        accuracy = apply_mode(deterministic_accuracy(speed, occ, config), mode, correct, config, stream)
    return accuracy, step_reward(accuracy, speed, config, last != 0 and speed != last)


class SortingLineEnv:
    """Deterministic, seedable simulator of the two-material sorting line."""

    def __init__(self, config: EnvConfig):
        self.config = config
        self._state: EnvState | None = None
        self._sorting_stream = None
        self._tape = None  # the episode's (mix, occupancy, observed total, category) entries yet to come
        self._obs: Observation | None = None
        self._input_occupancy = 0.0  # occupancy(state.input), read with _obs

    @property
    def state(self) -> EnvState:
        if self._state is None:
            raise RuntimeError("reset() must be called first")
        return self._state

    def reset(self, seed: int | None = None) -> Observation:
        """Start a fresh episode; ``seed`` overrides the configured root seed."""
        root = self.config.seed if seed is None else check_field("seed", seed)
        self._sorting_stream, self._tape = open_episode(self.config, root, self.config.episode_length)
        mix, self._input_occupancy, total, category = next(self._tape)
        self._obs = _new_tuple(Observation, (total, category))
        self._state = EnvState(
            input=mix,
            belt=EMPTY_MIX,
            machine=EMPTY_MIX,
            storage=StorageTally(),
            speed_index=0,
            accuracy=1.0,
            machine_accuracy=1.0,
            step_count=0,
        )
        return self.observe()

    def observe(self) -> Observation:
        """Observation of the input stage, read with each fresh input from the episode's tape (``draw_tape``) by
        reset() and step().  Repeated calls return it again; before reset() this raises ``RuntimeError``."""
        self._state or self.state  # the property raises before reset()
        return self._obs

    def step(self, action: Action) -> StepResult:
        """Advance the line one step:

        1. sort the machine contents into storage, in place, at their carried accuracy
        2. shift belt -> machine, input -> belt, read the fresh input and its observation from the tape
        3. apply the action's speed (and mode) to the belt batch, by ``price_step``
        4. recompute accuracy for the belt batch (occupancy and category drawn with it on the tape)
        5. reward from that accuracy and speed, minus the penalty if the speed differs from the last step's
        6. observe the fresh input, as the tape drew it
        """
        state = self._state or self.state  # the property raises before reset()
        config = self.config
        validate_action(action, config.variant)  # before the end check; Action checked the speed
        if state.step_count >= config.episode_length:
            raise EpisodeDoneError("episode is finished; call reset()")
        occ, correct = self._input_occupancy, self._obs.ratio_category  # of the next belt batch

        sort_transfer(state.machine, state.machine_accuracy, state.storage)

        state.machine = state.belt
        state.machine_accuracy = state.accuracy
        state.belt = state.input
        state.input, self._input_occupancy, total, category = next(self._tape)

        accuracy, reward = price_step(action, occ, correct, config, self._sorting_stream, state.speed_index)
        state.speed_index, state.accuracy = action.speed_index, accuracy

        state.step_count = step_count = state.step_count + 1
        info = {
            "accuracy": accuracy,
            "occupancy": occ,
            "speed": state.speed_index / 10.0,  # speed_fraction(speed)
            "purity": purity(state.storage),
            "mode_correct": None if action.mode is None else action.mode is correct,
        }
        # Built in C by tuple.__new__, as is StepResult: NamedTuple's generated __new__ runs Python.
        self._obs = _new_tuple(Observation, (total, category))
        return _new_tuple(StepResult, (self._obs, reward, step_count >= config.episode_length, info))
