"""The sorting-line environment: reset, the six-phase step, observation.

Material flows input -> belt -> machine -> storage, advancing one full stage
per step.  The accuracy for a batch is fixed while it sits on the belt (from
the speed and, in the advanced variant, the mode chosen that step) and
travels with the batch into the machine, so each batch is sorted with the
accuracy the agent bought for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple

from .config import EnvConfig
from .inputs import InputGenerator, make_generator
from .rng import INPUT_STREAM, OBSERVATION_STREAM, SORTING_STREAM, make_stream
from .sorting import (
    apply_mode,
    base_accuracy,
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
    StorageTally,
    validate_action,
)


class EpisodeDoneError(RuntimeError):
    """step() was called on a finished episode."""


@dataclass(slots=True)
class EnvState:
    """Mutable snapshot of the line.

    ``accuracy`` belongs to the batch currently on the belt;
    ``machine_accuracy`` is the value that batch carried when it moved on.
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


def apply_observation_noise(total: float, u: float) -> float:
    """Multiplicative perturbation of a normalized total, clamped to [0, 1]."""
    observed = total * (1.0 + u)
    return 0.0 if observed < 0.0 else 1.0 if observed > 1.0 else observed


class SortingLineEnv:
    """Deterministic, seedable simulator of the two-material sorting line."""

    def __init__(self, config: EnvConfig):
        self.config = config
        self._state: EnvState | None = None
        self._generator: InputGenerator | None = None
        self._sorting_stream = None
        self._obs_stream = None
        self._obs: Observation | None = None

    @property
    def state(self) -> EnvState:
        if self._state is None:
            raise RuntimeError("reset() must be called first")
        return self._state

    def reset(self, seed: int | None = None) -> Observation:
        """Start a fresh episode; ``seed`` overrides the configured root seed."""
        root = self.config.seed if seed is None else seed
        self._generator = make_generator(self.config.input_type, make_stream(root, INPUT_STREAM))
        self._sorting_stream = make_stream(root, SORTING_STREAM)
        self._obs_stream = make_stream(root, OBSERVATION_STREAM)
        self._obs = None
        self._state = EnvState(
            input=self._generator.draw(),
            belt=EMPTY_MIX,
            machine=EMPTY_MIX,
            storage=StorageTally(),
            speed_index=1,
            accuracy=1.0,
            machine_accuracy=1.0,
            step_count=0,
        )
        return self.observe()

    def observe(self) -> Observation:
        """Observation of the input stage: the normalized total, perturbed by
        one multiplicative uniform draw, plus the true ratio category in the
        advanced variant.  Consumes one draw per fresh input, even at zero
        noise level; repeated calls within a step return the same observation."""
        if self._obs is None:
            state = self._state or self.state  # the property raises before reset()
            level = self.config.obs_noise_level
            # uniform(-level, level) written out; level + level is exactly level - (-level).
            u = -level + (level + level) * self._obs_stream.random()
            observed = apply_observation_noise(occupancy(state.input), u)
            if self.config.variant is EnvVariant.ADVANCED:
                self._obs = Observation(observed, classify_ratio(state.input))
            else:
                self._obs = Observation(observed)
        return self._obs

    def step(self, action: Action) -> StepResult:
        """Advance the line one step:

        1. sort the machine contents into storage at their carried accuracy
        2. shift belt -> machine, input -> belt, draw fresh input
        3. apply the action's speed (and mode)
        4. recompute accuracy for the batch now on the belt
        5. reward from that accuracy and speed, minus any change penalty
        6. observe the fresh input
        """
        state = self._state or self.state  # the property raises before reset()
        config = self.config
        if state.step_count >= config.episode_length:
            raise EpisodeDoneError("episode is finished; call reset()")
        validate_action(action, config.variant)
        speed, mode = action.speed_index, action.mode

        if state.machine != EMPTY_MIX:
            _, delta = sort_transfer(state.machine, state.machine_accuracy)
            state.storage.add(delta)

        state.machine = state.belt
        state.machine_accuracy = state.accuracy
        state.belt = belt = state.input
        state.input = self._generator.draw()
        self._obs = None

        speed_changed = state.step_count > 0 and speed != state.speed_index
        state.speed_index = speed

        # A valid action carries a mode exactly in the advanced variant.
        occ = occupancy(belt)
        if mode is None:
            mode_correct = None
            accuracy = base_accuracy(speed, occ, config, self._sorting_stream)
        else:
            correct = classify_ratio(belt)
            mode_correct = mode is correct
            pre_noise = deterministic_accuracy(speed, occ, config)
            accuracy = apply_mode(pre_noise, mode, correct, config, self._sorting_stream)
        state.accuracy = accuracy

        reward = step_reward(accuracy, speed, config, speed_changed)

        state.step_count = step_count = state.step_count + 1
        info = {
            "accuracy": accuracy,
            "occupancy": occ,
            "speed": speed / 10.0,  # speed_fraction(speed)
            "purity": purity(state.storage),
            "mode_correct": mode_correct,
        }
        return StepResult(self.observe(), reward, step_count >= config.episode_length, info)
