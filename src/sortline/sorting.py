"""Sorting physics: accuracy surface, mode effects, transfer, purity, reward.

All functions but sort_transfer (which adds into a tally it is given) are pure;
randomness enters only through a passed stream, one draw per accuracy.
"""

from __future__ import annotations

import random

from .config import EnvConfig
from .types import STAGE_CAPACITY, MaterialMix, SortingMode, StorageTally

BELOW_THRESHOLD_REWARD = -0.1
CORRECT_MODE_BONUS = 0.15
INCORRECT_MODE_MALUS = 0.10

# Ratio bounds of the mode regimes: mostly-A above 3, mostly-B below 1/3.
POSITIVE_RATIO = 3.0

# The members, read once here as tests/test_hot_path.py asks of per-step code (see env).
_BASIC, _POSITIVE, _NEGATIVE = SortingMode.BASIC, SortingMode.POSITIVE, SortingMode.NEGATIVE


def clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x


def occupancy(mix: MaterialMix) -> float:
    """Fraction of stage capacity in use, capped at 1: a full stage may carry
    the float dust ``MaterialMix`` tolerates past capacity."""
    a, b = mix
    occ = (a + b) / STAGE_CAPACITY  # mix.total
    return 1.0 if occ > 1.0 else occ


def deterministic_accuracy(speed_index: int, occ: float, config: EnvConfig) -> float:
    """Pre-noise accuracy: perfect up to the speed's occupancy limit, then a
    linear drop of ``abatement`` per unit of excess occupancy, clamped to [0, 1]."""
    limit = config.occupancy_limits[speed_index - 1]  # config.limit_for_speed(speed_index)
    if occ <= limit:
        return 1.0
    return clamp01(1.0 - (occ - limit) * config.abatement)


def base_accuracy(speed_index: int, occ: float, config: EnvConfig, stream: random.Random) -> float:
    """Accuracy in the basic variant: the deterministic surface minus one
    uniform noise draw from ``base_noise_range``, clamped to [0, 1]."""
    lo, hi = config.base_noise_range
    return clamp01(deterministic_accuracy(speed_index, occ, config) - stream.uniform(lo, hi))


def classify_ratio(mix: MaterialMix) -> SortingMode:
    """Mode suited to a mix: positive when A outweighs B more than 3:1,
    negative when B outweighs A more than 3:1, basic otherwise.

    Boundary ratios count as basic; an empty mix is basic; a one-sided mix is
    positive or negative accordingly.
    """
    a, b = mix
    if a > POSITIVE_RATIO * b:
        return _POSITIVE
    if b > POSITIVE_RATIO * a:
        return _NEGATIVE
    return _BASIC


def apply_mode(
    alpha: float,
    chosen: SortingMode,
    correct: SortingMode,
    config: EnvConfig,
    stream: random.Random,
) -> float:
    """Adjust a pre-noise accuracy for the chosen mode (advanced variant).

    A correct mode adds ``CORRECT_MODE_BONUS`` (capped at 1) and draws mild
    noise; an incorrect one subtracts ``INCORRECT_MODE_MALUS`` (floored at 0)
    and draws heavy noise.
    Exactly one draw is consumed either way.
    """
    # The caps are min(x, 1.0) and max(x, 0.0) written out: the bound replaces x only when
    # x compares strictly beyond it, so ties and NaN come out as the builtins return them.
    if chosen is correct:
        adjusted = alpha + CORRECT_MODE_BONUS
        if adjusted > 1.0:
            adjusted = 1.0
        lo, hi = config.correct_mode_noise_range
    else:
        adjusted = alpha - INCORRECT_MODE_MALUS
        if adjusted < 0.0:
            adjusted = 0.0
        lo, hi = config.incorrect_mode_noise_range
    return clamp01(adjusted - stream.uniform(lo, hi))


def sort_transfer(
    machine: MaterialMix, alpha: float, into: StorageTally | None = None
) -> tuple[tuple[float, float], StorageTally]:
    """Split the machine contents between the two containers at accuracy ``alpha``.

    Adds the batch's four parts in place into ``into``, or into a fresh tally,
    and returns the container totals as a plain ``(a, b)`` pair (container A
    first) with that tally.  The transfer conserves mass.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"accuracy out of range: {alpha}")
    into = StorageTally() if into is None else into
    miss = 1.0 - alpha
    a, b = machine
    a_true, a_false = alpha * a, miss * b
    b_true, b_false = alpha * b, miss * a
    into.a_true += a_true
    into.a_false += a_false
    into.b_true += b_true
    into.b_false += b_false
    return (a_true + a_false, b_true + b_false), into


def purity(tally: StorageTally) -> float:
    """Share of stored material that sits in the right container (1.0 if empty)."""
    total = tally.a_true + tally.a_false + tally.b_true + tally.b_false  # tally.total
    if total == 0.0:
        return 1.0
    return (tally.a_true + tally.b_true) / total


def step_reward(alpha: float, speed_index: int, config: EnvConfig, speed_changed: bool) -> float:
    """Reward for one step: accuracy above the threshold and speed above the
    minimum, each rescaled to [0, 1] and weighted; accuracy below the
    threshold earns a flat -0.1.  Changing speed costs ``action_penalty``."""
    penalty = config.action_penalty if speed_changed else 0.0
    if alpha < config.threshold:
        return BELOW_THRESHOLD_REWARD - penalty
    accuracy_term = config.r_acc * (alpha - config.threshold) / (1.0 - config.threshold)
    speed_term = config.r_speed * (speed_index / 10.0 - 0.1) / 0.9  # speed_fraction(speed_index)
    return accuracy_term + speed_term - penalty
