"""Raw material arriving at the line: fully random or seasonal patterns.

Draw order per step is frozen (regression-tested):

* random:    total, then A-fraction                     (2 draws)
* seasonal:  pattern index and phase length when a new phase starts,
             then total, then A-fraction                (2 or 4 draws)
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

from .types import InputType, MaterialMix


class SeasonLevel(Enum):
    LITTLE = "little"
    MEDIUM = "medium"
    MUCH = "much"


class RatioRegime(Enum):
    A_HEAVY = "a-heavy"
    BALANCED = "balanced"
    B_HEAVY = "b-heavy"


# Total material per step (percent of capacity) by volume level.
LEVEL_RANGES = {
    SeasonLevel.LITTLE: (10.0, 30.0),
    SeasonLevel.MEDIUM: (40.0, 60.0),
    SeasonLevel.MUCH: (70.0, 90.0),
}

# Share of material A by ratio regime.
REGIME_A_FRACTION = {
    RatioRegime.A_HEAVY: (0.70, 0.90),
    RatioRegime.BALANCED: (0.40, 0.60),
    RatioRegime.B_HEAVY: (0.10, 0.30),
}

PHASE_LENGTH_CHOICES = (10, 11, 12)

# The nine seasonal patterns in fixed order: level-major, regime-minor.
PATTERNS = tuple((level, regime) for level in SeasonLevel for regime in RatioRegime)

RANDOM_TOTAL_RANGE = (5.0, 95.0)


def _split(total: float, a_fraction: float) -> MaterialMix:
    a = total * a_fraction
    return MaterialMix(a, total - a)


class RandomInputGenerator:
    """Uniform total in [5, 95] percent with a uniform A/B split."""

    def __init__(self, stream: random.Random):
        self._stream = stream

    def draw(self) -> MaterialMix:
        total = self._stream.uniform(*RANDOM_TOTAL_RANGE)
        return _split(total, self._stream.uniform(0.0, 1.0))


@dataclass(slots=True)
class SeasonalPhase:
    level: SeasonLevel
    regime: RatioRegime
    length: int
    remaining: int


class SeasonalInputGenerator:
    """Piecewise-stationary input: one of nine (level, regime) patterns held
    for 10 to 12 steps, with totals and splits re-drawn inside the pattern's
    ranges every step."""

    def __init__(self, stream: random.Random):
        self._stream = stream
        self.phase: SeasonalPhase | None = None
        self.phases_started = 0

    def _start_phase(self) -> SeasonalPhase:
        level, regime = PATTERNS[self._stream.randrange(len(PATTERNS))]
        length = self._stream.randrange(PHASE_LENGTH_CHOICES[0], PHASE_LENGTH_CHOICES[-1] + 1)
        self.phases_started += 1
        return SeasonalPhase(level, regime, length, remaining=length)

    def draw(self) -> MaterialMix:
        if self.phase is None or self.phase.remaining == 0:
            self.phase = self._start_phase()
        self.phase.remaining -= 1
        total = self._stream.uniform(*LEVEL_RANGES[self.phase.level])
        return _split(total, self._stream.uniform(*REGIME_A_FRACTION[self.phase.regime]))


InputGenerator = RandomInputGenerator | SeasonalInputGenerator


def make_generator(input_type: InputType, stream: random.Random) -> InputGenerator:
    if input_type is InputType.RANDOM:
        return RandomInputGenerator(stream)
    return SeasonalInputGenerator(stream)
