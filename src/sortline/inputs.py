"""Raw material arriving at the line: fully random or seasonal patterns.

Draw order per step is frozen (regression-tested):

* random:    total, then A-fraction                     (2 draws)
* seasonal:  pattern index and phase length when a new phase starts,
             then total, then A-fraction                (2 or 4 draws)
"""

from __future__ import annotations

import random

from .types import InputType, MaterialMix

# Total material per step (percent of capacity) by volume level: little,
# medium, much.
LEVEL_RANGES = ((10.0, 30.0), (40.0, 60.0), (70.0, 90.0))

# Share of material A by ratio regime: A-heavy, balanced, B-heavy.
REGIME_A_FRACTION = ((0.70, 0.90), (0.40, 0.60), (0.10, 0.30))

PHASE_LENGTH_CHOICES = (10, 11, 12)

# The nine seasonal patterns as (total range, A-share range) pairs in fixed
# order: level-major, regime-minor.
PATTERNS = tuple((total, share) for total in LEVEL_RANGES for share in REGIME_A_FRACTION)

RANDOM_TOTAL_RANGE = (5.0, 95.0)

# MaterialMix's checked __new__, called directly: a class call runs it from type.__call__, which CPython cannot inline.
_new_mix = MaterialMix.__new__


class RandomInputGenerator:
    """Uniform total in [5, 95] percent with a uniform A/B split."""

    def __init__(self, stream: random.Random):
        self._stream = stream

    def draw(self) -> MaterialMix:
        # CPython's own uniform(lo, hi), written out: the same draw and float.
        lo, hi = RANDOM_TOTAL_RANGE
        uniform01 = self._stream.random
        total = lo + (hi - lo) * uniform01()
        a = total * uniform01()  # uniform(0.0, 1.0) is exactly random()
        return _new_mix(MaterialMix, a, total - a)


class SeasonalInputGenerator:
    """Piecewise-stationary input: one of nine (level, regime) patterns held
    for 10 to 12 steps, with totals and splits re-drawn inside the pattern's
    ranges every step.  ``pattern`` is the current entry of ``PATTERNS`` and
    ``remaining`` the number of steps it still holds."""

    def __init__(self, stream: random.Random):
        self._stream = stream
        self.pattern: tuple[tuple[float, float], tuple[float, float]] | None = None
        self.remaining = 0

    def draw(self) -> MaterialMix:
        if self.remaining == 0:
            self.pattern = PATTERNS[self._stream.randrange(len(PATTERNS))]
            self.remaining = self._stream.randrange(PHASE_LENGTH_CHOICES[0], PHASE_LENGTH_CHOICES[-1] + 1)
        self.remaining -= 1
        (lo, hi), (share_lo, share_hi) = self.pattern
        stream = self._stream
        # uniform(lo, hi) written out, as in RandomInputGenerator.draw.
        total = lo + (hi - lo) * stream.random()
        a = total * (share_lo + (share_hi - share_lo) * stream.random())
        return _new_mix(MaterialMix, a, total - a)


InputGenerator = RandomInputGenerator | SeasonalInputGenerator


def make_generator(input_type: InputType, stream: random.Random) -> InputGenerator:
    if input_type is InputType.RANDOM:
        return RandomInputGenerator(stream)
    return SeasonalInputGenerator(stream)
