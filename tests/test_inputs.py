"""Input generators: ranges, phase structure, distributions, golden replay."""

from collections import Counter
from pathlib import Path

import pytest

from sortline.inputs import (
    LEVEL_RANGES,
    PATTERNS,
    PHASE_LENGTH_CHOICES,
    RANDOM_TOTAL_RANGE,
    REGIME_A_FRACTION,
    RandomInputGenerator,
    SeasonalInputGenerator,
    make_generator,
)
from sortline.rng import INPUT_STREAM, make_stream
from sortline.types import InputType, MaterialMix

GOLDEN = Path(__file__).parent / "golden"


def test_make_generator_dispatch():
    stream = make_stream(0, INPUT_STREAM)
    assert isinstance(make_generator(InputType.RANDOM, stream), RandomInputGenerator)
    assert isinstance(make_generator(InputType.SEASONAL, stream), SeasonalInputGenerator)


class TestRandomInputs:
    def test_totals_and_splits_stay_in_range(self):
        gen = RandomInputGenerator(make_stream(3, INPUT_STREAM))
        for _ in range(5000):
            mix = gen.draw()
            assert 5.0 <= mix.total <= 95.0
            assert mix.a >= 0.0 and mix.b >= 0.0

    def test_deterministic_for_a_seed(self):
        a = RandomInputGenerator(make_stream(9, INPUT_STREAM))
        b = RandomInputGenerator(make_stream(9, INPUT_STREAM))
        assert [a.draw() for _ in range(100)] == [b.draw() for _ in range(100)]

    def test_sample_moments(self):
        gen = RandomInputGenerator(make_stream(12345, INPUT_STREAM))
        draws = [gen.draw() for _ in range(20000)]
        mean_total = sum(m.total for m in draws) / len(draws)
        mean_frac = sum(m.a / m.total for m in draws) / len(draws)
        assert abs(mean_total - 50.0) < 1.0
        assert abs(mean_frac - 0.5) < 0.02


class TestSeasonalInputs:
    def test_nine_patterns(self):
        assert len(PATTERNS) == 9
        assert len(set(PATTERNS)) == 9

    def test_draws_respect_the_current_phase(self):
        gen = SeasonalInputGenerator(make_stream(4, INPUT_STREAM))
        for _ in range(3000):
            mix = gen.draw()
            (lo, hi), (flo, fhi) = gen.pattern
            assert (lo, hi) in LEVEL_RANGES and (flo, fhi) in REGIME_A_FRACTION
            assert lo <= mix.total <= hi
            assert flo - 1e-12 <= mix.a / mix.total <= fhi + 1e-12

    def test_phase_lengths(self):
        gen = SeasonalInputGenerator(make_stream(5, INPUT_STREAM))
        lengths = []  # (announced length, steps actually held) per phase
        for _ in range(4000):
            starting = gen.remaining == 0
            gen.draw()
            if starting:
                lengths.append([gen.remaining + 1, 0])
            lengths[-1][1] += 1
        complete = lengths[:-1]
        assert complete, "expected several completed phases"
        for announced, held in complete:
            assert announced in PHASE_LENGTH_CHOICES
            assert held == announced

    def test_patterns_are_drawn_uniformly(self):
        gen = SeasonalInputGenerator(make_stream(6, INPUT_STREAM))
        counts = Counter()
        while sum(counts.values()) < 2000:
            starting = gen.remaining == 0
            gen.draw()
            if starting:
                counts[gen.pattern] += 1
        total = sum(counts.values())
        for pattern in PATTERNS:
            assert abs(counts[pattern] / total - 1.0 / 9.0) < 0.02

    def test_golden_sequence_seed_42(self):
        gen = SeasonalInputGenerator(make_stream(42, INPUT_STREAM))
        lines = ["step,a,b"]
        for step in range(1, 51):
            mix = gen.draw()
            lines.append(f"{step},{mix.a!r},{mix.b!r}")
        expected = (GOLDEN / "seasonal_inputs_seed42.csv").read_text()
        assert "\n".join(lines) + "\n" == expected


class TestDrawsMatchTheStdlib:
    """The generators write ``uniform`` out on their streams; for every seed
    they must give the mixes of a reference that calls ``stream.uniform`` in
    the frozen draw order, bit for bit."""

    @staticmethod
    def reference_random(stream, steps):
        for _ in range(steps):
            total = stream.uniform(*RANDOM_TOTAL_RANGE)
            a = total * stream.uniform(0.0, 1.0)
            yield (a, total - a)

    @staticmethod
    def reference_seasonal(stream, steps):
        remaining = 0
        for _ in range(steps):
            if remaining == 0:
                pattern = PATTERNS[stream.randrange(len(PATTERNS))]
                remaining = stream.randrange(PHASE_LENGTH_CHOICES[0], PHASE_LENGTH_CHOICES[-1] + 1)
            remaining -= 1
            total = stream.uniform(*pattern[0])
            a = total * stream.uniform(*pattern[1])
            yield (a, total - a)

    def test_random_generator(self):
        for seed in range(200):
            gen = RandomInputGenerator(make_stream(seed, INPUT_STREAM))
            expected = list(self.reference_random(make_stream(seed, INPUT_STREAM), 40))
            assert [gen.draw() for _ in range(40)] == expected, seed

    def test_seasonal_generator(self):
        for seed in range(200):
            gen = SeasonalInputGenerator(make_stream(seed, INPUT_STREAM))
            expected = list(self.reference_seasonal(make_stream(seed, INPUT_STREAM), 40))
            assert [gen.draw() for _ in range(40)] == expected, seed


class _OverdrawnStream:
    """A stream whose ``random()`` returns 2.0, past its range: each generator's mix then holds a negative B."""

    def random(self):
        return 2.0

    def randrange(self, start, stop=None):
        return 0 if stop is None else start


@pytest.mark.parametrize("generator", [RandomInputGenerator, SeasonalInputGenerator])
def test_drawn_mixes_pass_the_material_mix_check(generator):
    assert type(generator(make_stream(4, INPUT_STREAM)).draw()) is MaterialMix
    with pytest.raises(ValueError, match="negative or NaN material quantity"):
        generator(_OverdrawnStream()).draw()
