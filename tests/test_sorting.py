"""Sorter physics: pinned examples plus property tests for the invariants."""

import itertools
import math
from dataclasses import astuple, replace

import pytest
from hypothesis import given, strategies as st

from sortline.config import EnvConfig
from sortline.rng import SORTING_STREAM, make_stream
from sortline.sorting import (
    CORRECT_MODE_BONUS,
    INCORRECT_MODE_MALUS,
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
from sortline.types import STAGE_CAPACITY, MaterialMix, SortingMode, StorageTally

CONFIG = EnvConfig()


def pinned(lo_hi):
    """Config whose sorting noise is a point mass, so draws are exact."""
    return replace(
        CONFIG,
        base_noise_range=lo_hi,
        correct_mode_noise_range=lo_hi,
        incorrect_mode_noise_range=lo_hi,
    )


def stream():
    return make_stream(0, SORTING_STREAM)


mixes = st.builds(
    lambda total, frac: MaterialMix(total * frac, total * (1.0 - frac)),
    st.floats(0.0, 100.0),
    st.floats(0.0, 1.0),
)


class TestOccupancy:
    def test_examples(self):
        assert occupancy(MaterialMix(30.0, 20.0)) == 0.5
        assert occupancy(MaterialMix(0.0, 0.0)) == 0.0
        assert occupancy(MaterialMix(60.0, 40.0)) == 1.0

    @given(mixes)
    def test_range(self, mix):
        assert 0.0 <= occupancy(mix) <= 1.0


class TestAccuracySurface:
    def test_perfect_within_limit(self):
        assert deterministic_accuracy(5, 0.6, CONFIG) == 1.0
        assert deterministic_accuracy(1, 1.0, CONFIG) == 1.0

    def test_linear_drop_past_limit(self):
        # speed 5 tolerates 0.6; 0.1 over costs 0.3 at the default abatement
        assert deterministic_accuracy(5, 0.7, CONFIG) == pytest.approx(0.7)
        assert deterministic_accuracy(5, 0.8, CONFIG) == pytest.approx(0.4)

    def test_clamped_at_zero(self):
        assert deterministic_accuracy(10, 1.0, CONFIG) == 0.0

    def test_base_accuracy_subtracts_noise(self):
        assert base_accuracy(5, 0.5, pinned((0.0, 0.0)), stream()) == 1.0
        assert base_accuracy(5, 0.5, pinned((0.12, 0.12)), stream()) == pytest.approx(0.88)
        assert base_accuracy(10, 1.0, pinned((0.12, 0.12)), stream()) == 0.0

    def test_noise_draw_stays_in_range(self):
        s = stream()
        values = [base_accuracy(1, 0.0, CONFIG, s) for _ in range(500)]
        assert all(0.85 <= v <= 0.90 for v in values)
        assert len(set(values)) > 400

    @given(st.integers(1, 10), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_monotone_nonincreasing_in_occupancy(self, speed, o1, o2):
        lo, hi = sorted((o1, o2))
        assert deterministic_accuracy(speed, lo, CONFIG) >= deterministic_accuracy(speed, hi, CONFIG)

    @given(st.floats(0.0, 1.0))
    def test_monotone_nonincreasing_in_speed(self, occ):
        values = [deterministic_accuracy(speed, occ, CONFIG) for speed in range(1, 11)]
        assert values == sorted(values, reverse=True)


class TestClassifyRatio:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (80.0, 20.0, SortingMode.POSITIVE),  # ratio 4
            (20.0, 80.0, SortingMode.NEGATIVE),
            (50.0, 50.0, SortingMode.BASIC),
            (75.0, 25.0, SortingMode.BASIC),  # exactly 3:1 stays basic
            (25.0, 75.0, SortingMode.BASIC),
            (5.0, 0.0, SortingMode.POSITIVE),
            (0.0, 5.0, SortingMode.NEGATIVE),
            (0.0, 0.0, SortingMode.BASIC),
        ],
    )
    def test_examples(self, a, b, expected):
        assert classify_ratio(MaterialMix(a, b)) is expected

    @given(mixes)
    def test_swap_symmetry(self, mix):
        mirrored = classify_ratio(MaterialMix(mix.b, mix.a))
        original = classify_ratio(mix)
        flips = {
            SortingMode.POSITIVE: SortingMode.NEGATIVE,
            SortingMode.NEGATIVE: SortingMode.POSITIVE,
            SortingMode.BASIC: SortingMode.BASIC,
        }
        assert mirrored is flips[original]


class TestApplyMode:
    def test_correct_mode_bonus_caps_at_one(self):
        value = apply_mode(0.9, SortingMode.BASIC, SortingMode.BASIC, pinned((0.0, 0.0)), stream())
        assert value == 1.0

    def test_correct_mode_noise(self):
        value = apply_mode(
            0.8, SortingMode.POSITIVE, SortingMode.POSITIVE, pinned((0.05, 0.05)), stream()
        )
        assert value == pytest.approx(0.9)

    def test_incorrect_mode_floors_then_subtracts(self):
        value = apply_mode(
            0.05, SortingMode.POSITIVE, SortingMode.NEGATIVE, pinned((0.1, 0.1)), stream()
        )
        assert value == 0.0
        value = apply_mode(
            0.75, SortingMode.NEGATIVE, SortingMode.BASIC, pinned((0.1, 0.1)), stream()
        )
        assert value == pytest.approx(0.55)

    @staticmethod
    def capped_by_builtins(alpha, chosen, correct, config, stream):
        """apply_mode as it was written with min and max."""
        if chosen is correct:
            adjusted = min(alpha + CORRECT_MODE_BONUS, 1.0)
            lo, hi = config.correct_mode_noise_range
        else:
            adjusted = max(alpha - INCORRECT_MODE_MALUS, 0.0)
            lo, hi = config.incorrect_mode_noise_range
        return clamp01(adjusted - stream.uniform(lo, hi))

    @pytest.mark.parametrize("chosen", [SortingMode.BASIC, SortingMode.POSITIVE], ids=["fitting", "missing"])
    @given(alpha=st.floats(0.0, 1.0))
    def test_caps_as_min_and_max_do(self, chosen, alpha):
        for config in (CONFIG, pinned((0.0, 0.0))):
            ours, theirs = stream(), stream()
            for value in (alpha, 1.0 - CORRECT_MODE_BONUS, INCORRECT_MODE_MALUS, 0.0, 1.0):
                got = apply_mode(value, chosen, SortingMode.BASIC, config, ours)
                assert got == self.capped_by_builtins(value, chosen, SortingMode.BASIC, config, theirs)
            assert ours.getstate() == theirs.getstate()

    @pytest.mark.parametrize("chosen", [SortingMode.BASIC, SortingMode.POSITIVE], ids=["fitting", "missing"])
    def test_nan_accuracy_stays_nan(self, chosen):
        assert math.isnan(apply_mode(math.nan, chosen, SortingMode.BASIC, CONFIG, stream()))

    @given(st.floats(0.0, 1.0))
    def test_result_stays_in_unit_interval(self, alpha):
        s = stream()
        for chosen in SortingMode:
            value = apply_mode(alpha, chosen, SortingMode.BASIC, CONFIG, s)
            assert 0.0 <= value <= 1.0


class TestSortTransfer:
    def test_even_split_example(self):
        sorted_mix, delta = sort_transfer(MaterialMix(50.0, 50.0), 0.8)
        assert delta.a_true == pytest.approx(40.0)
        assert delta.a_false == pytest.approx(10.0)
        assert delta.b_true == pytest.approx(40.0)
        assert delta.b_false == pytest.approx(10.0)
        assert sum(sorted_mix) == pytest.approx(100.0)

    def test_perfect_accuracy(self):
        sorted_mix, delta = sort_transfer(MaterialMix(30.0, 20.0), 1.0)
        assert sorted_mix == (30.0, 20.0)
        assert delta.a_false == 0.0 and delta.b_false == 0.0

    def test_rejects_bad_accuracy(self):
        with pytest.raises(ValueError):
            sort_transfer(MaterialMix(1.0, 1.0), 1.5)

    @given(mixes, st.floats(0.0, 1.0))
    def test_conserves_mass(self, mix, alpha):
        sorted_mix, delta = sort_transfer(mix, alpha)
        assert sum(sorted_mix) == pytest.approx(mix.total, rel=1e-12, abs=1e-12)
        assert delta.total == pytest.approx(mix.total, rel=1e-12, abs=1e-12)

    @given(mixes, st.floats(0.0, 1.0))
    def test_single_batch_purity_equals_accuracy(self, mix, alpha):
        if mix.total < 1e-9:
            return  # subnormal-scale quantities quantize away the identity
        tally = StorageTally()
        sort_transfer(mix, alpha, tally)
        assert purity(tally) == pytest.approx(alpha, abs=1e-12)

    def test_adding_in_place_matches_the_batch_tally_added(self):
        """The batch's four parts, written out, are added in field order to the
        tally given, bit for bit; the fresh form makes the same adds into a zero
        tally, so a -0.0 part lands as +0.0.  The pair is the containers' sums."""
        parts = (-0.0, 0.0, 1e-9, 1 / 3, 12.5, 49.99, 60.0, 100.0)
        alphas = (0.0, 1e-12, 0.1, 1 / 3, 0.5, 0.65, 0.8, 0.999999, 1.0)
        for a, b, alpha in itertools.product(parts, parts, alphas):
            if a + b > STAGE_CAPACITY:
                continue
            mix = MaterialMix(a, b)
            batch = (alpha * a, (1.0 - alpha) * b, alpha * b, (1.0 - alpha) * a)
            pair = [(batch[0] + batch[1]).hex(), (batch[2] + batch[3]).hex()]
            for start in (None, (0.0, 0.0, 0.0, 0.0), (40.1, 7.3, 1e-7, 250.0 / 3)):
                storage = None if start is None else StorageTally(*start)
                got_pair, got = sort_transfer(mix, alpha, storage)
                assert storage is None or got is storage
                want = [s + x for s, x in zip(start or (0.0, 0.0, 0.0, 0.0), batch)]
                assert type(got_pair) is tuple
                assert [x.hex() for x in got_pair] == pair
                assert [x.hex() for x in astuple(got)] == [x.hex() for x in want]
        _, fresh = sort_transfer(MaterialMix(-0.0, 0.0), 1.0)
        assert fresh.a_true.hex() == (0.0).hex()


class TestPurity:
    def test_empty_storage_counts_as_pure(self):
        assert purity(StorageTally()) == 1.0

    def test_example(self):
        assert purity(StorageTally(40.0, 10.0, 40.0, 10.0)) == pytest.approx(0.8)

    def test_all_misrouted(self):
        assert purity(StorageTally(0.0, 7.0, 0.0, 3.0)) == 0.0


class TestStepReward:
    def test_below_threshold_is_flat(self):
        assert step_reward(0.65, 10, CONFIG, speed_changed=False) == pytest.approx(-0.1)

    def test_penalty_applies_even_below_threshold(self):
        config = replace(CONFIG, action_penalty=0.5)
        assert step_reward(0.5, 5, config, speed_changed=True) == pytest.approx(-0.6)

    def test_top_corner_scores_one(self):
        assert step_reward(1.0, 10, CONFIG, speed_changed=False) == 1.0

    def test_accuracy_term_alone(self):
        # slowest speed zeroes the speed term
        assert step_reward(0.85, 1, CONFIG, speed_changed=False) == pytest.approx(0.25)

    def test_threshold_accuracy_scores_speed_only(self):
        assert step_reward(0.7, 10, CONFIG, speed_changed=False) == pytest.approx(0.5)

    def test_unchanged_speed_never_pays_penalty(self):
        config = replace(CONFIG, action_penalty=0.5)
        assert step_reward(1.0, 10, config, speed_changed=False) == 1.0

    @given(st.floats(0.7, 1.0), st.floats(0.7, 1.0))
    def test_monotone_in_accuracy(self, a1, a2):
        lo, hi = sorted((a1, a2))
        assert step_reward(lo, 5, CONFIG, False) <= step_reward(hi, 5, CONFIG, False)

    @given(st.floats(0.7, 1.0))
    def test_monotone_in_speed(self, alpha):
        rewards = [step_reward(alpha, speed, CONFIG, False) for speed in range(1, 11)]
        assert rewards == sorted(rewards)
