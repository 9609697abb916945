"""Domain type invariants and the action-space encoding."""

import math
import re

import numpy as np
import pytest

from sortline.sorting import sort_transfer
from sortline.types import (
    ACTIONS,
    EMPTY_MIX,
    Action,
    EnvVariant,
    MaterialMix,
    SortingMode,
    StorageTally,
    action_count,
    action_from_index,
    speed_fraction,
    validate_action,
)


class TestMaterialMix:
    def test_total(self):
        assert MaterialMix(30.0, 20.0).total == 50.0

    def test_empty(self):
        assert MaterialMix(0.0, 0.0) == EMPTY_MIX
        assert MaterialMix(0.0, 0.1) != EMPTY_MIX

    def test_rejects_negative_quantities(self):
        with pytest.raises(ValueError):
            MaterialMix(-1.0, 5.0)
        with pytest.raises(ValueError):
            MaterialMix(5.0, -0.001)

    def test_rejects_over_capacity(self):
        with pytest.raises(ValueError):
            MaterialMix(60.0, 41.0)
        MaterialMix(60.0, 40.0)  # exactly full is fine

    @pytest.mark.parametrize("a, b", [(math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan)])
    def test_rejects_nan(self, a, b):
        with pytest.raises(ValueError):
            MaterialMix(a, b)

    def test_is_a_validated_immutable_named_tuple(self):
        mix = MaterialMix(30.0, 20.0)
        assert mix == (30.0, 20.0)
        assert repr(mix) == "MaterialMix(a=30.0, b=20.0)"
        with pytest.raises(AttributeError):
            mix.a = 1.0
        with pytest.raises(ValueError):
            mix._replace(b=-1.0)
        assert mix._replace(b=70.0) == MaterialMix(30.0, 70.0)


def test_speed_fraction_grid():
    assert [speed_fraction(i) for i in range(1, 11)] == [
        0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
    ]


def test_sorting_mode_from_name():
    assert SortingMode.from_name("Positive") is SortingMode.POSITIVE
    with pytest.raises(ValueError):
        SortingMode.from_name("sideways")


class TestActionSpace:
    def test_counts(self):
        assert action_count(EnvVariant.BASIC) == 10
        assert action_count(EnvVariant.ADVANCED) == 30

    @pytest.mark.parametrize("variant", list(EnvVariant))
    def test_index_round_trip(self, variant):
        actions = ACTIONS[variant]
        assert len(actions) == action_count(variant)
        assert len(set(actions)) == len(actions)
        for i, action in enumerate(actions):
            assert action_from_index(i, variant) == action

    def test_lower_speeds_come_first(self):
        speeds = [a.speed_index for a in ACTIONS[EnvVariant.ADVANCED]]
        assert speeds == sorted(speeds)

    def test_validation(self):
        validate_action(Action(1), EnvVariant.BASIC)
        validate_action(Action(10, SortingMode.NEGATIVE), EnvVariant.ADVANCED)
        with pytest.raises(ValueError):
            validate_action(Action(0), EnvVariant.BASIC)
        with pytest.raises(ValueError):
            validate_action(Action(11), EnvVariant.BASIC)
        with pytest.raises(ValueError):
            validate_action(Action(5, SortingMode.BASIC), EnvVariant.BASIC)
        with pytest.raises(ValueError):
            validate_action(Action(5), EnvVariant.ADVANCED)
        with pytest.raises(ValueError, match=r"basic\|positive\|negative"):
            validate_action(Action(3, "positive"), EnvVariant.ADVANCED)  # a name, not a mode
        for speed in (5.0, True, np.int64(5), "5", None):  # the speed index must be an int, not a bool
            with pytest.raises(ValueError):
                validate_action(Action(speed), EnvVariant.BASIC)

    @pytest.mark.parametrize("speed", [True, 5.0, np.int64(5), "5", None, 0, 11])
    def test_an_action_checks_its_speed_when_built(self, speed):
        message = rf"^speed index must be an int in 1\.\.10, got {re.escape(repr(speed))}$"
        for mode in (None, SortingMode.POSITIVE, "positive"):  # the mode is not checked here
            with pytest.raises(ValueError, match=message):
                Action(speed, mode)

    def test_index_range_checks(self):
        with pytest.raises(ValueError):
            action_from_index(10, EnvVariant.BASIC)
        with pytest.raises(ValueError):
            action_from_index(-1, EnvVariant.ADVANCED)


def test_storage_tally_accumulates():
    tally = StorageTally()
    sort_transfer(MaterialMix(50.0, 50.0), 0.8, tally)  # about 40, 10, 40, 10
    sort_transfer(MaterialMix(1.0, 0.0), 1.0, tally)
    assert tally.a_true == 41.0
    assert tally.total == 101.0
