"""Configuration defaults, validation, parsing, and digests."""

import math
import re

import pytest

from sortline.bench import standard_setups
from sortline.config import (
    DEFAULT_OCCUPANCY_LIMITS,
    ConfigError,
    EnvConfig,
    config_from_mapping,
    load_config_file,
)
from sortline.types import EnvVariant, InputType


def test_documented_defaults():
    config = EnvConfig()
    assert config.variant is EnvVariant.BASIC
    assert config.input_type is InputType.RANDOM
    assert config.threshold == 0.7
    assert config.abatement == 3.0
    assert config.r_acc == 0.5
    assert config.r_speed == 0.5
    assert config.base_noise_range == (0.10, 0.15)
    assert config.correct_mode_noise_range == (0.0, 0.05)
    assert config.incorrect_mode_noise_range == (0.10, 0.15)
    assert config.obs_noise_level == 0.0
    assert config.action_penalty == 0.0
    assert config.episode_length == 50
    config.validate()


def test_default_occupancy_limits_descend_from_one():
    assert DEFAULT_OCCUPANCY_LIMITS == (1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1)
    config = EnvConfig()
    assert config.limit_for_speed(1) == 1.0
    assert config.limit_for_speed(10) == 0.1


@pytest.mark.parametrize(
    "overrides",
    [
        {"threshold": 0.0},
        {"threshold": 1.0},
        {"episode_length": 0},
        {"obs_noise_level": -0.1},
        {"action_penalty": -1.0},
        {"abatement": -3.0},
        {"base_noise_range": (0.2, 0.1)},
        {"correct_mode_noise_range": (-0.1, 0.2)},
        {"occupancy_limits": (1.0,) * 9},
        {"occupancy_limits": (0.1,) * 9 + (1.5,)},
        {"occupancy_limits": (0.1,) * 9 + (0.2,)},
        {"obs_noise_level": math.inf},
        {"action_penalty": math.nan},
        {"abatement": math.inf},
        {"r_acc": math.nan},
        {"r_speed": math.inf},
        {"base_noise_range": (0.1, math.inf)},
        {"correct_mode_noise_range": (math.inf, math.inf)},
        {"incorrect_mode_noise_range": (math.nan, 0.2)},
        {"r_acc": 1.7e308, "r_speed": 1.7e308},
        {"action_penalty": 1e308},  # scales above config.MAX_SCALE: returns or their squares overflow
        {"r_acc": 1e200, "r_speed": 1e200},
        {"r_speed": 1.000001e6},
        {"episode_length": 2.5},
        {"episode_length": math.inf},
        {"episode_length": True},
        {"episode_length": "50"},
        {"seed": 1.5},
        {"seed": True},
        {"obs_noise_level": 1e308},  # level + level overflows, so every observed total reads 1.0
        {"obs_noise_level": 1.000001e6},
    ],
)
def test_validation_rejects(overrides):
    from dataclasses import replace

    with pytest.raises(ConfigError):
        replace(EnvConfig(), **overrides).validate()


def test_scales_at_the_bound_are_accepted():
    EnvConfig(obs_noise_level=1e6, action_penalty=1e6, r_acc=1e6, r_speed=1e6).validate()
    EnvConfig(abatement=1e308).validate()  # unbounded: the accuracy drop it scales is clamped to [0, 1]


class TestDigest:
    def test_equal_configs_share_a_digest(self):
        assert EnvConfig().digest() == EnvConfig().digest()
        assert EnvConfig(r_acc=1).digest() == EnvConfig(r_acc=1.0).digest()
        assert EnvConfig(obs_noise_level=-0.0).digest() == EnvConfig().digest()
        assert EnvConfig(correct_mode_noise_range=(-0.0, 0.05)).digest() == EnvConfig().digest()

    def test_any_field_changes_it(self):
        base = EnvConfig().digest()
        assert config_from_mapping({"seed": 1}).digest() != base
        assert config_from_mapping({"variant": "advanced"}).digest() != base

    def test_shape(self):
        digest = EnvConfig().digest()
        assert len(digest) == 12
        int(digest, 16)

    # Traces and reports are tagged with these; a change of the hashed text shows here.
    PINNED = {
        ("basic", "A"): "bc3c53584cfe",
        ("basic", "B"): "b74c6402cb7c",
        ("basic", "C"): "cc29cd20a919",
        ("basic", "D"): "10e46a5e0b65",
        ("advanced", "A"): "075b38f9e94f",
        ("advanced", "B"): "916cba5314b1",
        ("advanced", "C"): "56abf6b39dcc",
        ("advanced", "D"): "515a4f335b97",
    }

    def test_standard_cells_are_pinned(self):
        digests = {
            (variant.value, name): config.digest()
            for variant in EnvVariant
            for name, config in standard_setups(variant).items()
        }
        assert digests == self.PINNED

    def test_normalised_and_parsed_configs_are_pinned(self):
        assert EnvConfig(r_acc=1).digest() == "5dbb31b8565e"
        assert EnvConfig(obs_noise_level=-0.0).digest() == "bc3c53584cfe"
        assert EnvConfig(seed=2**70).digest() == "87d439769b62"
        parsed = config_from_mapping(
            {
                "variant": "ADVANCED",
                "input_type": "seasonal",
                "obs_noise_level": "0.3",
                "episode_length": "250",
                "seed": "42",
                "base_noise_range": "0.1, 0.2",
            }
        )
        assert parsed.digest() == "aabcecfc6104"

    @pytest.mark.parametrize("seed, stored", [(3, 3), (3.0, 3), (2**70, 2**70), (-1, -1)])
    def test_a_seed_stands_in_for_the_root_seed(self, seed, stored):
        from dataclasses import replace

        for config in (EnvConfig(), standard_setups(EnvVariant.ADVANCED)["D"]):
            assert config.digest(seed) == replace(config, seed=stored).digest()
            assert config.digest() == replace(config, seed=config.seed).digest()

    @pytest.mark.parametrize("seed", [True, "3", 2.5])
    def test_a_seed_is_checked_as_the_field_is(self, seed):
        with pytest.raises(ConfigError, match=f"^bad value for 'seed': {re.escape(repr(seed))}$"):
            EnvConfig().digest(seed)


class TestFromMapping:
    def test_string_values(self):
        config = config_from_mapping(
            {
                "variant": "advanced",
                "input_type": "seasonal",
                "obs_noise_level": "0.3",
                "action_penalty": "0.5",
                "episode_length": "250",
                "seed": "42",
                "base_noise_range": "0.1, 0.2",
            }
        )
        assert config.variant is EnvVariant.ADVANCED
        assert config.input_type is InputType.SEASONAL
        assert config.obs_noise_level == 0.3
        assert config.episode_length == 250
        assert config.base_noise_range == (0.1, 0.2)

    def test_typed_values_pass_through(self):
        config = config_from_mapping(
            {"threshold": 0.8, "base_noise_range": [0.0, 0.0], "episode_length": 250.0}
        )
        assert config.threshold == 0.8
        assert config.base_noise_range == (0.0, 0.0)
        assert config.episode_length == 250 and type(config.episode_length) is int

    def test_base_is_preserved(self):
        base = config_from_mapping({"threshold": 0.9})
        config = config_from_mapping({"seed": 5}, base=base)
        assert config.threshold == 0.9
        assert config.seed == 5

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"velocity": 1})

    def test_keys_are_matched_verbatim(self):
        # Folding " seed" into "seed" would let the last spelling win silently.
        with pytest.raises(ConfigError, match="unknown config key ' seed'"):
            config_from_mapping({"seed": 1, " seed": 2})

    def test_bad_value(self):
        for mapping in (
            {"threshold": "fast"},
            {"base_noise_range": "0.1"},
            {"episode_length": 1.5},
            {"episode_length": "1.5"},
            {"episode_length": "nan"},
            {"seed": "1e400"},
            {"seed": "inf"},
            {"seed": True},
            {"r_acc": True},
            {"base_noise_range": [False, 0.2]},
            {"base_noise_range": 5},
        ):
            with pytest.raises(ConfigError):
                config_from_mapping(mapping)
        # A refused text is quoted as given, not as the number it parsed to.
        for name, text in (("seed", "1e400"), ("seed", "inf"), ("episode_length", "1.5"), ("threshold", "fast")):
            with pytest.raises(ConfigError, match=re.escape(f"bad value for {name!r}: {text!r}")):
                config_from_mapping({name: text})

    def test_result_is_validated(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"threshold": 2.0})

    def test_integral_numbers_in_text_are_ints(self):
        # Read as the same numbers decoded from JSON are: an integral float becomes an int.
        for text, number in (("50.0", 50.0), ("1e3", 1e3), ("7", 7), ("-0.0", -0.0)):
            from_text = config_from_mapping({"seed": text})
            assert from_text == config_from_mapping({"seed": number}) and type(from_text.seed) is int
        assert config_from_mapping({"episode_length": "50.0"}).episode_length == 50
        # An int text is read as an int, exactly, however many digits it has.
        assert config_from_mapping({"seed": "123456789012345678901"}).seed == 123456789012345678901


def test_construction_validates():
    with pytest.raises(ConfigError):
        EnvConfig(threshold=2.0)


class TestCanonicalForm:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"input_type": "random"},
            {"variant": "advanced"},
            {"variant": InputType.RANDOM},
            {"obs_noise_level": True},
            {"r_acc": "x"},
            {"r_acc": 2**1100},
            {"seed": 2.5},
            {"base_noise_range": (0.1,)},
            {"base_noise_range": (0.1, "0.2")},
            {"base_noise_range": "0.1, 0.2"},
        ],
    )
    def test_construction_refuses_other_forms(self, overrides):
        (name,) = overrides
        with pytest.raises(ConfigError, match=f"^bad value for '{name}'"):
            EnvConfig(**overrides)

    def test_a_list_is_stored_as_a_tuple(self):
        config = EnvConfig(base_noise_range=[0.1, 0.15])
        assert config.base_noise_range == (0.1, 0.15) and type(config.base_noise_range) is tuple
        assert config == EnvConfig()
        assert hash(config) == hash(EnvConfig())

    def test_numbers_take_the_type_of_their_default(self):
        config = EnvConfig(r_acc=1, episode_length=40.0, occupancy_limits=(1,) * 10)
        assert config.r_acc == 1.0 and type(config.r_acc) is float
        assert config.episode_length == 40 and type(config.episode_length) is int
        assert all(type(x) is float for x in config.occupancy_limits)

    def test_negative_zero_is_stored_as_zero(self):
        config = EnvConfig(obs_noise_level=-0.0, correct_mode_noise_range=(-0.0, 0.05))
        assert math.copysign(1.0, config.obs_noise_level) == 1.0
        assert math.copysign(1.0, config.correct_mode_noise_range[0]) == 1.0


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# benchmark setup B\n"
            "variant = basic\n"
            "input_type = seasonal   # phased input\n"
            "action_penalty = 0.5\n"
            "occupancy_limits = 1.0 0.9 0.8 0.7 0.6 0.5 0.4 0.3 0.2 0.1\n"
            "\n"
            "seed = 7\n"
        )
        config = load_config_file(path)
        assert config.input_type is InputType.SEASONAL
        assert config.action_penalty == 0.5
        assert config.seed == 7

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("threshold 0.9\n")
        with pytest.raises(ConfigError):
            load_config_file(path)

    def test_repeated_key(self, tmp_path):
        # The last value used to win silently: this file ran seed 2.
        path = tmp_path / "twice.cfg"
        path.write_text("seed = 1\n# comment\nthreshold = 0.6\n seed=2\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:4: repeated key 'seed'"):
            load_config_file(path)

    def test_leading_byte_order_mark_is_ignored(self, tmp_path):
        path = tmp_path / "bom.cfg"
        path.write_text("\ufeffseed = 3\n", encoding="utf-8")
        assert load_config_file(path).seed == 3
