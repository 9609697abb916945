"""Environment semantics: pipeline order, rewards, conservation, determinism."""

import itertools
import random
from dataclasses import replace

import pytest

from sortline.config import ConfigError, EnvConfig
from sortline.env import EpisodeDoneError, SortingLineEnv, apply_observation_noise
from sortline.rng import OBSERVATION_STREAM, make_stream
from sortline.sorting import classify_ratio, deterministic_accuracy, occupancy, purity, step_reward
from sortline.types import (
    EMPTY_MIX,
    SPEED_INDICES,
    STAGE_CAPACITY,
    Action,
    EnvVariant,
    InputType,
    MaterialMix,
    SortingMode,
    StorageTally,
    action_count,
    action_from_index,
    speed_fraction,
)

NOISELESS = EnvConfig(base_noise_range=(0.0, 0.0))


def pipeline_total(env):
    state = env.state
    return state.input.total + state.belt.total + state.machine.total + state.storage.total


class TestReset:
    def test_starts_with_an_empty_line_and_a_fresh_draw(self):
        env = SortingLineEnv(EnvConfig())
        obs = env.reset(seed=42)
        state = env.state
        assert state.belt == EMPTY_MIX and state.machine == EMPTY_MIX
        assert state.storage.total == 0.0
        assert state.step_count == 0
        assert state.input != EMPTY_MIX
        assert obs.input_total == state.input.total / 100.0  # zero obs noise
        assert obs.ratio_category is None

    def test_invalid_config_is_rejected(self):
        with pytest.raises(ConfigError):
            SortingLineEnv(EnvConfig(episode_length=0))

    def test_state_requires_reset(self):
        env = SortingLineEnv(EnvConfig())
        with pytest.raises(RuntimeError):
            env.state
        with pytest.raises(RuntimeError):
            env.step(Action(1))

    def test_advanced_observation_carries_the_true_category(self):
        env = SortingLineEnv(EnvConfig(variant=EnvVariant.ADVANCED))
        obs = env.reset(seed=42)
        assert obs.ratio_category is classify_ratio(env.state.input)

    def test_seed_override_beats_config_seed(self):
        env = SortingLineEnv(EnvConfig(seed=1))
        first = env.reset(seed=42)
        env2 = SortingLineEnv(EnvConfig(seed=42))
        assert env2.reset() == first


class TestObservationNoise:
    def test_perturbation_math(self):
        assert apply_observation_noise(0.5, 0.0) == 0.5
        assert apply_observation_noise(0.5, 0.1) == pytest.approx(0.55)
        assert apply_observation_noise(0.9, 0.3) == 1.0  # clamped high
        assert apply_observation_noise(0.5, -1.5) == 0.0  # clamped low

    def test_zero_level_observation_is_exact(self):
        env = SortingLineEnv(EnvConfig())
        env.reset(seed=7)
        for _ in range(20):
            result = env.step(Action(3))
            assert result.observation.input_total == env.state.input.total / 100.0

    def test_noisy_observations_stay_normalized(self):
        env = SortingLineEnv(EnvConfig(obs_noise_level=0.3, episode_length=200))
        env.reset(seed=7)
        for _ in range(200):
            result = env.step(Action(3))
            assert 0.0 <= result.observation.input_total <= 1.0

    def test_observation_noise_does_not_disturb_the_input_stream(self):
        clean = SortingLineEnv(EnvConfig())
        noisy = SortingLineEnv(EnvConfig(obs_noise_level=0.3))
        clean.reset(seed=11)
        noisy.reset(seed=11)
        for _ in range(30):
            clean.step(Action(4))
            noisy.step(Action(4))
            assert clean.state.input == noisy.state.input
            assert clean.state.accuracy == noisy.state.accuracy

    def test_observe_is_idempotent_within_a_step(self):
        config = EnvConfig(variant=EnvVariant.ADVANCED, obs_noise_level=0.3)

        def run(extra_calls):
            env = SortingLineEnv(config)
            trail = [env.reset(seed=1)]
            for i in range(30):
                for _ in range(extra_calls):
                    assert env.observe() == trail[-1]
                result = env.step(Action(1 + i % 10, SortingMode.POSITIVE))
                trail.append(result.observation)
            return trail

        assert run(extra_calls=2) == run(extra_calls=0)

    @pytest.mark.parametrize("level", [0.0, 0.15, 0.3])
    def test_noise_is_the_stdlib_uniform_draw(self, level):
        # observe() writes uniform(-level, level) out; each fresh input must
        # see exactly the stdlib's draw on the observation stream.
        for seed in range(20):
            env = SortingLineEnv(EnvConfig(obs_noise_level=level, episode_length=40))
            reference = make_stream(seed, OBSERVATION_STREAM)
            observations = [env.reset(seed=seed)]
            inputs = [env.state.input]
            for _ in range(40):
                observations.append(env.step(Action(5)).observation)
                inputs.append(env.state.input)
            for obs, mix in zip(observations, inputs):
                u = reference.uniform(-level, level)
                assert obs.input_total == apply_observation_noise(occupancy(mix), u), seed


class TestStepPipeline:
    def test_first_two_steps_sort_nothing(self):
        env = SortingLineEnv(EnvConfig())
        env.reset(seed=42)
        for expected_purity in (1.0, 1.0):
            result = env.step(Action(5))
            assert env.state.storage.total == 0.0
            assert result.info["purity"] == expected_purity

    def test_accuracy_travels_with_the_batch(self):
        env = SortingLineEnv(NOISELESS)
        env.reset(seed=42)
        first_batch = env.state.input

        env.step(Action(8))  # fast: depressed accuracy for the first batch
        assert env.state.belt == first_batch
        alpha_fast = env.state.accuracy
        assert alpha_fast == deterministic_accuracy(8, first_batch.total / 100.0, NOISELESS)
        assert 0.0 < alpha_fast < 1.0

        env.step(Action(1))  # slow: perfect accuracy for the second batch
        assert env.state.machine == first_batch
        assert env.state.machine_accuracy == alpha_fast
        assert env.state.accuracy == 1.0

        result = env.step(Action(1))
        storage = env.state.storage
        assert storage.a_true == pytest.approx(alpha_fast * first_batch.a, rel=1e-12)
        assert storage.b_true == pytest.approx(alpha_fast * first_batch.b, rel=1e-12)
        assert storage.a_false == pytest.approx((1 - alpha_fast) * first_batch.b, rel=1e-12)
        assert result.info["purity"] == pytest.approx(alpha_fast, abs=1e-12)

    def test_known_machine_contents_sort_as_expected(self):
        env = SortingLineEnv(EnvConfig())
        env.reset(seed=0)
        env.state.machine = MaterialMix(50.0, 50.0)
        env.state.machine_accuracy = 0.8
        env.step(Action(1))
        storage = env.state.storage
        assert storage.a_true == pytest.approx(40.0)
        assert storage.a_false == pytest.approx(10.0)
        assert storage.b_true == pytest.approx(40.0)
        assert storage.b_false == pytest.approx(10.0)

    def test_reward_matches_the_formula_and_penalty_rules(self):
        config = replace(NOISELESS, action_penalty=0.5)
        env = SortingLineEnv(config)
        env.reset(seed=5)
        for speed, changed in ((4, False), (4, False), (7, True), (7, False), (2, True)):
            result = env.step(Action(speed))
            expected = step_reward(result.info["accuracy"], speed, config, speed_changed=changed)
            assert result.reward == pytest.approx(expected, abs=1e-12)

    def test_info_reports_the_belt_occupancy(self):
        env = SortingLineEnv(EnvConfig())
        env.reset(seed=8)
        pending = env.state.input
        result = env.step(Action(2))
        assert result.info["occupancy"] == pending.total / 100.0
        assert result.info["speed"] == 0.2

    def test_advanced_mode_correctness_flag(self):
        env = SortingLineEnv(EnvConfig(variant=EnvVariant.ADVANCED))
        obs = env.reset(seed=13)
        for _ in range(15):
            matching = obs.ratio_category
            result = env.step(Action(5, matching))
            assert result.info["mode_correct"] is True
            obs = result.observation
        wrong = SortingMode.NEGATIVE if obs.ratio_category is not SortingMode.NEGATIVE else SortingMode.POSITIVE
        result = env.step(Action(5, wrong))
        assert result.info["mode_correct"] is False

    def test_basic_variant_has_no_mode_flag(self):
        env = SortingLineEnv(EnvConfig())
        env.reset(seed=1)
        assert env.step(Action(1)).info["mode_correct"] is None

    def test_action_validation(self):
        env = SortingLineEnv(EnvConfig())
        env.reset(seed=1)
        with pytest.raises(ValueError):
            env.step(Action(0))
        with pytest.raises(ValueError):
            env.step(Action(11))
        with pytest.raises(ValueError):
            env.step(Action(5, SortingMode.POSITIVE))
        advanced = SortingLineEnv(EnvConfig(variant=EnvVariant.ADVANCED))
        advanced.reset(seed=1)
        with pytest.raises(ValueError):
            advanced.step(Action(5))
        with pytest.raises(ValueError):
            advanced.step(Action(3, "positive"))  # a name, not a mode
        assert advanced.state.step_count == 0
        # A refused step leaves the line as it was: no shift, draw or sort.
        for line, mode in ((env, None), (advanced, SortingMode.BASIC)):
            for _ in range(3):
                line.step(Action(4, mode))
            before = repr(line.state)
            for speed in (5.0, True, "5"):
                with pytest.raises(ValueError):
                    line.step(Action(speed, mode))
                assert repr(line.state) == before
            fresh = SortingLineEnv(line.config)
            fresh.reset(seed=1)
            for _ in range(3):
                fresh.step(Action(4, mode))
            assert line.step(Action(5, mode)) == fresh.step(Action(5, mode))


class TestEpisodeBoundary:
    def test_done_fires_exactly_at_the_configured_length(self):
        env = SortingLineEnv(EnvConfig(episode_length=5))
        env.reset(seed=3)
        flags = [env.step(Action(2)).done for _ in range(5)]
        assert flags == [False, False, False, False, True]
        with pytest.raises(EpisodeDoneError):
            env.step(Action(2))

    def test_reset_reopens_the_episode(self):
        env = SortingLineEnv(EnvConfig(episode_length=1))
        env.reset(seed=3)
        env.step(Action(2))
        env.reset(seed=3)
        assert env.step(Action(2)).done is True


class TestConservationAndDeterminism:
    @pytest.mark.parametrize("variant", list(EnvVariant))
    @pytest.mark.parametrize("input_type", list(InputType))
    def test_mass_is_conserved(self, variant, input_type):
        config = EnvConfig(variant=variant, input_type=input_type, episode_length=60)
        env = SortingLineEnv(config)
        env.reset(seed=77)
        generated = env.state.input.total
        rng = random.Random(77)
        for _ in range(60):
            env.step(action_from_index(rng.randrange(action_count(variant)), variant))
            generated += env.state.input.total
            assert pipeline_total(env) == pytest.approx(generated, rel=1e-9)

    def test_stage_capacity_holds_everywhere(self):
        env = SortingLineEnv(EnvConfig(episode_length=200))
        env.reset(seed=21)
        for _ in range(200):
            env.step(Action(6))
            for mix in (env.state.input, env.state.belt, env.state.machine):
                assert mix.total <= 100.0 + 1e-9

    def test_identical_seeds_replay_identically(self):
        def run():
            env = SortingLineEnv(EnvConfig(variant=EnvVariant.ADVANCED, obs_noise_level=0.3))
            obs = env.reset(seed=99)
            trail = [obs]
            rng = random.Random(1)
            for _ in range(40):
                action = action_from_index(rng.randrange(30), EnvVariant.ADVANCED)
                result = env.step(action)
                trail.append((result.observation, result.reward, result.done))
            return trail

        assert run() == run()

    def test_different_seeds_diverge(self):
        env = SortingLineEnv(EnvConfig())
        a = env.reset(seed=1)
        b = env.reset(seed=2)
        assert a != b


def test_inlined_copies_match_the_helpers_they_name():
    """The step path spells out a few helpers inline; each copy must agree
    with its helper bit for bit."""
    quantities = (0.0, 1e-9, 0.1, 1 / 3, 12.5, 40.0, 49.99999, 50.0, 66.7, 99.9999999, 100.0)
    got, want = [], []

    # occupancy: mix.total / STAGE_CAPACITY, capped at 1.
    for a, b in itertools.product(quantities, repeat=2):
        if a + b <= STAGE_CAPACITY + 1e-6:
            mix = MaterialMix(a, b)
            got.append(occupancy(mix))
            want.append(min(mix.total / STAGE_CAPACITY, 1.0))

    # deterministic_accuracy: config.limit_for_speed(speed).
    limits = (1.0, 0.95, 0.8, 0.8, 0.61, 0.5, 0.33, 0.2, 0.1, 0.0)
    configs = (EnvConfig(), EnvConfig(abatement=7.25, occupancy_limits=limits))
    for config, speed, k in itertools.product(configs, SPEED_INDICES, range(101)):
        occ = k / 100.0
        limit = config.limit_for_speed(speed)
        got.append(deterministic_accuracy(speed, occ, config))
        want.append(1.0 if occ <= limit else min(max(1.0 - (occ - limit) * config.abatement, 0.0), 1.0))

    # purity: tally.total in the denominator.
    for fields in itertools.product((0.0, 1e-9, 0.25, 1 / 3, 40.0, 99.5), repeat=4):
        tally = StorageTally(*fields)
        got.append(purity(tally))
        want.append(1.0 if tally.total == 0.0 else (tally.a_true + tally.b_true) / tally.total)

    # step_reward's speed term: speed_fraction(speed).
    config = EnvConfig(threshold=0.65, r_acc=0.4, r_speed=0.75, action_penalty=0.5)
    for speed, k, changed in itertools.product(SPEED_INDICES, range(66, 101), (False, True)):
        alpha = k / 100.0
        accuracy_term = config.r_acc * (alpha - config.threshold) / (1.0 - config.threshold)
        speed_term = config.r_speed * (speed_fraction(speed) - 0.1) / 0.9
        got.append(step_reward(alpha, speed, config, changed))
        want.append(accuracy_term + speed_term - (config.action_penalty if changed else 0.0))

    # info["speed"]: speed_fraction(speed).
    for variant in EnvVariant:
        mode = SortingMode.BASIC if variant is EnvVariant.ADVANCED else None
        env = SortingLineEnv(EnvConfig(variant=variant, episode_length=len(SPEED_INDICES)))
        env.reset(seed=4)
        for speed in SPEED_INDICES:
            got.append(env.step(Action(speed, mode)).info["speed"])
            want.append(speed_fraction(speed))

    assert [x.hex() for x in got] == [y.hex() for y in want]
