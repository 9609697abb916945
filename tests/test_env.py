"""Environment semantics: pipeline order, rewards, conservation, determinism."""

import itertools
import math
import random
from dataclasses import astuple, replace

import pytest

from conftest import record_streams
from sortline.bench import standard_setups
from sortline.config import ConfigError, EnvConfig
from sortline.env import EpisodeDoneError, SortingLineEnv, StepResult, open_episode, price_step
from sortline.inputs import make_generator
from sortline.rng import INPUT_STREAM, OBSERVATION_STREAM, SORTING_STREAM, make_stream
from sortline.sorting import (
    clamp01,
    classify_ratio,
    deterministic_accuracy,
    occupancy,
    purity,
    sort_transfer,
    step_reward,
)
from sortline.types import (
    ACTIONS,
    EMPTY_MIX,
    SPEED_INDICES,
    STAGE_CAPACITY,
    Action,
    EnvVariant,
    InputType,
    MaterialMix,
    Observation,
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


def random_episodes(seed):
    """Whole episodes in the 8 standard cells under random actions (modes
    drawn at random in the advanced variant): for every step, the batch about
    to move onto the belt (the input before the step), the action and the result."""
    rng = random.Random(seed)
    for variant in EnvVariant:
        for config in standard_setups(variant).values():
            env = SortingLineEnv(config)
            env.reset(seed=rng.randrange(1000))
            for _ in range(config.episode_length):
                belt = env.state.input
                action = action_from_index(rng.randrange(action_count(variant)), variant)
                yield belt, action, env.step(action)


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
        with pytest.raises(RuntimeError):
            env.observe()

    def test_advanced_observation_carries_the_true_category(self):
        env = SortingLineEnv(EnvConfig(variant=EnvVariant.ADVANCED))
        obs = env.reset(seed=42)
        assert obs.ratio_category is classify_ratio(env.state.input)

    def test_seed_override_beats_config_seed(self):
        env = SortingLineEnv(EnvConfig(seed=1))
        first = env.reset(seed=42)
        env2 = SortingLineEnv(EnvConfig(seed=42))
        assert env2.reset() == first

    def test_seed_is_read_as_the_seed_field_is(self):
        env = SortingLineEnv(EnvConfig())
        first = env.reset(seed=3.0), env.state.input
        assert (env.reset(seed=3), env.state.input) == first
        for bad in (True, "3", 2.5):
            with pytest.raises(ConfigError, match="seed"):
                env.reset(seed=bad)


class TestObservationNoise:
    def test_perturbation_math(self):
        assert clamp01(0.5 * (1.0 + 0.0)) == 0.5
        assert clamp01(0.5 * (1.0 + 0.1)) == pytest.approx(0.55)
        assert clamp01(0.9 * (1.0 + 0.3)) == 1.0  # clamped high
        assert clamp01(0.5 * (1.0 + -1.5)) == 0.0  # clamped low

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
        # draw_tape writes uniform(-level, level) out; each fresh input must see
        # exactly what the stdlib's draw on the observation stream gives, which
        # at level 0, where the env makes no draw, is the occupancy itself.
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
                assert obs.input_total == clamp01(occupancy(mix) * (1.0 + u)), seed


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

    def test_storage_folds_the_batch_tallies_in_order(self):
        """In every standard cell, a whole episode's storage is the fresh
        tallies of the machine's batches, the first two empty ones included,
        added in order."""
        rng = random.Random(21)
        for variant in EnvVariant:
            for config in standard_setups(variant).values():
                env = SortingLineEnv(config)
                env.reset(seed=rng.randrange(1000))
                want = [0.0, 0.0, 0.0, 0.0]
                for _ in range(config.episode_length):
                    _, batch = sort_transfer(env.state.machine, env.state.machine_accuracy)
                    want = [w + x for w, x in zip(want, astuple(batch))]
                    env.step(action_from_index(rng.randrange(action_count(variant)), variant))
                assert [x.hex() for x in astuple(env.state.storage)] == [x.hex() for x in want]

    def test_reward_matches_the_formula_and_penalty_rules(self):
        for variant, mode in ((EnvVariant.BASIC, None), (EnvVariant.ADVANCED, SortingMode.NEGATIVE)):
            config = replace(NOISELESS, variant=variant, action_penalty=0.5)
            env = SortingLineEnv(config)
            env.reset(seed=5)
            assert env.state.speed_index == 0  # no previous step
            for speed, changed in ((4, False), (4, False), (7, True), (7, False), (2, True)):
                result = env.step(Action(speed, mode))
                expected = step_reward(result.info["accuracy"], speed, config, speed_changed=changed)
                assert result.reward == pytest.approx(expected, abs=1e-12)
                assert env.state.speed_index == speed

    def test_info_reports_the_belt_occupancy(self):
        env = SortingLineEnv(EnvConfig())
        env.reset(seed=8)
        pending = env.state.input
        result = env.step(Action(2))
        assert result.info["occupancy"] == pending.total / 100.0
        assert result.info["speed"] == 0.2
        for belt, _, result in random_episodes(seed=8):
            assert result.info["occupancy"] == occupancy(belt)

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
        flags = []
        for belt, action, result in random_episodes(seed=13):
            mode = action.mode
            expected = None if mode is None else mode is classify_ratio(belt)
            assert result.info["mode_correct"] is expected
            flags.append(expected)
        assert {None, True, False} <= set(flags)

    def test_records_are_whole_and_of_their_type(self):
        # The env builds them with tuple.__new__, which skips NamedTuple's arity check.
        for variant in EnvVariant:
            env = SortingLineEnv(EnvConfig(variant=variant))
            observations = [env.reset(seed=6)]
            for action in ACTIONS[variant]:
                result = env.step(action)
                assert type(result) is StepResult and len(result) == len(StepResult._fields)
                observations.append(result.observation)
            for obs in observations:
                assert type(obs) is Observation and len(obs) == len(Observation._fields)

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

    @pytest.mark.parametrize("variant", list(EnvVariant))
    def test_a_bad_mode_is_refused_before_the_end_check(self, variant):
        """A mode the variant does not take is a ValueError, ended episode or not."""
        env = SortingLineEnv(EnvConfig(variant=variant, episode_length=1))
        env.reset(seed=3)
        good = ACTIONS[variant][0]
        bad = Action(2) if variant is EnvVariant.ADVANCED else Action(2, SortingMode.POSITIVE)
        with pytest.raises(ValueError, match="mode"):
            env.step(bad)
        assert env.step(good).done  # the episode's one step
        with pytest.raises(ValueError, match="mode"):
            env.step(bad)
        with pytest.raises(EpisodeDoneError):
            env.step(good)

    def test_reset_reopens_the_episode(self):
        env = SortingLineEnv(EnvConfig(episode_length=1))
        env.reset(seed=3)
        env.step(Action(2))
        env.reset(seed=3)
        assert env.step(Action(2)).done is True


CHUNK = 256  # env.TAPE_CHUNK: the inputs an episode's tape draws at a time


def stream_states(streams):
    return {label: stream.getstate() for label, stream in streams.items()}


class TestTape:
    """reset() and step() read each input and its observation from a tape drawn a
    chunk at a time; across chunk boundaries they must see exactly what one input
    draw and, at a positive noise level, one stdlib observation draw per step give,
    and never draw further ahead."""

    @pytest.mark.parametrize("level", [0.0, 0.3])
    @pytest.mark.parametrize("steps", [0, CHUNK - 1, CHUNK, 2 * CHUNK + 2])
    def test_opening_an_episode_draws_nothing_until_a_chunk_is_read(self, monkeypatch, steps, level):
        config = EnvConfig(variant=EnvVariant.ADVANCED, input_type=InputType.SEASONAL, obs_noise_level=level)
        opened = record_streams(monkeypatch)
        generator_type, drawn = type(make_generator(config.input_type, random.Random())), [0]
        draw = generator_type.draw

        def counting_draw(self):
            drawn[0] += 1
            return draw(self)

        monkeypatch.setattr(generator_type, "draw", counting_draw)
        sorting_stream, entries = open_episode(config, 13, steps)
        assert sorting_stream is dict(opened)[SORTING_STREAM]
        # A clean sensor (level 0) observes each total exactly: no observation stream is made.
        labels = [INPUT_STREAM, SORTING_STREAM] + [OBSERVATION_STREAM] * (level > 0.0)
        assert [label for label, _ in opened] == labels and drawn[0] == 0
        assert stream_states(dict(opened)) == stream_states({label: make_stream(13, label) for label in labels})
        read = 0
        for read, entry in enumerate(entries, 1):  # mix, occupancy, observed total, category
            assert type(entry) is tuple and len(entry) == 4
            assert drawn[0] == min(CHUNK * math.ceil(read / CHUNK), steps + 1), read
            if level == 0.0:
                assert entry[2] == entry[1] == occupancy(entry[0]), read
        assert read == steps + 1 and len(opened) == len(labels)

    @staticmethod
    def stepped_against_reference(monkeypatch, config, seed, steps):
        """Step an env ``steps`` times, comparing each input, observation and belt
        occupancy with draws made step by step; an input drawn ``CHUNK`` or more
        entries ahead of the one read fails at once.  Returns the env, the streams
        it opened (input, sorting, and observation at a positive noise level) and
        the reference streams, each by label."""
        opened = record_streams(monkeypatch)
        level, advanced = config.obs_noise_level, config.variant is EnvVariant.ADVANCED
        generator = make_generator(config.input_type, make_stream(seed, INPUT_STREAM))
        noise, sorting = make_stream(seed, OBSERVATION_STREAM), make_stream(seed, SORTING_STREAM)
        read, drawn = [1], [0]  # reset reads the first input
        draw = type(generator).draw

        def guarded_draw(self):
            if self is not generator:
                drawn[0] += 1
                assert drawn[0] < read[0] + CHUNK, f"input {drawn[0]} drawn while reading input {read[0]}"
            return draw(self)

        monkeypatch.setattr(type(generator), "draw", guarded_draw)

        def expected():
            mix = generator.draw()
            total = clamp01(occupancy(mix) * (1.0 + noise.uniform(-level, level)))
            return mix, Observation(total, classify_ratio(mix) if advanced else None)

        line = SortingLineEnv(config)
        observation = line.reset(seed=seed)
        actions = ACTIONS[config.variant]
        for t in range(steps + 1):
            mix, want = expected()
            assert (observation, line.state.input) == (want, mix), t
            if t == steps:
                reference = {INPUT_STREAM: generator._stream, SORTING_STREAM: sorting}
                if level > 0.0:
                    reference[OBSERVATION_STREAM] = noise
                return line, dict(opened), reference
            read[0] += 1
            result = line.step(actions[t % len(actions)])
            sorting.random()  # the step's one accuracy draw
            assert result.info["occupancy"] == occupancy(mix), t
            observation = result.observation

    @pytest.mark.parametrize("variant", list(EnvVariant))
    @pytest.mark.parametrize("input_type", list(InputType))
    @pytest.mark.parametrize("level", [0.0, 0.3])
    @pytest.mark.parametrize("length", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
    def test_episodes_across_chunk_boundaries_match_drawing_step_by_step(
        self, monkeypatch, variant, input_type, level, length,
    ):
        config = EnvConfig(variant=variant, input_type=input_type, obs_noise_level=level, episode_length=length)
        line, opened, reference = self.stepped_against_reference(monkeypatch, config, 13, length)
        assert line.state.step_count == length
        # The first input and one per step: no draw beyond what stepping draws.
        assert stream_states(opened) == stream_states(reference)

    def test_a_long_episode_is_not_drawn_ahead(self, monkeypatch):
        config = EnvConfig(variant=EnvVariant.ADVANCED, input_type=InputType.SEASONAL, obs_noise_level=0.3,
                           episode_length=10**12)
        line, _, _ = self.stepped_against_reference(monkeypatch, config, 13, 2 * CHUNK + 3)
        assert not line.step(Action(1, SortingMode.BASIC)).done


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


@pytest.mark.parametrize("variant", list(EnvVariant))
def test_price_step_charges_a_change_of_the_last_speed(variant):
    """From equal stream states the accuracy is one float whatever ``last`` is;
    the reward drops by exactly ``action_penalty`` only when ``last`` is a
    previous step's (nonzero) speed that differs from the action's."""
    config = EnvConfig(variant=variant, action_penalty=0.5)
    mode = SortingMode.POSITIVE if variant is EnvVariant.ADVANCED else None
    action = Action(4, mode)
    for occ in (0.3, 1.0):  # above and below the accuracy threshold
        (first, paid), (same, kept), (changed, charged) = (
            price_step(action, occ, mode, config, random.Random(11), last) for last in (0, 4, 9)
        )
        assert first.hex() == same.hex() == changed.hex()
        assert kept.hex() == paid.hex()
        assert charged.hex() == (paid - config.action_penalty).hex()


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
