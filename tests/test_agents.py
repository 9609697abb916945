"""Agent policies: discretization, rule-based table, Q-learning mechanics."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sortline
from sortline import sorting
from sortline.agents import (
    BINS,
    LEARNING_RATE,
    QLearningAgent,
    RandomAgent,
    RuleBasedAgent,
    best_action,
    bin_index,
    expected_immediate_reward,
)
from sortline.config import ConfigError, EnvConfig
from sortline.env import StepResult
from sortline.types import ACTIONS, Action, EnvVariant, Observation, SortingMode


def outcome(next_total: float, reward: float, done: bool = False) -> StepResult:
    return StepResult(Observation(next_total), reward, done, {})

ZERO_NOISE = EnvConfig(base_noise_range=(0.0, 0.0))
ZERO_NOISE_ADV = EnvConfig(
    variant=EnvVariant.ADVANCED,
    base_noise_range=(0.0, 0.0),
    correct_mode_noise_range=(0.0, 0.0),
    incorrect_mode_noise_range=(0.0, 0.0),
)


class TestBinning:
    def test_edges(self):
        assert bin_index(0.0) == 0
        assert bin_index(0.05) == 1
        assert bin_index(0.9999) == 19
        assert bin_index(1.0) == 19  # top edge folds into the last bin

    def test_out_of_range_is_rejected(self):
        with pytest.raises(ValueError):
            bin_index(-0.01)
        with pytest.raises(ValueError):
            bin_index(1.01)


class TestExpectedReward:
    def test_light_load_prefers_full_speed(self):
        assert best_action(ZERO_NOISE, 0.10) == Action(10)

    def test_heavy_load_forces_the_crawl(self):
        assert best_action(ZERO_NOISE, 1.0) == Action(1)

    def test_advanced_pick_matches_the_announced_category(self):
        for category in SortingMode:
            choice = best_action(ZERO_NOISE_ADV, 0.35, category)
            assert choice.mode is category

    def test_mean_noise_is_priced_in(self):
        config = EnvConfig()  # base noise mean 0.125
        value = expected_immediate_reward(config, 0.0, Action(10))
        r_acc = 0.5 * ((1.0 - 0.125) - 0.7) / 0.3
        assert value == pytest.approx(r_acc + 0.5)

    def test_wrong_mode_scores_below_right_mode(self):
        right = expected_immediate_reward(
            ZERO_NOISE_ADV, 0.2, Action(8, SortingMode.POSITIVE), SortingMode.POSITIVE
        )
        wrong = expected_immediate_reward(
            ZERO_NOISE_ADV, 0.2, Action(8, SortingMode.NEGATIVE), SortingMode.POSITIVE
        )
        assert right > wrong

    def test_follows_the_sorting_model_mode_constants(self, monkeypatch):
        config = EnvConfig(variant=EnvVariant.ADVANCED)  # noise means 0.025 and 0.125
        action = Action(7, SortingMode.POSITIVE)  # occupancy limit 0.4
        monkeypatch.setattr(sorting, "CORRECT_MODE_BONUS", 0.3)
        monkeypatch.setattr(sorting, "INCORRECT_MODE_MALUS", 0.15)
        speed_term = 0.5 * (0.7 - 0.1) / 0.9
        # occupancy 0.5 leaves a pre-noise accuracy of 0.7; 0.3 is within the limit
        right = expected_immediate_reward(config, 0.5, action, SortingMode.POSITIVE)
        assert right == pytest.approx(0.5 * ((0.7 + 0.3 - 0.025) - 0.7) / 0.3 + speed_term)
        wrong = expected_immediate_reward(config, 0.3, action, SortingMode.NEGATIVE)
        assert wrong == pytest.approx(0.5 * ((1.0 - 0.15 - 0.125) - 0.7) / 0.3 + speed_term)


class TestRuleBasedAgent:
    def test_table_covers_every_bin(self):
        agent = RuleBasedAgent(EnvConfig())
        assert set(agent.table) == {(b, None) for b in range(BINS)}

    def test_advanced_table_always_plays_the_announced_mode(self):
        agent = RuleBasedAgent(EnvConfig(variant=EnvVariant.ADVANCED))
        assert len(agent.table) == BINS * 3
        for (_, category), action in agent.table.items():
            assert action.mode is category

    def test_act_is_a_pure_table_lookup(self):
        agent = RuleBasedAgent(EnvConfig())
        for total in (0.0, 0.33, 0.77, 1.0):
            obs = Observation(total)
            assert agent.act(obs) == agent.table[(bin_index(total), None)]

    def test_within_bin_observations_share_an_action(self):
        agent = RuleBasedAgent(EnvConfig())
        assert agent.act(Observation(0.5)) == agent.act(Observation(0.5 + 1e-9))

    def test_speeds_never_increase_with_load(self):
        agent = RuleBasedAgent(ZERO_NOISE)
        speeds = [agent.table[(b, None)].speed_index for b in range(BINS)]
        assert speeds == sorted(speeds, reverse=True)
        assert speeds[0] == 10 and speeds[-1] == 1

    def test_advanced_observation_without_category_is_rejected(self):
        agent = RuleBasedAgent(EnvConfig(variant=EnvVariant.ADVANCED))
        with pytest.raises(ValueError):
            agent.act(Observation(0.5))


class TestRandomAgent:
    def test_actions_are_valid_and_seeded(self):
        a = RandomAgent(EnvVariant.ADVANCED, seed=3)
        b = RandomAgent(EnvVariant.ADVANCED, seed=3)
        legal = set(ACTIONS[EnvVariant.ADVANCED])
        picks = [a.act(Observation(0.5)) for _ in range(50)]
        assert all(p in legal for p in picks)
        assert picks == [b.act(Observation(0.5)) for _ in range(50)]

    def test_first_draws_are_pinned(self):
        # (speed, mode) of the first 20 actions for seed 3, recorded from the
        # randrange-and-index implementation that choice() replaced.
        expected = {
            EnvVariant.BASIC: [
                (2, None), (6, None), (2, None), (9, None), (7, None), (6, None), (3, None),
                (2, None), (1, None), (1, None), (5, None), (4, None), (1, None), (10, None),
                (7, None), (10, None), (9, None), (1, None), (10, None), (8, None),
            ],
            EnvVariant.ADVANCED: [
                (2, "basic"), (4, "positive"), (2, "basic"), (6, "positive"), (5, "basic"),
                (10, "basic"), (4, "positive"), (2, "negative"), (8, "negative"), (2, "basic"),
                (1, "positive"), (1, "positive"), (3, "negative"), (3, "basic"), (1, "positive"),
                (7, "positive"), (5, "positive"), (7, "basic"), (6, "positive"), (1, "positive"),
            ],
        }
        for variant, pinned in expected.items():
            agent = RandomAgent(variant, seed=3)
            actions = [agent.act(Observation(0.5)) for _ in range(20)]
            assert [(a.speed_index, a.mode and a.mode.value) for a in actions] == pinned


class TestQLearningAgent:
    def test_state_space_sizes(self):
        assert QLearningAgent(EnvVariant.BASIC).values.shape == (20, 10)
        assert QLearningAgent(EnvVariant.ADVANCED).values.shape == (60, 30)

    def test_greedy_ties_break_toward_the_first_action(self):
        agent = QLearningAgent(EnvVariant.BASIC, seed=0)
        assert agent.act(Observation(0.4)) == Action(1)

    def test_greedy_follows_the_table(self):
        agent = QLearningAgent(EnvVariant.BASIC, seed=0)
        agent._q[bin_index(0.4)][6] = 2.5
        assert agent.act(Observation(0.4)) == Action(7)

    def test_greedy_ties_resolve_to_the_first_maximum(self):
        agent = QLearningAgent(EnvVariant.BASIC, seed=0)
        state = bin_index(0.4)
        agent._q[state][:3] = [1.0, 3.0, 3.0]
        assert agent.act(Observation(0.4)) == Action(2)
        agent.learning = True
        agent.epsilon = lambda: 0.0  # never explore
        assert agent.act(Observation(0.4)) == Action(2)
        assert agent._pending == (state, 1)

    def test_values_and_visits_are_read_only_snapshots(self):
        agent = QLearningAgent(EnvVariant.BASIC, seed=0)
        with pytest.raises(ValueError, match="read-only"):
            agent.values[3, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            agent.visits[3] = 1
        assert not agent.values.any() and not agent.visits.any()
        assert agent.values.dtype == np.float64 and agent.visits.dtype == np.int64

    def test_exploration_hits_every_action(self):
        agent = QLearningAgent(EnvVariant.BASIC, seed=5)
        agent.learning = True
        agent._planned_steps = 10_000  # no notify, so epsilon stays at EPSILON_START
        picks = {agent.act(Observation(0.2)) for _ in range(400)}
        assert picks == set(ACTIONS[EnvVariant.BASIC])

    def test_advanced_observation_needs_a_category(self):
        agent = QLearningAgent(EnvVariant.ADVANCED)
        with pytest.raises(ValueError):
            agent.act(Observation(0.5))

    def test_basic_observation_carries_no_category(self):
        agent = QLearningAgent(EnvVariant.BASIC)
        with pytest.raises(ValueError):
            agent.act(Observation(0.5, SortingMode.POSITIVE))

    def test_td_update_from_zero(self):
        agent = QLearningAgent(EnvVariant.BASIC, discount=0.9)
        agent.learning = True
        state = bin_index(0.42)
        agent._pending = (state, 0)
        agent.notify(outcome(0.9, reward=1.0))
        assert agent.values[state, 0] == pytest.approx(LEARNING_RATE * 1.0)  # 1 + 0.9 * 0 - 0
        assert agent.visits[state] == 1

    def test_td_update_bootstraps_from_the_next_state(self):
        agent = QLearningAgent(EnvVariant.BASIC, discount=0.5)
        agent.learning = True
        agent._q[bin_index(0.9)][3] = 2.0
        agent._pending = (bin_index(0.1), 0)
        agent.notify(outcome(0.9, reward=1.0))
        assert agent.values[bin_index(0.1), 0] == pytest.approx(LEARNING_RATE * (1.0 + 0.5 * 2.0))

    def test_terminal_steps_do_not_bootstrap(self):
        agent = QLearningAgent(EnvVariant.BASIC, discount=0.9)
        agent.learning = True
        agent._q[bin_index(0.9)][3] = 50.0
        agent._pending = (bin_index(0.1), 0)
        agent.notify(outcome(0.9, reward=0.25, done=True))
        assert agent.values[bin_index(0.1), 0] == pytest.approx(LEARNING_RATE * 0.25)

    def test_notify_without_learning_is_inert(self):
        agent = QLearningAgent(EnvVariant.BASIC, seed=0)
        agent.act(Observation(0.3))
        agent.notify(outcome(0.4, reward=1.0))
        assert not agent.values.any()
        assert not agent.visits.any()

    def test_epsilon_decays_linearly_then_floors(self):
        agent = QLearningAgent(EnvVariant.BASIC)
        agent._planned_steps = 1000
        agent._steps_done = 0
        assert agent.epsilon() == pytest.approx(1.0)
        agent._steps_done = 250
        assert agent.epsilon() == pytest.approx(0.525)
        agent._steps_done = 500
        assert agent.epsilon() == pytest.approx(0.05)
        agent._steps_done = 900
        assert agent.epsilon() == pytest.approx(0.05)

    def test_training_is_reproducible(self):
        config = EnvConfig(episode_length=40)

        def trained():
            agent = QLearningAgent(EnvVariant.BASIC, seed=17)
            agent.train(config, episodes=6, steps_per_episode=40)
            return agent

        first, second = trained(), trained()
        assert np.array_equal(first.values, second.values)
        assert np.array_equal(first.visits, second.visits)
        assert first.learning is False

    def test_training_needs_a_config_of_its_variant(self):
        agent = QLearningAgent(EnvVariant.BASIC, seed=0)
        with pytest.raises(ConfigError):
            agent.train(EnvConfig(variant=EnvVariant.ADVANCED), episodes=1, steps_per_episode=5)

    @pytest.mark.parametrize("discount", [math.nan, math.inf, -0.1, 1.5])
    def test_discount_must_lie_in_the_unit_interval(self, discount):
        with pytest.raises(ValueError):
            QLearningAgent(EnvVariant.BASIC, discount=discount)

    def test_training_visits_realistic_occupancies(self):
        agent = QLearningAgent(EnvVariant.BASIC, seed=17)
        agent.train(EnvConfig(), episodes=20, steps_per_episode=50)
        assert agent.visits[3:17].min() > 0


class TestQTableFiles:
    def test_round_trip_is_exact(self, tmp_path):
        agent = QLearningAgent(EnvVariant.ADVANCED, seed=9)
        agent.train(EnvConfig(variant=EnvVariant.ADVANCED), episodes=3, steps_per_episode=30)
        path = tmp_path / "policy.qt"
        agent.save(path)
        loaded = QLearningAgent.load(path)
        assert loaded.variant is EnvVariant.ADVANCED
        assert np.array_equal(loaded.values, agent.values)
        assert math.isclose(loaded.values.sum(), agent.values.sum(), rel_tol=0.0, abs_tol=0.0)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        agent = QLearningAgent(EnvVariant.BASIC, seed=4)
        agent.train(EnvConfig(), episodes=3, steps_per_episode=30)
        first, second = tmp_path / "first.qt", tmp_path / "second.qt"
        agent.save(first)
        QLearningAgent.load(first).save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_header_is_validated(self, tmp_path):
        path = tmp_path / "bad.qt"
        path.write_text("not-a-qtable 1\nbasic\n20 10\n")
        with pytest.raises(ValueError):
            QLearningAgent.load(path)

    def test_shape_is_validated(self, tmp_path):
        agent = QLearningAgent(EnvVariant.BASIC, seed=0)
        path = tmp_path / "truncated.qt"
        agent.save(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-4]) + "\n")
        with pytest.raises(ValueError):
            QLearningAgent.load(path)

    def test_other_bin_counts_are_rejected(self, tmp_path):
        path = tmp_path / "coarse.qt"
        rows = [" ".join(["0.0"] * 10)] * 10
        path.write_text("\n".join(["sortline-qtable 1", "variant basic", "bins 10", "actions 10", *rows]) + "\n")
        with pytest.raises(ValueError, match="bins"):
            QLearningAgent.load(path)

    def test_action_count_must_match_the_variant(self, tmp_path):
        path = tmp_path / "mislabelled.qt"
        rows = [" ".join(["0.0"] * 10)] * 20
        path.write_text("\n".join(["sortline-qtable 1", "variant advanced", "bins 20", "actions 10", *rows]) + "\n")
        with pytest.raises(ValueError, match="actions"):
            QLearningAgent.load(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_values_are_rejected(self, tmp_path, bad):
        path = tmp_path / "poisoned.qt"
        rows = [" ".join(["1.0"] * 10)] * 20
        rows[8] = " ".join([bad] + ["1.0"] * 9)
        path.write_text("\n".join(["sortline-qtable 1", "variant basic", "bins 20", "actions 10", *rows]) + "\n")
        with pytest.raises(ValueError, match="non-finite"):
            QLearningAgent.load(path)


class TestPolicyAgreement:
    def test_short_myopic_training_recovers_the_rule_table(self):
        """With discount 0 and all noise pinned off, Q-learning should
        reproduce the rule-based choice on every occupancy bin it has
        explored thoroughly."""
        config = EnvConfig(
            base_noise_range=(0.0, 0.0),
            obs_noise_level=0.0,
        )
        reference = RuleBasedAgent(config)
        agent = QLearningAgent(EnvVariant.BASIC, discount=0.0, seed=23)
        agent.train(config, episodes=400, steps_per_episode=250)
        mismatches = []
        for b in range(BINS):
            if agent.visits[b] < 300:
                continue
            learned = Action(int(agent.values[b].argmax()) + 1)
            if learned != reference.table[(b, None)]:
                mismatches.append(b)
        assert any(agent.visits >= 300)
        assert mismatches == []


def test_importing_the_package_leaves_numpy_unloaded():
    """numpy loads only when a Q-table snapshot is read."""
    script = (
        "import sys, sortline, sortline.cli\n"
        "assert 'numpy' not in sys.modules\n"
        "values = sortline.QLearningAgent(sortline.EnvVariant.BASIC).values\n"
        "print(values.shape, values.dtype)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(sortline.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "(20, 10) float64\n"
