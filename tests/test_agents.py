"""Agent policies: discretization, rule-based table, Q-learning mechanics."""

import itertools
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sortline
from conftest import record_streams
from sortline import agents, env, sorting
from sortline.agents import (
    BINS,
    EPSILON_DECAY_FRACTION,
    EPSILON_FINAL,
    EPSILON_START,
    LEARNING_RATE,
    QLearningAgent,
    RandomAgent,
    RuleBasedAgent,
    bin_index,
    expected_immediate_reward,
)
from sortline.config import ConfigError, EnvConfig
from sortline.env import StepResult
from sortline.bench import run_episode, standard_setups
from sortline.rng import INPUT_STREAM, OBSERVATION_STREAM, SORTING_STREAM
from sortline.sorting import BELOW_THRESHOLD_REWARD
from sortline.types import ACTIONS, MODES, Action, EnvVariant, Observation, SortingMode


def outcome(next_total: float, reward: float, done: bool = False) -> StepResult:
    return StepResult(Observation(next_total), reward, done, {})


class ScriptedExploration:
    """Stand-in agent stream for ``train`` at epsilon 0: step by step it explores
    the scripted action index, or lets the agent act greedily on ``None``."""

    def __init__(self, picks):
        self._picks = iter(picks)
        self._pick = None

    def getrandbits(self, bits):
        return 0

    def random(self):
        self._pick = next(self._picks)
        return 1.0 if self._pick is None else -1.0  # -1.0 lies below epsilon 0: explore

    def randrange(self, stop):
        return self._pick


class FirstDrawNearOne:
    """Stand-in agent stream whose first ``random()`` is 0.999 and every later one
    1.0: only a first step at epsilon above 0.999 explores.  Counts explorations."""

    def __init__(self):
        self._draws = iter([0.999])
        self.explored = 0

    def getrandbits(self, bits):
        return 0

    def random(self):
        return next(self._draws, 1.0)

    def randrange(self, stop):
        self.explored += 1
        return 0


def train_scripted(monkeypatch, agent, totals, rewards, explore=None):
    """Train ``agent`` greedily (epsilon 0) for one basic episode of
    ``len(rewards)`` steps whose observed totals are ``totals`` (one more than
    the steps) and whose step rewards are ``rewards``.  ``explore`` may name,
    step by step, an action index to explore instead (``None``: greedy).
    Returns each step's priced action index with a copy of the table as it
    stood before that step's update."""
    observed = iter(totals)
    paid = iter(rewards)
    priced = []

    def scripted_draw_tape(config, generator, obs_stream, count):
        chunk = list(itertools.islice(observed, count))  # each total also stands as its input's occupancy
        assert len(chunk) == count
        return zip([None] * count, chunk, chunk, [None] * count)

    def scripted_price_step(action, *rest):
        priced.append((ACTIONS[agent.variant].index(action), [row[:] for row in agent._q]))
        return 1.0, next(paid)

    monkeypatch.setattr(env, "draw_tape", scripted_draw_tape)
    monkeypatch.setattr(agents, "price_step", scripted_price_step)
    monkeypatch.setattr(agents, "epsilon", lambda done, planned: 0.0)
    if explore is not None:
        agent._stream = ScriptedExploration(explore)
    agent.train(EnvConfig(), episodes=1, steps_per_episode=len(rewards))
    assert next(observed, None) is None and next(paid, None) is None
    return priced


def explored_actions(monkeypatch, agent, steps):
    """The actions ``agent`` takes in one ``steps``-step training episode at epsilon 1."""
    picks = []
    priced = agents.price_step

    def recording_price_step(action, *rest):
        picks.append(action)
        return priced(action, *rest)

    monkeypatch.setattr(agents, "price_step", recording_price_step)
    monkeypatch.setattr(agents, "epsilon", lambda done, planned: 1.0)
    agent.train(EnvConfig(variant=agent.variant), episodes=1, steps_per_episode=steps)
    return picks


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
        assert RuleBasedAgent(ZERO_NOISE).table[(bin_index(0.05), None)] == Action(10)

    def test_heavy_load_forces_the_crawl(self):
        assert RuleBasedAgent(ZERO_NOISE).table[(bin_index(1.0), None)] == Action(1)

    def test_advanced_pick_matches_the_announced_category(self):
        table = RuleBasedAgent(ZERO_NOISE_ADV).table
        for category in SortingMode:
            assert table[(bin_index(0.35), category)].mode is category

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

    def test_ties_go_to_the_lowest_speed_and_first_mode(self):
        # With both weights zero every action above the threshold earns 0.0.
        basic = EnvConfig(r_acc=0.0, r_speed=0.0)
        advanced = replace(basic, variant=EnvVariant.ADVANCED)
        assert RuleBasedAgent(basic).table[(bin_index(0.05), None)] == Action(1)
        # A fit and a miss both earn 0.0, so the first mode wins whatever the category.
        assert set(RuleBasedAgent(advanced).table.values()) == {Action(1, SortingMode.BASIC)}

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
    # (config, action, category): each prices what the variant does not take.
    @pytest.mark.parametrize("config, action, category", [
        (ZERO_NOISE_ADV, Action(5), None),  # no mode, which env.step refuses
        (ZERO_NOISE_ADV, Action(5, SortingMode.BASIC), None),  # no category
        (ZERO_NOISE, Action(5, SortingMode.POSITIVE), None),  # a basic line has no modes
        (ZERO_NOISE, Action(5), SortingMode.POSITIVE),  # nor categories
    ])
    def test_what_the_variant_does_not_take_is_refused(self, config, action, category):
        with pytest.raises(ValueError):
            expected_immediate_reward(config, 0.3, action, category)

    @pytest.mark.parametrize("config, action, category", [
        (ZERO_NOISE, Action(5), SortingMode.POSITIVE),
        (ZERO_NOISE_ADV, Action(5, SortingMode.BASIC), None),
        (ZERO_NOISE_ADV, Action(5, SortingMode.BASIC), "positive"),
    ])
    def test_a_category_the_variant_does_not_observe_is_refused(self, config, action, category):
        with pytest.raises(ValueError, match="observes no category"):
            expected_immediate_reward(config, 0.3, action, category)

    @pytest.mark.parametrize("config, action, category", [
        (ZERO_NOISE, Action(5), None),
        (ZERO_NOISE_ADV, Action(5, SortingMode.BASIC), SortingMode.POSITIVE),
    ])
    @pytest.mark.parametrize("occ", [7.0, -3.0, math.nan])
    def test_an_occupancy_outside_the_unit_interval_is_refused(self, config, action, category, occ):
        with pytest.raises(ValueError, match=r"occupancy outside \[0, 1\]"):
            expected_immediate_reward(config, occ, action, category)

    @pytest.mark.parametrize("config, category", [(ZERO_NOISE, None), (ZERO_NOISE_ADV, SortingMode.NEGATIVE)])
    @pytest.mark.parametrize("occ", [0.0, 1.0])
    def test_the_unit_interval_edges_still_price(self, config, category, occ):
        for action in ACTIONS[config.variant]:
            assert math.isfinite(expected_immediate_reward(config, occ, action, category))

    def test_valid_calls_keep_their_values(self):
        advanced = EnvConfig(variant=EnvVariant.ADVANCED)
        prices = [
            expected_immediate_reward(advanced, 0.3, Action(5, SortingMode.BASIC), SortingMode.BASIC),
            expected_immediate_reward(advanced, 0.3, Action(5, SortingMode.NEGATIVE), SortingMode.POSITIVE),
            expected_immediate_reward(EnvConfig(), 0.3, Action(5)),
        ]
        assert [p.hex() for p in prices] == ["0x1.5c71c71c71c72p-1", "0x1.638e38e38e390p-2", "0x1.071c71c71c71dp-1"]


def scanned_table(config: EnvConfig) -> dict:
    """The rule table by the per-action scan: every action priced for every
    bin and category, the first strict maximum kept."""
    table = {}
    for b in range(BINS):
        center = (b + 0.5) / BINS
        for category in MODES[config.variant]:
            best, best_reward = None, -math.inf
            for action in ACTIONS[config.variant]:
                reward = expected_immediate_reward(config, center, action, category)
                if reward > best_reward:
                    best, best_reward = action, reward
            table[(b, category)] = best
    return table


def pricing_grid() -> list[EnvConfig]:
    """The 8 standard cells, then edge configs of both variants."""
    configs = [cfg for variant in EnvVariant for cfg in standard_setups(variant).values()]
    for variant in EnvVariant:
        base = EnvConfig(variant=variant)
        configs += [
            replace(base, r_acc=0.0, r_speed=0.0),  # every action ties
            replace(base, correct_mode_noise_range=(0.3, 0.4), incorrect_mode_noise_range=(0.0, 0.05)),
            replace(base, incorrect_mode_noise_range=(0.0, 0.0)),
            replace(base, threshold=0.2),
            replace(base, threshold=0.95),
            replace(base, abatement=0.0),
            replace(base, abatement=10.0),
        ]
    return configs


class TestRuleTablePricing:
    @pytest.mark.parametrize("config", pricing_grid(), ids=lambda c: c.digest())
    def test_table_equals_the_per_action_scan(self, config):
        table = RuleBasedAgent(config).table
        assert list(table.items()) == list(scanned_table(config).items())

    def test_a_mode_priced_beyond_fit_or_miss_breaks_the_equality(self, monkeypatch):
        """The table prices each speed once per fit and once per miss; were
        misses priced by mode, the scan above would tell the tables apart."""
        config = EnvConfig(variant=EnvVariant.ADVANCED)
        original = sorting.apply_mode

        def by_mode(alpha, chosen, correct, config, stream):
            bonus = 0.3 if chosen is SortingMode.NEGATIVE and correct is not chosen else 0.0
            return min(original(alpha, chosen, correct, config, stream) + bonus, 1.0)

        monkeypatch.setattr(env, "apply_mode", by_mode)
        assert RuleBasedAgent(config).table != scanned_table(config)

    @pytest.mark.parametrize(
        "name, variant, patched, price",
        [
            ("step_reward", EnvVariant.BASIC, lambda alpha, speed, config, changed: -float(speed), -1.0),
            ("step_reward", EnvVariant.ADVANCED, lambda alpha, speed, config, changed: -float(speed), -1.0),
            ("base_accuracy", EnvVariant.BASIC, lambda speed, occ, config, stream: 0.0, BELOW_THRESHOLD_REWARD),
        ],
        ids=["step_reward-basic", "step_reward-advanced", "base_accuracy-basic"],
    )
    def test_the_table_prices_through_the_envs_reward_model(self, monkeypatch, name, variant, patched, price):
        """A reward model under which speed 1 always wins, patched where ``env``
        looks it up, moves the price and the table: the rule table has no copy."""
        config = EnvConfig(variant=variant)
        action, category = ACTIONS[variant][0], MODES[variant][0]  # speed 1, first mode
        before = RuleBasedAgent(config).table
        assert expected_immediate_reward(config, 0.5, action, category) != price
        monkeypatch.setattr(env, name, patched)
        assert expected_immediate_reward(config, 0.5, action, category) == price
        table = RuleBasedAgent(config).table
        assert table != before and {a.speed_index for a in table.values()} == {1}


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

    @pytest.mark.parametrize("variant, pinned", [
        (EnvVariant.BASIC, [(1, None), (3, None), (3, None), (1, None), (2, None),
                            (1, None), (6, None), (3, None), (3, None), (6, None)]),
        (EnvVariant.ADVANCED, [(1, "basic"), (2, "positive"), (2, "negative"), (7, "negative"),
                               (1, "positive"), (10, "negative"), (1, "negative"), (10, "basic"),
                               (7, "negative"), (1, "positive")]),
    ])
    def test_default_seed_is_pinned(self, variant, pinned):
        agent = RandomAgent(variant)
        actions = [agent.act(Observation(0.5)) for _ in range(10)]
        assert [(a.speed_index, a.mode and a.mode.value) for a in actions] == pinned


@pytest.mark.parametrize("agent_class", [RandomAgent, QLearningAgent])
def test_agents_read_their_seed_as_the_seed_field_is(agent_class):
    state = agent_class(EnvVariant.BASIC, seed=3)._stream.getstate()
    assert agent_class(EnvVariant.BASIC, seed=3.0)._stream.getstate() == state
    for bad in (True, "3", 2.5, np.int64(3)):
        with pytest.raises(ConfigError, match="seed"):
            agent_class(EnvVariant.BASIC, seed=bad)


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

    def test_greedy_ties_resolve_to_the_first_maximum(self, monkeypatch):
        agent = QLearningAgent(EnvVariant.BASIC, seed=0)
        state = bin_index(0.4)
        agent._q[state][:3] = [1.0, 3.0, 3.0]
        assert agent.act(Observation(0.4)) == Action(2)
        # Training's greedy pick (epsilon 0) updates the first maximum too.
        train_scripted(monkeypatch, agent, [0.4, 0.9], [1.0])
        assert agent._q[state][:3] == [1.0, 3.0 + LEARNING_RATE * (1.0 - 3.0), 3.0]
        assert agent.visits.sum() == agent.visits[state] == 1

    def test_training_keeps_each_states_greedy_action_the_first_maximum(self, monkeypatch):
        def td(value, target):
            return value + LEARNING_RATE * (target - value)

        # One state, its own next state at every step: each bootstrapped target
        # is the reward plus 0.5 times the row's maximum before the update, 4.0.
        assert td(2.0, 22.0) == td(3.0, 13.0) == 4.0
        agent = QLearningAgent(EnvVariant.BASIC, discount=0.5)
        state = bin_index(0.52)
        agent._q[state][:5] = [1.0, 2.0, 4.0, 4.0, 3.0]
        replayed = agent._q[state][:]
        explore, rewards = [None, 1, 4, None, None], [-2.0, 20.0, 11.0, -2.0, 1.0]
        priced = train_scripted(monkeypatch, agent, [0.52] * 6, rewards, explore)
        rows = [table[state] for _, table in priced]

        assert [index for index, _ in priced] == [2, 1, 4, 1, 3]
        for (index, _), row, pick in zip(priced, rows, explore):
            assert index == (row.index(max(row)) if pick is None else pick)
        assert rows[1][2] < rows[1][3] == max(rows[1])  # 1: the greedy entry 2 fell below entry 3
        assert rows[2][1] == rows[2][3] == max(rows[2])  # 2: entry 1 tied the maximum below entry 3
        assert rows[3][4] == rows[3][1] == max(rows[3])  # 3: entry 4 tied it above entry 1
        assert rows[4][1] < rows[4][3] == max(rows[4])  # 4: the greedy entry 1 fell
        # The same table as TD updates that scan the row for every bootstrap.
        for step, ((index, _), reward) in enumerate(zip(priced, rewards), 1):
            target = reward + 0.5 * max(replayed) if step < len(rewards) else reward
            replayed[index] = td(replayed[index], target)
        assert agent._q[state] == replayed

    def test_values_and_visits_are_read_only_snapshots(self):
        agent = QLearningAgent(EnvVariant.BASIC, seed=0)
        with pytest.raises(ValueError, match="read-only"):
            agent.values[3, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            agent.visits[3] = 1
        assert not agent.values.any() and not agent.visits.any()
        assert agent.values.dtype == np.float64 and agent.visits.dtype == np.int64

    def test_exploration_hits_every_action(self, monkeypatch):
        agent = QLearningAgent(EnvVariant.BASIC, seed=5)
        assert set(explored_actions(monkeypatch, agent, 400)) == set(ACTIONS[EnvVariant.BASIC])

    @pytest.mark.parametrize("variant, pinned", [
        (EnvVariant.BASIC, [(1, None), (1, None), (3, None), (1, None), (4, None),
                            (7, None), (3, None), (9, None), (9, None), (5, None)]),
        (EnvVariant.ADVANCED, [(1, "positive"), (10, "basic"), (4, "positive"), (8, "basic"),
                               (4, "negative"), (4, "positive"), (5, "negative"), (3, "positive"),
                               (2, "positive"), (6, "negative")]),
    ])
    def test_default_seed_is_pinned(self, monkeypatch, variant, pinned):
        # The stream draws the episode seed, then one random() and one randrange() per step.
        actions = explored_actions(monkeypatch, QLearningAgent(variant), 10)
        assert [(a.speed_index, a.mode and a.mode.value) for a in actions] == pinned

    def test_advanced_observation_needs_a_category(self):
        agent = QLearningAgent(EnvVariant.ADVANCED)
        with pytest.raises(ValueError):
            agent.act(Observation(0.5))

    def test_basic_observation_carries_no_category(self):
        agent = QLearningAgent(EnvVariant.BASIC)
        with pytest.raises(ValueError):
            agent.act(Observation(0.5, SortingMode.POSITIVE))

    def test_td_update_from_zero(self, monkeypatch):
        agent = QLearningAgent(EnvVariant.BASIC, discount=0.9)
        state = bin_index(0.42)
        train_scripted(monkeypatch, agent, [0.42, 0.9, 0.9], [1.0, 0.0])
        assert agent.values[state, 0] == pytest.approx(LEARNING_RATE * 1.0)  # 1 + 0.9 * 0 - 0
        assert agent.visits[state] == 1

    def test_td_update_bootstraps_from_the_next_state(self, monkeypatch):
        agent = QLearningAgent(EnvVariant.BASIC, discount=0.5)
        agent._q[bin_index(0.9)][3] = 2.0
        train_scripted(monkeypatch, agent, [0.1, 0.9, 0.9], [1.0, 0.0])
        assert agent.values[bin_index(0.1), 0] == pytest.approx(LEARNING_RATE * (1.0 + 0.5 * 2.0))

    def test_terminal_steps_do_not_bootstrap(self, monkeypatch):
        agent = QLearningAgent(EnvVariant.BASIC, discount=0.9)
        agent._q[bin_index(0.9)][3] = 50.0
        train_scripted(monkeypatch, agent, [0.1, 0.9], [0.25])
        assert agent.values[bin_index(0.1), 0] == pytest.approx(LEARNING_RATE * 0.25)
        assert agent.values[bin_index(0.9), 3] == 50.0

    def test_notify_without_learning_is_inert(self):
        agent = QLearningAgent(EnvVariant.BASIC, seed=0)
        agent.act(Observation(0.3))
        agent.notify(outcome(0.4, reward=1.0))
        assert not agent.values.any()
        assert not agent.visits.any()

    def test_epsilon_decays_linearly_then_floors(self):
        assert agents.epsilon(0, 1000) == pytest.approx(1.0)
        assert agents.epsilon(250, 1000) == pytest.approx(0.525)
        assert agents.epsilon(500, 1000) == pytest.approx(0.05)
        assert agents.epsilon(900, 1000) == pytest.approx(0.05)

    def test_epsilon_is_the_floor_from_the_horizon_on(self):
        floor = EPSILON_START + (EPSILON_FINAL - EPSILON_START)
        for planned in (1, 2, 7, 250, 100_000):
            horizon = math.ceil(planned * EPSILON_DECAY_FRACTION)  # the first whole step on or past it
            assert all(agents.epsilon(done, planned) == floor for done in range(horizon, planned + 1))
        # 7 planned steps put the horizon at 3.5: step 3 still explores above the floor, step 4 is on it.
        assert agents.epsilon(3, 7) > floor and agents.epsilon(4, 7) == floor
        # In floats the floor is 0.05 + 4.4e-17, and no random() draw (a multiple of 2 ** -53)
        # lies between the two, so the floor explores exactly as EPSILON_FINAL would.
        assert floor == pytest.approx(EPSILON_FINAL, rel=1e-15)
        assert math.ceil(EPSILON_FINAL * 2**53) / 2**53 >= floor

    @pytest.mark.parametrize("planned", [1, 7, 250, 100_000])
    def test_epsilon_starts_at_exactly_one_and_never_increases(self, planned):
        rates = [agents.epsilon(done, planned) for done in range(planned)]
        assert rates[0] == EPSILON_START == 1.0
        assert all(later <= earlier for earlier, later in zip(rates, rates[1:]))

    def test_each_training_call_restarts_the_schedule(self, tmp_path):
        config = EnvConfig()
        agent = QLearningAgent(EnvVariant.BASIC, seed=6).train(config, episodes=2, steps_per_episode=50)
        path = tmp_path / "trained.qt"
        agent.save(path)
        for warm in (agent, QLearningAgent.load(path)):
            warm._stream = stream = FirstDrawNearOne()
            warm.train(config, episodes=1, steps_per_episode=20)
            assert stream.explored == 1  # the first step ran at epsilon 1.0

    def test_training_is_reproducible(self):
        config = EnvConfig(episode_length=40)

        def trained():
            agent = QLearningAgent(EnvVariant.BASIC, seed=17)
            agent.train(config, episodes=6, steps_per_episode=40)
            return agent

        first, second = trained(), trained()
        assert np.array_equal(first.values, second.values)
        assert np.array_equal(first.visits, second.visits)
        # A trained agent acts greedily and draws nothing from its stream.
        stream = first._stream.getstate()
        for b in range(BINS):
            greedy = ACTIONS[EnvVariant.BASIC][int(np.argmax(first.values[b]))]
            assert first.act(Observation((b + 0.5) / BINS)) == greedy
        assert first._stream.getstate() == stream

    def test_training_needs_a_config_of_its_variant(self):
        agent = QLearningAgent(EnvVariant.BASIC, seed=0)
        with pytest.raises(ConfigError):
            agent.train(EnvConfig(variant=EnvVariant.ADVANCED), episodes=1, steps_per_episode=5)

    def test_training_refuses_the_other_variant_as_an_episode_does(self):
        agent = QLearningAgent(EnvVariant.ADVANCED, seed=0)
        stream = agent._stream.getstate()
        with pytest.raises(ConfigError) as training:
            agent.train(EnvConfig(), episodes=1, steps_per_episode=5)
        with pytest.raises(ConfigError) as episode:
            run_episode(EnvConfig(), agent)
        assert str(training.value) == str(episode.value) == "agent variant advanced does not match config basic"
        assert not agent.values.any() and agent.visits.sum() == 0
        assert agent._stream.getstate() == stream

    @pytest.mark.parametrize("episodes", [-3, 0, 2.5, 2.0, True, "2"])
    def test_training_needs_a_whole_positive_episode_count(self, episodes):
        agent = QLearningAgent(EnvVariant.BASIC, seed=0)
        with pytest.raises(ConfigError, match="training episodes must be an int of at least 1"):
            agent.train(EnvConfig(), episodes=episodes, steps_per_episode=50)
        assert agent.visits.sum() == 0

    @pytest.mark.parametrize("steps", [0, -1, True, 2.5])
    def test_training_needs_a_whole_positive_episode_length(self, steps):
        agent = QLearningAgent(EnvVariant.BASIC, seed=0)
        with pytest.raises(ConfigError, match="episode_length|at least 1 step"):
            agent.train(EnvConfig(), episodes=2, steps_per_episode=steps)
        assert agent.visits.sum() == 0

    def test_an_integral_float_episode_length_runs_as_an_int(self):
        agent = QLearningAgent(EnvVariant.BASIC, seed=1).train(EnvConfig(), episodes=2, steps_per_episode=3.0)
        whole = QLearningAgent(EnvVariant.BASIC, seed=1).train(EnvConfig(), episodes=2, steps_per_episode=3)
        assert agent.visits.sum() == 6
        assert agent._q == whole._q and agent._visits == whole._visits
        assert agent._stream.getstate() == whole._stream.getstate()

    @pytest.mark.parametrize("discount", [math.nan, math.inf, -0.1, 1.5])
    def test_discount_must_lie_in_the_unit_interval(self, discount):
        with pytest.raises(ValueError):
            QLearningAgent(EnvVariant.BASIC, discount=discount)

    @pytest.mark.parametrize("discount", [True, False, "0.5", None, np.float64(0.5), [0.5]],
                             ids=["True", "False", "str", "None", "numpy-float64", "list"])
    def test_discount_must_be_an_int_or_a_float(self, discount):
        with pytest.raises(ValueError, match="discount must be an int or float in \\[0, 1\\]"):
            QLearningAgent(EnvVariant.BASIC, discount=discount)

    def test_an_int_discount_is_kept_as_a_float_and_trains_the_same_table(self):
        config = EnvConfig()
        for whole in (0, 1):
            agent = QLearningAgent(EnvVariant.BASIC, discount=whole, seed=4)
            assert type(agent.discount) is float and agent.discount == whole
            fractional = QLearningAgent(EnvVariant.BASIC, discount=float(whole), seed=4)
            assert agent.train(config, 2, 30)._q == fractional.train(config, 2, 30)._q

    @pytest.mark.parametrize("discount", [0.0, 1.0])
    def test_discount_bounds_are_accepted(self, discount):
        agent = QLearningAgent(EnvVariant.BASIC, discount=discount, seed=2)
        agent.train(EnvConfig(), episodes=1, steps_per_episode=30)
        assert agent.discount == discount
        assert agent.visits.sum() == 30 and np.isfinite(agent.values).all()

    def test_training_visits_realistic_occupancies(self):
        agent = QLearningAgent(EnvVariant.BASIC, seed=17)
        agent.train(EnvConfig(), episodes=20, steps_per_episode=50)
        assert agent.visits[3:17].min() > 0


def episode_states(opened):
    """The (label, state) of each stream each episode in a ``record_streams`` list opened, in opening
    order; an episode opens its input stream first, then its sorting and any observation stream."""
    starts = [i for i, (label, _) in enumerate(opened) if label == INPUT_STREAM] + [len(opened)]
    return [tuple((label, stream.getstate()) for label, stream in opened[start:end])
            for start, end in zip(starts, starts[1:])]


def reference_train(agent, config, episodes, steps):
    """Epsilon-greedy Q-learning on ``agents.epsilon``, written out over
    ``SortingLineEnv.step`` in the agent's table, visits and stream."""
    line = env.SortingLineEnv(replace(config, episode_length=steps))
    actions = ACTIONS[config.variant]
    steps_run = 0
    for _ in range(episodes):
        obs, done = line.reset(seed=agent._stream.getrandbits(63)), False
        while not done:
            state = agent.state_index(obs)
            if agent._stream.random() < agents.epsilon(steps_run, episodes * steps):
                index = agent._stream.randrange(len(actions))
            else:
                index = int(np.argmax(agent._q[state]))
            obs, reward, done, _ = line.step(actions[index])
            target = reward if done else reward + agent.discount * max(agent._q[agent.state_index(obs)])
            agent._q[state][index] += LEARNING_RATE * (target - agent._q[state][index])
            agent._visits[state] += 1
            steps_run += 1


class TestTrainingDriver:
    """``train`` runs its own loop; it must learn exactly what epsilon-greedy
    Q-learning written out over ``SortingLineEnv.step`` learns."""

    CELLS = {f"{v.value}-{name}": cfg for v in EnvVariant for name, cfg in standard_setups(v).items()}

    @pytest.mark.parametrize("config", CELLS.values(), ids=CELLS.keys())
    @pytest.mark.parametrize("seed", [3, 71])
    @pytest.mark.parametrize("steps", [1, 7, 250, 515])  # 515: three tape chunks of 256 inputs
    @pytest.mark.parametrize("discount", [0.0, 0.9, 1.0])
    def test_the_driver_matches_stepping_the_env(self, monkeypatch, config, seed, steps, discount):
        episodes = 2
        opened = record_streams(monkeypatch)
        driven = QLearningAgent(config.variant, discount=discount, seed=seed).train(config, episodes, steps)
        driver_states = episode_states(opened)
        opened.clear()
        stepped = QLearningAgent(config.variant, discount=discount, seed=seed)
        reference_train(stepped, config, episodes, steps)

        assert driven._q == stepped._q
        assert driven._visits == stepped._visits
        assert sum(driven._visits) == episodes * steps
        assert driven._stream.getstate() == stepped._stream.getstate()
        # The same streams opened, and the same number of draws from each, episode by episode.
        assert len(driver_states) == episodes
        assert driver_states == episode_states(opened)
        labels = [INPUT_STREAM, SORTING_STREAM] + [OBSERVATION_STREAM] * (config.obs_noise_level > 0.0)
        assert all([label for label, _ in states] == labels for states in driver_states)


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

    def test_a_wrong_magic_is_refused_alone(self, tmp_path):
        path = tmp_path / "foreign.qt"
        QLearningAgent(EnvVariant.BASIC).save(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "sortline-qtable 1"
        path.write_text("\n".join(["other-qtable 1", *lines[1:]]) + "\n")
        with pytest.raises(ValueError, match="is not a recognized table file"):
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

    def test_a_file_that_is_not_ascii_is_not_a_table(self, tmp_path):
        path = tmp_path / "bom.qt"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(ValueError, match="bom.qt is not a recognized table file"):
            QLearningAgent.load(path)

    def test_values_in_non_ascii_digits_are_refused(self, tmp_path):
        path = tmp_path / "wide.qt"
        rows = [" ".join(["\uff11.\uff10"] * 10)] * 20  # fullwidth "1.0", which float() would read
        path.write_text("\n".join(["sortline-qtable 1", "variant basic", "bins 20", "actions 10", *rows]) + "\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match="wide.qt is not a recognized table file"):
            QLearningAgent.load(path)

    def test_a_value_that_is_not_a_number_names_the_file(self, tmp_path):
        path = tmp_path / "badrow.qt"
        rows = [" ".join(["1.0"] * 10)] * 20
        rows[3] = " ".join(["1.0"] * 9 + ["abc"])
        path.write_text("\n".join(["sortline-qtable 1", "variant basic", "bins 20", "actions 10", *rows]) + "\n")
        with pytest.raises(ValueError, match="badrow.qt is not a recognized table file"):
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
