"""Episode harness, trace files, and the benchmark aggregation."""

import json
import os
import re
from pathlib import Path

import pytest

from sortline import bench
from sortline.agents import Agent, RuleBasedAgent
from sortline.bench import (
    MODE_CODE,
    TRACE_COLUMNS,
    EpisodeSummary,
    EpisodeTrace,
    TraceRow,
    default_agent_factories,
    export_trace,
    load_trace,
    run_benchmark,
    run_episode,
    standard_setups,
    summarize,
)
from sortline.config import ConfigError, EnvConfig
from sortline.types import Action, EnvVariant, InputType, SortingMode

GOLDEN = Path(__file__).parent / "golden" / "trace_basic_random_rba_seed42.csv"


class ConstantAgent(Agent):
    """Plays one fixed action forever; handy for exercising the harness."""

    name = "constant"

    def __init__(self, variant=EnvVariant.BASIC, speed_index=5, mode=None):
        self.variant = variant
        self._action = Action(speed_index, mode)

    def act(self, obs):
        return self._action


class TestRunEpisode:
    def test_rows_cover_every_step_once(self):
        trace, _ = run_episode(EnvConfig(), ConstantAgent(), steps=12, seed=1)
        assert [r.step for r in trace.rows] == list(range(1, 13))

    def test_cumulative_reward_is_a_prefix_sum(self):
        trace, _ = run_episode(EnvConfig(), ConstantAgent(), steps=30, seed=4)
        running = 0.0
        for row in trace.rows:
            running += row.reward
            assert row.cum_reward == running

    def test_constant_speed_summary(self):
        _, summary = run_episode(EnvConfig(), ConstantAgent(speed_index=5), steps=25, seed=9)
        assert summary.mean_speed == 50.0
        assert summary.speed_changes == 0

    def test_trace_is_tagged_with_its_origin(self):
        config = EnvConfig()
        trace, _ = run_episode(config, ConstantAgent(), steps=5, seed=123)
        assert trace.seed == 123
        assert trace.agent_name == "constant"
        assert trace.config_digest is not None

    def test_variant_mismatch_is_rejected(self):
        agent = RuleBasedAgent(EnvConfig(variant=EnvVariant.ADVANCED))
        with pytest.raises(ConfigError):
            run_episode(EnvConfig(), agent, steps=5, seed=1)

    def test_rule_based_purity_on_a_clean_line(self):
        config = EnvConfig()
        _, summary = run_episode(config, RuleBasedAgent(config), steps=50, seed=42)
        assert summary.mean_purity >= 84.0
        assert summary.cumulative_reward > 20.0


class TestSummarize:
    def test_empty_trace(self):
        assert summarize(EpisodeTrace([])) == EpisodeSummary(0.0, 0.0, 0.0, 0)

    def test_speed_changes_count_transitions(self):
        def row(step, speed):
            return TraceRow(step, speed, SortingMode.BASIC, 0.1, 1.0, 0.5, 0.5 * step, 1.0)

        trace = EpisodeTrace([row(1, 0.5), row(2, 0.5), row(3, 0.7), row(4, 0.5), row(5, 0.5)])
        assert summarize(trace).speed_changes == 2


class TestTraceFiles:
    def test_export_layout(self, tmp_path):
        trace, _ = run_episode(EnvConfig(), ConstantAgent(), steps=50, seed=2)
        path = tmp_path / "trace.csv"
        export_trace(trace, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 51
        assert lines[0] == ",".join(TRACE_COLUMNS)
        first = lines[1].split(",")
        assert first[0] == "1"
        assert all("." in field and len(field.split(".")[1]) == 6 for field in first[1:])

    def test_modes_are_numerically_coded(self, tmp_path):
        rows = [
            TraceRow(1, 0.5, SortingMode.BASIC, 0.1, 1.0, 0.5, 0.5, 1.0),
            TraceRow(2, 0.5, SortingMode.POSITIVE, 0.1, 1.0, 0.5, 1.0, 1.0),
            TraceRow(3, 0.5, SortingMode.NEGATIVE, 0.1, 1.0, 0.5, 1.5, 1.0),
        ]
        path = tmp_path / "modes.csv"
        export_trace(EpisodeTrace(rows), path)
        codes = [line.split(",")[2] for line in path.read_text().splitlines()[1:]]
        assert codes == ["0.000000", "0.500000", "1.000000"]
        assert MODE_CODE[SortingMode.POSITIVE] == 0.5

    def test_round_trip_is_stable(self, tmp_path):
        config = EnvConfig(variant=EnvVariant.ADVANCED, input_type=InputType.SEASONAL)
        trace, summary = run_episode(config, RuleBasedAgent(config), steps=40, seed=3)
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        export_trace(trace, first)
        loaded = load_trace(first)
        export_trace(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        reloaded = summarize(loaded)
        assert reloaded.mean_purity == pytest.approx(summary.mean_purity, abs=1e-4)
        assert reloaded.cumulative_reward == pytest.approx(summary.cumulative_reward, abs=1e-4)
        assert reloaded.speed_changes == summary.speed_changes

    def test_load_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "not_a_trace.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            load_trace(path)
        path.write_text(",".join(TRACE_COLUMNS) + "\n1,0.5,0.0\n")
        with pytest.raises(ValueError):
            load_trace(path)
        for code in ("0.700000", "nan"):  # not a mode code
            path.write_text(",".join(TRACE_COLUMNS) + f"\n1,0.5,{code},0.1,1.0,0.5,0.5,1.0\n")
            with pytest.raises(ValueError, match="mode code"):
                load_trace(path)
        # export_trace writes only finite values, an integer step and numbers.
        header = ",".join(TRACE_COLUMNS)
        for row in (
            "1,nan,0.0,0.1,1.0,0.5,0.5,1.0",
            "1,0.5,0.0,inf,1.0,0.5,0.5,1.0",
            "1,0.5,0.0,0.1,1.0,-inf,0.5,1.0",
            "1,0.5,0.0,0.1,1.0,0.5,0.5,NaN",
        ):
            path.write_text(f"{header}\n{row}\n")
            with pytest.raises(ValueError, match="non-finite value"):
                load_trace(path)
        for row in (
            "x,0.5,0.0,0.1,1.0,0.5,0.5,1.0",
            "1.5,0.5,0.0,0.1,1.0,0.5,0.5,1.0",
            "1,fast,0.0,0.1,1.0,0.5,0.5,1.0",
            "1,0.5,basic,0.1,1.0,0.5,0.5,1.0",
            "1,0.5,0.0,0.1,1.0,0.5,0.5,1.0,9",
            "",
        ):
            path.write_text(f"{header}\n{row}\n")
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: malformed row"):
                load_trace(path)

    def test_load_rejects_rows_export_cannot_write(self, tmp_path):
        path = tmp_path / "impossible.csv"
        header = ",".join(TRACE_COLUMNS)
        good = "1,0.500000,0.000000,0.100000,1.000000,0.500000,0.500000,1.000000"
        for rows, fault in (
            (["-3,0.55,0.0,7.5,2.0,0.5,9.0,2.5"], "step -3 at row 1"),
            ([good, good], "step 1 at row 2"),
            (["0,0.5,0.0,0.1,1.0,0.5,0.5,1.0"], "step 0 at row 1"),
            (["1,0.55,0.0,0.1,1.0,0.5,0.5,1.0"], "speed off the tenths grid"),
            (["1,0.0,0.0,0.1,1.0,0.5,0.5,1.0"], "speed off the tenths grid"),
            (["1,1.1,0.0,0.1,1.0,0.5,0.5,1.0"], "speed off the tenths grid"),
            (["1,0.5,0.0,7.5,1.0,0.5,0.5,1.0"], "occupancy, accuracy or purity outside [0, 1]"),
            (["1,0.5,0.0,0.1,2.0,0.5,0.5,1.0"], "occupancy, accuracy or purity outside [0, 1]"),
            (["1,0.5,0.0,0.1,1.0,0.5,0.5,2.5"], "occupancy, accuracy or purity outside [0, 1]"),
            (["1,0.5,0.0,-0.1,1.0,0.5,0.5,1.0"], "occupancy, accuracy or purity outside [0, 1]"),
        ):
            path.write_text("\n".join([header, *rows]) + "\n")
            with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {fault}')}"):
                load_trace(path)
        # The extremes export_trace can write still load.
        path.write_text(
            f"{header}\n1,0.100000,1.000000,0.000000,0.000000,-0.600000,-0.600000,0.000000\n"
            "2,1.000000,0.500000,1.000000,1.000000,1.000000,0.400000,1.000000\n"
        )
        assert [row.step for row in load_trace(path).rows] == [1, 2]

    def test_reference_trace_replays_byte_for_byte(self, tmp_path):
        config = EnvConfig()
        trace, _ = run_episode(config, RuleBasedAgent(config), steps=50, seed=42)
        path = tmp_path / "replay.csv"
        export_trace(trace, path)
        assert path.read_bytes() == GOLDEN.read_bytes()

    @pytest.mark.parametrize("extra", [4096, 1, 0, -1, -len(GOLDEN.read_bytes()) + 1])
    def test_overwriting_leaves_exactly_the_new_bytes(self, tmp_path, extra):
        """An existing file longer or shorter than the trace is overwritten in place."""
        config = EnvConfig()
        trace, _ = run_episode(config, RuleBasedAgent(config), steps=50, seed=42)
        golden = GOLDEN.read_bytes()
        path = tmp_path / "old.csv"
        path.write_bytes(b"x" * (len(golden) + extra))
        export_trace(trace, path)
        assert path.read_bytes() == golden

    def test_a_fresh_file_gets_the_usual_permissions(self, tmp_path):
        trace, _ = run_episode(EnvConfig(), ConstantAgent(), steps=3, seed=1)
        exported = tmp_path / "exported.csv"
        written = tmp_path / "written.csv"
        export_trace(trace, exported)
        written.write_text("")
        assert exported.stat().st_mode == written.stat().st_mode

    def test_export_to_the_null_device(self):
        trace, _ = run_episode(EnvConfig(), ConstantAgent(), steps=3, seed=1)
        export_trace(trace, os.devnull)

    @pytest.mark.skipif(
        not (os.path.exists("/dev/full") and os.path.isdir("/proc/self/fd")), reason="Linux devices"
    )
    def test_a_failed_write_closes_the_file(self):
        trace, _ = run_episode(EnvConfig(), ConstantAgent(), steps=3, seed=1)
        open_fds = len(os.listdir("/proc/self/fd"))
        with pytest.raises(OSError):
            export_trace(trace, "/dev/full")  # every write fails with ENOSPC
        assert len(os.listdir("/proc/self/fd")) == open_fds

    @pytest.mark.parametrize("value", [
        0.0, -0.0, -4e-7, 4e-7, 5e-7, -5e-7, 1.5e-6, 2.5e-6, 0.1234565, 0.0000125, 1 - 5e-7,
        0.1, 0.4, 0.5, -0.6, 1.0, 1e300, -1e300, 5e-324, float("inf"), float("nan"),
    ])
    def test_row_format_matches_the_format_spec(self, value):
        """``_ROW_FORMAT`` writes the bytes a ``:.6f`` f-string row writes."""
        fields = (7, value, value, value, value, value, value, value)
        step, speed, code, occupancy, accuracy, reward, cum_reward, purity = fields
        expected = (
            f"{step},{speed:.6f},{code:.6f},{occupancy:.6f},{accuracy:.6f},"
            f"{reward:.6f},{cum_reward:.6f},{purity:.6f}\n"
        )
        assert bench._ROW_FORMAT % fields == expected


class TestStandardSetups:
    def test_the_four_settings(self):
        setups = standard_setups(EnvVariant.BASIC)
        assert list(setups) == ["A", "B", "C", "D"]
        assert setups["A"].input_type is InputType.RANDOM
        assert setups["A"].obs_noise_level == 0.0 and setups["A"].action_penalty == 0.0
        assert setups["B"].input_type is InputType.SEASONAL
        assert setups["B"].action_penalty == 0.5
        assert setups["C"].obs_noise_level == 0.3 and setups["C"].action_penalty == 0.0
        assert setups["D"].obs_noise_level == 0.3 and setups["D"].action_penalty == 0.5

    def test_variant_and_base_fields_carry_through(self):
        base = EnvConfig(threshold=0.6, episode_length=33)
        setups = standard_setups(EnvVariant.ADVANCED, base=base)
        for config in setups.values():
            assert config.variant is EnvVariant.ADVANCED
            assert config.threshold == 0.6
            assert config.episode_length == 33


class TestBenchmark:
    @staticmethod
    def tiny_report():
        setups = standard_setups(EnvVariant.BASIC)
        factories = default_agent_factories(train_steps=500, episode_steps=50)
        return run_benchmark(setups, factories, seeds=[3, 1, 2], steps=10)

    def test_record_grid_and_determinism(self):
        report = self.tiny_report()
        assert [(r.setup, r.agent) for r in report.records] == [
            (s, a) for s in "ABCD" for a in ("rba", "qtable", "random")
        ]
        assert all(r.seeds == 3 for r in report.records)
        assert report.records == self.tiny_report().records

    def test_seed_hygiene(self):
        setups = standard_setups(EnvVariant.BASIC)
        factories = {"rba": lambda config, seed: RuleBasedAgent(config)}
        with pytest.raises(ConfigError):
            run_benchmark(setups, factories, seeds=[5, 5], steps=5)
        with pytest.raises(ConfigError):
            run_benchmark(setups, factories, seeds=[], steps=5)

    def test_single_seed_has_zero_spread(self):
        setups = standard_setups(EnvVariant.BASIC)
        factories = {"rba": lambda config, seed: RuleBasedAgent(config)}
        report = run_benchmark(setups, factories, seeds=[5], steps=10)
        assert all(r.std_reward == 0.0 for r in report.records)

    def test_report_serialization(self):
        report = self.tiny_report()
        lines = report.to_records_text().splitlines()
        assert len(lines) == 12
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["setup"] == "A" and parsed[0]["agent"] == "rba"
        assert {"mean_reward", "std_reward", "mean_speed", "mean_purity"} <= parsed[0].keys()
        table = report.format_table().splitlines()
        assert len(table) == 14  # header, rule, twelve records
        assert table[0].split() == ["setup", "agent", "reward", "std", "speed", "purity"]
