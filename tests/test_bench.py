"""Episode harness, trace files, and the benchmark aggregation."""

import json
import os
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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
# A second trace row as export_trace writes it; the column position is the index into TRACE_COLUMNS.
SECOND_ROW = "2,0.500000,0.000000,0.100000,1.000000,0.500000,1.000000,1.000000".split(",")
# A step's fields after its step, as run_episode records them.
finite = st.floats(allow_nan=False, allow_infinity=False)
fraction = st.floats(0.0, 1.0)
recorded_fields = st.tuples(
    st.sampled_from(sorted(bench.TRACE_SPEEDS)), st.sampled_from(list(SortingMode)),
    fraction, fraction, finite, finite, fraction,
)


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

    # (overrides, trace.seed, trace.config_digest) on the default config; the
    # override is stored in its config-field form.
    @pytest.mark.parametrize("overrides, seed, digest", [
        ({}, 0, "bc3c53584cfe"),
        ({"seed": 3.0}, 3, "8ae20ed00ded"),
        ({"seed": 2**70}, 2**70, "87d439769b62"),
        ({"seed": -1}, -1, "51f1352225b2"),
        ({"steps": 7}, 0, "a92bad8a58a9"),
        ({"steps": 50.0}, 0, "bc3c53584cfe"),
    ])
    def test_overrides_tag_the_trace(self, overrides, seed, digest):
        config = EnvConfig()
        trace, _ = run_episode(config, RuleBasedAgent(config), **overrides)
        assert type(trace.seed) is int and trace.seed == seed
        assert trace.config_digest == digest
        assert len(trace.rows) == overrides.get("steps", 50)

    @pytest.mark.parametrize("length, overrides, message", [
        (50, {"seed": True}, "bad value for 'seed': True"),
        (50, {"seed": "3"}, "bad value for 'seed': '3'"),
        (1, {"steps": True}, "bad value for 'episode_length': True"),
        (50, {"steps": 0}, "episode_length must be positive, got 0"),
        (50, {"steps": 50.5}, "bad value for 'episode_length': 50.5"),
        (50, {"steps": 0, "seed": "3"}, "bad value for 'seed': '3'"),
    ])
    def test_overrides_are_checked_as_config_fields(self, length, overrides, message):
        config = EnvConfig(episode_length=length)
        agent = ConstantAgent()
        agent.act = lambda obs: pytest.fail("stepped before the overrides were checked")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            run_episode(config, agent, **overrides)

    def test_a_full_length_episode_builds_no_config(self, monkeypatch):
        config = EnvConfig()
        agent = RuleBasedAgent(config)
        expected = replace(config, seed=5).digest()
        calls = {"__post_init__": 0, "digest": 0}
        for name in calls:
            def counted(self, *args, _original=getattr(EnvConfig, name), _name=name):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(EnvConfig, name, counted)
        trace, _ = run_episode(config, agent, steps=config.episode_length, seed=5)
        assert calls == {"__post_init__": 0, "digest": 1}  # the digest under seed 5, no seeded config
        assert trace.config_digest == expected

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

    # (config, agent, steps, seed): the 8 standard cells under the rule agent,
    # a 1-step episode and a constant-speed one.
    CASES = [
        (cfg, RuleBasedAgent(cfg), 50, 11)
        for variant in EnvVariant for cfg in standard_setups(variant).values()
    ] + [
        (EnvConfig(), RuleBasedAgent(EnvConfig()), 1, 5),
        (EnvConfig(), ConstantAgent(speed_index=7), 40, 6),
    ]

    @pytest.mark.parametrize("config, agent, steps, seed", CASES)
    def test_summary_is_the_row_sums_bit_for_bit(self, config, agent, steps, seed):
        trace, summary = run_episode(config, agent, steps=steps, seed=seed)
        rows = trace.rows
        expected = (
            100.0 * sum(r.speed for r in rows) / len(rows),
            100.0 * sum(r.purity for r in rows) / len(rows),
            rows[-1].cum_reward,
        )
        got = (summary.mean_speed, summary.mean_purity, summary.cumulative_reward)
        assert [x.hex() for x in got] == [x.hex() for x in expected]
        assert summary.speed_changes == sum(1 for prev, cur in zip(rows, rows[1:]) if cur.speed != prev.speed)
        assert type(summary.speed_changes) is int


@pytest.mark.parametrize("variant", list(EnvVariant))
@pytest.mark.parametrize("setup", ["B", "D"])
def test_the_change_penalty_is_linear_in_the_speed_changes(variant, setup):
    config = standard_setups(variant)[setup]
    agent = RuleBasedAgent(config)  # its table ignores the penalty, so every penalty sees the same actions
    for seed in range(5):
        _, free = run_episode(replace(config, action_penalty=0.0), agent, seed=seed)
        assert free.speed_changes > 0
        for penalty in (0.1, 0.25, 0.5, 1.0):
            _, paid = run_episode(replace(config, action_penalty=penalty), agent, seed=seed)
            assert paid.speed_changes == free.speed_changes
            expected = free.cumulative_reward - penalty * free.speed_changes
            assert abs(paid.cumulative_reward - expected) <= 1e-9


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
        for row in trace.rows + loaded.rows:  # built by tuple.__new__, which checks no arity
            assert type(row) is TraceRow and len(row) == len(TraceRow._fields)
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
        path.write_text(",".join(TRACE_COLUMNS) + "\n1,0.5,0.700000,0.1,1.0,0.5,0.5,1.0\n")
        with pytest.raises(ValueError, match="unknown mode code"):
            load_trace(path)
        # export_trace writes only finite values, an integer step and numbers; "nan" and
        # "inf" hold bytes it never writes.
        header = ",".join(TRACE_COLUMNS)
        for row in (
            "1,0.5,nan,0.1,1.0,0.5,0.5,1.0",
            "1,nan,0.0,0.1,1.0,0.5,0.5,1.0",
            "1,0.5,0.0,inf,1.0,0.5,0.5,1.0",
            "1,0.5,0.0,0.1,1.0,-inf,0.5,1.0",
            "1,0.5,0.0,0.1,1.0,0.5,0.5,NaN",
            "x,0.5,0.0,0.1,1.0,0.5,0.5,1.0",
            "1.5,0.5,0.0,0.1,1.0,0.5,0.5,1.0",
            "1,fast,0.0,0.1,1.0,0.5,0.5,1.0",
            "1,0.5,basic,0.1,1.0,0.5,0.5,1.0",
            "1,0.5,0.0,0.1,1.0,0.5,0.5,1.0,9",
            "",
        ):
            path.write_text(f"{header}\n{row}\n")
            with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: malformed row {row!r}')}$"):
                load_trace(path)

    @pytest.mark.parametrize("row", [
        "1,\uff10.5,0.0,0.1,1.0,0.5,0.5,1.0".encode(),  # a full-width digit, which float() reads
        "1,0.5,0.0,0.1,1.0,0.5,0.5,1.0\u00a0".encode(),  # a no-break space, which float() strips
        b"1,0.5,0.0,0.1,1.0,0.5,0.5,1.0\xff",  # not UTF-8 either
    ], ids=["full-width-digit", "no-break-space", "ff-byte"])
    def test_load_reads_ascii_only(self, tmp_path, row):
        path = tmp_path / "foreign.csv"
        path.write_bytes(",".join(TRACE_COLUMNS).encode() + b"\n" + row + b"\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))} is not an ASCII trace file$"):
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

    @pytest.mark.parametrize("row", [
        pytest.param("2,0_0.5,0.000000,0.100000,1.000000,0.500000,1.000000,1.000000", id="underscore"),
        pytest.param(" 2,0.500000,0.000000,0.100000,1.000000,0.500000,1.000000,1.000000", id="leading-space"),
        pytest.param("2,5e-1,0.000000,0.100000,1.000000,0.500000,1.000000,1.000000", id="exponent"),
        pytest.param("2,0.500000,0.000000,0.100000,1.000000,+1,1.000000,1.000000", id="plus-sign"),
        pytest.param("2,0.500000,0.000000,0.100000,1.000000,0.500000,1.000000,1.000000\r", id="carriage-return"),
        *[
            pytest.param(",".join([*SECOND_ROW[:column], token, *SECOND_ROW[column + 1:]]),
                         id=f"{token}-{TRACE_COLUMNS[column]}")
            for column in range(1, len(TRACE_COLUMNS))
            for token in ("nan", "inf", "-inf", "Infinity")
        ],
    ])
    def test_load_refuses_tokens_export_never_writes(self, tmp_path, row):
        """int() and float() read each of these; the first such row is named."""
        path = tmp_path / "loose.csv"
        header = ",".join(TRACE_COLUMNS)
        first = "1,0.500000,0.000000,0.100000,1.000000,0.500000,0.500000,1.000000"
        later = " 3,0.500000,0.000000,0.100000,1.000000,0.500000,1.500000,1.000000"
        path.write_bytes("\n".join([header, first, row, later, ""]).encode())
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: malformed row {row!r}')}$"):
            load_trace(path)

    def test_a_foreign_byte_is_found_before_any_row_is_checked(self, tmp_path):
        path = tmp_path / "two_faults.csv"
        header = ",".join(TRACE_COLUMNS)
        first = "0,0.500000,0.000000,0.100000,1.000000,0.500000,0.500000,1.000000"  # step 0 at row 1
        second = "2,0.500000,0.000000,0.100000,1.000000,0.500000,1.000000,1.0e0"
        path.write_text(f"{header}\n{first}\n{second}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: malformed row {second!r}')}$"):
            load_trace(path)

    @pytest.mark.parametrize("column, fault", [
        ("mode", "unknown mode code"),
        ("speed", "speed off the tenths grid"),
        ("occupancy", "occupancy, accuracy or purity outside [0, 1]"),
        ("accuracy", "occupancy, accuracy or purity outside [0, 1]"),
        ("reward", "non-finite value"),
        ("cum_reward", "non-finite value"),
        ("purity", "occupancy, accuracy or purity outside [0, 1]"),
    ])
    @pytest.mark.parametrize("number", ["9" * 400, "-" + "9" * 309 + ".000000"], ids=["above", "below"])
    def test_a_number_past_the_float_range_is_refused(self, tmp_path, column, fault, number):
        """Digits alone read as inf past the float range; export_trace writes only finite values."""
        path = tmp_path / "overflow.csv"
        fields = list(SECOND_ROW)
        fields[0], fields[TRACE_COLUMNS.index(column)] = "1", number
        path.write_text(",".join(TRACE_COLUMNS) + "\n" + ",".join(fields) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {fault}')}"):
            load_trace(path)

    @settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(recorded_fields, max_size=20))
    def test_every_recordable_trace_round_trips(self, tmp_path, steps):
        rows = [TraceRow(step, *fields) for step, fields in enumerate(steps, start=1)]
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        export_trace(EpisodeTrace(rows), first)
        loaded = load_trace(first)
        export_trace(loaded, second)
        assert second.read_bytes() == first.read_bytes()
        assert [row.step for row in loaded.rows] == [row.step for row in rows]

    def test_export_never_opens_with_o_trunc(self, tmp_path, monkeypatch):
        """An existing file is cut only when it was longer, never to zero first (see export_trace)."""
        trace, _ = run_episode(EnvConfig(), ConstantAgent(), steps=3, seed=1)
        path = tmp_path / "trace.csv"
        opened = []
        real_open = os.open

        def recording_open(file, flags, *args, **kwargs):
            opened.append((file, flags))
            return real_open(file, flags, *args, **kwargs)

        monkeypatch.setattr(bench.os, "open", recording_open)
        export_trace(trace, path)  # a fresh file
        path.write_bytes(b"x" * 4096)
        export_trace(trace, path)  # a longer one
        flags = [flag for file, flag in opened if file == path]
        assert len(flags) == 2
        for flag in flags:
            assert flag & os.O_CREAT and not flag & os.O_TRUNC

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
        """``_ROW_FORMAT`` writes the bytes a ``:.6f`` f-string row writes; it takes the speed and
        mode-code columns as text already rendered."""
        fields = (7, value, value, value, value, value, value, value)
        step, speed, code, occupancy, accuracy, reward, cum_reward, purity = fields
        expected = (
            f"{step},{speed:.6f},{code:.6f},{occupancy:.6f},{accuracy:.6f},"
            f"{reward:.6f},{cum_reward:.6f},{purity:.6f}\n"
        )
        assert bench._ROW_FORMAT % (step, f"{speed:.6f}", f"{code:.6f}", *fields[3:]) == expected

    def test_speed_and_mode_text_is_rendered_at_six_decimals(self):
        assert bench._SPEED_TEXT == {speed: f"{speed:.6f}" for speed in bench.TRACE_SPEEDS}
        assert len(bench._SPEED_TEXT) == 10
        assert bench._MODE_TEXT == {mode: f"{MODE_CODE[mode]:.6f}" for mode in SortingMode}

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(recorded_fields, max_size=300))
    def test_export_writes_a_format_spec_row_per_step(self, tmp_path, steps):
        """One format call over the whole trace writes what a ``:.6f`` f-string per row writes."""
        rows = [TraceRow(step, *fields) for step, fields in enumerate(steps, start=1)]
        path = tmp_path / "trace.csv"
        export_trace(EpisodeTrace(rows), path)
        codes = {SortingMode.BASIC: 0.0, SortingMode.POSITIVE: 0.5, SortingMode.NEGATIVE: 1.0}
        expected = "step,speed,mode,occupancy,accuracy,reward,cum_reward,purity\n" + "".join(
            f"{r.step},{r.speed:.6f},{codes[r.mode]:.6f},{r.occupancy:.6f},{r.accuracy:.6f},"
            f"{r.reward:.6f},{r.cum_reward:.6f},{r.purity:.6f}\n"
            for r in rows
        )
        assert path.read_bytes() == expected.encode("ascii")

    @pytest.mark.parametrize("column, value, message", [
        ("speed", 0.55, "speed 0.55 is off the tenths grid"),
        ("mode", None, "None is not a sorting mode"),
        ("mode", "fast", "'fast' is not a sorting mode"),
    ])
    def test_export_refuses_a_row_it_could_not_load_before_opening(self, tmp_path, monkeypatch, column, value, message):
        good = TraceRow(1, 0.5, SortingMode.BASIC, 0.1, 1.0, 0.5, 0.5, 1.0)
        rows = [good, good._replace(step=2, **{column: value}), good._replace(step=3)]
        path = tmp_path / "kept.csv"
        path.write_bytes(b"old bytes\n")
        opened = []
        monkeypatch.setattr(bench.os, "open", lambda *args, **kwargs: opened.append(args))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            export_trace(EpisodeTrace(rows), path)
        assert opened == []
        assert path.read_bytes() == b"old bytes\n"

    def test_a_crlf_trace_is_not_a_trace_file(self, tmp_path):
        """The header's line end is checked as bytes, before any row."""
        path = tmp_path / "crlf.csv"
        path.write_bytes(GOLDEN.read_bytes().replace(b"\n", b"\r\n"))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))} is not a trace file$"):
            load_trace(path)


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

    def test_factories_are_keyed_by_their_agents_names(self):
        factories = default_agent_factories(train_steps=100, episode_steps=50)
        assert list(factories) == ["rba", "qtable", "random"]
        for name, factory in factories.items():
            assert factory(EnvConfig(), 1).name == name

    @pytest.mark.parametrize("train_steps, episode_steps", [(5000, 2.5), (True, 250), (5000, True), ("500", 50)])
    def test_a_bad_training_budget_is_refused_when_the_factories_are_built(self, train_steps, episode_steps):
        with pytest.raises(ConfigError, match="^training steps must be whole numbers"):
            default_agent_factories(train_steps, episode_steps)
        assert bench.training_episodes(5000.0, 250.0) == 20  # integral floats count as ints

    def test_seed_hygiene(self):
        setups = standard_setups(EnvVariant.BASIC)
        factories = {"rba": lambda config, seed: RuleBasedAgent(config)}
        with pytest.raises(ConfigError):
            run_benchmark(setups, factories, seeds=[5, 5], steps=5)
        with pytest.raises(ConfigError):
            run_benchmark(setups, factories, seeds=[], steps=5)

    @pytest.mark.parametrize("steps", [0, -3, True, 2.5, "5"])
    def test_episode_length_is_checked_before_training(self, steps):
        def untrainable(config, seed):
            raise AssertionError("trained before the arguments were checked")

        # A value in episode_length's form but below 1 gets the message the CLI reports.
        message = "evaluation episode length" if type(steps) is int else "bad value for 'episode_length'"
        with pytest.raises(ConfigError, match=f"^{message}"):
            run_benchmark(standard_setups(EnvVariant.BASIC), {"qtable": untrainable}, seeds=[1], steps=steps)

    @pytest.mark.parametrize("seeds, message", [
        ([True, 5], "bad value for 'seed': True"),
        (["3"], "bad value for 'seed': '3'"),
        ([2.5], "bad value for 'seed': 2.5"),
        ([3.0, 3], "benchmark seeds must be distinct"),
    ])
    def test_seeds_are_checked_before_training(self, seeds, message):
        def untrainable(config, seed):
            raise AssertionError("trained before the seeds were checked")

        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            run_benchmark(standard_setups(EnvVariant.BASIC), {"qtable": untrainable}, seeds=seeds, steps=5)

    def test_integral_float_seeds_run_as_ints(self):
        setups = standard_setups(EnvVariant.BASIC)
        factories = default_agent_factories(train_steps=100, episode_steps=50)
        as_floats = run_benchmark(setups, factories, seeds=[4.0, 3.0], steps=5)
        assert as_floats.records == run_benchmark(setups, factories, seeds=[3, 4], steps=5).records

    def test_one_evaluation_config_per_setup(self, monkeypatch):
        setups = standard_setups(EnvVariant.ADVANCED)
        built = []

        def rba(config, seed):
            built.append(config)
            return RuleBasedAgent(config)

        constructions = []
        original = EnvConfig.__post_init__
        monkeypatch.setattr(EnvConfig, "__post_init__", lambda self: (constructions.append(1), original(self))[1])
        for count in (1, 4):
            constructions.clear()
            built.clear()
            report = run_benchmark(setups, {"rba": rba}, seeds=range(1, count + 1), steps=7)
            assert len(constructions) == len(setups)  # one per setup, whatever the seed count
            assert list(map(id, built)) == list(map(id, setups.values()))  # each setup's own config
        # The records of the per-episode config rebuild this replaced.
        assert [(r.setup, r.mean_reward, r.std_reward, r.mean_speed, r.mean_purity) for r in report.records] == [
            ("A", 4.98, 0.54, 54.6, 98.2),
            ("B", 2.64, 0.72, 42.9, 98.2),
            ("C", 4.01, 0.85, 57.1, 94.3),
            ("D", 1.32, 0.62, 42.5, 96.1),
        ]

    def test_the_default_evaluation_length_is_each_setups_own(self, monkeypatch):
        factories = default_agent_factories(train_steps=500, episode_steps=50)
        setups = standard_setups(EnvVariant.ADVANCED)
        explicit = run_benchmark(setups, factories, seeds=[1, 2], steps=50)
        constructions = []
        original = EnvConfig.__post_init__
        monkeypatch.setattr(EnvConfig, "__post_init__", lambda self: (constructions.append(1), original(self))[1])
        assert run_benchmark(setups, factories, seeds=[1, 2]).records == explicit.records
        assert constructions == []  # no evaluation config, and training builds none either
        monkeypatch.undo()
        short = standard_setups(EnvVariant.BASIC, base=EnvConfig(episode_length=7))
        rba = {"rba": lambda config, seed: RuleBasedAgent(config)}
        seven = run_benchmark(short, rba, seeds=[1, 2], steps=7).records
        assert run_benchmark(short, rba, seeds=[1, 2]).records == seven
        assert seven != run_benchmark(short, rba, seeds=[1, 2], steps=50).records

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
