"""Command-line entry points, exercised in-process through main(), except
``serve``, which runs until signalled and so runs as a subprocess."""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import sortline
from sortline.bench import TRACE_COLUMNS
from sortline.cli import main
from sortline.server import EnvClient


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestSimulate:
    def test_writes_a_trace_and_a_summary_line(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert run_cli("simulate", "--seed", 42, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(TRACE_COLUMNS)
        assert len(lines) == 51
        stdout = capsys.readouterr().out
        assert "agent=rba seed=42 steps=50" in stdout
        assert "cum_reward=" in stdout

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        run_cli("simulate", "--seed", 7, "--out", first)
        run_cli("simulate", "--seed", 7, "--out", second)
        assert first.read_bytes() == second.read_bytes()

    def test_flags_shape_the_episode(self, tmp_path):
        out = tmp_path / "short.csv"
        run_cli("simulate", "--steps", 8, "--input", "seasonal", "--out", out)
        assert len(out.read_text().splitlines()) == 9

    def test_advanced_variant_runs(self, tmp_path):
        out = tmp_path / "advanced.csv"
        assert run_cli("simulate", "--env", "advanced", "--seed", 1, "--out", out) == 0
        mode_codes = {line.split(",")[2] for line in out.read_text().splitlines()[1:]}
        assert mode_codes <= {"0.000000", "0.500000", "1.000000"}

    def test_qtable_agent_needs_a_table(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert run_cli("simulate", "--agent", "qtable", "--out", out) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_random_agent_is_seeded(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_cli("simulate", "--agent", "random", "--seed", 3, "--out", a)
        run_cli("simulate", "--agent", "random", "--seed", 3, "--out", b)
        assert a.read_bytes() == b.read_bytes()


class TestTrain:
    def test_saves_a_loadable_table(self, tmp_path, capsys):
        table = tmp_path / "policy.txt"
        code = run_cli(
            "train", "--train-steps", 400, "--episode-steps", 40, "--seed", 5, "--out", table
        )
        assert code == 0
        assert table.read_text().startswith("sortline-qtable 1\n")
        assert "trained 10 episodes x 40 steps" in capsys.readouterr().out

        out = tmp_path / "trace.csv"
        assert run_cli("simulate", "--agent", "qtable", "--table", table, "--out", out) == 0
        assert len(out.read_text().splitlines()) == 51

    def test_training_leaves_numpy_unloaded(self, tmp_path):
        script = (
            "import sys\n"
            "from sortline import cli\n"
            f"assert cli.main(['train', '--train-steps', '500', '--out', {str(tmp_path / 'q.txt')!r}]) == 0\n"
            "assert 'numpy' not in sys.modules\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(sortline.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"trained 2 episodes x 250 steps (500 total) -> {tmp_path / 'q.txt'}\n"

    def test_variant_mismatch_is_reported(self, tmp_path, capsys):
        table = tmp_path / "basic.txt"
        run_cli("train", "--train-steps", 100, "--episode-steps", 50, "--out", table)
        out = tmp_path / "trace.csv"
        code = run_cli(
            "simulate", "--env", "advanced", "--agent", "qtable", "--table", table, "--out", out
        )
        assert code == 1
        assert "basic" in capsys.readouterr().err


class TestBenchmark:
    def test_table_and_records(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        code = run_cli(
            "benchmark",
            "--seeds", 2,
            "--steps", 5,
            "--train-steps", 200,
            "--episode-steps", 50,
            "--agents", "rba,random",
            "--out", records,
        )
        assert code == 0
        table = capsys.readouterr().out.splitlines()
        assert table[0].split() == ["setup", "agent", "reward", "std", "speed", "purity"]
        assert len(table) == 10
        parsed = [json.loads(line) for line in records.read_text().splitlines()]
        assert [(r["setup"], r["agent"]) for r in parsed] == [
            (s, a) for s in "ABCD" for a in ("rba", "random")
        ]

    def test_unknown_agent_fails_cleanly(self, capsys):
        assert run_cli("benchmark", "--agents", "rba,flying") == 1
        assert "unknown agents: flying" in capsys.readouterr().err

    @pytest.mark.parametrize("agents", ["", ",", " , "])
    def test_an_empty_agent_list_fails_cleanly(self, capsys, agents):
        assert run_cli("benchmark", "--agents", agents) == 1
        assert capsys.readouterr().err.startswith("error: --agents names no agent")

    def test_a_repeated_agent_fails_cleanly(self, capsys):
        assert run_cli("benchmark", "--agents", "rba,random,rba") == 1
        assert capsys.readouterr().err.startswith("error: benchmark agents must be distinct")


@pytest.mark.parametrize("command", ["train", "benchmark"])
@pytest.mark.parametrize("flag", ["--train-steps", "--episode-steps"])
@pytest.mark.parametrize("value", [0, -5])
def test_non_positive_training_steps_fail_cleanly(tmp_path, capsys, command, flag, value):
    assert run_cli(command, flag, value, "--out", tmp_path / "out") == 1
    assert capsys.readouterr().err.startswith("error: training steps must be positive")


class TestSurface:
    def test_grid_shape_and_within_limit_cells(self, capsys):
        assert run_cli("surface") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "speed,occupancy,accuracy,reward"
        assert len(lines) == 1 + 10 * 101
        by_key = {tuple(line.split(",")[:2]): line.split(",")[2:] for line in lines[1:]}
        assert by_key[("0.1", "1.00")] == ["1.000000", "0.500000"]  # slowest speed never misses
        assert by_key[("1.0", "0.10")] == ["1.000000", "1.000000"]  # top speed at its limit
        assert by_key[("1.0", "0.50")][0] == "0.000000"  # far over the limit

    def test_writes_to_a_file(self, tmp_path):
        out = tmp_path / "surface.csv"
        assert run_cli("surface", "--out", out) == 0
        assert len(out.read_text().splitlines()) == 1011


class TestConfigPlumbing:
    def test_config_file_sets_the_episode(self, tmp_path):
        config = tmp_path / "line.cfg"
        config.write_text("# five-step line\nepisode_length = 5\ninput_type = seasonal\n")
        out = tmp_path / "trace.csv"
        assert run_cli("simulate", "--config", config, "--out", out) == 0
        assert len(out.read_text().splitlines()) == 6

    def test_flags_override_the_file(self, tmp_path):
        config = tmp_path / "line.cfg"
        config.write_text("episode_length = 5\n")
        out = tmp_path / "trace.csv"
        run_cli("simulate", "--config", config, "--steps", 12, "--out", out)
        assert len(out.read_text().splitlines()) == 13

    def test_missing_config_file(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert run_cli("simulate", "--config", tmp_path / "nope.cfg", "--out", out) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_flags_exit_with_usage_error(self):
        for command, flags in (
            ("simulate", ["--bogus"]),
            ("simulate", ["--bins", "20"]),  # the bin count is fixed
            # Flags that would change no output are not offered.
            ("benchmark", ["--seed", "3"]),
            ("surface", ["--seed", "3"]),
            ("surface", ["--env", "advanced"]),
            ("train", ["--steps", "10"]),
        ):
            with pytest.raises(SystemExit) as excinfo:
                run_cli(command, *flags)
            assert excinfo.value.code == 2
        with pytest.raises(SystemExit):
            run_cli()


class TestServe:
    def test_sigterm_shuts_the_server_down(self):
        env = dict(os.environ, PYTHONPATH=str(Path(sortline.__file__).parents[1]), PYTHONUNBUFFERED="1")
        command = [sys.executable, "-m", "sortline.cli", "serve", "--port", "0"]
        with subprocess.Popen(command, stdout=subprocess.PIPE, env=env) as proc:
            try:
                line = proc.stdout.readline().decode()
                assert line.startswith("serving basic environment on 127.0.0.1:")
                with EnvClient("127.0.0.1", int(line.rsplit(":", 1)[1]), timeout=10) as client:
                    assert client.hello()["type"] == "spec"
                    proc.send_signal(signal.SIGTERM)
                    assert proc.wait(timeout=10) == 0
            finally:
                if proc.poll() is None:
                    proc.kill()

    # In-process: bind() fails before serve installs its signal handlers.
    @pytest.mark.parametrize("port", [70000, -1])
    def test_a_port_out_of_range_fails_cleanly(self, capsys, port):
        assert run_cli("serve", "--port", port) == 1
        assert capsys.readouterr().err.startswith("error: bind(): port must be 0-65535")
