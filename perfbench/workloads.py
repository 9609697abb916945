"""The three workloads: what one round does, and how its outputs are checked.

Every round of a workload attempts the same operations on fresh inputs
derived from the workload seed and the round number, so a later round never
repeats an earlier one's inputs.  ``round`` does the timed work and keeps what
``verify`` needs; ``verify`` runs outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

from checks import (
    CheckFailed,
    check_episode_means,
    check_qtable,
    check_roundtrip,
    finite,
    require,
    strict_loads,
)
from refmodel import ReferenceLine, check_rows, close, replay
from speed import Gauge

from sortline import agents, bench, config as config_mod, env as env_mod, server
from sortline.types import Action, EnvVariant, Observation, SortingMode

ROOT = Path(__file__).resolve().parent.parent
_now = time.perf_counter_ns

EVAL_STEPS = 50  # the paper's evaluation episode length


def derive(seed: int, *parts) -> int:
    """A 48-bit input seed for the program, from the workload seed and labels."""
    text = ":".join(str(p) for p in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode("ascii")).digest()[:6], "big")


def cells() -> list[tuple[str, object]]:
    """The 8 setup x variant cells: setups A-D of each variant."""
    return [
        (f"{variant.value}-{name}", cfg)
        for variant in EnvVariant
        for name, cfg in bench.standard_setups(variant).items()
    ]


def trace_tuples(trace) -> list[tuple]:
    return [(r.speed, r.occupancy, r.accuracy, r.reward, r.cum_reward, r.purity) for r in trace.rows]


@dataclass
class Round:
    """One round's timings, each unit of work scaled by its own speed factor
    (see speed.py); ``raw_seconds`` is the unscaled wall time."""

    seconds: float
    raw_seconds: float
    ops: int
    steps: int
    step_seconds: float
    episodes: int
    episode_seconds: float
    reward: float  # mean cumulative reward per evaluated episode
    failed: int = 0
    extra: dict = field(default_factory=dict)


class InProcess:
    """A workload whose layers all run in this process."""

    def trace_pair(self, k: int, tracer) -> tuple[float, float, int]:
        """Round ``k`` untraced and traced, in alternating order.  Returns the
        two timed durations and the operations attempted."""
        seconds = {}
        ops = 0
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            try:
                r = self.round(k, Gauge(enabled=False))
            finally:
                tracer.remove()
            self.verify(k)
            seconds[traced] = r.seconds
            ops += r.ops
        return seconds[False], seconds[True], ops


class PaperTable(InProcess):
    """``bench.run_benchmark`` over setups A-D x {rba, qtable} for both
    variants, one call per setup x agent cell so that each cell is timed on
    its own; the records equal those of one call over all cells.

    Training is cut from the paper's 100k to 5k steps per Q-table so that a
    run holds a dozen or more whole tables.
    """

    name = "paper_table"
    reward_rounds = 4
    TRAIN_STEPS = 5_000
    EPISODE_STEPS = 250
    EVAL_SEEDS = 10

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.setups = {v: bench.standard_setups(v) for v in EnvVariant}
        base = bench.default_agent_factories(self.TRAIN_STEPS, self.EPISODE_STEPS)
        self.made: list = []
        self.train_ns = 0

        def rba(cfg, train_seed):
            agent = base["rba"](cfg, train_seed)
            self.made.append((cfg, agent))
            return agent

        def qtable(cfg, train_seed):
            start = _now()
            agent = base["qtable"](cfg, train_seed)
            self.train_ns += _now() - start
            self.made.append((cfg, agent))
            return agent

        self.factories = {"rba": rba, "qtable": qtable}

    def round(self, k: int, gauge: Gauge) -> Round:
        seeds = [derive(self.seed, self.name, k, i) for i in range(self.EVAL_SEEDS)]
        self.made = []
        records = []
        seconds = raw = train_s = 0.0
        for variant in EnvVariant:
            for setup, cfg in self.setups[variant].items():
                for agent_name, factory in self.factories.items():
                    self.train_ns = 0
                    start = _now()
                    report = bench.run_benchmark({setup: cfg}, {agent_name: factory}, seeds, steps=EVAL_STEPS)
                    elapsed = (_now() - start) / 1e9
                    factor = gauge.factor()
                    raw += elapsed
                    seconds += elapsed * factor
                    train_s += self.train_ns / 1e9 * factor
                    records.extend((variant, r) for r in report.records)
        self.last = (sorted(seeds), records, self.made)
        rba = [r.mean_reward for _, r in records if r.agent == "rba"]
        qtable = [r.mean_reward for _, r in records if r.agent == "qtable"]
        return Round(
            seconds=seconds,
            raw_seconds=raw,
            ops=len(records),
            steps=len(qtable) * round(self.TRAIN_STEPS / self.EPISODE_STEPS) * self.EPISODE_STEPS,
            step_seconds=train_s,
            episodes=len(records) * len(seeds),
            episode_seconds=seconds - train_s,
            reward=statistics.fmean(rba + qtable),
            extra={"rba_reward": statistics.fmean(rba), "qtable_reward": statistics.fmean(qtable)},
        )

    def verify(self, k: int) -> None:
        seeds, records, made = self.last
        require(len(records) == 16 and len(made) == 16, f"{len(records)} records, {len(made)} agents")
        sample = k % len(records)
        for i, ((variant, rec), (cfg, agent)) in enumerate(zip(records, made)):
            where = f"round {k} {variant.value}-{rec.setup}-{rec.agent}"
            require(cfg == self.setups[variant][rec.setup] and agent.name == rec.agent, f"{where}: cell order")
            require(rec.seeds == len(seeds) and rec.std_reward >= 0.0, f"{where}: seeds/std")
            check_episode_means(rec.mean_speed, rec.mean_purity, rec.mean_reward, EVAL_STEPS, cfg, where)
            if isinstance(agent, agents.QLearningAgent):
                check_qtable(agent, cfg, where)
            # The record's means, recomputed by the model with the same agent.
            runs = [replay(cfg, agent, s, EVAL_STEPS) for s in seeds]
            mean_reward = statistics.fmean(rows[-1][4] for rows in runs)
            mean_speed = statistics.fmean(100.0 * statistics.fmean(r[0] for r in rows) for rows in runs)
            mean_purity = statistics.fmean(100.0 * statistics.fmean(r[5] for r in rows) for rows in runs)
            require(abs(rec.mean_reward - mean_reward) <= 0.005 + 1e-9, f"{where}: reward {rec.mean_reward} vs model {mean_reward}")
            require(abs(rec.mean_speed - mean_speed) <= 0.05 + 1e-9, f"{where}: speed {rec.mean_speed} vs model {mean_speed}")
            require(abs(rec.mean_purity - mean_purity) <= 0.05 + 1e-9, f"{where}: purity {rec.mean_purity} vs model {mean_purity}")
            if i == sample:
                trace, _ = bench.run_episode(cfg, agent, steps=EVAL_STEPS, seed=seeds[0])
                mismatch = check_rows(runs[0], trace_tuples(trace))
                require(mismatch is None, f"{where}: per-step model check: {mismatch}")

    def close(self) -> None:
        pass


class EvalSweep(InProcess):
    """The rule agent through ``bench.run_episode`` on many seeds in all 8
    cells; every trace is exported with ``export_trace`` and read back."""

    name = "eval_sweep"
    reward_rounds = 4
    SEEDS_PER_CELL = 16

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.cells = cells()
        self.agents = [agents.RuleBasedAgent(cfg) for _, cfg in self.cells]
        self.paths = [workdir / f"{label}.csv" for label, _ in self.cells]

    def round(self, k: int, gauge: Gauge) -> Round:
        done = []
        seconds = raw = 0.0
        for c, ((label, cfg), agent, path) in enumerate(zip(self.cells, self.agents, self.paths)):
            start = _now()
            for j in range(self.SEEDS_PER_CELL):
                s = derive(self.seed, self.name, k, c, j)
                trace, summary = bench.run_episode(cfg, agent, steps=EVAL_STEPS, seed=s)
                bench.export_trace(trace, path)
                done.append((c, j, s, trace, summary, bench.load_trace(path)))
            elapsed = (_now() - start) / 1e9
            raw += elapsed
            seconds += elapsed * gauge.factor()
        self.last = done
        return Round(
            seconds=seconds,
            raw_seconds=raw,
            ops=len(done),
            steps=len(done) * EVAL_STEPS,
            step_seconds=seconds,
            episodes=len(done),
            episode_seconds=seconds,
            reward=statistics.fmean(d[4].cumulative_reward for d in done),
        )

    def verify(self, k: int) -> None:
        for c, j, s, trace, summary, loaded in self.last:
            label, cfg = self.cells[c]
            where = f"round {k} {label} seed {s}"
            require(len(trace.rows) == EVAL_STEPS and trace.seed == s, f"{where}: trace length/seed")
            require(trace.config_digest is not None and trace.agent_name == "rba", f"{where}: trace tags")
            check_episode_means(summary.mean_speed, summary.mean_purity, summary.cumulative_reward, EVAL_STEPS, cfg, where)
            if j % 4 == k % 4:
                check_roundtrip(trace, loaded, where)
            if j == k % self.SEEDS_PER_CELL:
                mismatch = check_rows(replay(cfg, self.agents[c], s, EVAL_STEPS), trace_tuples(trace))
                require(mismatch is None, f"{where}: per-step model check: {mismatch}")

    def close(self) -> None:
        pass


def _start_server() -> tuple[subprocess.Popen, int]:
    """``sortline serve`` on an ephemeral port, from this checkout's sources."""
    environ = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "sortline.cli", "serve", "--env", "basic", "--host", "127.0.0.1", "--port", "0"],
        stdout=subprocess.PIPE,
        env=environ,
        cwd=ROOT,
    )
    line = proc.stdout.readline().decode()
    if not line.startswith("serving"):
        _stop(proc)
        raise RuntimeError(f"server did not start: {line!r}")
    return proc, int(line.rsplit(":", 1)[1])


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    proc.stdout.close()


def _action_payload(action: Action) -> dict:
    payload = {"speed": action.speed_index}
    if action.mode is not None:
        payload["mode"] = action.mode.value
    return payload


def _payload(obs: Observation) -> dict:
    payload = {"input_total": obs.input_total}
    if obs.ratio_category is not None:
        payload["ratio_category"] = obs.ratio_category.value
    return payload


def _observation(payload: dict) -> Observation:
    category = payload.get("ratio_category")
    return Observation(payload["input_total"], SortingMode(category) if category is not None else None)


class ServeLoop:
    """One client in a closed loop against a ``sortline serve`` subprocess.

    Each episode is one ``reset`` whose config overrides select the next of
    the 8 cells, then steps until ``done``, with the rule agent acting on the
    client side.
    """

    name = "serve_loop"
    reward_rounds = 32

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.cells = cells()
        self.agents = [agents.RuleBasedAgent(cfg) for _, cfg in self.cells]
        self.overrides = [
            {
                "variant": cfg.variant.value,
                "input_type": cfg.input_type.value,
                "obs_noise_level": cfg.obs_noise_level,
                "action_penalty": cfg.action_penalty,
            }
            for _, cfg in self.cells
        ]
        self.proc, port = _start_server()
        try:
            self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.file = self.sock.makefile("rwb")
            spec = self._request({"type": "hello"})
            require(spec.get("type") == "spec", f"hello answered with {spec!r}")
        except BaseException:
            _stop(self.proc)
            raise
        # Round trips scaled to the reference host speed, kept compact so that
        # their number does not show in peak_rss_mb.
        self.step_rtt_ns = array("d")
        self.reset_rtt_ns = array("d")
        self.stream: list[tuple[str, bytes]] = []  # the last round's requests
        self.step_busy_ns = array("d")

    def _request(self, payload: dict):
        self.file.write((json.dumps(payload) + "\n").encode())
        self.file.flush()
        line = self.file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return strict_loads(line)

    def round(self, k: int, gauge: Gauge) -> Round:
        file = self.file
        sampled = k % len(self.cells)
        steps = failed = 0
        rewards = []
        step_rtt, reset_rtt = [], []
        stream = self.stream = []
        start = _now()
        for c, (agent, overrides) in enumerate(zip(self.agents, self.overrides)):
            s = derive(self.seed, self.name, k, c)
            line = (json.dumps({"type": "reset", "seed": s, "config": overrides}) + "\n").encode()
            stream.append(("reset", line))
            t0 = _now()
            file.write(line)
            file.flush()
            raw = file.readline()
            reset_rtt.append(_now() - t0)
            response = strict_loads(raw)
            if response.get("type") != "state":
                failed += 1
                continue
            log = [response] if c == sampled else None
            obs = _observation(response["observation"])
            cum = 0.0
            done = False
            while not done:
                action = agent.act(obs)
                line = (json.dumps({"type": "step", "action": _action_payload(action)}) + "\n").encode()
                stream.append(("step", line))
                t0 = _now()
                file.write(line)
                file.flush()
                raw = file.readline()
                step_rtt.append(_now() - t0)
                response = strict_loads(raw)
                if response.get("type") != "state":
                    failed += 1
                    break
                steps += 1
                cum += response["reward"]
                done = response["done"]
                obs = _observation(response["observation"])
                if log is not None:
                    log.append((action, response))
            rewards.append(cum)
            if log is not None:
                self.sample = (c, s, log)
        raw = (_now() - start) / 1e9
        factor = gauge.factor()
        self.step_rtt_ns.extend(x * factor for x in step_rtt)
        self.reset_rtt_ns.extend(x * factor for x in reset_rtt)
        seconds = raw * factor
        return Round(
            seconds=seconds,
            raw_seconds=raw,
            ops=len(self.cells) + steps + failed,
            steps=steps,
            step_seconds=seconds,
            episodes=len(self.cells),
            episode_seconds=seconds,
            reward=statistics.fmean(rewards),
            failed=failed,
        )

    def verify(self, k: int) -> None:
        """The sampled episode's floats equal an in-process replay of the same
        seed, config and actions, and agree with the reference model."""
        c, s, log = self.sample
        label, cfg = self.cells[c]
        where = f"round {k} {label} seed {s} over TCP"
        first, steps = log[0], log[1:]
        require(len(steps) == cfg.episode_length, f"{where}: {len(steps)} steps")
        local = env_mod.SortingLineEnv(config_mod.config_from_mapping(self.overrides[c]))
        model = ReferenceLine(cfg)
        obs = local.reset(seed=s)
        model_obs = model.reset(s)
        require(first["observation"] == _payload(obs), f"{where}: reset observation")
        require(close(model_obs.input_total, obs.input_total), f"{where}: model reset observation")
        cum = model_cum = 0.0
        for n, (action, response) in enumerate(steps, start=1):
            result = local.step(action)
            out = model.step(action.speed_index, action.mode)
            cum += response["reward"]
            model_cum += out.reward
            require(finite(response["reward"]) and response["reward"] == result.reward, f"{where}: step {n} reward")
            require(response["observation"] == _payload(result.observation), f"{where}: step {n} observation")
            require(response["info"] == result.info and response["done"] == result.done, f"{where}: step {n} info/done")
            info = response["info"]
            for name, x, y in (
                ("occupancy", out.occupancy, info["occupancy"]),
                ("accuracy", out.accuracy, info["accuracy"]),
                ("reward", out.reward, response["reward"]),
                ("cum_reward", model_cum, cum),
                ("purity", out.purity, info["purity"]),
                ("observation", out.observation.input_total, response["observation"]["input_total"]),
            ):
                require(close(x, y), f"{where}: step {n} {name}: server {y!r}, model {x!r}")

    def replay(self, tracer=None) -> tuple[int, list[int]]:
        """Feed the last recorded request stream through ``server.Session`` and
        the server's JSON decode/encode in-process.  Returns the total time and
        the busy time of each step request."""
        session = server.Session(config_mod.EnvConfig())
        decode = tracer.decode if tracer is not None else json.loads
        step_busy = []
        start = _now()
        for kind, line in self.stream:
            t0 = _now()
            response, _ = session.handle(decode(line))
            server._encode(response)
            if kind == "step":
                step_busy.append(_now() - t0)
        return _now() - start, step_busy

    def trace_pair(self, k: int, tracer) -> tuple[float, float, int]:
        """Round ``k`` over TCP untraced, then its request stream replayed
        in-process untraced and traced, in alternating order.  Returns the two
        replay durations and the operations attempted."""
        r = self.round(k, Gauge(enabled=False))
        self.verify(k)
        seconds = {}
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
                try:
                    total, _ = self.replay(tracer)
                finally:
                    tracer.remove()
            else:
                total, busy = self.replay()
                self.step_busy_ns.extend(busy)
            seconds[traced] = total / 1e9
        return seconds[False], seconds[True], r.ops

    def close(self) -> None:
        try:
            self._request({"type": "close"})
        except (OSError, CheckFailed):
            pass
        finally:
            self.file.close()
            self.sock.close()
            _stop(self.proc)


WORKLOADS = {w.name: w for w in (PaperTable, EvalSweep, ServeLoop)}
