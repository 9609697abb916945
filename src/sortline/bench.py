"""Episode driving, trace export, and the multi-seed benchmark protocol."""

from __future__ import annotations

import json
import math
import os
import statistics
from dataclasses import asdict, dataclass, field, replace
from itertools import chain
from operator import attrgetter, ne
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

from .agents import Agent, QLearningAgent, RandomAgent, RuleBasedAgent, check_variant
from .config import ConfigError, EnvConfig, check_field
from .env import SortingLineEnv
from .rng import stream_seed
from .types import SPEED_INDICES, EnvVariant, InputType, SortingMode, speed_fraction

# Numeric mode coding used in trace files, chosen to sit on a 0..1 plot axis.
MODE_CODE = {SortingMode.BASIC: 0.0, SortingMode.POSITIVE: 0.5, SortingMode.NEGATIVE: 1.0}
CODE_MODE = {code: mode for mode, code in MODE_CODE.items()}
# Read once here for run_episode's steps, as tests/test_hot_path.py asks (see env).
_BASIC_MODE = SortingMode.BASIC
_new_tuple = tuple.__new__  # builds a TraceRow in C, as env.step builds its records


class TraceRow(NamedTuple):
    step: int
    speed: float
    mode: SortingMode
    occupancy: float
    accuracy: float
    reward: float
    cum_reward: float
    purity: float


# Trace CSV columns: the TraceRow fields, in order.
TRACE_COLUMNS = TraceRow._fields
_HEADER = ",".join(TRACE_COLUMNS) + "\n"
_HEADER_BYTES = _HEADER.encode("ascii")
# The speed column holds the speed fraction of a speed index.
TRACE_SPEEDS = frozenset(speed_fraction(k) for k in SPEED_INDICES)
# One trace row: the step, the speed and mode code as text rendered once here, then five floats
# at six decimals.  ``%.6f`` renders a float exactly as the ``:.6f`` format spec does.
_SPEED_TEXT = {speed: "%.6f" % speed for speed in TRACE_SPEEDS}
_MODE_TEXT = {mode: "%.6f" % code for mode, code in MODE_CODE.items()}
_ROW_FORMAT = "%d,%s,%s,%.6f,%.6f,%.6f,%.6f,%.6f\n"
_ROW_BYTES = b"0123456789.,-\n"  # every byte _ROW_FORMAT writes
# O_BINARY (Windows only) keeps the C runtime from writing "\n" as "\r\n".
_EXPORT_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


@dataclass(slots=True)
class EpisodeTrace:
    rows: list[TraceRow]
    config_digest: str | None = None
    seed: int | None = None
    agent_name: str | None = None


@dataclass(frozen=True, slots=True)
class EpisodeSummary:
    """Per-episode aggregates, all recomputable from the trace rows.

    Speed and purity means are on the x100 scale (55.0 means a mean speed
    fraction of 0.55).
    """

    mean_speed: float
    mean_purity: float
    cumulative_reward: float
    speed_changes: int


def summarize(trace: EpisodeTrace) -> EpisodeSummary:
    rows = trace.rows
    if not rows:
        return EpisodeSummary(0.0, 0.0, 0.0, 0)
    speeds = list(map(attrgetter("speed"), rows))
    return EpisodeSummary(
        mean_speed=100.0 * sum(speeds) / len(rows),
        mean_purity=100.0 * sum(map(attrgetter("purity"), rows)) / len(rows),
        cumulative_reward=rows[-1].cum_reward,
        speed_changes=sum(map(ne, speeds[1:], speeds)),
    )


def run_episode(
    config: EnvConfig,
    agent: Agent,
    steps: int | None = None,
    seed: int | None = None,
) -> tuple[EpisodeTrace, EpisodeSummary]:
    """Drive one full episode and record every step.

    ``steps`` and ``seed`` override the config's episode length and root seed.
    They are checked as those config fields are, but the config is rebuilt
    only for a different length: the env resets by seed, and the trace's
    digest is the config's under that seed.
    """
    check_variant(agent, config)
    # Checked in field order, as construction checks them.
    length = config.episode_length if steps is None else check_field("episode_length", steps)
    seed = config.seed if seed is None else check_field("seed", seed)
    if length != config.episode_length:
        config = replace(config, episode_length=length)  # checks length >= 1
    env = SortingLineEnv(config)
    obs = env.reset(seed)
    rows: list[TraceRow] = []
    act, step_env, notify, append, new = agent.act, env.step, agent.notify, rows.append, _new_tuple
    cum_reward = 0.0
    for step in range(1, length + 1):
        action = act(obs)
        result = step_env(action)
        notify(result)
        obs, reward, _, info = result
        cum_reward += reward
        append(new(TraceRow, (
            step, info["speed"], action.mode or _BASIC_MODE, info["occupancy"], info["accuracy"],
            reward, cum_reward, info["purity"],
        )))
    trace = EpisodeTrace(rows, config.digest(seed), seed, agent.name)
    return trace, summarize(trace)


def export_trace(trace: EpisodeTrace, path: str | Path) -> None:
    """Write a trace as ASCII CSV with "\\n" line endings: one header line,
    then one row per step with all floats at six decimals and the mode
    numerically coded (0 / 0.5 / 1).  A speed off the tenths grid or a mode
    outside ``MODE_CODE`` is a ``ValueError`` raised before the file is opened.

    An existing file is overwritten in place and cut to length only when it
    was longer.  Opening with O_TRUNC would cut a file holding data to zero
    first, and on ext4 (``auto_da_alloc``) that makes ``close`` start
    writeback of the new data on every overwrite.
    """
    fields = list(chain.from_iterable(trace.rows))  # 8 fields a row, in TraceRow order
    try:
        fields[1::8] = map(_SPEED_TEXT.__getitem__, fields[1::8])
    except KeyError as error:
        raise ValueError(f"speed {error.args[0]!r} is off the tenths grid") from None
    try:
        fields[2::8] = map(_MODE_TEXT.__getitem__, fields[2::8])
    except KeyError as error:
        raise ValueError(f"{error.args[0]!r} is not a sorting mode") from None
    data = (_HEADER + _ROW_FORMAT * len(trace.rows) % tuple(fields)).encode("ascii")
    fd = os.open(path, _EXPORT_FLAGS, 0o666)
    try:
        # Decided before writing; a device such as /dev/null reports size 0
        # and cannot be truncated.
        longer = os.fstat(fd).st_size > len(data)
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if longer:
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def load_trace(path: str | Path) -> EpisodeTrace:
    """Read a file ``export_trace`` wrote; the trace carries no tags."""
    with open(path, "rb") as file:
        data = file.read()
    try:
        lines = data.decode("ascii").splitlines()
    except UnicodeDecodeError:
        raise ValueError(f"{path} is not an ASCII trace file") from None
    if not data.startswith(_HEADER_BYTES):  # also an empty file, or a header ending "\r\n"
        raise ValueError(f"{path} is not a trace file")
    # int() and float() also take what _ROW_FORMAT never writes ("nan", "inf", "0_0.5", " 1",
    # "5e-1", "+1", a "\r" line end), so the rows, from the header's "\n" on, may hold only its bytes.
    body = data[len(_HEADER) - 1:]
    if body.translate(None, _ROW_BYTES):
        line = next(row for row in body.split(b"\n") if row.translate(None, _ROW_BYTES)).decode()
        raise ValueError(f"{path}: malformed row {line!r}")
    new = _new_tuple
    rows = []
    for position, line in enumerate(lines[1:], start=1):
        try:
            step, speed, code, occupancy, accuracy, reward, cum_reward, purity = line.split(",")
            step, speed, code = int(step), float(speed), float(code)
            occupancy, accuracy, reward = float(occupancy), float(accuracy), float(reward)
            cum_reward, purity = float(cum_reward), float(purity)
        except ValueError:  # a bad token or the wrong number of columns
            raise ValueError(f"{path}: malformed row {line!r}") from None
        mode = CODE_MODE.get(code)
        if mode is None:
            raise ValueError(f"{path}: unknown mode code in row {line!r}")
        # export_trace writes only what run_episode records: finite values, steps 1, 2, ...
        # in order, speeds on the tenths grid and fractions.  After the scan, only a number past
        # the float range reads as inf; the code, speed and fraction checks refuse it elsewhere.
        if not (math.isfinite(reward) and math.isfinite(cum_reward)):
            raise ValueError(f"{path}: non-finite value in row {line!r}")
        if step != position:
            raise ValueError(f"{path}: step {step} at row {position}: {line!r}")
        if speed not in TRACE_SPEEDS:
            raise ValueError(f"{path}: speed off the tenths grid in row {line!r}")
        if not (0.0 <= occupancy <= 1.0 and 0.0 <= accuracy <= 1.0 and 0.0 <= purity <= 1.0):
            raise ValueError(f"{path}: occupancy, accuracy or purity outside [0, 1] in row {line!r}")
        rows.append(new(TraceRow, (step, speed, mode, occupancy, accuracy, reward, cum_reward, purity)))
    return EpisodeTrace(rows)


def standard_setups(
    variant: EnvVariant = EnvVariant.BASIC, base: EnvConfig | None = None
) -> dict[str, EnvConfig]:
    """The four benchmark settings: {random, seasonal} x {clean, noisy}
    observations, with a change penalty in the seasonal settings.

    ``base`` supplies every other field (thresholds, weights, seed, ...).
    """
    base = replace(base if base is not None else EnvConfig(), variant=variant)
    return {
        "A": replace(base, input_type=InputType.RANDOM, obs_noise_level=0.0, action_penalty=0.0),
        "B": replace(base, input_type=InputType.SEASONAL, obs_noise_level=0.0, action_penalty=0.5),
        "C": replace(base, input_type=InputType.RANDOM, obs_noise_level=0.3, action_penalty=0.0),
        "D": replace(base, input_type=InputType.SEASONAL, obs_noise_level=0.3, action_penalty=0.5),
    }


AgentFactory = Callable[[EnvConfig, int], Agent]

TRAIN_STEPS = 100_000  # the Q-agent's default training budget,
EPISODE_STEPS = 250  # in episodes of this many steps


def training_episodes(train_steps: int, episode_steps: int) -> int:
    """The number of ``episode_steps``-step episodes that comes nearest
    ``train_steps``, at least one.  Both counts are checked as ``train`` checks
    an episode length: an ``int`` or integral float, at least 1."""
    try:
        counts = [check_field("episode_length", n) for n in (train_steps, episode_steps)]
    except ConfigError:
        raise ConfigError(f"training steps must be whole numbers, got {train_steps!r} and {episode_steps!r}") from None
    if min(counts) < 1:
        raise ConfigError(f"training steps must be positive, got {train_steps} and {episode_steps}")
    return max(1, round(train_steps / episode_steps))


def default_agent_factories(
    train_steps: int = TRAIN_STEPS, episode_steps: int = EPISODE_STEPS
) -> dict[str, AgentFactory]:
    """Factories for the bundled agents, keyed by each agent's ``name``, the
    names the CLI takes.  The Q-agent trains on construction in
    ``training_episodes(train_steps, episode_steps)`` episodes of
    ``episode_steps`` steps; the random agent is seeded by the training seed."""
    episodes = training_episodes(train_steps, episode_steps)

    def qtable(config: EnvConfig, train_seed: int) -> Agent:
        return QLearningAgent(config.variant, seed=train_seed).train(config, episodes, episode_steps)

    return {
        RuleBasedAgent.name: lambda config, train_seed: RuleBasedAgent(config),
        QLearningAgent.name: qtable,
        RandomAgent.name: lambda config, train_seed: RandomAgent(config.variant, seed=train_seed),
    }


@dataclass(frozen=True, slots=True)
class BenchRecord:
    setup: str
    agent: str
    seeds: int
    mean_reward: float
    std_reward: float
    mean_speed: float
    mean_purity: float


@dataclass(slots=True)
class BenchmarkReport:
    records: list[BenchRecord] = field(default_factory=list)

    def to_records_text(self) -> str:
        """One JSON record per line, in evaluation order."""
        return "\n".join(json.dumps(asdict(r), sort_keys=True) for r in self.records) + "\n"

    def format_table(self) -> str:
        header = f"{'setup':<6}{'agent':<9}{'reward':>9}{'std':>8}{'speed':>8}{'purity':>8}"
        lines = [header, "-" * len(header)]
        for r in self.records:
            lines.append(
                f"{r.setup:<6}{r.agent:<9}{r.mean_reward:>9.2f}{r.std_reward:>8.2f}"
                f"{r.mean_speed:>8.1f}{r.mean_purity:>8.1f}"
            )
        return "\n".join(lines)


def run_benchmark(
    setups: Mapping[str, EnvConfig],
    agent_factories: Mapping[str, AgentFactory],
    seeds: Sequence[int],
    steps: int | None = None,
) -> BenchmarkReport:
    """Train each agent once per setup, evaluate on every seed, aggregate.

    Evaluation order is fixed (setups in mapping order, seeds sorted), so the
    report is a deterministic function of its arguments.  Training seeds are
    derived from the first seed in the sorted list together with the setup
    and agent names.  Episodes last ``steps``, or each setup's
    ``episode_length`` if it is None.  The seeds and ``steps`` are checked as
    config fields before any agent is built.
    """
    ordered_seeds = sorted([check_field("seed", seed) for seed in seeds])
    if len(set(ordered_seeds)) != len(ordered_seeds):
        raise ConfigError("benchmark seeds must be distinct")
    if not ordered_seeds:
        raise ConfigError("benchmark needs at least one seed")
    # Checked as run_episode checks it, but before training.
    if steps is not None and check_field("episode_length", steps) < 1:
        raise ConfigError(f"evaluation episode length must be at least 1 step, got {steps}")
    report = BenchmarkReport()
    for setup_name, config in setups.items():
        eval_config = config if steps in (None, config.episode_length) else replace(config, episode_length=steps)
        for agent_name, factory in agent_factories.items():
            train_seed = stream_seed(ordered_seeds[0], f"train:{setup_name}:{agent_name}")
            agent = factory(config, train_seed)
            summaries = [run_episode(eval_config, agent, seed=seed)[1] for seed in ordered_seeds]
            rewards = [s.cumulative_reward for s in summaries]
            mean_reward = statistics.fmean(rewards)
            # Population std; statistics.pstdev gives the same figure at ~30x the cost.
            std_reward = math.sqrt(math.fsum((r - mean_reward) ** 2 for r in rewards) / len(rewards))
            report.records.append(
                BenchRecord(
                    setup=setup_name,
                    agent=agent_name,
                    seeds=len(ordered_seeds),
                    mean_reward=round(mean_reward, 2),
                    std_reward=round(std_reward, 2),
                    mean_speed=round(statistics.fmean(s.mean_speed for s in summaries), 1),
                    mean_purity=round(statistics.fmean(s.mean_purity for s in summaries), 1),
                )
            )
    return report
