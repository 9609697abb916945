"""Command-line interface: simulate, train, benchmark, serve, surface."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .agents import QLearningAgent
from .bench import (
    default_agent_factories,
    export_trace,
    run_benchmark,
    run_episode,
    standard_setups,
    training_episodes,
)
from .config import ConfigError, EnvConfig, config_from_mapping, load_config_file
from .server import serve
from .sorting import deterministic_accuracy, step_reward
from .types import SPEED_INDICES, EnvVariant, InputType, speed_fraction

# Flags that override one config field each: their argparse options, with the
# field as ``dest``.  A command registers only the flags that change its output.
CONFIG_FLAGS = {
    "--env": dict(dest="variant", choices=[v.value for v in EnvVariant], help="environment variant"),
    "--seed": dict(dest="seed", type=int, help="root seed"),
    "--input": dict(dest="input_type", choices=[t.value for t in InputType], help="input generator"),
    "--noise": dict(dest="obs_noise_level", type=float, metavar="LEVEL", help="observation noise level"),
    "--penalty": dict(dest="action_penalty", type=float, metavar="PENALTY", help="speed-change penalty"),
    "--steps": dict(dest="episode_length", type=int, metavar="STEPS", help="episode length"),
}


def _add_config_flags(parser: argparse.ArgumentParser, *flags: str) -> None:
    parser.add_argument("--config", metavar="FILE", help="config file with key = value lines")
    for flag in flags:
        parser.add_argument(flag, **CONFIG_FLAGS[flag])


def _config_from_args(args: argparse.Namespace) -> EnvConfig:
    config = load_config_file(args.config) if args.config else EnvConfig()
    overrides = {o["dest"]: getattr(args, o["dest"], None) for o in CONFIG_FLAGS.values()}
    return config_from_mapping({k: v for k, v in overrides.items() if v is not None}, base=config)


def _make_agent(args: argparse.Namespace, config: EnvConfig):
    if args.agent != "qtable":
        return default_agent_factories()[args.agent](config, config.seed)
    if not args.table:
        raise ConfigError("--agent qtable needs --table FILE (see the train command)")
    return QLearningAgent.load(args.table)


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    agent = _make_agent(args, config)
    trace, summary = run_episode(config, agent)
    export_trace(trace, args.out)
    print(
        f"agent={trace.agent_name} seed={trace.seed} steps={len(trace.rows)} "
        f"cum_reward={summary.cumulative_reward:.2f} mean_speed={summary.mean_speed:.1f} "
        f"mean_purity={summary.mean_purity:.1f} speed_changes={summary.speed_changes} "
        f"trace={args.out}"
    )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    train = default_agent_factories(args.train_steps, args.episode_steps)["qtable"]
    agent = train(config, config.seed)
    agent.save(args.out)
    episodes = training_episodes(args.train_steps, args.episode_steps)
    print(
        f"trained {episodes} episodes x {args.episode_steps} steps "
        f"({episodes * args.episode_steps} total) -> {args.out}"
    )
    return 0


def cmd_benchmark(args: argparse.Namespace) -> int:
    base = _config_from_args(args)
    setups = standard_setups(base.variant, base=base)
    factories = default_agent_factories(args.train_steps, args.episode_steps)
    known = ", ".join(factories)
    wanted = [name.strip() for name in args.agents.split(",") if name.strip()]
    if not wanted:
        raise ConfigError(f"--agents names no agent (choose from {known})")
    unknown = [name for name in wanted if name not in factories]
    if unknown:
        raise ConfigError(f"unknown agents: {', '.join(unknown)} (choose from {known})")
    if len(set(wanted)) != len(wanted):
        raise ConfigError(f"benchmark agents must be distinct, got {args.agents!r}")
    picked = {name: factories[name] for name in wanted}
    seeds = [args.seed_base + i for i in range(args.seeds)]
    report = run_benchmark(setups, picked, seeds, steps=args.steps)
    if args.out:
        Path(args.out).write_text(report.to_records_text())
    print(report.format_table())
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    serve(_config_from_args(args), host=args.host, port=args.port)
    return 0


def cmd_surface(args: argparse.Namespace) -> int:
    """Dump the zero-noise accuracy and reward grids over speed x occupancy."""
    config = _config_from_args(args)
    lines = ["speed,occupancy,accuracy,reward"]
    for speed_index in SPEED_INDICES:
        for hundredth in range(101):
            occ = hundredth / 100.0
            alpha = deterministic_accuracy(speed_index, occ, config)
            reward = step_reward(alpha, speed_index, config, speed_changed=False)
            lines.append(
                f"{speed_fraction(speed_index):.1f},{occ:.2f},{alpha:.6f},{reward:.6f}"
            )
    text = "\n".join(lines) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sortline", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    simulate = commands.add_parser("simulate", help="run one episode and export its trace")
    _add_config_flags(simulate, *CONFIG_FLAGS)
    simulate.add_argument("--agent", choices=list(default_agent_factories()), default="rba")
    simulate.add_argument("--table", metavar="FILE", help="table file for --agent qtable")
    simulate.add_argument("--out", default="trace.csv", help="trace CSV path")
    simulate.set_defaults(func=cmd_simulate)

    train = commands.add_parser("train", help="train a Q-table and save it")
    # Training sets its own episode length.
    _add_config_flags(train, "--env", "--seed", "--input", "--noise", "--penalty")
    train.add_argument("--train-steps", type=int, default=100_000)
    train.add_argument("--episode-steps", type=int, default=250)
    train.add_argument("--out", default="qtable.txt")
    train.set_defaults(func=cmd_train)

    benchmark = commands.add_parser(
        "benchmark", help="train and evaluate agents over the four standard setups"
    )
    # The setups fix input, noise and penalty; the seeds and lengths are flags below.
    _add_config_flags(benchmark, "--env")
    benchmark.add_argument("--seeds", type=int, default=10, help="number of evaluation seeds")
    benchmark.add_argument("--seed-base", type=int, default=1000, help="first evaluation seed")
    benchmark.add_argument("--steps", type=int, default=50, help="evaluation episode length")
    benchmark.add_argument("--train-steps", type=int, default=100_000)
    benchmark.add_argument("--episode-steps", type=int, default=250)
    benchmark.add_argument("--agents", default="rba,qtable", help="comma-separated agent names")
    benchmark.add_argument("--out", metavar="FILE", help="also write one JSON record per line")
    benchmark.set_defaults(func=cmd_benchmark)

    server = commands.add_parser("serve", help="expose environments over TCP")
    _add_config_flags(server, *CONFIG_FLAGS)
    server.add_argument("--host", default="127.0.0.1")
    server.add_argument("--port", type=int, default=5555)
    server.set_defaults(func=cmd_serve)

    surface = commands.add_parser(
        "surface", help="dump the zero-noise accuracy/reward grids as CSV"
    )
    _add_config_flags(surface)
    surface.add_argument("--out", default="-", help="output path, - for stdout")
    surface.set_defaults(func=cmd_surface)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # OverflowError: a port outside 0-65535 fails in bind().
    except (ConfigError, OSError, OverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
