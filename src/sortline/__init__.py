"""Deterministic simulator of a two-material industrial sorting line.

The package bundles the environment (basic and advanced variants), the input
generators, baseline agents, a benchmark harness with trace export, and a
line-protocol TCP server for driving environments from other processes.
"""

from .agents import QLearningAgent, RandomAgent, RuleBasedAgent, bin_index
from .bench import (
    BenchmarkReport,
    EpisodeSummary,
    EpisodeTrace,
    default_agent_factories,
    export_trace,
    load_trace,
    run_benchmark,
    run_episode,
    standard_setups,
    summarize,
)
from .config import DEFAULT_OCCUPANCY_LIMITS, ConfigError, EnvConfig, load_config_file
from .env import EnvState, EpisodeDoneError, SortingLineEnv, StepResult
from .server import EnvClient, EnvServer, serve
from .types import (
    Action,
    EnvVariant,
    InputType,
    MaterialMix,
    Observation,
    SortingMode,
    StorageTally,
)

__version__ = "0.1.0"

__all__ = [
    "Action",
    "BenchmarkReport",
    "ConfigError",
    "DEFAULT_OCCUPANCY_LIMITS",
    "EnvClient",
    "EnvConfig",
    "EnvServer",
    "EnvState",
    "EnvVariant",
    "EpisodeDoneError",
    "EpisodeSummary",
    "EpisodeTrace",
    "InputType",
    "MaterialMix",
    "Observation",
    "QLearningAgent",
    "RandomAgent",
    "RuleBasedAgent",
    "SortingLineEnv",
    "SortingMode",
    "StepResult",
    "StorageTally",
    "bin_index",
    "default_agent_factories",
    "export_trace",
    "load_config_file",
    "load_trace",
    "run_benchmark",
    "run_episode",
    "serve",
    "standard_setups",
    "summarize",
]
