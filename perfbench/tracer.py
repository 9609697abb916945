"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces the public functions and methods of each module
with timing wrappers, at the names through which the program itself calls
them (``env.base_accuracy``, which env.py imported, not
``sorting.base_accuracy``), and
``Tracer.remove`` puts the originals back.  Spans nest: a span's self time is
its duration minus the time its child spans cover.  Spans stay in memory as
per-name totals.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass

from sortline import agents, bench, config, env, inputs, server

_now = time.perf_counter_ns


@dataclass
class SpanStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


def _patch_points():
    """(owner, attribute, span name) for every traced call site."""
    return [
        (inputs.RandomInputGenerator, "draw", "inputs.draw"),
        (inputs.SeasonalInputGenerator, "draw", "inputs.draw"),
        (env, "make_stream", "rng.make_stream"),
        (agents, "make_stream", "rng.make_stream"),
        (config.EnvConfig, "validate", "config.validate"),
        (config.EnvConfig, "digest", "config.digest"),
        (server, "config_from_mapping", "config.from_mapping"),
        (env, "base_accuracy", "sorting.accuracy"),
        (env, "deterministic_accuracy", "sorting.accuracy"),
        (env, "apply_mode", "sorting.accuracy"),
        (env, "sort_transfer", "sorting.transfer"),
        (env, "step_reward", "sorting.reward"),
        (env.SortingLineEnv, "reset", "env.reset"),
        (env.SortingLineEnv, "step", "env.step"),
        (env.SortingLineEnv, "observe", "env.observe"),
        (agents.Agent, "notify", "agents.notify"),
        (agents.RuleBasedAgent, "act", "agents.act"),
        (agents.RuleBasedAgent, "__init__", "agents.rba_build"),
        (agents.QLearningAgent, "act", "agents.act"),
        (agents.QLearningAgent, "notify", "agents.notify"),
        (bench, "run_episode", "bench.run_episode"),
        (bench, "summarize", "bench.summarize"),
        (bench, "export_trace", "bench.export_trace"),
        (bench, "load_trace", "bench.load_trace"),
        (server.Session, "handle", "server.handle"),
        (server, "_encode", "server.encode"),
    ]


class Tracer:
    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self._child_ns = [0]
        self._saved: list[tuple[object, str, object]] = []
        # The server decodes each request line with json.loads; the traced
        # in-process replay calls this in its place.
        self.decode = self.wrap(json.loads, "server.decode")

    def wrap(self, fn, name: str):
        stats = self.stats.setdefault(name, SpanStats())
        child_ns = self._child_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_ns.append(0)
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _now() - start
                children = child_ns.pop()
                child_ns[-1] += elapsed
                stats.calls += 1
                stats.total_ns += elapsed
                stats.self_ns += elapsed - children

        return traced

    def install(self) -> None:
        for owner, attr, name in _patch_points():
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def counts(self) -> dict[str, int]:
        return {name: s.calls for name, s in self.stats.items()}
