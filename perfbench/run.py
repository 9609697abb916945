"""The sortline benchmark: one workload for ``--seconds`` seconds of timed work.

    python3 perfbench/run.py --workload paper_table --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  A readable report goes to standard
error and, with every sample, to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5


def median_setup_seconds(workload: str, seed: int, gauge) -> tuple[float, float]:
    """Median over fresh interpreters of the time from process start until the
    workload is ready for its first timed operation, scaled and raw."""
    environ = dict(os.environ, PYTHONPATH=str(SRC))
    times, scaled = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            stdout=subprocess.PIPE,
            env=environ,
            cwd=ROOT,
        )
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError(f"set-up probe failed: {line!r}, exit code {code}")
        scaled.append(times[-1] * gauge.factor())
    return statistics.median(scaled), statistics.median(times)


def peak_rss_mb(with_children: bool) -> float:
    """Peak resident memory of this process (plus the largest waited-for child,
    the server, when asked), in MiB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def quantile(samples, q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def measure(cls, seed: int, seconds: float, workdir: Path):
    from speed import Gauge
    from workloads import ServeLoop

    gauge = Gauge()
    setup_s, raw_setup_s = median_setup_seconds(cls.name, seed, gauge)
    w = cls(seed, workdir)
    rounds = []
    try:
        while len(rounds) < cls.reward_rounds or sum(r.raw_seconds for r in rounds) < seconds:
            r = w.round(len(rounds), gauge)
            w.verify(len(rounds))
            rounds.append(r)
    finally:
        w.close()
    first = rounds[: cls.reward_rounds]
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(cls is ServeLoop), "MB"),
        "round_s": (statistics.median(r.seconds for r in rounds), "s"),
        "steps_per_s": (statistics.median(r.steps / r.step_seconds for r in rounds), "1/s"),
        "episodes_per_s": (statistics.median(r.episodes / r.episode_seconds for r in rounds), "1/s"),
        "reward": (statistics.fmean(r.reward for r in first), "reward"),
    }
    # The same figures under the names a reader of this workload looks for,
    # and the unscaled timings.
    named = {
        "rounds": (len(rounds), "count"),
        "raw_setup_s": (raw_setup_s, "s"),
        "raw_round_s": (statistics.median(r.raw_seconds for r in rounds), "s"),
    }
    if cls.name == "paper_table":
        named["table_s"] = metrics["round_s"]
        named["train_steps_per_s"] = metrics["steps_per_s"]
        for key in ("rba_reward", "qtable_reward"):
            named[key] = (statistics.fmean(r.extra[key] for r in first), "reward")
    elif cls.name == "eval_sweep":
        named["eval_episodes_per_s"] = metrics["episodes_per_s"]
    else:
        named["serve_steps_per_s"] = metrics["steps_per_s"]
        named["step_rtt_p50_us"] = (quantile(w.step_rtt_ns, 0.5) / 1e3, "us")
        named["step_rtt_p99_us"] = (quantile(w.step_rtt_ns, 0.99) / 1e3, "us")
        named["reset_rtt_p50_us"] = (quantile(w.reset_rtt_ns, 0.5) / 1e3, "us")
        named["step_samples"] = (len(w.step_rtt_ns), "count")
    samples = [[r.seconds, r.raw_seconds, r.steps / r.step_seconds, r.episodes / r.episode_seconds] for r in rounds]
    return metrics, named, sum(r.ops for r in rounds), sum(r.failed for r in rounds), samples


def trace_pass(cls, seed: int, seconds: float, workdir: Path):
    """Alternate untraced and traced executions of the same rounds for
    ``seconds`` of wall time (at least one pair).  Returns the tracer, its call
    counts after the first traced round, the workload, the paired durations
    and the operations attempted."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()  # set-up is traced too: it builds the rule tables
    try:
        w = cls(seed, workdir)
    finally:
        tracer.remove()
    pairs = []
    ops = 0
    counts = None
    deadline = time.perf_counter() + seconds
    try:
        while not pairs or time.perf_counter() < deadline:
            untraced, traced, n = w.trace_pair(len(pairs), tracer)
            pairs.append((untraced, traced))
            ops += n
            if counts is None:
                counts = tracer.counts()
    finally:
        w.close()
    return tracer, counts, w, pairs, ops


def layer_metrics(passes) -> dict:
    """Per-layer figures; each comes from the first pass that exercised the layer."""

    def source(span):
        for tracer, counts, w in passes:
            if span in tracer.stats and tracer.stats[span].calls:
                return tracer.stats, counts, w
        raise RuntimeError(f"no pass exercised {span}")

    def mean_us(span, kind="total_ns"):
        stats = source(span)[0][span]
        return getattr(stats, kind) / stats.calls / 1e3

    out = {}
    for span in (
        "inputs.draw", "sorting.transfer", "sorting.reward", "env.observe", "env.reset",
        "agents.act", "agents.notify", "rng.make_stream", "config.validate", "config.digest",
        "bench.summarize", "bench.export_trace", "bench.load_trace", "config.from_mapping",
        "server.handle", "server.encode", "server.decode",
    ):
        out[f"{span}_us"] = (mean_us(span), "us")
    out["env.step_self_us"] = (mean_us("env.step", "self_ns"), "us")
    out["bench.run_episode_self_us"] = (mean_us("bench.run_episode", "self_ns"), "us")
    out["agents.rba_build_ms"] = (mean_us("agents.rba_build") / 1e3, "ms")
    stats, counts, _ = source("sorting.accuracy")
    out["sorting.accuracy_us"] = (stats["sorting.accuracy"].total_ns / stats["env.step"].calls / 1e3, "us")
    for name, span in (("inputs.draws", "inputs.draw"), ("env.steps", "env.step"), ("rng.streams", "rng.make_stream")):
        out[name] = (source(span)[1][span], "count")
    _, _, serve = source("server.handle")
    transport_ns = statistics.fmean(serve.step_rtt_ns) - statistics.fmean(serve.step_busy_ns)
    out["server.transport_us"] = (transport_ns / 1e3, "us")
    return out


def trace(cls, seed: int, seconds: float, workdir: Path):
    from workloads import WORKLOADS

    tracer, counts, w, pairs, ops = trace_pass(cls, seed, seconds, workdir)
    passes = [(tracer, counts, w)]
    # Layers this workload never calls are traced on one round of each other
    # workload that calls them, so that every layer figure is measured.
    for other in ("eval_sweep", "serve_loop"):
        if other != cls.name:
            t, c, ow, _, n = trace_pass(WORKLOADS[other], seed, 0.0, workdir)
            passes.append((t, c, ow))
            ops += n
    metrics = layer_metrics(passes)
    untraced = statistics.median(u for u, _ in pairs)
    traced = statistics.median(t for _, t in pairs)
    metrics["trace.overhead_pct"] = (100.0 * (traced / untraced - 1.0), "%")
    named = {"pairs": (len(pairs), "count"), "untraced_s": (untraced, "s"), "traced_s": (traced, "s")}
    return metrics, named, ops, 0, pairs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["paper_table", "eval_sweep", "serve_loop"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "sortline" / "__init__.py").is_file():
        print(f"error: no sortline sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashes are salted per process, and the dict layouts that
        # follow move timings by several percent from one run to the next.
        environ = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], environ)
    sys.path[:0] = [str(SRC), str(HERE)]
    # One CPU for the benchmark and every process it starts: the serve_loop
    # client and server then share the core the speed gauge measures, and
    # no round migrates between cores.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    from checks import CheckFailed
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    workdir = HERE / ".work" / str(os.getpid())
    workdir.mkdir(parents=True)
    correct = True
    try:
        run = trace if args.trace else measure
        metrics, named, attempted, failed, samples = run(cls, args.seed, args.seconds, workdir)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
    finally:
        shutil.rmtree(workdir)
        with contextlib.suppress(OSError):  # still in use by another run
            workdir.parent.rmdir()
    if not correct:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1

    for name, (value, unit) in {**metrics, **named}.items():
        print(f"{args.workload:<12} {name:<28} {value:>16.6f} {unit}", file=sys.stderr)
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    report = {
        **vars(args),
        **result,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "samples": samples,
    }
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
