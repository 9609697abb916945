"""Alternating before/after pairs of the sortline benchmark on two checkouts.

    python3 tools/benchpairs.py PARENT CHANGE --workload paper_table --pairs 10 --seed-base 9500

Pair ``i`` runs ``python3 perfbench/run.py --workload W --seed BASE+i`` from
the root of each checkout: even pairs run PARENT first, odd pairs CHANGE
first.  Standard output gets one JSON object, the per-workload block of a
``BENCH_*.json`` record: for every metric the runs of each side, their
median and quartiles (``statistics.quantiles(n=4, method='inclusive')``), the
pairs the change won and lost in the metric's direction (ties count for
neither), ``median_change_pct``, the parent's interquartile range (IQR) and a
``verdict``, ``bound`` being the metric's relative bound:

* ``"worse"``: the change's median is worse than the parent's by more than
  ``bound`` times the parent's median;
* ``"unresolved"``: the parent's IQR exceeds ``bound`` times its median, and
  not every change run beats every parent run;
* ``"gain"``: the change won at least 9/10 of the pairs and its median beats
  the parent's by more than the parent's IQR;
* ``"within bound"``: any other case.

A per-layer figure declares no bound, so it is never worse or unresolved.
Workload names, metric directions and bounds come from CHANGE's
``BENCHMARK.json``.  With ``--trace 1`` the metrics are the per-layer figures
and call counts.

The exit status is 0 only when every run of both sides reports
``correct: true``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; its result is the last line of standard output.  The
    run's report on standard error is passed on when it is not correct."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 1, "failed": 0, "metrics": {}}
    if result["correct"] is not True:
        sys.stderr.write(proc.stderr)
    return result


def spread(runs: list[float]) -> dict:
    if len(runs) > 1:
        q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    else:
        q1 = q3 = runs[0]
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": runs}


def verdict(parent: dict, change: dict, sign: float, bound: float, wins: int) -> str:
    """The module docstring's verdict on one metric; ``sign`` is 1 when higher is better."""
    scale = bound * abs(parent["median"])
    gap = sign * (change["median"] - parent["median"])
    iqr = parent["q3"] - parent["q1"]
    if gap < -scale:
        return "worse"
    if iqr > scale and min(sign * c for c in change["runs"]) <= max(sign * p for p in parent["runs"]):
        return "unresolved"
    if wins >= 0.9 * len(parent["runs"]) and gap > iqr:
        return "gain"
    return "within bound"


def summarize(results: dict[str, list[dict]], declared: dict[str, dict]) -> dict:
    """Per-metric spread of each side, pair wins, the median change and the verdict."""
    metrics = {}
    names = [name for name in declared if all(name in r["metrics"] for side in SIDES for r in results[side])]
    for name in names:
        runs = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        sign = 1.0 if declared[name]["better"] == "higher" else -1.0
        gaps = [sign * (c - p) for p, c in zip(runs["parent"], runs["change"])]
        parent, change = spread(runs["parent"]), spread(runs["change"])
        wins = sum(gap > 0 for gap in gaps)
        metrics[name] = {
            "unit": declared[name]["unit"],
            "better": declared[name]["better"],
            **({"bound": declared[name]["bound"]} if "bound" in declared[name] else {}),
            "parent": parent,
            "change": change,
            "change_wins": wins,
            "change_losses": sum(gap < 0 for gap in gaps),
            "median_change_pct": (
                100.0 * (change["median"] / parent["median"] - 1.0) if parent["median"] else None
            ),
            "parent_iqr": parent["q3"] - parent["q1"],
            "verdict": verdict(parent, change, sign, declared[name].get("bound", math.inf), wins),
        }
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the checkout before the change")
    parser.add_argument("change", type=Path, help="root of the checkout with the change")
    parser.add_argument("--workload", required=True, help="a workload CHANGE's BENCHMARK.json declares")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for checkout in checkouts.values():
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"no perfbench/run.py under {checkout}")
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}, got {args.workload!r}")
    declared = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}

    seeds = [args.seed_base + i for i in range(args.pairs)]
    orders = [SIDES if i % 2 == 0 else SIDES[::-1] for i in range(args.pairs)]
    results: dict[str, list[dict]] = {side: [] for side in SIDES}
    for i, (seed, order) in enumerate(zip(seeds, orders)):
        for side in order:
            result = run_once(checkouts[side], args.workload, seed, args.seconds, args.trace)
            results[side].append(result)
            print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: correct={result['correct']}", file=sys.stderr)

    correct = all(r["correct"] is True for side in SIDES for r in results[side])
    block = {
        "pairs": args.pairs,
        "seeds": seeds,
        "first": [order[0] for order in orders],
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": {side: [r["attempted"] for r in results[side]] for side in SIDES},
        "failed": {side: [r["failed"] for r in results[side]] for side in SIDES},
        "metrics": summarize(results, declared),
    }
    print(json.dumps({args.workload: block}, indent=1))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
