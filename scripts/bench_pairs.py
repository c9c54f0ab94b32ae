#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, and the gain rule on them.

Runs ``bench/run_bench.py --trace 0`` on one workload in a parent checkout
and in a changed one, pair after pair, the parent first in even pairs and
the change first in odd ones, so slow drift of the host falls on both
sides alike.  Pair k uses seed ``seeds[k % len(seeds)]``.  For every
end-to-end metric of the change's ``BENCHMARK.json`` it prints each side's
median and quartiles, the number of pairs the change won, whether the
gain rule holds (the change is better in at least 9 of every 10 pairs, and
its median is better than the parent's by more than the parent's
interquartile range) and whether the change's median is worse than the
parent's by more than the metric's ``bound``, a fraction of the parent's
median.

Each run is a fresh process in its checkout's root, with bytecode writing
off; ``run_bench.py`` removes its own work directory, so neither checkout
is left changed.

Example:
    python3 scripts/bench_pairs.py ../parent . --workload chain_corpus \\
        --seeds 101-110 --pairs 10 --seconds 20
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9  # the change must win at least this share of the pairs


def parse_seeds(text: str) -> list[int]:
    """Seeds from "101-110", "1,2,5" or a mix such as "1-3,7"."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def result_line(stdout: str) -> dict:
    """The JSON object on the last line of a run's stdout."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the run printed nothing")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def judge(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The gain rule and the regression bound on paired values of one
    metric: pair k is (parent[k], change[k]); ``better`` is "lower" or
    "higher"."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))
    p1, p2, p3 = quartiles(parent)
    c1, c2, c3 = quartiles(change)
    gain = sign * (p2 - c2)
    return {"parent": (p1, p2, p3), "change": (c1, c2, c3), "wins": wins,
            "pairs": len(parent), "gain": gain, "spread": p3 - p1,
            "holds": wins >= WIN_SHARE * len(parent) and gain > p3 - p1,
            "regressed": -gain > bound * abs(p2)}


def summarize(runs: list[tuple[dict, dict]], metrics: list[dict]) -> dict[str, dict]:
    """``judge`` for every declared metric, over the pairs of result objects."""
    out = {}
    for spec in metrics:
        name = spec["name"]
        parent = [p["metrics"][name]["value"] for p, _ in runs]
        change = [c["metrics"][name]["value"] for _, c in runs]
        out[name] = judge(parent, change, spec["better"], spec["bound"])
    return out


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run_bench.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{root}: exit {done.returncode}\n{done.stderr.strip()}")
    return result_line(done.stdout)


def report(summary: dict[str, dict]) -> str:
    def side(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
    lines = [f"{'metric':16s} {'parent median [q1, q3]':>30s} {'change median [q1, q3]':>30s}"
             f" {'wins':>7s}  {'bound':9s}  gain rule"]
    for name, s in summary.items():
        wins = f"{s['wins']}/{s['pairs']}"
        lines.append(f"{name:16s} {side(s['parent']):>30s} {side(s['change']):>30s} {wins:>7s}  "
                     + ("EXCEEDED " if s["regressed"] else "within   ")
                     + ("  holds" if s["holds"] else "  does not hold"))
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"),
                    help='seeds, as "101-110" or "1,2,5" (default 1-10)')
    ap.add_argument("--pairs", type=int, default=None,
                    help="number of pairs (default: one per seed)")
    ap.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args(argv)
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    runs = []
    for k in range(args.pairs or len(args.seeds)):
        seed = args.seeds[k % len(args.seeds)]
        order = [args.parent, args.change] if k % 2 == 0 else [args.change, args.parent]
        result = {root: run_once(root, args.workload, seed, args.seconds) for root in order}
        pair = result[args.parent], result[args.change]
        runs.append(pair)
        first = metrics[0]["name"]
        print(f"# pair {k} seed {seed}: " + "  ".join(
            f"{side} {first} {r['metrics'][first]['value']:.4g} failed {r['failed']}"
            for side, r in zip(("parent", "change"), pair)), flush=True)
    summary = summarize(runs, metrics)
    print(report(summary))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
