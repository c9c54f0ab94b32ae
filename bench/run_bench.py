#!/usr/bin/env python3
"""Benchmark of lin2complex: time to a certified solution, end to end and per layer.

Run from the repository root:

    python3 bench/run_bench.py --workload chain_corpus --seed 1 --seconds 20 --trace 0
    python3 bench/run_bench.py --all --seed 1             # every workload in turn

One process runs one workload as a closed loop: one item at a time, each
solved or verified and then checked against an independent oracle, with
BLAS pinned to one thread.  A run makes a fixed number of passes over the
same items, ``--seconds`` divided by the workload's nominal pass time, so
the count does not depend on how fast the code is.  A speed probe
(speed_probe.py) samples how fast the machine runs while the items run, and
every time is reported at the probe's nominal speed, which takes out most
of the drift of a shared host; each item then counts with its median over
the passes.  The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  ``failed`` counts wrong outputs and items that
miss a certificate they must meet.  A traced run times one pass without
tracing and then the same pass traced, so it can report its own overhead.
See bench/README.md for what each workload and metric is for.
"""

import os
import sys

sys.dont_write_bytecode = True  # leave the checkout as it was found
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback
from collections import Counter
from pathlib import Path

SETUP_SAMPLES = 3
PEAK_RSS_UNIT = 1024.0  # ru_maxrss is in KiB on Linux


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


def import_library():
    """Import lin2complex from ``src`` of the checkout the benchmark runs in."""
    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    try:
        import lin2complex
    except ImportError as exc:
        raise SetupError(f"cannot import lin2complex from {src}: {exc}") from exc
    if Path(lin2complex.__file__).resolve().parent.parent != src.resolve():
        raise SetupError(f"lin2complex was imported from {lin2complex.__file__}, "
                         f"not from {src}")


def declared_metrics() -> dict:
    try:
        spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
        return {kind: {m["name"]: m["unit"] for m in spec[kind]}
                for kind in ("end_to_end", "per_layer")}
    except (OSError, ValueError, KeyError) as exc:
        raise SetupError(f"cannot read the metrics from BENCHMARK.json: {exc}") from exc


def environment() -> str:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}, {blas['name']} {blas['version']}, "
            f"BLAS threads {os.environ['OPENBLAS_NUM_THREADS']}, "
            f"nproc {os.cpu_count()}")


def setup_seconds(args) -> tuple[list[float], list[float]]:
    """Wall time of fresh processes that import the library, generate the
    inputs from the seed and exit (process start to first timed item), and
    that time at the speed probe's nominal speed.  Each process runs its own
    probe, from when numpy is loaded, and reports the probe's figures."""
    from speed_probe import nominal
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    wall, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
        wall.append(time.perf_counter() - start)
        probe = json.loads(out.splitlines()[-1])
        scaled.append((wall[-1] - probe["own_s"]) * nominal() / probe["kernel_s"])
    return wall, scaled


class Pass:
    """Outcome of one pass over a workload's items."""

    def __init__(self):
        self.spans: list[tuple[float, float]] = []  # start and end of each item
        self.verdicts = []
        self.failed: list[bool] = []
        self.counts = Counter()

    @property
    def times(self) -> list[float]:
        return [end - start for start, end in self.spans]

    @property
    def wall(self) -> float:
        return sum(self.times)


def run_pass(items, tracer=None, item_base: int = 0) -> Pass:
    from workloads import Verdict
    done = Pass()
    for k, item in enumerate(items):
        out = item.directory / f"out{item_base + k}"
        out.mkdir(parents=True)
        start = time.perf_counter()
        try:
            result = (item.work(out) if tracer is None
                      else tracer.run_item(item_base + k, item.work, out))
        except Exception:
            end = time.perf_counter()
            verdict = Verdict(False, False, traceback.format_exc())
        else:
            end = time.perf_counter()
            try:
                verdict = item.check(result, out)
            except Exception:
                verdict = Verdict(False, False, traceback.format_exc())
        shutil.rmtree(out)
        failed = not verdict.correct or (item.must_certify and not verdict.certified)
        if not verdict.certified:
            kind = ("WRONG" if not verdict.correct else
                    "FAILED, certificate not met" if failed else "uncertified (known)")
            print(f"# item {item.name}: {kind} {verdict.note.strip()}")
        done.spans.append((start, end))
        done.verdicts.append(verdict)
        done.failed.append(failed)
        done.counts.update(verdict.counts)
    return done


def summary(passes) -> tuple[int, int, int]:
    """Items attempted, items failed (wrong, or short of a certificate they
    must meet) and items not certified, over all ``passes``."""
    verdicts = [v for p in passes for v in p.verdicts]
    failed = sum(f for p in passes for f in p.failed)
    uncertified = sum(not v.certified for v in verdicts)
    return len(verdicts), failed, uncertified


def print_items(items, passes, label="s", times=None) -> None:
    for k, item in enumerate(items):
        row = [p.times[k] for p in passes] if times is None else times[k]
        print(f"# item {item.name:12s} {label}: " + " ".join(f"{t:8.3f}" for t in row))


def print_fail_ratio(passes) -> None:
    attempted, failed, uncertified = summary(passes)
    known = sum(not v.certified and not f for p in passes
                for v, f in zip(p.verdicts, p.failed))
    print(f"# fail_ratio {uncertified / attempted:.4f} (1): {uncertified} of {attempted} "
          f"items not certified; {failed} failed (a wrong output, or a certificate "
          f"the item must meet), {known} allowed to miss it (a known defect)")


def untraced(workload, items, args):
    """A fixed number of passes over the same items, each item's time taken
    at the speed probe's nominal speed; the median over passes per item."""
    from speed_probe import SpeedProbe
    passes = workload.passes(args.seconds)
    setup_wall, setup = setup_seconds(args)
    parts = dict.fromkeys(name for item in items for name in item.probe)
    with SpeedProbe(parts) as probe:
        done = [run_pass(items, item_base=k * len(items)) for k in range(passes)]
    scaled = [[probe.seconds(*p.spans[k], item.probe) for p in done]
              for k, item in enumerate(items)]
    per_item = [statistics.median(row) for row in scaled]
    raw = [statistics.median(p.times[k] for p in done) for k in range(len(items))]
    attempted, failed, uncertified = summary(done)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_norm_s": sum(per_item),
        "item_norm_s.p50": statistics.median(per_item),
        "certified_ratio": 1.0 - uncertified / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / PEAK_RSS_UNIT,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh-process set-ups, at nominal speed",
        "wall_norm_s": f"sum over {len(items)} items of each item's median of "
                       f"{passes} passes, at nominal speed",
        "item_norm_s.p50": f"median of the {len(items)} items' median times",
        "certified_ratio": f"{attempted - uncertified} of {attempted} items certified",
        "peak_rss_mb": "max RSS of this process",
    }
    print_items(items, done)
    print_items(items, done, "n", scaled)
    probe_s = sum(end - start for start, end in zip(probe.starts, probe.ends))
    print(f"# wall clock: {sum(raw):.3f} s over the items' median times, so the host "
          f"ran at {sum(per_item) / sum(raw):.3f} of the probe's nominal speed; "
          f"{len(probe.starts)} probe samples took {probe_s:.3f} s")
    print("# set-up wall clock: " + " ".join(f"{t:.3f}" for t in setup_wall)
          + " s; at nominal speed: " + " ".join(f"{t:.3f}" for t in setup) + " s")
    print_fail_ratio(done)
    return metrics, notes, attempted, failed


def traced(workload, items):
    import tracing
    plain = run_pass(items)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        traced_pass = run_pass(items, tracer, item_base=len(items))
    finally:
        restore()
    metrics = tracing.layer_metrics(tracer, traced_pass, plain.wall, workload.ladder)
    overhead, gap = metrics["trace.overhead_s"], metrics["trace.gap_s"]
    print(f"# untraced wall {plain.wall:.3f} s, traced wall {traced_pass.wall:.3f} s, "
          f"overhead {overhead:+.3f} s ({len(tracer.spans)} spans)")
    print(f"# library span self times sum to {metrics['trace.self_sum_s']:.3f} s, "
          f"{metrics['trace.self_sum_s'] - plain.wall:+.3f} s from the untraced wall; "
          f"untraced work inside items (root self time) {gap:.3f} s: "
          f"{'within' if gap <= abs(overhead) else 'OUTSIDE'} the overhead")
    print(f"# self-time ranking of {workload.name} (traced pass, share of traced wall):")
    for name, self_s in tracing.ranking(tracer)[:10]:
        print(f"#   {name:40s} {self_s:9.3f} s  {100 * self_s / traced_pass.wall:5.1f} %")
    print_items(items, [plain, traced_pass])
    print_fail_ratio([plain, traced_pass])
    attempted, failed, _ = summary([plain, traced_pass])
    return metrics, {}, attempted, failed


@contextlib.contextmanager
def workload_items(args):
    """The workload's items drawn from the seed, in a work directory that is
    removed afterwards."""
    from workloads import WORKLOADS
    import numpy as np
    workdir = Path.cwd() / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        yield WORKLOADS[args.workload].items(np.random.default_rng(args.seed), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may share the parent
            workdir.parent.rmdir()


def setup_only(args) -> int:
    """The set-up of a run under the speed probe; prints the probe's median
    kernel time and its own time for ``setup_seconds``."""
    from speed_probe import SpeedProbe
    with SpeedProbe() as probe:
        start = time.perf_counter()
        import_library()
        with workload_items(args):
            end = time.perf_counter()
    print(json.dumps({"kernel_s": probe.speed(start, end),
                      "own_s": probe.own_time(start, end)}))
    return 0


def run_workload(args) -> int:
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    with workload_items(args) as items:
        declared = declared_metrics()["per_layer" if args.trace else "end_to_end"]
        print(f"# bench {workload.name} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace}: closed loop, one item at a time")
        print(f"# env: {environment()}")
        if args.trace:
            metrics, notes, attempted, failed = traced(workload, items)
        else:
            metrics, notes, attempted, failed = untraced(workload, items, args)
    if set(metrics) != set(declared):
        raise SetupError(f"metrics {sorted(set(metrics) ^ set(declared))} differ "
                         f"from BENCHMARK.json")
    for name, value in metrics.items():
        print(f"# {name:40s} {value:14.6g} {declared[name]:6s} {notes.get(name, '')}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": declared[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    from workloads import WORKLOADS
    rc = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        rc |= subprocess.run(cmd).returncode
    return rc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--all", action="store_true", help="run every workload in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    try:
        if args.setup_only:
            return setup_only(args)
        import_library()
        if args.all:
            return run_all(args)
        from workloads import WORKLOADS
        if args.workload not in WORKLOADS:
            ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
        return run_workload(args)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
