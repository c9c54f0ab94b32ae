#!/usr/bin/env python3
"""The size ladder: each layer's time and memory, one JSON line a rung.

Rung n is ``three_per_row_system(8, n)`` of ``tests/_gen.py``, a square
system with three nonzeros a row, reduced at the chain's default alpha and
solved at eps 1e-3:

    python3 scripts/ladder.py --rungs 40,160,320,640
    python3 scripts/ladder.py --rungs 40,160,320,640 --repo ../parent

``lin2complex`` is imported from ``REPO/src`` (the checkout holding this
script by default) and the system from ``REPO/tests/_gen.py``.  Every rung
runs in a fresh process with one BLAS thread, so that its peak RSS is its
own.  A line holds:

- ``n``, ``nnz``, ``triangles``, ``edges`` and ``t_per_nnz``;
- ``stages_s``, ``build_s``, ``weights_s``, ``validate_s`` and
  ``exact_checks_s``: the wall time of ``to_zero_rowsum`` + ``to_pow2`` +
  ``gz2_to_da``, ``build_boundary_problem``, ``compute_edge_weights``,
  ``validate`` and the certificate's nullity identity, each the best of
  three untraced calls;
- ``build_peak_mb``, ``weights_peak_mb`` and ``validate_peak_mb``: the
  ``tracemalloc`` peak of ``build_boundary_problem``, of
  ``compute_edge_weights`` and of ``validate`` above what was held at the
  call, from a second pass;
- ``write_s`` and ``read_s``: the wall time of ``fileio.write_chain`` and
  of ``fileio.read_chain`` (which rebuilds the chain from the original
  system and checks the stored W and gamma) in a temporary directory, each
  the best of three;
- ``verify_peak_mb``: the ``tracemalloc`` peak of
  ``cli.main(["verify", "--dir", tmp])`` above what was held at the call,
  on the directory ``write_chain`` wrote, from the second pass;
- ``solve_s`` (best of three), ``method``, ``fill``, ``ratio`` (the
  certificate's), ``true_ratio`` (||A x - b|| / ||b||) and ``certified`` of
  ``solve_chain``, and ``max_weight``;
- ``peak_rss_mb``: the rung process's ``ru_maxrss`` at its end.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SEED = 8
EPS = 1e-3
MB = 1024.0 ** 2
REPEAT = 3  # a shared host runs slower in spells; each time is the best of these


def _timed(fn, *args):
    """``fn(*args)`` and the least wall time of ``REPEAT`` calls."""
    times = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        result = fn(*args)
        times.append(time.perf_counter() - start)
    return result, min(times)


def _traced_peak(fn, *args) -> float:
    """MB that ``fn(*args)`` allocated at its peak, beyond what was held
    before the call; tracemalloc must be tracing."""
    import tracemalloc

    tracemalloc.reset_peak()
    held = tracemalloc.get_traced_memory()[0]
    fn(*args)
    return (tracemalloc.get_traced_memory()[1] - held) / MB


def measure(n: int) -> dict:
    """The fields of rung ``n``, measured in this process."""
    import resource
    import tracemalloc

    import numpy as np

    from _gen import three_per_row_system
    from lin2complex.b2_reduce import (build_boundary_problem, compute_edge_weights,
                                       spectral_certificate)
    from lin2complex.cli import main
    from lin2complex.complex2 import validate
    from lin2complex.da_reduce import gz2_to_da, to_pow2, to_zero_rowsum
    from lin2complex.fileio import read_chain, write_chain
    from lin2complex.pipeline import reduce_chain, solve_chain

    def stages(system):
        return gz2_to_da(to_pow2(to_zero_rowsum(system)[0])[0], alpha=1.0)[0]

    system = three_per_row_system(SEED, n)
    chain = reduce_chain(system, EPS)
    problem = chain.problem
    # each layer timed on its own; they must give the chain's problem
    da, stages_s = _timed(stages, system)
    timed, build_s = _timed(build_boundary_problem, da)
    (_, weights), weights_s = _timed(compute_edge_weights, timed, chain.alpha)
    if da != problem.da:
        raise RuntimeError(f"rung {n}: the timed stages differ from the chain's")
    if weights.tobytes() != problem.weights.tobytes():
        raise RuntimeError(f"rung {n}: the timed weights differ from the chain's")
    del da, timed, weights
    report, validate_s = _timed(validate, problem.K)
    certificate, exact_s = _timed(spectral_certificate, problem)
    if not (report.ok and certificate.ok):
        raise RuntimeError(f"rung {n}: {report.violation or certificate.note}")
    (x, verdict), solve_s = _timed(solve_chain, chain)
    b = system.b
    true_ratio = float(np.linalg.norm(system.A.matvec(x) - b) / np.linalg.norm(b))

    def verify(directory):
        with contextlib.redirect_stdout(io.StringIO()):
            if main(["verify", "--dir", directory]) != 0:
                raise RuntimeError(f"rung {n}: verify failed on its own chain")

    with tempfile.TemporaryDirectory() as tmp:
        _, write_s = _timed(write_chain, tmp, chain)
        _, read_s = _timed(read_chain, tmp)
        verify(tmp)  # its imports, before the traced pass
        tracemalloc.start()
        build_peak = _traced_peak(build_boundary_problem, problem.da)
        weights_peak = _traced_peak(compute_edge_weights, problem, chain.alpha)
        validate_peak = _traced_peak(validate, problem.K)
        verify_peak = _traced_peak(verify, tmp)
        tracemalloc.stop()

    nnz = system.A.nnz
    return {
        "n": n, "nnz": nnz, "triangles": problem.n_triangles, "edges": problem.n_edges,
        "t_per_nnz": round(problem.n_triangles / nnz, 2),
        "stages_s": round(stages_s, 4), "build_s": round(build_s, 4),
        "weights_s": round(weights_s, 4), "validate_s": round(validate_s, 4),
        "exact_checks_s": round(exact_s, 4), "build_peak_mb": round(build_peak, 2),
        "weights_peak_mb": round(weights_peak, 2), "validate_peak_mb": round(validate_peak, 2),
        "write_s": round(write_s, 4), "read_s": round(read_s, 4),
        "verify_peak_mb": round(verify_peak, 2),
        "solve_s": round(solve_s, 4), "method": verdict.method,
        "fill": None if verdict.fill is None else round(verdict.fill, 3),
        "ratio": float(f"{verdict.achieved_ratio:.3g}"), "true_ratio": float(f"{true_ratio:.3g}"),
        "certified": bool(verdict.converged),
        "max_weight": float(f"{problem.weights.max():.4g}"),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }


def run_rung(n: int, repo: Path) -> dict:
    """Rung ``n`` in a fresh process with one BLAS thread; its JSON fields."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    cmd = [sys.executable, str(Path(__file__).resolve()), "--repo", str(repo), "--rung", str(n)]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"rung {n}: exit {done.returncode}\n{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rungs", default="40,160,320,640",
                    help="comma-separated n of the rungs (default 40,160,320,640)")
    ap.add_argument("--repo", type=Path, default=Path(__file__).resolve().parents[1],
                    help="checkout whose src and tests are imported")
    ap.add_argument("--rung", type=int, help=argparse.SUPPRESS)  # one rung, in this process
    args = ap.parse_args(argv)
    repo = args.repo.resolve()
    if args.rung is not None:
        for sub in ("tests", "src"):
            sys.path.insert(0, str(repo / sub))
        print(json.dumps(measure(args.rung)))
        return 0
    for n in (int(r) for r in args.rungs.split(",")):
        print(json.dumps(run_rung(n, repo)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
