#!/usr/bin/env python3
"""sha256 digests of what the library writes and computes, one line each.

A change that claims to leave the outputs alone shows it by printing the
same lines as its parent:

    python3 scripts/identity_digest.py /tmp/digest-change
    python3 scripts/identity_digest.py /tmp/digest-parent --repo ../parent

``lin2complex`` is imported from ``REPO/src`` (the checkout holding this
script by default), the systems come from ``REPO/tests/_gen.py`` and
``REPO/bench``, and the ``reduce`` artifacts are written under ``OUT``.
The lines cover:

- every file ``reduce`` writes, for criterion 11's 20 draws and for the
  ``build_ladder`` rungs of seeds 1-3;
- the arrays ``read_chain`` reads back from each of those directories
  (d2's ``indptr``, ``indices`` and values, W and gamma), which do not
  depend on the files' encoding: a change of format moves the file lines,
  and these show that the values read back are the same;
- ``solve_general``'s x on criterion 11's 20 draws;
- ``verify``'s stdout, and the x of ``solve --route direct`` and of
  ``solve --manifest`` (the replay), on the 5x5 system;
- f* and the final f of the ``flow_ipm`` IPM items, and the f of its
  Laplacian and Gram route items, of seeds 1-3.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
from pathlib import Path

import numpy as np

A_5X5 = np.array([[0, 19, 0, -47, 15],
                  [0, 0, 21, -41, 0],
                  [0, 0, 0, 15, -43],
                  [0, 0, -16, 0, -13],
                  [-5, 0, 35, 0, 0]], dtype=float)
B_5X5 = np.array([186.0, 331.0, 11.0, -70.0, 235.0])
SEEDS = (1, 2, 3)
EPS = "1e-3"


def files_digest(directory: Path) -> str:
    """sha256 over the names and bytes of every file in ``directory``."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.iterdir() if p.is_file()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def arrays_digest(arrays) -> str:
    """sha256 over the float64 bytes of each array in turn."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def cli_stdout(argv: list[str]) -> str:
    """Run ``lin2complex`` in-process; returns its stdout, raising when the
    exit code is not 0."""
    from lin2complex import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"lin2complex {' '.join(argv)} exited {rc}")
    return buf.getvalue()


def reduce_digest(A, b, directory: Path) -> str:
    """Write (A, b), ``reduce`` it into ``directory / "out"`` and digest
    what ``reduce`` wrote."""
    from lin2complex import fileio
    from lin2complex.sparse_core import SparseMatrix

    directory.mkdir(parents=True, exist_ok=True)
    fileio.write_matrix(directory / "A.mtx", SparseMatrix.from_dense(A))
    fileio.write_vector(directory / "b.vec", b)
    cli_stdout(["reduce", "--matrix", str(directory / "A.mtx"), "--rhs",
                str(directory / "b.vec"), "--out-dir", str(directory / "out"), "--eps", EPS])
    return files_digest(directory / "out")


def problem_digest(directory: Path) -> str:
    """``arrays_digest`` of d2's CSR arrays, W and gamma of the problem
    ``read_chain`` returns from ``directory``."""
    from lin2complex import fileio

    problem = fileio.read_chain(directory).problem
    d2 = problem.d2.to_csr()
    return arrays_digest([d2.indptr, d2.indices, d2.data, problem.weights, problem.gamma])


def digests(out: Path):
    """(name, sha256) pairs, in a fixed order."""
    import _gen
    import workloads
    from lin2complex import fileio
    from lin2complex.pipeline import solve_general

    rng = np.random.default_rng(11)
    xs = []
    for k in range(20):
        n = int(rng.integers(4, 13))
        m = int(rng.integers(max(2, n - 2), n + 3))
        sys_g, _ = _gen.planted_general_system(rng, n, m, max_entry=50, row_nnz=3,
                                               kappa_max=1e4)
        yield f"reduce criterion-11 draw {k}", reduce_digest(sys_g.A.to_dense(), sys_g.b,
                                                             out / f"c11-{k}")
        yield f"arrays criterion-11 draw {k}", problem_digest(out / f"c11-{k}" / "out")
        xs.append(solve_general(sys_g, float(EPS))[0])
    yield "solve_general x, criterion-11 draws", arrays_digest(xs)

    for seed in SEEDS:
        for item in workloads.WORKLOADS["build_ladder"].items(
                np.random.default_rng(seed), out / f"ladder-{seed}"):
            (rc_reduce, _), (rc_verify, _) = item.work(item.directory / "out")
            if rc_reduce or rc_verify:
                raise RuntimeError(f"build_ladder {item.name}: reduce exited {rc_reduce}, "
                                   f"verify {rc_verify}")
            yield (f"reduce build_ladder seed {seed} {item.name}",
                   files_digest(item.directory / "out"))
            yield (f"arrays build_ladder seed {seed} {item.name}",
                   problem_digest(item.directory / "out"))

    directory = out / "5x5"
    reduce_digest(A_5X5, B_5X5, directory)
    yield "verify stdout, 5x5", hashlib.sha256(
        cli_stdout(["verify", "--dir", str(directory / "out")]).encode()).hexdigest()
    cli_stdout(["solve", "--route", "direct", "--matrix", str(directory / "A.mtx"), "--rhs",
                str(directory / "b.vec"), "--out-dir", str(directory / "direct")])
    yield "solve --route direct x, 5x5", arrays_digest(
        [fileio.read_vector(directory / "direct" / "x.vec")])
    cli_stdout(["solve", "--manifest", str(directory / "out"), "--out-dir",
                str(directory / "replay")])
    yield "solve --manifest x, 5x5", arrays_digest(
        [fileio.read_vector(directory / "replay" / "x.vec")])

    for seed in SEEDS:
        for item in workloads.WORKLOADS["flow_ipm"].items(np.random.default_rng(seed),
                                                          out / f"flow-{seed}"):
            if item.name.startswith("lap"):
                routes = item.work(item.directory)
                yield (f"route f flow_ipm seed {seed} {item.name}",
                       arrays_digest(f for f, _ in routes))
            else:
                f_star, result = item.work(item.directory)
                yield (f"f* and f flow_ipm seed {seed} {item.name}",
                       arrays_digest([[f_star], result.f]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", type=Path, help="directory for the reduce artifacts")
    ap.add_argument("--repo", type=Path, default=Path(__file__).resolve().parents[1],
                    help="checkout whose src, tests and bench are imported")
    args = ap.parse_args(argv)
    repo = args.repo.resolve()
    for sub in ("bench", "tests", "src"):
        sys.path.insert(0, str(repo / sub))
    for name, digest in digests(args.out):
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
