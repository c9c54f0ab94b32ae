"""The four benchmark workloads: seeded inputs, timed work, untimed checks.

Each workload draws a fixed base corpus, planted solutions included, from
``CORPUS_SEED`` with the recipe it names; ``--seed`` then draws a fresh
presentation of every item: systems get their rows and columns permuted,
difference-average complexes a relabelling of their variables and a new
demand (``cli_roundtrip`` also draws fresh planted solutions, see there).
Sizes (nonzeros, triangles) and conditioning are therefore the same for
every seed.  The dense certificate costs time cubic in the triangle
count, and a new right-hand side can flip a solve between one and two
rounds, so fresh draws of either would make the spread across seeds measure
the luck of the draw rather than the program.

An item's ``work`` is the timed library or CLI call sequence and returns
what the untimed ``check`` needs.  A check returns a ``Verdict``: ``correct``
is false when an output contradicts the oracle or the program's own report
(an exception, an exit code that disagrees with the written report, or a
certificate claimed but not met); ``certified`` is true when the item also
met its certificate.  An item that must certify (``Item.must_certify``, every
item the program certified when the benchmark was written) fails when it
does not, even if it honestly reports ``converged: false``.  The one item
allowed to miss its certificate is the criterion-11-sized manifest replay of
``cli_roundtrip``, a known defect; it counts in ``fail_ratio`` only.

A run makes ``seconds // pass_seconds`` passes over the items, at least one.
``pass_seconds`` is a constant share of the run per pass, sized from the
measured pass times, so that a faster program gets no more passes than a
slower one.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.io
import scipy.sparse as sp

import gen
from speed_probe import DEFAULT_PARTS
from lin2complex import b2_reduce, cli, lap_solve, maxflow_ipm, pipeline
from lin2complex.da_reduce import (
    CLASS_G,
    GeneralSystem,
    average_row,
    difference_row,
    plain_da_system,
)
from lin2complex.sparse_core import SparseMatrix

CORPUS_SEED = 11
EPS = 1e-3


@dataclass
class Verdict:
    correct: bool
    certified: bool
    note: str = ""
    counts: dict = field(default_factory=dict)


@dataclass
class Item:
    name: str
    work: Callable[[Path], object]
    check: Callable[[object, Path], Verdict]
    directory: Path
    must_certify: bool = True
    probe: tuple = DEFAULT_PARTS  # the speed probe's parts that resemble the work


def present(rng: np.random.Generator, planted):
    """``P A Q`` and its right-hand side for random permutations P and Q of a
    planted system (A, x_star): the same problem with rows and columns
    relabelled, so its size and conditioning do not depend on the seed."""
    A, x_star = planted
    cols = rng.permutation(A.shape[1])
    A = A[rng.permutation(A.shape[0])][:, cols]
    return A, A @ x_star[cols]


def write_system(directory: Path, A: np.ndarray, b: np.ndarray):
    """Write A as an integer Matrix Market file and b one value per line."""
    directory.mkdir(parents=True, exist_ok=True)
    a_path, b_path = directory / "A.mtx", directory / "b.vec"
    scipy.io.mmwrite(str(a_path), sp.coo_matrix(A.astype(np.int64)))
    b_path.write_text("".join(f"{v:.17g}\n" for v in b))
    return str(a_path), str(b_path)


def call_cli(argv: list[str]) -> tuple[int, str]:
    """In-process ``lin2complex`` call; returns the exit code and stdout."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    return rc, buf.getvalue()


def call_reduce(a_path: str, b_path: str, out: Path) -> tuple[int, str]:
    return call_cli(["reduce", "--matrix", a_path, "--rhs", b_path,
                     "--out-dir", str(out), "--eps", str(EPS)])


def read_vector(path: Path) -> np.ndarray:
    return np.array([float(s) for s in path.read_text().split()])


def mtx_shape(path: Path) -> tuple[int, int, int]:
    with open(path) as fh:
        for line in fh:
            if not line.startswith("%"):
                rows, cols, nnz = (int(s) for s in line.split())
                return rows, cols, nnz
    raise ValueError(f"{path} has no size line")


def verify_counts(rc: int, text: str) -> tuple[bool, dict]:
    """Whether ``verify`` passed, and its exit and SKIP counts."""
    ok = rc == 0 and "[FAIL]" not in text and "[PASS]" in text
    return ok, {"cli.nonzero_exits": int(rc != 0),
                "cli.verify.skipped": text.count("[SKIP]")}


def triangle_count_holds(out: Path) -> bool:
    """The written complex has t = 11 l1 - 4 n triangles, with l1 and n
    read off the difference-average system ``reduce`` wrote beside it."""
    da = json.loads((out / "da.json").read_text())
    l1 = sum(2 if row["kind"] == "difference" else 4 for row in da["rows"])
    return mtx_shape(out / "b2_d2.mtx")[1] == 11 * l1 - 4 * da["n_vars"]


class Workload:
    name = ""
    ladder = False
    pass_seconds = 1.0

    def passes(self, seconds: float) -> int:
        return max(1, int(seconds // self.pass_seconds))

    def items(self, rng: np.random.Generator, workdir: Path) -> list[Item]:
        """The base corpus in the presentation that ``rng`` draws."""
        base = self.corpus(np.random.default_rng(CORPUS_SEED))
        return [self.item(rng, entry, workdir / f"i{k}") for k, entry in enumerate(base)]

    def corpus(self, rng):
        raise NotImplementedError

    def item(self, rng, entry, directory: Path) -> Item:
        raise NotImplementedError


class ChainCorpus(Workload):
    """Criterion-11 recipe through ``pipeline.solve_general``."""

    name = "chain_corpus"
    pass_seconds = 10.0
    sizes = (4, 5, 6, 7, 8, 9, 10, 12)

    def corpus(self, rng):
        out = []
        for n in self.sizes:
            m = int(rng.integers(max(2, n - 2), n + 3))
            out.append(gen.planted_system(rng, n, m, max_entry=50, kappa_max=1e4))
        return out

    def item(self, rng, planted, directory):
        A, b = present(rng, planted)
        system = GeneralSystem(SparseMatrix.from_dense(A), b, CLASS_G)

        def check(result, out):
            x, report, _ = result
            ok = gen.certified(A, b, x, EPS)
            return Verdict(ok or not report.converged, ok and report.converged,
                           f"ratio {report.achieved_ratio:.3g}")
        return Item(f"{A.shape[0]}x{A.shape[1]}",
                    lambda out: pipeline.solve_general(system, EPS), check, directory)


class BuildLadder(Workload):
    """CLI ``reduce`` then ``verify`` up the size ladder; no boundary solve."""

    name = "build_ladder"
    ladder = True
    pass_seconds = 5.0
    rungs = (20, 40)  # square, three nonzeros a row: 60 and 120 nnz

    def corpus(self, rng):
        return [gen.planted_system(rng, n, n, 50, None, 3, 3) for n in self.rungs]

    def item(self, rng, planted, directory):
        A, b = present(rng, planted)
        a_path, b_path = write_system(directory, A, b)

        def work(out):
            return call_reduce(a_path, b_path, out), call_cli(["verify", "--dir", str(out)])

        def check(result, out):
            (rc_reduce, _), (rc_verify, text) = result
            verified, counts = verify_counts(rc_verify, text)
            counts["cli.nonzero_exits"] += int(rc_reduce != 0)
            ok = rc_reduce == 0 and verified and triangle_count_holds(out)
            return Verdict(ok, ok, "" if ok else text, counts)
        return Item(f"nnz={np.count_nonzero(A)}", work, check, directory)


class CliRoundtrip(Workload):
    """CLI ``reduce``, ``verify`` and ``solve --manifest`` on tiny systems,
    whose verify runs the dense certificate, and criterion-11-sized ones."""

    name = "cli_roundtrip"
    pass_seconds = 16.0  # the failing replay alone takes 7-9 s
    # (columns, rows, max |entry|, must certify): four tiny systems, and one
    # criterion-11-sized system whose manifest replay is the known defect
    shapes = ((2, 1, 20, True), (3, 2, 20, True), (4, 3, 20, True), (5, 4, 20, True),
              (5, 5, 50, False))

    def corpus(self, rng):
        return [(gen.planted_system(rng, n, m, max_entry=e, kappa_max=1e4)[0], must)
                for n, m, e, must in self.shapes]

    def item(self, rng, entry, directory):
        A, must_certify = entry
        # a fresh planted solution per seed: whether a replay certifies
        # depends on the right-hand side, and one fixed draw would decide
        # the workload's fail_ratio
        A, b = present(rng, (A, rng.integers(-6, 7, size=A.shape[1]).astype(float)))
        a_path, b_path = write_system(directory, A, b)

        def work(out):
            reduced = call_reduce(a_path, b_path, out)
            verified = call_cli(["verify", "--dir", str(out)])
            solved = call_cli(["solve", "--manifest", str(out), "--out-dir", str(out)])
            return reduced, verified, solved

        def check(result, out):
            (rc_reduce, _), (rc_verify, text), (rc_solve, _) = result
            verified, counts = verify_counts(rc_verify, text)
            counts["cli.nonzero_exits"] += int(rc_reduce != 0) + int(rc_solve != 0)
            report = json.loads((out / "solve_report.json").read_text())
            converged = report["converged"]
            ok = gen.certified(A, b, read_vector(out / "x.vec"), EPS)
            correct = (rc_reduce == 0 and verified and rc_solve == (0 if converged else 1)
                       and (ok or not converged))
            return Verdict(correct, correct and converged and ok,
                           f"ratio {report['achieved_ratio']:.3g}", counts)
        # verify's dense spectral certificate is most of a tiny system's time
        probe = ("dense", "lsqr") if must_certify else DEFAULT_PARTS
        return Item(f"{A.shape[0]}x{A.shape[1]}", work, check, directory, must_certify,
                    probe)


def _complex_of(n_vars: int, rows, b):
    da_rows = [difference_row(r[1], r[2]) if r[0] == "difference"
               else average_row(r[1], r[2], r[3]) for r in rows]
    return b2_reduce.reduce_da_to_b2(plain_da_system(n_vars, da_rows), b)


def _boundary_oracle(K) -> np.ndarray:
    return gen.dense_boundary2(K.n_edges, [(e.tail, e.head) for e in K.edges],
                               [t.vertices for t in K.triangles])


class FlowIpm(Workload):
    """``estimate_f_star`` + ``run_ipm`` on the two demo networks, and the
    Laplacian and Gram routes of ``lap_solve`` on planted complexes."""

    name = "flow_ipm"
    pass_seconds = 5.0
    networks = (
        ("difference", 2, (("difference", 0, 1),), (1.0,)),
        ("average", 3, (("average", 0, 1, 2), ("difference", 0, 1)), (0.0, 1.0)),
    )
    # about 170 and 350 triangles; a third of about 480 made the median item,
    # and its time alone, spread 0.2 across seeds
    complexes = ((3, 4, 3), (4, 8, 4))
    delta = 1e-4
    steps = 300
    bisection_rounds = 6

    def corpus(self, rng):
        return ([("network",) + net for net in self.networks]
                + [("complex",) + gen.planted_da_rows(rng, *spec)
                   for spec in self.complexes])

    def item(self, rng, entry, directory):
        if entry[0] == "network":
            return self._network_item(directory, *entry[1:])
        n_vars, rows, b = entry[1:]
        relabel = rng.permutation(n_vars)
        order = rng.permutation(len(rows))
        rows = [(r[0],) + tuple(int(relabel[v]) for v in r[1:]) for r in
                (rows[i] for i in order)]
        K = _complex_of(n_vars, rows, b[order]).K
        d = rng.integers(-4, 5, size=K.n_edges).astype(float)
        return self._route_item(directory, K, d)

    def _route_item(self, directory, K, d):
        def work(out):
            return [lap_solve.solve_boundary_via_laplacian(K, d, self.delta),
                    lap_solve.solve_boundary_via_gram(K, d, self.delta)]

        def check(result, out):
            D = _boundary_oracle(K)
            target = gen.projection(D, d)
            ok = all(report.ok and np.linalg.norm(D @ f - target)
                     <= self.delta * np.linalg.norm(target) for f, report in result)
            return Verdict(ok, ok)
        return Item(f"lap t={K.n_triangles}", work, check, directory)

    def _network_item(self, directory, label, n_vars, rows, b):
        problem = _complex_of(n_vars, rows, np.array(b))
        K, gamma = problem.K, problem.gamma
        caps = np.ones(K.n_triangles)

        def work(out):
            net = maxflow_ipm.FlowNetwork2(K, caps, gamma)
            net.f_star = maxflow_ipm.estimate_f_star(net, rounds=self.bisection_rounds)
            return net.f_star, maxflow_ipm.run_ipm(net, self.steps)

        def check(result, out):
            f_star, res = result
            D = _boundary_oracle(K)
            demand = f_star * gamma
            ok = (f_star > 0.0 and res.alpha >= 0.99 and bool(np.all(np.abs(res.f) < caps))
                  and np.linalg.norm(D @ res.f - res.alpha * demand)
                  <= 1e-6 * np.linalg.norm(demand))
            return Verdict(ok, ok, f"alpha {res.alpha:.4f} f* {f_star:.4f}")
        return Item(f"ipm {label}", work, check, directory)


WORKLOADS = {w.name: w for w in (ChainCorpus(), BuildLadder(), CliRoundtrip(), FlowIpm())}
