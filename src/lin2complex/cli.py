"""Command-line pipeline: reduce / solve / verify / maxflow-demo."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys as _sys
from pathlib import Path

import numpy as np

from . import fileio
from .b2_reduce import ReductionError, compute_edge_weights, spectral_certificate
from .complex2 import ComplexStructureError, validate
from .da_reduce import CLASS_G, GeneralSystem, MatrixClassError
from .lap_solve import solve_boundary_via_gram, solve_boundary_via_laplacian
from .maxflow_ipm import FlowNetwork2, NetworkError, StepRejectedError, run_ipm
from .pipeline import reduce_chain, solve_chain
from .sparse_core import DimensionError, least_squares


def cmd_reduce(args) -> int:
    original = GeneralSystem(*fileio.read_system(args.matrix, args.rhs), CLASS_G)
    chain = reduce_chain(original, args.eps, alpha=args.alpha)
    fileio.write_chain(args.out_dir, chain)
    print(f"wrote chain artifacts to {args.out_dir}")
    return 0


def _replay_manifest(args, out: Path) -> int:
    """Solve from previously written artifacts; ``read_chain`` rebuilds the
    chain from the original system, with the stored W and gamma."""
    chain = fileio.read_chain(args.manifest)
    if args.eps is not None:
        chain.eps = args.eps
    x, report = solve_chain(chain)
    fileio.write_vector(out / "x.vec", x)
    fileio.write_json(out / "solve_report.json", {
        "route": "manifest-replay", "converged": report.converged,
        "eps": chain.eps, "achieved_ratio": report.achieved_ratio,
        "projected_residual": report.projected_residual,
        "projected_rhs_norm": report.projected_rhs_norm,
        "iterations": report.iterations,
        "method": report.method, "lu_fill": report.fill,
    })
    print(f"replay solve: ratio {report.achieved_ratio:.3e} vs eps {chain.eps:.3e}")
    return 0 if report.converged else 1


def cmd_solve(args) -> int:
    needs = (() if args.manifest else ("matrix", "rhs") if args.route == "direct"
             else ("complex", "rhs"))
    missing = " and ".join(f"--{name}" for name in needs if getattr(args, name) is None)
    if missing:
        raise SystemExit(f"error: solve --route {args.route} needs {missing} (or --manifest)")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if args.manifest:
        return _replay_manifest(args, out)
    eps = args.eps if args.eps is not None else 1e-6

    if args.route == "direct":
        A, b = fileio.read_system(args.matrix, args.rhs)
        try:
            report = least_squares(A, b, eps)
        except ValueError as exc:
            print(f"error: {exc}")
            return 2
        fileio.write_vector(out / "x.vec", report.x)
        fileio.write_json(out / "solve_report.json", {
            "route": "direct", "converged": report.converged,
            "residual_norm": float(np.linalg.norm(A.matvec(report.x) - b)),
            "projected_residual": report.projected_residual,
            "projected_rhs_norm": report.projected_rhs_norm,
            "iterations": report.iterations,
        })
        print(f"direct solve: projected residual {report.projected_residual:.3e}")
        return 0 if report.converged else 1

    K = fileio.read_complex(args.complex)
    d = fileio.read_vector(args.rhs)
    solver = (solve_boundary_via_laplacian if args.route == "laplacian"
              else solve_boundary_via_gram)
    try:
        f, report = solver(K, d, eps)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    fileio.write_vector(out / "f.vec", f)
    fileio.write_json(out / "solve_report.json", dataclasses.asdict(report))
    print(f"{args.route} solve: projected residual {report.projected_residual:.3e}"
          f"{' (degenerate rhs)' if report.degenerate else ''}")
    return 0 if report.ok else 1


def _check_structure(problem, check) -> None:
    """The complex's invariants and d2 = boundary2(K), from ``validate``'s
    one side pass, whose d2 comes back whenever every triangle side is an
    edge and goes when this returns, before the certificate runs."""
    report = validate(problem.K)
    check("complex structure", report.ok, report.violation or "")
    # a valid K's d2 has d1 d2 = 0 by construction (``validate``), so
    # equality carries it to the stored d2
    check("d2 is the boundary operator of the complex",
          report.d2 is not None and problem.d2.equals(report.d2),
          "" if report.d2 is not None else "the complex has none to compare with")
    # each loop edge carries its equation's rhs and every other edge 0, as
    # the build writes them, so it compares bits, as the replay does
    gamma, names = problem.gamma, fileio.BOUNDARY_FILES
    expected = np.zeros(max(gamma.size, problem.K.n_edges))
    expected[problem.K.loops] = problem.da.rhs[:, None]
    e = fileio.first_bit_difference(gamma, expected[:gamma.size])
    check(f"{names['gamma']} is the rhs of {names['da']} on the loop edges, 0 elsewhere",
          e is None, "" if e is None else f"entry {e} is {gamma[e]:g}, expected {expected[e]:g}")


def _check_weights(problem, alpha: float, check) -> None:
    """W against ``compute_edge_weights`` of the read problem at the
    manifest's alpha, bit for bit: every mass is an exact integer sum.  A
    problem whose layout the path ids do not fit fails the check; it does
    not end the run."""
    W, m = problem.weights, problem.K.n_edges
    detail = f"it has {W.size} entries, the complex {m} edges" if W.size != m else ""
    if not detail:
        try:
            _, expected = compute_edge_weights(problem, alpha)
        except (ComplexStructureError, ReductionError) as exc:
            detail = str(exc)
        else:
            e = fileio.first_bit_difference(W, expected)
            detail = "" if e is None else f"entry {e} is {W[e]:g}, expected {expected[e]:g}"
    check(f"{fileio.BOUNDARY_FILES['weights']} is the path weights of the complex at the "
          f"manifest's alpha {alpha:g}", not detail, detail)


def cmd_verify(args) -> int:
    src = Path(args.dir)
    _, alpha = fileio.read_manifest(src)
    ok = True

    def check(name: str, passed: bool, detail: str = "") -> None:
        nonlocal ok
        ok = ok and passed
        print(f"[{'PASS' if passed else 'FAIL'}] {name}{': ' + detail if detail else ''}")

    problem = fileio.read_boundary_problem(src)
    _check_structure(problem, check)
    _check_weights(problem, alpha, check)

    pattern = problem.pattern_matrix()
    l1 = pattern.entry_abs_sum()
    t, m = problem.n_triangles, problem.n_edges
    check("triangle count 11*l1 - 4n", t == int(round(11 * l1 - 4 * problem.n_vars)),
          f"t={t}")
    check("size bounds", t <= 22 * pattern.nnz and m <= 33 * pattern.nnz
          and problem.d2.nnz == 3 * t)

    for c in spectral_certificate(problem).checks:
        check(f"spectral {c.name}", c.ok, c.note or f"value {c.value:.6g} vs bound {c.bound:.6g}")
    return 0 if ok else 1


def cmd_maxflow_demo(args) -> int:
    net_obj = fileio.read_json(args.network)
    if not isinstance(net_obj, dict):
        raise NetworkError(f"{args.network} is not a JSON object")
    for key in ("complex", "capacities", "gamma"):
        if key not in net_obj:
            raise NetworkError(f"{args.network} has no {key!r} entry")
    K = fileio.complex_from_json(net_obj["complex"])
    net = FlowNetwork2(K, net_obj["capacities"], net_obj["gamma"], net_obj.get("f_star"))
    result = run_ipm(net, args.steps)
    if args.trace:
        fileio.write_ipm_trace(args.trace, result.log)
    print(f"maxflow demo: alpha = {result.alpha:.4f} after {len(result.log)} half-steps")
    return 0


def _between(low: float, high: float):
    """An argparse type: a float strictly between ``low`` and ``high``."""
    def number(text: str) -> float:
        value = float(text)
        if not low < value < high:
            raise argparse.ArgumentTypeError(f"must lie in ({low:g}, {high:g}), got {text}")
        return value
    return number


def positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``lin2complex`` parser, built once per process: each call to
    ``parse_args`` fills a fresh namespace, so every ``main`` call shares it
    (building its four subparsers took about 1 ms a call).  It binds no
    function: ``main`` looks each ``cmd_*`` up by name on every call, so a
    replaced ``cmd_verify`` (etc.) runs even after the parser is built."""
    p = argparse.ArgumentParser(prog="lin2complex",
                                description="reduce sparse linear equations onto "
                                            "2-complex boundary operators and solve them")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("reduce", help="run the reduction chain and write artifacts")
    pr.add_argument("--matrix", required=True)
    pr.add_argument("--rhs", required=True)
    pr.add_argument("--out-dir", required=True)
    pr.add_argument("--eps", type=_between(0.0, 1.0), default=1e-3)
    pr.add_argument("--alpha", type=_between(0.0, np.inf), default=None)

    ps = sub.add_parser("solve", help="solve directly, via Laplacian/Gram routes, "
                                      "or replay a full chain")
    ps.add_argument("--route", choices=("direct", "laplacian", "gram"),
                    default="direct")
    ps.add_argument("--matrix")
    ps.add_argument("--rhs")
    ps.add_argument("--complex")
    ps.add_argument("--manifest", default=None,
                    help="artifact directory written by reduce; replays the "
                         "chain from files and maps the solution back")
    ps.add_argument("--eps", type=_between(0.0, 1.0), default=None,
                    help="accuracy; defaults to 1e-6, or to the recorded "
                         "value when replaying a manifest")
    ps.add_argument("--out-dir", default=".")

    pv = sub.add_parser("verify", help="validate artifacts and run certificates")
    pv.add_argument("--dir", required=True)

    pm = sub.add_parser("maxflow-demo", help="interior-point maxflow demo")
    pm.add_argument("--network", required=True)
    pm.add_argument("--steps", type=positive_int, default=500,
                    help="the most progress steps; the run stops once alpha reaches 0.995")
    pm.add_argument("--trace", default=None)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = {"reduce": cmd_reduce, "solve": cmd_solve, "verify": cmd_verify,
               "maxflow-demo": cmd_maxflow_demo}[args.command]
    try:
        return command(args)
    except (OSError, fileio.ArtifactError, ComplexStructureError, DimensionError,
            MatrixClassError, NetworkError, ReductionError, StepRejectedError) as exc:
        raise SystemExit(f"error: {exc}") from None


if __name__ == "__main__":
    _sys.exit(main())
