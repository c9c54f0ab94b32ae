"""Command-line pipeline: reduce / solve / verify / maxflow-demo."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys as _sys
from pathlib import Path

import numpy as np

from . import fileio
from .b2_reduce import ReductionError, spectral_certificate
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


def cmd_verify(args) -> int:
    """Rebuild the chain from the source (``read_chain``, which refuses a W
    or gamma other than the rebuilt one), then check the rest of the
    directory against it: five lines, each ``[PASS]`` or ``[FAIL]``.  It
    holds one complex: the stored one goes once it equals the rebuilt one,
    and what each line reads goes once the line prints, so that no check
    holds more than ``reduce`` does at its peak."""
    src = Path(args.dir)
    # read_chain has checked W and gamma against the rebuilt ones, and no
    # line below reads them
    P = dataclasses.replace(fileio.read_chain(src).problem, weights=None, gamma=None)
    names, source = fileio.BOUNDARY_FILES, fileio.ORIGINAL_FILES[0]
    ok = True

    def check(name: str, passed: bool, detail: str = "") -> None:
        nonlocal ok
        ok = ok and passed
        print(f"[{'PASS' if passed else 'FAIL'}] {name}{': ' + detail if detail else ''}")

    K = fileio.read_complex(src / names["complex"])
    stored, rebuilt = fileio.complex_columns(K), fileio.complex_columns(P.K)
    field = next((f for f in stored if not np.array_equal(stored[f], rebuilt[f])), None)
    check(f"{names['complex']} is the complex rebuilt from {source}", field is None,
          f"its field {field!r} differs" if field else "")
    # validate reads these fields alone, so a stored complex equal to the
    # rebuilt one gets the same report from the rebuilt one; one that
    # differs is validated itself, so that its first fault is named
    del stored, rebuilt
    if field is None:
        K = P.K
    da_path = src / names["da"]
    try:
        da = fileio.da_system_from_json(fileio.read_json(da_path))
    except fileio.ArtifactError as exc:
        raise fileio.ArtifactError(f"{da_path}: {exc}") from None
    check(f"{names['da']} is the difference-average system rebuilt from {source}", da == P.da)
    del da
    # validate's one side pass names the complex's first structural fault,
    # and gives back its d2 whenever every triangle side is an edge
    report = validate(K)
    del K
    check("complex structure", report.ok, report.violation or "")
    check("d2 is the boundary operator of the complex",
          report.d2 is not None and P.d2.equals(report.d2),
          "" if report.d2 is not None else "the complex has none to compare with")
    del report
    # the paper's size bounds get no line, as none could fail alone.  With a
    # difference and b average rows, nnz = 2a + 3b and l1 = 2a + 4b; the
    # build gives a variable of h attachments 11h - 4 triangles (sum h = l1)
    # and the complex 33a + 63b - 6n edges, so t = 11 l1 - 4n <= 22 nnz,
    # m <= 33 nnz and d2 has 3t entries.  The first line passes only on the
    # complex so built.  Nor does lambda_max(d2^T d2) <= 12.  Where the
    # complex and structure lines pass, validate has run on P.K and refused
    # a repeated vertex and a duplicate edge, so each column of its d2 holds
    # three +-1 entries (||d2||_1 = 3), and any edge outside 2 / 1 / 2-or-4
    # triangles by kind, so a row holds at most four (||d2||_inf <= 4); the
    # d2 line makes P.d2 that matrix, and ||d2||_2^2 <= ||d2||_1 ||d2||_inf
    # <= 12
    c = spectral_certificate(P)
    check(f"spectral {c.name}", c.ok, c.note)
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
