"""Command-line pipeline: reduce / solve / verify / maxflow-demo."""

from __future__ import annotations

import argparse
import csv
import sys as _sys
from pathlib import Path

import numpy as np

from . import fileio
from .b2_reduce import build_boundary_problem, reduce_reg, spectral_certificate
from .complex2 import ComplexStructureError, boundary1, validate
from .da_reduce import (
    CLASS_G,
    GeneralSystem,
    choose_epsilon_da,
    gz2_to_da,
    to_pow2,
    to_zero_rowsum,
)
from .da_reduce import map_da_solution_back
from .lap_solve import solve_boundary_via_gram, solve_boundary_via_laplacian
from .maxflow_ipm import FlowNetwork2, NetworkError, run_ipm
from .pipeline import ALPHA_CAP_DEFAULT, adaptive_boundary_solve
from .sparse_core import DenseGuardError, least_squares

STAGES = ("gz", "gz2", "da", "b2", "b2w")


def _load_general(args) -> GeneralSystem:
    A = fileio.read_matrix(args.matrix)
    b = fileio.read_vector(args.rhs)
    return GeneralSystem(A, b, CLASS_G)


def cmd_reduce(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sys0 = _load_general(args)
    sys0.validate_class()
    fileio.write_matrix(out / "original_A.mtx", sys0.A)
    fileio.write_vector(out / "original_b.vec", sys0.b)
    manifest = {"seed": args.seed, "eps": args.eps, "stage": args.stage,
                "files": {"original": ["original_A.mtx", "original_b.vec"]},
                "back_maps": []}

    gz, back1 = to_zero_rowsum(sys0)
    manifest["back_maps"].append({"kind": back1.kind, "n": back1.n})
    fileio.write_matrix(out / "A_gz.mtx", gz.A)
    fileio.write_vector(out / "b_gz.vec", gz.b)
    manifest["files"]["gz"] = ["A_gz.mtx", "b_gz.vec"]
    if args.stage != "gz":
        gz2, back2 = to_pow2(gz)
        manifest["back_maps"].append({"kind": back2.kind, "n": back2.n})
        fileio.write_matrix(out / "A_gz2.mtx", gz2.A)
        fileio.write_vector(out / "b_gz2.vec", gz2.b)
        manifest["files"]["gz2"] = ["A_gz2.mtx", "b_gz2.vec"]
    if args.stage in ("da", "b2", "b2w"):
        da, _, trace = gz2_to_da(gz2, alpha=1.0)
        fileio.write_json(out / "da.json", fileio.da_system_to_json(da))
        fileio.write_matrix(out / "da_matrix.mtx", da.as_matrix())
        fileio.write_vector(out / "da_rhs.vec", da.rhs_vector())
        manifest["files"]["da"] = ["da.json", "da_matrix.mtx", "da_rhs.vec"]
        manifest["da_n_original"] = trace.n_original
    if args.stage in ("b2", "b2w"):
        eps_da = choose_epsilon_da(args.eps, gz2) if np.linalg.norm(gz2.b) else args.eps
        manifest["eps_da_theory"] = eps_da
        if args.stage == "b2":
            problem = build_boundary_problem(da)
        else:
            alpha = args.alpha
            if alpha is None:
                alpha = min(2.0 / max(eps_da, 1e-12) ** 2, ALPHA_CAP_DEFAULT)
            problem, eps_b2 = reduce_reg(da, da.pattern_rhs(),
                                         eps_da=min(max(eps_da, 1e-12), 1.0),
                                         alpha=alpha)
            manifest["eps_b2_theory"] = eps_b2
            manifest["alpha"] = alpha
        names = fileio.write_boundary_problem(out, problem)
        manifest["files"]["b2"] = names
    fileio.write_json(out / "manifest.json", manifest)
    print(f"wrote stage {args.stage} artifacts to {out}")
    return 0


def _replay_manifest(args, out: Path) -> int:
    """Solve from previously written artifacts, replaying the recorded back maps."""
    src = Path(args.manifest)
    manifest = fileio.read_json(src / "manifest.json")
    if "b2" not in manifest["files"]:
        raise SystemExit("manifest has no boundary-problem stage; re-run reduce "
                         "with --stage b2w")
    original = GeneralSystem(fileio.read_matrix(src / "original_A.mtx"),
                             fileio.read_vector(src / "original_b.vec"), CLASS_G)
    gz2 = GeneralSystem(fileio.read_matrix(src / "A_gz2.mtx"),
                        fileio.read_vector(src / "b_gz2.vec"), "G_z2")
    sidecar = fileio.read_json(src / "b2_trace.json")
    d2 = fileio.read_matrix(src / "b2_d2.mtx")
    weights = fileio.read_vector(src / "b2_W.vec")
    gamma = fileio.read_vector(src / "b2_gamma.vec")
    for name, vec in (("b2_W.vec", weights), ("b2_gamma.vec", gamma)):
        if vec.size != d2.n_rows:
            raise SystemExit(f"error: {src / name} has {vec.size} entries but "
                             f"b2_d2.mtx has {d2.n_rows} rows")
    w_d2 = d2.row_scaled(np.sqrt(weights))
    w_gamma = np.sqrt(weights) * gamma

    def back(f):
        x = fileio.sidecar_map_solution(sidecar, f)
        x = map_da_solution_back(gz2, x)
        for spec in reversed(manifest["back_maps"]):
            if spec["kind"] == "shift":
                x = x[: spec["n"]] - x[spec["n"]]
            else:
                x = x[: spec["n"]]
        return x

    eps = args.eps if args.eps is not None else manifest["eps"]
    tol_start = min(max(manifest.get("eps_b2_theory", 1e-7), 1e-7), 0.1)
    x, report = adaptive_boundary_solve(w_d2, w_gamma, back, original, eps,
                                        tol_start=tol_start)
    fileio.write_vector(out / "x.vec", x)
    fileio.write_json(out / "solve_report.json", {
        "route": "manifest-replay", "converged": report.converged,
        "eps": report.eps_requested, "achieved_ratio": report.achieved_ratio,
        "projected_residual": report.projected_residual,
        "projected_rhs_norm": report.projected_rhs_norm,
        "b2_tolerance": report.b2_tolerance,
        "b2_iterations": report.b2_iterations,
    })
    print(f"replay solve: ratio {report.achieved_ratio:.3e} vs eps {eps:.3e}")
    return 0 if report.converged else 1


def cmd_solve(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if args.manifest:
        return _replay_manifest(args, out)
    eps = args.eps if args.eps is not None else 1e-6

    if args.route == "direct":
        A = fileio.read_matrix(args.matrix)
        b = fileio.read_vector(args.rhs)
        res = least_squares(A, b, eps)
        fileio.write_vector(out / "x.vec", res.x)
        fileio.write_json(out / "solve_report.json", {
            "route": "direct", "converged": res.converged,
            "residual_norm": res.residual_norm,
            "projected_residual_norm": res.projected_residual_norm,
            "projected_rhs_norm": res.projected_rhs_norm,
            "iterations": res.iterations,
        })
        print(f"direct solve: projected residual {res.projected_residual_norm:.3e}")
        return 0 if res.converged else 1

    K = fileio.complex_from_json(fileio.read_json(args.complex))
    d = fileio.read_vector(args.rhs)
    solver = (solve_boundary_via_laplacian if args.route == "laplacian"
              else solve_boundary_via_gram)
    try:
        f, report = solver(K, d, eps, dense_limit=args.dense_limit)
    except (DenseGuardError, ValueError) as exc:
        print(f"error: {exc}")
        return 2
    fileio.write_vector(out / "f.vec", f)
    fileio.write_json(out / "solve_report.json", {
        "route": report.route, "eps_inner": report.eps_inner,
        "inner_converged": report.inner_converged,
        "projected_residual": report.projected_residual,
        "projected_rhs_norm": report.projected_rhs_norm,
        "degenerate": report.degenerate, "ok": report.ok,
    })
    print(f"{args.route} solve: projected residual {report.projected_residual:.3e}"
          f"{' (degenerate rhs)' if report.degenerate else ''}")
    return 0 if report.ok else 1


def cmd_verify(args) -> int:
    src = Path(args.dir)
    ok = True

    def check(name: str, passed: bool, detail: str = "") -> None:
        nonlocal ok
        ok = ok and passed
        print(f"[{'PASS' if passed else 'FAIL'}] {name}{': ' + detail if detail else ''}")

    K = fileio.complex_from_json(fileio.read_json(src / "b2_complex.json"))
    report = validate(K)
    check("complex structure", report.ok, report.violation or "")

    d2 = fileio.read_matrix(src / "b2_d2.mtx")
    prod = boundary1(K).to_int_csr() @ d2.to_int_csr()
    prod.eliminate_zeros()
    check("chain identity d1 d2 = 0", prod.nnz == 0)

    sidecar = fileio.read_json(src / "b2_trace.json")
    da = fileio.da_system_from_json(sidecar["da"])
    pattern = da.pattern_matrix()
    l1 = pattern.entry_abs_sum()
    t, m = d2.n_cols, d2.n_rows
    check("triangle count 11*l1 - 4n", t == int(round(11 * l1 - 4 * da.n_vars)),
          f"t={t}")
    check("size bounds", t <= 22 * pattern.nnz and m <= 33 * pattern.nnz
          and d2.nnz == 3 * t)

    if t <= args.dense_limit:
        problem = build_boundary_problem(da)
        try:
            cert = spectral_certificate(problem, dense_limit=args.dense_limit)
        except DenseGuardError as exc:
            check("spectral certificate", False, str(exc))
        else:
            for c in cert.checks:
                check(f"spectral {c.name}", c.ok,
                      f"value {c.value:.6g} vs bound {c.bound:.6g}")
    else:
        print(f"[SKIP] spectral certificate (t={t} beyond dense limit)")
    return 0 if ok else 1


def cmd_maxflow_demo(args) -> int:
    net_obj = fileio.read_json(args.network)
    K = fileio.complex_from_json(net_obj["complex"])
    net = FlowNetwork2(K, np.array(net_obj["capacities"]),
                       np.array(net_obj["gamma"]), net_obj.get("f_star"))
    result = run_ipm(net, args.steps)
    if args.trace:
        with open(args.trace, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "kind", "alpha", "barrier", "residual"])
            for rec in result.log:
                writer.writerow([rec.step, rec.kind, f"{rec.alpha:.12g}",
                                 f"{rec.barrier:.12g}", f"{rec.residual:.6e}"])
    print(f"maxflow demo: alpha = {result.alpha:.4f} after {len(result.log)} half-steps")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="lin2complex",
                                description="reduce sparse linear equations onto "
                                            "2-complex boundary operators and solve them")
    p.add_argument("--seed", type=int, default=0, help="seed recorded in manifests")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("reduce", help="run the reduction chain and write artifacts")
    pr.add_argument("--matrix", required=True)
    pr.add_argument("--rhs", required=True)
    pr.add_argument("--stage", choices=STAGES, default="b2w")
    pr.add_argument("--out-dir", required=True)
    pr.add_argument("--eps", type=float, default=1e-3)
    pr.add_argument("--alpha", type=float, default=None)
    pr.set_defaults(func=cmd_reduce)

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
    ps.add_argument("--eps", type=float, default=None,
                    help="accuracy; defaults to 1e-6, or to the recorded "
                         "value when replaying a manifest")
    ps.add_argument("--dense-limit", type=int, default=3000)
    ps.add_argument("--out-dir", default=".")
    ps.set_defaults(func=cmd_solve)

    pv = sub.add_parser("verify", help="validate artifacts and run certificates")
    pv.add_argument("--dir", required=True)
    pv.add_argument("--dense-limit", type=int, default=2000)
    pv.set_defaults(func=cmd_verify)

    pm = sub.add_parser("maxflow-demo", help="interior-point maxflow demo")
    pm.add_argument("--network", required=True)
    pm.add_argument("--steps", type=int, default=500)
    pm.add_argument("--trace", default=None)
    pm.set_defaults(func=cmd_maxflow_demo)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, ComplexStructureError, NetworkError) as exc:
        raise SystemExit(f"error: {exc}") from None


if __name__ == "__main__":
    _sys.exit(main())
