#!/usr/bin/env python3
"""Interior-point maxflow on a 2-complex flow network built from an equation.

Builds the complex for x0 - x1 = 1 (or an average equation with --average),
brackets the optimal flow value between a routed flow and a weak-duality
bound, runs the log-barrier method, and writes a CSV trace plus a network
file the CLI can replay with `lin2complex maxflow-demo --network net.json`.

Example:
    python scripts/run_maxflow_demo.py --steps 300 --out-dir /tmp/flow
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from lin2complex import fileio
from lin2complex.b2_reduce import reduce_da_to_b2
from lin2complex.cli import positive_int
from lin2complex.da_reduce import average_row, difference_row, plain_da_system
from lin2complex.maxflow_ipm import FlowNetwork2, f_star_bracket, run_ipm


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--steps", type=positive_int, default=300,
                    help="the most progress steps run_ipm takes; it stops once "
                         "alpha reaches 0.995")
    ap.add_argument("--capacity", type=float, default=1.0)
    ap.add_argument("--average", action="store_true",
                    help="use x0 + x1 - 2 x2 = 0 with a side difference equation")
    ap.add_argument("--out-dir", default="maxflow_out")
    args = ap.parse_args(argv)

    if args.average:
        sys_da = plain_da_system(3, [average_row(0, 1, 2), difference_row(0, 1)])
        b = np.array([0.0, 1.0])
    else:
        sys_da = plain_da_system(2, [difference_row(0, 1)])
        b = np.array([1.0])
    problem = reduce_da_to_b2(sys_da, b)
    net = FlowNetwork2(problem.K, np.full(problem.n_triangles, args.capacity),
                       problem.gamma)
    # a routed flow of value `lower` and a weak-duality bound `upper` bracket f*
    lower, upper, _ = f_star_bracket(net)
    net.f_star = lower
    print(f"network: {problem.n_edges} edges, {problem.n_triangles} triangles, "
          f"optimal flow value certified in [{lower:.12g}, {upper:.12g}]")

    result = run_ipm(net, args.steps)
    print(f"routed fraction alpha = {result.alpha:.4f}, "
          f"max |flow| / capacity = {np.max(np.abs(result.f)) / args.capacity:.4f}")

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_ipm_trace(out / "trace.csv", result.log)
    fileio.write_json(out / "net.json", {
        "complex": fileio.complex_to_json(problem.K),
        "capacities": net.capacities.tolist(),
        "gamma": net.gamma.tolist(),
        "f_star": net.f_star,
    })
    print(f"trace and network written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
