"""The benchmark names library functions by string and reads the files the
CLI writes; a rename in the library or a change of the file format must fail
here rather than break a benchmark run."""

import importlib
import importlib.util
import inspect
import math
from pathlib import Path

import numpy as np

from lin2complex import cli, fileio, lap_solve, maxflow_ipm
from lin2complex.b2_reduce import build_boundary_problem, compute_edge_weights, reduce_da_to_b2
from lin2complex.complex2 import boundary2
from lin2complex.da_reduce import (
    CLASS_G,
    GeneralSystem,
    difference_row,
    gz2_to_da,
    plain_da_system,
)
from lin2complex.pipeline import adaptive_boundary_solve, map_back, reduce_chain
from lin2complex.sparse_core import SparseMatrix, iterative_solve, least_squares

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{function}" for module, function, _, _ in tracing.INSTRUMENTS
               if not callable(getattr(importlib.import_module(f"lin2complex.{module}"),
                                       function, None))]
    assert not missing, missing


def test_bound_parameters_exist():
    # bench/tracing.py binds progress_step's arguments by name, and the
    # flow_ipm workload passes estimate_f_star's rounds by keyword
    for fn, names in ((maxflow_ipm.progress_step, {"state", "alpha_prime", "max_retries"}),
                      (maxflow_ipm.estimate_f_star, {"rounds"})):
        assert names <= set(inspect.signature(fn).parameters), fn.__name__


def test_reduce_output_passes_the_benchmark_triangle_check(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # workloads imports its siblings by name
    workloads = importlib.import_module("workloads")
    fileio.write_matrix(tmp_path / "A.mtx",
                        SparseMatrix.from_dense([[2, -1, 0], [0, 3, 1], [1, 0, -2]]))
    fileio.write_vector(tmp_path / "b.vec", np.array([1.0, 4.0, -1.0]))
    out = tmp_path / "out"
    assert cli.main(["reduce", "--matrix", str(tmp_path / "A.mtx"),
                     "--rhs", str(tmp_path / "b.vec"), "--out-dir", str(out)]) == 0
    assert workloads.triangle_count_holds(out)


def test_hooks_and_oracle_read_the_library_results(monkeypatch, tmp_path):
    # the tracing hooks read sizes, l_q, iteration counts, solve outcomes,
    # written file sizes and IPM increments off the arguments and results of
    # the calls they wrap, and the flow_ipm oracle reads the complex's edge
    # and triangle records; a renamed attribute or a changed return shape
    # must fail here, not in a --trace 1 run
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    hooks = {function: hook for _, function, _, hook in tracing.INSTRUMENTS}
    A = SparseMatrix.from_dense([[2, -1, 0], [0, 3, 1], [1, 0, -2]])
    b = np.array([1.0, 4.0, -1.0])
    chain = reduce_chain(GeneralSystem(A, b, CLASS_G), 1e-3)
    da_result = gz2_to_da(chain.gz2)
    P = build_boundary_problem(da_result[0])
    weights_result = compute_edge_weights(P, 2.0)
    ls_result = least_squares(A, b, 1e-8)
    iterative_result = iterative_solve(A, b, 1e-8)
    solve_result = adaptive_boundary_solve(
        chain.problem.weighted_matrix(), chain.problem.weighted_rhs(),
        lambda f: map_back(chain, f), chain.original, chain.eps)
    fileio.write_vector(tmp_path / "b.vec", b)
    # the 14-triangle network of scripts/run_maxflow_demo.py
    demo = reduce_da_to_b2(plain_da_system(2, [difference_row(0, 1)]), np.array([1.0]))
    lap_result = lap_solve.solve_boundary_via_laplacian(demo.K, demo.gamma, 1e-4)
    net = maxflow_ipm.FlowNetwork2(demo.K, np.ones(demo.n_triangles), demo.gamma)
    net.f_star = maxflow_ipm.estimate_f_star(net)
    # run_ipm's increment, which the demo network accepts at its first try
    alpha_prime = 1 / (20 * math.sqrt(demo.n_triangles))
    progress_args = (net, maxflow_ipm.initial_state(net), alpha_prime)
    progress_result = maxflow_ipm.progress_step(*progress_args)
    ipm_result = maxflow_ipm.run_ipm(net, 3)

    tr = tracing.Tracer()
    for function, result in (("gz2_to_da", da_result), ("build_boundary_problem", P),
                             ("compute_edge_weights", weights_result),
                             ("least_squares", ls_result),
                             ("iterative_solve", iterative_result),
                             ("adaptive_boundary_solve", solve_result),
                             ("solve_boundary_via_laplacian", lap_result)):
        hooks[function](tr, None, (), {}, result, None)
    # these hooks also read the arguments of the call
    for fn, args, result in ((fileio.write_vector, (tmp_path / "b.vec", b), None),
                             (maxflow_ipm.progress_step, progress_args, progress_result),
                             (maxflow_ipm.run_ipm, (net, 3), ipm_result)):
        hooks[fn.__name__](tr, fn, args, {}, result, None)
    da, report = da_result[0], solve_result[1]
    assert report.converged and report.rounds == 1
    assert lap_result[1].ok and progress_result.alpha == alpha_prime
    assert tr.counts == {"da_reduce.rows": da.n_rows, "da_reduce.vars": da.n_vars,
                         "b2_reduce.triangles": P.n_triangles, "b2_reduce.edges": P.n_edges,
                         "sparse_core.least_squares.iters": ls_result.iterations,
                         "sparse_core.iterative_solve.iters": iterative_result[1],
                         "pipeline.solves": 1, "pipeline.first_round": 1,
                         "fileio.bytes_written": (tmp_path / "b.vec").stat().st_size,
                         "lap_solve.solves": 1, "lap_solve.ok": 1,
                         "maxflow_ipm.increments_attempted": 1,
                         "maxflow_ipm.increments_accepted": 1}
    assert tr.extrema == {"b2_reduce.l_q_max": weights_result[0].l_q.max(),
                          "pipeline.achieved_ratio.max": report.achieved_ratio,
                          "maxflow_ipm.alpha_min": ipm_result.alpha}
    assert np.array_equal(workloads._boundary_oracle(P.K), boundary2(P.K).to_dense())
