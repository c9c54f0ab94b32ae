"""The benchmark names library functions by string and reads the files the
CLI writes; a rename in the library or a change of the file format must fail
here rather than break a benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from lin2complex import cli, fileio, maxflow_ipm
from lin2complex.b2_reduce import build_boundary_problem, compute_edge_weights
from lin2complex.complex2 import boundary2
from lin2complex.da_reduce import CLASS_G, GeneralSystem, gz2_to_da
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


def test_hooks_and_oracle_read_the_library_results(monkeypatch):
    # the tracing hooks read sizes, l_q, iteration counts and solve outcomes
    # off the results of the calls they wrap, and the flow_ipm oracle reads
    # the complex's edge and triangle records; a renamed attribute or a
    # changed return shape must fail here, not in a --trace 1 run
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
        lambda f: map_back(chain, f), chain.original, chain.eps, chain.eps_b2_theory)

    tr = tracing.Tracer()
    for function, result in (("gz2_to_da", da_result), ("build_boundary_problem", P),
                             ("compute_edge_weights", weights_result),
                             ("least_squares", ls_result),
                             ("iterative_solve", iterative_result),
                             ("adaptive_boundary_solve", solve_result)):
        hooks[function](tr, None, (), {}, result, None)
    da, report = da_result[0], solve_result[1]
    assert report.converged and report.rounds == 1
    assert tr.counts == {"da_reduce.rows": da.n_rows, "da_reduce.vars": da.n_vars,
                         "b2_reduce.triangles": P.n_triangles, "b2_reduce.edges": P.n_edges,
                         "sparse_core.least_squares.iters": ls_result.iterations,
                         "sparse_core.iterative_solve.iters": iterative_result[1],
                         "pipeline.solves": 1, "pipeline.first_round": 1}
    assert tr.extrema == {"b2_reduce.l_q_max": weights_result[0].l_q.max(),
                          "pipeline.achieved_ratio.max": report.achieved_ratio}
    assert np.array_equal(workloads._boundary_oracle(P.K), boundary2(P.K).to_dense())
