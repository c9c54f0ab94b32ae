"""The benchmark names library functions by string and reads the files the
CLI writes; a rename in the library or a change of the file format must fail
here rather than break a benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from lin2complex import cli, fileio, maxflow_ipm
from lin2complex.sparse_core import SparseMatrix

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
