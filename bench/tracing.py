"""Span tracing of the library from outside it, and the per-layer metrics.

A traced run replaces each instrumented library function with a wrapper at
every ``lin2complex`` module attribute that holds it, so a call is caught
wherever its caller looks the name up (``pipeline.iterative_solve``,
``cli.validate``, ``b2_reduce.boundary2`` and so on).  Each call records a
span: name, start, end, parent span and item id.  Spans stay in memory
until the run ends.  Hooks read sizes, iteration counts and outcomes off
the arguments and return values of the same calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import time
from collections import Counter, defaultdict

import numpy as np

ROOT = "bench.item"


class Tracer:
    """In-memory span recorder.

    A span is ``[name, start, end, parent index, item id, nested]``;
    ``nested`` marks a span that runs inside another span of the same name,
    whose time the outer one already counts.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.item_counts: dict[int, Counter] = defaultdict(Counter)
        self.extrema: dict[str, float] = {}
        self.item = -1
        self._stack: list[int] = []
        self._active: Counter = Counter()

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self.item, self._active[name] > 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        self._active[name] += 1
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()
        self._active[rec[0]] -= 1

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, fn, name: str, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(rec)
                if hook is not None:
                    hook(self, fn, args, kwargs, None, exc)
                raise
            except BaseException:
                self._close(rec)
                raise
            self._close(rec)
            if hook is not None:
                hook(self, fn, args, kwargs, result, None)
            return result
        return traced

    def run_item(self, item_id: int, work, out_dir):
        """Run one item under the root span that its library spans nest in."""
        self.item = item_id
        rec = self._open(ROOT)
        try:
            return work(out_dir)
        finally:
            self._close(rec)
            self.item = -1

    def add(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value
        self.item_counts[self.item][name] += value

    def keep_max(self, name: str, value: float) -> None:
        self.extrema[name] = max(self.extrema.get(name, -math.inf), float(value))

    def keep_min(self, name: str, value: float) -> None:
        self.extrema[name] = min(self.extrema.get(name, math.inf), float(value))


# -- hooks: counts read off the instrumented calls ------------------------------

def _iterative_iters(tr, fn, args, kwargs, result, exc):
    if result is not None:
        tr.add("sparse_core.iterative_solve.iters", result[1])
    if tr.parent_name() == "pipeline.adaptive_boundary_solve":
        tr.add("pipeline.rounds")


def _least_squares_iters(tr, fn, args, kwargs, result, exc):
    if result is not None:
        tr.add("sparse_core.least_squares.iters", result.iterations)


def _da_size(tr, fn, args, kwargs, result, exc):
    if result is not None:
        tr.add("da_reduce.rows", result[0].n_rows)
        tr.add("da_reduce.vars", result[0].n_vars)


def _b2_size(tr, fn, args, kwargs, result, exc):
    if result is not None:
        tr.add("b2_reduce.triangles", result.n_triangles)
        tr.add("b2_reduce.edges", result.n_edges)


def _l_q(tr, fn, args, kwargs, result, exc):
    if result is not None and result[0].l_q.size:
        tr.keep_max("b2_reduce.l_q_max", np.max(result[0].l_q))


def _solve_rounds(tr, fn, args, kwargs, result, exc):
    if result is not None:
        report = result[1]
        tr.add("pipeline.solves")
        tr.add("pipeline.first_round", report.converged and report.rounds == 1)
        tr.keep_max("pipeline.achieved_ratio.max", report.achieved_ratio)


def _bytes_written(tr, fn, args, kwargs, result, exc):
    if exc is None:
        tr.add("fileio.bytes_written", os.path.getsize(args[0]))


def _lap_ok(tr, fn, args, kwargs, result, exc):
    tr.add("lap_solve.solves")
    tr.add("lap_solve.ok", result is not None and result[1].ok)


@functools.cache
def _signature(fn) -> inspect.Signature:
    return inspect.signature(fn)


def _progress_attempts(tr, fn, args, kwargs, result, exc):
    """Accepted versus attempted increments: every retry halves the request."""
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    if result is None:
        tr.add("maxflow_ipm.increments_attempted", a["max_retries"])
        return
    achieved = result.alpha - a["state"].alpha
    tr.add("maxflow_ipm.increments_attempted",
           1 + round(math.log2(a["alpha_prime"] / achieved)))
    tr.add("maxflow_ipm.increments_accepted")


def _ipm_alpha(tr, fn, args, kwargs, result, exc):
    # bisection probes inside estimate_f_star may stop short by design;
    # only the final solve on each network is held to its target
    if result is not None and tr.parent_name() != "maxflow_ipm.estimate_f_star":
        tr.keep_min("maxflow_ipm.alpha_min", result.alpha)


# (module, function, span name, hook).  Several functions may share a span
# name; a span nested in one of the same name adds no inclusive time.
INSTRUMENTS = (
    ("sparse_core", "iterative_solve", "sparse_core.iterative_solve", _iterative_iters),
    ("sparse_core", "projection_residual", "sparse_core.projection_residual", None),
    ("sparse_core", "least_squares", "sparse_core.least_squares", _least_squares_iters),
    ("sparse_core", "spectral_summary", "sparse_core.spectral_summary", None),
    ("da_reduce", "to_zero_rowsum", "da_reduce.to_zero_rowsum", None),
    ("da_reduce", "to_pow2", "da_reduce.to_pow2", None),
    ("da_reduce", "gz2_to_da", "da_reduce.gz2_to_da", _da_size),
    ("da_reduce", "map_da_solution_back", "da_reduce.map_da_solution_back", None),
    ("complex2", "validate", "complex2.validate", None),
    ("complex2", "boundary1", "complex2.boundary1", None),
    ("complex2", "boundary2", "complex2.boundary2", None),
    ("complex2", "laplacian1", "complex2.laplacian1", None),
    ("complex2", "triangle_adjacency", "complex2.triangle_adjacency", None),
    ("b2_reduce", "build_boundary_problem", "b2_reduce.build_boundary_problem", _b2_size),
    ("b2_reduce", "compute_edge_weights", "b2_reduce.compute_edge_weights", _l_q),
    ("b2_reduce", "reduce_reg", "b2_reduce.reduce_reg", None),
    ("b2_reduce", "map_soln_b2_to_da", "b2_reduce.map_soln_b2_to_da", None),
    ("b2_reduce", "spectral_certificate", "b2_reduce.spectral_certificate", None),
    ("pipeline", "solve_general", "pipeline.solve_general", None),
    ("pipeline", "reduce_chain", "pipeline.reduce_chain", None),
    ("pipeline", "solve_chain", "pipeline.solve_chain", None),
    ("pipeline", "adaptive_boundary_solve", "pipeline.adaptive_boundary_solve", _solve_rounds),
    ("pipeline", "map_back", "pipeline.map_back", None),
    ("fileio", "write_matrix", "fileio.write", _bytes_written),
    ("fileio", "write_vector", "fileio.write", _bytes_written),
    ("fileio", "write_json", "fileio.write", _bytes_written),
    ("fileio", "write_boundary_problem", "fileio.write", None),
    ("fileio", "complex_to_json", "fileio.write", None),
    ("fileio", "read_matrix", "fileio.read", None),
    ("fileio", "read_vector", "fileio.read", None),
    ("fileio", "read_json", "fileio.read", None),
    ("fileio", "complex_from_json", "fileio.read", None),
    ("fileio", "da_system_from_json", "fileio.read", None),
    ("cli", "main", "cli.main", None),
    ("cli", "cmd_reduce", "cli.reduce", None),
    ("cli", "cmd_verify", "cli.verify", None),
    ("cli", "cmd_solve", "cli.solve", None),
    ("cli", "_replay_manifest", "cli.replay", None),
    ("lap_solve", "solve_boundary_via_laplacian", "lap_solve.laplacian", _lap_ok),
    ("lap_solve", "solve_boundary_via_gram", "lap_solve.gram", _lap_ok),
    ("maxflow_ipm", "estimate_f_star", "maxflow_ipm.estimate_f_star", None),
    ("maxflow_ipm", "run_ipm", "maxflow_ipm.run_ipm", _ipm_alpha),
    ("maxflow_ipm", "progress_step", "maxflow_ipm.progress_step", _progress_attempts),
    ("maxflow_ipm", "centering_step", "maxflow_ipm.centering_step", None),
)


def install(tracer: Tracer):
    """Wrap every instrumented function wherever a library module binds it.

    Returns a function that puts the originals back.
    """
    modules = [importlib.import_module(f"lin2complex.{name}") for name in
               ("sparse_core", "complex2", "da_reduce", "b2_reduce", "lap_solve",
                "maxflow_ipm", "pipeline", "fileio", "cli")]
    undo = []
    for module, function, span, hook in INSTRUMENTS:
        original = getattr(importlib.import_module(f"lin2complex.{module}"), function)
        wrapper = tracer.wrap(original, span, hook)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, original))

    def restore():
        for mod, attr, original in undo:
            setattr(mod, attr, original)
    return restore


# -- span arithmetic -------------------------------------------------------------

def span_times(spans):
    """Per span name: inclusive seconds (outermost spans only), self seconds,
    calls; and per (item, name) inclusive seconds."""
    child = [0.0] * len(spans)
    for name, start, end, parent, item, nested in spans:
        if parent >= 0:
            child[parent] += end - start
    incl, self_s, calls = Counter(), Counter(), Counter()
    per_item = Counter()
    for idx, (name, start, end, parent, item, nested) in enumerate(spans):
        dur = end - start
        self_s[name] += dur - child[idx]
        calls[name] += 1
        if not nested:
            incl[name] += dur
            per_item[(item, name)] += dur
    return incl, self_s, calls, per_item


def ranking(tracer: Tracer) -> list[tuple[str, float]]:
    """Span names by descending self time."""
    _, self_s, _, _ = span_times(tracer.spans)
    return sorted(self_s.items(), key=lambda kv: -kv[1])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _growth(per_item, sizes: dict, name: str) -> float:
    """Mean over adjacent rungs of log(time ratio) / log(triangle ratio):
    2.0 is quadratic, 1.0 linear, and with doubling rungs it is the log2
    of the time ratio.  0 where the span is missing on a rung."""
    rungs = sorted(sizes, key=sizes.get)
    slopes = []
    for lo, hi in zip(rungs, rungs[1:]):
        t_lo, t_hi = per_item.get((lo, name), 0.0), per_item.get((hi, name), 0.0)
        if t_lo <= 0.0 or t_hi <= 0.0 or sizes[hi] <= sizes[lo]:
            return 0.0
        slopes.append(math.log(t_hi / t_lo) / math.log(sizes[hi] / sizes[lo]))
    return sum(slopes) / len(slopes) if slopes else 0.0


GROWTH_SPANS = ("b2_reduce.build_boundary_problem", "b2_reduce.compute_edge_weights",
                "complex2.validate", "complex2.boundary2", "fileio.write", "fileio.read")


def layer_metrics(tracer: Tracer, traced_pass, untraced_wall: float,
                  ladder: bool) -> dict:
    """Every per-layer metric of one traced pass; 0 where a layer is idle."""
    incl, self_s, calls, per_item = span_times(tracer.spans)
    c = tracer.counts + traced_pass.counts
    ext = tracer.extrema
    m = {}
    it, pr, ls = ("sparse_core.iterative_solve", "sparse_core.projection_residual",
                  "sparse_core.least_squares")
    m.update({f"{it}.s": incl[it], f"{it}.self_s": self_s[it], f"{it}.calls": calls[it],
              f"{it}.iters": c[f"{it}.iters"],
              f"{it}.us_per_iter": 1e6 * _ratio(incl[it], c[f"{it}.iters"]),
              f"{pr}.s": incl[pr], f"{pr}.calls": calls[pr],
              f"{ls}.s": incl[ls], f"{ls}.calls": calls[ls], f"{ls}.iters": c[f"{ls}.iters"]})
    for name in ("reduce_chain", "solve_chain", "map_back"):
        m[f"pipeline.{name}.s"] = incl[f"pipeline.{name}"]
    m["pipeline.rounds"] = c["pipeline.rounds"]
    m["pipeline.first_round_ratio"] = _ratio(c["pipeline.first_round"], c["pipeline.solves"])
    m["pipeline.achieved_ratio.max"] = ext.get("pipeline.achieved_ratio.max", 0.0)
    m["b2_reduce.l_q_max"] = ext.get("b2_reduce.l_q_max", 0.0)
    sizes = {item: counts["b2_reduce.triangles"]
             for item, counts in tracer.item_counts.items()
             if counts["b2_reduce.triangles"] > 0}
    for name in GROWTH_SPANS:
        m[f"{name}.s"] = incl[name]
        m[f"{name}.growth"] = _growth(per_item, sizes, name) if ladder else 0.0
    for name in ("b2_reduce.triangles", "b2_reduce.edges", "da_reduce.rows",
                 "da_reduce.vars", "fileio.bytes_written", "cli.nonzero_exits",
                 "cli.verify.skipped"):
        m[name] = c[name]
    m["da_reduce.s"] = sum(v for k, v in incl.items() if k.startswith("da_reduce."))
    for name in ("b2_reduce.spectral_certificate", "cli.reduce", "cli.verify",
                 "cli.replay", "lap_solve.laplacian", "lap_solve.gram",
                 "maxflow_ipm.estimate_f_star", "maxflow_ipm.run_ipm",
                 "maxflow_ipm.progress_step", "maxflow_ipm.centering_step"):
        m[f"{name}.s"] = incl[name]
    m["lap_solve.ok_ratio"] = _ratio(c["lap_solve.ok"], c["lap_solve.solves"])
    m["maxflow_ipm.progress_step.calls"] = calls["maxflow_ipm.progress_step"]
    m["maxflow_ipm.accept_ratio"] = _ratio(c["maxflow_ipm.increments_accepted"],
                                           c["maxflow_ipm.increments_attempted"])
    m["maxflow_ipm.alpha_min"] = ext.get("maxflow_ipm.alpha_min", 0.0)
    traced_wall = traced_pass.wall
    m["trace.wall_s"] = traced_wall
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.overhead_s"] = traced_wall - untraced_wall
    # self times telescope to the roots' inclusive time, so the library spans
    # alone are summed; the root's own self time is work inside an item that
    # no library span covers (argument parsing, stdout capture, untraced calls)
    m["trace.self_sum_s"] = sum(v for k, v in self_s.items() if k != ROOT)
    m["trace.gap_s"] = self_s[ROOT]
    m["trace.spans"] = len(tracer.spans)
    return {k: float(v) for k, v in m.items()}
