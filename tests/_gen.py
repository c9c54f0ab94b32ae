"""Shared instance generators and dense oracles for the test suite.

Oracles here are deliberately independent of the library's solve paths:
minimum residuals come from numpy lstsq/pinv on dense arrays, projections
from explicitly formed projectors, ranks from dense SVD.  The builders of
standalone patches, the paper's accuracy recipe and the per-row and
per-path views live here too: the tests use them and no product path does.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order

from lin2complex.complex2 import (
    BOUNDARY,
    INTERIOR,
    Complex2,
    ComplexStructureError,
    _edge_keys,
    _lookup,
    sphere_cells,
    triangle_adjacency,
    tube_cells,
)
from lin2complex.da_reduce import (
    CLASS_G,
    CLASS_GZ2,
    KIND_AVERAGE,
    KIND_DIFFERENCE,
    DARow,
    GeneralSystem,
    MatrixClassError,
    WeightedDASystem,
    average_row,
    difference_row,
    plain_da_system,
)
from lin2complex.sparse_core import SparseMatrix


# -- dense oracles ------------------------------------------------------------

def dense_lstsq(A_dense, b):
    x, *_ = np.linalg.lstsq(np.asarray(A_dense, float), np.asarray(b, float), rcond=None)
    return x


def dense_min_residual(A_dense, b) -> float:
    x = dense_lstsq(A_dense, b)
    return float(np.linalg.norm(np.asarray(A_dense) @ x - np.asarray(b)))


def dense_project(A_dense, b):
    """Orthogonal projection of b onto the column space of A."""
    A_dense = np.asarray(A_dense, float)
    return A_dense @ (np.linalg.pinv(A_dense) @ np.asarray(b, float))


def dense_rank(A_dense) -> int:
    return int(np.linalg.matrix_rank(np.asarray(A_dense, float)))


def dense_nullity(A_dense) -> int:
    A_dense = np.asarray(A_dense, float)
    return A_dense.shape[1] - dense_rank(A_dense)


# -- standalone patches -------------------------------------------------------

ORIENTATION_OPPOSITE, ORIENTATION_IDENTICAL = "opposite", "identical"


def from_triangles(n_vertices: int, triangles, edge_order=None) -> Complex2:
    """Build a one-group complex from oriented triangles alone.

    Edge kinds are inferred from incidence (one triangle: boundary, two:
    interior).  ``edge_order`` optionally fixes the edge rows as a list of
    (tail, head) pairs; by default edges are sorted lexicographically with
    the smaller endpoint first.
    """
    tri = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    base = max(n_vertices, int(tri.max(initial=-1)) + 1)
    keys, count = np.unique(_edge_keys(tri, np.roll(tri, -1, axis=1), base),
                            return_counts=True)
    if edge_order is None:
        edge = np.stack(np.divmod(keys, base), axis=1)
    else:
        edge = np.asarray(edge_order, dtype=np.int64).reshape(-1, 2)
        order_keys = _edge_keys(edge[:, 0], edge[:, 1], base)
        if not np.array_equal(np.sort(order_keys), keys):
            raise ComplexStructureError("edge_order does not cover the triangle edges")
        count = count[np.searchsorted(keys, order_keys)]
    kind = np.where(count == 1, BOUNDARY, INTERIOR)
    return Complex2(n_vertices, tri, np.zeros(len(tri)), edge, kind)


def _patch(n_vertices: int, triangles, cycles) -> Complex2:
    """``from_triangles`` with the boundary edges, those of ``cycles``,
    oriented along their cycle."""
    K = from_triangles(n_vertices, triangles)
    cycles = np.asarray(cycles, dtype=np.int64).reshape(-1, 3)
    tails, heads = cycles.ravel(), np.roll(cycles, -1, axis=1).ravel()
    K.edge[_lookup(K, tails, heads)] = np.stack([tails, heads], axis=1)
    return K


def triangulate_punctured_sphere(n_boundary: int) -> Complex2:
    """Oriented triangulation of a sphere with ``n_boundary`` punctures.

    Produces exactly 5b-4 triangles, 9b-6 edges and 3b vertices; every
    boundary component is a 3-edge cycle.
    """
    if n_boundary < 1:
        raise ValueError("a punctured sphere needs at least one boundary component")
    n_vertices, triangles, holes = sphere_cells(n_boundary)
    return _patch(n_vertices, triangles, holes)


def triangulate_tube(orientation_match: str,
                     hole_cycle: tuple[int, int, int] = (0, 1, 2),
                     loop_cycle: tuple[int, int, int] = (3, 4, 5)) -> Complex2:
    """Standalone oriented tube between two 3-cycles: 6 triangles, 12 edges.

    ``orientation_match`` is "opposite" for a positive coefficient (the two
    boundary components are traversed with opposite orientations) and
    "identical" for a negative one.
    """
    if orientation_match not in (ORIENTATION_OPPOSITE, ORIENTATION_IDENTICAL):
        raise ValueError(f"unknown orientation_match {orientation_match!r}")
    if set(hole_cycle) & set(loop_cycle):
        raise ValueError("boundary triples must be disjoint")
    sign = 1 if orientation_match == ORIENTATION_OPPOSITE else -1
    triangles, _ = tube_cells(hole_cycle, loop_cycle, sign)
    n_vertices = max(max(hole_cycle), max(loop_cycle)) + 1
    return _patch(n_vertices, triangles, [hole_cycle, loop_cycle])


# -- row records ------------------------------------------------------------------

def da_rows(sys: WeightedDASystem) -> tuple[DARow, ...]:
    """The ``DARow`` records of a system's columns."""
    return tuple(DARow(KIND_AVERAGE if a else KIND_DIFFERENCE, i, j, k if a else None,
                       w, r, s)
                 for a, (i, j, k), w, r, s in zip(
                     sys.average.tolist(), sys.var.tolist(), sys.weight.tolist(),
                     sys.rhs.tolist(), sys.scale.tolist()))


def pattern_entries(row: DARow) -> list[tuple[int, float]]:
    """A record's pattern entries as (variable, coefficient) pairs."""
    if row.kind == KIND_DIFFERENCE:
        return [(row.i, 1.0), (row.j, -1.0)]
    return [(row.i, 1.0), (row.j, 1.0), (row.k, -2.0)]


# -- the paper's accuracy recipe -------------------------------------------------

def epsilon_feasible(eps_da: float, nnz_a: int) -> float:
    """Accuracy to request from the boundary solve in the feasible case."""
    return eps_da / (42.0 * nnz_a)


def choose_epsilon_da(eps_a: float, sys: GeneralSystem) -> float:
    """Accuracy to request from the difference-average solve.

    eps_a / (sqrt(n m) * max|A| * ||b||_2); with b = 0 any x is optimal and
    eps_a itself is returned.
    """
    if not (0.0 < eps_a < 1.0):
        raise ValueError("eps_a must lie in (0, 1)")
    b_norm = float(np.linalg.norm(sys.b))
    if b_norm == 0.0:
        return eps_a
    n, m = sys.A.n_cols, sys.A.n_rows
    return eps_a / (math.sqrt(n * m) * sys.A.max_abs() * b_norm)


def nnz_growth_ratio(sys: GeneralSystem, da: WeightedDASystem) -> float:
    """Measured constant C in nnz(B) <= C nnz(A) log2(2 + max|A|)."""
    return da.pattern_nnz / (sys.A.nnz * math.log2(2.0 + sys.A.max_abs()))


# -- difference-average instances ----------------------------------------------

def covering_da_rows(rng: np.random.Generator, n_vars: int, extra_rows: int,
                     p_average: float = 0.3):
    """Rows covering every variable: a difference path plus random extras."""
    order = rng.permutation(n_vars)
    rows = [difference_row(int(order[t]), int(order[t + 1]))
            for t in range(n_vars - 1)]
    for _ in range(extra_rows):
        if n_vars >= 3 and rng.random() < p_average:
            i, j, k = map(int, rng.choice(n_vars, size=3, replace=False))
            rows.append(average_row(i, j, k))
        else:
            i, j = map(int, rng.choice(n_vars, size=2, replace=False))
            rows.append(difference_row(i, j))
    return rows


def random_da_instance(rng: np.random.Generator, n_vars: int, extra_rows: int,
                       p_average: float = 0.3, b_scale: int = 5):
    """A plain difference-average instance with integer right-hand sides."""
    rows = covering_da_rows(rng, n_vars, extra_rows, p_average)
    b = np.array([float(rng.integers(-b_scale, b_scale + 1)) if r.kind == "difference"
                  else 0.0 for r in rows])
    return plain_da_system(n_vars, rows), b


def planted_da_instance(rng: np.random.Generator, n_seed: int, n_grow: int,
                        extra_rows: int):
    """Feasible instance with a planted solution (dyadic values, exact in binary)."""
    values = [float(rng.integers(-8, 9)) for _ in range(n_seed)]
    rows = []
    for _ in range(n_grow):
        n = len(values)
        if n >= 2 and rng.random() < 0.5:
            i, j = map(int, rng.choice(n, size=2, replace=False))
            values.append(0.5 * (values[i] + values[j]))
            rows.append(average_row(i, j, len(values) - 1))
        else:
            i = int(rng.integers(0, n))
            values.append(float(rng.integers(-8, 9)))
            rows.append(difference_row(len(values) - 1, i))
    n = len(values)
    for _ in range(extra_rows):
        i, j = map(int, rng.choice(n, size=2, replace=False))
        rows.append(difference_row(i, j))
    x_star = np.array(values)
    used = set()
    for r in rows:
        used.update(v for v in (r.i, r.j, r.k) if v is not None)
    for v in range(n):
        if v not in used:
            rows.append(difference_row(v, (v + 1) % n))
    sys = plain_da_system(n, rows)
    b = np.array([x_star[r.i] - x_star[r.j] if r.kind == "difference" else 0.0
                  for r in da_rows(sys)])
    if not np.allclose(sys.pattern_matrix().to_dense() @ x_star, b):  # a check that -O keeps
        raise AssertionError("the planted x does not solve the planted system")
    return sys, b, x_star


def infeasible_da_instance(rng: np.random.Generator, n_vars: int, extra_rows: int,
                           p_average: float = 0.3):
    """Instance whose least-squares residual is provably positive: it contains
    a repeated difference pattern with conflicting right-hand sides."""
    sys, b = random_da_instance(rng, n_vars, extra_rows, p_average)
    i, j = map(int, rng.choice(n_vars, size=2, replace=False))
    rows = list(da_rows(sys)) + [difference_row(i, j), difference_row(j, i)]
    b = np.concatenate([b, [1.0, float(rng.integers(0, 3))]])
    return plain_da_system(n_vars, rows), b


# -- general integer systems ----------------------------------------------------

def random_general_system(rng: np.random.Generator, n_vars: int, n_rows: int,
                          max_entry: int = 9, row_nnz: int = 3,
                          kappa_max: float | None = None,
                          max_tries: int = 200) -> GeneralSystem:
    for _ in range(max_tries):
        dense = np.zeros((n_rows, n_vars))
        for r in range(n_rows):
            k = min(n_vars, int(rng.integers(2, row_nnz + 1)))
            cols = rng.choice(n_vars, size=k, replace=False)
            for c in cols:
                v = 0
                while v == 0:
                    v = int(rng.integers(-max_entry, max_entry + 1))
                dense[r, c] = v
        if np.any(np.all(dense == 0, axis=0)) or np.any(np.all(dense == 0, axis=1)):
            continue
        if kappa_max is not None:
            s = np.linalg.svd(dense, compute_uv=False)
            s_nz = s[s > max(dense.shape) * np.finfo(float).eps * s[0]]
            if s_nz.size == 0 or s_nz[0] / s_nz[-1] > kappa_max:
                continue
        b = rng.integers(-max_entry, max_entry + 1, size=n_rows).astype(float)
        return GeneralSystem(SparseMatrix.from_dense(dense), b, CLASS_G)
    raise RuntimeError("failed to generate a general system within the budget")


def random_gz2_system(rng: np.random.Generator, n_vars: int, n_rows: int,
                      max_pow: int = 4) -> GeneralSystem:
    """Random system with zero row sums and power-of-two positive sums."""
    def composition(total: int, max_parts: int) -> list[int]:
        parts = []
        while total > 0:
            if len(parts) == max_parts - 1:
                parts.append(total)
                break
            p = int(rng.integers(1, total + 1))
            parts.append(p)
            total -= p
        return parts

    for _ in range(200):
        dense = np.zeros((n_rows, n_vars))
        for r in range(n_rows):
            p = 1 << int(rng.integers(0, max_pow + 1))
            pos = composition(p, max_parts=min(4, n_vars // 2 or 1))
            neg = composition(p, max_parts=min(4, n_vars - len(pos)))
            cols = rng.choice(n_vars, size=len(pos) + len(neg), replace=False)
            for c, v in zip(cols[:len(pos)], pos):
                dense[r, c] = v
            for c, v in zip(cols[len(pos):], neg):
                dense[r, c] = -v
        if np.any(np.all(dense == 0, axis=0)):
            continue
        b = rng.integers(-5, 6, size=n_rows).astype(float)
        sys = GeneralSystem(SparseMatrix.from_dense(dense), b, CLASS_GZ2)
        try:
            sys.validate_class()
        except Exception:
            continue
        return sys
    raise RuntimeError("failed to generate a G_z2 system within the budget")


def planted_general_system(rng: np.random.Generator, n_vars: int, n_rows: int,
                           max_entry: int = 50, row_nnz: int = 3,
                           kappa_max: float = 1e4):
    """Class-G system with a planted integer solution (feasible rhs)."""
    sys = random_general_system(rng, n_vars, n_rows, max_entry, row_nnz, kappa_max)
    x_star = rng.integers(-6, 7, size=n_vars).astype(float)
    b = sys.A.to_dense() @ x_star
    return GeneralSystem(sys.A, b, CLASS_G), x_star


def criterion11_systems():
    """Criterion 11's 20 draws, in order: ``default_rng(11)``, 4 to 12
    columns, planted, at most three nonzeros a row."""
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(4, 13))
        m = int(rng.integers(max(2, n - 2), n + 3))
        yield planted_general_system(rng, n, m, max_entry=50, row_nnz=3, kappa_max=1e4)[0]


def three_per_row_system(seed: int, n: int) -> GeneralSystem:
    """Square system with exactly three nonzeros a row, entries in [-50, 50],
    every column covered, and a planted integer solution."""
    rng = np.random.default_rng(seed)
    A = np.zeros((n, n))
    cover = rng.permutation(n)
    for r in range(n):
        others = rng.choice(np.setdiff1d(np.arange(n), [cover[r]]), size=2, replace=False)
        cols = np.concatenate([[cover[r]], others])
        A[r, cols] = rng.integers(1, 51, size=3) * rng.choice((-1.0, 1.0), size=3)
    x_star = rng.integers(-6, 7, size=n).astype(float)
    return GeneralSystem(SparseMatrix.from_dense(A), A @ x_star, CLASS_G)


# -- the row-by-row pairing oracle ----------------------------------------------

def _is_pow2(p: int) -> bool:
    return p >= 1 and (p & (p - 1)) == 0


def _classify_scaled_da(coef: dict[int, int], rhs: float, weight: float):
    """Recognize rows that are a power-of-two multiple of a canonical pattern,
    returned as that pattern's row (average, (i, j, k), weight, rhs, scale)
    with the given weight."""
    if len(coef) == 2:
        (va, ca), (vb, cb) = sorted(coef.items())
        if ca > 0 > cb and ca == -cb and _is_pow2(ca):
            return False, (va, vb, -1), weight, rhs / ca, float(ca)
        if cb > 0 > ca and cb == -ca and _is_pow2(cb):
            return False, (vb, va, -1), weight, rhs / cb, float(cb)
        return None
    if len(coef) == 3 and rhs == 0.0:
        pos = sorted((v, c) for v, c in coef.items() if c > 0)
        neg = [(v, c) for v, c in coef.items() if c < 0]
        if len(pos) == 2 and len(neg) == 1:
            (vi, ci), (vj, cj) = pos
            (vk, ck) = neg[0]
            if ci == cj and ck == -2 * ci and _is_pow2(ci):
                return True, (vi, vj, vk), weight, 0.0, float(ci)
    return None


class AuxRecord(NamedTuple):
    """One auxiliary variable of ``loop_gz2_to_da``: ``new_var`` replaces
    the pair ``pair`` of row ``source_row``, whose coefficients of sign
    ``sign`` both have bit ``bit`` set."""

    new_var: int
    pair: tuple[int, int]
    sign: int
    bit: int
    source_row: int


def loop_gz2_to_da(sys: GeneralSystem, alpha: float = 1.0):
    """``da_reduce.gz2_to_da`` as a per-row Python loop over coefficient
    dicts, the oracle for its array rounds.  Returns (system, rhs, aux
    records in id order).

    Row by row, and per sign (negative first), the variables whose current
    coefficient has bit r set are paired in ascending index order and each
    pair is replaced by a fresh variable, r = 0, 1, ..., until one variable
    of that sign is left.  The class check is the caller's.
    """
    n = sys.A.n_cols
    row_data: list[dict[int, int]] = [dict() for _ in range(sys.A.n_rows)]
    for r, c, v in zip(sys.A.rows, sys.A.cols, sys.A.vals):
        row_data[int(r)][int(c)] = int(v)

    main_rows: list[tuple] = []
    aux_rows: list[tuple] = []
    aux_records: list[AuxRecord] = []
    next_var = n
    for i, coef in enumerate(row_data):
        rhs = float(sys.b[i])
        canonical = _classify_scaled_da(coef, rhs, alpha / (alpha + 1.0))
        if canonical is not None:
            main_rows.append(canonical)
            continue

        work = dict(coef)
        first_aux = len(aux_records)
        for s in (-1, 1):
            r = 0
            while sum(1 for c in work.values() if c * s > 0) > 1:
                odd = sorted(v for v, c in work.items()
                             if c * s > 0 and (abs(c) >> r) & 1)
                if len(odd) % 2 != 0:
                    raise MatrixClassError(
                        f"row {i}: odd-cardinality bit set; input is not in class G_z2")
                for a, bvar in zip(odd[0::2], odd[1::2]):
                    t = next_var
                    next_var += 1
                    step = s * (1 << r)
                    for v in (a, bvar):
                        work[v] -= step
                        if work[v] == 0:
                            del work[v]
                    work[t] = work.get(t, 0) + 2 * step
                    aux_records.append(AuxRecord(t, (a, bvar), s, r, i))
                r += 1
                if r > 64:
                    raise MatrixClassError(f"row {i}: pairing did not terminate")

        items = sorted(work.items())
        if len(items) != 2:
            raise MatrixClassError(f"row {i}: reduction did not reach a difference")
        (va, ca), (vb, cb) = items
        if ca < 0 < cb:
            (va, ca), (vb, cb) = (vb, cb), (va, ca)
        if ca != -cb or not _is_pow2(ca):
            raise MatrixClassError(f"row {i}: terminal row is not a scaled difference")
        scale = float(ca)
        main_rows.append((False, (va, vb, -1), 1.0, rhs / scale, scale))
        here = aux_records[first_aux:]
        aux_rows.extend((True, (*rec.pair, rec.new_var), alpha * len(here), 0.0,
                         float(1 << rec.bit)) for rec in here)

    columns = zip(*main_rows, *aux_rows) if main_rows or aux_rows else ((),) * 5
    system = WeightedDASystem(next_var, *columns, len(main_rows), len(aux_rows))
    return system, system.rhs_vector(), tuple(aux_records)


def group_indicator(problem) -> np.ndarray:
    """Dense t x n matrix mapping variable values to group-constant flows."""
    H = np.zeros((problem.n_triangles, problem.n_vars))
    for t, g in enumerate(problem.K.tri_group):
        H[t, g] = 1.0
    return H


class Tubes(NamedTuple):
    """The tubes of a built problem, one entry each: the equation, variable
    and copy it encodes, its sign, and in ``cols`` (n, 3) the triangle
    column carrying each of the three loop slots."""

    q: np.ndarray
    var: np.ndarray
    copy: np.ndarray
    sign: np.ndarray
    cols: np.ndarray


def tube_refs(problem) -> Tubes:
    """The tubes of ``problem``, read off its d2 and triangle groups rather
    than the library's layout rules.

    Loop edge r of equation q bounds the slot-r triangle of each of q's
    tubes, with d2 entry +1 on a tube of sign + and -1 on one of sign -.
    Each tube's triangles are a block of its variable's group, so q's
    slot-r columns, in the sorted order of d2's canonical CSR rows, list
    its tubes in one order for every slot, and the two copies of an average
    row's k come in copy order.  The tubes are returned by slot-1 column,
    the order of the variables' attachments.
    """
    csr, K = problem.d2.to_csr(), problem.K
    tubes = []
    for q, loop in enumerate(K.loops):
        row = [slice(csr.indptr[e], csr.indptr[e + 1]) for e in loop]
        cols = np.stack([csr.indices[r] for r in row], axis=1)
        seen = Counter()
        for c, sign in zip(cols.tolist(), csr.data[row[0]].tolist()):
            var = int(K.tri_group[c[0]])
            seen[var] += 1
            tubes.append((q, var, seen[var], int(sign), *c))
    t = np.array(tubes, dtype=np.int64).reshape(-1, 7)
    t = t[np.argsort(t[:, 4], kind="stable")]
    return Tubes(t[:, 0], t[:, 1], t[:, 2], t[:, 3], t[:, 4:])


def bfs_edge_weights(problem, alpha: float):
    """The edge weights of ``b2_reduce.compute_edge_weights`` from a global
    breadth-first search instead of the cell templates.

    One ``breadth_first_order`` from a virtual node joined to every central
    triangle, over the interior-edge adjacency read off ``d2``, with the
    demand-carrying triangles as targets that are never passed through; each
    path is walked up the tree one level at a time.  Returns (l_q,
    path_tube, path_edge, weights), the path entries level by level.
    """
    K = problem.K
    t, m = K.n_triangles, K.n_edges
    adj = triangle_adjacency(problem.d2, K.kind)
    tubes = tube_refs(problem)
    roots = np.unique(problem.central)

    no_transit = np.isin(np.arange(t), tubes.cols) & ~np.isin(np.arange(t), roots)
    degree = np.diff(adj.indptr)
    out_degree = np.where(no_transit, 0, degree)
    indptr = np.concatenate(([0], np.cumsum(out_degree), [out_degree.sum() + roots.size]))
    indices = np.concatenate((adj.indices[np.repeat(~no_transit, degree)], roots))
    graph = sp.csr_matrix((np.ones(indices.size), indices, indptr), shape=(t + 1, t + 1))
    _, pred = breadth_first_order(graph, t, directed=True, return_predecessors=True)
    parent = pred[:t].astype(np.int64)
    targets = tubes.cols[:, 0]
    if not np.all(parent[targets] >= 0):  # a check that -O keeps
        raise AssertionError("a slot-1 triangle is unreachable")

    # the tree edge into each node: the first (lowest-id) interior edge it
    # shares with its parent, found among the sorted (row, column) entries
    child = np.flatnonzero((parent >= 0) & (parent < t))
    entry_keys = np.repeat(np.arange(t), degree) * t + adj.indices
    parent_edge = np.full(t, -1, dtype=np.int64)
    parent_edge[child] = adj.data[np.searchsorted(entry_keys, parent[child] * t + child)]

    walked = [np.zeros((2, 0), dtype=np.int64)]
    active, node = np.arange(targets.size), targets
    while active.size:
        edge = parent_edge[node]
        up = edge >= 0
        active, node = active[up], parent[node[up]]
        walked.append(np.stack([active, edge[up]]))
    path_tube, path_edge = np.concatenate(walked, axis=1)
    q_of = tubes.q[path_tube]

    l_q = np.bincount(q_of, minlength=problem.n_equations).astype(np.float64)
    mass = np.bincount(path_edge, weights=l_q[q_of], minlength=m)
    weights = np.ones(m)
    weights[K.loops] = problem.weights[K.loops[:, :1]]
    interior = K.kind == INTERIOR
    weights[interior] = alpha * mass[interior]
    return l_q, path_tube, path_edge, weights


# -- the listed paths of a PathWeights --------------------------------------------

def _tube_paths(closed_form) -> tuple[np.ndarray, np.ndarray]:
    """The (path_tube, path_edge) arrays of a ``PathWeights``' closed form,
    one entry per edge of every path, each path from its boundary triangle
    up: the connecting edge, the hole side, then the sphere edges
    k = count - 1 .. 0.  Entry i says that tube path_tube[i]'s path crosses
    edge path_edge[i]."""
    length = closed_form.count + 2
    end = np.cumsum(length)
    first = end - length
    k = np.repeat(end - 1, length) - np.arange(length.sum())
    path_edge = (np.repeat(closed_form.start, length) + np.repeat(closed_form.step, length) * k
                 + np.repeat(closed_form.even, length) * (1 - (k & 1)))
    path_edge[first] = closed_form.connecting
    path_edge[first + 1] = closed_form.hole
    return np.repeat(np.arange(length.size), length), path_edge


def path_tube(pw) -> np.ndarray:
    return _tube_paths(pw.closed_form)[0]


def path_edge(pw) -> np.ndarray:
    return _tube_paths(pw.closed_form)[1]


def paths(pw, tubes: Tubes) -> dict[tuple[int, int, int], tuple[int, ...]]:
    """Edge ids of each path, from the central triangle outward, keyed by
    the tube's (equation, variable, copy) in ``tubes`` (``tube_refs``)."""
    tube, edge = _tube_paths(pw.closed_form)
    upward = edge[np.argsort(tube, kind="stable")]
    ends = np.cumsum(np.bincount(tube, minlength=tubes.q.size))
    keys = zip(tubes.q.tolist(), tubes.var.tolist(), tubes.copy.tolist())
    return {key: tuple(reversed(part.tolist()))
            for key, part in zip(keys, np.split(upward, ends[:-1]))}


def k_qe(pw, tubes: Tubes) -> dict[tuple[int, int], int]:
    """Number of equation-q paths through edge e, keyed (q, e), for the
    tubes ``tubes`` (``tube_refs``)."""
    tube, edge = _tube_paths(pw.closed_form)
    return dict(Counter(zip(tubes.q[tube].tolist(), edge.tolist())))
