"""Encode difference-average systems as boundary-operator problems on 2-complexes.

Each variable becomes a punctured sphere whose triangles are forced to share
one flow value; each equation becomes a demand-carrying loop joined to the
relevant spheres by oriented tubes whose traversal direction encodes the
coefficient sign.  The module also computes the general-case interior edge
weights from shortest triangle paths, maps flows back to variable values,
and certifies the spectral bounds of the constructed operator.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .complex2 import (
    Complex2,
    EDGE_INTERIOR,
    EDGE_LOOP,
    EdgeRecord,
    OrientedTriangle,
    boundary2,
    triangle_adjacency,
    tube_cells,
    sphere_cells,
)
from .da_reduce import KIND_AVERAGE, KIND_DIFFERENCE, WeightedDASystem
from .sparse_core import (
    DenseGuardError,
    DimensionError,
    SparseMatrix,
    rank_from_singular_values,
)


class ReductionError(ValueError):
    """The difference-average input cannot be encoded."""


@dataclass(frozen=True)
class TubeRef:
    """Provenance of one tube: which equation/variable/copy it encodes and
    the triangle column carrying each of the three loop edges."""

    q: int
    var: int
    copy: int
    sign: int
    boundary_cols: dict[int, int]


@dataclass
class BoundaryProblem:
    """A boundary-operator least-squares problem with provenance.

    ``gamma`` puts each equation's right-hand side on its three loop edges
    and zero elsewhere; ``weights`` is the diagonal of W (all ones for the
    unit construction until the general-case weights are computed).
    """

    K: Complex2
    d2: SparseMatrix
    gamma: np.ndarray
    weights: np.ndarray
    central: list[int]
    tubes: list[TubeRef]
    equation_rhs: np.ndarray
    loop_weight: np.ndarray
    da: WeightedDASystem
    path_weights: "PathWeights | None" = None

    @property
    def n_vars(self) -> int:
        return self.da.n_vars

    @property
    def n_equations(self) -> int:
        return self.da.n_rows

    @property
    def n_triangles(self) -> int:
        return self.d2.n_cols

    @property
    def n_edges(self) -> int:
        return self.d2.n_rows

    def loop_rows(self, q: int) -> tuple[int, int, int]:
        return self.K.loop_edges[q]

    def pattern_matrix(self) -> SparseMatrix:
        return self.da.pattern_matrix()

    def weighted_matrix(self) -> SparseMatrix:
        return self.d2.row_scaled(np.sqrt(self.weights))

    def weighted_rhs(self) -> np.ndarray:
        return np.sqrt(self.weights) * self.gamma

    def group_sizes(self) -> np.ndarray:
        sizes = np.zeros(self.n_vars, dtype=np.int64)
        for g in self.K.group_of_triangle:
            sizes[g] += 1
        return sizes


def _attachments(sys: WeightedDASystem) -> list[list[tuple[int, int, int]]]:
    """Per variable, the (equation, copy, sign) tube attachments in order."""
    attach: list[list[tuple[int, int, int]]] = [[] for _ in range(sys.n_vars)]
    for q, row in enumerate(sys.rows):
        if row.kind == KIND_DIFFERENCE:
            attach[row.i].append((q, 1, 1))
            attach[row.j].append((q, 1, -1))
        else:
            attach[row.i].append((q, 1, 1))
            attach[row.j].append((q, 1, 1))
            attach[row.k].append((q, 1, -1))
            attach[row.k].append((q, 2, -1))
    return attach


def build_boundary_problem(sys: WeightedDASystem, b=None) -> BoundaryProblem:
    """Construct the 2-complex encoding of a difference-average system.

    ``b`` optionally overrides the per-equation right-hand sides (in the
    canonical, scale-normalized convention).  Average equations must have a
    zero right-hand side.  Non-unit row weights and scales are carried onto
    the three loop edges of the corresponding equation as the base edge
    weight weight * scale^2, with gamma holding the normalized right-hand
    side; the unit case reproduces the all-ones feasible construction.
    """
    d = sys.n_rows
    if b is None:
        b_norm = np.array([row.rhs for row in sys.rows], dtype=np.float64)
    else:
        b_norm = np.asarray(b, dtype=np.float64).ravel()
        if b_norm.size != d:
            raise DimensionError(f"expected {d} right-hand sides, got {b_norm.size}")
    for q, row in enumerate(sys.rows):
        if row.kind == KIND_AVERAGE and b_norm[q] != 0.0:
            raise ReductionError(f"average equation {q} has nonzero right-hand side")

    attach = _attachments(sys)
    for i, lst in enumerate(attach):
        if not lst:
            raise ReductionError(f"variable {i} appears in no equation")

    nnz_pattern = sum(len(r.pattern_entries()) for r in sys.rows)
    ops = 0

    n_vert = 0
    edge_records: list[EdgeRecord] = []
    loop_edge_ids: dict[int, tuple[int, int, int]] = {}
    loop_vertices: list[tuple[int, int, int]] = []
    for q in range(d):
        u1, u2, u3 = n_vert, n_vert + 1, n_vert + 2
        n_vert += 3
        ids = []
        for r, (ta, he) in enumerate(((u1, u2), (u2, u3), (u3, u1)), start=1):
            ids.append(len(edge_records))
            edge_records.append(EdgeRecord(ta, he, EDGE_LOOP, q=q, r=r))
        loop_edge_ids[q] = tuple(ids)
        loop_vertices.append((u1, u2, u3))
        ops += 6

    triangles: list[OrientedTriangle] = []
    group_of: list[int] = []
    central: list[int] = []
    tubes: list[TubeRef] = []

    for i in range(sys.n_vars):
        n_local, tris_local, holes_local = sphere_cells(len(attach[i]))
        off = n_vert
        n_vert += n_local
        ops += n_local

        sphere_tris = [(a + off, bb + off, c + off) for (a, bb, c) in tris_local]
        holes = [(p + off, qq + off, rr + off) for (p, qq, rr) in holes_local]

        keys: set[tuple[int, int]] = set()
        for (a, bb, c) in sphere_tris:
            for (u, v) in ((a, bb), (bb, c), (c, a)):
                keys.add((min(u, v), max(u, v)))
        for (u, v) in sorted(keys):
            edge_records.append(EdgeRecord(u, v, EDGE_INTERIOR, group=i))
        ops += len(keys)

        central.append(len(triangles))
        for tri in sphere_tris:
            triangles.append(OrientedTriangle(tri))
            group_of.append(i)
        ops += len(sphere_tris)

        for hole, (q, copy, sign) in zip(holes, attach[i]):
            tris_t, connecting, by_slot = tube_cells(hole, loop_vertices[q], sign)
            col0 = len(triangles)
            for tri in tris_t:
                triangles.append(OrientedTriangle(tri))
                group_of.append(i)
            for (u, v) in sorted((min(u, v), max(u, v)) for (u, v) in connecting):
                edge_records.append(EdgeRecord(u, v, EDGE_INTERIOR, group=i))
            tubes.append(TubeRef(q, i, copy, sign,
                                 {r: col0 + by_slot[r] for r in (1, 2, 3)}))
            ops += 12

    # linear-work guard: cell creation must stay proportional to nnz
    if ops > 80 * max(nnz_pattern, 1) + 48:
        raise ReductionError("construction exceeded the linear budget")

    K = Complex2(
        n_vertices=n_vert,
        edges=edge_records,
        triangles=triangles,
        group_of_triangle=group_of,
        central_triangle={i: central[i] for i in range(sys.n_vars)},
        loop_edges=loop_edge_ids,
    )
    d2 = boundary2(K)

    m = K.n_edges
    gamma = np.zeros(m)
    weights = np.ones(m)
    loop_weight = np.empty(d)
    for q, row in enumerate(sys.rows):
        lw = row.weight * row.scale ** 2
        loop_weight[q] = lw
        for eid in loop_edge_ids[q]:
            gamma[eid] = b_norm[q]
            weights[eid] = lw

    return BoundaryProblem(
        K=K, d2=d2, gamma=gamma, weights=weights,
        central=central, tubes=tubes,
        equation_rhs=b_norm, loop_weight=loop_weight, da=sys,
    )


def reduce_da_to_b2(sys: WeightedDASystem, b) -> BoundaryProblem:
    """Unit-weight encoding; the edge weights of the result are all ones."""
    if not sys.is_unit():
        raise ReductionError("reduce_da_to_b2 expects unit weights and scales")
    return build_boundary_problem(sys, b)


def map_soln_b2_to_da(sys: WeightedDASystem, b, f, central) -> np.ndarray:
    """Read one variable value off each sphere's central triangle.

    Returns the zero vector when the normal equations have a zero right-hand
    side (A^T c = 0), in which case zero is optimal.
    """
    f = np.asarray(f, dtype=np.float64).ravel()
    central = list(central)
    if len(central) != sys.n_vars:
        raise DimensionError("central triangle list does not match the variable count")
    b_norm = np.asarray(b, dtype=np.float64).ravel()
    c = np.array([math.sqrt(r.weight) * r.scale for r in sys.rows]) * b_norm
    atb = sys.as_matrix().T.matvec(c)
    scale = max(1.0, float(np.max(np.abs(c))) if c.size else 0.0)
    if np.all(np.abs(atb) <= 1e-12 * scale):
        return np.zeros(sys.n_vars)
    return f[central].copy()


def map_solution(problem: BoundaryProblem, f) -> np.ndarray:
    return map_soln_b2_to_da(problem.da, problem.equation_rhs, f, problem.central)


def epsilon_feasible(eps_da: float, nnz_a: int) -> float:
    """Accuracy to request from the boundary solve in the feasible case."""
    return eps_da / (42.0 * nnz_a)


@dataclass
class PathWeights:
    """Shortest triangle paths from each central triangle to the slot-1
    boundary triangles, and the per-edge path statistics derived from them."""

    alpha: float
    paths: dict[tuple[int, int, int], tuple[int, ...]]
    k_qe: dict[tuple[int, int], int]
    l_q: np.ndarray


def compute_edge_weights(problem: BoundaryProblem, alpha: float,
                         positive_weights: bool = False):
    """General-case edge weights from BFS shortest-path trees.

    Per group a BFS tree rooted at the central triangle (neighbors visited
    in ascending column order) yields one minimal path per slot-1 boundary
    triangle.  Demand-carrying triangles are targets, never transit nodes:
    paths that cut through them would pin weight onto the edges of the
    slot-2/3 boundary triangles, whose freedom is exactly what makes the
    weighted minimum match the source system's minimum.  k_{q,e} counts the
    equation-q paths through edge e and l_q is the total length of equation
    q's paths; interior edges get weight alpha * sum_q k_{q,e} l_q (zero
    allowed, or floored at alpha * 1e-6 when ``positive_weights``) while
    loop edges keep their base weight.

    Returns (PathWeights, weight vector).
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    K = problem.K
    t = K.n_triangles
    adj = triangle_adjacency(K)
    no_transit = {col for tube in problem.tubes for col in tube.boundary_cols.values()}

    parent = np.full(t, -1, dtype=np.int64)
    parent_edge = np.full(t, -1, dtype=np.int64)
    height = np.full(t, -1, dtype=np.int64)
    bfs_order: list[int] = []
    for g in range(problem.n_vars):
        root = problem.central[g]
        height[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            bfs_order.append(u)
            if u in no_transit and u != root:
                continue
            for (v, eid) in adj[u]:
                if height[v] < 0:
                    height[v] = height[u] + 1
                    parent[v] = u
                    parent_edge[v] = eid
                    queue.append(v)

    d = problem.n_equations
    l_q = np.zeros(d)
    targets: list[tuple[int, int, int, int]] = []
    for tube in problem.tubes:
        tri = tube.boundary_cols[1]
        if height[tri] < 0:
            raise ReductionError(
                f"group {tube.var} is disconnected; no path to equation {tube.q}")
        targets.append((tube.q, tube.var, tube.copy, tri))
        l_q[tube.q] += float(height[tri])

    paths: dict[tuple[int, int, int], tuple[int, ...]] = {}
    k_qe: dict[tuple[int, int], int] = {}
    for (q, var, copy, tri) in targets:
        edge_list: list[int] = []
        node = tri
        while parent[node] >= 0:
            edge_list.append(int(parent_edge[node]))
            node = int(parent[node])
        edge_list.reverse()
        paths[(q, var, copy)] = tuple(edge_list)
        for eid in edge_list:
            key = (q, eid)
            k_qe[key] = k_qe.get(key, 0) + 1
            if k_qe[key] > 4:
                raise ReductionError(
                    "an edge cannot carry more than four paths of one equation")

    # bottom-up accumulation: the weight mass of a tree edge is the total
    # l_q of the boundary triangles below it
    node_value = np.zeros(t)
    for (q, _, _, tri) in targets:
        node_value[tri] += l_q[q]
    subtree = node_value.copy()
    for u in reversed(bfs_order):
        p = parent[u]
        if p >= 0:
            subtree[p] += subtree[u]

    weights = np.ones(K.n_edges)
    for q in range(d):
        for eid in problem.loop_rows(q):
            weights[eid] = problem.loop_weight[q]
    interior_mass = np.zeros(K.n_edges)
    for u in range(t):
        eid = parent_edge[u]
        if eid >= 0:
            interior_mass[eid] += subtree[u]
    for eid, rec in enumerate(K.edges):
        if rec.kind == EDGE_INTERIOR:
            w = alpha * interior_mass[eid]
            if positive_weights and w == 0.0:
                w = alpha * 1e-6
            weights[eid] = w

    return PathWeights(alpha, paths, k_qe, l_q), weights


def reduce_reg(sys: WeightedDASystem, b, eps_da: float,
               alpha: float | None = None,
               positive_weights: bool = False):
    """General-case reduction: weighted boundary problem plus its accuracy.

    alpha defaults to 2 / eps_da^2.  The returned accuracy is the minimum of
    eps_da / sqrt(3 (1 + ||b||^2 nnz(A) max|A|^2 / alpha)) and eps_da / 10;
    two candidate accuracy formulas exist for this setting; the
    smaller one wins.
    """
    if not (0.0 < eps_da <= 1.0):
        raise ValueError("eps_da must lie in (0, 1]")
    problem = build_boundary_problem(sys, b)
    if alpha is None:
        alpha = 2.0 / eps_da ** 2
    pw, weights = compute_edge_weights(problem, alpha, positive_weights)
    problem.weights = weights
    problem.path_weights = pw

    pattern = problem.pattern_matrix()
    b_norm = float(np.linalg.norm(problem.equation_rhs))
    formula = eps_da / math.sqrt(
        3.0 * (1.0 + b_norm ** 2 * pattern.nnz * pattern.max_abs() ** 2 / alpha))
    eps_b2 = min(formula, eps_da / 10.0)
    return problem, eps_b2


@dataclass(frozen=True)
class CertificateCheck:
    name: str
    value: float
    bound: float
    ok: bool


@dataclass(frozen=True)
class CertificateReport:
    ok: bool
    checks: tuple[CertificateCheck, ...]

    def __getitem__(self, name: str) -> CertificateCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def spectral_certificate(problem: BoundaryProblem,
                         dense_limit: int = 3000,
                         slack: float = 1e-8) -> CertificateReport:
    """Certify the eigenvalue and null-space bounds of the constructed operator.

    Dense singular values only; checks lambda_max(d2^T d2) <= 12, the
    condition-number bound 1e9 nnz(A)^{9/2} kappa(A)^2, the minimum-
    eigenvalue floor min(lambda_min(A^T A)^2, 1) / (1e16 d^7), and that the
    operator's nullity equals the nullity of the source system.
    """
    if problem.n_triangles > dense_limit:
        raise DenseGuardError(
            f"certificate is dense-only; {problem.n_triangles} triangles exceed "
            f"the limit {dense_limit}")
    pattern = problem.pattern_matrix()

    s2 = np.linalg.svd(problem.d2.to_dense(), compute_uv=False)
    rank2 = rank_from_singular_values(s2, problem.n_edges, problem.n_triangles)
    sa = np.linalg.svd(pattern.to_dense(), compute_uv=False)
    rank_a = rank_from_singular_values(sa, pattern.n_rows, pattern.n_cols)

    lam_max = float(s2[0] ** 2)
    sigma_min2 = float(s2[rank2 - 1]) if rank2 else 0.0
    lam_min = sigma_min2 ** 2
    kappa2 = float(s2[0]) / sigma_min2 if rank2 else math.inf
    kappa_a = float(sa[0] / sa[rank_a - 1]) if rank_a else math.inf
    lam_min_a = float(sa[rank_a - 1] ** 2) if rank_a else 0.0

    d = problem.n_equations
    nnz_a = pattern.nnz
    checks = (
        CertificateCheck("lambda_max", lam_max, 12.0, lam_max <= 12.0 + slack),
        CertificateCheck(
            "condition_number", kappa2, 1e9 * nnz_a ** 4.5 * kappa_a ** 2,
            kappa2 <= 1e9 * nnz_a ** 4.5 * kappa_a ** 2 + slack),
        CertificateCheck(
            "lambda_min", lam_min, min(lam_min_a ** 2, 1.0) / (1e16 * d ** 7),
            lam_min + slack >= min(lam_min_a ** 2, 1.0) / (1e16 * d ** 7)),
        CertificateCheck(
            "nullity", float(problem.n_triangles - rank2),
            float(pattern.n_cols - rank_a),
            problem.n_triangles - rank2 == pattern.n_cols - rank_a),
    )
    return CertificateReport(all(c.ok for c in checks), checks)
