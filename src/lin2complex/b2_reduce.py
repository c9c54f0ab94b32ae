"""Encode difference-average systems as boundary-operator problems on 2-complexes.

Each variable becomes a punctured sphere whose triangles are forced to share
one flow value; each equation becomes a demand-carrying loop joined to the
relevant spheres by oriented tubes whose traversal direction encodes the
coefficient sign.  The module also computes the general-case interior edge
weights from shortest triangle paths, maps flows back to variable values,
and certifies the operator in integer arithmetic without forming it
densely: a norm product bounds its largest eigenvalue, and an identity with
the source pattern proves that the two have one nullity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .complex2 import (
    INTERIOR,
    LOOP,
    Complex2,
    ComplexStructureError,
    sphere_cells,
    tube_cells,
)
from .da_reduce import WeightedDASystem
from .sparse_core import (
    DimensionError,
    SparseMatrix,
    norm_product,
)


class ReductionError(ValueError):
    """The difference-average input cannot be encoded."""


@dataclass
class BoundaryProblem:
    """A boundary-operator least-squares problem with provenance.

    ``gamma`` puts each equation's right-hand side on its three loop edges
    and zero elsewhere; ``weights`` is the diagonal of W (all ones for the
    unit construction until the general-case weights are computed).  The
    central triangles and each equation's right-hand side are read off
    ``K`` and ``gamma``, and the tubes off ``da`` (``_attachments``), so
    each is stored once.  ``K`` is laid out as ``build_boundary_problem``
    lays it out for ``da`` (``check_layout``).
    """

    K: Complex2
    d2: SparseMatrix
    gamma: np.ndarray
    weights: np.ndarray
    da: WeightedDASystem

    @property
    def central(self) -> np.ndarray:
        """Each variable's central triangle, the first of its group: the
        groups are sorted and none is empty."""
        return np.searchsorted(self.K.tri_group, np.arange(self.n_vars))

    @property
    def equation_rhs(self) -> np.ndarray:
        """Each equation's normalized right-hand side, from its first loop edge."""
        return self.gamma[self.K.loops[:, 0]]

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

    def pattern_matrix(self) -> SparseMatrix:
        return self.da.pattern_matrix()

    def weighted_matrix(self) -> SparseMatrix:
        return self.d2.row_scaled(np.sqrt(self.weights))

    def weighted_rhs(self) -> np.ndarray:
        return np.sqrt(self.weights) * self.gamma


def _attachments(sys: WeightedDASystem) -> np.ndarray:
    """Tube attachments (var, q, copy, sign), one row each, grouped by
    variable and in equation order within a variable: i and j of a
    difference row with signs +1 and -1; i and j of an average row with +1,
    then two copies of its k with -1."""
    d = sys.n_rows
    sign = np.where(sys.average[:, None], (1, 1, -1, -1), (1, -1, 0, 0))
    used = sign != 0
    attach = np.stack([sys.var[:, [0, 1, 2, 2]][used], np.nonzero(used)[0],
                       np.broadcast_to((1, 1, 1, 2), (d, 4))[used], sign[used]], axis=1)
    return attach[np.argsort(attach[:, 0], kind="stable")]


@functools.cache
def _tube_template(sign: int):
    """One tube as indices into its corner row (three hole vertices, then
    the three loop vertices); cached per sign, as read-only arrays.

    Returns its six triangles; its six connecting edges as (loop corner,
    hole corner) pairs sorted by loop corner, then hole corner; the
    boundary triangle of each loop slot; and each triangle's sides
    (``tri``, ``roll(tri, -1)``) as indices into the tube's twelve edges:
    the hole sides (0, 1), (1, 2), (2, 0), the loop slots (3, 4), (4, 5),
    (5, 3), then the connecting edges.  Every loop vertex is below every
    hole vertex and each cycle ascends, so the connecting edges are also
    in the order of their vertex pairs.
    """
    tris, by_slot = tube_cells((0, 1, 2), (3, 4, 5), sign)
    tris = np.array(tris)
    lo = np.minimum(tris, np.roll(tris, -1, axis=1))
    hi = np.maximum(tris, np.roll(tris, -1, axis=1))
    connecting = np.unique(np.stack([hi, lo], axis=2)[(lo < 3) & (hi >= 3)], axis=0)
    edges = np.concatenate([[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
                            connecting[:, ::-1]])
    sides = np.argmax((edges[:, 0] == lo[..., None]) & (edges[:, 1] == hi[..., None]), axis=2)
    arrays = tris, connecting, np.array([by_slot[r] for r in (1, 2, 3)]), sides
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _by_variable(sphere_rows, sphere_var, tube_rows, tube_var):
    """Sphere and tube rows regrouped variable by variable, each variable's
    sphere rows first; returns the rows, their variables and the new
    position of every input row."""
    var = np.concatenate([sphere_var, tube_var])
    order = np.argsort(var, kind="stable")
    at = np.empty_like(order)
    at[order] = np.arange(order.size)
    return np.concatenate([sphere_rows, tube_rows])[order], var[order], at


def check_layout(sys: WeightedDASystem, K: Complex2) -> None:
    """Raise ``ComplexStructureError`` unless ``K`` has the triangle groups
    and loops that ``build_boundary_problem`` lays out for ``sys``: a
    variable with h attachments owns 11h - 4 consecutive triangles (its
    sphere of 5h - 4, then six per tube), so no group is empty, and every
    equation one row of loops."""
    n_attach = np.bincount(_attachments(sys)[:, 0], minlength=sys.n_vars)
    sizes = np.bincount(K.tri_group, minlength=sys.n_vars)
    if (sizes.size != sys.n_vars or np.any(sizes != 11 * n_attach - 4)
            or np.any(np.diff(K.tri_group) < 0) or len(K.loops) != sys.n_rows):
        raise ComplexStructureError("the complex does not encode the difference-average "
                                    "system of its problem")


def _sphere_edges(cycles: np.ndarray, n_vert: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted edges of the sphere triangles and hole cycles ``cycles``,
    and the edge of each of their sides, (len(cycles), 3).

    The spheres own disjoint ascending vertex ranges, so one sort of the
    sides' keys lists every sphere's edges sorted, sphere after sphere, and
    a side's edge is the number of distinct keys below it (a sort, not
    np.unique, whose hash table is several times slower here)."""
    u, v = cycles, np.roll(cycles, -1, axis=1)
    keys = (np.minimum(u, v) * n_vert + np.maximum(u, v)).ravel()
    order = np.argsort(keys)
    new = np.diff(keys[order], prepend=-1) != 0
    side = np.empty_like(order)
    side[order] = np.cumsum(new) - 1
    return np.stack(np.divmod(keys[order][new], n_vert), axis=1), side.reshape(-1, 3)


def build_boundary_problem(sys: WeightedDASystem, b=None) -> BoundaryProblem:
    """Construct the 2-complex encoding of a difference-average system.

    ``b`` optionally overrides the per-equation right-hand sides (in the
    canonical, scale-normalized convention).  Average equations must have a
    zero right-hand side.  Non-unit row weights and scales are carried onto
    the three loop edges of the corresponding equation as the base edge
    weight weight * scale^2, with gamma holding the normalized right-hand
    side; the unit case reproduces the all-ones feasible construction.

    Cells are laid out as the three loop edges of every equation, then per
    variable its sphere (triangles, then edges sorted by endpoints) followed
    by one tube per attachment (six triangles, six connecting edges sorted
    by endpoints).  Everything is built in whole-array passes over the
    system's columns: one ``sphere_cells`` call lays out every variable's
    sphere and holes in closed form, one sort of the sphere sides gives
    their sorted edges, and each tube is one of two fixed templates (by
    sign) indexed by its corners.  d2 comes from the same layout, three
    entries a triangle: a sphere side's edge is its key's rank in that
    sort, and a tube side's edge is fixed by the template.  No edge is
    looked up in the finished complex; ``d2`` equals ``boundary2(K)``.
    """
    d = sys.n_rows
    if b is None:
        b_norm = sys.rhs.copy()
    else:
        b_norm = np.asarray(b, dtype=np.float64).ravel()
        if b_norm.size != d:
            raise DimensionError(f"expected {d} right-hand sides, got {b_norm.size}")
    q_bad = np.flatnonzero(sys.average & (b_norm != 0.0))
    if q_bad.size:
        raise ReductionError(f"average equation {q_bad[0]} has nonzero right-hand side")

    attach = _attachments(sys)
    holes_of = np.bincount(attach[:, 0], minlength=sys.n_vars)
    if not holes_of.all():
        raise ReductionError(f"variable {int(np.argmin(holes_of))} appears in no equation")
    n_sphere_vertices, sphere_tri, holes = sphere_cells(holes_of)
    n_vert = 3 * d + n_sphere_vertices
    sphere_tri, holes = sphere_tri + 3 * d, holes + 3 * d
    # the hole sides are sphere sides too; the sort's arrays go before d2
    # is built, where the build peaks
    sphere_edge, side = _sphere_edges(np.concatenate([sphere_tri, holes]), n_vert)

    # linear in nnz by construction: with a difference rows, b average rows and
    # n variables, the H = 2a + 4b tubes make 3d + 3H vertices, 11H - 4n triangles
    # and 3d + 15H - 6n edges, at most 22 and 33 times the nnz 2a + 3b of the pattern
    loop_vertices = np.arange(3 * d).reshape(d, 3)
    var, q, _, sign = attach.T
    corners = np.concatenate([holes, loop_vertices[q]], axis=1)
    del holes
    (tris_p, conn_p, _, sides_p), (tris_n, conn_n, _, sides_n) = (_tube_template(1),
                                                                 _tube_template(-1))
    positive = (sign > 0)[:, None, None]
    n_tri = 5 * holes_of - 4
    n_sphere_tri, n_sphere_edge = len(sphere_tri), len(sphere_edge)
    tri, tri_group, tri_at = _by_variable(
        sphere_tri, np.repeat(np.arange(sys.n_vars), n_tri),
        np.where(positive, corners[:, tris_p], corners[:, tris_n]).reshape(-1, 3),
        np.repeat(var, 6))
    del sphere_tri
    edge, _, edge_at = _by_variable(
        sphere_edge, np.repeat(np.arange(sys.n_vars), 9 * holes_of - 6),
        np.where(positive, corners[:, conn_p], corners[:, conn_n]).reshape(-1, 2),
        np.repeat(var, 6))
    del sphere_edge, corners
    n_interior = len(edge)
    loop_edges = np.stack([loop_vertices, np.roll(loop_vertices, -1, axis=1)], axis=2)
    K = Complex2(
        n_vert, tri, tri_group, np.concatenate([loop_edges.reshape(-1, 2), edge]),
        np.concatenate([np.full(3 * d, LOOP), np.full(n_interior, INTERIOR)]),
        loops=np.arange(3 * d).reshape(d, 3),
    )
    del edge

    # d2 as a CSC, three entries a column: the edge of every triangle side,
    # in the triangles' input order, moved to their columns.  A tube's
    # twelve edges are listed in its template's order: hole sides, loop
    # slots, connecting edges.  Each array goes once it is used: the build
    # peaks here
    edge_id = 3 * d + edge_at
    del edge_at
    tube_edge = np.concatenate([edge_id[side[n_sphere_tri:]], 3 * q[:, None] + (0, 1, 2),
                                edge_id[n_sphere_edge:].reshape(-1, 6)], axis=1)
    eid = np.empty((K.n_triangles, 3), dtype=np.int64)
    eid[tri_at] = np.concatenate([
        edge_id[side[:n_sphere_tri]],
        np.where(positive, tube_edge[:, sides_p], tube_edge[:, sides_n]).reshape(-1, 3)])
    del tri_at, tube_edge, side, edge_id
    d2 = SparseMatrix.from_columns(K.n_edges, eid, np.where(K.edge[eid, 0] == K.tri, 1.0, -1.0))

    loop_weight = sys.weight * sys.scale ** 2
    gamma = np.concatenate([np.repeat(b_norm, 3), np.zeros(n_interior)])
    weights = np.concatenate([np.repeat(loop_weight, 3), np.ones(n_interior)])
    return BoundaryProblem(K=K, d2=d2, gamma=gamma, weights=weights, da=sys)


def reduce_da_to_b2(sys: WeightedDASystem, b) -> BoundaryProblem:
    """Unit-weight encoding; the edge weights of the result are all ones."""
    if not sys.is_unit():
        raise ReductionError("reduce_da_to_b2 expects unit weights and scales")
    return build_boundary_problem(sys, b)


def map_soln_b2_to_da(problem: BoundaryProblem, f) -> np.ndarray:
    """Read one variable value off each sphere's central triangle.

    Returns the zero vector when the normal equations have a zero right-hand
    side (A^T c = 0), in which case zero is optimal.
    """
    f = np.asarray(f, dtype=np.float64).ravel()
    sys = problem.da
    factors = sys.row_factors()
    c = factors * problem.equation_rhs
    # A^T c for A = diag(factors) P: scaling by the pattern's 1, -1 and -2
    # is exact, so this is A^T c bit for bit
    atb = sys.pattern_rmatvec(factors * c)
    scale = max(1.0, float(np.max(np.abs(c))) if c.size else 0.0)
    if np.all(np.abs(atb) <= 1e-12 * scale):
        return np.zeros(sys.n_vars)
    return f[problem.central]


class _Paths(NamedTuple):
    """Each tube's path in closed form, by global edge ids: from the central
    triangle it crosses the sphere edges ``start + step k + even [k even]``
    for k < ``count``, then the hole side ``hole`` into the tube and the
    edge ``connecting`` into the slot-1 boundary triangle."""

    count: np.ndarray
    start: np.ndarray
    step: np.ndarray
    even: np.ndarray
    hole: np.ndarray
    connecting: np.ndarray


class PathWeights(NamedTuple):
    """Shortest triangle paths from each central triangle to the slot-1
    boundary triangles: ``l_q``, the total length of each equation's paths,
    and each tube's path in closed form (``closed_form``, one entry a tube,
    in the order of ``_attachments``).  Listed edge by edge, the paths hold
    Θ(sum h^2) entries over spheres of h holes, and no weight needs them."""

    l_q: np.ndarray
    closed_form: _Paths


@functools.cache
def _into_slot1(sign: int) -> np.ndarray:
    """For each hole side of a tube of the given sign (0: (w1, w2), 1:
    (w2, w3), 2: (w1, w3)), the connecting edge (0..5, as ``_tube_template``
    orders them) that the outer triangle on that side shares with the
    slot-1 boundary triangle, -1 where the two do not meet; cached per
    sign, read-only."""
    _, _, slots, sides = _tube_template(sign)
    into = np.full(3, -1)
    for tri_sides in sides:
        hole, shared = tri_sides[tri_sides < 3], np.intersect1d(tri_sides, sides[slots[0]])
        if hole.size and shared.size:
            into[hole[0]] = shared[0] - 6
    into.setflags(write=False)
    return into


# The cases of ``_sphere_paths``.  Row i holds the (count, start, step,
# even, hole, side) of case i as constant + h * (...) + rank * (...).
_Z = (0, 0, 0, 0, 0, 0)
_SPHERE_PATHS = np.array([
    # one hole: the central triangle (0, 1, 2) has the hole side (0, 2)
    [(0, 0, 0, 0, 1, 2), _Z, _Z],
    # two holes, central triangle (0, 1, 3): hole 0 for sign +, then -;
    # hole 1 for sign +, then -
    [(0, 0, 0, 0, 0, 0), _Z, _Z],
    [(2, 2, 1, 0, 1, 2), _Z, _Z],
    [(1, 2, 0, 0, 9, 0), _Z, _Z],
    [(1, 5, 0, 0, 10, 2), _Z, _Z],
    # three or more holes, central triangle (1, 2, 5): hole 0 for sign +
    # past (2, 5) and (2, 4), then for sign - over (1, 2)
    [(2, 0, -1, 0, 1, 2), (0, 4, 0, 0, 0, 0), _Z],
    [(0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 2, 0), _Z],
    # hole s >= 1 for either sign: the fan around vertex 1, then (3s, 3s + 2)
    [(-1, 0, 1, 2, -3, 2), (0, 2, 0, 0, 4, 0), (2, 0, 0, 0, 5, 0)],
])
_SPHERE_PATHS.setflags(write=False)


def _sphere_paths(h: np.ndarray, rank: np.ndarray, positive: np.ndarray):
    """Shortest paths across spheres, in closed form, one per tube.

    A tube of sign ``positive`` on hole ``rank`` of a sphere with ``h``
    holes (``sphere_cells``) is entered over one side of that hole.  Its
    path leaves the sphere's central (first) triangle, crosses ``count``
    sphere edges, ``start + step k + even [k even]`` for k = 0, 1, ...,
    and then the hole side ``side`` (0: (w1, w2), 1: (w2, w3), 2: (w1, w3)
    of the hole cycle), whose edge is ``hole``.  Returns each tube's case,
    its row of ``_SPHERE_PATHS``, and the (6, n) array whose rows are
    count, start, step, even, hole and side.

    Edge ids are local: the sphere's edges sorted by vertex pair.  For
    h >= 3 vertex 0 has 2h neighbours above it, so (1, 2) is edge 2h,
    (1, 3s) is 2h + 2s - 1 and (1, 3s + 2) is 2h + 2s for s = 1..h-1;
    (2, 4) and (2, 5) follow at 4h - 1 and 4h, then five edges for each
    hole s >= 1, of which (3s, 3s + 2) is the second, at 4h + 5s - 3.
    The central triangle (1, 2, 5) reaches hole s >= 1 down the fan (1, 5),
    (1, 3), (1, 8), (1, 6), ..., (1, 3s + 2) around vertex 1 and then
    crosses (3s, 3s + 2).  Hole 0 is reached over the central triangle's
    own side (1, 2), or over (0, 2) past (2, 5) and (2, 4).  With one or
    two holes the central triangle is (0, 1, 2) or (0, 1, 3), and the
    paths are listed one by one.  Each case is a row of ``_SPHERE_PATHS``.

    These are the paths of a breadth-first search from the central
    triangle that visits neighbours in ascending column order and never
    passes through a demand-carrying triangle; the tests check the two
    against each other.
    """
    negative = (~positive).astype(np.int64)
    case = np.where(h == 1, 0, np.where(h == 2, 1 + 2 * (rank > 0) + negative,
                                        np.where(rank == 0, 5 + negative, 7)))
    # field by field, adding the h and rank terms only to the fields that
    # have them: one (n, 3, 6) gather and its strided sums took twice as long
    const, per_h, per_rank = _SPHERE_PATHS.transpose(1, 2, 0)
    fields = const[:, case]
    for coef, x in ((per_h, h), (per_rank, rank)):
        for f in np.flatnonzero(coef.any(axis=1)):
            fields[f] += coef[f, case] * x
    return case, fields


def compute_edge_weights(problem: BoundaryProblem, alpha: float):
    """General-case edge weights from shortest triangle paths.

    Each tube gets one minimal path from its group's central triangle to
    its slot-1 boundary triangle: the path of a breadth-first search that
    visits neighbours in ascending column order.  Demand-carrying triangles
    are targets, never transit nodes: paths that cut through them would pin
    weight onto the edges of the slot-2/3 boundary triangles, whose freedom
    is exactly what makes the weighted minimum match the source system's
    minimum.  k_{q,e} counts the equation-q paths through edge e and l_q is
    the total length of equation q's paths; interior edges get weight
    alpha * sum_q k_{q,e} l_q (zero allowed) while loop edges get their
    equation's base weight weight * scale^2, as the build writes it.

    The paths are laid out from the cell templates, not searched for.  In
    edge ids local to its group a path depends only on the variable's hole
    count, the tube's rank among the variable's attachments and its sign:
    it crosses the sphere (``_sphere_paths``), a hole side into the tube,
    and the connecting edge into the slot-1 triangle (``_into_slot1``).  So
    ``problem`` must be laid out as ``build_boundary_problem`` lays it out
    for ``problem.da``, whose attachments (``_attachments``) give every
    tube's equation, variable, sign and rank, and every variable's hole
    count; the complex's triangle groups are not read.

    No path is listed.  The paths on one sphere in one ``_SPHERE_PATHS``
    case, a family, share start, step and even, so they share their k-th
    sphere edge, and that edge's mass is the l_q of the family's paths with
    count > k: a suffix sum, from a difference array of +l_q at k = 0 and
    -l_q at count.  The hole side and the connecting edge add two entries
    a path.  Every summand is an integer far below 2^53, so the float sums
    are exact in any order, and the weights are those of the listed paths
    bit for bit.  A family has as many slots as its longest path crosses
    sphere edges, at most 2h - 3 on a sphere of h holes, so time and memory
    are linear in the number of tubes and edges, O(t).  An equation has at
    most four tubes, so k_{q,e} <= 4 holds by construction and is not
    checked.  Returns (PathWeights, weight vector); the PathWeights holds
    the paths in closed form only.  Raises ``ReductionError``,
    naming alpha, when a weight is not finite: alpha times a mass can
    overflow float64, and ``ComplexStructureError`` when the complex has
    other than its layout's edge count, which every path id assumes.
    """
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    K, d = problem.K, problem.n_equations
    var, q, _, sign = _attachments(problem.da).T
    holes = np.bincount(var, minlength=problem.n_vars)
    n_edges = 15 * holes - 6
    edge0 = 3 * d + np.cumsum(n_edges) - n_edges
    if K.n_edges != 3 * d + n_edges.sum():
        raise ComplexStructureError(f"the complex has {K.n_edges} edges, not the "
                                    f"{3 * d + n_edges.sum()} of its layout")

    positive, h = sign > 0, holes[var]
    rank = np.arange(var.size) - (np.cumsum(holes) - holes)[var]
    case, (count, start, step, even, hole, side) = _sphere_paths(h, rank, positive)
    connecting = 9 * h - 6 + 6 * rank + np.where(positive, _into_slot1(1)[side],
                                                 _into_slot1(-1)[side])
    base = edge0[var]
    paths = _Paths(count, base + start, step, even, base + hole, base + connecting)
    l_q = np.bincount(q, weights=count + 2, minlength=d)

    # an edge carries at most four of an equation's paths: a path crosses
    # an edge at most once, and ``_attachments`` gives an equation two or
    # four tubes

    # a family is keyed (variable, case), and its slots are k = 0 .. count
    # of its longest path, the one of rank h - 1 where count grows with rank
    family = len(_SPHERE_PATHS) * var + case
    slots = np.zeros(len(_SPHERE_PATHS) * problem.n_vars, dtype=np.int64)
    slots[family] = count + _SPHERE_PATHS[case, 2, 0] * (h - 1 - rank) + 1
    at = np.cumsum(slots) - slots
    w, n = l_q[q], int(slots.sum())
    suffix = np.cumsum(np.bincount(at[family], weights=w, minlength=n)
                       - np.bincount(at[family] + count, weights=w, minlength=n))
    member = np.zeros(slots.size, dtype=np.int64)  # any tube of the family
    member[family] = np.arange(var.size)
    used = np.flatnonzero(slots > 1)
    reach = slots[used] - 1
    k = np.arange(reach.sum()) - np.repeat(np.cumsum(reach) - reach, reach)
    i = np.repeat(member[used], reach)
    sphere_edge = paths.start[i] + paths.step[i] * k + paths.even[i] * (1 - (k & 1))

    # the weight mass of an edge is the total l_q of the boundary triangles
    # whose paths cross it; an interior edge weighs alpha times its mass,
    # a loop edge its equation's base weight, and any other edge 1
    weights = np.bincount(np.concatenate([sphere_edge, paths.hole, paths.connecting]),
                          weights=np.concatenate([suffix[np.repeat(at[used], reach) + k], w, w]),
                          minlength=K.n_edges)
    with np.errstate(over="ignore"):  # an overflow is refused below
        weights *= alpha
    weights[K.kind != INTERIOR] = 1.0
    weights[K.loops] = (problem.da.weight * problem.da.scale ** 2)[:, None]
    if not np.all(np.isfinite(weights)):
        raise ReductionError(f"alpha {alpha:g} makes an edge weight overflow float64")
    return PathWeights(l_q, paths), weights


def reduce_reg(sys: WeightedDASystem, b=None, *, eps_da: float,
               alpha: float | None = None):
    """General-case reduction: weighted boundary problem plus its accuracy.

    ``b`` is passed to ``build_boundary_problem``; alpha defaults to
    2 / eps_da^2.  The returned accuracy is the minimum of
    eps_da / sqrt(3 (1 + ||b||^2 nnz(A) max|A|^2 / alpha)) and eps_da / 10;
    two candidate accuracy formulas exist for this setting; the
    smaller one wins.  The chain no longer calls it (``reduce_chain`` builds
    the problem at its own alpha); the tests of criteria 5-7 still use it,
    and ``bench/tracing.py`` instruments it.
    """
    if not (0.0 < eps_da <= 1.0):
        raise ValueError("eps_da must lie in (0, 1]")
    problem = build_boundary_problem(sys, b)
    if alpha is None:
        alpha = 2.0 / eps_da ** 2
    _, problem.weights = compute_edge_weights(problem, alpha)

    # the pattern's largest entry is the -2 of an average row, or else 1
    max_abs = 2.0 if sys.average.any() else float(sys.n_rows > 0)
    b_norm = float(np.linalg.norm(problem.equation_rhs))
    formula = eps_da / math.sqrt(
        3.0 * (1.0 + b_norm ** 2 * sys.pattern_nnz * max_abs ** 2 / alpha))
    eps_b2 = min(formula, eps_da / 10.0)
    return problem, eps_b2


@dataclass(frozen=True)
class CertificateCheck:
    name: str
    value: float
    bound: float
    ok: bool
    note: str = ""


@dataclass(frozen=True)
class CertificateReport:
    ok: bool
    checks: tuple[CertificateCheck, ...]

    def __getitem__(self, name: str) -> CertificateCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def spectral_certificate(problem: BoundaryProblem) -> CertificateReport:
    """Certify lambda_max(d2^T d2) <= 12 and nullity(d2) = nullity(P), for P
    the source system's pattern, in integer arithmetic and without forming
    d2 densely.

    - lambda_max is the integer ||d2||_1 ||d2||_inf, a proof rather than an
      estimate since ||M||_2^2 <= ||M||_1 ||M||_inf; three nonzeros a
      column and at most four triangles an edge make it 12 at most.
    - The nullity check is an identity.  With H the t x n indicator of the
      triangle groups, every group is nonempty, d2 H is zero outside the
      loop table, and each of equation q's loop edges carries row q of P:
      one sparse product of d2's CSR with H's (t entries), less P placed on
      the loop edges, all small integers, so the float sums are exact.  Given
      ``validate(problem.K).ok`` and ``problem.d2 = boundary2(problem.K)``
      (every interior edge in two triangles of opposite signs, each group
      connected over interior edges), d2 f = 0 makes f = H x, and then
      d2 H x = 0 exactly when P x = 0; H has full column rank (the problem's
      layout, ``check_layout``, gives every variable a nonempty group and
      every equation a row of loops), so ker d2 = H ker P.  Its value is
      the number of entries where the two differ, against a bound of 0.
    """
    K, d2, pattern = problem.K, problem.d2, problem.pattern_matrix()
    t = problem.n_triangles
    H = sp.csr_matrix((np.ones(t), K.tri_group, np.arange(t + 1)), shape=(t, problem.n_vars))
    placed = SparseMatrix.from_arrays(d2.n_rows, problem.n_vars, K.loops[pattern.rows].ravel(),
                                      np.repeat(pattern.cols, 3), np.repeat(pattern.vals, 3))
    rest = SparseMatrix.from_scipy(d2.to_csr() @ H - placed.to_csr())
    mismatch = (f"d2 H minus the loop-placed pattern is {rest.vals[0]:g} at edge "
                f"{rest.rows[0]}, variable {rest.cols[0]}" if rest.nnz else "")
    lam_max = float(norm_product(d2))
    checks = (
        CertificateCheck("lambda_max", lam_max, 12.0, lam_max <= 12.0),
        CertificateCheck("nullity", float(rest.nnz), 0.0, not mismatch,
                         mismatch or "d2 H is the pattern on the loop edges and zero elsewhere"),
    )
    return CertificateReport(all(c.ok for c in checks), checks)
