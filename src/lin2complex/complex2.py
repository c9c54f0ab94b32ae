"""Oriented 2-complex data model, sphere and tube cell templates, boundary operators.

The complex is stored purely combinatorially, as integer arrays: oriented
triangles (vertex triples up to even permutation), oriented edges, a
grouping of triangles into per-variable components, and bookkeeping for
demand-carrying loop edges.  The normative orientation property is
combinatorial as well: the two triangles sharing an interior edge must
induce opposite signs on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .sparse_core import SparseMatrix

# the int8 code of an edge kind is its index in EDGE_KINDS
EDGE_KINDS = (EDGE_LOOP, EDGE_INTERIOR, EDGE_BOUNDARY) = ("loop", "interior", "boundary")
LOOP, INTERIOR, BOUNDARY = range(3)


class ComplexStructureError(ValueError):
    """The complex violates a structural invariant."""


@dataclass(frozen=True)
class OrientedTriangle:
    """A 2-simplex given by an ordered vertex triple; even permutations agree."""

    vertices: tuple[int, int, int]


@dataclass(frozen=True)
class EdgeRecord:
    """An oriented edge; ``(tail, head)`` is the stored +1 direction.

    kind is "loop" (demand-carrying, listed in the loop table of one
    equation), "interior" (shared by exactly two triangles of one group), or
    "boundary" (free edge of a standalone patch awaiting gluing).
    """

    tail: int
    head: int
    kind: str


def _column(values, width: int | None = None) -> np.ndarray:
    a = np.asarray(values, dtype=np.int64)
    return a.reshape(-1, width) if width else a.ravel()


class Complex2:
    """An oriented 2-complex as integer arrays.

    ``tri`` (t, 3) vertex triples and ``tri_group`` (t,) their groups;
    ``edge`` (m, 2) stored (tail, head) directions and ``kind`` (m,) int8
    codes into ``EDGE_KINDS``; ``loops`` (d, 3) the loop-edge ids of each
    equation, by slot.
    """

    def __init__(self, n_vertices: int, tri, tri_group, edge, kind, loops=()):
        self.n_vertices = int(n_vertices)
        self.tri = _column(tri, 3)
        self.tri_group = _column(tri_group)
        self.edge = _column(edge, 2)
        self.kind = np.asarray(kind, dtype=np.int8).ravel()
        self.loops = _column(loops, 3)
        self.n_edges, self.n_triangles = int(self.kind.size), len(self.tri)

    @property
    def edges(self) -> tuple[EdgeRecord, ...]:
        """Per-edge records, materialized on every access; for inspection only."""
        return tuple(EdgeRecord(u, v, EDGE_KINDS[k])
                     for (u, v), k in zip(self.edge.tolist(), self.kind.tolist()))

    @property
    def triangles(self) -> tuple[OrientedTriangle, ...]:
        """Per-triangle records, materialized on every access; for inspection only."""
        return tuple(OrientedTriangle(tuple(t)) for t in self.tri.tolist())


def _edge_keys(u, v, base: int) -> np.ndarray:
    return np.minimum(u, v) * base + np.maximum(u, v)


def _lookup(K: Complex2, u, v) -> np.ndarray:
    """Edge id of each undirected pair {u, v}, -1 where the complex has none.

    One sort of the edge keys and one ``searchsorted``; raises on duplicate
    edges.
    """
    base = max(K.n_vertices, int(K.edge.max(initial=-1)) + 1, int(K.tri.max(initial=-1)) + 1)
    keys = _edge_keys(K.edge[:, 0], K.edge[:, 1], base)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    repeat = np.flatnonzero(sorted_keys[1:] == sorted_keys[:-1])
    if repeat.size:
        u0, v0 = sorted(K.edge[int(order[repeat + 1].min())].tolist())
        raise ComplexStructureError(f"duplicate edge {(u0, v0)}")
    want = _edge_keys(u, v, base)
    if not keys.size:
        return np.full(want.shape, -1, dtype=np.int64)
    pos = np.minimum(np.searchsorted(sorted_keys, want), keys.size - 1)
    return np.where(sorted_keys[pos] == want, order[pos], -1)


def _boundary(K: Complex2, u: np.ndarray, eid: np.ndarray) -> SparseMatrix:
    """d2 from the edge ids ``eid`` (t, 3) of the triangle sides that start
    at the vertices ``u``: +1 where a side runs along its edge's stored
    direction, -1 where it runs against it.  ``eid`` is d2's CSC, three
    entries a column, converted to CSR once."""
    return SparseMatrix.from_columns(K.n_edges, eid, np.where(K.edge[eid, 0] == u, 1.0, -1.0))


def _annulus_cells(outer: tuple[int, int, int], inner: tuple[int, int, int]):
    """Six oriented triangles filling the annulus between two 3-cycles.

    The triangles induce the directed cycle a->b->c->a on the outer triple
    and p->q->r->p on the inner triple, and every connecting edge receives
    opposite induced signs from its two triangles.
    """
    a, b, c = outer
    p, q, r = inner
    return [(a, b, p), (b, c, r), (c, a, q), (a, p, q), (p, b, r), (c, q, r)]


# the cells of ``_annulus_cells`` as indices into the corner row (a, b, c, p, q, r)
_ANNULUS = np.array(_annulus_cells((0, 1, 2), (3, 4, 5)))


def sphere_cells(n_holes):
    """Combinatorial cells of spheres with 3-edge boundary cycles, in closed form.

    ``n_holes`` is one hole count or an array of them; the spheres follow
    one another, sphere i on 3 h_i consecutive vertices.  A sphere with h
    holes is the disk (0, 1, 2) with h - 1 annuli (``_annulus_cells``) cut
    into it.  Annulus s has inner cycle (3s, 3s+1, 3s+2) and outer cycle
    (0, 1, 2) for s = 1, and (0, 1, 3(s-1)) after that: the first triangle
    of annulus s-1, which annulus s replaces.  So the sphere keeps annuli
    1..h-2 without their first triangle, then the whole annulus h-1: 5h - 4
    triangles.  Its hole cycles are (3i, 3i+1, 3i+2) for i < h, each
    oriented the way the surrounding triangles traverse it.

    Returns (n_vertices, triangles, hole_cycles), the last two int64 arrays
    of 5h - 4 and h rows per sphere, sphere after sphere.
    """
    h = np.asarray(n_holes, dtype=np.int64).ravel()
    if h.size and h.min() < 1:
        raise ValueError("a sphere needs at least one hole")
    n_tri = 5 * h - 4
    owner = np.repeat(np.arange(h.size), n_tri)
    hh = h[owner]
    j = np.arange(owner.size) - (np.cumsum(n_tri) - n_tri)[owner]
    last = j >= 5 * (hh - 2)
    s = np.where(last, hh - 1, j // 5 + 1)
    cell = np.where(last, j - 5 * (hh - 2), j % 5 + 1)
    corners = np.stack([np.zeros_like(s), np.ones_like(s), np.where(s == 1, 2, 3 * (s - 1)),
                        3 * s, 3 * s + 1, 3 * s + 2], axis=1)
    tri = np.take_along_axis(corners, _ANNULUS[cell], axis=1)
    tri[hh == 1] = (0, 1, 2)
    tri += 3 * (np.cumsum(h) - h)[owner, None]
    holes = 3 * np.arange(int(h.sum()))[:, None] + np.arange(3)
    return 3 * int(h.sum()), tri, holes


def tube_cells(hole_cycle: tuple[int, int, int], loop_cycle: tuple[int, int, int],
               sign: int):
    """Cells of a tube joining a sphere hole to a demand loop.

    ``hole_cycle`` is oriented the way the sphere triangles traverse it; the
    tube triangles traverse it the opposite way, so the glued edges become
    interior edges with opposite induced signs.  ``sign`` +1 makes the tube
    traverse the loop along its orientation, -1 against it.  Returns
    (triangles, boundary_triangle_by_slot) where slot r in {1,2,3} names
    the loop edge (u1,u2), (u2,u3), (u3,u1) and the index of the triangle
    containing it.
    """
    (w1, w2, w3), (u1, u2, u3) = hole_cycle, loop_cycle
    inner = (u1, u2, u3) if sign > 0 else (u1, u3, u2)
    # inner-edge triangles in _annulus_cells order: (a,p,q)=3, (c,q,r)=5, (p,b,r)=4
    by_slot = {1: 3, 2: 5, 3: 4} if sign > 0 else {1: 4, 2: 5, 3: 3}
    return _annulus_cells((w1, w3, w2), inner), by_slot


def boundary2(K: Complex2) -> SparseMatrix:
    """The edge-by-triangle boundary operator of the complex.

    Entry (e, T) is +1 when T's induced direction on e matches the stored
    edge orientation, -1 when reversed, 0 when e is not a side of T; every
    column has exactly three nonzeros.  Raises ``ComplexStructureError``
    with ``validate``'s violation when a side maps to no single edge.
    """
    violation, d2 = _side_matrix(K)
    if violation is not None:
        raise ComplexStructureError(violation)
    return d2


def boundary1(K: Complex2) -> SparseMatrix:
    """The oriented vertex-edge incidence matrix: -1 at the tail, +1 at the
    head; ``K.edge`` is its CSC, two entries a column."""
    return SparseMatrix.from_columns(K.n_vertices, K.edge, (-1.0, 1.0))


def laplacian1(K: Complex2, d2: SparseMatrix | None = None) -> SparseMatrix:
    """First combinatorial Laplacian d1^T d1 + d2 d2^T (symmetric PSD);
    ``d2``, when given, is ``boundary2(K)``."""
    d1 = boundary1(K).to_int_csr()
    d2 = (boundary2(K) if d2 is None else d2).to_int_csr()
    return SparseMatrix.from_scipy(d1.T @ d1 + d2 @ d2.T)


@dataclass(frozen=True)
class ValidationReport:
    """The first violation found, or ok; ``d2`` is ``boundary2(K)`` whenever
    the side pass built it, even when a later check fails."""

    ok: bool
    violation: str | None = None
    d2: SparseMatrix | None = None


def triangle_adjacency(d2: SparseMatrix, kind: np.ndarray) -> sp.csr_matrix:
    """Adjacency over interior edges as a t x t CSR matrix, read off ``d2``
    and the edge kinds.  The library does not call it (``validate`` reads
    its connectivity graph straight off ``d2``); the tests' breadth-first
    weight oracle and the benchmark tracer use it.

    An interior edge with exactly two triangles joins the two columns of its
    row of ``d2``.  Entry (T1, T2) holds the id of an interior edge the two
    triangles share (edge 0 is an explicit zero); column indices are sorted
    in every row.  Triangles sharing several interior edges keep one entry
    per edge, ordered by edge id.
    """
    t, start = d2.n_cols, d2.to_csr().indptr
    e = np.flatnonzero((kind == INTERIOR) & (np.diff(start) == 2))
    a, b = d2.cols[start[e]], d2.cols[start[e] + 1]
    rows, cols, eids = np.concatenate([a, b]), np.concatenate([b, a]), np.tile(e, 2)
    order = np.lexsort((eids, cols, rows))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=t))))
    return sp.csr_matrix((eids[order], cols[order], indptr), shape=(t, t))


def _first(flags: np.ndarray) -> int:
    """Index of the first true flag, -1 when none is set."""
    hits = np.flatnonzero(flags)
    return int(hits[0]) if hits.size else -1


def _unique(keys: np.ndarray) -> np.ndarray:
    """The distinct values of an integer array, ascending, as ``np.unique``
    gives them, from a sort and a neighbour compare: numpy's hash-based
    ``unique`` is several times slower on integer keys."""
    keys = np.sort(keys)
    return keys[np.append(True, keys[1:] != keys[:-1])[:keys.size]]


def _take(a: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """a[ids], with -1 where an id is out of range."""
    return np.append(a, -1)[np.where((ids >= 0) & (ids < a.size), ids, a.size)]


def _side_matrix(K: Complex2) -> tuple[str | None, SparseMatrix | None]:
    """(None, d2) from one lookup of every triangle side, or the first fault
    of the side pass and no d2: a duplicate edge, else the first triangle
    with a repeated vertex, an unknown vertex or a side that is no edge."""
    u, v = K.tri, np.roll(K.tri, -1, axis=1)
    try:
        eid = _lookup(K, u, v)
    except ComplexStructureError as exc:
        return str(exc), None
    repeated = (u == v).any(axis=1)
    unknown = ((u < 0) | (u >= K.n_vertices)).any(axis=1)
    bad = _first(repeated | unknown | (eid < 0).any(axis=1))
    if bad < 0:
        return None, _boundary(K, u, eid)
    if repeated[bad]:
        return f"triangle {bad} has repeated vertices", None
    if unknown[bad]:
        return f"triangle {bad} references an unknown vertex", None
    side = int(np.argmax(eid[bad] < 0))
    edge = tuple(sorted((int(u[bad, side]), int(v[bad, side]))))
    return f"triangle {bad} references missing edge {edge}", None


def _loop_violation(K: Complex2) -> str | None:
    """Every loop-table entry must be a loop edge that the table lists once."""
    m = K.n_edges
    listed = np.bincount(K.loops[(K.loops >= 0) & (K.loops < m)], minlength=m)
    consistent = (_take(K.kind, K.loops) == LOOP) & (_take(listed, K.loops) == 1)
    q = _first(~consistent.all(axis=1))
    return f"loop-edge table of equation {q} is inconsistent" if q >= 0 else None


def _incidence_violation(K: Complex2, d2: SparseMatrix) -> str | None:
    """The triangle count and sign balance of every edge, off the rows of d2."""
    # no triangle has an edge twice without a repeated vertex, so a row of
    # d2 has one entry per incident triangle
    count, sign_sum = np.diff(d2.to_csr().indptr), d2 @ np.ones(K.n_triangles)
    kind = K.kind
    count_ok = np.select([kind == INTERIOR, kind == BOUNDARY, kind == LOOP],
                         [count == 2, count == 1, (count == 2) | (count == 4)], False)
    e = _first(~count_ok | ((kind != BOUNDARY) & (sign_sum != 0)))
    if e < 0:
        return None
    k = int(kind[e])
    if not 0 <= k < len(EDGE_KINDS):
        return f"edge {e} has unknown kind {k}"
    if not count_ok[e]:
        return f"{EDGE_KINDS[k]} edge {e} lies in {count[e]} triangles"
    balance = "equal" if k == INTERIOR else "unbalanced"
    return f"{EDGE_KINDS[k]} edge {e} has {balance} induced signs"


def _split_group(K: Complex2, d2: SparseMatrix) -> str | None:
    """Every group must be connected over its interior edges; each interior
    edge lies in two triangles (``_incidence_violation``), and its row of d2
    joins them when they share a group."""
    # imported here: loading scipy.sparse.csgraph costs about 1.3 MB of
    # resident memory in processes that never validate or weight a complex
    from scipy.sparse.csgraph import connected_components

    t, csr = K.n_triangles, d2.to_csr()
    start = csr.indptr[np.flatnonzero(K.kind == INTERIOR)]
    a, b = csr.indices[start], csr.indices[start + 1]
    same = K.tri_group[a] == K.tri_group[b]
    graph = sp.coo_matrix((np.ones(int(same.sum())), (a[same], b[same])), shape=(t, t))
    _, label = connected_components(graph, directed=False)
    pieces = _unique(K.tri_group * max(t, 1) + label) // max(t, 1)
    split = _first(pieces[1:] == pieces[:-1])
    return f"group {pieces[split]} is not connected over interior edges" if split >= 0 else None


def validate(K: Complex2) -> ValidationReport:
    """Check the structural invariants; returns the first violation, and the
    d2 it built whenever every triangle side is an edge.

    One edge lookup gives every triangle side's edge id and sign; d2 is
    built from them once, and the incidence counts, the sign balance and
    the interior-edge connectivity are all read off it.  The connectivity
    graph joins the two triangles of each interior edge's row of d2 when
    they share a group, with no adjacency matrix in between.  Each check is
    a pass over d2's 3t entries or the m edges and lets its arrays go before
    the next one, so time and memory are linear in the size of K.

    d1 d2 = 0 holds by construction: ``_lookup`` gives each side u -> v the
    edge {u, v} and ``_boundary`` signs it +1 exactly when that edge is
    stored as (u, v), so each column of d2 runs u -> v -> w -> u.
    """
    side, d2 = _side_matrix(K)
    violation = (side or _loop_violation(K) or _incidence_violation(K, d2)
                 or _split_group(K, d2))
    return ValidationReport(violation is None, violation, d2)
