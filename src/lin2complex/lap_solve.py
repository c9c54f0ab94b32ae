"""Solve boundary-operator systems through Laplacian or Gram solves.

Both routes rest on the same fact: the image of d1^T meets the image of d2
only at zero, so projecting an approximate solve of L1 x = d (or of
d2 d2^T x = d) through f = d2^T x lands near the projection of d onto the
image of d2.  The inner accuracy eps_inner is derived from sparse spectral
data, the same at every size: the integer bound ||d2||_1 ||d2||_inf on
sigma_max(d2)^2 and the operator's smallest nonzero eigenvalue from
shift-invert Lanczos (``sparse_core.gram_spectrum``).  The inner solve
is one sparse LU of the column-equilibrated operator's augmented system,
refined once (``sparse_core.lu_solve``).  The route is judged by the bound
that solve proves on its own error: with ``P`` the projection onto the
image of ``op`` and ``Q`` that onto the image of d2,
``||op r|| / lambda_min >= ||P d - op x||`` for ``r = d - op x``, and
``Q op x = d2 d2^T x = d2 f`` because d1 d2 = 0, so the bound also holds for
``||Q d - d2 f||``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .complex2 import Complex2, boundary1, boundary2, laplacian1
from .sparse_core import SparseMatrix, gram_spectrum, lu_solve, norm_product, refuse_non_finite

ROUTE_LAPLACIAN = "laplacian"
ROUTE_GRAM = "gram"


@dataclass(frozen=True)
class BoundaryRouteReport:
    """Outcome of one route solve.

    ``inner_ratio`` is the upper bound ``||op r|| / (lambda_min ||op x||)``
    on the inner error ``||P d - op x|| / ||op x||``, with ``r = d - op x``
    and ``P`` the projection onto the image of the symmetric ``op``; it
    holds because ``||op r|| = ||op P r|| >= lambda_min ||P r||``.
    ``inner_converged`` compares it with the paper's worst-case
    ``eps_inner``, a sufficient condition that ``ok`` does not need.
    ``projected_residual`` is the unscaled bound ``||op r|| / lambda_min``;
    with ``Q`` the projection onto the image of d2, ``Q op x = d2 f``, so it
    also bounds ``||d2 f - Q d||``.  ``projected_rhs_norm`` is ``||d2 f||``,
    within that bound of ``||Q d||``.
    ``degenerate`` proves ``Q d`` below ``1e-10 ||d||``; otherwise ``ok``
    proves ``||d2 f - Q d|| <= delta ||Q d||``.
    """

    route: str
    eps_inner: float
    inner_converged: bool
    inner_ratio: float
    lu_fill: float
    projected_residual: float
    projected_rhs_norm: float
    degenerate: bool
    ok: bool


def _l0_lambda_min(K: Complex2, d1: SparseMatrix | None = None) -> float:
    """Smallest nonzero eigenvalue of ``L0 = d1 d1^T``, the 1-skeleton's
    graph Laplacian, whose nullity is its component count c; ``d1``, when
    given, is ``boundary1(K)``."""
    # imported here, as in ``complex2.validate``
    from scipy.sparse.csgraph import connected_components

    edge = K.edge
    graph = sp.csr_matrix((np.ones(len(edge)), (edge[:, 0], edge[:, 1])),
                          shape=(K.n_vertices, K.n_vertices))
    c, _ = connected_components(graph, directed=False)
    eig, nullity = gram_spectrum((boundary1(K) if d1 is None else d1).T, c + 1)
    return float(eig[nullity])


def _solve_route(K: Complex2, d, delta: float, route: str):
    """One route solve; builds d2, and d1 on the Laplacian route, once."""
    d = np.asarray(d, dtype=np.float64).ravel()
    d2 = boundary2(K)
    if d.size != d2.n_rows:
        raise ValueError(f"demand length {d.size} != {d2.n_rows} edges")
    refuse_non_finite("the demand", d)
    if route == ROUTE_LAPLACIAN:
        d1 = boundary1(K)
        op = laplacian1(K, d1, d2)
    elif route == ROUTE_GRAM:
        gram = d2.to_int_csr() @ d2.to_int_csr().T
        op = SparseMatrix.from_scipy(gram)
    else:
        raise ValueError(f"unknown route {route!r}")

    d_norm = float(np.linalg.norm(d))
    if d_norm == 0.0:
        report = BoundaryRouteReport(route, delta, True, 0.0, 0.0, 0.0, 0.0, False, True)
        return np.zeros(d2.n_cols), report

    # d2 d2^T and d2^T d2 share their nonzero spectrum; since d1 d2 = 0 that
    # of L1 is the union of it and L0's
    eig, nullity = gram_spectrum(d2, 4)
    lam_min = float(eig[nullity])
    if route == ROUTE_LAPLACIAN:
        lam_min = min(lam_min, _l0_lambda_min(K, d1))
    eps = delta * math.sqrt(lam_min) / (norm_product(d2) * d_norm)
    eps = min(eps, 0.5)

    x, fill = lu_solve(op, d)
    csr = op.to_csr()
    op_x = csr @ x
    bound = float(np.linalg.norm(csr @ (d - op_x))) / lam_min
    x_norm = float(np.linalg.norm(op_x))
    ratio = bound / x_norm if x_norm > 0.0 else (0.0 if bound == 0.0 else math.inf)
    converged = ratio <= eps
    f = d2.T.matvec(x)

    # ||d2 f - Q d|| <= bound, so ||Q d|| lies within bound of ||d2 f||
    f_norm = float(np.linalg.norm(d2.matvec(f)))
    degenerate = f_norm + bound <= 1e-10 * d_norm
    ok = degenerate or bound <= delta * (f_norm - bound)
    report = BoundaryRouteReport(route, eps, converged, ratio, fill,
                                 bound, f_norm, degenerate, ok)
    return f, report


def solve_boundary_via_laplacian(K: Complex2, d, delta: float):
    """Solve d2 f ~ d through the combinatorial Laplacian.

    Picks the inner accuracy eps = delta * lambda_min(L1)^(1/2) /
    (||d2||_1 ||d2||_inf ||d||), solves L1 x ~ d, and returns f = d2^T x;
    the report's ``inner_converged`` is ``inner_ratio <= eps``, and its
    ``ok`` rests on the solve's own error bound.  When the projection of d
    onto the image of d2 provably vanishes while d does not, the instance
    is flagged degenerate (the relative guarantee is vacuous).
    Raises ``ValueError`` when d2 has no nonzero singular value and for a
    nan or infinite demand.
    """
    return _solve_route(K, d, delta, ROUTE_LAPLACIAN)


def solve_boundary_via_gram(K: Complex2, d, delta: float):
    """Same contract as the Laplacian route with d2 d2^T as the inner operator."""
    return _solve_route(K, d, delta, ROUTE_GRAM)
