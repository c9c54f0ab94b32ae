"""Solve boundary-operator systems through Laplacian or Gram solves.

Both routes rest on the same fact: the image of d1^T meets the image of d2
only at zero, so projecting an approximate solve of L1 x = d (or of
d2 d2^T x = d) through f = d2^T x lands near the projection of d onto the
image of d2.  The inner solve factors the positive definite
``F = op + mu I`` once (``sparse_core.shifted_factor``), with
``mu = SHIFT_RATIO lambda`` and ``lambda`` the smallest nonzero eigenvalue of
d2^T d2 from shift-invert Lanczos (``sparse_core.gram_spectrum``), and
refines ``x += F^-1 (d - op x)`` (Riley, MTAC 9, 1955).  The route judges
``f`` itself: with ``Q`` the projection onto the image of d2 and
``sigma = lambda^(1/2)``, ``||d2^T (d - d2 f)|| / sigma >= ||Q d - d2 f||``
for any f, because ``Q (d - d2 f)`` lies in the image of d2.  Every
eigenvalue of ``op`` on that image is at least ``lambda`` (d1 d2 = 0), so
each refinement shrinks f's error by ``mu / (lambda + mu)`` or less, while
the parts of x in the kernel of d2^T (the harmonic part, and on the
Laplacian route the image of d1^T, whose graph-Laplacian gap may be far
below ``lambda``) drop out of f.  No spectrum of L0 is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complex2 import Complex2, boundary2, laplacian1
from .sparse_core import gram_spectrum, refuse_non_finite, shifted_factor

ROUTE_LAPLACIAN = "laplacian"
ROUTE_GRAM = "gram"

# mu / lambda of the shift: each refinement shrinks the error of f in the
# image of d2 by mu / (lambda + mu) <= 1 / 101
SHIFT_RATIO = 1e-2


@dataclass(frozen=True)
class BoundaryRouteReport:
    """Outcome of one route solve.

    ``lu_fill`` is the fill of the positive definite factor of
    ``op + mu I`` (0 when the demand is zero) and ``refinements`` the
    solves made with it.  ``projected_residual`` is the bound
    ``||d2^T (d - d2 f)|| / sigma`` on ``||d2 f - Q d||``, ``Q`` the
    projection onto the image of d2 and ``sigma^2`` the smallest nonzero
    eigenvalue of d2^T d2.  ``projected_rhs_norm`` is ``||d2 f||``, within
    that bound of ``||Q d||``.  ``degenerate`` proves ``Q d`` below
    ``1e-10 ||d||``; otherwise ``ok`` proves ``||d2 f - Q d|| <= delta
    ||Q d||``.
    """

    route: str
    lu_fill: float
    refinements: int
    projected_residual: float
    projected_rhs_norm: float
    degenerate: bool
    ok: bool


def _solve_route(K: Complex2, d, delta: float, route: str):
    """One route solve, on L1 for ``ROUTE_LAPLACIAN`` and on d2 d2^T
    otherwise; builds d2 once."""
    d = np.asarray(d, dtype=np.float64).ravel()
    d2 = boundary2(K)
    if d.size != d2.n_rows:
        raise ValueError(f"demand length {d.size} != {d2.n_rows} edges")
    refuse_non_finite("the demand", d)
    if route == ROUTE_LAPLACIAN:
        op = laplacian1(K, d2).to_csr()
    else:
        op = (d2.to_int_csr() @ d2.to_int_csr().T).astype(np.float64)

    d_norm = float(np.linalg.norm(d))
    if d_norm == 0.0:
        return np.zeros(d2.n_cols), BoundaryRouteReport(route, 0.0, 0, 0.0, 0.0, False, True)

    # d2 d2^T and d2^T d2 share their nonzero spectrum
    eig, nullity = gram_spectrum(d2)
    lam = float(eig[nullity])
    sigma = math.sqrt(lam)
    lu, fill = shifted_factor(op, SHIFT_RATIO * lam)
    D = d2.to_csr()

    def judged(f):
        """(f, its bound on ||d2 f - Q d||, ||d2 f||)."""
        d2f = D @ f
        return f, float(np.linalg.norm(D.T @ (d - d2f))) / sigma, float(np.linalg.norm(d2f))

    def verdict(bound, f_norm):
        """(degenerate, ok): ||Q d|| lies within bound of ||d2 f||."""
        degenerate = f_norm + bound <= 1e-10 * d_norm
        return degenerate, degenerate or bound <= delta * (f_norm - bound)

    x = np.zeros(d2.n_rows)
    f, bound, f_norm = judged(np.zeros(d2.n_cols))
    refinements = 0
    # until f certifies or a refinement fails to halve the bound (a nan
    # bound does neither); the better of the last two f is kept
    while not verdict(bound, f_norm)[1]:
        x += lu.solve(d - op @ x)
        refinements += 1
        trial = judged(D.T @ x)
        halved = trial[1] <= bound / 2
        if trial[1] < bound:
            f, bound, f_norm = trial
        if not halved:
            break
    degenerate, ok = verdict(bound, f_norm)
    return f, BoundaryRouteReport(route, fill, refinements, bound, f_norm, degenerate, ok)


def solve_boundary_via_laplacian(K: Complex2, d, delta: float):
    """Solve d2 f ~ d through the combinatorial Laplacian L1.

    Factors ``L1 + mu I`` once, refines L1 x ~ d with it and returns
    f = d2^T x with the report of its own bound on ``||d2 f - Q d||``; the
    refinement stops once ``ok`` holds or a step fails to halve the bound.
    When the projection of d onto the image of d2 provably vanishes while d
    does not, the instance is flagged degenerate (the relative guarantee is
    vacuous).  Raises ``ValueError`` when d2 has no nonzero singular value
    and for a nan or infinite demand.
    """
    return _solve_route(K, d, delta, ROUTE_LAPLACIAN)


def solve_boundary_via_gram(K: Complex2, d, delta: float):
    """Same contract as the Laplacian route with d2 d2^T as the inner operator."""
    return _solve_route(K, d, delta, ROUTE_GRAM)
