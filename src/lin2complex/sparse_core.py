"""Sparse-matrix substrate, the least-squares driver and spectral summaries.

Every reduction stage and every verification pass funnels its linear algebra
through this module: a sparse matrix type that keeps one canonical CSR and
an integer-exactness flag; the one sparse LU of a quasi-definite augmented
system (``AugmentedSystem``) that the weighted boundary solve, the maxflow
Newton steps and maxflow's image check share; the one least-squares driver
(``certified_lu``: that LU on unit-norm columns, factored once and refined
once, symmetric without pivoting for the chain's boundary operator and with
COLAMD and partial pivoting for ``least_squares``, its answer judged by its
projected residual against P b, the projection of b onto the column space
from one tight column-equilibrated LSQR solve, the library's only LSQR);
the positive definite factor of a positive semidefinite matrix plus a shift
(``shifted_factor``), which the ``lap_solve`` routes refine with; and sparse
spectral data: the integer norm bound on the largest eigenvalue, which the
spectral certificate reads, and the low spectrum and nullity of an exact
integer Gram matrix from shift-invert Lanczos over one ``shifted_factor``
(``gram_spectrum``, the one place that decides which eigenvalues are zero),
from which the ``lap_solve`` routes take their lambda_min.  The three
symmetric factors share one SuperLU setting, ``SYMMETRIC_LU``; the maxflow
Newton steps and ``least_squares`` keep pivoting.  ``spectral_summary`` is
the dense reference for small matrices.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class DimensionError(ValueError):
    """Operand shapes do not match."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class SparseMatrix:
    """An m x n sparse matrix, stored as one canonical scipy CSR.

    The CSR is built once: duplicate coordinates are summed (in scipy's
    order, so three or more float duplicates may round unlike a
    left-to-right sum), explicit zeros are dropped and the columns of every
    row are sorted, so two equal matrices serialize identically.  Its
    arrays are read-only, so ``to_csr`` hands out the stored matrix itself
    and a caller that writes into it raises.  ``rows``, ``cols`` and
    ``vals`` are the entries in row-major order (int64, int64, float64);
    ``vals`` is the CSR's own array, and the two index arrays, 16 bytes an
    entry beside the CSR's 12, are made on first access.
    ``integer_exact`` records that every stored value is an integer that
    int64 holds (magnitude below 2^63);
    reduction outputs keep this flag so chain-complex identities can be
    checked in integer arithmetic.
    """

    def __init__(self, csr: sp.csr_matrix):
        """Canonicalize ``csr`` in place and keep it; the ``from_*``
        constructors pass a float64 CSR that nothing else holds."""
        csr.sum_duplicates()
        csr.eliminate_zeros()
        for a in (csr.data, csr.indices, csr.indptr):
            a.setflags(write=False)
        self._csr = csr
        self.n_rows, self.n_cols = csr.shape
        self.vals = csr.data
        # |v| < 2^63 holds for no nan or inf and for every value an int64 holds
        self.integer_exact = bool((np.abs(self.vals) < 2.0 ** 63).all()
                                  and np.all(self.vals == np.rint(self.vals)))

    @functools.cached_property
    def rows(self) -> np.ndarray:
        return _readonly(np.repeat(np.arange(self.n_rows, dtype=np.int64),
                                   np.diff(self._csr.indptr)))

    @functools.cached_property
    def cols(self) -> np.ndarray:
        return _readonly(self._csr.indices.astype(np.int64))

    @staticmethod
    def from_arrays(n_rows: int, n_cols: int, rows, cols, vals) -> "SparseMatrix":
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        vals = np.asarray(vals, dtype=np.float64).ravel()
        if not (rows.size == cols.size == vals.size):
            raise DimensionError("rows, cols and vals must have equal length")
        if rows.size:
            if rows.min() < 0 or rows.max() >= n_rows:
                raise DimensionError(f"row index out of range for {n_rows} rows")
            if cols.min() < 0 or cols.max() >= n_cols:
                raise DimensionError(f"column index out of range for {n_cols} columns")
        return SparseMatrix(sp.csr_matrix((vals, (rows, cols)), shape=(n_rows, n_cols)))

    @staticmethod
    def from_columns(n_rows: int, rows, vals) -> "SparseMatrix":
        """The matrix whose column j holds ``vals[j]`` at the rows ``rows[j]``,
        for an (n_cols, k) array ``rows``, k entries a column, and ``vals``
        of its shape or broadcast to it.  The arrays are already a CSC, which
        is converted to CSR once, with no COO in between; a row listed twice
        in one column is summed.  Raises ``DimensionError`` for a row out of
        range, as ``from_arrays`` does."""
        rows = np.asarray(rows)
        n_cols, k = rows.shape
        if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
            raise DimensionError(f"row index out of range for {n_rows} rows")
        vals = np.broadcast_to(np.asarray(vals, dtype=np.float64), rows.shape)
        csc = sp.csc_matrix((vals.ravel(), rows.ravel(), np.arange(n_cols + 1) * k),
                            shape=(n_rows, n_cols))
        return SparseMatrix(csc.tocsr())

    @staticmethod
    def from_dense(a) -> "SparseMatrix":
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2:
            raise DimensionError("expected a 2-d array")
        return SparseMatrix(sp.csr_matrix(a))

    @staticmethod
    def from_scipy(m) -> "SparseMatrix":
        return SparseMatrix(sp.csr_matrix(m, dtype=np.float64, copy=True))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self) -> int:
        return int(self.vals.size)

    def to_csr(self) -> sp.csr_matrix:
        """The stored CSR itself; its arrays are read-only."""
        return self._csr

    def to_int_csr(self) -> sp.csr_matrix:
        if not self.integer_exact:
            raise ValueError("matrix is not integer-exact")
        return self._csr.astype(np.int64)

    def to_dense(self) -> np.ndarray:
        return self._csr.toarray()

    def matvec(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64).ravel()
        if x.size != self.n_cols:
            raise DimensionError(f"expected vector of length {self.n_cols}, got {x.size}")
        return self._csr @ x

    def __matmul__(self, x):
        return self.matvec(x)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.vals))) if self.nnz else 0.0

    def row_scaled(self, scale) -> "SparseMatrix":
        """``diag(scale) A``; the rows that a zero scale empties are dropped."""
        scale = np.asarray(scale, dtype=np.float64).ravel()
        if scale.size != self.n_rows:
            raise DimensionError("row scale length mismatch")
        csr = self._csr.copy()
        csr.data *= scale[self.rows]
        return SparseMatrix(csr)

    def equals(self, other: "SparseMatrix") -> bool:
        """Equal shapes and entries, compared on the two canonical CSRs."""
        a, b = self._csr, other._csr
        return (
            self.shape == other.shape
            and self.nnz == other.nnz
            and bool(np.array_equal(a.indptr, b.indptr))
            and bool(np.array_equal(a.indices, b.indices))
            and bool(np.array_equal(self.vals, other.vals))
        )


def _unit_columns(A: SparseMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Column scales ``D = diag(1 / ||A[:, j]||)`` and the values of ``A D``,
    aligned with ``A.rows`` / ``A.cols``; all-zero columns keep scale 1."""
    col_sq = np.bincount(A.cols, weights=A.vals ** 2, minlength=A.n_cols)
    scale = np.ones(A.n_cols)
    nonzero = col_sq > 0.0
    scale[nonzero] = 1.0 / np.sqrt(col_sq[nonzero])
    return scale, A.vals * scale[A.cols]


# the most iterations of one ``iterative_solve``
LSQR_MAX_ITER = 30000


def iterative_solve(A: SparseMatrix, b, tol: float) -> tuple[np.ndarray, int]:
    """One column-equilibrated LSQR pass of at most ``LSQR_MAX_ITER``
    iterations at ``atol = btol = max(tol, 1e-15)``; returns (x,
    iterations).  It is the reference that ``certified_lu`` and
    ``projection_residual`` take P b from.  A right-hand side holding nan or
    inf has no projection: it returns an all-nan x after 0 iterations
    instead of running every iteration on it (zeros would make ``P b = 0``,
    which certifies).

    LSQR runs on ``A D`` with ``D = diag(1 / ||A[:, j]||)`` and the result is
    mapped back as ``x = D y`` (Paige & Saunders, ACM TOMS 1982).  This is a
    change of variables only: ``A x`` still approximates the projection of b
    onto the column space of A.  All-zero columns keep scale 1, so their
    entries of ``x`` stay exactly 0.
    """
    b = np.asarray(b, dtype=np.float64).ravel()
    if b.size != A.n_rows:
        raise DimensionError(f"rhs length {b.size} != {A.n_rows}")
    if not np.all(np.isfinite(b)):
        return np.full(A.n_cols, np.nan), 0
    if A.nnz == 0 or float(np.linalg.norm(b)) == 0.0:
        return np.zeros(A.n_cols), 0
    scale, vals = _unit_columns(A)
    csr = A.to_csr()
    scaled = sp.csr_matrix((vals, csr.indices, csr.indptr), shape=A.shape)
    tol = max(tol, 1e-15)
    out = spla.lsqr(scaled, b, damp=0.0, atol=tol, btol=tol, conlim=0.0,
                    iter_lim=LSQR_MAX_ITER)
    return scale * out[0], int(out[2])


# Regularization of the augmented system in ``lu_solve``, in the units of the
# unit-norm columns.  It must be positive: the boundary operator always has a
# null space, and at 0 the system is exactly singular.  It damps directions
# whose singular value is below about sqrt(LU_DELTA), which biases the answer
# that the certificate judges: at 1e-10, 10 of 20 planted 40x40 chains
# missed eps = 1e-3, at 1e-14 the worst ratio was 1.6e-5.  1e-14 keeps it two
# orders above the rounding level (~1e-16) of the O(1) entries, so the
# regularization, not rounding, sets the null-space pivots.  ``lu_solve``
# and the maxflow Newton step undo the bias with one refinement step each
# (Bjorck, Numerical Methods for Least Squares Problems, SIAM 1996).
LU_DELTA = 1e-14

# SuperLU's settings for the symmetric matrices this module factors: the
# quasi-definite K of the chain's ``certified_lu`` and the positive definite
# S + shift I of ``shifted_factor``.  Both have a triangular factor for
# every symmetric ordering without pivoting (Vanderbei, SIAM J. Optim. 1995),
# so SuperLU orders the matrix plus its transpose by minimum degree, permutes
# rows and columns alike and takes each diagonal entry as its pivot, at
# ``factor``'s unrelaxed supernodes and one-column panels.  COLAMD with
# partial pivoting spent fill on K that this ordering does not (2.74 against
# 2.00 on a 24.7k-triangle chain, 5.34 against 2.78 at 195.7k).  A no-pivot
# factor's stability is bounded only by ||B||^2 / delta (Gill, Saunders &
# Shinnerl, SIAM J. Matrix Anal. Appl. 1996).  On the chain's K that bound
# was never what failed: of 89 chain solves (criterion 11 at alpha 1e2 to
# 1e8, ``three_per_row_system(8, n)`` for n = 20, 40 and 80 at alpha 1e2,
# 1e6 and 1e8) a COLAMD factor certified none that this one missed, and
# where both missed, their ratios agreed to 2-3 digits.  On general
# matrices it was: it missed rel_tol 1e-6 on 16 of 100 random sparse
# problems that COLAMD certified, so ``least_squares`` and ``lu_solve``'s
# other callers keep pivoting.
SYMMETRIC_LU = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
                "options": {"SymmetricMode": True}, "relax": 1, "panel_size": 1}


class AugmentedSystem:
    """The quasi-definite ``K = [[I, B], [B^T, -LU_DELTA I]]`` for one
    sparsity pattern of an m x n matrix ``B`` (Vanderbei, SIAM J. Optim.
    1995).

    The canonical CSC pattern of ``K`` is built once, by one COO to CSC
    conversion, from B's entry coordinates ``(rows, cols)``, which must be
    distinct; ``order`` says which of the values that ``factor`` lists lands
    at each position of the CSC.  ``factor`` then writes the values
    of one ``B`` into it and makes one SuperLU factorization (no relaxed
    supernodes, panels one column wide), either symmetric and without
    pivoting (``SYMMETRIC_LU``) or with COLAMD and partial pivoting, so a
    caller that refactors the same pattern rewrites values only.
    ``K [r; y] = [c; e]`` gives ``y = (B^T B + delta I)^-1 (B^T c - e)`` and
    ``r = c - B y``.
    """

    def __init__(self, m: int, n: int, rows, cols):
        diag = np.arange(m + n)
        rows, cols = np.asarray(rows), np.asarray(cols)
        # K's entries numbered in the order ``factor`` lists their values:
        # the m ones, the n -deltas, B, then B^T
        K = sp.coo_matrix((np.arange(m + n + 2 * rows.size),
                           (np.concatenate([diag, rows, m + cols]),
                            np.concatenate([diag, m + cols, rows]))),
                          shape=(m + n, m + n)).tocsc()
        K.sort_indices()
        self.indptr, self.indices, self.order = K.indptr, K.indices, K.data
        self.m, self.n = m, n

    def factor(self, vals, symmetric: bool = False) -> spla.SuperLU:
        """SuperLU of ``K`` with B's values ``vals`` aligned with ``rows``
        / ``cols``, at ``SYMMETRIC_LU`` when ``symmetric`` and with COLAMD
        and partial pivoting otherwise; ``splu`` raises ``RuntimeError``
        when it fails."""
        data = np.concatenate([np.ones(self.m), np.full(self.n, -LU_DELTA), vals, vals])
        size = self.m + self.n
        K = sp.csc_matrix((data[self.order], self.indices, self.indptr), shape=(size, size))
        if symmetric:
            return spla.splu(K, **SYMMETRIC_LU)
        # No relaxed supernodes (relax=1 merges no columns) and panels one
        # column wide: B has 1-3 entries a column, so SuperLU's default
        # relaxed supernodes and 10-column panels only pad dense blocks.  The
        # 8 factors of a chain_corpus pass (seed 1) took 40.7 ms at the
        # defaults, 38.4 ms at relax=1 alone, 28.8 ms at panel_size=1 alone
        # and 26.2 ms at both (median of 15, one BLAS thread, 2-vCPU VM);
        # a 49.6k-triangle chain's factor took 78 -> 50 ms.  COLAMD and
        # partial pivoting are unchanged, so the pivots are the same.
        return spla.splu(K, permc_spec="COLAMD", relax=1, panel_size=1)

    def fill(self, lu: spla.SuperLU) -> float:
        """``lu.nnz / nnz K``: the entries SuperLU stores for L and U of one
        factorization, read off the factor without building ``lu.L`` and
        ``lu.U``.  With ``factor``'s unrelaxed supernodes nothing is padded,
        so it is within 0.2 % of their nnz sum on the chains measured; with
        relaxed ones it also counted the padding (3.9 against 2.5 on a
        chain_corpus system)."""
        return lu.nnz / self.indices.size


def lu_solve(A: SparseMatrix, b, symmetric: bool = False) -> tuple[np.ndarray, float]:
    """Column-equilibrated least squares of ``A x ~ b`` from one sparse LU,
    refined once; returns (x, fill) with fill ``AugmentedSystem.fill``
    (about (nnz L + nnz U) / nnz K), and (0, 0.0) for a zero A or b.

    With ``B`` the unit-column scaling of A restricted to its nonzero rows
    and columns, ``AugmentedSystem`` factors ``K`` once (without pivoting
    when ``symmetric``, see ``SYMMETRIC_LU``) and solves
    ``K [r; y] = [b; 0]``, i.e. ``(B^T B + delta I) y = B^T b``; ``x = D y``
    as in ``iterative_solve`` and all-zero columns get 0.  The same factor
    then solves for the residual ``b - A x`` and adds the correction (one
    refinement step), which undoes delta's bias.  Raises ``RuntimeError``
    when the factorization fails.
    """
    b = np.asarray(b, dtype=np.float64).ravel()
    if b.size != A.n_rows:
        raise DimensionError(f"rhs length {b.size} != {A.n_rows}")
    if A.nnz == 0 or float(np.linalg.norm(b)) == 0.0:
        return np.zeros(A.n_cols), 0.0
    scale, vals = _unit_columns(A)
    # B's rows and columns: A's nonzero ones, numbered in order
    used_row = np.bincount(A.rows, minlength=A.n_rows) > 0
    used_col = np.bincount(A.cols, minlength=A.n_cols) > 0
    rows, cols = np.flatnonzero(used_row), np.flatnonzero(used_col)
    m, n = rows.size, cols.size
    system = AugmentedSystem(m, n, (np.cumsum(used_row) - 1)[A.rows],
                             (np.cumsum(used_col) - 1)[A.cols])
    lu = system.factor(vals, symmetric)

    def solve(rhs) -> np.ndarray:
        x = np.zeros(A.n_cols)
        sol = lu.solve(np.concatenate([rhs[rows], np.zeros(n)]))
        x[cols] = scale[cols] * sol[m:]
        return x
    x = solve(b)
    x += solve(b - A.to_csr() @ x)
    return x, system.fill(lu)


def projection_residual(A: SparseMatrix, x, b,
                        rel_tol: float = 1e-8) -> tuple[float, float]:
    """Return (||Ax - P b||, ||P b||), P b the projection of b onto A's
    columns as ``A y``, y from ``iterative_solve`` at ``rel_tol / 100``."""
    pib = A @ iterative_solve(A, b, rel_tol / 100.0)[0]
    return float(np.linalg.norm(A.matvec(x) - pib)), float(np.linalg.norm(pib))


class Verdict(NamedTuple):
    """What ``certified_lu`` reports: x, its factor's method ("lu" for the
    symmetric factor, "lu_colamd" for the pivoted one, "none" when the
    factorization raised) and fill (None for "none"), the iterations of the
    LSQR reference, ||A x - P b||, ||P b||, their ratio, and whether the
    ratio is at most eps."""

    x: np.ndarray
    method: str
    fill: float | None
    iterations: int
    projected_residual: float
    projected_rhs_norm: float
    achieved_ratio: float
    converged: bool

    @property
    def rounds(self) -> int:
        """The factorizations that gave x: 1, or 0 for "none"."""
        return int(self.method != "none")


def certified_lu(B: SparseMatrix, g, symmetric: bool, A: SparseMatrix, b, eps: float,
                 to_x=None) -> Verdict:
    """One refined ``lu_solve`` of ``B y ~ g``, judged once by the
    projected-residual certificate of ``A x ~ b``.

    ``B`` is factored once, at ``SYMMETRIC_LU`` when ``symmetric`` and with
    COLAMD and partial pivoting otherwise; y is carried to x by ``to_x`` (as
    is when None) and certifies when ||A x - P b|| <= eps ||P b||, with P b
    as ``A y`` for y from ``iterative_solve`` at ``min(eps / 100, 1e-6) /
    100``.  When the factorization raises it judges x = 0, which certifies
    only when ``||P b|| == 0``.  Only ``||P b|| == 0`` gives ratio 0, and
    a ``b`` holding nan or inf has ``||P b||`` nan, whatever ``A``, so it
    certifies nothing.
    """
    try:
        y, fill = lu_solve(B, g, symmetric)
    except (RuntimeError, MemoryError):
        x, method, fill = np.zeros(A.n_cols), "none", None
    else:
        x, method = (y if to_x is None else to_x(y)), ("lu" if symmetric else "lu_colamd")
    x_ref, iterations = iterative_solve(A, b, min(eps / 100, 1e-6) / 100.0)
    pib = A @ x_ref
    # a non-finite b's reference is all nan, which a zero A would map to 0
    pnorm = float(np.linalg.norm(pib)) if np.isfinite(x_ref).all() else np.nan
    proj = float(np.linalg.norm(A.matvec(x) - pib))
    ratio = 0.0 if pnorm == 0.0 else proj / pnorm
    return Verdict(x, method, fill, iterations, proj, pnorm, ratio, ratio <= eps)


def refuse_non_finite(what: str, v: np.ndarray) -> None:
    """Raise ``ValueError`` naming ``what`` and the first nan or infinite
    entry of ``v``."""
    bad = ~np.isfinite(v)
    if bad.any():
        q = int(np.argmax(bad))
        raise ValueError(f"{what} holds {v[q]:g} at entry {q}; its entries must be finite")


def least_squares(A: SparseMatrix, b, rel_tol: float) -> Verdict:
    """Approximately minimize ||Ax - b||_2, certified.

    ``certified_lu`` of ``A`` judged on ``A`` itself, with COLAMD and
    partial pivoting: a general ``A`` is not the chain's boundary operator,
    and the symmetric factor without pivoting missed rel_tol 1e-6 on 16 of
    100 random sparse problems that this one factor certifies.  Its
    ``Verdict``'s ``converged`` means ||Ax - P b|| <= rel_tol ||P b||, and
    ``iterations`` counts the iterations of the LSQR reference.  Raises
    ``ValueError`` for a nan or infinite entry of ``A`` or ``b``, and
    ``lu_solve``'s ``DimensionError`` for a ``b`` of the wrong length.
    """
    if not (0.0 < rel_tol < 1.0):
        raise ValueError("rel_tol must lie in (0, 1)")
    b = np.asarray(b, dtype=np.float64).ravel()
    refuse_non_finite("the matrix", A.vals)
    refuse_non_finite("the right-hand side", b)
    return certified_lu(A, b, False, A, b, rel_tol)


@dataclass(frozen=True)
class SpectralSummary:
    sigma_max: float
    sigma_min_nonzero: float | None
    rank: int


def spectral_summary(A: SparseMatrix) -> SpectralSummary:
    """Singular-value summary from a dense SVD, exact to machine precision;
    the dense reference for small matrices.  Singular values at or below
    max(shape) * machine epsilon * sigma_max count as zero."""
    if min(A.n_rows, A.n_cols) == 0 or A.nnz == 0:
        return SpectralSummary(0.0, None, 0)
    s = np.linalg.svd(A.to_dense(), compute_uv=False)
    rank = int(np.sum(s > max(A.n_rows, A.n_cols) * np.finfo(np.float64).eps * s[0]))
    sigma_min = float(s[rank - 1]) if rank > 0 else None
    return SpectralSummary(float(s[0]), sigma_min, rank)


def norm_product(M: SparseMatrix) -> int:
    """||M||_1 ||M||_inf of an integer-exact matrix, in integer arithmetic;
    it bounds sigma_max(M)^2, since ||M||_2^2 <= ||M||_1 ||M||_inf.

    The column sums are a ``bincount`` of the stored entries' magnitudes
    over their columns, and the row sums the steps of their running sum at
    the CSR's row starts, with no copy of the matrix: every partial sum is
    an integer, exact in float64 below 2^53.  Raises ``ValueError`` for a
    matrix that is not integer-exact."""
    if not M.integer_exact:
        raise ValueError("matrix is not integer-exact")
    csr, size = M.to_csr(), np.abs(M.vals)
    rows = np.diff(np.concatenate(([0.0], np.cumsum(size)))[csr.indptr])
    cols = np.bincount(csr.indices, weights=size, minlength=M.n_cols)
    return int(cols.max(initial=0)) * int(rows.max(initial=0))


# Shift of the Lanczos solve in ``gram_spectrum``: it makes
# G + GRAM_SHIFT I positive definite, so its LU exists although G is
# singular, and puts the zero eigenvalues nearest the shift.  The smallest
# nonzero eigenvalue lambda maps to 1 / (lambda + shift) against the zeros'
# 1 / shift, so a larger shift brings the two closer and Lanczos takes
# longer to split them: on a 25,250-triangle complex of a 40x40
# three-per-row system ``eigsh`` took 0.64 s at 1e-4 and takes 0.17 s at
# 1e-8, with the same eigenvalues.  Both shifts find the same lambda far
# below them too (1.65e-13 on a 23,890-triangle complex).
GRAM_SHIFT = 1e-8

# Eigenvalues of a Gram matrix with |lambda| at or below this count as zero.
# For G = d2^T d2, d2 is +-1 and ||G|| <= 12; at GRAM_SHIFT the zero
# eigenvalues that Lanczos returns sit at the rounding level and come out
# negative, so the test compares |lambda|: 1.5e-16..1.8e-16 in magnitude
# over the ``SYMMETRIC_LU`` factor on complexes of 2.1k-48k triangles, and
# 7e-17..1.0e-16 over a COLAMD factor with partial pivoting.  The smallest
# nonzero eigenvalue seen was 9e-14, on a 23,890-triangle complex of a
# 40x40 three-per-row system.
ZERO_EIGENVALUE = 1e-14


def shifted_factor(S: sp.spmatrix, shift: float) -> tuple[spla.SuperLU, float]:
    """SuperLU of ``F = S + shift I`` at ``SYMMETRIC_LU`` and its fill
    ``lu.nnz / nnz F``, for a symmetric positive semidefinite scipy matrix
    ``S`` and ``shift > 0``, so that ``F`` is positive definite and the
    factor needs no pivoting; ``splu`` raises ``RuntimeError`` when it
    fails."""
    F = (S + shift * sp.identity(S.shape[0], format="csc")).tocsc()
    lu = spla.splu(F, **SYMMETRIC_LU)
    return lu, lu.nnz / F.nnz


def gram_spectrum(M: SparseMatrix) -> tuple[np.ndarray, int]:
    """The low spectrum of ``G = M^T M`` and its nullity: (eig, nullity).

    ``G`` is formed in integer arithmetic from the int CSR of an
    integer-exact ``M``, so it is exact.  ARPACK's Lanczos (``eigsh``) runs
    in shift-invert mode at ``-GRAM_SHIFT``, with one SuperLU factorization
    of the positive definite ``G + GRAM_SHIFT I`` at ``SYMMETRIC_LU`` as the
    inverse operator and a fixed start vector, so repeated calls return the
    same values.  ``eig`` holds the 4 smallest eigenvalues, ascending, with
    their number doubled over the same factor until a nonzero one shows; the
    first ``nullity`` are zero (``|lambda| <= ZERO_EIGENVALUE``), so
    ``eig[nullity]`` is the smallest nonzero eigenvalue.  Raises
    ``ValueError`` for a matrix that is not integer-exact and when all
    ``n_cols - 1`` eigenvalues that Lanczos can return are zero, and
    ``spla.ArpackError`` when Lanczos does not converge.
    """
    D = M.to_int_csr()
    G = (D.T @ D).astype(np.float64).tocsc()
    n = G.shape[0]
    lu, _ = shifted_factor(G, GRAM_SHIFT)
    inverse = spla.LinearOperator((n, n), matvec=lu.solve, dtype=np.float64)
    v0 = np.random.default_rng(0).standard_normal(n)
    k = 4
    while True:
        eig = np.sort(spla.eigsh(G, k=min(k, n - 1), sigma=-GRAM_SHIFT, which="LM",
                                 OPinv=inverse, v0=v0, return_eigenvectors=False))
        nullity = int(np.count_nonzero(np.abs(eig) <= ZERO_EIGENVALUE))
        if nullity < eig.size:
            return eig, nullity
        if eig.size >= n - 1:
            raise ValueError(f"all {eig.size} computed eigenvalues of the "
                             "Gram matrix are zero; no nonzero eigenvalue")
        k *= 2
