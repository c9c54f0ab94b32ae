"""Reduce general integer linear systems to weighted difference-average systems.

The chain goes in three steps: append a column to zero out the row sums,
append a variable pair to make each row's positive-coefficient sum a power
of two, then bitwise pair-and-replace every remaining row until it collapses
to a scaled two-variable difference.  Each step also carries a back map that
sends solutions of the reduced system to solutions of its predecessor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .sparse_core import DimensionError, SparseMatrix

CLASS_G = "G"
CLASS_GZ = "G_z"
CLASS_GZ2 = "G_z2"

KIND_DIFFERENCE = "difference"
KIND_AVERAGE = "average"


class MatrixClassError(ValueError):
    """Input matrix violates the declared class invariants."""


# float64 holds every integer of magnitude below 2^53 exactly, and the chain's
# coefficients, sums and power-of-two paddings must stay in that range
EXACT_LIMIT = 2.0 ** 53


def _is_pow2(p: int) -> bool:
    return p >= 1 and (p & (p - 1)) == 0


@dataclass(frozen=True)
class GeneralSystem:
    """Integer system A x = b tagged with its position in the chain."""

    A: SparseMatrix
    b: np.ndarray
    class_tag: str = CLASS_G

    def __post_init__(self):
        object.__setattr__(self, "b", np.asarray(self.b, dtype=np.float64).ravel())
        if self.b.size != self.A.n_rows:
            raise DimensionError("rhs length does not match the matrix")

    def validate_class(self) -> None:
        A = self.A
        if not A.integer_exact:
            raise MatrixClassError("entries must be integers")
        if not np.all(self.b == np.rint(self.b)):
            raise MatrixClassError("right-hand side must be integral")
        if A.max_abs() >= EXACT_LIMIT or np.any(np.abs(self.b) >= EXACT_LIMIT):
            raise MatrixClassError(
                "entries and right-hand side must have magnitude below 2^53, "
                "the exact-integer range of float64")
        # after to_zero_rowsum a row's positive sum is the larger of its
        # positive and negative sums here, and to_pow2 rounds that up to a
        # power of two.  Float sums of nonnegative integers below 2^53 are
        # exact while below 2^53 and never fall back under it, so the
        # comparison with 2^52 is exact.
        pos = np.bincount(A.rows, weights=np.maximum(A.vals, 0.0), minlength=A.n_rows)
        neg = np.bincount(A.rows, weights=np.maximum(-A.vals, 0.0), minlength=A.n_rows)
        if np.any(np.maximum(pos, neg) > EXACT_LIMIT / 2):
            raise MatrixClassError(
                "a row's positive-coefficient sum rounds up to a power of two "
                "of at least 2^53, beyond the exact-integer range of float64")
        row_nnz = np.zeros(A.n_rows, dtype=np.int64)
        col_nnz = np.zeros(A.n_cols, dtype=np.int64)
        np.add.at(row_nnz, A.rows, 1)
        np.add.at(col_nnz, A.cols, 1)
        if np.any(row_nnz == 0) or np.any(col_nnz == 0):
            raise MatrixClassError("all-zero rows and columns are not allowed")
        if self.class_tag in (CLASS_GZ, CLASS_GZ2):
            sums = np.zeros(A.n_rows)
            np.add.at(sums, A.rows, A.vals)
            if np.any(sums != 0.0):
                raise MatrixClassError("row sums must be zero")
        if self.class_tag == CLASS_GZ2:
            for p in _positive_row_sums(A):
                if not _is_pow2(p):
                    raise MatrixClassError(
                        "positive entries of every row must sum to a power of 2")

    def row_dicts(self) -> list[dict[int, int]]:
        out: list[dict[int, int]] = [dict() for _ in range(self.A.n_rows)]
        for r, c, v in zip(self.A.rows, self.A.cols, self.A.vals):
            out[int(r)][int(c)] = int(v)
        return out


def _positive_row_sums(A: SparseMatrix) -> np.ndarray:
    sums = np.zeros(A.n_rows, dtype=np.int64)
    pos = A.vals > 0
    np.add.at(sums, A.rows[pos], A.vals[pos].astype(np.int64))
    return sums


# ---------------------------------------------------------------------------
# Back maps.  Small value objects, so the maps of two reductions of one
# system compare equal.

@dataclass(frozen=True)
class ShiftBack:
    """Drop the appended variable and subtract it from every original one."""

    n: int

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64).ravel()
        return x[: self.n] - x[self.n]


@dataclass(frozen=True)
class DropTailBack:
    n: int

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64).ravel()
        return x[: self.n].copy()


def to_zero_rowsum(sys: GeneralSystem):
    """Append the column -A 1 so every row sums to zero.

    If the row sums are already zero the column would be all-zero and is
    dropped; the back map then keeps all n entries.  Either way the residual
    of (A', x') equals the residual of (A, back_map(x')) identically.
    """
    sys.validate_class()
    A, b = sys.A, sys.b
    row_sums = np.zeros(A.n_rows)
    np.add.at(row_sums, A.rows, A.vals)
    if np.all(row_sums == 0.0):
        return GeneralSystem(A, b, CLASS_GZ), DropTailBack(A.n_cols)
    nz = np.flatnonzero(row_sums)
    A2 = SparseMatrix.from_arrays(
        A.n_rows, A.n_cols + 1, np.concatenate([A.rows, nz]),
        np.concatenate([A.cols, np.full(nz.size, A.n_cols)]),
        np.concatenate([A.vals, -row_sums[nz]]))
    out = GeneralSystem(A2, b, CLASS_GZ)
    out.validate_class()
    return out, ShiftBack(A.n_cols)


def to_pow2(sys: GeneralSystem):
    """Append a variable pair so each positive-coefficient row sum is a power of 2.

    Row i gains g_i = 2^ceil(log2 p_i) - p_i on the new variable and -g_i on
    its twin; one extra row ties the twins together with rhs 0.  The back map
    drops the two appended variables.
    """
    if sys.class_tag not in (CLASS_GZ, CLASS_GZ2):
        raise MatrixClassError("to_pow2 expects a zero-row-sum system")
    sys.validate_class()
    A, b = sys.A, sys.b
    p = _positive_row_sums(A)
    if np.any(p < 1):
        raise MatrixClassError("every nonzero zero-sum row has positive sum >= 1")
    g = np.array([(1 << int(pi - 1).bit_length()) - int(pi) for pi in p], dtype=np.int64)
    n, d = A.n_cols, A.n_rows
    nz = np.flatnonzero(g)
    A2 = SparseMatrix.from_arrays(
        d + 1, n + 2, np.concatenate([A.rows, nz, nz, [d, d]]),
        np.concatenate([A.cols, np.full(nz.size, n), np.full(nz.size, n + 1), [n, n + 1]]),
        np.concatenate([A.vals, g[nz], -g[nz], [1.0, -1.0]]))
    b2 = np.concatenate([b, [0.0]])
    out = GeneralSystem(A2, b2, CLASS_GZ2)
    out.validate_class()
    return out, DropTailBack(n)


# ---------------------------------------------------------------------------
# Difference-average systems.

@dataclass(frozen=True)
class DARow:
    """One difference or average equation in canonical form.

    The stored equation is ``pattern . x = rhs`` with pattern x(i) - x(j)
    or x(i) + x(j) - 2 x(k); ``scale`` is the power-of-two factor divided
    out during canonicalization and ``weight`` the least-squares row weight,
    so the matrix row is weight^(1/2) * scale * pattern.
    """

    kind: str
    i: int
    j: int
    k: int | None = None
    weight: float = 1.0
    rhs: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if self.kind == KIND_DIFFERENCE:
            if self.k is not None or self.i == self.j:
                raise ValueError("difference rows need two distinct variables")
        elif self.kind == KIND_AVERAGE:
            if self.k is None or len({self.i, self.j, self.k}) != 3:
                raise ValueError("average rows need three distinct variables")
            if self.rhs != 0.0:
                raise ValueError("average rows have zero right-hand side")
        else:
            raise ValueError(f"unknown row kind {self.kind!r}")
        if self.weight <= 0.0 or self.scale <= 0.0:
            raise ValueError("weight and scale must be positive")

    def pattern_entries(self) -> list[tuple[int, float]]:
        if self.kind == KIND_DIFFERENCE:
            return [(self.i, 1.0), (self.j, -1.0)]
        return [(self.i, 1.0), (self.j, 1.0), (self.k, -2.0)]


def difference_row(i: int, j: int, rhs: float = 0.0,
                   weight: float = 1.0, scale: float = 1.0) -> DARow:
    return DARow(KIND_DIFFERENCE, i, j, None, weight, rhs, scale)


def average_row(i: int, j: int, k: int,
                weight: float = 1.0, scale: float = 1.0) -> DARow:
    return DARow(KIND_AVERAGE, i, j, k, weight, 0.0, scale)


@dataclass(frozen=True)
class WeightedDASystem:
    """A difference-average system split into main and auxiliary rows."""

    n_vars: int
    rows: tuple[DARow, ...]
    n_main: int
    n_aux: int

    def __post_init__(self):
        if self.n_main + self.n_aux != len(self.rows):
            raise ValueError("row partition does not match the row list")
        for row in self.rows:
            vs = (row.i, row.j) if row.k is None else (row.i, row.j, row.k)
            if not all(0 <= v < self.n_vars for v in vs):
                raise ValueError("row references an unknown variable")

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def row_factors(self) -> np.ndarray:
        """Each row's weight^(1/2) * scale."""
        return np.array([math.sqrt(r.weight) * r.scale for r in self.rows])

    def as_matrix(self) -> SparseMatrix:
        return self.pattern_matrix().row_scaled(self.row_factors())

    def rhs_vector(self) -> np.ndarray:
        return self.row_factors() * self.pattern_rhs()

    def pattern_matrix(self) -> SparseMatrix:
        entries = []
        for r, row in enumerate(self.rows):
            for (c, v) in row.pattern_entries():
                entries.append((r, c, v))
        return SparseMatrix.from_entries(self.n_rows, self.n_vars, entries)

    def pattern_rhs(self) -> np.ndarray:
        return np.array([r.rhs for r in self.rows])

    def is_unit(self) -> bool:
        return all(r.weight == 1.0 and r.scale == 1.0 for r in self.rows)


def plain_da_system(n_vars: int, rows: Sequence[DARow]) -> WeightedDASystem:
    """A unit-weight, unit-scale system; all rows count as main rows."""
    rows = tuple(rows)
    if any(r.weight != 1.0 or r.scale != 1.0 for r in rows):
        raise ValueError("plain systems must have unit weights and scales")
    return WeightedDASystem(n_vars, rows, len(rows), 0)


@dataclass(frozen=True)
class AuxRecord:
    new_var: int
    pair: tuple[int, int]
    sign: int
    bit: int
    source_row: int


@dataclass(frozen=True)
class DAReductionTrace:
    n_original: int
    aux_assignment_order: tuple[AuxRecord, ...]


def _classify_scaled_da(coef: dict[int, int], rhs: float, weight: float):
    """Recognize rows that are a power-of-two multiple of a canonical pattern,
    returned as that pattern's row with the given weight.

    Zero-auxiliary rows must take the weighted already-canonical branch for
    the exact-reduction identity to hold, so the match is up to scale.
    """
    if len(coef) == 2:
        (va, ca), (vb, cb) = sorted(coef.items())
        if ca > 0 > cb and ca == -cb and _is_pow2(ca):
            return difference_row(va, vb, rhs / ca, weight, float(ca))
        if cb > 0 > ca and cb == -ca and _is_pow2(cb):
            return difference_row(vb, va, rhs / cb, weight, float(cb))
        return None
    if len(coef) == 3 and rhs == 0.0:
        pos = sorted((v, c) for v, c in coef.items() if c > 0)
        neg = [(v, c) for v, c in coef.items() if c < 0]
        if len(pos) == 2 and len(neg) == 1:
            (vi, ci), (vj, cj) = pos
            (vk, ck) = neg[0]
            if ci == cj and ck == -2 * ci and _is_pow2(ci):
                return average_row(vi, vj, vk, weight, float(ci))
    return None


def gz2_to_da(sys: GeneralSystem, alpha: float = 1.0):
    """Rewrite a power-of-two system as a weighted difference-average system.

    Per row and per sign, variables whose current coefficient has bit r set
    are paired in ascending index order and each pair is replaced by a fresh
    variable through an average constraint scaled by 2^r, until the row is a
    scaled difference.  Rows that already match a canonical pattern (up to a
    power-of-two scale) are kept with weight alpha/(alpha+1); the auxiliary
    rows of source row i carry weight alpha * |aux_i|.

    Returns (system, rhs, trace) where rhs is the weighted right-hand side
    aligned with ``system.as_matrix()``.
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    if sys.class_tag != CLASS_GZ2:
        raise MatrixClassError("gz2_to_da expects a power-of-two system")
    sys.validate_class()
    n = sys.A.n_cols
    row_data = sys.row_dicts()

    main_rows: list[DARow] = []
    aux_rows: list[DARow] = []
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
        main_rows.append(difference_row(va, vb, rhs / scale, 1.0, scale))
        here = aux_records[first_aux:]
        aux_rows.extend(average_row(*rec.pair, rec.new_var, alpha * len(here),
                                    float(1 << rec.bit)) for rec in here)

    system = WeightedDASystem(
        n_vars=next_var,
        rows=tuple(main_rows + aux_rows),
        n_main=len(main_rows),
        n_aux=len(aux_rows),
    )
    trace = DAReductionTrace(n_original=n, aux_assignment_order=tuple(aux_records))
    return system, system.rhs_vector(), trace


def map_da_solution_back(sys: GeneralSystem, x_b) -> np.ndarray:
    """Map a difference-average solution back: zero if A^T b = 0, else a prefix."""
    x_b = np.asarray(x_b, dtype=np.float64).ravel()
    if x_b.size < sys.A.n_cols:
        raise DimensionError("solution vector is shorter than the variable count")
    atb = sys.A.T.matvec(sys.b)
    if np.all(atb == 0.0):
        return np.zeros(sys.A.n_cols)
    return x_b[: sys.A.n_cols].copy()


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
    nnz_b = sum(len(r.pattern_entries()) for r in da.rows)
    return nnz_b / (sys.A.nnz * math.log2(2.0 + sys.A.max_abs()))
