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


def _pow2_ceil(p: np.ndarray) -> np.ndarray:
    """The least power of two at or above each p >= 1, exact for floats:
    ``frexp`` splits p into m 2^e with m in [0.5, 1), and p is a power of
    two exactly when m is 0.5."""
    mant, exp = np.frexp(p)
    return np.where(mant == 0.5, p, np.ldexp(1.0, exp))


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
        """Raise ``MatrixClassError`` unless the system lies in its class.

        Every class needs integer entries and right-hand side below 2^53, no
        all-zero row or column, and row sums whose power-of-two padding stays
        below 2^53; G_z adds zero row sums and G_z2 positive-entry row sums
        that are powers of two.  Each check is one array pass (``bincount``
        and ``frexp``); the float sums are exact because every partial sum
        is an integer below 2^53.
        """
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
        pos = _positive_row_sums(A)
        neg = np.bincount(A.rows, weights=np.maximum(-A.vals, 0.0), minlength=A.n_rows)
        if np.any(np.maximum(pos, neg) > EXACT_LIMIT / 2):
            raise MatrixClassError(
                "a row's positive-coefficient sum rounds up to a power of two "
                "of at least 2^53, beyond the exact-integer range of float64")
        row_nnz = np.bincount(A.rows, minlength=A.n_rows)
        col_nnz = np.bincount(A.cols, minlength=A.n_cols)
        if np.any(row_nnz == 0) or np.any(col_nnz == 0):
            raise MatrixClassError("all-zero rows and columns are not allowed")
        if self.class_tag in (CLASS_GZ, CLASS_GZ2):
            if np.any(_row_sums(A) != 0.0):
                raise MatrixClassError("row sums must be zero")
        if self.class_tag == CLASS_GZ2:
            if np.any((pos < 1.0) | (_pow2_ceil(pos) != pos)):
                raise MatrixClassError(
                    "positive entries of every row must sum to a power of 2")

    def row_dicts(self) -> list[dict[int, int]]:
        out: list[dict[int, int]] = [dict() for _ in range(self.A.n_rows)]
        for r, c, v in zip(self.A.rows, self.A.cols, self.A.vals):
            out[int(r)][int(c)] = int(v)
        return out


def _row_sums(A: SparseMatrix) -> np.ndarray:
    return np.bincount(A.rows, weights=A.vals, minlength=A.n_rows)


def _positive_row_sums(A: SparseMatrix) -> np.ndarray:
    """Each row's sum of positive entries, in float64: exact while the sums
    of the integer entries stay below 2^53, which ``validate_class`` checks."""
    return np.bincount(A.rows, weights=np.maximum(A.vals, 0.0), minlength=A.n_rows)


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
    row_sums = _row_sums(A)
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
    g = _pow2_ceil(p) - p
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


# the pattern coefficients of a row's variables (i, j, k), by kind
_DIFFERENCE_COEF = (1.0, -1.0, 0.0)
_AVERAGE_COEF = (1.0, 1.0, -2.0)


class WeightedDASystem:
    """A difference-average system split into main and auxiliary rows,
    stored once, as columns.

    Row q is an average row where ``average[q]`` and a difference row
    otherwise; ``var[q]`` holds its variables (i, j, k), with k = -1 for a
    difference row, and ``weight``, ``rhs`` and ``scale`` are as in
    ``DARow``.  The first ``n_main`` rows are the main rows, the other
    ``n_aux`` the auxiliary ones.  The arrays are read-only.

    ``WeightedDASystem(n_vars, rows, n_main, n_aux)`` takes ``DARow``
    records and ``from_columns`` the arrays; both check every row and raise
    ``ValueError`` naming the first bad one.  ``rows`` materializes the
    records on every access, for inspection only.  Two systems are equal
    when their sizes and columns are.
    """

    def __init__(self, n_vars: int, rows: Sequence[DARow], n_main: int, n_aux: int):
        rows = tuple(rows)
        self._store(n_vars, n_main, n_aux, [r.kind == KIND_AVERAGE for r in rows],
                    [(r.i, r.j, -1 if r.k is None else r.k) for r in rows],
                    [r.weight for r in rows], [r.rhs for r in rows], [r.scale for r in rows])

    @classmethod
    def from_columns(cls, n_vars: int, average, var, weight, rhs, scale,
                     n_main: int, n_aux: int) -> "WeightedDASystem":
        system = cls.__new__(cls)
        system._store(n_vars, n_main, n_aux, average, var, weight, rhs, scale)
        return system

    def _store(self, n_vars, n_main, n_aux, average, var, weight, rhs, scale) -> None:
        self.n_vars, self.n_main, self.n_aux = int(n_vars), int(n_main), int(n_aux)
        # copies, so that freezing them leaves the caller's arrays alone
        self.average = np.array(average, dtype=bool).ravel()
        self.var = np.array(var, dtype=np.int64).reshape(-1, 3)
        self.weight, self.rhs, self.scale = (np.array(a, dtype=np.float64).ravel()
                                             for a in (weight, rhs, scale))
        d = self.average.size
        if any(len(a) != d for a in (self.var, self.weight, self.rhs, self.scale)):
            raise ValueError("the row columns differ in length")
        if self.n_main + self.n_aux != d:
            raise ValueError("row partition does not match the row list")
        for a in (self.average, self.var, self.weight, self.rhs, self.scale):
            a.setflags(write=False)
        self._pattern = None
        self._check_rows()

    def _check_rows(self) -> None:
        """Raise ``ValueError`` at the first row that ``DARow`` would refuse
        or that names a variable outside ``range(n_vars)``."""
        i, j, k = self.var.T
        avg = self.average
        unknown = (self.var < 0) | (self.var >= self.n_vars)
        unknown[:, 2] &= avg
        faults = np.array([
            ~avg & ((k != -1) | (i == j)),
            avg & ((i == j) | (j == k) | (i == k)),
            avg & (self.rhs != 0.0),
            ~((self.weight > 0.0) & (self.scale > 0.0)),
            unknown.any(axis=1),
        ]).reshape(5, -1)
        messages = ("difference rows need two distinct variables",
                    "average rows need three distinct variables",
                    "average rows have zero right-hand side",
                    "weight and scale must be positive",
                    f"a variable id outside [0, {self.n_vars})")
        bad = np.flatnonzero(faults.any(axis=0))
        if bad.size:
            q = int(bad[0])
            raise ValueError(f"row {q}: {messages[int(np.argmax(faults[:, q]))]}")

    @property
    def n_rows(self) -> int:
        return self.average.size

    @property
    def pattern_nnz(self) -> int:
        """The number of pattern entries: two a difference row, three an average row."""
        return 2 * self.n_rows + int(np.count_nonzero(self.average))

    @property
    def rows(self) -> tuple[DARow, ...]:
        """Per-row records, materialized on every access; for inspection only."""
        return tuple(DARow(KIND_AVERAGE if a else KIND_DIFFERENCE, i, j, k if a else None,
                           w, r, s)
                     for a, (i, j, k), w, r, s in zip(
                         self.average.tolist(), self.var.tolist(), self.weight.tolist(),
                         self.rhs.tolist(), self.scale.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedDASystem):
            return NotImplemented
        return ((self.n_vars, self.n_main, self.n_aux) == (other.n_vars, other.n_main, other.n_aux)
                and all(np.array_equal(getattr(self, name), getattr(other, name))
                        for name in ("average", "var", "weight", "rhs", "scale")))

    __hash__ = None

    def row_factors(self) -> np.ndarray:
        """Each row's weight^(1/2) * scale."""
        return np.sqrt(self.weight) * self.scale

    def as_matrix(self) -> SparseMatrix:
        return self.pattern_matrix().row_scaled(self.row_factors())

    def rhs_vector(self) -> np.ndarray:
        return self.row_factors() * self.rhs

    def pattern_matrix(self) -> SparseMatrix:
        """The unscaled pattern rows, built on the first call and kept: the
        system never changes."""
        if self._pattern is None:
            self._pattern = SparseMatrix.from_arrays(self.n_rows, self.n_vars,
                                                     *self._pattern_coo())
        return self._pattern

    def _pattern_coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pattern's (row, variable, coefficient) entries, row by row."""
        used = self.var >= 0
        coef = np.where(self.average[:, None], _AVERAGE_COEF, _DIFFERENCE_COEF)
        return np.nonzero(used)[0], self.var[used], coef[used]

    def pattern_rmatvec(self, y) -> np.ndarray:
        """``P^T y`` for the pattern ``P``, without building it: one
        ``np.bincount`` over the entries.  It adds each variable's terms in
        row order, as the CSR transpose product does, so the two agree bit
        for bit."""
        y = np.asarray(y, dtype=np.float64).ravel()
        if y.size != self.n_rows:
            raise DimensionError(f"expected vector of length {self.n_rows}, got {y.size}")
        row, var, coef = self._pattern_coo()
        return np.bincount(var, weights=coef * y[row], minlength=self.n_vars)

    def pattern_rhs(self) -> np.ndarray:
        return self.rhs.copy()

    def is_unit(self) -> bool:
        return bool(np.all(self.weight == 1.0) and np.all(self.scale == 1.0))


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
    returned as that pattern's row (average, (i, j, k), weight, rhs, scale)
    with the given weight.

    Zero-auxiliary rows must take the weighted already-canonical branch for
    the exact-reduction identity to hold, so the match is up to scale.
    """
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

    # rows as (average, (i, j, k), weight, rhs, scale), filled into the columns
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
    system = WeightedDASystem.from_columns(next_var, *columns, len(main_rows), len(aux_rows))
    trace = DAReductionTrace(n_original=n, aux_assignment_order=tuple(aux_records))
    return system, system.rhs_vector(), trace


def map_da_solution_back(sys: GeneralSystem, x_b) -> np.ndarray:
    """Map a difference-average solution back: zero if A^T b = 0, else a prefix."""
    x_b = np.asarray(x_b, dtype=np.float64).ravel()
    if x_b.size < sys.A.n_cols:
        raise DimensionError("solution vector is shorter than the variable count")
    atb = sys.A.to_csr().T @ sys.b
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
    nnz_b = da.pattern_nnz
    return nnz_b / (sys.A.nnz * math.log2(2.0 + sys.A.max_abs()))
