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
        # the magnitude first: an entry of 2^63 or more is not integer_exact
        if A.max_abs() >= EXACT_LIMIT or np.any(np.abs(self.b) >= EXACT_LIMIT):
            raise MatrixClassError(
                "entries and right-hand side must have magnitude below 2^53, "
                "the exact-integer range of float64")
        if not A.integer_exact:
            raise MatrixClassError("entries must be integers")
        if not np.all(self.b == np.rint(self.b)):
            raise MatrixClassError("right-hand side must be integral")
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
    of (A', x') equals the residual of (A, back_map(x')) identically.  The
    input's class-G check covers the output: it bounds the new entries, row
    sums of A, and the output's positive row sums by 2^52.
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
    return GeneralSystem(A2, b, CLASS_GZ), ShiftBack(A.n_cols)


def to_pow2(sys: GeneralSystem):
    """Append a variable pair so each positive-coefficient row sum is a power of 2.

    Row i gains g_i = 2^ceil(log2 p_i) - p_i on the new variable and -g_i on
    its twin; one extra row ties the twins together with rhs 0.  The back map
    drops the two appended variables.  The input's class check covers the
    output: it bounds p_i, and so each g_i and rounded-up sum, by 2^52.
    """
    if sys.class_tag not in (CLASS_GZ, CLASS_GZ2):
        raise MatrixClassError("to_pow2 expects a zero-row-sum system")
    sys.validate_class()
    A, b = sys.A, sys.b
    p = _positive_row_sums(A)
    g = _pow2_ceil(p) - p
    n, d = A.n_cols, A.n_rows
    nz = np.flatnonzero(g)
    A2 = SparseMatrix.from_arrays(
        d + 1, n + 2, np.concatenate([A.rows, nz, nz, [d, d]]),
        np.concatenate([A.cols, np.full(nz.size, n), np.full(nz.size, n + 1), [n, n + 1]]),
        np.concatenate([A.vals, g[nz], -g[nz], [1.0, -1.0]]))
    return GeneralSystem(A2, np.concatenate([b, [0.0]]), CLASS_GZ2), DropTailBack(n)


# ---------------------------------------------------------------------------
# Difference-average systems.

@dataclass(frozen=True)
class DARow:
    """One difference or average equation in canonical form, as a record.

    The stored equation is ``pattern . x = rhs`` with pattern x(i) - x(j)
    or x(i) + x(j) - 2 x(k); ``scale`` is the power-of-two factor divided
    out during canonicalization and ``weight`` the least-squares row weight,
    so the matrix row is weight^(1/2) * scale * pattern.  The record checks
    nothing: ``WeightedDASystem`` checks the rows it is built from.
    """

    kind: str
    i: int
    j: int
    k: int | None = None
    weight: float = 1.0
    rhs: float = 0.0
    scale: float = 1.0


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
    ``n_aux`` the auxiliary ones.  The constructor copies the columns,
    makes them read-only and checks every row, raising ``ValueError``
    naming the first bad one.  Two systems are equal when their sizes and
    columns are.
    """

    def __init__(self, n_vars: int, average, var, weight, rhs, scale,
                 n_main: int, n_aux: int):
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
        """Raise ``ValueError`` at the first row that breaks a row rule or
        names a variable outside ``range(n_vars)``."""
        i, j, k = self.var.T
        avg = self.average
        unknown = (self.var < 0) | (self.var >= self.n_vars)
        unknown[:, 2] &= avg
        faults = np.array([
            ~avg & ((k != -1) | (i == j)),
            avg & ((i == j) | (j == k) | (i == k)),
            ~(np.isfinite(self.weight) & np.isfinite(self.scale) & np.isfinite(self.rhs)),
            avg & (self.rhs != 0.0),
            ~((self.weight > 0.0) & (self.scale > 0.0)),
            unknown.any(axis=1),
        ]).reshape(6, -1)
        messages = ("difference rows need two distinct variables",
                    "average rows need three distinct variables",
                    "weight, scale and right-hand side must be finite",
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

    def is_unit(self) -> bool:
        return bool(np.all(self.weight == 1.0) and np.all(self.scale == 1.0))


def plain_da_system(n_vars: int, rows: Sequence[DARow]) -> WeightedDASystem:
    """A unit-weight, unit-scale system of ``DARow`` records; all rows count
    as main rows.  Raises ``ValueError`` naming the first row of unknown
    kind; ``WeightedDASystem`` checks the other row rules."""
    rows = tuple(rows)
    for q, r in enumerate(rows):
        if r.kind not in (KIND_DIFFERENCE, KIND_AVERAGE):
            raise ValueError(f"row {q}: unknown row kind {r.kind!r}")
    if any(r.weight != 1.0 or r.scale != 1.0 for r in rows):
        raise ValueError("plain systems must have unit weights and scales")
    ones = np.ones(len(rows))
    return WeightedDASystem(n_vars, [r.kind == KIND_AVERAGE for r in rows],
                            [(r.i, r.j, -1 if r.k is None else r.k) for r in rows],
                            ones, [r.rhs for r in rows], ones, len(rows), 0)


def _canonical_rows(A: SparseMatrix, b: np.ndarray, coef: np.ndarray):
    """The rows that are a power-of-two multiple of a canonical pattern: a
    two-entry row ``c x(i) - c x(j)``, or a three-entry row
    ``c x(i) + c x(j) - 2c x(k)`` with zero right-hand side, c a power of two.
    The class check has proved the rest of the pattern: a G_z2 row sums to
    zero and its positive entries to a power of two, so every two-entry row
    is canonical, and so is a three-entry row with zero right-hand side and
    two equal positive entries.  Returns (mask, average, var, scale) over
    all rows, where var holds (i, j, k) with i < j and scale is c for the
    average rows; ``gz2_to_da`` pairs the differences down like the other
    rows."""
    d = A.n_rows
    start, size = A.to_csr().indptr[:-1], np.diff(A.to_csr().indptr)
    mask, average = size == 2, np.zeros(d, bool)
    var, scale = np.zeros((d, 3), np.int64), np.zeros(d, np.int64)
    three = np.flatnonzero((size == 3) & (b == 0.0))
    e = start[three, None] + [0, 1, 2]
    # the positive entries first, each side in variable order
    e = np.take_along_axis(e, np.argsort(coef[e] < 0, axis=1, kind="stable"), axis=1)
    c = coef[e]
    ok = (c[:, 1] > 0) & (c[:, 2] < 0) & (c[:, 0] == c[:, 1])
    var[three], scale[three], mask[three], average[three] = A.cols[e], c[:, 0], ok, ok
    return mask, average, var, scale


def _pair_levels(group: np.ndarray, var: np.ndarray, mag: np.ndarray,
                 n_groups: int, first_id: int):
    """Bitwise pair-and-replace in every group at once, all bit levels in
    one pass of array operations.

    ``group``, ``var`` and ``mag`` list the coefficients as (group, variable,
    magnitude), sorted by group and variable.  The pairing runs levels
    r = 0, 1, ... while a group holds more than one item: at level r the
    group pairs its items with bit r set, the original variables in index
    order and then the auxiliary ones of level r - 1 in creation order, and
    each pair loses 2^r from both and becomes one auxiliary item of 2^(r+1).
    The magnitudes keep their sum S, a power of two 2^P on the G_z2 rows of
    ``gz2_to_da``, so a group of two or more items runs levels 0 .. P-1 and
    ends with the one auxiliary item of level P-1.  Level r pairs ``o_r``
    original items (those with bit r set) and the ``a_(r-1)`` auxiliary
    ones of level r - 1, and makes
    ``a_r = (o_r + a_(r-1)) / 2 = (sum over s <= r of o_s 2^s) / 2^(r+1)``
    new ones, so every level's pairs are known up front.

    Returns (aux, survivor, total): the auxiliary variables as (group,
    level, left, right) columns ordered by (group, level, pair), which is
    their id order from ``first_id`` up (left and right are ids in that
    numbering), each group's last item (-1 for an empty group) and its S.
    """
    items = np.bincount(group, minlength=n_groups)
    total = np.zeros(n_groups, np.int64)
    np.add.at(total, group, mag)
    paired = items > 1
    levels = int(total[paired].max(initial=1)).bit_length() - 1  # the largest P

    # the set bits of the paired groups' items, by (group, level, variable)
    e = np.flatnonzero(paired[group])
    entry, level = np.nonzero((mag[e, None] >> np.arange(levels)) & 1)
    cell = group[e][entry] * levels + level
    order = np.argsort(cell, kind="stable")
    bit_var = var[e][entry][order]
    o = np.bincount(cell, minlength=n_groups * levels).reshape(n_groups, levels)
    a = np.cumsum(o << np.arange(levels), axis=1) >> np.arange(1, levels + 1)
    o, a = o.ravel(), a.ravel()
    o_start, a_start = np.cumsum(o) - o, np.cumsum(a) - a

    cell = np.repeat(np.arange(a.size), a)  # each auxiliary variable's (group, level)
    pair = np.arange(cell.size) - a_start[cell]

    def item(pos):
        """The variable at place ``pos`` of its cell's level: an original
        one while ``pos < o``, then one made at the level below."""
        original = pos < o[cell]
        made = first_id + a_start[np.maximum(cell - 1, 0)] + pos - o[cell]
        return np.where(original, bit_var[np.where(original, o_start[cell] + pos, 0)], made)

    aux = (*np.divmod(cell, levels), item(2 * pair), item(2 * pair + 1))
    survivor = np.full(n_groups, -1, np.int64)
    single = np.flatnonzero(items[group] == 1)
    survivor[group[single]] = var[single]
    g = np.flatnonzero(paired)
    last = g * levels + np.frexp(total[g].astype(np.float64))[1] - 2  # level P - 1
    survivor[g] = first_id + a_start[last]
    return aux, survivor, total


def gz2_to_da(sys: GeneralSystem, alpha: float = 1.0):
    """Rewrite a power-of-two system as a weighted difference-average system.

    Per row and per sign, variables whose current coefficient has bit r set
    are paired in ascending index order and each pair is replaced by a fresh
    variable through an average constraint scaled by 2^r, until the row is a
    scaled difference.  Rows that already match a canonical pattern (up to a
    power-of-two scale) are kept with weight alpha/(alpha+1); the auxiliary
    rows of source row i carry weight alpha * |aux_i|.  Auxiliary variables
    are numbered from ``n`` by (row, sign, bit, pair), negative sign first.

    The pairing of every (row, sign) group at every bit level is one pass
    of array operations (``_pair_levels``): a level's pair count follows
    from the bits below it, so nothing loops over rows or levels.  The
    row-by-row loop it replaces is the tests' oracle.  Only the class check
    at entry can fail: a G_z2 row always pairs down to a scaled difference.

    Returns (system, rhs) where rhs is the weighted right-hand side
    ``system.rhs_vector()``, aligned with the weighted rows
    ``pattern_matrix().row_scaled(row_factors())``.  Auxiliary row
    ``n_main + a`` records variable ``n + a``: ``var`` holds the pair it
    replaces and then its id, and ``scale`` is 2^r for the pair's bit r.
    """
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if sys.class_tag != CLASS_GZ2:
        raise MatrixClassError("gz2_to_da expects a power-of-two system")
    sys.validate_class()
    A, b = sys.A, sys.b
    n, d = A.n_cols, A.n_rows
    coef = A.vals.astype(np.int64)  # integers below 2^53, so exact
    canonical, average, var, scale = _canonical_rows(A, b, coef)

    # the (row, sign) groups of every row but the canonical averages, negative sign first
    group = 2 * A.rows + (coef > 0)
    entries = np.flatnonzero(~average[A.rows])
    entries = entries[np.argsort(group[entries], kind="stable")]
    aux, survivor, total = _pair_levels(
        group[entries], A.cols[entries], np.abs(coef[entries]), 2 * d, n)
    aux_group, level, left, right = aux

    # each of these rows ends as 2^P times the difference of its survivors:
    # a G_z2 row sums to zero and its positive entries to 2^P, so either
    # sign's magnitudes sum to 2^P, every level below P pairs an even count
    # and each sign ends in one survivor of magnitude 2^P
    reduced = ~average
    var[reduced, :2], var[reduced, 2] = survivor.reshape(d, 2)[reduced, ::-1], -1
    scale[reduced] = total[1::2][reduced]

    source_row = aux_group // 2
    per_row = np.bincount(source_row, minlength=d)
    scale = scale.astype(np.float64)
    main = (average, var, np.where(canonical, alpha / (alpha + 1.0), 1.0),
            np.where(average, 0.0, b / scale), scale)
    aux_rows = (np.ones(left.size, bool),
                np.stack([left, right, n + np.arange(left.size)], axis=1),
                alpha * per_row[source_row], np.zeros(left.size), np.ldexp(1.0, level))
    system = WeightedDASystem(
        n + left.size, *(np.concatenate(c) for c in zip(main, aux_rows)), d, left.size)
    return system, system.rhs_vector()


def map_da_solution_back(sys: GeneralSystem, x_b) -> np.ndarray:
    """Map a difference-average solution back: zero if A^T b = 0, else a prefix."""
    x_b = np.asarray(x_b, dtype=np.float64).ravel()
    if x_b.size < sys.A.n_cols:
        raise DimensionError("solution vector is shorter than the variable count")
    atb = sys.A.to_csr().T @ sys.b
    if np.all(atb == 0.0):
        return np.zeros(sys.A.n_cols)
    return x_b[: sys.A.n_cols].copy()
