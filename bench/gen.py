"""Seeded input generators and dense oracles for the benchmark workloads.

Every generator draws from a ``numpy.random.Generator`` that the caller
seeds, so one seed always yields the same inputs.  The oracles use dense
numpy linear algebra and the benchmark's own boundary matrix, never the
library's solve paths, so they check the library independently.
"""

from __future__ import annotations

import numpy as np


class GenerationError(RuntimeError):
    """A generator could not meet its acceptance test within its budget."""


def covering_rows(rng: np.random.Generator, n_vars: int, n_rows: int,
                  nnz_lo: int, nnz_hi: int) -> list[list[int]]:
    """Column sets of each row, with every column in some row by construction.

    Row sizes are drawn from [nnz_lo, nnz_hi] and raised where needed so the
    slots can hold every column; a random permutation of the columns fills
    the first ``n_vars`` slots and the rest get random unused columns.
    Unlike a rejection loop this never fails at large ``n_vars``.
    """
    if n_vars > n_rows * nnz_hi or nnz_hi > n_vars:
        raise ValueError("row sizes cannot cover every column")
    sizes = rng.integers(nnz_lo, nnz_hi + 1, size=n_rows)
    while sizes.sum() < n_vars:
        sizes[int(np.argmin(sizes))] += 1
    slots = np.repeat(np.arange(n_rows), sizes)
    rng.shuffle(slots)
    rows: list[list[int]] = [[] for _ in range(n_rows)]
    for col, r in zip(rng.permutation(n_vars), slots[:n_vars]):
        rows[r].append(int(col))
    for r in slots[n_vars:]:
        free = np.setdiff1d(np.arange(n_vars), rows[r])
        rows[r].append(int(rng.choice(free)))
    return rows


def integer_matrix(rng: np.random.Generator, n_vars: int, n_rows: int,
                   max_entry: int, nnz_lo: int, nnz_hi: int) -> np.ndarray:
    """Dense integer matrix with nonzero entries in [-max_entry, max_entry]."""
    A = np.zeros((n_rows, n_vars))
    for r, cols in enumerate(covering_rows(rng, n_vars, n_rows, nnz_lo, nnz_hi)):
        mags = rng.integers(1, max_entry + 1, size=len(cols))
        A[r, cols] = mags * rng.choice((-1.0, 1.0), size=len(cols))
    return A


def condition_number(A: np.ndarray) -> float:
    """Ratio of the largest to the smallest nonzero singular value."""
    s = np.linalg.svd(A, compute_uv=False)
    nz = s[s > max(A.shape) * np.finfo(float).eps * s[0]]
    return float(nz[0] / nz[-1])


def planted_system(rng: np.random.Generator, n_vars: int, n_rows: int,
                   max_entry: int, kappa_max: float | None,
                   nnz_lo: int = 2, nnz_hi: int = 3, tries: int = 200):
    """Class-G matrix with a planted integer solution ``x_star``.

    Returns (A, x_star) as dense float arrays holding exact integers; the
    system is ``A x = A x_star``.  With ``kappa_max`` set, matrices whose
    nonzero singular values spread wider than that are redrawn.
    """
    for _ in range(tries):
        A = integer_matrix(rng, n_vars, n_rows, max_entry, nnz_lo, min(nnz_hi, n_vars))
        if kappa_max is None or condition_number(A) <= kappa_max:
            return A, rng.integers(-6, 7, size=n_vars).astype(float)
    raise GenerationError(f"no {n_rows}x{n_vars} system with kappa <= {kappa_max} "
                          f"in {tries} draws")


def planted_da_rows(rng: np.random.Generator, n_seed: int, n_grow: int,
                    extra: int):
    """Difference-average rows over variables that all appear in some row.

    Returns (n_vars, rows, b) with rows as ("difference", i, j) or
    ("average", i, j, k) tuples and b consistent with a planted solution.
    """
    values = [float(v) for v in rng.integers(-8, 9, size=n_seed)]
    rows: list[tuple] = []
    for _ in range(n_grow):
        n = len(values)
        if rng.random() < 0.5:
            i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
            values.append(0.5 * (values[i] + values[j]))
            rows.append(("average", i, j, n))
        else:
            values.append(float(rng.integers(-8, 9)))
            rows.append(("difference", n, int(rng.integers(0, n))))
    n = len(values)
    for _ in range(extra):
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
        rows.append(("difference", i, j))
    used = {v for row in rows for v in row[1:]}
    rows += [("difference", v, (v + 1) % n) for v in range(n) if v not in used]
    x = np.array(values)
    b = np.array([x[r[1]] - x[r[2]] if r[0] == "difference" else 0.0 for r in rows])
    return n, rows, b


# -- oracles ------------------------------------------------------------------

def projection(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Orthogonal projection of b onto the column space of A."""
    return A @ (np.linalg.pinv(A) @ b)


def certified(A: np.ndarray, b: np.ndarray, x: np.ndarray, eps: float) -> bool:
    """The projected-residual certificate ``||Ax - Pb|| <= eps ||Pb||``."""
    pb = projection(A, b)
    return bool(np.linalg.norm(A @ x - pb) <= eps * np.linalg.norm(pb))


def dense_boundary2(n_edges: int, edges, triangles) -> np.ndarray:
    """Boundary matrix of oriented triangles, built from vertex lists alone.

    ``edges`` holds (tail, head) pairs and ``triangles`` (v0, v1, v2)
    triples; triangle (a, b, c) has boundary ab + bc + ca, and an edge
    traversed against its orientation enters with sign -1.
    """
    index = {(u, v): e for e, (u, v) in enumerate(edges)}
    D = np.zeros((n_edges, len(triangles)))
    for col, (a, b, c) in enumerate(triangles):
        for u, v in ((a, b), (b, c), (c, a)):
            if (u, v) in index:
                D[index[(u, v)], col] += 1.0
            else:
                D[index[(v, u)], col] -= 1.0
    return D
