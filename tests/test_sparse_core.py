import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from lin2complex import sparse_core
from lin2complex.b2_reduce import reduce_da_to_b2, reduce_reg
from lin2complex.complex2 import boundary2
from lin2complex.da_reduce import CLASS_G, GeneralSystem, difference_row, plain_da_system
from lin2complex.maxflow_ipm import FlowNetwork2
from lin2complex.pipeline import reduce_chain, solve_general
from lin2complex.sparse_core import (
    LU_DELTA,
    AugmentedSystem,
    DimensionError,
    SparseMatrix,
    certified_lu,
    iterative_solve,
    least_squares,
    lu_solve,
    projection_residual,
    spectral_summary,
)

from _gen import (
    criterion11_systems,
    dense_project,
    infeasible_da_instance,
    random_da_instance,
    three_per_row_system,
)

# the 6x3 disk boundary operator reused across the suite
DISK_D2 = np.array([
    [-1, 0, 0],
    [0, -1, 0],
    [0, 0, 1],
    [1, 0, -1],
    [-1, 1, 0],
    [0, -1, 1],
], dtype=float)


def test_canonical_form_coalesces_and_sorts():
    A = SparseMatrix.from_arrays(2, 2, [1, 0, 1, 0], [1, 0, 1, 1], [2.0, 1.0, -2.0, 0.0])
    assert A.nnz == 1
    assert A.rows.tolist() == [0] and A.cols.tolist() == [0]
    assert A.integer_exact


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_values_are_not_integer_exact(tmp_path, value):
    # inf equals its own rint, but no int64 holds it: the matrix must not
    # be cast, nor written at all, as the reader would refuse the entry
    A = SparseMatrix.from_arrays(1, 2, [0, 0], [0, 1], [1.0, value])
    assert not A.integer_exact
    with pytest.raises(ValueError, match="not integer-exact"):
        A.to_int_csr()
    from lin2complex import fileio

    path = tmp_path / "A.mtx"
    with pytest.raises(ValueError, match=re.escape(f"the matrix for {path} holds {value:g} at")):
        fileio.write_matrix(path, A)
    assert not path.exists()


@pytest.mark.parametrize("value, exact", [(1e300, False), (2.0 ** 63, False),
                                          (-(2.0 ** 63), False), (2.0 ** 63 - 1024, True),
                                          (-(2.0 ** 62), True)])
def test_integer_exact_means_int64_holds_every_value(tmp_path, value, exact):
    # a finite integral value of 2^63 or more used to be cast to int64 and
    # written as -9223372036854775808 under an "integer" header
    from lin2complex import fileio

    A = SparseMatrix.from_dense([[value, 1.0]])
    assert A.integer_exact is exact
    fileio.write_matrix(tmp_path / "A.mtx", A)
    header = (tmp_path / "A.mtx").read_text().splitlines()[0]
    assert ("integer" if exact else "real") in header
    back = fileio.read_matrix(tmp_path / "A.mtx")
    assert back.integer_exact is exact and np.array_equal(back.vals, A.vals)


def test_canonical_order_row_major():
    A = SparseMatrix.from_arrays(3, 3, [2, 0, 0, 1], [0, 2, 1, 1], [1.0, 1.0, 1.0, 1.0])
    coords = list(zip(A.rows.tolist(), A.cols.tolist()))
    assert coords == sorted(coords)


def _numpy_canonical(rows, cols, vals):
    """Canonical COO by NumPy alone: sort row-major, sum duplicates, drop
    zeros."""
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    first = np.ones(rows.size, dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    summed = np.zeros(int(first.sum()))
    np.add.at(summed, np.cumsum(first) - 1, vals)
    keep = summed != 0.0
    return rows[first][keep], cols[first][keep], summed[keep]


# small integer values: duplicates are common on a 5x5 grid, some cancel,
# and their sums are exact whatever order they are added in
COO_ENTRIES = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(-2, 2)),
                       max_size=30)


@settings(max_examples=60, deadline=None)
@given(COO_ENTRIES, st.lists(st.sampled_from([0.0, 0.5, 3.0]), min_size=5, max_size=5))
def test_stored_csr_matches_a_numpy_coalesce(entries, scale):
    rows, cols, vals = (np.array([e[k] for e in entries], dtype=dtype)
                        for k, dtype in enumerate((np.int64, np.int64, np.float64)))
    A = SparseMatrix.from_arrays(5, 5, rows, cols, vals)
    for got, want in zip((A.rows, A.cols, A.vals), _numpy_canonical(rows, cols, vals)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert A.integer_exact

    csr = A.to_csr()
    assert A.to_csr() is csr
    assert not any(a.flags.writeable for a in (csr.data, csr.indices, csr.indptr))
    if A.nnz:
        with pytest.raises(ValueError):
            csr.data[0] = 1.0

    scale = np.array(scale)
    scaled = A.row_scaled(scale)
    assert not np.any(scale[scaled.rows] == 0.0)
    for got, want in zip((scaled.rows, scaled.cols, scaled.vals),
                         _numpy_canonical(A.rows, A.cols, A.vals * scale[A.rows])):
        assert np.array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 4))
def test_from_columns_is_from_arrays(seed, k):
    # k entries a column, repeated rows included, some of which cancel
    rng = np.random.default_rng(seed)
    n_rows, n_cols = int(rng.integers(1, 7)), int(rng.integers(0, 6))
    rows = rng.integers(0, n_rows, size=(n_cols, k))
    vals = rng.choice([-1.0, 1.0, 2.0], size=(n_cols, k))
    built = SparseMatrix.from_columns(n_rows, rows, vals)
    expected = SparseMatrix.from_arrays(n_rows, n_cols, rows.ravel(),
                                        np.repeat(np.arange(n_cols), k), vals.ravel())
    assert built.equals(expected) and built.shape == (n_rows, n_cols)
    assert built.to_csr().indices.dtype == expected.to_csr().indices.dtype
    assert np.array_equal(built.rows, expected.rows) and np.array_equal(built.cols, expected.cols)
    assert built.to_csr().has_canonical_format


def test_from_columns_rejects_a_row_out_of_range():
    for rows in ([[0, 3]], [[-1, 0]]):
        with pytest.raises(DimensionError, match="row index out of range for 3 rows"):
            SparseMatrix.from_columns(3, rows, (-1.0, 1.0))


def test_matvec_identity():
    A = SparseMatrix.from_scipy(sp.identity(2))
    assert np.array_equal(A @ np.array([3.0, -1.0]), np.array([3.0, -1.0]))


def test_matvec_disk_column_sums():
    A = SparseMatrix.from_dense(DISK_D2)
    assert np.array_equal(A @ np.ones(3), np.array([-1.0, -1.0, 1.0, 0.0, 0.0, 0.0]))


def test_matvec_dimension_mismatch():
    A = SparseMatrix.from_scipy(sp.identity(3))
    with pytest.raises(DimensionError):
        A.matvec(np.ones(4))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_matvec_matches_dense(seed):
    rng = np.random.default_rng(seed)
    dense = rng.integers(-9, 10, size=(5, 4)).astype(float)
    x = rng.normal(size=4)
    A = SparseMatrix.from_dense(dense)
    assert np.allclose(A @ x, dense @ x, rtol=1e-12, atol=1e-12)


def test_least_squares_identity():
    A = SparseMatrix.from_scipy(sp.identity(4))
    b = np.array([1.0, -2.0, 3.0, 0.5])
    res = least_squares(A, b, 1e-10)
    assert res.converged
    assert np.allclose(res.x, b)
    assert np.linalg.norm(A @ res.x - b) < 1e-12


def test_least_squares_reweighted_two_equation_system():
    # rows (1,-1), (-1,1), (1,-1) scaled by 1/sqrt2, 1, 1/sqrt2; the optimum
    # keeps x1 - x2 = 1/2
    s = 1 / np.sqrt(2)
    A = SparseMatrix.from_dense([[s, -s], [-1, 1], [s, -s]])
    b = np.array([s, 0.0, s])
    res = least_squares(A, b, 1e-10)
    assert res.converged
    assert res.x[0] - res.x[1] == pytest.approx(0.5, abs=1e-9)


def test_least_squares_matches_pseudo_inverse():
    rng = np.random.default_rng(11)
    dense = rng.integers(-5, 6, size=(4, 3)).astype(float)
    b = rng.normal(size=4)
    res = least_squares(SparseMatrix.from_dense(dense), b, 1e-12)
    x_star = np.linalg.pinv(dense) @ b
    assert np.allclose(dense @ res.x, dense @ x_star, atol=1e-8)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_least_squares_consistent_reaches_tolerance(seed):
    rng = np.random.default_rng(seed)
    dense = rng.integers(-4, 5, size=(6, 4)).astype(float)
    x = rng.normal(size=4)
    b = dense @ x
    if np.linalg.norm(b) == 0:
        return
    res = least_squares(SparseMatrix.from_dense(dense), b, 1e-8)
    assert res.converged
    assert np.linalg.norm(dense @ res.x - b) <= 1e-8 * np.linalg.norm(b) + 1e-12


def test_least_squares_result_invariants():
    rng = np.random.default_rng(5)
    dense = rng.integers(-5, 6, size=(7, 4)).astype(float)
    b = rng.normal(size=7)
    res = least_squares(SparseMatrix.from_dense(dense), b, 1e-8)
    residual = np.linalg.norm(dense @ res.x - b)
    assert residual >= 0 and res.projected_residual >= 0
    assert residual ** 2 >= res.projected_residual ** 2 - 1e-9


def test_least_squares_reports_non_convergence(monkeypatch):
    # damping of 1e-2 biases the LU answer far beyond rel_tol = 1e-12, and
    # no other candidate follows it
    monkeypatch.setattr(sparse_core, "LU_DELTA", 1e-2)
    factors, runs = [], []
    splu, lsqr = sparse_core.spla.splu, sparse_core.spla.lsqr

    def counting_lsqr(*args, **kwargs):
        out = lsqr(*args, **kwargs)
        runs.append(out[2])
        return out
    monkeypatch.setattr(sparse_core.spla, "splu",
                        lambda *args, **kwargs: factors.append(1) or splu(*args, **kwargs))
    monkeypatch.setattr(sparse_core.spla, "lsqr", counting_lsqr)
    rng = np.random.default_rng(2)
    dense = rng.normal(size=(30, 20))
    b = rng.normal(size=30)
    res = least_squares(SparseMatrix.from_dense(dense), b, 1e-12)
    assert not res.converged and res.method == "lu_colamd"
    # one factor, and one LSQR run, the reference, whose iterations it reports
    assert len(factors) == 1 and len(runs) == 1 and res.iterations == runs[0] > 0


def test_least_squares_converged_holds_against_a_dense_projection():
    # criterion 7's weighted boundary problems: whenever least_squares
    # claims convergence, the true ratio against a dense projection meets it
    rng = np.random.default_rng(6)
    for _ in range(50):
        sys_da, b = infeasible_da_instance(rng, int(rng.integers(2, 7)),
                                           int(rng.integers(0, 5)))
        P, eps_b2 = reduce_reg(sys_da, b, eps_da=0.25)
        A, rhs = P.weighted_matrix(), P.weighted_rhs()
        res = least_squares(A, rhs, eps_b2)
        pib = dense_project(A.to_dense(), rhs)
        ratio = np.linalg.norm(A @ res.x - pib) / np.linalg.norm(pib)
        assert not res.converged or ratio <= eps_b2


def _random_least_squares_problems(count: int):
    """``count`` draws of dense-ish integer least-squares problems, 3 to 59
    rows and 2 to 39 columns: every fourth has a dependent last column,
    every fourth column norms spread over 1e5, every fourth a last row that
    nearly repeats the first.  An all-zero A is skipped, its draws kept."""
    rng = np.random.default_rng(2026)
    for trial in range(count):
        m, n = int(rng.integers(3, 60)), int(rng.integers(2, 40))
        dens = rng.uniform(0.1, 1.0)
        A = rng.integers(-50, 51, size=(m, n)) * (rng.random((m, n)) < dens)
        if trial % 4 == 1 and n > 2:
            A[:, -1] = A[:, 0] + A[:, 1]
        if trial % 4 == 2:
            A = A * (10 ** rng.integers(0, 6, size=n))
        if trial % 4 == 3:
            A[-1] = A[0] + (rng.random(n) < 0.05)
        A = A.astype(float)
        if not np.any(A):
            continue
        yield A, rng.normal(size=m) * 10


def test_least_squares_certifies_random_problems_on_one_pivoted_factor(monkeypatch):
    # the symmetric factor without pivoting missed rel_tol 1e-6 on 16 of
    # these 100; COLAMD with partial pivoting certifies all, the worst
    # dense ratio 1.0e-11
    factors = []
    splu = sparse_core.spla.splu
    monkeypatch.setattr(sparse_core.spla, "splu",
                        lambda *args, **kwargs: factors.append(1) or splu(*args, **kwargs))
    solves = 0
    for A, b in _random_least_squares_problems(100):
        res = least_squares(SparseMatrix.from_dense(A), b, 1e-6)
        solves += 1
        assert len(factors) == solves
        assert res.converged and (res.rounds, res.method) == (1, "lu_colamd")
        pib = dense_project(A, b)
        assert np.linalg.norm(A @ res.x - pib) <= 1e-10 * np.linalg.norm(pib)
    assert solves > 90
    # the chain factors once a solve too, the uncertified ones included:
    # criterion 11 at alpha 1e8 certifies 13 of its 20 draws
    factors.clear()
    converged = [solve_general(sys, 1e-3, alpha=1e8)[1].converged
                 for sys in criterion11_systems()]
    assert len(factors) == 20 and not all(converged)


def test_least_squares_rejects_bad_tolerance():
    A = SparseMatrix.from_scipy(sp.identity(2))
    with pytest.raises(ValueError):
        least_squares(A, np.ones(2), 1.5)


def test_a_nan_certificate_certifies_nothing():
    # a nan ||P b|| used to give ratio 0, so a nan rhs certified
    A = SparseMatrix.from_scipy(sp.identity(2))
    with pytest.raises(ValueError, match="right-hand side holds nan at entry 1"):
        least_squares(A, [1.0, np.nan], 1e-6)
    # the answer x = (1, 0) against a nan reference
    verdict = certified_lu(A, [1.0, 0.0], False, A, [1.0, np.nan], 1e-6)
    assert verdict.x.tolist() == [1.0, 0.0]
    assert not verdict.converged and np.isnan(verdict.achieved_ratio)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_rhs_certifies_nothing_on_a_zero_matrix(bad):
    # A @ x_ref of a zero A is 0 for the all-nan reference, which gave
    # ||P b|| = 0, ratio 0 and converged True
    Z = SparseMatrix.from_arrays(2, 2, [], [], [])
    verdict = certified_lu(Z, [1.0, 0.0], False, Z, [1.0, bad], 1e-6)
    assert not verdict.converged
    assert np.isnan(verdict.achieved_ratio) and np.isnan(verdict.projected_rhs_norm)


def test_a_nan_reference_runs_no_lsqr_iteration():
    # a non-finite rhs has no projection: the reference is all nan at once
    A = SparseMatrix.from_scipy(sp.identity(2))
    verdict = certified_lu(A, [1.0, 0.0], False, A, [1.0, np.nan], 1e-6)
    assert verdict.iterations == 0
    assert not verdict.converged and np.isnan(verdict.achieved_ratio)
    x, iterations = iterative_solve(A, [np.inf, 1.0], 1e-8)
    assert iterations == 0 and np.all(np.isnan(x))


def _badly_scaled_matrix():
    """40x10 sparse matrix whose column norms spread over about 1e3, with
    row 7 and column 4 all zero."""
    rng = np.random.default_rng(21)
    dense = rng.integers(-5, 6, size=(40, 10)) * (rng.random((40, 10)) < 0.4)
    dense = dense * np.logspace(-1.5, 1.5, 10)
    dense[7, :] = 0.0
    dense[:, 4] = 0.0
    return dense, rng


# both column-equilibrated solves return (x, work): LSQR iterations or LU fill
COLUMN_SCALED_SOLVES = {
    "lsqr": lambda A, b: iterative_solve(A, b, 1e-12),
    "lu": lu_solve,
}


@pytest.mark.parametrize("solve", sorted(COLUMN_SCALED_SOLVES))
@pytest.mark.parametrize("consistent", [True, False])
def test_iterative_solve_matches_dense_projection(consistent, solve):
    dense, rng = _badly_scaled_matrix()
    norms = np.linalg.norm(dense, axis=0)
    assert norms[norms > 0].max() / norms[norms > 0].min() > 5e2
    b = dense @ rng.normal(size=10) if consistent else rng.normal(size=40)
    x, work = COLUMN_SCALED_SOLVES[solve](SparseMatrix.from_dense(dense), b)
    pib = dense @ (np.linalg.pinv(dense) @ b)
    assert np.linalg.norm(dense @ x - pib) <= 1e-8 * np.linalg.norm(pib)
    assert x[4] == 0.0
    assert 0 < work


def test_augmented_system_solves_the_dense_kkt_matrix():
    # values written into the cached pattern land where a dense K puts them,
    # for a right-hand side on either block and for two patterns' worth of values
    rng = np.random.default_rng(4)
    B = rng.normal(size=(7, 5)) * (rng.random((7, 5)) < 0.5)
    B[:, 2] = 0.0
    rows, cols = np.nonzero(B)
    system = AugmentedSystem(7, 5, rows, cols)
    for scale in (1.0, 1e-3):
        K = np.block([[np.eye(7), scale * B], [scale * B.T, -LU_DELTA * np.eye(5)]])
        lu = system.factor(scale * B[rows, cols])
        rhs = rng.normal(size=(12, 2))
        sol = lu.solve(rhs)
        assert np.linalg.norm(K @ sol - rhs) <= 1e-10 * np.linalg.norm(rhs)
        assert system.fill(lu) >= 1.0


def test_fill_is_the_materialized_factor_size(monkeypatch):
    # fill reads lu.nnz, the entries SuperLU stores; only this test builds
    # lu.L and lu.U, on criterion 11's chains and a 24.7k-triangle rung
    fills = []
    fill = AugmentedSystem.fill

    def materialized(system, lu):
        fills.append((fill(system, lu), (lu.L.nnz + lu.U.nnz) / system.indices.size))
        return fills[-1][0]
    monkeypatch.setattr(AugmentedSystem, "fill", materialized)
    for sys in [*criterion11_systems(), three_per_row_system(8, 40)]:
        problem = reduce_chain(sys, 1e-3).problem
        lu_solve(problem.weighted_matrix(), problem.weighted_rhs())
    assert len(fills) == 21
    for got, want in fills:
        assert abs(got - want) <= 0.01 * want


def _assert_dense_kkt_pattern(system, B, vals):
    # the canonical CSC is unique, so K's arrays equal those of the CSC that
    # scipy makes of the dense K
    m, n = B.shape
    K = sp.csc_matrix(np.block([[np.eye(m), B], [B.T, -LU_DELTA * np.eye(n)]]))
    data = np.concatenate([np.ones(m), np.full(n, -LU_DELTA), vals, vals])[system.order]
    assert np.array_equal(system.indices, K.indices)
    assert np.array_equal(system.indptr, K.indptr)
    assert np.array_equal(data, K.data)


@pytest.mark.parametrize("order", ["rows", "columns", "shuffled"])
def test_augmented_system_pattern_is_the_canonical_csc(order):
    # whatever order B's entries come in
    rng = np.random.default_rng(9)
    for m, n in ((1, 1), (7, 5), (40, 23)):
        B = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.4)
        B[0, 0] = 1.0
        rows, cols = np.nonzero(B)
        if order == "columns":
            by_col = np.lexsort((rows, cols))
            rows, cols = rows[by_col], cols[by_col]
        elif order == "shuffled":
            shuffle = rng.permutation(rows.size)
            rows, cols = rows[shuffle], cols[shuffle]
        _assert_dense_kkt_pattern(AugmentedSystem(m, n, rows, cols), B, B[rows, cols])


def test_flow_network_kkt_is_the_canonical_csc():
    # the maxflow Newton system's B = d2^T, triangles by edges, entered in
    # d2's row-major order
    P = reduce_da_to_b2(plain_da_system(2, [difference_row(0, 1)]), np.array([1.0]))
    net = FlowNetwork2(P.K, np.ones(P.n_triangles), P.gamma)
    d2 = net.d2()
    _assert_dense_kkt_pattern(net.kkt(), d2.to_dense().T, d2.vals)


def test_gram_spectrum_matches_a_dense_eigvalsh_on_a_ladder_rung():
    # build_ladder's recipe (bench/gen.py) at n = 3, 2,104 triangles: the
    # symmetric factor of G + GRAM_SHIFT I finds the dense nullity, and its
    # zero eigenvalues stay at the rounding level (1.6e-16 measured)
    spec = importlib.util.spec_from_file_location(
        "bench_gen", Path(__file__).resolve().parents[1] / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    A, x_star = gen.planted_system(np.random.default_rng(11), 3, 3, 50, None, 3, 3)
    sys = GeneralSystem(SparseMatrix.from_dense(A), A @ x_star, CLASS_G)
    d2 = reduce_chain(sys, 1e-3).problem.d2
    eig, nullity = sparse_core.gram_spectrum(d2)
    D = d2.to_dense()
    dense = np.linalg.eigvalsh(D.T @ D)
    zero = dense <= dense.size * np.finfo(float).eps * dense[-1]
    assert d2.n_cols > 2000 and nullity == int(zero.sum()) > 0
    assert np.all(np.abs(eig[:nullity]) <= 1e-15)
    assert eig[nullity] == pytest.approx(dense[~zero][0], rel=1e-6)


def test_gram_spectrum_agrees_with_a_dense_svd():
    # the nullity and smallest nonzero eigenvalue of d2^T d2 on small
    # complexes, one of them rank deficient, against a dense SVD of d2
    rng = np.random.default_rng(42)
    rows = [difference_row(0, 1), difference_row(0, 1), difference_row(2, 3)]
    corpus = [(plain_da_system(4, rows), np.array([1.0, 1.0, 0.0]))]
    corpus += [random_da_instance(rng, n, extra) for n, extra in
               ((2, 0), (3, 2), (6, 4), (9, 1), (12, 10), (16, 14), (40, 35))]
    for sys, b in corpus:
        d2 = reduce_da_to_b2(sys, b).d2
        assert d2.n_cols <= 2000
        s = np.linalg.svd(d2.to_dense(), compute_uv=False)
        rank = int(np.sum(s > max(d2.shape) * np.finfo(float).eps * s[0]))
        eig, nullity = sparse_core.gram_spectrum(d2)
        assert nullity == d2.n_cols - rank
        assert eig[nullity] == pytest.approx(s[rank - 1] ** 2, rel=1e-8)


def test_gram_spectrum_factors_once_while_k_doubles(monkeypatch):
    # five disjoint difference rows: G has nullity 5, so k doubles from 4 to
    # 8, and both Lanczos runs go over the one factor of G + GRAM_SHIFT I
    sys = plain_da_system(10, [difference_row(2 * i, 2 * i + 1) for i in range(5)])
    d2 = boundary2(reduce_da_to_b2(sys, np.arange(5.0)).K)
    splu, calls = sparse_core.spla.splu, []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return splu(*args, **kwargs)
    monkeypatch.setattr(sparse_core.spla, "splu", counted)
    eig, nullity = sparse_core.gram_spectrum(d2)
    D = d2.to_dense()
    dense = np.linalg.eigvalsh(D.T @ D)
    zero = dense <= dense.size * np.finfo(float).eps * dense[-1]
    assert (len(calls), eig.size, nullity) == (1, 8, 5)
    assert nullity == int(zero.sum())


def test_iterative_solve_zero_rhs():
    dense, _ = _badly_scaled_matrix()
    x, iters = iterative_solve(SparseMatrix.from_dense(dense), np.zeros(40), 1e-8)
    assert iters == 0 and not np.any(x)


def test_projection_residual_consistent_rhs():
    rng = np.random.default_rng(3)
    dense = rng.integers(-3, 4, size=(5, 3)).astype(float)
    x = rng.normal(size=3)
    b = dense @ x
    pr, pn = projection_residual(SparseMatrix.from_dense(dense), x, b)
    assert pr <= 1e-9 * max(pn, 1.0)
    assert pn == pytest.approx(np.linalg.norm(b), rel=1e-9)


def test_projection_residual_reweighted_optimum():
    s = 1 / np.sqrt(2)
    A = SparseMatrix.from_dense([[s, -s], [-1, 1], [s, -s]])
    b = np.array([s, 0.0, s])
    pr, pn = projection_residual(A, np.array([0.5, 0.0]), b)
    assert pr <= 1e-9
    assert pn > 0


def test_projection_residual_matches_dense_projector():
    rng = np.random.default_rng(9)
    dense = rng.integers(-5, 6, size=(6, 4)).astype(float)
    b = rng.normal(size=6)
    x = rng.normal(size=4)
    pr, pn = projection_residual(SparseMatrix.from_dense(dense), x, b)
    pib = dense @ (np.linalg.pinv(dense) @ b)
    assert pr == pytest.approx(np.linalg.norm(dense @ x - pib), abs=1e-8)
    assert pn == pytest.approx(np.linalg.norm(pib), abs=1e-8)


def test_spectral_summary_identity():
    s = spectral_summary(SparseMatrix.from_scipy(sp.identity(3)))
    assert s.sigma_max == pytest.approx(1.0)
    assert s.sigma_min_nonzero == pytest.approx(1.0)
    assert s.rank == 3


def test_spectral_summary_disk_rank():
    s = spectral_summary(SparseMatrix.from_dense(DISK_D2))
    assert s.rank == 3
    assert s.sigma_max / s.sigma_min_nonzero < 10


def test_spectral_summary_zero_matrix():
    A = SparseMatrix.from_arrays(3, 2, [], [], [])
    s = spectral_summary(A)
    assert s.sigma_max == 0.0 and s.rank == 0
