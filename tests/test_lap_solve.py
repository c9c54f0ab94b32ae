import numpy as np
import pytest

from lin2complex import lap_solve, sparse_core
from lin2complex.b2_reduce import reduce_da_to_b2
from lin2complex.complex2 import (
    boundary1,
    boundary2,
    laplacian1,
)
from lin2complex.da_reduce import difference_row, plain_da_system
from lin2complex.lap_solve import (
    solve_boundary_via_gram,
    solve_boundary_via_laplacian,
)
from lin2complex.sparse_core import SparseMatrix

from _gen import from_triangles, planted_da_instance, triangulate_punctured_sphere

ROUTES = [solve_boundary_via_laplacian, solve_boundary_via_gram]


def tiny_complex():
    sys = plain_da_system(2, [difference_row(0, 1)])
    return reduce_da_to_b2(sys, np.array([1.0])).K


@pytest.mark.parametrize("solver", ROUTES)
def test_feasible_demand(solver):
    rng = np.random.default_rng(1)
    K = tiny_complex()
    d2 = boundary2(K).to_dense()
    f0 = rng.normal(size=d2.shape[1])
    d = d2 @ f0
    f, report = solver(K, d, 1e-4)
    assert report.ok and not report.degenerate
    assert np.linalg.norm(d2 @ f - d) <= 1e-4 * np.linalg.norm(d)


@pytest.mark.parametrize("solver", ROUTES)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_demand_is_refused(solver, bad):
    # the routes used to solve with it and report a nan ratio
    K = tiny_complex()
    d = np.ones(K.n_edges)
    d[3] = bad
    with pytest.raises(ValueError, match=f"demand holds {bad:g} at entry 3"):
        solver(K, d, 1e-4)


@pytest.mark.parametrize("solver", ROUTES)
def test_gradient_demand_is_degenerate(solver):
    rng = np.random.default_rng(2)
    K = tiny_complex()
    d1 = boundary1(K).to_dense()
    d = d1.T @ np.round(rng.normal(size=K.n_vertices, scale=3))
    if np.linalg.norm(d) == 0:
        d = d1.T @ np.ones(K.n_vertices)
    f, report = solver(K, d, 1e-4)
    assert report.degenerate
    assert report.projected_rhs_norm <= 1e-8 * np.linalg.norm(d)


@pytest.mark.parametrize("solver", ROUTES)
def test_integer_demand_matches_pseudo_inverse(solver):
    rng = np.random.default_rng(3)
    K = tiny_complex()
    d2 = boundary2(K).to_dense()
    d = rng.integers(-4, 5, size=d2.shape[0]).astype(float)
    f_star = np.linalg.pinv(d2) @ d
    f, report = solver(K, d, 1e-4)
    assert report.ok
    target = d2 @ f_star
    assert np.linalg.norm(d2 @ f - target) <= 1e-4 * np.linalg.norm(target)


def test_routes_agree():
    rng = np.random.default_rng(4)
    sys, b, _ = planted_da_instance(rng, 2, 2, 1)
    K = reduce_da_to_b2(sys, b).K
    d2 = boundary2(K).to_dense()
    d = rng.integers(-3, 4, size=d2.shape[0]).astype(float)
    delta = 1e-4
    f1, _ = solve_boundary_via_laplacian(K, d, delta)
    f2, _ = solve_boundary_via_gram(K, d, delta)
    pid_norm = np.linalg.norm(d2 @ (np.linalg.pinv(d2) @ d))
    assert np.linalg.norm(d2 @ (f1 - f2)) <= 2 * delta * max(pid_norm, 1.0)


def test_gradient_image_orthogonal_to_boundary_image():
    for K in (tiny_complex(), triangulate_punctured_sphere(3)):
        d1 = boundary1(K).to_dense()
        d2 = boundary2(K).to_dense()
        proj = d2 @ np.linalg.pinv(d2)
        assert np.max(np.abs(proj @ d1.T)) <= 1e-10


def planted_complex():
    """The 348-triangle planted complex."""
    rng = np.random.default_rng(3)
    sys, b, _ = planted_da_instance(rng, 4, 8, 4)
    return reduce_da_to_b2(sys, b).K, rng


def strip_complex(n: int):
    """A strip of n - 2 triangles over a path of n vertices: d2^T d2 is well
    conditioned, while the graph Laplacian d1 d1^T has a gap ~ 1/n^2."""
    tris = [(i, i + 1, i + 2) if i % 2 == 0 else (i + 1, i, i + 2) for i in range(n - 2)]
    return from_triangles(n, tris)


def test_inner_accuracy_formula():
    # eps_inner = delta * sqrt(lambda_min(L1)) / (||d2||_1 ||d2||_inf ||d||);
    # on the strip, lambda_min(L1) is the graph Laplacian's
    delta = 1e-4
    for K, rng in ((tiny_complex(), np.random.default_rng(8)), planted_complex(),
                   (strip_complex(40), np.random.default_rng(9))):
        d2 = boundary2(K).to_dense()
        d = rng.integers(-3, 4, size=d2.shape[0]).astype(float)
        _, report = solve_boundary_via_laplacian(K, d, delta)

        lam = np.linalg.eigvalsh(laplacian1(K).to_dense())
        lam_min = min(x for x in lam if x > 1e-9)
        eig, nullity = sparse_core.gram_spectrum(boundary2(K), 4)
        sparse_lam_min = min(eig[nullity], lap_solve._l0_lambda_min(K))
        assert sparse_lam_min == pytest.approx(lam_min, rel=1e-9)
        norm_bound = np.abs(d2).sum(axis=0).max() * np.abs(d2).sum(axis=1).max()
        # the integer bound is exact; the dense value carries rounding
        assert norm_bound >= np.linalg.svd(d2, compute_uv=False)[0] ** 2 * (1 - 1e-12)
        expected = delta * np.sqrt(lam_min) / (norm_bound * np.linalg.norm(d))
        assert report.eps_inner == pytest.approx(min(expected, 0.5), rel=1e-9)


def test_gram_spectrum_doubles_past_the_nullity():
    # five disjoint difference rows: d2 has nullity 5, more zeros than the
    # first 4 eigenvalues Lanczos is asked for
    sys = plain_da_system(10, [difference_row(2 * i, 2 * i + 1) for i in range(5)])
    d2 = boundary2(reduce_da_to_b2(sys, np.arange(5.0)).K)
    lam = np.linalg.eigvalsh(d2.to_dense().T @ d2.to_dense())
    assert np.count_nonzero(lam < 1e-9) == 5
    eig, nullity = sparse_core.gram_spectrum(d2, 4)
    assert nullity == 5
    assert eig[nullity] == pytest.approx(lam[5], rel=1e-8)
    with pytest.raises(ValueError, match="no nonzero eigenvalue"):
        sparse_core.gram_spectrum(SparseMatrix.from_arrays(3, 5, [], [], []), 4)


@pytest.mark.parametrize("solver", ROUTES)
def test_inner_converged_matches_dense_check_on_planted_complex(solver):
    K, rng = planted_complex()
    assert K.n_triangles >= 300
    d = rng.integers(-4, 5, size=K.n_edges).astype(float)
    f, report = solver(K, d, 1e-4)
    d2 = boundary2(K).to_dense()
    op = (laplacian1(K).to_dense() if solver is solve_boundary_via_laplacian
          else d2 @ d2.T)
    # the route's own inner solve, replayed: same operator, same factorization
    x, fill = sparse_core.lu_solve(SparseMatrix.from_dense(op), d)
    assert np.array_equal(boundary2(K).T.matvec(x), f) and report.lu_fill == fill >= 1.0
    pd = op @ np.linalg.lstsq(op, d, rcond=None)[0]
    dense_ratio = np.linalg.norm(op @ x - pd) / np.linalg.norm(pd)
    # inner_ratio is an upper bound on the inner error, not an estimate
    assert report.inner_ratio >= dense_ratio
    assert report.inner_converged and report.inner_ratio <= report.eps_inner
    assert report.ok
    # the route's judge bounds the outer error too: ||d2 f - Q d||, Q the
    # projection onto the image of d2
    qd = d2 @ np.linalg.lstsq(d2, d, rcond=None)[0]
    assert report.projected_residual >= np.linalg.norm(d2 @ f - qd)


def test_zero_demand_trivial():
    K = tiny_complex()
    f, report = solve_boundary_via_laplacian(K, np.zeros(K.n_edges), 1e-4)
    assert report.ok
    assert np.all(f == 0.0)


def test_routes_beyond_3000_edges_need_no_floor():
    rng = np.random.default_rng(11)
    sys, b, _ = planted_da_instance(rng, 16, 80, 16)
    K = reduce_da_to_b2(sys, b).K
    assert K.n_edges > 3000
    d = rng.integers(-4, 5, size=K.n_edges).astype(float)
    for solver in ROUTES:
        f, report = solver(K, d, 1e-4)
        assert np.isfinite(report.eps_inner) and report.eps_inner > 0.0
        assert f.shape == (K.n_triangles,)
        # the worst-case eps_inner is below what float64 refinement reaches
        # here, and ok does not need it
        assert report.ok and not report.degenerate


@pytest.mark.parametrize("solver", ROUTES)
def test_route_solve_runs_no_lsqr(solver, monkeypatch):
    lsqr_calls = []
    lsqr = sparse_core.spla.lsqr

    def counting_lsqr(*args, **kwargs):
        lsqr_calls.append(1)
        return lsqr(*args, **kwargs)

    monkeypatch.setattr(sparse_core.spla, "lsqr", counting_lsqr)
    K, rng = planted_complex()
    d = rng.integers(-4, 5, size=K.n_edges).astype(float)
    _, report = solver(K, d, 1e-4)
    assert report.ok
    assert not lsqr_calls
