import numpy as np
import pytest

from lin2complex import lap_solve
from lin2complex.b2_reduce import reduce_da_to_b2
from lin2complex.complex2 import boundary1, boundary2, laplacian1, triangulate_punctured_sphere
from lin2complex.da_reduce import difference_row, plain_da_system
from lin2complex.lap_solve import (
    solve_boundary_via_gram,
    solve_boundary_via_laplacian,
)
from lin2complex.sparse_core import SparseMatrix

from _gen import planted_da_instance

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


def test_inner_accuracy_formula():
    # eps_inner must equal delta * sqrt(sigma_min(op)) / (sigma_max(d2)^2 ||d||)
    rng = np.random.default_rng(8)
    K = tiny_complex()
    d2 = boundary2(K).to_dense()
    d = rng.integers(-3, 4, size=d2.shape[0]).astype(float)
    delta = 1e-4
    _, report = solve_boundary_via_laplacian(K, d, delta)
    from lin2complex.complex2 import laplacian1

    lam = np.linalg.eigvalsh(laplacian1(K).to_dense())
    sigma_min = min(x for x in lam if x > 1e-9)
    sigma_max = np.linalg.svd(d2, compute_uv=False)[0]
    expected = delta * np.sqrt(sigma_min) / (sigma_max ** 2 * np.linalg.norm(d))
    assert report.eps_inner == pytest.approx(min(expected, 0.5), rel=1e-9)


@pytest.mark.parametrize("solver", ROUTES)
def test_inner_converged_matches_dense_check_on_planted_complex(solver):
    rng = np.random.default_rng(3)
    sys, b, _ = planted_da_instance(rng, 4, 8, 4)
    K = reduce_da_to_b2(sys, b).K
    assert K.n_triangles >= 300
    d = rng.integers(-4, 5, size=K.n_edges).astype(float)
    f, report = solver(K, d, 1e-4)
    d2 = boundary2(K).to_dense()
    op = (laplacian1(K).to_dense() if solver is solve_boundary_via_laplacian
          else d2 @ d2.T)
    # the route's own inner solve, replayed: same operator, same factorization
    x, ratio, fill = lap_solve._refined_solve(SparseMatrix.from_dense(op), d)
    assert (report.inner_ratio, report.lu_fill) == (ratio, fill)
    assert fill >= 1.0
    pd = op @ np.linalg.lstsq(op, d, rcond=None)[0]
    dense_ratio = np.linalg.norm(op @ x - pd) / np.linalg.norm(pd)
    assert report.inner_converged == (dense_ratio <= report.eps_inner)
    assert dense_ratio <= report.eps_inner
    assert report.ok


def test_zero_demand_trivial():
    K = tiny_complex()
    f, report = solve_boundary_via_laplacian(K, np.zeros(K.n_edges), 1e-4)
    assert report.ok
    assert np.all(f == 0.0)


def test_beyond_dense_limit_needs_floor():
    K = tiny_complex()
    d = np.ones(K.n_edges)
    with pytest.raises(ValueError):
        solve_boundary_via_laplacian(K, d, 1e-4, dense_limit=3)
    f, report = solve_boundary_via_laplacian(K, d, 1e-4, dense_limit=3,
                                             sigma_min_floor=1e-2)
    assert report.spectral_mode == "iterative_estimate"
