import numpy as np
import pytest

from lin2complex import lap_solve, sparse_core
from lin2complex.b2_reduce import reduce_da_to_b2
from lin2complex.complex2 import (
    boundary1,
    boundary2,
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


def test_route_spectral_data_matches_dense():
    # the routes' sigma^2, gram_spectrum's smallest nonzero eigenvalue of
    # d2^T d2, against a dense eigvalsh, and the integer bound on its largest
    for K in (tiny_complex(), planted_complex()[0], strip_complex(40)):
        d2 = boundary2(K).to_dense()
        lam = np.linalg.eigvalsh(d2.T @ d2)
        eig, nullity = sparse_core.gram_spectrum(boundary2(K), 4)
        assert eig[nullity] == pytest.approx(min(x for x in lam if x > 1e-9), rel=1e-9)
        # the integer bound is exact; the dense value carries rounding
        assert sparse_core.norm_product(boundary2(K)) >= lam[-1] * (1 - 1e-12)


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
    assert report.ok
    # the route's judge bounds the outer error ||d2 f - Q d||, Q the
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
        assert f.shape == (K.n_triangles,)
        # the paper's worst-case eps_inner is below what float64 refinement
        # reaches here; ok rests on the route's own bound instead
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


@pytest.mark.parametrize("solver", ROUTES)
@pytest.mark.parametrize("complex_of", [tiny_complex, lambda: strip_complex(40),
                                        lambda: planted_complex()[0]],
                         ids=["tiny", "strip40", "planted348"])
def test_route_bound_holds_against_a_dense_projection(solver, complex_of):
    # ok proves ||d2 f - Q d|| <= delta ||Q d||, and the bound it rests on is
    # at least the dense error
    K = complex_of()
    rng = np.random.default_rng(12)
    d = rng.integers(-4, 5, size=K.n_edges).astype(float)
    f, report = solver(K, d, 1e-4)
    d2 = boundary2(K).to_dense()
    qd = d2 @ np.linalg.lstsq(d2, d, rcond=None)[0]
    error = np.linalg.norm(d2 @ f - qd)
    assert report.ok and not report.degenerate and report.refinements >= 1
    assert report.projected_residual >= error
    assert error <= 1e-4 * np.linalg.norm(qd)
    assert report.lu_fill >= 1.0


@pytest.mark.parametrize("n", [40, 80])
def test_laplacian_route_is_not_slowed_by_the_graph_laplacian_gap(n):
    # L0's gap on the strip falls as 1/n^2, but f = d2^T x does not see the
    # image of d1^T, so the Laplacian route refines no more than the Gram route
    K = strip_complex(n)
    d = np.random.default_rng(n).integers(-4, 5, size=K.n_edges).astype(float)
    _, lap = solve_boundary_via_laplacian(K, d, 1e-4)
    _, gram = solve_boundary_via_gram(K, d, 1e-4)
    assert lap.ok and gram.ok
    assert lap.refinements <= gram.refinements


@pytest.mark.parametrize("solver", ROUTES)
def test_route_factors_op_plus_shift_once(solver, monkeypatch):
    # gram_spectrum's factor and the route's own, and no augmented LU
    factored, splu_calls = [], []
    shifted, splu = sparse_core.shifted_factor, sparse_core.spla.splu

    def counting_shifted(S, shift):
        factored.append(S.shape)
        return shifted(S, shift)

    def counting_splu(*args, **kwargs):
        splu_calls.append(1)
        return splu(*args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("the route made an augmented LU")

    monkeypatch.setattr(sparse_core, "shifted_factor", counting_shifted)
    monkeypatch.setattr(lap_solve, "shifted_factor", counting_shifted)
    monkeypatch.setattr(sparse_core.spla, "splu", counting_splu)
    monkeypatch.setattr(sparse_core, "lu_solve", refused)
    monkeypatch.setattr(sparse_core.AugmentedSystem, "factor", refused)
    K, rng = planted_complex()
    d = rng.integers(-4, 5, size=K.n_edges).astype(float)
    _, report = solver(K, d, 1e-4)
    assert report.ok
    assert factored == [(K.n_triangles,) * 2, (K.n_edges,) * 2]
    assert len(splu_calls) == 2
