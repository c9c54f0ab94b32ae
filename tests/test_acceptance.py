"""Acceptance suite: one test per acceptance criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is oracle/property-based at desk scale.
"""

import math
import time
from collections import deque

import numpy as np
import pytest

from lin2complex.b2_reduce import (
    build_boundary_problem,
    map_soln_b2_to_da,
    reduce_da_to_b2,
    reduce_reg,
    spectral_certificate,
)
from lin2complex.complex2 import boundary1, boundary2, validate
from lin2complex.da_reduce import CLASS_GZ2, GeneralSystem, gz2_to_da
from lin2complex.lap_solve import (
    solve_boundary_via_gram,
    solve_boundary_via_laplacian,
)
from lin2complex.maxflow_ipm import (
    BarrierState,
    FlowNetwork2,
    barrier_derivatives,
    barrier_value,
    centering_step,
    initial_state,
    progress_step,
)
from lin2complex.pipeline import solve_general
from lin2complex.sparse_core import SparseMatrix, least_squares

from _gen import (
    da_rows,
    dense_lstsq,
    dense_nullity,
    dense_project,
    epsilon_feasible,
    from_triangles,
    group_indicator,
    infeasible_da_instance,
    nnz_growth_ratio,
    planted_da_instance,
    planted_general_system,
    random_da_instance,
    random_gz2_system,
)


class criterion:
    """Context manager printing one pass/fail line per acceptance criterion."""

    def __init__(self, num: int, desc: str):
        self.num = num
        self.desc = desc

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.num:2d}] {self.desc}: {status}")
        return False


def test_criterion_01_golden_boundary_matrix():
    with criterion(1, "golden 6x3 boundary matrix"):
        K = from_triangles(
            5, [(1, 4, 2), (2, 4, 3), (1, 3, 4)],
            edge_order=[(1, 2), (2, 3), (1, 3), (1, 4), (2, 4), (3, 4)])
        expected = np.array([
            [-1, 0, 0],
            [0, -1, 0],
            [0, 0, 1],
            [1, 0, -1],
            [-1, 1, 0],
            [0, -1, 1],
        ], dtype=float)
        assert np.array_equal(boundary2(K).to_dense(), expected)


def test_criterion_02_size_bounds():
    with criterion(2, "size bounds on 200 random instances"):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(2, 101))
            extra = int(rng.integers(0, 200 - n + 2))
            sys_da, b = random_da_instance(rng, n, extra)
            P = reduce_da_to_b2(sys_da, b)
            pattern = sys_da.pattern_matrix()
            l1 = pattern.entry_abs_sum()
            assert P.n_triangles == int(round(11 * l1 - 4 * n))
            assert P.n_triangles <= 22 * pattern.nnz
            assert P.n_edges <= 33 * pattern.nnz
            assert P.d2.nnz == 3 * P.n_triangles


def test_criterion_03_chain_complex_identity():
    with criterion(3, "d1 d2 = 0 in integer arithmetic"):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(2, 30))
            sys_da, b = random_da_instance(rng, n, int(rng.integers(0, 20)))
            P = reduce_da_to_b2(sys_da, b)
            prod = boundary1(P.K).to_int_csr() @ P.d2.to_int_csr()
            prod.eliminate_zeros()
            assert prod.nnz == 0
            assert validate(P.K).ok


def test_criterion_04_spectral_certificates():
    with criterion(4, "spectral certificates (t <= 2000)"):
        rng = np.random.default_rng(4)
        corpus = []
        # difference-only system, rank-deficient system, mixed random sizes
        from lin2complex.da_reduce import difference_row, plain_da_system

        corpus.append((plain_da_system(4, [difference_row(0, 1), difference_row(0, 1),
                                           difference_row(2, 3)]),
                       np.array([1.0, 1.0, 0.0])))
        for _ in range(8):
            corpus.append(random_da_instance(rng, int(rng.integers(2, 10)),
                                             int(rng.integers(0, 8))))
        corpus.append(random_da_instance(rng, 16, 14))
        for sys_da, b in corpus:
            P = reduce_da_to_b2(sys_da, b)
            assert P.n_triangles <= 2000
            report = spectral_certificate(P)
            assert report.ok, report


def test_criterion_05_feasible_round_trip():
    with criterion(5, "feasible round trip, exact and approximate"):
        rng = np.random.default_rng(5)
        ran = 0
        for trial in range(4):
            sys_da, b, _ = planted_da_instance(rng, 3, int(rng.integers(2, 6)),
                                               int(rng.integers(1, 4)))
            if np.linalg.norm(b) == 0:
                continue
            ran += 1
            P = reduce_da_to_b2(sys_da, b)
            A = sys_da.pattern_matrix().to_dense()
            # exact: dense least-squares mapped back solves the original system
            f = dense_lstsq(P.d2.to_dense(), P.gamma)
            x = map_soln_b2_to_da(P, f)
            assert np.linalg.norm(A @ x - b) <= 1e-8 * np.linalg.norm(b)
            # approximate: iterative solve at eps_da / (42 nnz)
            nnz = sys_da.pattern_matrix().nnz
            for eps_da in (1e-2, 1e-4):
                eps_b2 = epsilon_feasible(eps_da, nnz)
                res = least_squares(P.d2, P.gamma, eps_b2)
                assert res.converged
                x = map_soln_b2_to_da(P, res.x)
                assert np.linalg.norm(A @ x - b) <= eps_da * np.linalg.norm(b)
        assert ran >= 3


def test_criterion_06_general_case_sandwich():
    with criterion(6, "general-case sandwich on 50 infeasible instances"):
        rng = np.random.default_rng(6)
        eps_da = 0.25
        alpha = 2.0 / eps_da ** 2
        for _ in range(50):
            sys_da, b = infeasible_da_instance(rng, int(rng.integers(2, 7)),
                                               int(rng.integers(0, 5)))
            P, _ = reduce_reg(sys_da, b, eps_da=eps_da)
            A = sys_da.pattern_matrix().to_dense()
            min_x = np.linalg.norm(A @ dense_lstsq(A, b) - b) ** 2
            wd2 = P.weighted_matrix().to_dense()
            wg = P.weighted_rhs()
            min_f = np.linalg.norm(wd2 @ dense_lstsq(wd2, wg) - wg) ** 2
            assert min_x > 0
            assert alpha / (alpha + 1) * min_x <= min_f * (1 + 1e-6) + 1e-12
            assert min_f <= min_x * (1 + 1e-6) + 1e-12


def test_criterion_07_general_case_approximate_mapping():
    with criterion(7, "general-case approximate mapping"):
        rng = np.random.default_rng(6)  # same corpus seed as criterion 6
        eps_da = 0.25
        for _ in range(50):
            sys_da, b = infeasible_da_instance(rng, int(rng.integers(2, 7)),
                                               int(rng.integers(0, 5)))
            P, eps_b2 = reduce_reg(sys_da, b, eps_da=eps_da)
            res = least_squares(P.weighted_matrix(), P.weighted_rhs(), eps_b2)
            assert res.converged
            x = map_soln_b2_to_da(P, res.x)
            A = sys_da.pattern_matrix().to_dense()
            pib = dense_project(A, b)
            assert np.linalg.norm(A @ x - pib) <= eps_da * np.linalg.norm(pib) + 1e-12


def test_criterion_08_da_reduction_exactness():
    with criterion(8, "pairing reduction identity, growth bound, worked example"):
        rng = np.random.default_rng(8)
        max_ratio = 0.0
        for _ in range(50):
            sys_g = random_gz2_system(rng, int(rng.integers(4, 9)),
                                      int(rng.integers(2, 7)), max_pow=5)
            alpha = 1.0
            da, _ = gz2_to_da(sys_g, alpha=alpha)
            max_ratio = max(max_ratio, nnz_growth_ratio(sys_g, da))
            A = sys_g.A.to_dense()
            B = da.pattern_matrix().row_scaled(da.row_factors()).to_dense()
            cB = da.rhs_vector()
            n = sys_g.A.n_cols
            for _ in range(3):
                xa = rng.normal(size=n)
                lhs = np.linalg.norm(A @ xa - sys_g.b) ** 2
                fixed = B[:, :n] @ xa - cB
                aux = B[:, n:]
                if aux.shape[1]:
                    val = np.linalg.norm(aux @ dense_lstsq(aux, -fixed) + fixed) ** 2
                else:
                    val = np.linalg.norm(fixed) ** 2
                rhs_val = (alpha + 1) / alpha * val
                assert abs(lhs - rhs_val) <= 1e-6 * max(lhs, 1e-9)
        # frozen growth constant C: nnz(B) <= C nnz(A) log2(2 + max|A|)
        assert max_ratio <= 4.0
        # worked example terminates in the scale-8 two-variable difference
        sys_w = GeneralSystem(SparseMatrix.from_dense([[3, 5, -1, -7]]), [1.0],
                              CLASS_GZ2)
        da_w, _ = gz2_to_da(sys_w)
        main = da_rows(da_w)[0]
        assert main.kind == "difference" and main.scale == 8.0
        assert main.rhs == pytest.approx(1.0 / 8.0)
        assert da_w.n_aux == 6


def test_criterion_09_laplacian_and_gram_routes():
    with criterion(9, "Laplacian and Gram routes at delta = 1e-4"):
        rng = np.random.default_rng(9)
        for trial in range(3):
            sys_da, b, _ = planted_da_instance(rng, 2, 2, 1)
            K = reduce_da_to_b2(sys_da, b).K
            d2 = boundary2(K).to_dense()
            d = rng.integers(-4, 5, size=d2.shape[0]).astype(float)
            target = d2 @ (np.linalg.pinv(d2) @ d)
            for solver in (solve_boundary_via_laplacian, solve_boundary_via_gram):
                f, report = solver(K, d, 1e-4)
                assert report.ok
                assert np.linalg.norm(d2 @ f - target) <= 1e-4 * np.linalg.norm(target)
            proj = d2 @ np.linalg.pinv(d2)
            d1 = boundary1(K).to_dense()
            assert np.max(np.abs(proj @ d1.T)) <= 1e-10


def test_criterion_10_interior_point_demo():
    with criterion(10, "interior-point maxflow demo"):
        from lin2complex.da_reduce import difference_row, plain_da_system

        sys_da = plain_da_system(2, [difference_row(0, 1)])
        P = reduce_da_to_b2(sys_da, np.array([1.0]))
        net = FlowNetwork2(P.K, np.ones(P.n_triangles), P.gamma, f_star=2.0)
        net.validate()
        d2 = net.d2().to_dense()
        demand_scale = np.linalg.norm(net.f_star * net.gamma)

        # gradient/Hessian against central finite differences
        rng = np.random.default_rng(10)
        f0 = rng.uniform(-0.3, 0.3, size=P.n_triangles)
        g, h = barrier_derivatives(net, BarrierState(f0))
        eps = 1e-6
        for idx in range(P.n_triangles):
            e = np.zeros_like(f0)
            e[idx] = eps
            g_fd = (barrier_value(net, f0 + e) - barrier_value(net, f0 - e)) / (2 * eps)
            assert abs(g[idx] - g_fd) <= 1e-6 * max(1.0, abs(g[idx]))

        state = initial_state(net)
        base = 1.0 / (20.0 * math.sqrt(P.n_triangles))
        steps = 0
        while state.alpha < 0.99 and steps < 500:
            state = progress_step(net, state, min(base, (1 - state.alpha) / 2))
            state = centering_step(net, state)
            steps += 1
            # invariants hold after every accepted step
            assert np.all(np.abs(state.f) < net.capacities)
            resid = np.linalg.norm(d2 @ state.f - state.alpha * net.f_star * net.gamma)
            assert resid <= 1e-6 * demand_scale
        assert state.alpha >= 0.99
        assert steps < 500


def test_criterion_11_end_to_end_chain():
    with criterion(11, "end-to-end chain on 20 general systems"):
        rng = np.random.default_rng(11)
        start = time.time()
        for _ in range(20):
            n = int(rng.integers(4, 13))
            m = int(rng.integers(max(2, n - 2), n + 3))
            sys_g, _ = planted_general_system(rng, n, m, max_entry=50,
                                              row_nnz=3, kappa_max=1e4)
            assert sys_g.A.n_cols <= 40 and sys_g.A.max_abs() <= 50
            x, report, chain = solve_general(sys_g, 1e-3)
            A = sys_g.A.to_dense()
            pib = dense_project(A, sys_g.b)
            assert np.linalg.norm(A @ x - pib) <= 1e-3 * np.linalg.norm(pib)
        elapsed = time.time() - start
        assert elapsed < 60.0, f"chain corpus took {elapsed:.1f}s"
