import dataclasses
import math
from collections import deque

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from lin2complex import b2_reduce, complex2, sparse_core
from lin2complex.b2_reduce import (
    ReductionError,
    build_boundary_problem,
    compute_edge_weights,
    map_soln_b2_to_da,
    reduce_da_to_b2,
    reduce_reg,
    spectral_certificate,
)
from lin2complex.complex2 import EDGE_INTERIOR, EDGE_LOOP, boundary2, validate
from lin2complex.da_reduce import average_row, difference_row, gz2_to_da, plain_da_system
from lin2complex.pipeline import reduce_chain
from lin2complex.sparse_core import SparseMatrix, least_squares

import _gen
from _gen import (
    bfs_edge_weights,
    criterion11_systems,
    da_rows,
    dense_lstsq,
    dense_nullity,
    dense_project,
    epsilon_feasible,
    group_indicator,
    infeasible_da_instance,
    planted_da_instance,
    planted_general_system,
    random_da_instance,
    random_gz2_system,
    three_per_row_system,
)


def single_difference(b=5.0):
    return plain_da_system(2, [difference_row(0, 1)]), np.array([b])


def single_average():
    return plain_da_system(3, [average_row(0, 1, 2)]), np.array([0.0])


# -- construction ---------------------------------------------------------------

def test_single_difference_shape():
    sys, b = single_difference()
    P = reduce_da_to_b2(sys, b)
    assert P.n_triangles == 14 == 11 * 2 - 4 * 2
    assert P.n_edges == 21
    loop = [eid for eid, e in enumerate(P.K.edges) if e.kind == EDGE_LOOP]
    assert len(loop) == 3
    assert np.all(P.gamma[loop] == 5.0)
    assert np.all(np.delete(P.gamma, loop) == 0.0)
    assert np.all(P.weights == 1.0)


def test_single_average_shape():
    sys, b = single_average()
    P = reduce_da_to_b2(sys, b)
    assert P.n_triangles == 32  # 11 * 4 - 4 * 3
    d2 = P.d2.to_dense()
    for row_id in P.K.loops[0]:
        entries = sorted(d2[row_id][d2[row_id] != 0].tolist())
        assert entries == [-1.0, -1.0, 1.0, 1.0]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_size_bounds_random(seed):
    rng = np.random.default_rng(seed)
    sys, b = random_da_instance(rng, int(rng.integers(2, 9)), int(rng.integers(0, 7)))
    P = reduce_da_to_b2(sys, b)
    pattern = sys.pattern_matrix()
    l1 = float(np.sum(np.abs(pattern.vals)))
    assert P.n_triangles == int(11 * l1 - 4 * sys.n_vars)
    assert P.n_triangles <= 22 * pattern.nnz
    assert P.n_edges <= 33 * pattern.nnz
    assert P.d2.nnz == 3 * P.n_triangles
    _gen.check_layout(sys, P.K)


def test_structural_row_patterns():
    rng = np.random.default_rng(44)
    sys, b = random_da_instance(rng, 5, 4)
    P = reduce_da_to_b2(sys, b)
    d2 = P.d2.to_dense()
    for eid, e in enumerate(P.K.edges):
        nz = d2[eid][d2[eid] != 0]
        if e.kind == EDGE_INTERIOR:
            assert sorted(nz.tolist()) == [-1.0, 1.0]
    T = _gen.tube_refs(P)
    for q, row in enumerate(da_rows(sys)):
        tubes = np.flatnonzero(T.q == q)
        for slot, row_id in enumerate(P.K.loops[q]):
            vals = {T.sign[t]: d2[row_id, T.cols[t, slot]] for t in tubes}
            assert vals[1] == 1.0
            if row.kind == "difference":
                assert vals[-1] == -1.0
            assert np.count_nonzero(d2[row_id]) == (2 if row.kind == "difference" else 4)


def test_gamma_norm_bound():
    rng = np.random.default_rng(3)
    sys, b = random_da_instance(rng, 6, 4)
    P = reduce_da_to_b2(sys, b)
    assert np.linalg.norm(P.gamma) <= math.sqrt(3) * np.linalg.norm(b) + 1e-12


def test_average_nonzero_rhs_rejected():
    sys, _ = single_average()
    with pytest.raises(ReductionError):
        reduce_da_to_b2(sys, np.array([1.0]))


def test_unused_variable_rejected():
    sys = plain_da_system(3, [difference_row(0, 1)])
    with pytest.raises(ReductionError):
        reduce_da_to_b2(sys, np.array([1.0]))


def test_non_unit_system_rejected_on_unit_surface():
    from lin2complex.da_reduce import WeightedDASystem

    weighted = WeightedDASystem(2, [False], [(0, 1, -1)], [2.0], [0.0], [1.0], 1, 0)
    with pytest.raises(ReductionError):
        reduce_da_to_b2(weighted, np.array([1.0]))


# -- feasible round trips ---------------------------------------------------------

def test_exact_round_trip_group_constant():
    rng = np.random.default_rng(10)
    sys, b, x_star = planted_da_instance(rng, 3, 4, 2)
    P = reduce_da_to_b2(sys, b)
    f = group_indicator(P) @ x_star
    assert np.allclose(P.d2.to_dense() @ f, P.gamma)
    x = map_soln_b2_to_da(P, f)
    assert np.allclose(x, x_star)


def test_exact_round_trip_dense_least_squares():
    rng = np.random.default_rng(12)
    sys, b, _ = planted_da_instance(rng, 3, 5, 3)
    P = reduce_da_to_b2(sys, b)
    f = dense_lstsq(P.d2.to_dense(), P.gamma)
    x = map_soln_b2_to_da(P, f)
    A = sys.pattern_matrix().to_dense()
    assert np.linalg.norm(A @ x - b, np.inf) <= 1e-9 * max(1.0, np.linalg.norm(b))


def test_map_soln_zero_when_atb_zero():
    sys = plain_da_system(2, [difference_row(0, 1), difference_row(1, 0)])
    b = np.array([3.0, 3.0])
    P = reduce_da_to_b2(sys, b)
    x = map_soln_b2_to_da(P, np.full(P.n_triangles, 7.0))
    assert np.array_equal(x, [0.0, 0.0])


def test_approximate_round_trip_feasible():
    rng = np.random.default_rng(20)
    sys, b, _ = planted_da_instance(rng, 3, 4, 2)
    P = reduce_da_to_b2(sys, b)
    pattern = sys.pattern_matrix()
    A = pattern.to_dense()
    for eps_da in (1e-2, 1e-4):
        eps_b2 = epsilon_feasible(eps_da, pattern.nnz)
        res = least_squares(SparseMatrix.from_dense(P.d2.to_dense()), P.gamma, eps_b2)
        assert res.converged
        x = map_soln_b2_to_da(P, res.x)
        assert np.linalg.norm(A @ x - b) <= eps_da * np.linalg.norm(b)
        # intermediate sup-norm bound along the way
        bound = 24 * math.sqrt(pattern.nnz) * eps_b2 * np.linalg.norm(P.gamma)
        assert np.linalg.norm(A @ x - b, np.inf) <= bound + 1e-12


def test_epsilon_feasible_arithmetic():
    assert epsilon_feasible(0.42, 10) == pytest.approx(0.001)
    assert epsilon_feasible(1.0, 1) == pytest.approx(1 / 42)
    assert epsilon_feasible(1.0, 2) == pytest.approx(epsilon_feasible(1.0, 4) * 2)


# -- path weights -----------------------------------------------------------------

def test_edge_weights_single_difference():
    sys, b = single_difference(1.0)
    P = reduce_da_to_b2(sys, b)
    pw, weights = compute_edge_weights(P, alpha=2.0)
    paths = _gen.paths(pw, _gen.tube_refs(P))
    # each sphere is one triangle; path = sphere -> tube outer -> boundary
    assert all(len(p) == 2 for p in paths.values())
    assert pw.l_q[0] == 4.0
    # weighted interior edges carry alpha * k * l; untouched ones stay 0
    interior = [eid for eid, e in enumerate(P.K.edges) if e.kind == EDGE_INTERIOR]
    on_path = {eid for p in paths.values() for eid in p}
    for eid in interior:
        if eid in on_path:
            assert weights[eid] == pytest.approx(2.0 * 1 * 4.0)
        else:
            assert weights[eid] == 0.0
    loop = [eid for eid, e in enumerate(P.K.edges) if e.kind == EDGE_LOOP]
    assert np.all(weights[loop] == 1.0)


def test_edge_weights_refuse_an_alpha_that_overflows():
    # alpha times an edge's mass of l_q = 4 is inf in float64
    P = reduce_da_to_b2(*single_difference(1.0))
    with pytest.raises(ReductionError, match=r"^alpha 1e\+308 makes an edge weight overflow"):
        compute_edge_weights(P, 1e308)
    assert np.all(np.isfinite(compute_edge_weights(P, 1e307)[1]))


def test_edge_weights_read_the_tubes_off_the_system_not_the_groups():
    # the system fixes where every tube lies; with the triangle groups
    # relabelled, edges, kinds and loops kept, the weights stay the same
    P = reduce_chain(three_per_row_system(8, 6), 1e-3).problem
    K = P.K
    relabelled = dataclasses.replace(P, K=complex2.Complex2(
        K.n_vertices, K.tri, (K.tri_group + 1) % P.n_vars, K.edge, K.kind, K.loops))
    pw, weights = compute_edge_weights(P, 7.0)
    pw_relabelled, weights_relabelled = compute_edge_weights(relabelled, 7.0)
    assert np.array_equal(weights_relabelled, weights)
    assert np.array_equal(pw_relabelled.l_q, pw.l_q)


def _paths_by_bfs_oracle(P):
    """Independent BFS over adjacency reconstructed from the dense operator.

    Mirrors the library's rule that demand-carrying triangles are targets,
    never transit nodes.
    """
    d2 = P.d2.to_dense()
    kinds = [e.kind for e in P.K.edges]
    t = P.n_triangles
    adj = [[] for _ in range(t)]
    loop_adjacent = set()
    for eid in range(P.n_edges):
        cols = np.nonzero(d2[eid])[0]
        if kinds[eid] == EDGE_INTERIOR and len(cols) == 2:
            a, b = map(int, cols)
            adj[a].append((b, eid))
            adj[b].append((a, eid))
        elif kinds[eid] == EDGE_LOOP:
            loop_adjacent.update(map(int, cols))
    for lst in adj:
        lst.sort()
    dist = {}
    for root in P.central:
        dist[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            if u in loop_adjacent and u != root:
                continue
            for v, _ in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
    return dist


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_edge_weights_match_explicit_enumeration(seed):
    rng = np.random.default_rng(seed)
    sys, b = random_da_instance(rng, int(rng.integers(2, 6)), int(rng.integers(0, 4)))
    P = reduce_da_to_b2(sys, b)
    alpha = 3.0
    pw, weights = compute_edge_weights(P, alpha)
    # stored paths are shortest: lengths equal oracle BFS distances
    dist = _paths_by_bfs_oracle(P)
    T = _gen.tube_refs(P)
    paths, k_qe = _gen.paths(pw, T), _gen.k_qe(pw, T)
    for q, var, copy, slot1 in zip(T.q, T.var, T.copy, T.cols[:, 0]):
        path = paths[(q, var, copy)]
        assert len(path) == dist[slot1]
    # k counts from explicit path listing agree with the tree accumulation
    k_explicit = {}
    for (q, _, _), path in paths.items():
        for eid in path:
            k_explicit[(q, eid)] = k_explicit.get((q, eid), 0) + 1
    assert k_explicit == k_qe
    assert max(k_explicit.values(), default=0) <= 4
    for eid, e in enumerate(P.K.edges):
        if e.kind == EDGE_INTERIOR:
            expected = alpha * sum(pw.l_q[q] * k for (q, e2), k in k_qe.items() if e2 == eid)
            assert weights[eid] == pytest.approx(expected)
    # each equation's total path length is bounded by paths x largest group
    groups = P.K.tri_group
    t_max = max(np.bincount(groups))
    n_paths = np.bincount(T.q, minlength=P.n_equations)
    assert np.all(pw.l_q <= n_paths * t_max)


# -- general (weighted) case -------------------------------------------------------

def test_reduce_reg_feasible_keeps_exact_solutions():
    rng = np.random.default_rng(30)
    sys, b, x_star = planted_da_instance(rng, 3, 3, 2)
    P, eps_b2 = reduce_reg(sys, b, eps_da=0.25)
    f = group_indicator(P) @ x_star
    wd2 = P.weighted_matrix().to_dense()
    wg = P.weighted_rhs()
    assert np.allclose(wd2 @ f, wg, atol=1e-9)
    assert 0 < eps_b2 <= 0.025


def test_reduce_reg_accuracy_formula():
    sys, b = single_difference(2.0)
    for eps_da in (0.9, 0.3, 0.01):
        P, eps_b2 = reduce_reg(sys, b, eps_da=eps_da)
        alpha = 2.0 / eps_da ** 2
        pattern = sys.pattern_matrix()
        formula = eps_da / math.sqrt(
            3.0 * (1.0 + np.linalg.norm(b) ** 2 * pattern.nnz
                   * pattern.max_abs() ** 2 / alpha))
        assert eps_b2 == pytest.approx(min(formula, eps_da / 10.0))


def test_reduce_reg_rejects_bad_eps():
    sys, b = single_difference()
    with pytest.raises(ValueError):
        reduce_reg(sys, b, eps_da=0.0)
    with pytest.raises(ValueError):
        reduce_reg(sys, b, eps_da=1.5)


def test_general_case_sandwich():
    rng = np.random.default_rng(31)
    eps_da = 0.25
    alpha = 2.0 / eps_da ** 2
    for _ in range(12):
        sys, b = infeasible_da_instance(rng, int(rng.integers(2, 6)), int(rng.integers(0, 4)))
        P, _ = reduce_reg(sys, b, eps_da=eps_da)
        A = sys.pattern_matrix().to_dense()
        min_x = np.linalg.norm(A @ dense_lstsq(A, b) - b) ** 2
        wd2 = P.weighted_matrix().to_dense()
        wg = P.weighted_rhs()
        min_f = np.linalg.norm(wd2 @ dense_lstsq(wd2, wg) - wg) ** 2
        assert alpha / (alpha + 1) * min_x <= min_f * (1 + 1e-6) + 1e-12
        assert min_f <= min_x * (1 + 1e-6) + 1e-12


def test_claim_objective_domination_random_flows():
    # alpha/(alpha+1) ||A x - b||^2 <= ||W^(1/2)(d2 f - gamma)||^2 for any f
    rng = np.random.default_rng(32)
    sys, b = infeasible_da_instance(rng, 4, 2)
    eps_da = 0.5
    alpha = 2.0 / eps_da ** 2
    P, _ = reduce_reg(sys, b, eps_da=eps_da)
    A = sys.pattern_matrix().to_dense()
    wd2 = P.weighted_matrix().to_dense()
    wg = P.weighted_rhs()
    for _ in range(100):
        f = rng.normal(size=P.n_triangles)
        x = map_soln_b2_to_da(P, f)
        lhs = alpha / (alpha + 1) * np.linalg.norm(A @ x - b) ** 2
        rhs = np.linalg.norm(wd2 @ f - wg) ** 2
        assert lhs <= rhs * (1 + 1e-9) + 1e-12


def test_projection_norm_ratio_bound():
    rng = np.random.default_rng(33)
    sys, b = infeasible_da_instance(rng, 3, 1)
    eps_da = 0.5
    alpha = 2.0 / eps_da ** 2
    P, _ = reduce_reg(sys, b, eps_da=eps_da)
    A = sys.pattern_matrix().to_dense()
    wd2 = P.weighted_matrix().to_dense()
    wg = P.weighted_rhs()
    lam_max = np.linalg.eigvalsh(A.T @ A).max()
    lhs = np.linalg.norm(dense_project(wd2, wg)) ** 2
    rhs = (1 + lam_max * np.linalg.norm(b) ** 2 / alpha) * \
        np.linalg.norm(dense_project(A, b)) ** 2
    assert lhs <= rhs * (1 + 1e-9)


def test_general_case_approximate_mapping():
    rng = np.random.default_rng(34)
    eps_da = 0.25
    for _ in range(8):
        sys, b = infeasible_da_instance(rng, int(rng.integers(2, 5)), int(rng.integers(0, 3)))
        P, eps_b2 = reduce_reg(sys, b, eps_da=eps_da)
        res = least_squares(P.weighted_matrix(), P.weighted_rhs(), eps_b2)
        assert res.converged
        x = map_soln_b2_to_da(P, res.x)
        A = sys.pattern_matrix().to_dense()
        pib = dense_project(A, b)
        assert np.linalg.norm(A @ x - pib) <= eps_da * np.linalg.norm(pib) + 1e-12


# -- spectral certificates -----------------------------------------------------------

def test_group_indicator_maps_null_spaces():
    # x in Null(A) extends to the group-constant flow H x in Null(d2)
    rows = [difference_row(0, 1), difference_row(0, 1), difference_row(2, 3)]
    sys = plain_da_system(4, rows)
    P = reduce_da_to_b2(sys, np.array([1.0, 1.0, 0.0]))
    A = sys.pattern_matrix().to_dense()
    d2 = P.d2.to_dense()
    H = group_indicator(P)
    _, _, vt = np.linalg.svd(A)
    for null_vec in vt[dense_nullity(A) * -1:]:
        assert np.allclose(A @ null_vec, 0.0, atol=1e-12)
        assert np.allclose(d2 @ (H @ null_vec), 0.0, atol=1e-12)


def test_construction_deterministic():
    rng1, rng2 = np.random.default_rng(99), np.random.default_rng(99)
    s1, b1 = random_da_instance(rng1, 5, 4)
    s2, b2 = random_da_instance(rng2, 5, 4)
    P1 = reduce_da_to_b2(s1, b1)
    P2 = reduce_da_to_b2(s2, b2)
    assert P1.d2.equals(P2.d2)
    assert np.array_equal(P1.gamma, P2.gamma)
    assert np.array_equal(P1.central, P2.central)


def test_spectral_certificate_difference_chain():
    rng = np.random.default_rng(40)
    sys, b = random_da_instance(rng, 5, 3, p_average=0.0)
    P = reduce_da_to_b2(sys, b)
    assert spectral_certificate(P).ok


def test_spectral_certificate_rank_deficient():
    # duplicate difference rows on two disconnected variable pairs
    rows = [difference_row(0, 1), difference_row(0, 1), difference_row(2, 3)]
    sys = plain_da_system(4, rows)
    P = reduce_da_to_b2(sys, np.array([1.0, 1.0, 0.0]))
    check = spectral_certificate(P)
    assert check.ok and check.value == 0.0
    nullity_a = dense_nullity(sys.pattern_matrix().to_dense())
    assert dense_nullity(P.d2.to_dense()) == nullity_a == 2


def test_lambda_max_quadratic_form():
    rng = np.random.default_rng(41)
    sys, b = random_da_instance(rng, 4, 3)
    P = reduce_da_to_b2(sys, b)
    d2 = P.d2.to_dense()
    for _ in range(1000):
        f = rng.normal(size=P.n_triangles)
        assert np.linalg.norm(d2 @ f) ** 2 <= 12 * np.linalg.norm(f) ** 2 * (1 + 1e-12)


def _norm_product(d2: SparseMatrix) -> float:
    """||d2||_1 ||d2||_inf, a bound on lambda_max(d2^T d2)."""
    D = d2.to_csr()
    return spla.norm(D, 1) * spla.norm(D, np.inf)


def _with_a_triangle_on(K: complex2.Complex2, e: int) -> complex2.Complex2:
    """K with one more triangle, on edge e and a new vertex, in a group of
    its own; its two other sides are new boundary edges."""
    u, v = K.edge[e].tolist()
    w = K.n_vertices
    return complex2.Complex2(w + 1, np.vstack([K.tri, [u, v, w]]),
                             np.append(K.tri_group, K.tri_group.max() + 1),
                             np.vstack([K.edge, [[v, w], [w, u]]]),
                             np.append(K.kind, [complex2.BOUNDARY] * 2), K.loops)


def test_validated_complexes_keep_lambda_max_at_most_12():
    # verify prints no lambda_max line, as its structure and d2 lines prove
    # it (see cli.cmd_verify): validate refuses a repeated vertex, so a
    # column of d2 holds three +-1 entries, and any edge outside 2 / 1 /
    # 2-or-4 triangles by kind, so a row holds at most four.  A triangle
    # more on an interior edge or on a loop edge is a structure violation,
    # even where it would keep the norm product at 12 or below
    for system in [*criterion11_systems(), three_per_row_system(8, 40)]:
        K = reduce_chain(system, 1e-3).problem.K
        reports = [validate(K)]
        assert reports[0].ok
        count = np.diff(reports[0].d2.to_csr().indptr)
        interior = int(np.argmax(K.kind == complex2.INTERIOR))
        loop = int(np.argmax(np.where(K.kind == complex2.LOOP, count, -1)))  # its most triangles
        for e in (interior, loop):
            report = validate(_with_a_triangle_on(K, e))
            kind = complex2.EDGE_KINDS[K.kind[e]]
            assert report.violation == f"{kind} edge {e} lies in {count[e] + 1} triangles"
            # 15 on a loop edge of four triangles: validate, not the build, bounds it
            assert _norm_product(report.d2) == 3 * max(count.max(), count[e] + 1)
            reports.append(report)
        for report in reports:
            if report.ok:
                assert _norm_product(report.d2) in {6, 12}
                if report.d2.n_cols <= 1500:
                    D = report.d2.to_csr()
                    assert np.linalg.eigvalsh((D.T @ D).toarray()).max() <= 12


def test_spectral_certificate_agrees_with_dense():
    rng = np.random.default_rng(42)
    rows = [difference_row(0, 1), difference_row(0, 1), difference_row(2, 3)]
    corpus = [(plain_da_system(4, rows), np.array([1.0, 1.0, 0.0]))]
    corpus += [random_da_instance(rng, n, extra) for n, extra in
               ((2, 0), (3, 2), (6, 4), (9, 1), (12, 10), (16, 14), (40, 35))]
    for sys, b in corpus:
        P = reduce_da_to_b2(sys, b)
        assert P.n_triangles <= 2000
        check = spectral_certificate(P)
        assert check.ok and check.value == 0.0
        assert dense_nullity(P.d2.to_dense()) == dense_nullity(sys.pattern_matrix().to_dense())


def test_spectral_certificate_fails_on_nullity_mismatch():
    # the complex of a rank-deficient system (nullity 2) against a full-rank
    # difference-average system of the same shape (nullity 1)
    deficient = plain_da_system(4, [difference_row(0, 1), difference_row(0, 1),
                                    difference_row(2, 3)])
    full = plain_da_system(4, [difference_row(0, 1), difference_row(1, 2),
                               difference_row(2, 3)])
    P = dataclasses.replace(reduce_da_to_b2(deficient, np.array([1.0, 1.0, 0.0])), da=full)
    check = spectral_certificate(P)
    assert not check.ok
    # the entries where the dense d2 H and the pattern on the loop edges differ
    rest = P.d2.to_dense() @ group_indicator(P)
    rest[P.K.loops] -= P.da.pattern_matrix().to_dense()[:, None, :]
    assert check.value == np.count_nonzero(rest) > 0
    assert check.bound == 0.0


def test_spectral_certificate_reports_a_nullity_beyond_k():
    # five disjoint difference rows (nullity 5) against a difference chain
    # (nullity 1): the layout check refuses the pair, whose loops do not
    # fit, and gram_spectrum, first asked for k = 4 eigenvalues, all zero,
    # counts the exact 5, not the lower bound 4
    disjoint = plain_da_system(10, [difference_row(2 * i, 2 * i + 1) for i in range(5)])
    chain = plain_da_system(10, [difference_row(i, i + 1) for i in range(9)])
    P = dataclasses.replace(reduce_da_to_b2(disjoint, np.arange(5.0)), da=chain)
    with pytest.raises(complex2.ComplexStructureError, match="does not encode"):
        _gen.check_layout(P.da, P.K)
    eig, nullity = sparse_core.gram_spectrum(P.d2)
    assert nullity == 5 and eig[nullity] > 0.0


def test_spectral_certificate_at_ladder_scale():
    problem = reduce_chain(three_per_row_system(120, 40), 1e-3).problem
    assert problem.n_triangles > 20_000
    check = spectral_certificate(problem)
    assert check.ok
    assert check.value == 0.0


@pytest.fixture
def no_lanczos(monkeypatch):
    """Any Lanczos solve fails the test: the certificate runs none."""
    def fail(*args, **kwargs):
        raise sparse_core.spla.ArpackNoConvergence("no convergence", [], [])

    monkeypatch.setattr(sparse_core.spla, "eigsh", fail)


def test_spectral_certificate_stands_when_lanczos_fails(no_lanczos):
    # the verdict is exact and reads no eigenvalue
    sys, b = single_difference()
    check = spectral_certificate(reduce_da_to_b2(sys, b))
    assert check.ok and check.name == "nullity"
    assert check.note == "d2 H is the pattern on the loop edges and zero elsewhere"
    assert (check.value, check.bound) == (0.0, 0.0)


def _deficient_with_full_da():
    # the complex of a rank-deficient system (nullity 2) against a full-rank
    # difference-average system of the same shape (nullity 1)
    deficient = plain_da_system(4, [difference_row(0, 1), difference_row(0, 1),
                                    difference_row(2, 3)])
    full = plain_da_system(4, [difference_row(0, 1), difference_row(1, 2),
                               difference_row(2, 3)])
    return dataclasses.replace(reduce_da_to_b2(deficient, np.array([1.0, 1.0, 0.0])), da=full)


def _with_a_flipped_triangle():
    # two vertices of one sphere triangle swapped, and d2 = boundary2(K)
    rng = np.random.default_rng(43)
    P = reduce_da_to_b2(*random_da_instance(rng, 6, 4))
    K = P.K
    tri = K.tri.copy()
    tri[P.central[2], [0, 1]] = tri[P.central[2], [1, 0]]
    flipped = complex2.Complex2(K.n_vertices, tri, K.tri_group, K.edge, K.kind, K.loops)
    return dataclasses.replace(P, K=flipped, d2=boundary2(flipped))


@pytest.mark.parametrize("build", [_deficient_with_full_da, _with_a_flipped_triangle])
def test_nullity_identity_fails_without_lanczos(no_lanczos, build):
    P = build()
    check = spectral_certificate(P)
    assert not check.ok
    # the first nonzero of the dense d2 H minus the pattern on the loop edges
    rest = P.d2.to_dense() @ group_indicator(P)
    rest[P.K.loops] -= P.da.pattern_matrix().to_dense()[:, None, :]
    edge, var = np.argwhere(rest)[0]
    assert check.note == (f"d2 H minus the loop-placed pattern is "
                          f"{rest[edge, var]:g} at edge {edge}, variable {var}")
    assert check.value == np.count_nonzero(rest)


def test_nullity_identity_needs_a_group_for_every_variable():
    # a variable without triangles has a zero pattern column here, so d2 H
    # would match the pattern while the pattern has one more null vector;
    # the layout check, which every built problem passes, refuses it
    sys, b = single_difference()
    wider = plain_da_system(sys.n_vars + 1, [difference_row(0, 1)])
    P = dataclasses.replace(reduce_da_to_b2(sys, b), da=wider)
    with pytest.raises(complex2.ComplexStructureError, match="does not encode"):
        _gen.check_layout(P.da, P.K)


def test_gram_spectrum_counts_negative_rounding_zeros(monkeypatch):
    # at the Lanczos shift the zero eigenvalues come out slightly negative
    monkeypatch.setattr(sparse_core.spla, "eigsh",
                        lambda *args, **kwargs: np.array([-9e-17, -2e-17, 1e-9]))
    eig, nullity = sparse_core.gram_spectrum(SparseMatrix.from_scipy(sp.identity(4)))
    assert (nullity, eig[nullity]) == (2, 1e-9)


def test_derived_fields_match_the_construction():
    # central and equation_rhs are read off K and gamma; each equation's
    # three loop edges carry its base weight weight * scale^2, before and
    # after the edge weights
    da, _ = gz2_to_da(random_gz2_system(np.random.default_rng(8), 5, 3), alpha=3.0)
    assert not da.is_unit()
    b = da.rhs
    P = build_boundary_problem(da, b)
    base = np.array([[row.weight * row.scale ** 2] * 3 for row in da_rows(da)])
    assert np.array_equal(P.equation_rhs, b)
    assert np.array_equal(P.weights[P.K.loops], base)
    assert np.array_equal(P.central, np.searchsorted(P.K.tri_group, np.arange(da.n_vars)))
    _, P.weights = compute_edge_weights(P, 5.0)
    assert np.array_equal(P.weights[P.K.loops], base)


# -- the build's d2 and paths against the lookups they replace ---------------------

def _criterion_11_problems():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(4, 13))
        m = int(rng.integers(max(2, n - 2), n + 3))
        sys_g, _ = planted_general_system(rng, n, m, max_entry=50, row_nnz=3, kappa_max=1e4)
        yield reduce_chain(sys_g, 1e-3).problem


def _rung_problems():
    for n in (20, 40, 80):
        yield reduce_chain(three_per_row_system(7, n), 1e-3).problem


def _average_row_problems():
    rng = np.random.default_rng(23)
    for _ in range(12):
        # every extra row beyond the covering difference path is an average
        sys, b = random_da_instance(rng, int(rng.integers(3, 9)), int(rng.integers(1, 9)),
                                    p_average=1.0)
        yield reduce_da_to_b2(sys, b)


def _hole_count_problems():
    # variables 2k and 2k+1 share h difference rows of alternating
    # direction, so both have h holes and every rank has a tube of either
    # sign; the pairs cover h = 1..256, sixteen pairs a system
    for first in range(1, 257, 16):
        rows = []
        for k, h in enumerate(range(first, first + 16)):
            rows += [difference_row(2 * k + r % 2, 2 * k + 1 - r % 2) for r in range(h)]
        yield reduce_da_to_b2(plain_da_system(32, rows), np.zeros(len(rows)))


PROBLEM_FAMILIES = {
    "criterion-11": _criterion_11_problems,
    "rungs-20-40-80": _rung_problems,
    "average-rows": _average_row_problems,
    "hole-counts-1-256": _hole_count_problems,
}


@pytest.mark.parametrize("family", PROBLEM_FAMILIES)
def test_build_matches_the_lookups_it_replaces(family):
    # d2 is boundary2's, and the paths and weights are those of a global
    # breadth-first search, bit for bit
    for P in PROBLEM_FAMILIES[family]():
        d2 = boundary2(P.K)
        assert P.d2.equals(d2)
        assert P.d2.to_csr().indices.dtype == d2.to_csr().indices.dtype

        pw, weights = compute_edge_weights(P, 7.0)
        l_q, path_tube, path_edge, oracle_weights = bfs_edge_weights(P, 7.0)
        assert np.array_equal(pw.l_q, l_q)
        assert np.array_equal(weights, oracle_weights)
        # every tube's path, edge by edge from its boundary triangle up
        assert np.array_equal(np.bincount(_gen.path_tube(pw)), np.bincount(path_tube))
        assert np.array_equal(_gen.path_edge(pw)[np.argsort(_gen.path_tube(pw), kind="stable")],
                              path_edge[np.argsort(path_tube, kind="stable")])


@pytest.mark.parametrize("family", PROBLEM_FAMILIES)
def test_build_counts_are_linear_in_the_pattern(family):
    # the build checks neither its size nor its tubes a row: with a
    # difference rows, b average rows and n variables it makes H = 2a + 4b
    # tubes, two a difference row and four an average row, 3d + 3H
    # vertices, 11H - 4n triangles and 3d + 15H - 6n edges
    for P in PROBLEM_FAMILIES[family]():
        da = P.da
        b = int(np.count_nonzero(da.average))
        a, d, n = da.n_rows - b, da.n_rows, da.n_vars
        H = 2 * a + 4 * b
        assert da.pattern_nnz == 2 * a + 3 * b
        assert (P.K.n_vertices, P.n_triangles, P.n_edges) == (
            3 * d + 3 * H, 11 * H - 4 * n, 3 * d + 15 * H - 6 * n)
        per_row = np.bincount(_gen.tube_refs(P).q, minlength=d)
        assert np.array_equal(per_row, np.where(da.average, 4, 2)) and per_row.max() <= 4


def test_reduce_chain_looks_up_no_edge_and_no_adjacency(monkeypatch):
    def forbidden(*args, **kwargs):
        pytest.fail("reduce_chain looked its own cells up")

    for module in (complex2, b2_reduce):
        for name in ("_lookup", "triangle_adjacency", "boundary2"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    problem = reduce_chain(three_per_row_system(5, 12), 1e-3).problem
    monkeypatch.undo()
    assert problem.d2.equals(boundary2(problem.K)) and validate(problem.K).ok


def test_reduce_chain_lists_no_path(monkeypatch):
    # the weights come from per-family suffix sums; the path arrays are laid
    # out only when read
    def forbidden(*args, **kwargs):
        pytest.fail("the paths were listed")

    monkeypatch.setattr(_gen, "_tube_paths", forbidden)
    chain = reduce_chain(three_per_row_system(5, 12), 1e-3)
    pw, weights = compute_edge_weights(chain.problem, chain.alpha)
    assert np.array_equal(weights, chain.problem.weights)
    with pytest.raises(pytest.fail.Exception, match="the paths were listed"):
        _gen.path_edge(pw)
    monkeypatch.undo()
    l_q, path_tube, path_edge, oracle_weights = bfs_edge_weights(chain.problem, chain.alpha)
    assert np.array_equal(weights, oracle_weights) and np.array_equal(pw.l_q, l_q)
    assert np.array_equal(_gen.path_edge(pw)[np.argsort(_gen.path_tube(pw), kind="stable")],
                          path_edge[np.argsort(path_tube, kind="stable")])


def test_sphere_path_families_share_their_edges():
    # the paths of one case on one sphere cross the same k-th edge: start,
    # step and even do not depend on the rank, and only the count does, in
    # the one case that holds several ranks
    rank_coef = b2_reduce._SPHERE_PATHS[:, 2]
    assert not rank_coef[:, 1:4].any()
    assert np.flatnonzero(rank_coef[:, 0]).tolist() == [len(rank_coef) - 1]
