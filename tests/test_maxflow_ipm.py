import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from lin2complex import maxflow_ipm, sparse_core
from lin2complex.b2_reduce import reduce_da_to_b2
from lin2complex.da_reduce import average_row, difference_row, plain_da_system
from lin2complex.maxflow_ipm import (
    IPM_TARGET,
    BarrierState,
    FlowNetwork2,
    NetworkError,
    barrier_derivatives,
    barrier_value,
    centering_step,
    estimate_f_star,
    f_star_bracket,
    initial_state,
    progress_step,
    run_ipm,
)

from _gen import planted_da_instance


def single_tube_network() -> FlowNetwork2:
    """One difference equation, unit capacities; group-constant flows make the
    optimum the largest F with every triangle within capacity, here F* = 2."""
    sys = plain_da_system(2, [difference_row(0, 1)])
    P = reduce_da_to_b2(sys, np.array([1.0]))
    return FlowNetwork2(P.K, np.ones(P.n_triangles), P.gamma, f_star=2.0)


def test_barrier_derivatives_at_zero():
    net = single_tube_network()
    g, h = barrier_derivatives(net, initial_state(net))
    assert np.all(g == 0.0)
    assert np.allclose(h, 2.0)


def test_barrier_derivatives_half_capacity():
    net = single_tube_network()
    state = BarrierState(np.full(net.d2().n_cols, 0.5))
    g, h = barrier_derivatives(net, state)
    assert np.allclose(g, 4.0 / 3.0)
    assert np.allclose(h, 4.0 + 4.0 / 9.0)


def test_barrier_derivatives_match_finite_differences():
    rng = np.random.default_rng(5)
    net = single_tube_network()
    f = rng.uniform(-0.4, 0.4, size=net.d2().n_cols)
    g, h = barrier_derivatives(net, BarrierState(f))
    eps = 1e-6
    for idx in range(0, f.size, 3):
        e = np.zeros_like(f)
        e[idx] = eps
        g_fd = (barrier_value(net, f + e) - barrier_value(net, f - e)) / (2 * eps)
        assert g[idx] == pytest.approx(g_fd, rel=1e-6, abs=1e-6)
        gp, _ = barrier_derivatives(net, BarrierState(f + e))
        gm, _ = barrier_derivatives(net, BarrierState(f - e))
        h_fd = (gp[idx] - gm[idx]) / (2 * eps)
        assert h[idx] == pytest.approx(h_fd, rel=1e-5, abs=1e-5)


def test_progress_step_zero_increment_is_centering():
    net = single_tube_network()
    state = progress_step(net, initial_state(net), 1e-12)
    d2 = net.d2().to_dense()
    assert np.linalg.norm(d2 @ state.f) <= 1e-10


def test_progress_step_demand_consistency():
    net = single_tube_network()
    state = initial_state(net)
    d2 = net.d2().to_dense()
    for _ in range(5):
        state = progress_step(net, state, 0.05)
        target = state.alpha * net.f_star * net.gamma
        assert np.linalg.norm(d2 @ state.f - target) <= 1e-8 * np.linalg.norm(net.f_star * net.gamma)


def test_progress_step_requires_headroom():
    net = single_tube_network()
    state = initial_state(net)
    state.alpha = 0.9
    with pytest.raises(ValueError):
        progress_step(net, state, 0.2)


def test_centering_preserves_demand_and_barrier():
    rng = np.random.default_rng(7)
    net = single_tube_network()
    d2 = net.d2().to_dense()
    state = initial_state(net)
    state = progress_step(net, state, 0.3)
    for _ in range(20):
        before = d2 @ state.f
        v_before = barrier_value(net, state.f)
        state2 = centering_step(net, state)
        assert np.linalg.norm(d2 @ state2.f - before) <= 1e-10 * max(1.0, np.linalg.norm(before))
        assert barrier_value(net, state2.f) <= v_before + 1e-12
        assert np.all(np.abs(state2.f) < net.capacities)
        # wander off-center, stay strictly interior
        state = state2
        bump = rng.normal(scale=0.02, size=state.f.size)
        trial = state.f + bump - d2.T @ np.linalg.lstsq(d2.T, bump, rcond=None)[0]
        if np.all(np.abs(trial) < net.capacities * 0.98):
            state = BarrierState(trial, state.alpha)


def test_run_ipm_single_tube_reaches_optimum():
    net = single_tube_network()
    result = run_ipm(net, 500)
    assert result.alpha >= 0.99
    assert np.all(np.abs(result.f) < net.capacities)
    d2 = net.d2().to_dense()
    target = result.alpha * net.f_star * net.gamma
    assert np.linalg.norm(d2 @ result.f - target) <= 1e-6 * np.linalg.norm(net.f_star * net.gamma)


def test_run_ipm_average_complex():
    rng = np.random.default_rng(9)
    sys, b, x_star = planted_da_instance(rng, 2, 3, 1)
    P = reduce_da_to_b2(sys, b)
    if np.linalg.norm(P.gamma) == 0:
        return
    scale = max(1.0, np.max(np.abs(x_star)))
    net = FlowNetwork2(P.K, np.full(P.n_triangles, 2.0 * scale), P.gamma)
    # the group-constant flow 2 x* stays within capacity, so F = 2 is routable
    net.f_star = 2.0
    result = run_ipm(net, 300)
    assert result.alpha >= 0.9
    assert np.all(np.abs(result.f) < net.capacities)


def test_run_ipm_zero_demand():
    net = single_tube_network()
    net.gamma = np.zeros_like(net.gamma)
    result = run_ipm(net, 50)
    assert result.alpha == 0.0
    assert np.all(result.f == 0.0)
    # without an f_star none is estimated, so a second run validates too
    net.f_star = None
    for _ in range(2):
        assert run_ipm(net, 50).alpha == 0.0
    assert net.f_star is None


def test_zero_capacity_rejected():
    net = single_tube_network()
    net.capacities[0] = 0.0
    with pytest.raises(NetworkError):
        run_ipm(net, 10)


def test_demand_outside_image_rejected():
    net = single_tube_network()
    net.gamma = np.zeros_like(net.gamma)
    net.gamma[net.K.loops[0, 0]] = 1.0  # one loop edge only: not in im(d2)
    with pytest.raises(NetworkError):
        net.validate()


def test_estimate_f_star_single_tube():
    net = single_tube_network()
    net.f_star = None
    est = estimate_f_star(net)
    assert est == pytest.approx(2.0, rel=1e-9)


def test_estimate_f_star_zero_demand_is_zero():
    net = single_tube_network()
    net.gamma = np.zeros_like(net.gamma)
    assert estimate_f_star(net) == 0.0


def _demo_network(average: bool) -> FlowNetwork2:
    """The networks of ``scripts/run_maxflow_demo.py``, unit capacities."""
    if average:
        sys = plain_da_system(3, [average_row(0, 1, 2), difference_row(0, 1)])
        b = np.array([0.0, 1.0])
    else:
        sys = plain_da_system(2, [difference_row(0, 1)])
        b = np.array([1.0])
    P = reduce_da_to_b2(sys, b)
    return FlowNetwork2(P.K, np.ones(P.n_triangles), P.gamma)


def _lp_max_flow(net: FlowNetwork2) -> float:
    """max F subject to d2 f = F gamma and |f| <= c, from HiGHS on the dense d2."""
    d2 = net.d2().to_dense()
    cost = np.zeros(d2.shape[1] + 1)
    cost[-1] = -1.0
    res = linprog(cost, A_eq=np.hstack([d2, -net.gamma[:, None]]), b_eq=np.zeros(d2.shape[0]),
                  bounds=[(-c, c) for c in net.capacities] + [(None, None)], method="highs")
    assert res.status == 0
    return -res.fun


@pytest.mark.parametrize("average,f_star,alpha,n_log", [
    (False, 1.9999999999644766, 0.9954238666012832, 12),
    (True, 1.999999999977745, 0.9955364117577113, 13),
], ids=["difference", "average"])
def test_demo_network_trajectory_is_pinned(average, f_star, alpha, n_log):
    # pins the whole path, not just the end state: the bisection outcome
    # depends on every probe's accepted increments, alpha on every halving
    net = _demo_network(average)
    net.f_star = estimate_f_star(net)
    result = run_ipm(net, 300)
    assert net.f_star == pytest.approx(f_star, rel=1e-9)
    assert result.alpha == pytest.approx(alpha, rel=1e-12)
    assert len(result.log) == n_log
    optimum = _lp_max_flow(net)
    assert abs(net.f_star - optimum) <= 1e-6 * optimum
    demand = net.f_star * net.gamma
    assert np.linalg.norm(net.d2().to_dense() @ result.f - result.alpha * demand) \
        <= 1e-9 * np.linalg.norm(demand)


def test_network_is_validated_once_across_f_star_and_ipm(monkeypatch):
    # the gamma-in-image check is a least-squares solve; estimate_f_star
    # and run_ipm on the same network share its outcome
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return sparse_core.lu_solve(*args, **kwargs)

    monkeypatch.setattr(maxflow_ipm, "lu_solve", counted)
    net = _demo_network(average=True)
    net.f_star = estimate_f_star(net)
    run_ipm(net, 20)
    assert len(calls) == 1


@pytest.mark.parametrize("fault", ["gamma", "capacity"])
@pytest.mark.parametrize("entry", ["run_ipm", "estimate_f_star"])
def test_invalid_network_raises_after_a_passed_check(fault, entry):
    net = _demo_network(average=False)
    net.validate()
    if fault == "gamma":
        net.gamma[net.K.loops[0, 0]] += 1.0  # one loop edge only: not in im(d2)
    else:
        net.capacities[0] = -1.0
    with pytest.raises(NetworkError):
        if entry == "run_ipm":
            run_ipm(net, 10)
        else:
            estimate_f_star(net)


def test_progress_step_factors_once_however_often_it_halves(monkeypatch):
    factorizations, lsqr_calls = [], []
    splu, lsqr = sparse_core.spla.splu, sparse_core.spla.lsqr

    def counting_splu(*args, **kwargs):
        factorizations.append(1)
        return splu(*args, **kwargs)

    def counting_lsqr(*args, **kwargs):
        lsqr_calls.append(1)
        return lsqr(*args, **kwargs)

    monkeypatch.setattr(sparse_core.spla, "splu", counting_splu)
    monkeypatch.setattr(sparse_core.spla, "lsqr", counting_lsqr)
    net = single_tube_network()
    net.f_star = 4.0  # twice the optimum: the full request leaves the box
    state = progress_step(net, initial_state(net), 0.9)
    assert state.alpha <= 0.45
    assert len(factorizations) == 1
    factorizations.clear()
    centering_step(net, state)
    assert len(factorizations) == 1
    assert not lsqr_calls


def test_newton_parts_match_dense_pseudo_inverse_step():
    rng = np.random.default_rng(11)
    net = _demo_network(average=True)
    d2 = net.d2().to_dense()
    interior = rng.uniform(-0.6, 0.6, size=d2.shape[1])
    # one triangle at 1 - 1e-6 of its capacity: H spans twelve orders
    near_boundary = interior.copy()
    i = np.argmax(np.abs(interior))
    near_boundary[i] = np.sign(interior[i]) * (1.0 - 1e-6)
    for f in (interior, near_boundary):
        g, h = barrier_derivatives(net, BarrierState(f))
        base, unit, lam, g_parts, h_parts = maxflow_ipm._newton_parts(net, f, with_demand=True)
        assert np.array_equal(g_parts, g) and np.array_equal(h_parts, h)
        # the dense step from an SVD of M = d2 H^-1/2: M^+ M is the projection
        # onto M's row space, so base = -H^-1/2 N N^T H^-1/2 g with N a basis
        # of ker M, which avoids the cancellation in H^-1/2 M^+ d2 H^-1 g - H^-1 g
        # near the boundary; unit = H^-1/2 M^+ gamma
        s = 1.0 / np.sqrt(h)
        U, sigma, Vt = np.linalg.svd(d2 * s)
        rank = int(np.sum(sigma > sigma[0] * max(d2.shape) * np.finfo(float).eps))
        null = Vt[rank:].T
        dense_base = -s * (null @ (null.T @ (s * g)))
        dense_unit = s * (Vt[:rank].T @ ((U[:, :rank].T @ net.gamma) / sigma[:rank]))
        for inc in (0.0, 0.3, -1.7):
            dense = dense_base + inc * dense_unit
            delta = base + inc * unit
            assert np.linalg.norm(delta - dense) <= 1e-9 * np.linalg.norm(dense)
            assert np.linalg.norm(d2 @ delta - inc * net.gamma) <= 1e-9 * max(
                1.0, np.linalg.norm(inc * net.gamma))
        centered, none, lam_centered, *_ = maxflow_ipm._newton_parts(net, f, with_demand=False)
        assert none is None and np.array_equal(centered, base)
        # lam is the multiplier y of K [z; y] = [0; d2 H^-1 g], so z = -M^T y
        # is the minimum-norm solution of M z = d2 H^-1 g, M = d2 H^-1/2
        M, rhs = d2 * s, d2 @ (g / h)
        assert np.linalg.norm(M @ (M.T @ lam) + rhs) <= 1e-6 * np.linalg.norm(rhs)
        assert np.array_equal(lam_centered, lam)


def _planted_networks(count: int = 4):
    """Difference-average complexes with capacities drawn from [0.5, 2]: the
    optimum saturates an irregular set of triangles, unlike the demo networks."""
    rng = np.random.default_rng(2026)
    for spec in [(2, 3, 1), (3, 4, 2)] * (count // 2):
        sys_da, b, _ = planted_da_instance(rng, *spec)
        P = reduce_da_to_b2(sys_da, b)
        yield FlowNetwork2(P.K, rng.uniform(0.5, 2.0, P.n_triangles), P.gamma)


@pytest.mark.parametrize("net", list(_planted_networks()))
def test_f_star_bracket_holds_the_lp_optimum_on_planted_networks(net):
    optimum = _lp_max_flow(net)
    lower, upper, lam = f_star_bracket(net)
    assert optimum * (1 - 1e-6) <= lower <= optimum * (1 + 1e-8)
    assert estimate_f_star(net) == lower
    # weak duality recomputed from the multipliers alone, without the library
    d2 = net.d2().to_dense()
    dual = net.capacities @ np.abs(d2.T @ lam) / abs(net.gamma @ lam)
    assert dual == pytest.approx(upper, rel=1e-12)
    assert dual >= optimum
    assert lower <= upper


@pytest.mark.parametrize("net", list(_planted_networks()))
def test_run_ipm_takes_long_steps_on_planted_networks(net):
    net.f_star = estimate_f_star(net)
    result = run_ipm(net, 300)
    assert result.alpha >= IPM_TARGET
    assert sum(rec.kind == "progress" for rec in result.log) <= 20
    assert np.all(np.abs(result.f) < net.capacities)
    demand = net.f_star * net.gamma
    assert np.linalg.norm(net.d2().to_dense() @ result.f - result.alpha * demand) \
        <= 1e-9 * np.linalg.norm(demand)


@pytest.mark.parametrize("above_optimum", [False, True], ids=["planted", "above-optimum"])
def test_run_ipm_doubles_the_request_only_after_an_unhalved_step(above_optimum, monkeypatch):
    # the fourth planted network reaches the target with no halved step;
    # with f* above the optimum the steps near alpha = 2 / 2.2 halve
    if above_optimum:
        net = _demo_network(average=False)
        net.f_star = 2.2
    else:
        net = list(_planted_networks())[3]
        net.f_star = estimate_f_star(net)
    calls = []

    def recorded(network, state, alpha_prime, max_retries=40):
        result = progress_step(network, state, alpha_prime, max_retries)
        calls.append((state.alpha, alpha_prime, result.alpha - state.alpha))
        return result

    monkeypatch.setattr(maxflow_ipm, "progress_step", recorded)
    run_ipm(net, 40)
    base = 1.0 / (20.0 * math.sqrt(net.d2().n_cols))
    doubled = halved = 0
    for (_, request, achieved), (alpha, following, _) in zip(calls, calls[1:]):
        cap = (1.0 - alpha) / 2.0
        if achieved > 0.75 * request:  # (alpha + request) - alpha may round
            assert following == pytest.approx(min(2.0 * achieved, cap), rel=1e-12)
            doubled += following > request
        else:
            assert following <= max(achieved, base)
            halved += 1
    for alpha, request, _ in calls:
        assert request <= (1.0 - alpha) / 2.0
        assert request >= base or request == (1.0 - alpha) / 2.0
    assert doubled and bool(halved) == above_optimum


def _count_factorizations(monkeypatch) -> list:
    calls = []
    factor = sparse_core.AugmentedSystem.factor

    def counted(self, *args, **kwargs):
        calls.append(1)
        return factor(self, *args, **kwargs)

    monkeypatch.setattr(sparse_core.AugmentedSystem, "factor", counted)
    return calls


def _assert_centers_only_after_halving(log, factorizations: int) -> None:
    """A centering half-step follows each halved progress step and no other
    step, and each half-step made one factorization."""
    for k, rec in enumerate(log):
        if rec.kind == "centering":
            assert k and log[k - 1].kind == "progress" and log[k - 1].halvings
        elif rec.halvings:
            assert k + 1 < len(log) and log[k + 1].kind == "centering"
    assert factorizations == len(log)


@pytest.mark.parametrize("average,n_factor", [(False, 12), (True, 13)],
                         ids=["difference", "average"])
def test_run_ipm_factors_once_per_unhalved_step(average, n_factor, monkeypatch):
    net = _demo_network(average)
    net.f_star = estimate_f_star(net)  # validates the network, once
    calls = _count_factorizations(monkeypatch)
    result = run_ipm(net, 300)
    assert len(calls) == n_factor
    _assert_centers_only_after_halving(result.log, len(calls))


def test_run_ipm_centers_after_each_halved_step(monkeypatch):
    # with f* above the optimum most steps near alpha = 2 / 2.2 halve
    net = _demo_network(average=False)
    net.f_star = 2.2
    net.validate()
    calls = _count_factorizations(monkeypatch)
    result = run_ipm(net, 40)
    progress = [rec for rec in result.log if rec.kind == "progress"]
    halved = sum(rec.halvings > 0 for rec in progress)
    assert len(progress) == 40 and 0 < halved < 40
    assert len(result.log) == 40 + halved
    _assert_centers_only_after_halving(result.log, len(calls))


@pytest.mark.parametrize("net", list(_planted_networks(12)))
def test_run_ipm_reaches_the_target_inside_the_capacities(net, monkeypatch):
    net.f_star = estimate_f_star(net)
    calls = _count_factorizations(monkeypatch)
    result = run_ipm(net, 300)
    assert result.alpha >= IPM_TARGET
    assert np.all(np.abs(result.f) < net.capacities)
    demand = net.f_star * net.gamma
    assert np.linalg.norm(net.d2().to_dense() @ result.f - result.alpha * demand) \
        <= 1e-9 * np.linalg.norm(demand)
    _assert_centers_only_after_halving(result.log, len(calls))


def test_demo_network_bracket_closes():
    for average in (False, True):
        lower, upper, _ = f_star_bracket(_demo_network(average))
        assert upper - lower <= 1e-9 * lower
        assert lower == pytest.approx(2.0, rel=1e-9)


@pytest.mark.parametrize("f_star", [0, 0.0, -2.0, -math.inf])
def test_non_positive_f_star_is_refused(f_star):
    # run_ipm reported alpha 0.9954 for an f_star of 0 and of -2
    net = _demo_network(average=False)
    net.f_star = f_star
    with pytest.raises(NetworkError, match="^f_star must be a positive finite number"):
        run_ipm(net, 10)


def test_bracket_without_dual_bound_raises(monkeypatch):
    monkeypatch.setattr(maxflow_ipm, "_dual_bound", lambda net, lam: math.inf)
    with pytest.raises(NetworkError):
        estimate_f_star(_demo_network(average=False))


def test_f_star_bracket_factors_once_per_newton_solve(monkeypatch):
    # the dual bound reads its multipliers off the last Newton solve, where
    # it used to factor the KKT matrix again at the same f; the one other
    # factor is validate's check that gamma lies in im(d2)
    factorizations, solves = [], []
    splu, parts = sparse_core.spla.splu, maxflow_ipm._newton_parts

    def counting_splu(*args, **kwargs):
        factorizations.append(1)
        return splu(*args, **kwargs)

    def counting_parts(*args, **kwargs):
        solves.append(1)
        return parts(*args, **kwargs)

    monkeypatch.setattr(sparse_core.spla, "splu", counting_splu)
    monkeypatch.setattr(maxflow_ipm, "_newton_parts", counting_parts)
    lower, upper, _ = f_star_bracket(_demo_network(average=False))
    assert lower <= upper < math.inf
    assert len(factorizations) == len(solves) + 1
    assert solves


def test_bracket_without_feasible_push_raises(monkeypatch):
    # a demand direction that routes 1.001 gamma per unit of F: no stage
    # yields a flow with d2 f = F gamma, so there is no lower bound
    parts = maxflow_ipm._newton_parts

    def drifting(net, f, with_demand):
        base, unit, *rest = parts(net, f, with_demand)
        return base, 1.001 * unit, *rest
    monkeypatch.setattr(maxflow_ipm, "_newton_parts", drifting)
    with pytest.raises(NetworkError):
        estimate_f_star(_demo_network(average=True))


def test_f_star_and_ipm_leave_scipy_optimize_unloaded():
    # importing scipy.optimize costs about 15 MB of resident memory
    code = textwrap.dedent("""
        import sys
        import numpy as np
        from lin2complex.b2_reduce import reduce_da_to_b2
        from lin2complex.da_reduce import difference_row, plain_da_system
        from lin2complex.maxflow_ipm import FlowNetwork2, estimate_f_star, run_ipm
        P = reduce_da_to_b2(plain_da_system(2, [difference_row(0, 1)]), np.array([1.0]))
        net = FlowNetwork2(P.K, np.ones(P.n_triangles), P.gamma)
        net.f_star = estimate_f_star(net)
        assert run_ipm(net, 50).alpha > 0.0
        print("scipy.optimize" in sys.modules)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"
