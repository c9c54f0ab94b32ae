"""Log-barrier interior point method for gamma-maxflow on 2-complex networks.

The LP maximizes F subject to d2 f = F gamma and -c <= f <= c.  ``run_ipm``
takes progress steps (Newton steps that also raise the routed fraction by
alpha', doubled after every step that did not halve it) and re-centers with
a centering step only after a step that halved it; ``f_star_bracket``
follows one barrier path in (f, F) to a certified bracket on the optimum.
A Newton step applies the pseudo-inverse of d2 H^-1 d2^T through one sparse
LU of the quasi-definite KKT matrix (``sparse_core.AugmentedSystem``, whose
pattern each network builds once) and one refinement step; it is linear in
the demand increment, so one factorization gives the barrier part and the
demand direction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .complex2 import Complex2, boundary2
from .sparse_core import AugmentedSystem, SparseMatrix, lu_solve


# run_ipm stops once the routed fraction alpha reaches IPM_TARGET
IPM_TARGET = 0.995


class NetworkError(ValueError):
    """The flow network violates its invariants."""


class StepRejectedError(RuntimeError):
    """A step could not be made feasible within the retry budget."""


@dataclass
class FlowNetwork2:
    """Capacitated triangle-flow network with edge demands in im(d2)."""

    K: Complex2
    capacities: np.ndarray
    gamma: np.ndarray
    f_star: float | None = None
    _d2: SparseMatrix | None = field(default=None, init=False, repr=False)
    _kkt: AugmentedSystem | None = field(default=None, init=False, repr=False)
    _gamma_in_image: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        for name in ("capacities", "gamma"):
            try:  # a string or a ragged nested list raises
                setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64).ravel())
            except (TypeError, ValueError) as exc:
                raise NetworkError(f"{name} must be numbers: {exc}") from None

    def d2(self) -> SparseMatrix:
        if self._d2 is None:
            self._d2 = boundary2(self.K)
        return self._d2

    def kkt(self) -> AugmentedSystem:
        """The pattern of the Newton system ``[[I, B], [B^T, -delta I]]`` with
        ``B = (d2 H^-1/2)^T`` (triangles by edges), built once per network."""
        if self._kkt is None:
            d2 = self.d2()
            self._kkt = AugmentedSystem(d2.n_cols, d2.n_rows, d2.cols, d2.rows)
        return self._kkt

    def validate(self) -> None:
        """Check the sizes, positive finite capacities, finite demands, a
        positive finite f_star when set and gamma in im(d2), the last by one
        ``lu_solve`` of d2 alone (not the capacities), once per gamma."""
        d2 = self.d2()
        if self.capacities.size != d2.n_cols:
            raise NetworkError("capacity vector length does not match the triangles")
        if self.gamma.size != d2.n_rows:
            raise NetworkError("demand vector length does not match the edges")
        if not np.all((self.capacities > 0.0) & (self.capacities < math.inf)):
            raise NetworkError("capacities must be strictly positive and finite")
        if not np.all(np.isfinite(self.gamma)):
            raise NetworkError("demands must be finite")
        if self.f_star is not None and not (isinstance(self.f_star, numbers.Real)
                                            and 0 < self.f_star < math.inf):
            raise NetworkError(f"f_star must be a positive finite number, got {self.f_star!r}")
        if np.array_equal(self._gamma_in_image, self.gamma):  # False while None
            return
        # gamma - P gamma is the out-of-image part, free of ||P gamma||'s cancellation
        outside = self.gamma - d2 @ lu_solve(d2, self.gamma)[0]
        if np.linalg.norm(outside) > 1e-8 * np.linalg.norm(self.gamma):
            raise NetworkError("gamma is not in the image of d2")
        self._gamma_in_image = self.gamma.copy()


@dataclass(frozen=True)
class StepRecord:
    step: int
    kind: str
    alpha: float
    barrier: float
    residual: float
    halvings: int


@dataclass
class BarrierState:
    """Strictly interior flow together with the routed fraction alpha."""

    f: np.ndarray
    alpha: float = 0.0


def initial_state(net: FlowNetwork2) -> BarrierState:
    return BarrierState(np.zeros(net.d2().n_cols), 0.0)


def barrier_value(net: FlowNetwork2, f) -> float:
    c = net.capacities
    lo, hi = c - f, c + f
    if np.any(lo <= 0.0) or np.any(hi <= 0.0):
        return math.inf
    return float(-np.sum(np.log(lo)) - np.sum(np.log(hi)))


def barrier_derivatives(net: FlowNetwork2, state: BarrierState):
    """Gradient 1/(c-f) - 1/(c+f) and diagonal Hessian 1/(c-f)^2 + 1/(c+f)^2."""
    c = net.capacities
    f = state.f
    lo, hi = c - f, c + f
    if np.any(lo <= 0.0) or np.any(hi <= 0.0):
        raise StepRejectedError("state touches the capacity boundary")
    g = 1.0 / lo - 1.0 / hi
    h = 1.0 / lo ** 2 + 1.0 / hi ** 2
    return g, h


def _newton_parts(net: FlowNetwork2, f, with_demand: bool):
    """Newton step for the barrier problem, split by its demand increment.

    The step for demand increase ``inc`` solves
    d2 H^-1 d2^T x = d2 H^-1 g + inc * gamma through the least-squares system
    M z = rhs with M = d2 H^(-1/2), and is delta = H^(-1/2) z - H^-1 g, which
    satisfies d2 delta = inc * gamma.  The minimum-norm z is linear in rhs, so
    delta(inc) = base + inc * unit with base = H^(-1/2) M^+ (d2 H^-1 g) - H^-1 g
    and unit = H^(-1/2) M^+ gamma.  Both come from one factorization of the
    KKT matrix with ``B = M^T``, unequilibrated because equilibration would
    change which z has minimum norm: ``K [z; y] = [0; rhs]`` gives
    ``z = M^T (M M^T + delta I)^-1 rhs``.  Near the capacity boundary H spans
    many orders and delta damps the directions only near-boundary triangles
    carry, so one refinement step solves for ``rhs - M z`` with the same
    factor.  Returns (base, unit, lam, g, h): unit None without demand, lam
    the multiplier y of the first solve, g and h ``barrier_derivatives``.
    """
    g, h = barrier_derivatives(net, BarrierState(f))
    inv_sqrt = 1.0 / np.sqrt(h)
    d2 = net.d2()
    lu = net.kkt().factor(d2.vals * inv_sqrt[d2.cols])
    csr = d2.to_csr()
    rhs = np.column_stack([csr @ (g / h)] + ([net.gamma] if with_demand else []))
    top = np.zeros((f.size, rhs.shape[1]))

    def solve(e):  # (H^-1/2 M^+ e, so M M^+ e = d2 @ it; y's first column)
        zy = lu.solve(np.vstack([top, e]))
        return inv_sqrt[:, None] * zy[:f.size], zy[f.size:, 0]
    steps, lam = solve(rhs)
    steps += solve(rhs - csr @ steps)[0]
    base = steps[:, 0] - g / h
    return base, steps[:, 1] if with_demand else None, lam, g, h


def _strictly_interior(net: FlowNetwork2, f, margin: float = 1e-12) -> bool:
    return bool(np.all(np.abs(f) < net.capacities * (1.0 - margin)))


def progress_step(net: FlowNetwork2, state: BarrierState, alpha_prime: float,
                  max_retries: int = 40) -> BarrierState:
    """Advance the routed fraction by (up to) alpha_prime.

    The Newton direction is linear in the demand increment, so it is solved
    for once and a rejected step is retried with the increment halved; the
    achieved increment is recorded on the returned state.
    """
    if net.f_star is None:
        raise NetworkError("the optimal flow value is required; supply or estimate it")
    if not (state.alpha + alpha_prime < 1.0):
        raise ValueError("alpha + alpha_prime must stay below 1")
    base, unit, *_ = _newton_parts(net, state.f, with_demand=True)
    inc = alpha_prime
    for _ in range(max_retries):
        f_new = state.f + (base + (inc * net.f_star) * unit)
        if _strictly_interior(net, f_new):
            return BarrierState(f_new, state.alpha + inc)
        inc *= 0.5
    raise StepRejectedError("progress step rejected after exhausting retries")


def centering_step(net: FlowNetwork2, state: BarrierState) -> BarrierState:
    """Newton step with zero demand increment; damped (at most 40 halvings)
    until the barrier does not increase and the iterate stays strictly
    interior."""
    delta, *_ = _newton_parts(net, state.f, with_demand=False)
    v0 = barrier_value(net, state.f)
    eta = 1.0
    for _ in range(40):
        f_new = state.f + eta * delta
        if _strictly_interior(net, f_new) and barrier_value(net, f_new) <= v0 + 1e-12:
            return BarrierState(f_new, state.alpha)
        eta *= 0.5
    return BarrierState(state.f.copy(), state.alpha)


@dataclass(frozen=True)
class IPMResult:
    f: np.ndarray
    alpha: float
    log: tuple[StepRecord, ...]


def run_ipm(net: FlowNetwork2, steps: int) -> IPMResult:
    """Take at most ``steps`` progress steps, each followed by a centering
    step only when it was halved; returns the last state and the log of
    every half-step.

    An unhalved progress step is the full barrier Newton step at its new
    demand, whose ``base`` part is the centering direction, so path following
    needs one Newton step, one KKT factorization, per target update
    (Renegar, Math. Prog. 40, 1988); a halved one leaves the iterate short
    of its target's center, and a centering step follows it.

    Long steps (Wright, Primal-Dual Interior-Point Methods, 1997): the first
    progress step requests ``base = 1/(20 sqrt(t))`` of the demand.  After a
    step that was not halved the next request is twice the increment it
    achieved, after a halved one the increment it achieved.  No request
    falls below ``base`` or exceeds ``(1 - alpha)/2``, so alpha stays below
    1, and the run stops once alpha reaches ``IPM_TARGET``.  A progress step
    that returns always increases alpha, so the last state is also the one
    with the largest alpha.
    """
    net.validate()
    state = initial_state(net)
    if float(np.linalg.norm(net.gamma)) == 0.0:
        # nothing to route, and no f_star: validate refuses the 0 it would be
        return IPMResult(state.f, state.alpha, ())
    if net.f_star is None:
        net.f_star = estimate_f_star(net)
    base = 1.0 / (20.0 * math.sqrt(net.d2().n_cols))
    d2 = net.d2().to_csr()
    gnorm = float(np.linalg.norm(net.f_star * net.gamma))
    log = []

    def record(step: int, kind: str, halvings: int) -> None:
        res = float(np.linalg.norm(d2 @ state.f - state.alpha * net.f_star * net.gamma))
        log.append(StepRecord(step, kind, state.alpha, barrier_value(net, state.f),
                              res / gnorm if gnorm else res, halvings))

    request = base
    for step in range(steps):
        inc = min(max(request, base), (1.0 - state.alpha) * 0.5)
        before = state.alpha
        state = progress_step(net, state, inc)
        achieved = state.alpha - before
        halvings = int(round(math.log2(inc / achieved))) if achieved > 0.0 else 0
        request = achieved if halvings else 2.0 * achieved
        record(step, "progress", halvings)
        if halvings:  # an unhalved step already is the Newton step at its target
            state = centering_step(net, state)
            record(step, "centering", 0)
        if state.alpha >= IPM_TARGET:
            break
    return IPMResult(state.f, state.alpha, tuple(log))


def _dual_bound(net: FlowNetwork2, lam) -> float:
    """``F <= c^T |d2^T lam| / |gamma^T lam|`` by weak duality, for any edge
    vector lam; inf when ``gamma^T lam`` is 0."""
    dot = abs(float(net.gamma @ lam))
    return float(net.capacities @ np.abs(net.d2().to_csr().T @ lam)) / dot if dot else math.inf


def f_star_bracket(net: FlowNetwork2):
    """Certified bracket ``(lower, upper, lam)`` on the optimal flow value.

    One barrier path minimises ``-t F + phi(f)`` subject to ``d2 f = F gamma``
    (Boyd & Vandenberghe, Convex Optimization, 11.3): Newton steps
    ``base + inc unit`` (``_newton_parts``), ``inc = (t - g^T unit - unit^T H
    base) / (unit^T H unit)``, damped to a squared decrement of 1e-3; t *= 10.
    A stage's push along unit to the capacity boundary, a flow with
    ``d2 f = F gamma`` to 1e-9 relative, is the lower bound, and
    ``_dual_bound`` of the multipliers of the stage's last Newton solve the
    upper.  Stops at a gap of 1e-9 or the first push that fails (the
    float floor); raises ``NetworkError`` if no finite bracket results.
    """
    net.validate()
    c, gamma, d2 = net.capacities, net.gamma, net.d2().to_csr()
    if not np.any(gamma):
        return 0.0, math.inf, None  # a zero demand routes any flow value
    f, F, upper = np.zeros(c.size), 0.0, math.inf
    t0 = c.size * float(np.max(np.abs(gamma)) / np.sum(c))  # F <= sum(c) / max|gamma|
    for t in t0 * np.logspace(0, 39, 40):
        for _ in range(50):
            base, unit, y, g, h = _newton_parts(net, f, with_demand=True)
            inc = (t - g @ unit - unit @ (h * base)) / (unit @ (h * unit))
            step = base + inc * unit
            decrement = float(step @ (h * step))  # squared; -slope of -t F + phi(f)
            s, v0, slope = 1.0, barrier_value(net, f), t * inc - decrement / 4
            while s > 1e-10 and barrier_value(net, f + s * step) > v0 + s * slope:
                s *= 0.5
            if decrement <= 1e-3 or s <= 1e-10 or F > upper:  # F > upper: drifted off
                break
            f, F = f + s * step, F + s * inc
        with np.errstate(divide="ignore"):
            F_push = F + np.min(np.where(unit > 0.0, c - f, c + f) / np.abs(unit))
        flow = np.clip(f + (F_push - F) * unit, -c, c)
        if not np.linalg.norm(d2 @ flow - F_push * gamma) <= 1e-9 * F_push * np.linalg.norm(gamma):
            break
        lower, upper, lam = float(F_push), _dual_bound(net, y), y
        if upper - lower <= 1e-9 * lower:
            break
    else:
        raise NetworkError("the barrier path ran out of stages before its bracket closed")
    if not math.isfinite(upper):
        raise NetworkError("the barrier path gave no finite bracket on f*")
    return lower, upper, lam


def estimate_f_star(net: FlowNetwork2, rounds: int | None = None) -> float:
    """``f_star_bracket``'s lower bound; ``rounds`` is ignored (it counted bisection rounds)."""
    return f_star_bracket(net)[0]
