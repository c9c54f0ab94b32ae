"""End-to-end orchestration of the reduction chain and its solve.

The chain is general system -> zero row sums -> power-of-two rows ->
difference-average -> weighted boundary problem.  Solving goes the other
way: a solve of the weighted boundary problem is mapped back through every
stage, and the final accuracy is certified against the original system.
The solve is one symmetric sparse LU of the quasi-definite augmented
system, refined once and judged once; an answer that does not certify is
reported uncertified, as is x = 0 when the factorization fails.  The chain
derives none of the paper's composed accuracy targets, which lie far below
what float64 can resolve: alpha is a fixed default, and the certificate on
the original system alone judges the answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .b2_reduce import (
    BoundaryProblem,
    build_boundary_problem,
    compute_edge_weights,
    map_soln_b2_to_da,
)
from .da_reduce import (
    GeneralSystem,
    gz2_to_da,
    map_da_solution_back,
    to_pow2,
    to_zero_rowsum,
)
from .sparse_core import certified_lu

# the chain's fixed alpha.  The paper's 2/eps_da^2 is huge for composed
# accuracy targets, and the weighted operator's conditioning worsens with it:
# the refined LU answer's certificate ratio on a 10x12 criterion-11 system is
# 3e-13 at 1e2, 1e-6 at 1e6 and 6e-3 at 1e8.  Of criterion 11's 20 systems
# the LU answer certifies all at 1e2 and 1e6 but 13 at 1e8, so the chain
# fixes alpha and verifies accuracy end to end
ALPHA_CAP_DEFAULT = 1e2


@dataclass
class ChainArtifacts:
    """One reduction: the original system, the stages and back maps that
    ``map_back`` reads, and the boundary problem; built in memory by
    ``reduce_chain`` or from disk by ``fileio.read_chain``."""

    original: GeneralSystem
    gz_back: object
    gz2: GeneralSystem
    gz2_back: object
    problem: BoundaryProblem
    eps: float
    alpha: float


def reduce_chain(sys: GeneralSystem, eps: float,
                 alpha: float | None = None) -> ChainArtifacts:
    """Run every reduction stage and build the weighted boundary problem.

    The edge weights use ``alpha``, or ``ALPHA_CAP_DEFAULT`` when None;
    ``eps`` is kept for the solve's certificate and derives nothing.  An
    ``eps`` outside (0, 1) raises ``ValueError``, and a system outside
    class G ``MatrixClassError`` from ``to_zero_rowsum``.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    gz, gz_back = to_zero_rowsum(sys)
    gz2, gz2_back = to_pow2(gz)
    da, _ = gz2_to_da(gz2, alpha=1.0)
    alpha = ALPHA_CAP_DEFAULT if alpha is None else alpha
    problem = build_boundary_problem(da)
    _, problem.weights = compute_edge_weights(problem, alpha)
    return ChainArtifacts(sys, gz_back, gz2, gz2_back, problem, eps, alpha)


def map_back(chain: ChainArtifacts, f: np.ndarray) -> np.ndarray:
    """Map a boundary flow back through every stage to the original variables."""
    x_da = map_soln_b2_to_da(chain.problem, f)
    x_gz2 = map_da_solution_back(chain.gz2, x_da)
    x_gz = chain.gz2_back(x_gz2)
    return chain.gz_back(x_gz)


def adaptive_boundary_solve(W_d2, w_gamma, map_back_fn, original: GeneralSystem, eps: float):
    """Solve a weighted boundary problem to a certified accuracy.

    ``sparse_core.certified_lu`` factors (W^(1/2) d2, W^(1/2) gamma) once,
    at ``SYMMETRIC_LU``: the augmented system of a boundary operator is
    quasi-definite, and a pivoted factor certified none of the chain's
    solves that this one missed.  Its answer is carried down the chain by
    ``map_back_fn`` and judged on the original system alone.  Returns (x,
    verdict), the verdict being ``certified_lu``'s own
    ``sparse_core.Verdict``; when the factorization raises, x is 0 and the
    verdict uncertified.
    """
    v = certified_lu(W_d2, w_gamma, True, original.A, original.b, eps, map_back_fn)
    return v.x, v


def solve_chain(chain: ChainArtifacts):
    """Solve the weighted boundary problem and certify the mapped-back answer
    on the original system at ``chain.eps``; returns (x, verdict)."""
    return adaptive_boundary_solve(
        chain.problem.weighted_matrix(), chain.problem.weighted_rhs(),
        lambda f: map_back(chain, f), chain.original, chain.eps)


def solve_general(sys: GeneralSystem, eps: float, alpha: float | None = None):
    """Convenience wrapper: reduce, solve, map back."""
    chain = reduce_chain(sys, eps, alpha=alpha)
    x, report = solve_chain(chain)
    return x, report, chain
