"""Reductions from sparse integer linear equations to boundary-operator and
combinatorial-Laplacian systems on oriented 2-complexes."""

from .sparse_core import SparseMatrix, least_squares
from .complex2 import Complex2, boundary1, boundary2, laplacian1, validate
from .da_reduce import (
    GeneralSystem,
    WeightedDASystem,
    difference_row,
    gz2_to_da,
    map_da_solution_back,
    plain_da_system,
    to_pow2,
    to_zero_rowsum,
)
from .b2_reduce import (
    BoundaryProblem,
    compute_edge_weights,
    map_soln_b2_to_da,
    reduce_da_to_b2,
    spectral_certificate,
)
from .lap_solve import solve_boundary_via_gram, solve_boundary_via_laplacian
from .maxflow_ipm import BarrierState, FlowNetwork2, barrier_derivatives, run_ipm

__version__ = "0.1.0"
