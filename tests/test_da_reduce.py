import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lin2complex.b2_reduce import _attachments
from lin2complex.da_reduce import (
    CLASS_G,
    CLASS_GZ,
    CLASS_GZ2,
    DARow,
    DropTailBack,
    GeneralSystem,
    MatrixClassError,
    WeightedDASystem,
    _pow2_ceil,
    average_row,
    difference_row,
    gz2_to_da,
    map_da_solution_back,
    plain_da_system,
    to_pow2,
    to_zero_rowsum,
)
from lin2complex.pipeline import reduce_chain
from lin2complex.sparse_core import SparseMatrix, least_squares

from _gen import (
    choose_epsilon_da,
    da_rows,
    dense_nullity,
    infeasible_da_instance,
    loop_gz2_to_da,
    nnz_growth_ratio,
    pattern_entries,
    planted_da_instance,
    random_da_instance,
    random_gz2_system,
    three_per_row_system,
)


def system(dense, b, tag=CLASS_G) -> GeneralSystem:
    return GeneralSystem(SparseMatrix.from_dense(dense), b, tag)


# -- to_zero_rowsum ------------------------------------------------------------

def test_zero_rowsum_scalar():
    out, back = to_zero_rowsum(system([[2]], [4.0]))
    assert np.array_equal(out.A.to_dense(), [[2.0, -2.0]])
    assert back(np.array([3.0, 1.0])) == pytest.approx(2.0)


def test_zero_rowsum_already_balanced_is_identity():
    out, back = to_zero_rowsum(system([[1, -1], [-2, 2]], [1.0, 0.0]))
    assert out.A.n_cols == 2
    assert isinstance(back, DropTailBack)
    assert np.array_equal(back(np.array([5.0, 7.0])), [5.0, 7.0])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_zero_rowsum_preserves_residual(seed):
    rng = np.random.default_rng(seed)
    dense = rng.integers(-6, 7, size=(3, 3)).astype(float)
    if np.any(np.all(dense == 0, axis=0)) or np.any(np.all(dense == 0, axis=1)):
        return
    b = rng.integers(-5, 6, size=3).astype(float)
    out, back = to_zero_rowsum(system(dense, b))
    for _ in range(10):
        xp = rng.normal(size=out.A.n_cols)
        lhs = np.linalg.norm(out.A.to_dense() @ xp - b)
        rhs = np.linalg.norm(dense @ back(xp) - b)
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, lhs))


def test_zero_rowsum_rejects_zero_row():
    with pytest.raises(MatrixClassError):
        to_zero_rowsum(system([[1, -1], [0, 0]], [1.0, 0.0]))


# -- to_pow2 -------------------------------------------------------------------

def test_pow2_gap_row():
    out, back = to_pow2(system([[3, -3]], [1.0], CLASS_GZ))
    dense = out.A.to_dense()
    assert np.array_equal(dense[0], [3.0, -3.0, 1.0, -1.0])
    assert np.array_equal(dense[1], [0.0, 0.0, 1.0, -1.0])
    assert out.b.tolist() == [1.0, 0.0]
    out.validate_class()
    assert np.array_equal(back(np.array([1.0, 2.0, 3.0, 4.0])), [1.0, 2.0])


def test_pow2_no_gap_rows():
    # row (1, -1) has positive sum 1 = 2^0 already
    out, _ = to_pow2(system([[1, -1]], [5.0], CLASS_GZ))
    dense = out.A.to_dense()
    assert dense[0, 2] == 0.0 and dense[0, 3] == 0.0


def test_pow2_worked_row_already_power_of_two():
    out, _ = to_pow2(system([[3, 5, -1, -7]], [1.0], CLASS_GZ))
    dense = out.A.to_dense()
    # positive sum 8 is already a power of two, so the row gains nothing
    assert np.array_equal(dense[0, 4:], [0.0, 0.0])
    out.validate_class()


# -- gz2_to_da -----------------------------------------------------------------

def test_pairing_worked_example():
    sys = system([[3, 5, -1, -7]], [1.0], CLASS_GZ2)
    da, _ = gz2_to_da(sys)
    assert da.n_main == 1 and da.n_aux == 6
    main = da_rows(da)[0]
    assert main.kind == "difference"
    assert main.scale == 8.0
    assert main.rhs == pytest.approx(1.0 / 8.0)
    # each auxiliary row holds the pair it replaces, then the new variable,
    # scaled by 2^bit.  The negative side goes first, pairing (x2, x3),
    # then (x3, x4), then (x3, x5); the positive side collapses through
    # three fresh variables, pairing (x0, x1), then (x0, first), then
    # (x1, second)
    aux = da.var[da.n_main:]
    assert aux.tolist() == [[2, 3, 4], [3, 4, 5], [3, 5, 6], [0, 1, 7], [0, 7, 8], [1, 8, 9]]
    assert da.scale[da.n_main:].tolist() == [1.0, 2.0, 4.0, 1.0, 2.0, 4.0]
    assert all(r.rhs == 0.0 for r in da_rows(da)[1:])


def test_pairing_untouched_difference():
    sys = system([[1, -1]], [5.0], CLASS_GZ2)
    da, _ = gz2_to_da(sys, alpha=3.0)
    assert da.n_aux == 0
    row = da_rows(da)[0]
    assert row.kind == "difference" and row.scale == 1.0
    assert row.weight == pytest.approx(3.0 / 4.0)
    assert row.rhs == 5.0


def test_pairing_scaled_difference_kept_canonical():
    # (2, -2) has no pairable bits; it must take the already-canonical branch
    sys = system([[2, -2]], [3.0], CLASS_GZ2)
    da, _ = gz2_to_da(sys)
    row = da_rows(da)[0]
    assert da.n_aux == 0
    assert row.scale == 2.0 and row.weight == pytest.approx(0.5)
    assert row.rhs == pytest.approx(1.5)


def test_pairing_average_with_nonzero_rhs_is_reduced():
    # the canonical class fixes average right-hand sides to zero, so this
    # row is reduced to a scaled difference with one auxiliary constraint
    sys = system([[1, 1, -2]], [4.0], CLASS_GZ2)
    da, _ = gz2_to_da(sys)
    assert da_rows(da)[0].kind == "difference"
    assert da.n_aux == 1


def test_pairing_average_with_zero_rhs_kept():
    sys = system([[1, 1, -2]], [0.0], CLASS_GZ2)
    da, _ = gz2_to_da(sys)
    assert da_rows(da)[0].kind == "average"
    assert da.n_aux == 0


def _assert_matches_the_loop(sys, alpha):
    da, rhs = gz2_to_da(sys, alpha=alpha)
    oracle, oracle_rhs, records = loop_gz2_to_da(sys, alpha=alpha)
    assert (da.n_vars, da.n_main, da.n_aux) == (oracle.n_vars, oracle.n_main, oracle.n_aux)
    for name in ("average", "var", "weight", "rhs", "scale"):
        ours, theirs = getattr(da, name), getattr(oracle, name)
        assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes(), name
    assert rhs.tobytes() == oracle_rhs.tobytes()
    # auxiliary row a makes variable n + a from the oracle's record a: its
    # pair, then its id, scaled by 2^bit
    n = sys.A.n_cols
    aux = da.var[da.n_main:]
    assert da.n_vars - da.n_aux == n
    assert aux[:, 2].tolist() == [r.new_var for r in records] == list(range(n, da.n_vars))
    assert [tuple(p) for p in aux[:, :2].tolist()] == [r.pair for r in records]
    assert da.scale[da.n_main:].tolist() == [float(1 << r.bit) for r in records]


@pytest.mark.parametrize("alpha", [1.0, 3.0])
def test_array_pairing_matches_the_loop_on_random_systems(alpha):
    for seed in range(56):
        rng = np.random.default_rng(seed)
        sys = random_gz2_system(rng, int(rng.integers(4, 9)), int(rng.integers(3, 9)),
                                max_pow=1 + seed % 7)
        _assert_matches_the_loop(sys, alpha)


def test_array_pairing_matches_the_loop_on_a_ladder_rung():
    gz2, _ = to_pow2(to_zero_rowsum(three_per_row_system(8, 40))[0])
    _assert_matches_the_loop(gz2, 1.0)


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
def test_gz2_to_da_rejects_alpha_outside_the_positive_reals(alpha):
    # nan and inf too: the guard names alpha, not a row whose weight it made
    gz2, _ = to_pow2(to_zero_rowsum(three_per_row_system(8, 6))[0])
    with pytest.raises(ValueError, match=r"^alpha must be positive and finite, got "):
        gz2_to_da(gz2, alpha=alpha)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_exact_reduction_identity(seed):
    rng = np.random.default_rng(seed)
    sys = random_gz2_system(rng, int(rng.integers(4, 8)), int(rng.integers(2, 6)))
    alpha = float(rng.choice([0.5, 1.0, 2.0]))
    da, _ = gz2_to_da(sys, alpha=alpha)
    B = da.pattern_matrix().row_scaled(da.row_factors())
    cB = da.rhs_vector()
    n = sys.A.n_cols
    A_dense = sys.A.to_dense()
    B_dense = B.to_dense()
    for _ in range(5):
        xa = rng.normal(size=n)
        lhs = np.linalg.norm(A_dense @ xa - sys.b) ** 2
        fixed = B_dense[:, :n] @ xa - cB
        aux_block = B_dense[:, n:]
        if aux_block.shape[1]:
            # aux minimum via the library's iterative solver on the aux block
            res = least_squares(SparseMatrix.from_dense(aux_block), -fixed, 1e-10)
            val = np.linalg.norm(aux_block @ res.x + fixed) ** 2
        else:
            val = np.linalg.norm(fixed) ** 2
        rhs_val = (alpha + 1.0) / alpha * val
        assert lhs == pytest.approx(rhs_val, rel=1e-6, abs=1e-9)


def test_null_space_dimension_preserved():
    rng = np.random.default_rng(4)
    for _ in range(10):
        sys = random_gz2_system(rng, 5, 3)
        da, _ = gz2_to_da(sys)
        B = da.pattern_matrix().row_scaled(da.row_factors())
        assert dense_nullity(B.to_dense()) == dense_nullity(sys.A.to_dense())


def test_aux_variables_belong_to_one_row():
    rng = np.random.default_rng(8)
    sys = random_gz2_system(rng, 6, 4)
    da, _ = gz2_to_da(sys)
    oracle, _, records = loop_gz2_to_da(sys)
    assert da == oracle  # so the oracle's records line up with the auxiliary rows
    n = sys.A.n_cols
    owner = {r.new_var: r.source_row for r in records}
    for a, (i, j, new) in enumerate(da.var[da.n_main:].tolist()):
        # pairs reference only previously created variables
        assert new == n + a and max(i, j) < new
    for row in da_rows(da)[da.n_main:]:
        touching = {v for v in (row.i, row.j, row.k) if v is not None and v >= n}
        rows_owning = {owner[v] for v in touching}
        assert len(rows_owning) == 1


def _complete_solution(da, x_main):
    """Extend main-variable values along the auxiliary rows, which hold
    (pair, new variable): each auxiliary variable is the average of its pair."""
    x = np.concatenate([x_main, np.zeros(da.n_aux)])
    for i, j, new in da.var[da.n_main:].tolist():
        x[new] = 0.5 * (x[i] + x[j])
    return x


def test_complete_solution_satisfies_aux_rows():
    rng = np.random.default_rng(14)
    sys = random_gz2_system(rng, 5, 3)
    da, _ = gz2_to_da(sys)
    x = _complete_solution(da, rng.normal(size=sys.A.n_cols))
    pat = da.pattern_matrix().to_dense()
    aux = pat[da.n_main:]
    assert np.allclose(aux @ x, 0.0, atol=1e-12)


def test_null_vectors_extend_through_reduction():
    # x in Null(A) extends (via the recorded auxiliary assignments) to a
    # vector in Null(B)
    rng = np.random.default_rng(31)
    for _ in range(6):
        base = random_gz2_system(rng, 5, 3)
        da, _ = gz2_to_da(base)
        A = base.A.to_dense()
        B = da.pattern_matrix().row_scaled(da.row_factors()).to_dense()
        nullity = A.shape[1] - np.linalg.matrix_rank(A)
        if nullity == 0:
            continue
        _, _, vt = np.linalg.svd(A)
        for null_vec in vt[-nullity:]:
            ext = _complete_solution(da, null_vec)
            assert np.allclose(B @ ext, 0.0, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_pow2_output_class_invariants(seed):
    rng = np.random.default_rng(seed)
    dense = rng.integers(-7, 8, size=(3, 4)).astype(float)
    dense[:, -1] -= dense.sum(axis=1)  # force zero row sums
    if np.any(np.all(dense == 0, axis=0)) or np.any(np.all(dense == 0, axis=1)):
        return
    out, _ = to_pow2(system(dense.tolist(), [1.0, 0.0, -2.0], CLASS_GZ))
    out.validate_class()  # zero row sums and power-of-two positive sums


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans())
def test_stage_outputs_pass_their_class_check(seed, at_limit):
    # neither to_zero_rowsum nor to_pow2 checks its output: the class-G check
    # of the input bounds every new entry and every rounded-up positive sum
    # by 2^52.  Entries reach 7 * 2^47, and with at_limit a last row on three
    # new columns has positive or negative entries that sum to exactly 2^52.
    rng = np.random.default_rng(seed)
    m, n = (int(v) for v in rng.integers(1, 5, size=2))
    dense = rng.integers(-7, 8, size=(m, n)) * (rng.random((m, n)) < 0.6)
    k = np.arange(max(m, n))
    dense[k % m, k % n] = rng.choice([-3, -1, 1, 2, 5], size=k.size)  # no empty row or column
    dense = dense.astype(float) * 2.0 ** int(rng.integers(0, 48))
    if at_limit:
        part = float(rng.integers(1, 2 ** 52))
        limit_row = [part, 2.0 ** 52 - part, -float(rng.integers(1, 2 ** 52 + 1))]
        dense = np.block([[dense, np.zeros((m, 3))],
                          [np.zeros((1, n)), rng.choice([-1.0, 1.0]) * np.array([limit_row])]])
    b = rng.integers(-5, 6, size=dense.shape[0]).astype(float)
    sys = system(dense.tolist(), b.tolist())
    sys.validate_class()
    gz, _ = to_zero_rowsum(sys)
    gz.validate_class()
    gz2, _ = to_pow2(gz)
    gz2.validate_class()
    if at_limit:
        assert np.maximum(gz2.A.to_dense()[m], 0.0).sum() == 2.0 ** 52


def test_nnz_growth_ratio_bounded():
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(20):
        sys = random_gz2_system(rng, 6, 4, max_pow=5)
        da, _ = gz2_to_da(sys)
        worst = max(worst, nnz_growth_ratio(sys, da))
    assert worst <= 4.0


# -- solution mapping and accuracy ----------------------------------------------

def test_planted_pipeline_recovers_solution():
    # feasible power-of-two system: solve the reduced system iteratively at
    # the prescribed accuracy and map back
    rng = np.random.default_rng(77)
    for _ in range(5):
        base = random_gz2_system(rng, 5, 3)
        x_star = rng.integers(-5, 6, size=base.A.n_cols).astype(float)
        b = base.A.to_dense() @ x_star
        if np.linalg.norm(b) == 0:
            continue
        sys = GeneralSystem(base.A, b, CLASS_GZ2)
        da, rhs_w = gz2_to_da(sys)
        eps_a = 1e-4
        eps_b = choose_epsilon_da(eps_a, sys)
        res = least_squares(da.pattern_matrix().row_scaled(da.row_factors()), rhs_w, eps_b)
        assert res.converged
        x = map_da_solution_back(sys, res.x)
        assert np.linalg.norm(sys.A.to_dense() @ x - b) <= eps_a * np.linalg.norm(b)


def test_map_back_zero_when_atb_zero():
    # two opposite rows with opposite rhs: A^T b = 0
    sys = system([[1, -1], [-1, 1]], [2.0, 2.0], CLASS_GZ2)
    x = map_da_solution_back(sys, np.array([9.0, 9.0, 9.0]))
    assert np.array_equal(x, [0.0, 0.0])


def test_map_back_prefix_passthrough():
    sys = system([[1, -1]], [5.0], CLASS_GZ2)
    x = map_da_solution_back(sys, np.array([7.0, 2.0]))
    assert np.array_equal(x, [7.0, 2.0])


def test_choose_epsilon_da_values():
    sys = system([[1]], [1.0])
    assert choose_epsilon_da(0.1, sys) == pytest.approx(0.1)
    dense = np.zeros((3, 4))
    dense[0, :3] = [7, -7, 1]
    dense[1, 1:4] = [1, -1, 2]
    dense[2, [0, 3]] = [1, -1]
    sys2 = system(dense.tolist(), [1.0, 0.0, 0.0])
    expected = 0.07 / (math.sqrt(12) * 7 * 1.0)
    assert choose_epsilon_da(0.07, sys2) == pytest.approx(expected)
    sys3 = system(dense.tolist(), [2.0, 0.0, 0.0])
    assert choose_epsilon_da(0.07, sys3) == pytest.approx(expected / 2)


def test_choose_epsilon_da_zero_rhs():
    sys = system([[1, -1]], [0.0])
    assert choose_epsilon_da(0.25, sys) == 0.25


# -- row and system validation ----------------------------------------------------

def test_da_row_validation():
    # DARow is a plain record: the system it goes into names the bad row
    for row, message in ((DARow("difference", 1, 1), "row 1: difference rows"),
                         (DARow("average", 0, 1, 1), "row 1: average rows need"),
                         (DARow("average", 0, 1, 2, rhs=1.0), "row 1: average rows have zero"),
                         (DARow("sideways", 0, 1), "row 1: unknown row kind 'sideways'")):
        with pytest.raises(ValueError, match=message):
            plain_da_system(3, [difference_row(0, 1), row])


def test_weighted_system_matrix_layout():
    from lin2complex.da_reduce import WeightedDASystem

    full = WeightedDASystem(3, [False, True], [(0, 1, -1), (0, 1, 2)], [1.0, 4.0],
                            [2.0, 0.0], [1.0, 2.0], 1, 1)
    dense = full.pattern_matrix().row_scaled(full.row_factors()).to_dense()
    assert np.array_equal(dense[0], [1.0, -1.0, 0.0])
    assert np.array_equal(dense[1], [4.0, 4.0, -8.0])  # sqrt(4) * 2 * pattern
    assert full.rhs_vector()[0] == 2.0
    assert not full.is_unit()
    assert plain_da_system(3, [difference_row(0, 1, rhs=2.0)]).is_unit()


@pytest.mark.parametrize("value", [2 ** 53 + 1, 2 ** 62 + 5])
def test_entries_beyond_exact_range_rejected(value):
    # 2^53 + 1 used to round silently to 2^53, 2^62 + 5 to fail as "not G_z2"
    A = SparseMatrix.from_arrays(1, 2, [0, 0], [0, 1], [value, -3])
    with pytest.raises(MatrixClassError, match=r"2\^53"):
        reduce_chain(GeneralSystem(A, [0.0]), 1e-3)
    with pytest.raises(MatrixClassError, match=r"2\^53"):
        GeneralSystem(SparseMatrix.from_dense([[1, -1]]), [float(value)]).validate_class()


@pytest.mark.parametrize("value", [2.0 ** 63, 1e300, -np.inf])
def test_entries_beyond_int64_are_rejected_for_their_magnitude(value):
    # such an entry is not integer_exact, yet it is an integer (or an
    # infinity): the class check names its range, not its integrality
    A = SparseMatrix.from_arrays(1, 2, [0, 0], [0, 1], [value, -3])
    assert not A.integer_exact
    with pytest.raises(MatrixClassError, match=r"2\^53"):
        GeneralSystem(A, [0.0]).validate_class()


def test_pow2_round_up_beyond_exact_range_rejected():
    # the positive sum 2^52 + 1 rounds up to 2^53; 2^52 itself is still exact
    A = SparseMatrix.from_arrays(1, 3, [0, 0, 0], [0, 1, 2], [2 ** 52, 1, -(2 ** 52 + 1)])
    with pytest.raises(MatrixClassError, match=r"2\^53"):
        GeneralSystem(A, [0.0]).validate_class()
    with pytest.raises(MatrixClassError, match=r"2\^53"):
        # the zero-row-sum shift appends +1, so the positive sum becomes 2^52 + 1
        system([[2 ** 52, -2 ** 52, -1]], [0.0]).validate_class()
    system([[2 ** 52, -2 ** 52]], [0.0], CLASS_GZ2).validate_class()


def test_gz2_class_validation():
    with pytest.raises(MatrixClassError):
        GeneralSystem(SparseMatrix.from_dense([[3, -3]]), [0.0], CLASS_GZ2).validate_class()
    with pytest.raises(MatrixClassError):
        gz2_to_da(system([[1, -2]], [0.0], CLASS_GZ2))


# -- the columnar difference-average system ----------------------------------------

def _gen_systems():
    """Unit systems from every ``_gen`` family, and weighted, scaled ones
    from ``gz2_to_da`` of random power-of-two systems."""
    rng = np.random.default_rng(22)
    out = [random_da_instance(rng, 6, 5)[0], planted_da_instance(rng, 3, 4, 2)[0],
           infeasible_da_instance(rng, 5, 4)[0]]
    for _ in range(4):
        out.append(gz2_to_da(random_gz2_system(rng, 6, 4, max_pow=5), alpha=3.0)[0])
    return out


def _record_attachments(sys) -> np.ndarray:
    """The tube attachments (var, q, copy, sign) walked off the records."""
    rows = []
    for q, row in enumerate(da_rows(sys)):
        if row.kind == "difference":
            rows += [(row.i, q, 1, 1), (row.j, q, 1, -1)]
        else:
            rows += [(row.i, q, 1, 1), (row.j, q, 1, 1), (row.k, q, 1, -1), (row.k, q, 2, -1)]
    attach = np.array(rows, dtype=np.int64).reshape(-1, 4)
    return attach[np.argsort(attach[:, 0], kind="stable")]


def test_columns_agree_with_record_oracles():
    systems = _gen_systems()
    assert any(not sys.is_unit() for sys in systems)
    for sys in systems:
        rows = da_rows(sys)
        entries = [(q, c, v) for q, row in enumerate(rows) for c, v in pattern_entries(row)]
        want = SparseMatrix.from_arrays(sys.n_rows, sys.n_vars,
                                        *np.reshape(entries, (-1, 3)).T)
        assert sys.pattern_matrix().equals(want)
        assert sys.pattern_nnz == len(entries)
        factors = np.array([math.sqrt(r.weight) * r.scale for r in rows])
        assert np.array_equal(sys.row_factors(), factors)
        assert np.array_equal(sys.rhs_vector(), factors * np.array([r.rhs for r in rows]))
        assert sys.is_unit() == all(r.weight == 1.0 and r.scale == 1.0 for r in rows)
        assert np.array_equal(_attachments(sys), _record_attachments(sys))


def test_pattern_rmatvec_is_the_transpose_product():
    # bit for bit, on systems with average rows, unit and weighted alike
    rng = np.random.default_rng(23)
    systems = [sys for sys in _gen_systems() if sys.average.any()]
    assert len(systems) >= 4 and any(not sys.is_unit() for sys in systems)
    for sys in systems:
        for y in (rng.normal(size=sys.n_rows), sys.row_factors() ** 2 * sys.rhs):
            assert np.array_equal(sys.pattern_rmatvec(y), sys.pattern_matrix().to_csr().T @ y)
    with pytest.raises(ValueError):
        systems[0].pattern_rmatvec(np.zeros(systems[0].n_rows + 1))


def test_columns_are_read_only_and_checked_row_by_row():
    sys = plain_da_system(3, [difference_row(0, 1), average_row(0, 1, 2)])
    assert np.array_equal(sys.var, [[0, 1, -1], [0, 1, 2]])
    assert sys.average.tolist() == [False, True]
    with pytest.raises(ValueError):
        sys.weight[0] = 2.0
    good = dict(average=[False, True], var=[(0, 1, -1), (0, 1, 2)], weight=[1.0, 1.0],
                rhs=[1.0, 0.0], scale=[1.0, 2.0])
    assert da_rows(WeightedDASystem(3, *good.values(), 1, 1))[1] == average_row(
        0, 1, 2, scale=2.0)
    for change, message in ((dict(var=[(0, 1, -1), (0, 3, 2)]), r"row 1: .* outside \[0, 3\)"),
                            (dict(var=[(0, 0, -1), (0, 1, 2)]), "row 0: difference rows"),
                            (dict(var=[(0, 1, -1), (0, 1, 1)]), "row 1: average rows need"),
                            (dict(rhs=[1.0, 2.0]), "row 1: average rows have zero"),
                            (dict(scale=[0.0, 1.0]), "row 0: weight and scale")):
        with pytest.raises(ValueError, match=message):
            WeightedDASystem(3, *{**good, **change}.values(), 1, 1)
    with pytest.raises(ValueError, match="row partition"):
        WeightedDASystem(3, *good.values(), 2, 1)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_weight_scale_or_rhs_is_refused(value):
    # inf > 0 held, so an infinite weight or scale passed the positive rule
    good = dict(average=[False, True], var=[(0, 1, -1), (0, 1, 2)], weight=[1.0, 1.0],
                rhs=[1.0, 0.0], scale=[1.0, 2.0])
    for name, q in (("weight", 0), ("scale", 1), ("rhs", 0), ("rhs", 1)):
        column = list(good[name])
        column[q] = value
        with pytest.raises(ValueError, match=f"^row {q}: weight, scale and right-hand "
                                             "side must be finite$"):
            WeightedDASystem(3, *{**good, name: column}.values(), 1, 1)


def test_pow2_ceil_matches_the_integer_rule():
    p = [1, 2, 3, 5, 7, 8, 9, 1000, 1023, 1024, 1025]
    p += [2 ** e + d for e in range(2, 53) for d in (-1, 0, 1) if 2 ** e + d <= 2 ** 52]
    want = [1 << (v - 1).bit_length() for v in p]
    assert _pow2_ceil(np.array(p, dtype=np.float64)).tolist() == want
