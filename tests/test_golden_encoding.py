"""Golden digests of the boundary-problem encoding at benchmark scale.

The digests pin the edge and triangle order of the constructed complex, its
weights and its provenance, so the weighted operator that the boundary solve
sees stays bit-identical whatever the complex's internal representation.
"""

import hashlib

import numpy as np
import pytest

from lin2complex.complex2 import boundary1, validate
from lin2complex.da_reduce import GeneralSystem
from lin2complex.pipeline import ALPHA_CAP_DEFAULT, reduce_chain

from _gen import planted_general_system, three_per_row_system, tube_refs


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode() + str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def _criterion11_system(seed: int) -> GeneralSystem:
    sys, _ = planted_general_system(np.random.default_rng(seed), 8, 8, max_entry=50,
                                    row_nnz=3, kappa_max=1e4)
    return sys


CASES = {
    "criterion11": (lambda: _criterion11_system(11), {
        "t": 4754,
        "d2": "4046fe41041f7cdb",
        "weights": "11111ea252792b46",
        "gamma": "61cecf4bcadc2126",
        "central": "3216e7d67c81de3f",
        "tubes": "778fa92d0ef296d8",
    }),
    # like the 120-nonzero rung of the benchmark's size ladder
    "ladder120": (lambda: three_per_row_system(120, 40), {
        "t": 22530,
        "d2": "05f2a460ff0b7b8e",
        "weights": "5886d2422fd0d340",
        "gamma": "1ccba371884c62d9",
        "central": "ed8d644e73277e95",
        "tubes": "d927a7d9270937a5",
    }),
}


def test_ladder_case_has_three_nonzeros_a_row():
    A = three_per_row_system(120, 40).A
    assert A.nnz == 120
    assert np.all(np.bincount(A.rows) == 3)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_encoding(name):
    make, expected = CASES[name]
    chain = reduce_chain(make(), 1e-3)
    assert chain.alpha == ALPHA_CAP_DEFAULT
    P = chain.problem
    K = P.K

    assert validate(K).ok
    pattern = chain.da.pattern_matrix()
    assert P.n_triangles == int(round(11 * pattern.entry_abs_sum() - 4 * chain.da.n_vars))
    prod = boundary1(K).to_int_csr() @ P.d2.to_int_csr()
    prod.eliminate_zeros()
    assert prod.nnz == 0

    csr = P.d2.to_csr()
    T = tube_refs(P)
    tubes = np.column_stack([T.q, T.var, T.copy, T.sign, T.cols]).astype(np.int64)
    got = {
        "t": P.n_triangles,
        "d2": _digest(csr.indptr.astype(np.int64), csr.indices.astype(np.int64),
                      csr.data.astype(np.float64)),
        "weights": _digest(np.asarray(P.weights, dtype=np.float64)),
        "gamma": _digest(np.asarray(P.gamma, dtype=np.float64)),
        "central": _digest(np.asarray(P.central, dtype=np.int64)),
        "tubes": _digest(tubes),
    }
    assert got == expected
