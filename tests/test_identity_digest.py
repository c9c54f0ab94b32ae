"""scripts/identity_digest.py on a tiny system; the full digest runs
criterion 11's draws and the ladder rungs, which tier-1 leaves out."""

import importlib.util
import re
from pathlib import Path

import numpy as np

from lin2complex.pipeline import solve_general

from _gen import planted_general_system

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "identity_digest.py"
spec = importlib.util.spec_from_file_location("identity_digest", SCRIPT)
identity_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(identity_digest)


def test_digests_of_a_tiny_system_depend_on_the_outputs_alone(tmp_path):
    sys_g, _ = planted_general_system(np.random.default_rng(5), 3, 3, max_entry=9)
    A, b = sys_g.A.to_dense(), sys_g.b
    first = identity_digest.reduce_digest(A, b, tmp_path / "one")
    # another directory, the same artifacts
    assert identity_digest.reduce_digest(A, b, tmp_path / "two") == first
    assert re.fullmatch("[0-9a-f]{64}", first)
    assert {p.name for p in (tmp_path / "one" / "out").iterdir()} >= {
        "manifest.json", "b2_d2.mtx", "b2_W.npy", "b2_gamma.npy", "b2_complex.npz", "da.json"}

    # any changed byte changes the digest
    weights = tmp_path / "two" / "out" / "b2_W.npy"
    weights.write_bytes(weights.read_bytes() + b"\n")
    assert identity_digest.files_digest(tmp_path / "two" / "out") != first

    x = solve_general(sys_g, 1e-3)[0]
    assert identity_digest.arrays_digest([x]) == identity_digest.arrays_digest([x.copy()])
    one_ulp_up = np.nextafter(x, np.inf)
    assert identity_digest.arrays_digest([x]) != identity_digest.arrays_digest([one_ulp_up])


def test_problem_digest_reads_the_same_values_from_either_vector_encoding(tmp_path,
                                                                         monkeypatch):
    from lin2complex import fileio
    from lin2complex.pipeline import reduce_chain

    sys_g, _ = planted_general_system(np.random.default_rng(5), 3, 3, max_entry=9)
    problem = reduce_chain(sys_g, 1e-3).problem
    fileio.write_boundary_problem(tmp_path / "npy", problem)
    monkeypatch.setattr(fileio, "BOUNDARY_FILES", {**fileio.BOUNDARY_FILES,
                                                   "weights": "b2_W.vec",
                                                   "gamma": "b2_gamma.vec"})
    fileio.write_boundary_problem(tmp_path / "text", problem)
    assert (tmp_path / "text" / "b2_W.vec").read_text().endswith("\n")
    assert identity_digest.files_digest(tmp_path / "text") != \
        identity_digest.files_digest(tmp_path / "npy")
    digest = identity_digest.problem_digest(tmp_path / "text")
    monkeypatch.undo()
    assert identity_digest.problem_digest(tmp_path / "npy") == digest
