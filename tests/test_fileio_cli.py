import copy
import filecmp
import json
import tempfile
import time
import zipfile
from pathlib import Path

import numpy as np
import pytest
import scipy.io
from hypothesis import given, settings, strategies as st

from lin2complex import cli, complex2, fileio
from lin2complex.b2_reduce import map_soln_b2_to_da, reduce_da_to_b2, reduce_reg
from lin2complex.cli import build_parser, main
from lin2complex.complex2 import boundary2, validate
from lin2complex.da_reduce import gz2_to_da
from lin2complex.pipeline import reduce_chain, solve_chain, solve_general
from lin2complex.sparse_core import SparseMatrix

from _gen import (
    choose_epsilon_da,
    group_indicator,
    planted_da_instance,
    planted_general_system,
    random_gz2_system,
    three_per_row_system,
)


def test_matrix_round_trip_integer(tmp_path):
    A = SparseMatrix.from_dense([[3, 0, -1], [0, 2, 0]])
    fileio.write_matrix(tmp_path / "a.mtx", A)
    B = fileio.read_matrix(tmp_path / "a.mtx")
    assert A.equals(B)
    assert B.integer_exact
    assert "integer" in (tmp_path / "a.mtx").read_text().splitlines()[0]


def test_matrix_round_trip_real(tmp_path):
    A = SparseMatrix.from_dense([[0.5, 0.0], [0.0, -2.25]])
    fileio.write_matrix(tmp_path / "a.mtx", A)
    assert A.equals(fileio.read_matrix(tmp_path / "a.mtx"))


@pytest.mark.parametrize("tail", [b" ", b"\t", b"\r", b"\x0b", b""])
def test_matrix_file_without_final_newline_reads(tmp_path, tail):
    # scipy's reader crashed the process on a last line with trailing bytes
    # and no newline, as one flipped bit of a newline makes it
    path = tmp_path / "a.mtx"
    path.write_bytes(b"%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 1 3\n2 2 -4"
                     + tail)
    assert fileio.read_matrix(path).equals(SparseMatrix.from_dense([[3, 0], [0, -4]]))


@pytest.mark.parametrize("entries", [b"1 1 3x\n2 2 -4junk\n", b"1 1 nan\n2 2 -4\n",
                                     b"1 1 3\n2 2 -inf\n"])
def test_matrix_entry_lines_hold_only_numbers(tmp_path, entries):
    # scipy's reader drops the rest of an entry line after its number, so
    # the first file read as diag(3, -4); nan and inf are refused on read
    matrix = tmp_path / "A.mtx"
    matrix.write_bytes(b"%%MatrixMarket matrix coordinate real general\n% note\n2 2 2\n"
                       + entries)
    fileio.write_vector(tmp_path / "b.vec", [1.0, 2.0])
    for command in (["solve", "--route", "direct"], ["reduce"]):
        with pytest.raises(SystemExit) as info:
            main(command + ["--matrix", str(matrix), "--rhs", str(tmp_path / "b.vec"),
                            "--out-dir", str(tmp_path / "out")])
        message = str(info.value.code)
        assert message.startswith(f"error: {matrix} is not a Matrix Market matrix: it holds b'")
        assert "\n" not in message


def test_vector_round_trip(tmp_path):
    v = np.array([1.0, -2.5, 3e-17, 12345.6789])
    fileio.write_vector(tmp_path / "v.vec", v)
    assert np.array_equal(fileio.read_vector(tmp_path / "v.vec"), v)


def _per_entry_text(v) -> str:
    """The vector format written one entry at a time."""
    return ("\n".join(map(repr, np.asarray(v, dtype=float).tolist())) + "\n").replace(".0\n", "\n")


@pytest.mark.parametrize("v", [
    [0.0, -0.0, 1.0, -0.0, 0.0, float("nan"), float("inf"), -float("inf"), 1e16, 5e-324,
     1 / 3, 1 / 3, 2.5, 2.5, -7.0, 12345.0, 1e-7, 1.0, float("nan")],
    [],
])
def test_vector_text_equals_the_per_entry_format(tmp_path, v):
    fileio.write_vector(tmp_path / "v.vec", np.array(v))
    text = (tmp_path / "v.vec").read_text()
    assert text == _per_entry_text(v)
    if not v:
        assert text == "\n"
    back = fileio.read_vector(tmp_path / "v.vec")
    assert np.array_equal(back, v, equal_nan=True)
    assert np.array_equal(np.signbit(back), np.signbit(v))


def test_da_system_json_round_trip():
    rng = np.random.default_rng(1)
    sys = random_gz2_system(rng, 5, 3)
    da, _ = gz2_to_da(sys)
    obj = fileio.da_system_to_json(da)
    back = fileio.da_system_from_json(json.loads(json.dumps(obj)))
    assert back == da


def test_complex_json_round_trip():
    rng = np.random.default_rng(2)
    sys, b, _ = planted_da_instance(rng, 3, 3, 1)
    P = reduce_da_to_b2(sys, b)
    obj = fileio.complex_to_json(P.K)
    K2 = fileio.complex_from_json(json.loads(json.dumps(obj)))
    assert validate(K2).ok
    assert K2.n_vertices == P.K.n_vertices
    assert np.array_equal(K2.loops, P.K.loops)
    from lin2complex.complex2 import boundary2
    assert boundary2(K2).equals(P.d2)


def test_read_problem_maps_solution_back(tmp_path):
    # the central triangles are read off the complex's groups and the
    # right-hand sides off gamma, both derived on read
    rng = np.random.default_rng(3)
    sys, b, x_star = planted_da_instance(rng, 3, 3, 1)
    P = reduce_da_to_b2(sys, b)
    fileio.write_boundary_problem(tmp_path, P)
    Q = fileio.read_boundary_problem(tmp_path)
    x = map_soln_b2_to_da(Q, group_indicator(P) @ x_star)
    assert np.allclose(x, x_star)


def test_boundary_problem_round_trip(tmp_path):
    sys, _ = planted_general_system(np.random.default_rng(4), 4, 4, max_entry=9)
    P = reduce_chain(sys, 1e-3).problem
    fileio.write_boundary_problem(tmp_path, P)
    Q = fileio.read_boundary_problem(tmp_path)
    assert fileio.complex_to_json(Q.K) == fileio.complex_to_json(P.K)
    assert Q.d2.equals(P.d2)
    for name in ("gamma", "weights", "equation_rhs"):
        assert np.array_equal(getattr(Q, name), getattr(P, name)), name
    assert np.array_equal(Q.central, P.central) and Q.da == P.da


def _write_general(tmp_path, rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    sys, x_star = planted_general_system(rng, 4, 4, max_entry=9)
    fileio.write_matrix(tmp_path / "A.mtx", sys.A)
    fileio.write_vector(tmp_path / "b.vec", sys.b)
    return sys, x_star


def test_cli_reduce_verify_solve(tmp_path):
    sys, _ = _write_general(tmp_path)
    out = tmp_path / "out"
    rc = main(["reduce", "--matrix", str(tmp_path / "A.mtx"),
               "--rhs", str(tmp_path / "b.vec"),
               "--out-dir", str(out), "--eps", "1e-3"])
    assert rc == 0
    for name in ("manifest.json", "b2_d2.mtx", "b2_gamma.npy", "b2_W.npy",
                 "b2_complex.npz", "da.json"):
        assert (out / name).exists()

    rc = main(["verify", "--dir", str(out)])
    assert rc == 0

    # replay purely from the written artifacts
    rc = main(["solve", "--manifest", str(out), "--eps", "1e-3",
               "--out-dir", str(out)])
    assert rc == 0
    x = fileio.read_vector(out / "x.vec")
    A = sys.A.to_dense()
    assert np.linalg.norm(A @ x - sys.b) <= 1e-3 * np.linalg.norm(sys.b)


def test_one_parser_serves_every_main_call_of_a_process(tmp_path, capsys):
    # main parses with the one parser a process builds; the options of one
    # call, whatever its subcommand, do not reach the next
    assert build_parser() is build_parser()
    _write_general(tmp_path)
    out = tmp_path / "out"
    assert main(["reduce", "--matrix", str(tmp_path / "A.mtx"), "--rhs", str(tmp_path / "b.vec"),
                 "--out-dir", str(out), "--eps", "0.25", "--alpha", "1e4"]) == 0
    assert main(["verify", "--dir", str(out)]) == 0
    reduce = build_parser().parse_args(["reduce", "--matrix", "A", "--rhs", "b", "--out-dir", "o"])
    assert (reduce.eps, reduce.alpha) == (1e-3, None)
    verify = build_parser().parse_args(["verify", "--dir", str(out)])
    assert verify.command == "verify"
    assert not hasattr(verify, "eps") and not hasattr(verify, "matrix")


def test_a_replaced_command_runs_after_the_parser_is_built(tmp_path, monkeypatch):
    # the parser binds no function, so a cmd_verify replaced after a first
    # main call (as a tracer wraps it) is the one the next verify runs
    _write_general(tmp_path)
    out = tmp_path / "out"
    assert main(["reduce", "--matrix", str(tmp_path / "A.mtx"), "--rhs", str(tmp_path / "b.vec"),
                 "--out-dir", str(out)]) == 0
    calls = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args: calls.append(args.dir) or 7)
    assert main(["verify", "--dir", str(out)]) == 7
    assert calls == [str(out)]


# a criterion-11-sized 5x5 system with |A_ij| <= 50; its complex has 2,940
# triangles
A_5X5 = np.array([[0, 19, 0, -47, 15],
                  [0, 0, 21, -41, 0],
                  [0, 0, 0, 15, -43],
                  [0, 0, -16, 0, -13],
                  [-5, 0, 35, 0, 0]], dtype=float)
B_5X5 = np.array([186.0, 331.0, 11.0, -70.0, 235.0])


def _write_5x5(tmp_path):
    fileio.write_matrix(tmp_path / "A.mtx", SparseMatrix.from_dense(A_5X5))
    fileio.write_vector(tmp_path / "b.vec", B_5X5)


def test_cli_replay_certifies_badly_scaled_chain(tmp_path):
    # at eps 1e-3 and alpha 1e8 the triangle columns of the weighted
    # boundary operator differ in norm by about 1e3 and unscaled LSQR
    # stalled at ratio 0.18 after four rounds (exit 1); column
    # equilibration certifies it
    A, b = A_5X5, B_5X5
    _write_5x5(tmp_path)
    out = tmp_path / "out"
    assert main(["reduce", "--matrix", str(tmp_path / "A.mtx"),
                 "--rhs", str(tmp_path / "b.vec"), "--out-dir", str(out),
                 "--eps", "1e-3", "--alpha", "1e8"]) == 0
    assert json.loads((out / "manifest.json").read_text())["alpha"] == 1e8
    assert main(["solve", "--manifest", str(out), "--out-dir", str(out)]) == 0
    assert json.loads((out / "solve_report.json").read_text())["converged"] is True
    x = fileio.read_vector(out / "x.vec")
    pib = A @ (np.linalg.pinv(A) @ b)
    assert np.linalg.norm(A @ x - pib) <= 1e-3 * np.linalg.norm(pib)


@pytest.mark.parametrize("stage,expect", [
    ("da", ["da.json"]),
    ("b2", ["b2_d2.mtx", "b2_gamma.npy", "b2_complex.npz"]),
])
def test_cli_reduce_stages(tmp_path, stage, expect):
    # the output holds the original system and the boundary problem, and the
    # manifest lists them
    _write_general(tmp_path)
    out = tmp_path / "out"
    assert main(["reduce", "--matrix", str(tmp_path / "A.mtx"),
                 "--rhs", str(tmp_path / "b.vec"), "--out-dir", str(out),
                 "--eps", "1e-3"]) == 0
    files = json.loads((out / "manifest.json").read_text())["files"]
    names = [*files.pop("b2").values(), *(name for group in files.values() for name in group)]
    assert sorted(names) == sorted([
        "original_A.mtx", "original_b.vec",
        "da.json", "b2_d2.mtx", "b2_W.npy", "b2_gamma.npy", "b2_complex.npz"])
    for name in expect + ["manifest.json"]:
        assert name in names + ["manifest.json"], name
        assert (out / name).exists(), name
    if stage == "b2":
        assert main(["verify", "--dir", str(out)]) == 0


def test_chain_replays_from_the_original_and_the_boundary_problem(tmp_path):
    # G_z and G_z2 are re-derived on read, so neither they nor their back
    # maps are on disk
    sys, _ = planted_general_system(np.random.default_rng(6), 4, 4, max_entry=9)
    chain = reduce_chain(sys, 1e-3)
    fileio.write_chain(tmp_path, chain)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert not {"back_maps", "da_n_original"} & set(manifest)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([
        "original_A.mtx", "original_b.vec", "da.json", "b2_d2.mtx", "b2_W.npy",
        "b2_gamma.npy", "b2_complex.npz", "manifest.json"])
    read = fileio.read_chain(tmp_path)
    assert read.gz2.class_tag == chain.gz2.class_tag
    assert np.array_equal(solve_chain(read)[0], solve_chain(chain)[0])


def test_cli_replay_opens_only_the_source_and_the_instance(tmp_path):
    # read_chain rebuilds the complex, d2 and the difference-average system
    # from original_*, so a directory without their files replays to the
    # same bytes
    _write_5x5(tmp_path)
    out, bare = tmp_path / "out", tmp_path / "bare"
    assert main(["reduce", "--matrix", str(tmp_path / "A.mtx"),
                 "--rhs", str(tmp_path / "b.vec"), "--out-dir", str(out)]) == 0
    bare.mkdir()
    for path in out.iterdir():
        if path.name not in ("b2_d2.mtx", "b2_complex.npz", "da.json"):
            (bare / path.name).write_bytes(path.read_bytes())
    assert sorted(p.name for p in bare.iterdir()) == sorted([
        "manifest.json", "original_A.mtx", "original_b.vec", "b2_W.npy", "b2_gamma.npy"])
    for directory in (out, bare):
        assert main(["solve", "--manifest", str(directory),
                     "--out-dir", str(directory / "replay")]) == 0
    for name in ("x.vec", "solve_report.json"):
        assert (bare / "replay" / name).read_bytes() == (out / "replay" / name).read_bytes()


@pytest.mark.parametrize("name", ["b2_W.npy", "b2_gamma.npy"])
def test_cli_replay_of_a_tampered_instance_is_one_line_error(tmp_path, name):
    # the replay rebuilds W and gamma from the original system and compares
    # the stored ones bit for bit; interior weights 50 times too large used
    # to replay without a word
    from lin2complex.complex2 import INTERIOR

    _write_general(tmp_path)
    out = tmp_path / "out"
    assert main(["reduce", "--matrix", str(tmp_path / "A.mtx"),
                 "--rhs", str(tmp_path / "b.vec"), "--out-dir", str(out)]) == 0
    v = fileio.read_vector(out / name)
    tampered = v.copy()
    if name == "b2_W.npy":
        tampered[fileio.read_complex(out / "b2_complex.npz").kind == INTERIOR] *= 50.0
    else:
        tampered += 1.0
    fileio.write_vector(out / name, tampered)
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--manifest", str(out), "--out-dir", str(out)])
    e = int(np.flatnonzero(tampered != v)[0])
    assert _one_line_error(exc) == (
        f"error: {out / name} holds {float(tampered[e])!r} at entry {e}, but the chain "
        f"rebuilt from original_A.mtx has {float(v[e])!r} there")
    assert not (out / "x.vec").exists()


def test_cli_verify_checks_w_against_the_path_weights(tmp_path, capsys):
    # W is rebuilt from the read complex and da.json at the manifest's alpha
    # and compared bit for bit; interior weights 50 times too large, and one
    # equation's three loop weights doubled, used to pass verify
    from lin2complex.complex2 import INTERIOR

    _write_general(tmp_path)
    out = tmp_path / "out"
    assert main(["reduce", "--matrix", str(tmp_path / "A.mtx"),
                 "--rhs", str(tmp_path / "b.vec"), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", "--dir", str(out)]) == 0
    assert "[PASS] b2_W.npy is the path weights of the complex at the manifest's alpha 100" \
        in capsys.readouterr().out.splitlines()
    path = out / fileio.BOUNDARY_FILES["weights"]
    W = fileio.read_vector(path)
    K = fileio.read_complex(out / fileio.BOUNDARY_FILES["complex"])
    assert np.count_nonzero(W[K.kind == INTERIOR]) > 0
    for edited, factor in ((K.kind == INTERIOR, 50.0), (K.loops[0], 2.0)):
        tampered = W.copy()
        tampered[edited] *= factor
        fileio.write_vector(path, tampered)
        assert main(["verify", "--dir", str(out)]) == 1
        failed = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("[FAIL]")]
        e = int(np.flatnonzero(tampered != W)[0])
        assert failed == [f"[FAIL] b2_W.npy is the path weights of the complex at the "
                          f"manifest's alpha 100: entry {e} is {tampered[e]:g}, "
                          f"expected {W[e]:g}"]


def test_cli_verify_w_check_fails_on_a_complex_off_its_layout(tmp_path, capsys):
    # the path ids assume that W has an entry an edge and the build's edge
    # count; a complex one edge short, then also d2, W and gamma, all read,
    # and the W check fails instead of raising
    _write_general(tmp_path)
    out = tmp_path / "out"
    assert main(["reduce", "--matrix", str(tmp_path / "A.mtx"),
                 "--rhs", str(tmp_path / "b.vec"), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", "--dir", str(out)]) == 0
    names = _check_names(capsys.readouterr().out)
    K = fileio.read_complex(out / "b2_complex.npz")
    fileio.write_complex(out / "b2_complex.npz", complex2.Complex2(
        K.n_vertices, K.tri, K.tri_group, K.edge[:-1], K.kind[:-1], K.loops))
    assert main(["verify", "--dir", str(out)]) == 1
    text = capsys.readouterr().out
    assert _check_names(text) == names
    assert (f"[FAIL] b2_W.npy is the path weights of the complex at the manifest's alpha 100: "
            f"it has {K.n_edges} entries, the complex {K.n_edges - 1} edges"
            in text.splitlines())
    d2 = fileio.read_matrix(out / "b2_d2.mtx")
    keep = d2.rows < d2.n_rows - 1
    fileio.write_matrix(out / "b2_d2.mtx", SparseMatrix.from_arrays(
        d2.n_rows - 1, d2.n_cols, d2.rows[keep], d2.cols[keep], d2.vals[keep]))
    for name in ("b2_W.npy", "b2_gamma.npy"):
        fileio.write_vector(out / name, fileio.read_vector(out / name)[:-1])
    assert main(["verify", "--dir", str(out)]) == 1
    text = capsys.readouterr().out
    assert _check_names(text) == names
    assert (f"[FAIL] b2_W.npy is the path weights of the complex at the manifest's alpha 100: "
            f"the complex has {K.n_edges - 1} edges, not the {K.n_edges} of its layout"
            in text.splitlines())


def test_manifest_with_the_earlier_accuracy_targets_replays(tmp_path):
    # manifests written before the chain stopped deriving accuracy targets
    # also hold eps_da_theory and eps_b2_theory, computed as below; the
    # replay ignores them and writes the x of solve_general, byte for byte
    sys, _ = planted_general_system(np.random.default_rng(6), 4, 4, max_entry=9)
    x, report, chain = solve_general(sys, 1e-3)
    fileio.write_chain(tmp_path, chain)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert set(manifest) == {"eps", "files", "alpha"}
    eps_da = choose_epsilon_da(chain.eps, chain.gz2)
    _, eps_b2 = reduce_reg(chain.da, eps_da=eps_da, alpha=chain.alpha)
    fileio.write_json(tmp_path / "manifest.json",
                      {**manifest, "eps_da_theory": eps_da, "eps_b2_theory": eps_b2})
    assert main(["solve", "--manifest", str(tmp_path), "--out-dir", str(tmp_path)]) == (
        0 if report.converged else 1)
    fileio.write_vector(tmp_path / "library_x.vec", x)
    assert (tmp_path / "x.vec").read_bytes() == (tmp_path / "library_x.vec").read_bytes()


# a malformed manifest.json as (edit of the written manifest, text its error
# names); the CLI's parsers take eps in (0, 1) and alpha in (0, inf) alike
MANIFEST_FAULTS = {
    "a list": (lambda m: [m], "not a JSON object"),
    "no eps": (lambda m: {k: v for k, v in m.items() if k != "eps"}, "'eps'"),
    "string eps": (lambda m: {**m, "eps": "0.001"}, "'eps'"),
    "eps of 1": (lambda m: {**m, "eps": 1}, "'eps'"),
    "boolean eps": (lambda m: {**m, "eps": True}, "'eps'"),
    "no alpha": (lambda m: {k: v for k, v in m.items() if k != "alpha"}, "'alpha'"),
    "zero alpha": (lambda m: {**m, "alpha": 0}, "'alpha'"),
    "infinite alpha": (lambda m: {**m, "alpha": float("inf")}, "'alpha'"),
    "nan alpha": (lambda m: {**m, "alpha": float("nan")}, "'alpha'"),
}


@pytest.mark.parametrize("fault", MANIFEST_FAULTS)
def test_cli_replay_malformed_manifest_is_one_line_error(tmp_path, fault):
    _write_general(tmp_path)
    out = tmp_path / "out"
    assert main(["reduce", "--matrix", str(tmp_path / "A.mtx"),
                 "--rhs", str(tmp_path / "b.vec"), "--out-dir", str(out)]) == 0
    edit, named = MANIFEST_FAULTS[fault]
    manifest = json.loads((out / "manifest.json").read_text())
    (out / "manifest.json").write_text(json.dumps(edit(manifest)))
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--manifest", str(out), "--out-dir", str(out)])
    message = _one_line_error(exc)
    assert "manifest.json" in message and named in message, message
    assert not (out / "x.vec").exists()


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_cli_replay_matches_library_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    sys, _ = planted_general_system(rng, n, n - int(rng.integers(0, 2)), max_entry=20)
    x, report, chain = solve_general(sys, 1e-3)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        fileio.write_matrix(tmp / "A.mtx", sys.A)
        fileio.write_vector(tmp / "b.vec", sys.b)
        out = tmp / "out"
        assert main(["reduce", "--matrix", str(tmp / "A.mtx"), "--rhs", str(tmp / "b.vec"),
                     "--out-dir", str(out), "--eps", "1e-3"]) == 0
        read = fileio.read_chain(out)
        for stage in ("original", "gz2"):
            assert getattr(read, stage).A.equals(getattr(chain, stage).A)
            assert np.array_equal(getattr(read, stage).b, getattr(chain, stage).b)
        assert (read.gz_back, read.gz2_back, read.da) == (chain.gz_back, chain.gz2_back,
                                                          chain.da)
        assert (read.eps, read.alpha) == (chain.eps, chain.alpha)
        rc = main(["solve", "--manifest", str(out), "--out-dir", str(out)])
        assert rc == (0 if report.converged else 1)
        assert np.array_equal(fileio.read_vector(out / "x.vec"), x)
        written = json.loads((out / "solve_report.json").read_text())
    assert written == {
        "route": "manifest-replay", "converged": report.converged,
        "eps": chain.eps, "achieved_ratio": report.achieved_ratio,
        "projected_residual": report.projected_residual,
        "projected_rhs_norm": report.projected_rhs_norm,
        "iterations": report.iterations,
        "method": report.method, "lu_fill": report.fill,
    }


def test_cli_reduce_deterministic(tmp_path):
    _write_general(tmp_path)
    args = ["reduce", "--matrix", str(tmp_path / "A.mtx"),
            "--rhs", str(tmp_path / "b.vec"), "--eps", "1e-3"]
    main(args + ["--out-dir", str(tmp_path / "out1")])
    main(args + ["--out-dir", str(tmp_path / "out2")])
    for name in ("manifest.json", "b2_d2.mtx", "b2_gamma.npy", "b2_W.npy",
                 "b2_complex.npz", "da.json"):
        assert filecmp.cmp(tmp_path / "out1" / name, tmp_path / "out2" / name,
                           shallow=False), name


def test_cli_verify_builds_d2_once(tmp_path, monkeypatch):
    _write_general(tmp_path)
    out = tmp_path / "out"
    main(["reduce", "--matrix", str(tmp_path / "A.mtx"), "--rhs", str(tmp_path / "b.vec"),
          "--out-dir", str(out), "--eps", "1e-3"])
    # every d2 (boundary2's and validate's) is built by
    # complex2.boundary_of_sides from one edge lookup
    calls = {"boundary_of_sides": 0, "_lookup": 0}

    def counted(name):
        honest = getattr(complex2, name)

        def call(*args):
            calls[name] += 1
            return honest(*args)
        return call

    for name in calls:
        monkeypatch.setattr(complex2, name, counted(name))
    assert main(["verify", "--dir", str(out)]) == 0
    assert calls == {"boundary_of_sides": 1, "_lookup": 1}
    # an invalid complex whose sides are all edges: validate's d2 is the one
    # compared, where verify used to build boundary2(K) a second time
    _tamper_complex(out, "flipped-triangle")
    calls.update(boundary_of_sides=0, _lookup=0)
    assert main(["verify", "--dir", str(out)]) == 1
    assert calls == {"boundary_of_sides": 1, "_lookup": 1}


def _tamper_complex(out, case: str) -> complex2.Complex2:
    """Rewrite ``out``'s complex with one fault: a triangle side that is no
    edge, an edge stored twice, or a triangle turned over (its sides still
    edges, two triangles inducing one sign on each of them)."""
    path = out / fileio.BOUNDARY_FILES["complex"]
    K = fileio.read_complex(path)
    tri, edge = K.tri.copy(), K.edge.copy()
    if case == "missing-edge":
        a, b = tri[-1, 1:]
        joined = edge[(edge == a).any(axis=1) | (edge == b).any(axis=1)]
        tri[-1, 0] = min(set(range(K.n_vertices)) - set(joined.ravel().tolist()))
    elif case == "duplicate-edge":
        edge[-1] = edge[-2]
    else:
        tri[0] = tri[0, ::-1]
    K = complex2.Complex2(K.n_vertices, tri, K.tri_group, edge, K.kind, K.loops)
    fileio.write_complex(path, K)
    return K


def _check_names(text: str) -> list[str]:
    return [line.split("] ", 1)[1].split(":")[0] for line in text.splitlines()]


def test_cli_verify_prints_its_six_checks_in_order(tmp_path, capsys):
    # the triangle count and the size bounds are no lines of their own:
    # neither can fail where the checks below pass (see cmd_verify)
    _write_general(tmp_path)
    out = tmp_path / "out"
    assert main(["reduce", "--matrix", str(tmp_path / "A.mtx"),
                 "--rhs", str(tmp_path / "b.vec"), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", "--dir", str(out)]) == 0
    assert _check_names(capsys.readouterr().out) == [
        "complex structure",
        "d2 is the boundary operator of the complex",
        "b2_gamma.npy is the rhs of da.json on the loop edges, 0 elsewhere",
        "b2_W.npy is the path weights of the complex at the manifest's alpha 100",
        "spectral lambda_max",
        "spectral nullity",
    ]


@pytest.mark.parametrize("case, fault", [("missing-edge", "references missing edge"),
                                         ("duplicate-edge", "duplicate edge"),
                                         ("flipped-triangle", "has equal induced signs")])
def test_cli_verify_reports_every_structural_fault_and_runs_on(tmp_path, capsys, case, fault):
    # verify used to abort on a missing or duplicate edge with one error:
    # line, as boundary2 raised out of its fallback and _lookup out of validate
    _write_general(tmp_path)
    out = tmp_path / "out"
    assert main(["reduce", "--matrix", str(tmp_path / "A.mtx"),
                 "--rhs", str(tmp_path / "b.vec"), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", "--dir", str(out)]) == 0
    names = _check_names(capsys.readouterr().out)
    K = _tamper_complex(out, case)
    assert main(["verify", "--dir", str(out)]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert "error:" not in captured.out + captured.err
    assert _check_names(captured.out) == names
    report = validate(K)
    assert fault in report.violation
    assert lines[0] == f"[FAIL] complex structure: {report.violation}"
    assert lines[1].startswith("[FAIL] d2 is the boundary operator of the complex")
    assert all(line.startswith("[PASS]") for line in lines[2:])
    if case == "flipped-triangle":
        assert report.d2.equals(complex2._side_matrix(K)[1])
    else:
        assert report.d2 is None
        assert lines[1].endswith(": the complex has none to compare with")
        with pytest.raises(complex2.ComplexStructureError) as exc:
            boundary2(K)
        assert str(exc.value) == report.violation


def test_cli_verify_checks_gamma_against_da_json(tmp_path, capsys):
    # the demands of one equation's three loop edges raised by 1 used to pass
    # verify; gamma is now compared with da.json's rhs, exactly
    _write_general(tmp_path)
    out = tmp_path / "out"
    assert main(["reduce", "--matrix", str(tmp_path / "A.mtx"),
                 "--rhs", str(tmp_path / "b.vec"), "--out-dir", str(out)]) == 0
    path = out / fileio.BOUNDARY_FILES["gamma"]
    gamma = fileio.read_vector(path)
    loops = fileio.read_complex(out / fileio.BOUNDARY_FILES["complex"]).loops
    # one equation's loop edges, then the first other edge (the build lists
    # the loop edges first)
    for edit in (loops[0], [loops.size]):
        tampered = gamma.copy()
        tampered[edit] += 1.0
        fileio.write_vector(path, tampered)
        capsys.readouterr()
        assert main(["verify", "--dir", str(out)]) == 1
        failed = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("[FAIL]")]
        e = int(np.min(edit))
        assert failed == [f"[FAIL] b2_gamma.npy is the rhs of da.json on the loop edges, "
                          f"0 elsewhere: entry {e} is {tampered[e]:g}, "
                          f"expected {gamma[e]:g}"]


@pytest.mark.parametrize("key", ["weights", "gamma"])
def test_cli_verify_tells_negative_zero_from_zero(tmp_path, capsys, key):
    # verify compared W and gamma with !=, so a -0.0 for a 0.0 passed it,
    # while the replay, which compares bits, refused the directory
    _write_general(tmp_path)
    out = tmp_path / "out"
    assert main(["reduce", "--matrix", str(tmp_path / "A.mtx"),
                 "--rhs", str(tmp_path / "b.vec"), "--out-dir", str(out)]) == 0
    path = out / fileio.BOUNDARY_FILES[key]
    v = fileio.read_vector(path)
    e = int(np.flatnonzero(v == 0.0)[0])
    v[e] = -0.0
    fileio.write_vector(path, v)
    capsys.readouterr()
    assert main(["verify", "--dir", str(out)]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("[FAIL]")]
    assert len(failed) == 1, failed
    assert failed[0].startswith(f"[FAIL] {path.name} is ")
    assert failed[0].endswith(f": entry {e} is -0, expected 0")
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--manifest", str(out), "--out-dir", str(out / "replay")])
    assert f"{path} holds -0.0 at entry {e}, " in _one_line_error(exc)


def test_cli_verify_certifies_5x5_deterministically(tmp_path, capsys):
    _write_5x5(tmp_path)
    out = tmp_path / "out"
    main(["reduce", "--matrix", str(tmp_path / "A.mtx"), "--rhs", str(tmp_path / "b.vec"),
          "--out-dir", str(out), "--eps", "1e-3"])
    capsys.readouterr()
    texts = []
    for _ in range(2):
        assert main(["verify", "--dir", str(out)]) == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    spectral = [line for line in texts[0].splitlines() if "spectral" in line]
    assert len(spectral) == 2 and all(line.startswith("[PASS]") for line in spectral)
    assert "[SKIP]" not in texts[0]
    assert spectral == ["[PASS] spectral lambda_max: value 12 vs bound 12",
                        "[PASS] spectral nullity: d2 H is the pattern on the loop edges "
                        "and zero elsewhere"]


def test_cli_verify_runs_the_same_checks_at_every_size(tmp_path, capsys):
    # a build_ladder-sized system, above 4,000 triangles, gets the checks of
    # the 5x5 system, every one a [PASS], and no [SKIP] line
    rung = three_per_row_system(8, 20)
    (tmp_path / "5x5").mkdir()
    _write_5x5(tmp_path / "5x5")
    fileio.write_matrix(tmp_path / "A.mtx", rung.A)
    fileio.write_vector(tmp_path / "b.vec", rung.b)
    names = []
    for directory in (tmp_path / "5x5", tmp_path):
        out = directory / "out"
        assert main(["reduce", "--matrix", str(directory / "A.mtx"),
                     "--rhs", str(directory / "b.vec"), "--out-dir", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", "--dir", str(out)]) == 0
        text = capsys.readouterr().out
        assert all(line.startswith("[PASS] ") for line in text.splitlines()), text
        names.append(_check_names(text))
    assert names[0] == names[1] and "spectral nullity" in names[1]
    assert fileio.read_boundary_problem(out).n_triangles > 4000

    # a da.json whose first difference row is reversed still loads; the
    # nullity identity sees that its pattern is not the complex's, and the
    # W check that its tubes turn the other way
    da = fileio.read_json(out / "da.json")
    row = next(r for r in da["rows"] if r["kind"] == "difference")
    row["i"], row["j"] = row["j"], row["i"]
    fileio.write_json(out / "da.json", da)
    assert main(["verify", "--dir", str(out)]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("[FAIL]")]
    assert len(failed) == 2 and failed[0].startswith("[FAIL] b2_W.npy is the path weights")
    assert failed[1].startswith("[FAIL] spectral nullity: d2 H minus")


@pytest.mark.parametrize("limit", ["0", "-5", "100"])
def test_cli_verify_rejects_a_cert_limit(tmp_path, capsys, limit):
    # verify runs every check at every size and takes no size limit; the
    # artifact directory is never read: the option fails first
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--dir", str(tmp_path / "missing"), "--cert-limit", limit])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: unrecognized arguments: --cert-limit {limit}" in err
    assert err.strip().splitlines()[-1].startswith("lin2complex: error:")


def test_cli_verify_catches_corruption(tmp_path):
    _write_general(tmp_path)
    out = tmp_path / "out"
    main(["reduce", "--matrix", str(tmp_path / "A.mtx"),
          "--rhs", str(tmp_path / "b.vec"),
          "--out-dir", str(out), "--eps", "1e-3"])
    d2 = fileio.read_matrix(out / "b2_d2.mtx")
    vals = d2.vals.copy()
    vals[0] = -vals[0]
    corrupted = SparseMatrix.from_arrays(d2.n_rows, d2.n_cols, d2.rows, d2.cols, vals)
    fileio.write_matrix(out / "b2_d2.mtx", corrupted)
    assert main(["verify", "--dir", str(out)]) == 1


def test_cli_solve_direct(tmp_path):
    A = SparseMatrix.from_dense([[1, 0], [0, 2], [1, 1]])
    b = np.array([1.0, 4.0, 3.0])
    fileio.write_matrix(tmp_path / "A.mtx", A)
    fileio.write_vector(tmp_path / "b.vec", b)
    rc = main(["solve", "--route", "direct", "--matrix", str(tmp_path / "A.mtx"),
               "--rhs", str(tmp_path / "b.vec"), "--eps", "1e-8",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    x = fileio.read_vector(tmp_path / "x.vec")
    assert np.allclose(x, [1.0, 2.0], atol=1e-6)
    report = fileio.read_json(tmp_path / "solve_report.json")
    assert set(report) == {"route", "converged", "residual_norm", "projected_residual",
                           "projected_rhs_norm", "iterations"}
    assert report["residual_norm"] == float(np.linalg.norm(A @ x - b))


@pytest.mark.parametrize("A, b, error", [
    ([[1, 0], [0, 1]], [1.0, np.nan], "at entry 1; its entries must be finite"),
    ([[1, 0], [0, np.inf]], [1.0, 1.0], "A.mtx is not a Matrix Market matrix: it holds b'I'")],
    ids=["nan-rhs", "inf-matrix"])
def test_cli_solve_direct_non_finite_input_is_one_line_error(tmp_path, capsys, A, b, error):
    # the nan rhs used to write "converged": true with nan residuals and exit
    # 0, the inf entry to do the same after 30,000 LSQR iterations; the
    # matrix reader now refuses the inf entry's text, and the solver the nan.
    # write_matrix refuses the inf entry, so scipy writes the file
    scipy.io.mmwrite(str(tmp_path / "A.mtx"), SparseMatrix.from_dense(A).to_csr())
    fileio.write_vector(tmp_path / "b.vec", b)
    try:
        rc = main(["solve", "--route", "direct", "--matrix", str(tmp_path / "A.mtx"),
                   "--rhs", str(tmp_path / "b.vec"), "--out-dir", str(tmp_path)])
        lines = capsys.readouterr().out.splitlines()
    except SystemExit as exc:
        rc, lines = 2, str(exc.code).splitlines()
    assert rc == 2 and len(lines) == 1 and lines[0].startswith("error:"), lines
    assert error in lines[0]
    assert not (tmp_path / "solve_report.json").exists()


@pytest.mark.parametrize("route", ["laplacian", "gram"])
def test_cli_solve_routes(tmp_path, route):
    rng = np.random.default_rng(5)
    sys, b, _ = planted_da_instance(rng, 2, 2, 1)
    P = reduce_da_to_b2(sys, b)
    fileio.write_complex(tmp_path / "complex.npz", P.K)
    d = rng.integers(-3, 4, size=P.n_edges).astype(float)
    fileio.write_vector(tmp_path / "d.vec", d)
    rc = main(["solve", "--route", route, "--complex", str(tmp_path / "complex.npz"),
               "--rhs", str(tmp_path / "d.vec"), "--eps", "1e-4",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "f.vec").exists()
    report = fileio.read_json(tmp_path / "solve_report.json")
    # the report's bound holds against a dense projection Q d of d onto im d2
    D = boundary2(P.K).to_dense()
    qd = D @ np.linalg.lstsq(D, d, rcond=None)[0]
    f = fileio.read_vector(tmp_path / "f.vec")
    assert report["ok"] and report["projected_residual"] >= np.linalg.norm(D @ f - qd)
    assert report["lu_fill"] >= 1.0


def test_cli_solve_route_beyond_3000_edges(tmp_path):
    # no dense limit: the route runs and certifies, exit code 0
    rng = np.random.default_rng(11)
    sys, b, _ = planted_da_instance(rng, 16, 80, 16)
    P = reduce_da_to_b2(sys, b)
    assert P.n_edges > 3000
    fileio.write_complex(tmp_path / "complex.npz", P.K)
    fileio.write_vector(tmp_path / "d.vec", rng.integers(-4, 5, size=P.n_edges).astype(float))
    rc = main(["solve", "--route", "laplacian", "--complex",
               str(tmp_path / "complex.npz"), "--rhs", str(tmp_path / "d.vec"),
               "--eps", "1e-4", "--out-dir", str(tmp_path)])
    report = fileio.read_json(tmp_path / "solve_report.json")
    assert rc == 0 and report["ok"]


def test_cli_maxflow_demo(tmp_path):
    from lin2complex.da_reduce import difference_row, plain_da_system

    sys = plain_da_system(2, [difference_row(0, 1)])
    P = reduce_da_to_b2(sys, np.array([1.0]))
    fileio.write_json(tmp_path / "net.json", {
        "complex": fileio.complex_to_json(P.K),
        "capacities": [1.0] * P.n_triangles,
        "gamma": P.gamma.tolist(),
        "f_star": 2.0,
    })
    rc = main(["maxflow-demo", "--network", str(tmp_path / "net.json"),
               "--steps", "200", "--trace", str(tmp_path / "trace.csv")])
    assert rc == 0
    rows = (tmp_path / "trace.csv").read_text().strip().splitlines()
    assert rows[0] == "step,kind,alpha,barrier,residual"
    assert len(rows) > 10


@pytest.mark.parametrize("central", ["absent", "older"])
def test_cli_maxflow_demo_network_needs_no_central_entry(tmp_path, central):
    # a network's complex has no "central" entry, and one that an older
    # writer put there, even off its group, is ignored
    from lin2complex.da_reduce import difference_row, plain_da_system

    P = reduce_da_to_b2(plain_da_system(2, [difference_row(0, 1)]), np.array([1.0]))
    obj = {key: value for key, value in fileio.complex_to_json(P.K).items()
           if key != "central"}
    if central == "older":
        obj["central"] = (P.central + 1).tolist()
    fileio.write_json(tmp_path / "net.json", {
        "complex": obj, "capacities": [1.0] * P.n_triangles, "gamma": P.gamma.tolist()})
    assert main(["maxflow-demo", "--network", str(tmp_path / "net.json"),
                 "--steps", "20"]) == 0


def test_cli_reduce_caps_alpha_like_the_library(tmp_path):
    from lin2complex.pipeline import ALPHA_CAP_DEFAULT

    _write_general(tmp_path)
    out = tmp_path / "out"
    assert main(["reduce", "--matrix", str(tmp_path / "A.mtx"),
                 "--rhs", str(tmp_path / "b.vec"), "--out-dir", str(out),
                 "--eps", "1e-3"]) == 0
    assert json.loads((out / "manifest.json").read_text())["alpha"] == ALPHA_CAP_DEFAULT


# -- malformed artifacts ------------------------------------------------------------

def _complex_obj():
    rng = np.random.default_rng(2)
    sys, b, _ = planted_da_instance(rng, 3, 3, 1)
    return json.loads(json.dumps(fileio.complex_to_json(reduce_da_to_b2(sys, b).K)))


def test_complex_json_is_columnar():
    obj = _complex_obj()
    assert set(obj) == {"n_vertices", *fileio.COMPLEX_FIELDS}
    assert all(isinstance(v, list) and all(isinstance(x, int) for x in v)
               for k, v in obj.items() if k != "n_vertices")


@pytest.mark.parametrize("field", ["tri_v1", "tri_group", "edge_head", "edge_kind",
                                   "tri_v2", "loop_r3"])
def test_complex_json_rejects_mismatched_lengths(field):
    from lin2complex.complex2 import ComplexStructureError

    obj = _complex_obj()
    obj[field] = obj[field][:-1]
    with pytest.raises(ComplexStructureError, match=field):
        fileio.complex_from_json(obj)


@pytest.mark.parametrize("field,value", [("loop_r2", -1), ("loop_r1", 10 ** 6),
                                         ("edge_tail", 10 ** 6), ("tri_v0", -3),
                                         ("tri_group", 10 ** 6), ("edge_kind", 3)])
def test_complex_json_rejects_out_of_range_ids(field, value):
    from lin2complex.complex2 import ComplexStructureError

    obj = _complex_obj()
    obj[field][0] = value
    with pytest.raises(ComplexStructureError, match=field):
        fileio.complex_from_json(obj)


def test_complex_json_rejects_missing_field_and_non_int_values():
    from lin2complex.complex2 import ComplexStructureError

    obj = _complex_obj()
    obj["edge_kind"][0] = 0.5
    with pytest.raises(ComplexStructureError, match="edge_kind"):
        fileio.complex_from_json(obj)
    obj = _complex_obj()
    del obj["loop_r2"]
    with pytest.raises(ComplexStructureError, match="loop_r2"):
        fileio.complex_from_json(obj)


def test_cli_replay_missing_sidecar_is_one_line_error(tmp_path):
    # W is one of the two files the replay reads beside the source
    _write_general(tmp_path)
    out = tmp_path / "out"
    assert main(["reduce", "--matrix", str(tmp_path / "A.mtx"),
                 "--rhs", str(tmp_path / "b.vec"), "--out-dir", str(out)]) == 0
    (out / "b2_W.npy").unlink()
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--manifest", str(out), "--out-dir", str(out)])
    message = str(exc.value.code)
    assert "b2_W.npy" in message and "\n" not in message


def test_maxflow_demo_script_network_replays(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    subprocess.run([sys.executable, str(repo / "scripts" / "run_maxflow_demo.py"),
                    "--steps", "60", "--out-dir", str(tmp_path)],
                   check=True, capture_output=True, env=env)
    net = json.loads((tmp_path / "net.json").read_text())
    K = fileio.complex_from_json(net["complex"])
    assert validate(K).ok and K.n_triangles == len(net["capacities"])
    assert main(["maxflow-demo", "--network", str(tmp_path / "net.json"),
                 "--steps", "60"]) == 0


def test_maxflow_demo_script_trace_equals_the_cli_replay(tmp_path, capsys):
    # the script and ``maxflow-demo`` write their traces with one writer,
    # and the network the script writes replays to the same run
    import importlib.util

    script = Path(__file__).resolve().parents[1] / "scripts" / "run_maxflow_demo.py"
    spec = importlib.util.spec_from_file_location("run_maxflow_demo", script)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    assert demo.main(["--steps", "20", "--out-dir", str(tmp_path)]) == 0
    assert main(["maxflow-demo", "--network", str(tmp_path / "net.json"), "--steps", "20",
                 "--trace", str(tmp_path / "replay.csv")]) == 0
    trace = (tmp_path / "trace.csv").read_bytes()
    assert trace.startswith(b"step,kind,alpha,barrier,residual\r\n")
    assert trace == (tmp_path / "replay.csv").read_bytes()


@pytest.mark.parametrize("name", ["b2_W.npy", "b2_gamma.npy", "original_b.vec"])
def test_cli_replay_vector_length_mismatch_is_one_line_error(tmp_path, name):
    _write_general(tmp_path)
    out = tmp_path / "out"
    assert main(["reduce", "--matrix", str(tmp_path / "A.mtx"),
                 "--rhs", str(tmp_path / "b.vec"), "--out-dir", str(out)]) == 0
    fileio.write_vector(out / name, fileio.read_vector(out / name)[:-1])
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--manifest", str(out), "--out-dir", str(out)])
    message = str(exc.value.code)
    assert message.startswith("error:") and name in message and "\n" not in message


def test_cli_maxflow_demo_short_capacities_is_one_line_error(tmp_path):
    from lin2complex.da_reduce import difference_row, plain_da_system

    P = reduce_da_to_b2(plain_da_system(2, [difference_row(0, 1)]), np.array([1.0]))
    fileio.write_json(tmp_path / "net.json", {
        "complex": fileio.complex_to_json(P.K),
        "capacities": [1.0] * (P.n_triangles - 1),
        "gamma": P.gamma.tolist(),
    })
    with pytest.raises(SystemExit) as exc:
        main(["maxflow-demo", "--network", str(tmp_path / "net.json")])
    message = str(exc.value.code)
    assert message.startswith("error:") and "capacity" in message and "\n" not in message


# a malformed part of a maxflow-demo network as (key, value, named): a
# capacity or demand replaces the first entry, an f_star or a complex the
# whole value, a key of None the whole network, and the error names ``named``
NETWORK_FAULTS = {
    "string-capacity": ("capacities", "x", "numbers"),
    "nan-capacity": ("capacities", np.nan, "capacities"),
    "inf-capacity": ("capacities", np.inf, "capacities"),
    "nan-demand": ("gamma", np.nan, "demands"),
    "string-f-star": ("f_star", "x", "f_star"),
    "nan-f-star": ("f_star", np.nan, "f_star"),
    "inf-f-star": ("f_star", np.inf, "f_star"),
    "zero-f-star": ("f_star", 0, "f_star"),
    "negative-f-star": ("f_star", -2.0, "f_star"),
    "not-an-object": (None, 5, "net.json"),
    "list-complex": ("complex", [1, 2, 3], "complex"),
    "ragged-demand": ("gamma", [2.0, 3.0], "gamma"),
    "ragged-complex-field": ("complex", {"n_vertices": 4, "tri_v0": [[1, 2], [3]]}, "tri_v0"),
}


@pytest.mark.parametrize("fault", NETWORK_FAULTS)
def test_cli_maxflow_demo_malformed_number_is_one_line_error(tmp_path, fault):
    # each used to end in a traceback: ValueError, TypeError,
    # StepRejectedError or SuperLU's "Factor is exactly singular"
    from lin2complex.da_reduce import difference_row, plain_da_system

    P = reduce_da_to_b2(plain_da_system(2, [difference_row(0, 1)]), np.array([1.0]))
    net = {"complex": fileio.complex_to_json(P.K), "capacities": [1.0] * P.n_triangles,
           "gamma": P.gamma.tolist(), "f_star": 2.0}
    key, value, named = NETWORK_FAULTS[fault]
    if key is None:
        net = value
    elif key in ("f_star", "complex"):
        net[key] = value
    else:
        net[key][0] = value
    fileio.write_json(tmp_path / "net.json", net)
    with pytest.raises(SystemExit) as exc:
        main(["maxflow-demo", "--network", str(tmp_path / "net.json")])
    assert named in _one_line_error(exc)


@pytest.mark.parametrize("key", ["complex", "capacities", "gamma"])
def test_cli_maxflow_demo_missing_key_is_one_line_error(tmp_path, key):
    from lin2complex.da_reduce import difference_row, plain_da_system

    P = reduce_da_to_b2(plain_da_system(2, [difference_row(0, 1)]), np.array([1.0]))
    net = {"complex": fileio.complex_to_json(P.K), "capacities": [1.0] * P.n_triangles,
           "gamma": P.gamma.tolist()}
    del net[key]
    fileio.write_json(tmp_path / "net.json", net)
    with pytest.raises(SystemExit) as exc:
        main(["maxflow-demo", "--network", str(tmp_path / "net.json")])
    message = str(exc.value.code)
    assert message.startswith("error:") and repr(key) in message and "\n" not in message


def test_vector_file_holds_shortest_round_trip_text(tmp_path):
    v = [0.1, 1200.0, -0.0, 2.0 ** -1074, 1 / 3]
    fileio.write_vector(tmp_path / "v.vec", v)
    assert (tmp_path / "v.vec").read_text() == "0.1\n1200\n-0\n5e-324\n0.3333333333333333\n"
    back = fileio.read_vector(tmp_path / "v.vec")
    assert np.array_equal(back, v) and np.signbit(back[2])


def _one_line_error(exc) -> str:
    message = str(exc.value.code)
    assert message.startswith("error:") and "\n" not in message, message
    return message


def _verify_error(out, replay_first: bool) -> str:
    """The one ``error:`` line of ``verify`` on ``out``, which holds a fault
    in a file that only ``verify`` opens; with ``replay_first``, the replay
    of ``out`` runs clean before it, since it rebuilds the chain from the
    original system and opens no such file."""
    if replay_first:
        assert main(["solve", "--manifest", str(out), "--out-dir", str(out / "replay")]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--dir", str(out)])
    return _one_line_error(exc)


def test_cli_reduce_alpha_that_overflows_is_one_line_error(tmp_path):
    # alpha times an interior edge's mass overflows to inf; reduce used to
    # write that W, which verify and solve --manifest then refused
    _write_5x5(tmp_path)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "--matrix", str(tmp_path / "A.mtx"), "--rhs", str(tmp_path / "b.vec"),
              "--out-dir", str(out), "--alpha", "1e308"])
    assert "alpha 1e+308 makes an edge weight overflow" in _one_line_error(exc)
    assert not out.exists()


def test_cli_reduce_non_numeric_rhs_is_one_line_error(tmp_path):
    _write_general(tmp_path)
    (tmp_path / "b.vec").write_text("1.0\n2.0\nthree\n4.0\n")
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "--matrix", str(tmp_path / "A.mtx"), "--rhs", str(tmp_path / "b.vec"),
              "--out-dir", str(tmp_path / "out")])
    message = _one_line_error(exc)
    assert "b.vec" in message and "three" in message


@pytest.mark.parametrize("argv, make", [
    (["reduce", "--matrix", "A.mtx", "--rhs", "bad", "--out-dir", "out"], Path.mkdir),
    (["reduce", "--matrix", "A.mtx", "--rhs", "b.vec", "--out-dir", "bad"], Path.touch),
    (["solve", "--manifest", "bad", "--out-dir", "out"], Path.touch),
    (["maxflow-demo", "--network", "bad"], Path.mkdir),
], ids=["reduce-rhs-directory", "reduce-out-dir-file", "solve-manifest-file",
        "maxflow-demo-network-directory"])
def test_cli_path_of_the_wrong_kind_is_one_line_error(tmp_path, monkeypatch, argv, make):
    # IsADirectoryError, FileExistsError and NotADirectoryError name the path
    _write_general(tmp_path)
    make(tmp_path / "bad")
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert "'bad" in _one_line_error(exc)


@pytest.mark.parametrize("command", [["reduce"], ["solve", "--route", "direct"]])
def test_cli_short_rhs_is_one_line_error(tmp_path, command):
    _write_general(tmp_path)
    (tmp_path / "b.vec").write_text("1.0\n2.0\n3.0\n")
    with pytest.raises(SystemExit) as exc:
        main([*command, "--matrix", str(tmp_path / "A.mtx"), "--rhs", str(tmp_path / "b.vec"),
              "--out-dir", str(tmp_path / "out")])
    message = _one_line_error(exc)
    assert "b.vec" in message and "A.mtx" in message


@pytest.mark.parametrize("entry,reason", [("1.5", "integers"),
                                          ("9007199254740993", "2^53")],
                         ids=["non-integer", "beyond-2^53"])
def test_cli_reduce_matrix_outside_class_g_is_one_line_error(tmp_path, entry, reason):
    _write_general(tmp_path)
    lines = (tmp_path / "A.mtx").read_text().splitlines(keepends=True)
    row, col, _ = lines[-1].split()
    lines[-1] = f"{row} {col} {entry}\n"
    text = "".join(lines)
    (tmp_path / "A.mtx").write_text(text if "." not in entry else
                                    text.replace(" integer ", " real ", 1))
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "--matrix", str(tmp_path / "A.mtx"), "--rhs", str(tmp_path / "b.vec"),
              "--out-dir", str(tmp_path / "out")])
    assert reason in _one_line_error(exc)


def _complex_entries(header: str, entries: list[str]) -> tuple[str, list[str]]:
    """Each entry with imaginary part 0, the last with 2."""
    entries = [f"{e} 0" for e in entries]
    entries[-1] = entries[-1][:-1] + "2"
    return header.replace(" integer ", " complex ", 1), entries


def _entry_beyond_int64(header: str, entries: list[str]) -> tuple[str, list[str]]:
    row, col, _ = entries[-1].split()
    return header, [*entries[:-1], f"{row} {col} 99999999999999999999999"]


@pytest.mark.parametrize("command", [["reduce"], ["solve", "--route", "direct"]])
@pytest.mark.parametrize("edit,reason", [
    (_complex_entries, "holds complex entries; a matrix file holds real ones"),
    (_entry_beyond_int64, "is not a Matrix Market matrix: Line "),
], ids=["complex", "beyond-int64"])
def test_cli_matrix_entry_float64_does_not_hold_is_one_line_error(tmp_path, command, edit,
                                                                  reason):
    # a complex entry lost its imaginary part with only numpy's warning, and
    # an integer beyond int64 ended in an OverflowError traceback
    _write_general(tmp_path)
    header, *lines = (tmp_path / "A.mtx").read_text().splitlines()
    size = next(i for i, line in enumerate(lines) if not line.startswith("%"))
    header, entries = edit(header, lines[size + 1:])
    (tmp_path / "A.mtx").write_text("\n".join([header, *lines[:size + 1], *entries]) + "\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*command, "--matrix", str(tmp_path / "A.mtx"), "--rhs", str(tmp_path / "b.vec"),
              "--out-dir", str(out)])
    assert _one_line_error(exc).startswith(f"error: {tmp_path / 'A.mtx'} {reason}")
    assert not out.exists() or not any(out.iterdir())


def test_cli_replay_original_outside_class_g_is_one_line_error(tmp_path):
    # the replay re-derives G_z from original_A.mtx, which checks its class
    _write_general(tmp_path)
    out = tmp_path / "out"
    assert main(["reduce", "--matrix", str(tmp_path / "A.mtx"),
                 "--rhs", str(tmp_path / "b.vec"), "--out-dir", str(out)]) == 0
    A = fileio.read_matrix(out / "original_A.mtx")
    vals = A.vals.copy()
    vals[0] += 0.5
    fileio.write_matrix(out / "original_A.mtx",
                        SparseMatrix.from_arrays(A.n_rows, A.n_cols, A.rows, A.cols, vals))
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--manifest", str(out), "--out-dir", str(out)])
    assert "integers" in _one_line_error(exc)


def test_cli_verify_malformed_matrix_body_is_one_line_error(tmp_path):
    _write_general(tmp_path)
    out = tmp_path / "out"
    assert main(["reduce", "--matrix", str(tmp_path / "A.mtx"),
                 "--rhs", str(tmp_path / "b.vec"), "--out-dir", str(out)]) == 0
    lines = (out / "b2_d2.mtx").read_text().splitlines(keepends=True)
    lines[-1] = "1 x 1\n"
    (out / "b2_d2.mtx").write_text("".join(lines))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--dir", str(out)])
    assert "b2_d2.mtx" in _one_line_error(exc)


@pytest.mark.parametrize("command", ["verify", "solve"])
@pytest.mark.parametrize("value, refusal", [("2", "+1 and -1"), ("2.5", "+1 and -1"),
                                            ("inf", "it holds b'i'"), ("nan", "it holds b'n'")],
                         ids=["2", "2.5", "inf", "nan"])
def test_cli_d2_entry_other_than_unit_is_one_line_error(tmp_path, value, refusal, command):
    # read_boundary_problem refuses the entry before any check reads d2, so
    # verify does not end in a traceback; inf and nan the matrix reader
    # refuses already.  The replay builds its own d2 and, as "solve", runs
    # clean first
    _write_general(tmp_path)
    out = tmp_path / "out"
    assert main(["reduce", "--matrix", str(tmp_path / "A.mtx"),
                 "--rhs", str(tmp_path / "b.vec"), "--out-dir", str(out)]) == 0
    lines = (out / "b2_d2.mtx").read_text().splitlines(keepends=True)
    row, col, _ = lines[-1].split()
    lines[-1] = f"{row} {col} {value}\n"
    lines[0] = lines[0].replace(" integer ", " real ", 1)
    (out / "b2_d2.mtx").write_text("".join(lines))
    message = _verify_error(out, replay_first=command == "solve")
    assert "b2_d2.mtx" in message and refusal in message, message


@pytest.mark.parametrize("command", ["verify", "solve"])
@pytest.mark.parametrize("delta", [1, -1])
def test_cli_d2_column_count_off_the_complex_is_one_line_error(tmp_path, delta, command):
    # a size line one column wider or narrower than the complex's triangle
    # count ended verify in a traceback where the certificate built H
    _write_5x5(tmp_path)
    out = tmp_path / "out"
    assert main(["reduce", "--matrix", str(tmp_path / "A.mtx"),
                 "--rhs", str(tmp_path / "b.vec"), "--out-dir", str(out)]) == 0
    lines = (out / "b2_d2.mtx").read_text().splitlines(keepends=True)
    size = next(i for i, line in enumerate(lines) if not line.startswith("%"))
    rows, cols, nnz = map(int, lines[size].split())
    if delta < 0:  # the narrower matrix loses the entries of its last column
        keep = [line for line in lines[size + 1:] if int(line.split()[1]) < cols]
        lines[size + 1:], nnz = keep, len(keep)
    lines[size] = f"{rows} {cols + delta} {nnz}\n"
    (out / "b2_d2.mtx").write_text("".join(lines))
    with pytest.raises(fileio.ArtifactError) as exc:
        fileio.read_boundary_problem(out)
    assert str(exc.value) == (f"{out / 'b2_d2.mtx'} has {cols + delta} columns but "
                              f"{out / 'b2_complex.npz'} has {cols} triangles")
    assert _verify_error(out, replay_first=command == "solve") == f"error: {exc.value}"


def test_reduce_writes_no_central_triangles(tmp_path):
    # each variable's central triangle is the first of its group, derived on
    # read, so neither the archive nor the JSON form of the complex holds it
    _write_5x5(tmp_path)
    out = tmp_path / "out"
    assert main(["reduce", "--matrix", str(tmp_path / "A.mtx"),
                 "--rhs", str(tmp_path / "b.vec"), "--out-dir", str(out)]) == 0
    with np.load(out / "b2_complex.npz") as members:
        assert "central" not in members
    K = fileio.read_complex(out / "b2_complex.npz")
    assert not hasattr(K, "central") and "central" not in fileio.complex_to_json(K)
    P = fileio.read_boundary_problem(out)
    assert np.array_equal(P.central, np.searchsorted(K.tri_group, np.arange(P.n_vars)))


def test_older_archive_with_central_triangles_reads_verifies_and_replays(tmp_path):
    # an archive written before the central triangles were derived holds a
    # central.npy member; the reader ignores it, even with every entry moved
    # to the next triangle of its group
    _write_5x5(tmp_path)
    out = tmp_path / "out"
    assert main(["reduce", "--matrix", str(tmp_path / "A.mtx"),
                 "--rhs", str(tmp_path / "b.vec"), "--out-dir", str(out)]) == 0
    P = fileio.read_boundary_problem(out)
    assert main(["solve", "--manifest", str(out), "--out-dir", str(out / "before")]) == 0
    with zipfile.ZipFile(out / "b2_complex.npz", "a") as archive:
        with archive.open("central.npy", "w") as fh:
            np.lib.format.write_array(fh, (P.central + 1).astype("<i4"), allow_pickle=False)
    with np.load(out / "b2_complex.npz") as members:
        assert np.array_equal(members["central"], P.central + 1)
    Q = fileio.read_boundary_problem(out)
    assert fileio.complex_to_json(Q.K) == fileio.complex_to_json(P.K)
    assert np.array_equal(Q.central, P.central)
    assert main(["verify", "--dir", str(out)]) == 0
    assert main(["solve", "--manifest", str(out), "--out-dir", str(out / "after")]) == 0
    for name in ("x.vec", "solve_report.json"):
        assert (out / "after" / name).read_bytes() == (out / "before" / name).read_bytes()


@pytest.mark.parametrize("name", ["manifest.json", "da.json"])
def test_cli_replay_truncated_json_is_one_line_error(tmp_path, name):
    # the replay reads manifest.json and never opens da.json, which verify
    # reads after the replay has run clean
    _write_general(tmp_path)
    out = tmp_path / "out"
    assert main(["reduce", "--matrix", str(tmp_path / "A.mtx"),
                 "--rhs", str(tmp_path / "b.vec"), "--out-dir", str(out)]) == 0
    text = (out / name).read_text()
    (out / name).write_text(text[: len(text) // 2])
    if name == "da.json":
        assert name in _verify_error(out, replay_first=True)
        return
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--manifest", str(out), "--out-dir", str(out)])
    assert name in _one_line_error(exc)


@pytest.mark.parametrize("command", ["solve", "verify", "maxflow-demo"])
def test_cli_json_that_is_not_text_is_one_line_error(tmp_path, command):
    # bytes that do not decode as UTF-8 used to end in a UnicodeDecodeError
    # traceback from each command's JSON file
    _write_general(tmp_path)
    out = tmp_path / "out"
    assert main(["reduce", "--matrix", str(tmp_path / "A.mtx"),
                 "--rhs", str(tmp_path / "b.vec"), "--out-dir", str(out)]) == 0
    name, argv = {
        "solve": ("manifest.json", ["solve", "--manifest", str(out), "--out-dir", str(out)]),
        "verify": ("da.json", ["verify", "--dir", str(out)]),
        "maxflow-demo": ("net.json", ["maxflow-demo", "--network", str(out / "net.json")]),
    }[command]
    (out / name).write_bytes(b"\xff\xfe\x00")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    message = _one_line_error(exc)
    assert name in message and "not valid JSON" in message, message


# a malformed row of da.json as (row, field, value): the row is an index, or
# "average" for the first average row, a value of None deletes the field,
# and a field of None replaces the whole row by the value
DA_ROW_FAULTS = {
    "missing field": (0, "i", None),
    "string id": (1, "j", "1"),
    "fractional id": (0, "i", 0.5),
    "id out of range": (2, "i", 10 ** 6),
    "id beyond int64": (0, "i", 10 ** 30),
    "negative id": (1, "j", -1),
    "unknown kind": (0, "kind", "sum"),
    "zero weight": (1, "weight", 0),
    "negative scale": (0, "scale", -1.0),
    "average with rhs": ("average", "rhs", 1.0),
    "infinite weight": (1, "weight", float("inf")),
    "infinite scale": (2, "scale", float("inf")),
    "nan rhs": (0, "rhs", float("nan")),
    "weight beyond float64": (1, "weight", 10 ** 400),
    "row not an object": (1, None, [0, 1]),
    "true id": (0, "i", True),
}


@pytest.mark.parametrize("command", ["verify", "solve"])
@pytest.mark.parametrize("fault", DA_ROW_FAULTS)
def test_cli_malformed_da_row_is_one_line_error(tmp_path, fault, command):
    _write_general(tmp_path)
    out = tmp_path / "out"
    assert main(["reduce", "--matrix", str(tmp_path / "A.mtx"),
                 "--rhs", str(tmp_path / "b.vec"), "--out-dir", str(out)]) == 0
    da = json.loads((out / "da.json").read_text())
    q, field, value = DA_ROW_FAULTS[fault]
    if q == "average":
        q = next(q for q, row in enumerate(da["rows"]) if row["kind"] == "average")
    if field is None:
        da["rows"][q] = value
    elif value is None:
        del da["rows"][q][field]
    else:
        da["rows"][q][field] = value
    (out / "da.json").write_text(json.dumps(da))
    # the replay never opens da.json; verify refuses the row
    message = _verify_error(out, replay_first=command == "solve")
    assert "da.json" in message and f"row {q}" in message, message


def test_cli_replay_da_of_another_system_is_one_line_error(tmp_path):
    # verify rebuilds the tubes from da.json and the complex, so the two must
    # fit; the replay rebuilds both from the original system and runs clean
    out, other = tmp_path / "out", tmp_path / "other"
    for seed, directory in ((0, out), (1, other)):
        fileio.write_chain(directory, reduce_chain(
            planted_general_system(np.random.default_rng(seed), 4 + seed, 4, max_entry=9)[0],
            1e-3))
    (out / "da.json").write_text((other / "da.json").read_text())
    message = _verify_error(out, replay_first=True)
    assert "b2_complex.npz" in message and "da.json" in message


@pytest.mark.parametrize("argv, option", [
    (["reduce", "--eps", "2"], "--eps"),
    (["reduce", "--eps", "0"], "--eps"),
    (["solve", "--eps", "2"], "--eps"),
    (["reduce", "--alpha", "-1"], "--alpha"),
    (["reduce", "--alpha", "0"], "--alpha"),
    (["reduce", "--alpha", "inf"], "--alpha"),
    (["reduce", "--alpha", "nan"], "--alpha"),
])
def test_cli_out_of_range_option_is_rejected_when_parsed(tmp_path, capsys, argv, option):
    _write_general(tmp_path)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--matrix", str(tmp_path / "A.mtx"), "--rhs", str(tmp_path / "b.vec"),
              "--out-dir", str(out)])
    assert exc.value.code == 2
    assert f"error: argument {option}:" in capsys.readouterr().err
    # rejected before any stage ran or wrote
    assert not out.exists()


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_maxflow_demo_steps_below_one_rejected_when_parsed(tmp_path, capsys, steps):
    # the network file is never read: the option fails first
    with pytest.raises(SystemExit) as exc:
        main(["maxflow-demo", "--network", str(tmp_path / "net.json"), "--steps", steps])
    assert exc.value.code == 2
    assert "error: argument --steps: must be at least 1" in capsys.readouterr().err


def test_maxflow_demo_script_rejects_steps_below_one(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    run = subprocess.run([sys.executable, str(repo / "scripts" / "run_maxflow_demo.py"),
                          "--steps", "0", "--out-dir", str(tmp_path / "out")],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 2 and "argument --steps" in run.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, options", [
    (["solve"], ("--matrix", "--rhs")),
    (["solve", "--route", "direct", "--matrix", "A.mtx"], ("--rhs",)),
    (["solve", "--route", "laplacian"], ("--complex", "--rhs")),
    (["solve", "--route", "gram", "--complex", "K.npz"], ("--rhs",)),
])
def test_cli_solve_route_missing_input_is_one_line_error(tmp_path, argv, options):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out-dir", str(tmp_path / "out")])
    message = _one_line_error(exc)
    assert all(option in message for option in options)


# -- complex archives ------------------------------------------------------------

def _planted_complex():
    sys, b, _ = planted_da_instance(np.random.default_rng(2), 3, 3, 1)
    return reduce_da_to_b2(sys, b).K


def _edit_archive(path, edits):
    """Rewrite the archive at ``path`` with each member named in ``edits``
    replaced by ``edit(old array)``, or dropped where the edit is None."""
    with np.load(path) as members:
        arrays = {name: members[name] for name in members}
    with zipfile.ZipFile(path, "w") as archive:
        for name, a in arrays.items():
            edit = edits.get(name, lambda a: a)
            if edit is not None:
                with archive.open(f"{name}.npy", "w") as fh:
                    np.lib.format.write_array(fh, edit(a), allow_pickle=True)


def test_complex_archive_holds_one_int32_member_per_field(tmp_path):
    K = _planted_complex()
    fileio.write_complex(tmp_path / "c.npz", K)
    with np.load(tmp_path / "c.npz", allow_pickle=False) as members:
        assert set(members) == {"n_vertices", *fileio.COMPLEX_FIELDS}
        assert {members[name].dtype.str for name in members} == {"<i4"}
        assert {name: members[name].tolist() for name in members} == fileio.complex_to_json(K)
    assert fileio.complex_to_json(fileio.read_complex(tmp_path / "c.npz")) == \
        fileio.complex_to_json(K)


def _earlier_edge_columns(K) -> dict[str, list[int]]:
    """The per-edge columns that archives and network JSON used to carry:
    an interior edge's group, a loop edge's equation and slot 1-3, -1 where
    none."""
    group, q, r = np.full((3, K.n_edges), -1)
    d2 = boundary2(K).to_csr()
    interior = K.kind == complex2.INTERIOR
    group[interior] = K.tri_group[d2.indices[d2.indptr[:-1]]][interior]
    q[K.loops] = np.arange(len(K.loops))[:, None]
    r[K.loops] = [1, 2, 3]
    return {"edge_group": group.tolist(), "edge_q": q.tolist(), "edge_r": r.tolist()}


def test_complex_with_the_earlier_edge_columns_reads_back(tmp_path):
    K = _planted_complex()
    new = fileio.complex_to_json(K)
    old = {**new, **_earlier_edge_columns(K)}
    assert set(old) - set(new) == {"edge_group", "edge_q", "edge_r"}
    assert fileio.complex_to_json(fileio.complex_from_json(old)) == new
    with zipfile.ZipFile(tmp_path / "c.npz", "w") as archive:
        for name, values in old.items():
            with archive.open(f"{name}.npy", "w") as fh:
                np.lib.format.write_array(fh, np.asarray(values, dtype="<i4"))
    assert fileio.complex_to_json(fileio.read_complex(tmp_path / "c.npz")) == new


def test_complex_archive_bytes_ignore_the_clock(tmp_path, monkeypatch):
    K, localtime = _planted_complex(), time.localtime
    for stamp in (0, 10 ** 9):
        monkeypatch.setattr(time, "time", lambda: float(stamp))
        monkeypatch.setattr(time, "localtime", lambda secs=None: localtime(stamp))
        fileio.write_complex(tmp_path / f"{stamp}.npz", K)
    assert (tmp_path / "0.npz").read_bytes() == (tmp_path / f"{10 ** 9}.npz").read_bytes()


def test_write_complex_refuses_values_beyond_int32(tmp_path):
    K = copy.copy(_planted_complex())
    K.n_vertices = 2 ** 31
    with pytest.raises(OverflowError, match="n_vertices"):
        fileio.write_complex(tmp_path / "c.npz", K)
    assert not (tmp_path / "c.npz").exists()


@pytest.mark.parametrize("field,edit", [("tri_v1", lambda a: a[:-1]),
                                        ("loop_r3", lambda a: a[:-1]),
                                        ("loop_r1", lambda a: a + 10 ** 6),
                                        ("tri_v0", lambda a: -1 - a)],
                         ids=["tri_v1-short", "loop_r3-short", "loop_r1-beyond",
                              "tri_v0-negative"])
def test_complex_archive_rejects_bad_fields(tmp_path, field, edit):
    from lin2complex.complex2 import ComplexStructureError

    path = tmp_path / "b2_complex.npz"
    fileio.write_complex(path, _planted_complex())
    _edit_archive(path, {field: edit})
    with pytest.raises(ComplexStructureError, match=field) as exc:
        fileio.read_complex(path)
    assert str(path) in str(exc.value)


ARCHIVE_FAULTS = {
    "truncated": lambda path: path.write_bytes(path.read_bytes()[: path.stat().st_size // 2]),
    "not-a-zip": lambda path: path.write_bytes(b"n_vertices,tri_v0\n3,0\n"),
    "missing-member": lambda path: _edit_archive(path, {"tri_group": None}),
    "float-member": lambda path: _edit_archive(path, {"edge_kind": lambda a: a + 0.5}),
    "object-member": lambda path: _edit_archive(path, {"edge_kind": lambda a: a.astype(object)}),
}


@pytest.mark.parametrize("fault", ARCHIVE_FAULTS)
@pytest.mark.parametrize("command", ["solve", "verify"])
def test_cli_malformed_complex_archive_is_one_line_error(tmp_path, command, fault):
    _write_general(tmp_path)
    out = tmp_path / "out"
    assert main(["reduce", "--matrix", str(tmp_path / "A.mtx"),
                 "--rhs", str(tmp_path / "b.vec"), "--out-dir", str(out)]) == 0
    ARCHIVE_FAULTS[fault](out / "b2_complex.npz")
    # the replay builds its own complex; verify refuses the archive
    message = _verify_error(out, replay_first=command == "solve")
    assert "b2_complex.npz" in message
    if fault == "object-member":
        assert "allow_pickle=False" in message


# -- vector files: .npy and text ------------------------------------------------------

def test_npy_vector_round_trip_is_bit_exact(tmp_path):
    # the .npy encoding moves the float64 bits themselves: signed zeros,
    # subnormals, integers beyond 2^53 and values near the float64 limit
    from lin2complex.da_reduce import GeneralSystem

    P = reduce_chain(GeneralSystem(SparseMatrix.from_dense(A_5X5), B_5X5), 1e-3).problem
    assert np.count_nonzero(P.weights == 0.0) > 0
    for name, v in (("edge", np.array([-0.0, 5e-324, 2.0 ** 53 + 2, 1.7e308, 0.0, 1 / 3])),
                    ("weights", P.weights), ("empty", np.zeros(0))):
        path = tmp_path / f"{name}.npy"
        fileio.write_vector(path, v)
        back = fileio.read_vector(path)
        assert back.dtype == np.float64 and back.shape == v.shape
        assert np.array_equal(back.view(np.uint64), v.view(np.uint64)), name
        with open(path, "rb") as fh:
            assert np.lib.format.read_magic(fh) == (1, 0)
            assert np.lib.format.read_array_header_1_0(fh) == (v.shape, False, np.dtype("<f8"))
        # equal vectors give equal bytes
        fileio.write_vector(tmp_path / "again.npy", v.copy())
        assert (tmp_path / "again.npy").read_bytes() == path.read_bytes()


def test_npy_vector_of_integers_or_another_float_width_reads_as_float64(tmp_path):
    for a in (np.array([3, -4, 0], dtype=np.int32), np.array([0.5, -2.0], dtype=">f4")):
        np.save(tmp_path / "v.npy", a)
        back = fileio.read_vector(tmp_path / "v.npy")
        assert back.dtype == np.float64 and np.array_equal(back, a)


def test_boundary_problem_files_are_npy_vectors(tmp_path):
    sys, _ = planted_general_system(np.random.default_rng(4), 4, 4, max_entry=9)
    P = reduce_chain(sys, 1e-3).problem
    fileio.write_boundary_problem(tmp_path, P)
    for key, attr in (("weights", "weights"), ("gamma", "gamma")):
        name = fileio.BOUNDARY_FILES[key]
        assert name.endswith(".npy")
        assert np.array_equal(np.load(tmp_path / name, allow_pickle=False).view(np.uint64),
                              getattr(P, attr).view(np.uint64))


def test_npy_vector_of_the_wrong_length_is_a_dimension_error(tmp_path):
    from lin2complex.sparse_core import DimensionError

    sys, _ = planted_general_system(np.random.default_rng(4), 4, 4, max_entry=9)
    fileio.write_boundary_problem(tmp_path, reduce_chain(sys, 1e-3).problem)
    path = tmp_path / fileio.BOUNDARY_FILES["gamma"]
    fileio.write_vector(path, np.append(fileio.read_vector(path), 0.0))
    with pytest.raises(DimensionError, match="b2_gamma.npy"):
        fileio.read_boundary_problem(tmp_path)


def _save_object_array(path):
    a = np.load(path, allow_pickle=False).astype(object)
    with open(path, "wb") as fh:
        np.lib.format.write_array(fh, a, allow_pickle=True)


# a malformed .npy vector as (edit of the written file, text its error holds)
NPY_FAULTS = {
    "truncated": (lambda path: path.write_bytes(path.read_bytes()[: path.stat().st_size // 2]),
                  "not a .npy array"),
    "pickled-objects": (_save_object_array, "allow_pickle=False"),
    "complex": (lambda path: np.save(path, np.load(path) + 0j), "complex128"),
    "2-d": (lambda path: np.save(path, np.load(path)[None, :]), "2-d"),
    "text": (lambda path: path.write_text("".join(f"{v!r}\n" for v in np.load(path).tolist())),
             "magic string"),
}


@pytest.mark.parametrize("name", ["b2_W.npy", "b2_gamma.npy"])
@pytest.mark.parametrize("fault", NPY_FAULTS)
@pytest.mark.parametrize("command", ["verify", "solve"])
def test_cli_malformed_npy_vector_is_one_line_error(tmp_path, command, fault, name):
    _write_general(tmp_path)
    out = tmp_path / "out"
    assert main(["reduce", "--matrix", str(tmp_path / "A.mtx"),
                 "--rhs", str(tmp_path / "b.vec"), "--out-dir", str(out)]) == 0
    edit, named = NPY_FAULTS[fault]
    edit(out / name)
    argv = (["verify", "--dir", str(out)] if command == "verify"
            else ["solve", "--manifest", str(out), "--out-dir", str(out)])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    message = _one_line_error(exc)
    assert name in message and named in message, message
    assert not (out / "x.vec").exists()


# an entry out of range as (file, value); it replaces the first nonzero entry
RANGE_FAULTS = {
    "nan-weight": ("b2_W.npy", np.nan), "negative-weight": ("b2_W.npy", -5.0),
    "inf-weight": ("b2_W.npy", np.inf), "nan-demand": ("b2_gamma.npy", np.nan),
    "inf-demand": ("b2_gamma.npy", np.inf), "minus-inf-demand": ("b2_gamma.npy", -np.inf),
}


@pytest.mark.parametrize("fault", RANGE_FAULTS)
@pytest.mark.parametrize("command", ["verify", "solve"])
def test_cli_weight_or_demand_out_of_range_is_one_line_error(tmp_path, capsys, command, fault):
    # on the 5x5 system, whose W holds real zeros, verify used to pass all
    # its checks with such a W, and the replay to print "ratio nan"
    _write_5x5(tmp_path)
    out = tmp_path / "out"
    assert main(["reduce", "--matrix", str(tmp_path / "A.mtx"),
                 "--rhs", str(tmp_path / "b.vec"), "--out-dir", str(out)]) == 0
    name, value = RANGE_FAULTS[fault]
    v = fileio.read_vector(out / name)
    assert name != "b2_W.npy" or np.count_nonzero(v == 0.0) > 0
    q = int(np.flatnonzero(v)[0])
    v[q] = value
    fileio.write_vector(out / name, v)
    capsys.readouterr()
    argv = (["verify", "--dir", str(out)] if command == "verify"
            else ["solve", "--manifest", str(out), "--out-dir", str(out)])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    message = _one_line_error(exc)
    assert name in message and f"at entry {q}" in message, message
    assert "must be finite" in message
    assert capsys.readouterr().out == ""


def test_cli_rhs_as_npy_matches_the_text_runs(tmp_path):
    # reduce and the direct solve read --rhs in either encoding to the same bits
    sys, _ = _write_general(tmp_path)
    fileio.write_vector(tmp_path / "b.npy", sys.b)
    for rhs in ("b.vec", "b.npy"):
        assert main(["reduce", "--matrix", str(tmp_path / "A.mtx"), "--rhs",
                     str(tmp_path / rhs), "--out-dir", str(tmp_path / f"reduce-{rhs}")]) == 0
        assert main(["solve", "--route", "direct", "--matrix", str(tmp_path / "A.mtx"),
                     "--rhs", str(tmp_path / rhs), "--out-dir",
                     str(tmp_path / f"direct-{rhs}")]) == 0
    for kind in ("reduce", "direct"):
        one, two = tmp_path / f"{kind}-b.vec", tmp_path / f"{kind}-b.npy"
        names = sorted(p.name for p in one.iterdir())
        assert names == sorted(p.name for p in two.iterdir())
        for name in names:
            assert (one / name).read_bytes() == (two / name).read_bytes(), (kind, name)


@pytest.mark.parametrize("command", ["verify", "solve"])
def test_cli_directory_with_text_weights_is_one_line_error(tmp_path, command):
    # a directory written while W and gamma were text holds b2_W.vec and
    # b2_gamma.vec; no reader falls back to them
    _write_general(tmp_path)
    out = tmp_path / "out"
    assert main(["reduce", "--matrix", str(tmp_path / "A.mtx"),
                 "--rhs", str(tmp_path / "b.vec"), "--out-dir", str(out)]) == 0
    for name in ("b2_W", "b2_gamma"):
        fileio.write_vector(out / f"{name}.vec", fileio.read_vector(out / f"{name}.npy"))
        (out / f"{name}.npy").unlink()
    argv = (["verify", "--dir", str(out)] if command == "verify"
            else ["solve", "--manifest", str(out), "--out-dir", str(out)])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert "b2_W.npy" in _one_line_error(exc)


def test_cli_binary_rhs_under_a_text_name_is_one_line_error(tmp_path):
    # only the suffix selects the encoding: .npy bytes named b.vec are text
    # that does not decode
    sys, _ = _write_general(tmp_path)
    fileio.write_vector(tmp_path / "b.npy", sys.b)
    (tmp_path / "b.vec").write_bytes((tmp_path / "b.npy").read_bytes())
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "--matrix", str(tmp_path / "A.mtx"), "--rhs", str(tmp_path / "b.vec"),
              "--out-dir", str(tmp_path / "out")])
    assert "b.vec is not a vector of numbers" in _one_line_error(exc)
