"""A seeded mutation guard for the artifact readers: every single-file edit
of a ``reduce`` directory makes ``verify`` and ``solve --manifest`` exit 0
or 1, or end in one ``error:`` line, and never in a traceback.  The same
holds for ``maxflow-demo`` on edited network JSON and for ``solve --route
direct`` on edited matrix and rhs files."""

import contextlib
import io
import json
import shutil

import numpy as np
import pytest

from lin2complex import fileio
from lin2complex.b2_reduce import reduce_da_to_b2
from lin2complex.cli import main
from lin2complex.da_reduce import difference_row, plain_da_system
from lin2complex.maxflow_ipm import FlowNetwork2, estimate_f_star

from _gen import three_per_row_system

SEED = 2646
COUNT = 400
TOKENS = (b"nan", b"1e400", b"-", b"12345678901234567890", b"\xff")


def _truncate(rng, data: bytes) -> bytes:
    return data[:int(rng.integers(0, len(data)))]


def _flip_bit(rng, data: bytes) -> bytes:
    out = bytearray(data)
    out[int(rng.integers(len(out)))] ^= 1 << int(rng.integers(8))
    return bytes(out)


def _change_digit(rng, data: bytes) -> bytes:
    digits = [i for i, c in enumerate(data) if 48 <= c <= 57]
    if not digits:
        return _flip_bit(rng, data)
    out = bytearray(data)
    i = digits[int(rng.integers(len(digits)))]
    out[i] = 48 + (out[i] - 48 + int(rng.integers(1, 10))) % 10
    return bytes(out)


def _insert_token(rng, data: bytes) -> bytes:
    i = int(rng.integers(len(data) + 1))
    return data[:i] + TOKENS[int(rng.integers(len(TOKENS)))] + data[i:]


BYTE_EDITS = (_truncate, _flip_bit, _change_digit, _insert_token)


def _edit_array(rng, a: np.ndarray) -> np.ndarray:
    """``a`` with one value changed, its dtype changed, or one entry more or
    fewer."""
    kind = int(rng.integers(3))
    if kind == 0 and a.size:
        a = a.copy()
        flat = a.reshape(-1)
        if a.dtype.kind == "f":
            flat[int(rng.integers(a.size))] = rng.choice([np.nan, -0.0, 1e300, -3.5])
        else:
            flat[int(rng.integers(a.size))] = rng.choice([-1, 0, 2 ** 31 - 1, 7])
        return a
    if kind == 1:
        dtype = ("<f8", "<i8", "<u1", "<f4", "<i2", "?")[int(rng.integers(6))]
        return a.astype(dtype)
    flat = a.reshape(-1)
    return flat[:-1] if rng.random() < 0.5 or not flat.size else np.append(flat, flat[-1])


def _edit_npz_member(rng, path) -> None:
    with np.load(path) as archive:
        members = {name: archive[name] for name in archive.files}
    name = sorted(members)[int(rng.integers(len(members)))]
    members[name] = _edit_array(rng, members[name])
    np.savez(path, **members)


def _edit_npy(rng, path) -> None:
    np.save(path, _edit_array(rng, np.load(path)))


def _mutate(rng, directory) -> str:
    """Apply one seeded edit to one file of ``directory``; returns its name
    and the edit's."""
    files = sorted(p for p in directory.iterdir() if p.is_file())
    path = files[int(rng.integers(len(files)))]
    structured = {".npz": _edit_npz_member, ".npy": _edit_npy}.get(path.suffix)
    if structured is not None and rng.random() < 0.5:
        structured(rng, path)
        return f"{path.name}: {structured.__name__}"
    edit = BYTE_EDITS[int(rng.integers(len(BYTE_EDITS)))]
    path.write_bytes(edit(rng, path.read_bytes()))
    return f"{path.name}: {edit.__name__}"


def _run(argv) -> str:
    """``main(argv)``'s outcome: "exit 0", "exit 1" or its ``error:`` line,
    raised, or printed as its only output before exit 2 (how ``solve``
    reports an input its solver refuses).  Anything else that it raises
    propagates and fails the test."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            rc = main(argv)
        except SystemExit as exc:
            message = str(exc.code)
            assert message.startswith("error:") and "\n" not in message, (argv, message)
            return message
    if rc == 2:
        lines = out.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (argv, lines)
        return lines[0]
    assert rc in (0, 1), (argv, rc)
    return f"exit {rc}"


def _outcome(argv, k: int, edit: str) -> str:
    """``_run(argv)``, with the mutation named in any other failure."""
    try:
        return _run(argv)
    except AssertionError:
        raise
    except Exception as exc:
        raise AssertionError(f"mutation {k} ({edit}) made {argv[0]} raise "
                             f"{type(exc).__name__}: {exc}") from exc


@pytest.fixture(scope="module")
def reduced(tmp_path_factory):
    base = tmp_path_factory.mktemp("source")
    system = three_per_row_system(3, 5)
    fileio.write_matrix(base / "A.mtx", system.A)
    fileio.write_vector(base / "b.vec", system.b)
    out = base / "reduced"
    assert main(["reduce", "--matrix", str(base / "A.mtx"), "--rhs", str(base / "b.vec"),
                 "--out-dir", str(out)]) == 0
    return out


def test_mutated_reduce_directories_end_in_one_line(reduced, tmp_path):
    rng = np.random.default_rng(SEED)
    outcomes = {}
    for k in range(COUNT):
        work = tmp_path / str(k)
        shutil.copytree(reduced, work)
        edit = _mutate(rng, work)
        for argv in (["verify", "--dir", str(work)],
                     ["solve", "--manifest", str(work), "--out-dir", str(work / "replay")]):
            outcome = _outcome(argv, k, edit)
            outcomes[outcome[:6]] = outcomes.get(outcome[:6], 0) + 1
        shutil.rmtree(work)
    # the corpus reaches every outcome, so none of them is vacuous
    assert set(outcomes) == {"exit 0", "exit 1", "error:"}, outcomes


# values a JSON edit writes in place of one entry: out of range, non-finite,
# of the wrong type, beyond int64, nested
JSON_VALUES = (float("nan"), float("inf"), -0.0, -1, 0, 1e300, 2 ** 70, 2.5, True,
               None, "7", [1, 2], {})


def _edit_json(rng, path) -> str:
    """One entry of the network JSON replaced by a ``JSON_VALUES`` value,
    one list shortened or lengthened by an entry, or one key dropped."""
    obj = json.loads(path.read_text())
    holders = [obj, obj["complex"]]
    holder = holders[int(rng.integers(2))]
    key = sorted(holder)[int(rng.integers(len(holder)))]
    kind = int(rng.integers(4))
    value = holder[key]
    if kind == 0:
        del holder[key]
    elif kind == 1 and isinstance(value, list) and value:
        holder[key] = value[:-1] if rng.random() < 0.5 else value + value[-1:]
    else:
        new = JSON_VALUES[int(rng.integers(len(JSON_VALUES)))]
        if isinstance(value, list) and value:
            value[int(rng.integers(len(value)))] = new
        else:
            holder[key] = new
    path.write_text(json.dumps(obj))
    return f"{path.name}: {key}"


@pytest.fixture(scope="module")
def network(tmp_path_factory):
    """The difference demo network's JSON, as ``scripts/run_maxflow_demo.py``
    writes it, f_star included."""
    problem = reduce_da_to_b2(plain_da_system(2, [difference_row(0, 1)]), np.array([1.0]))
    net = FlowNetwork2(problem.K, np.ones(problem.n_triangles), problem.gamma)
    path = tmp_path_factory.mktemp("network") / "net.json"
    fileio.write_json(path, {"complex": fileio.complex_to_json(problem.K),
                             "capacities": net.capacities.tolist(),
                             "gamma": net.gamma.tolist(), "f_star": estimate_f_star(net)})
    return path


def test_mutated_network_json_ends_in_one_line(network, tmp_path):
    rng = np.random.default_rng(SEED + 1)
    outcomes = {}
    for k in range(COUNT):
        path = tmp_path / "net.json"
        shutil.copyfile(network, path)
        if rng.random() < 0.5:
            edit = _edit_json(rng, path)
        else:
            byte_edit = BYTE_EDITS[int(rng.integers(len(BYTE_EDITS)))]
            path.write_bytes(byte_edit(rng, path.read_bytes()))
            edit = f"{path.name}: {byte_edit.__name__}"
        outcome = _outcome(["maxflow-demo", "--network", str(path), "--steps", "40"], k, edit)
        outcomes[outcome[:6]] = outcomes.get(outcome[:6], 0) + 1
    assert set(outcomes) == {"exit 0", "error:"}, outcomes


@pytest.fixture(scope="module")
def direct_inputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("direct")
    system = three_per_row_system(3, 5)
    fileio.write_matrix(base / "A.mtx", system.A)
    fileio.write_vector(base / "b.vec", system.b)
    return base


def test_mutated_direct_solve_inputs_end_in_one_line(direct_inputs, tmp_path):
    rng = np.random.default_rng(SEED + 2)
    outcomes = {}
    for k in range(COUNT):
        work = tmp_path / str(k)
        shutil.copytree(direct_inputs, work)
        edit = _mutate(rng, work)
        argv = ["solve", "--route", "direct", "--matrix", str(work / "A.mtx"),
                "--rhs", str(work / "b.vec"), "--out-dir", str(work / "out")]
        outcome = _outcome(argv, k, edit)
        outcomes[outcome[:6]] = outcomes.get(outcome[:6], 0) + 1
        shutil.rmtree(work)
    assert set(outcomes) == {"exit 0", "error:"}, outcomes
