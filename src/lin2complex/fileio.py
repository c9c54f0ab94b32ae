"""On-disk formats: Matrix Market matrices, vectors as ``.npy`` arrays or
plain text, JSON manifests and int32 archives of complexes.

The readers raise ``ArtifactError``, naming the file, when a file exists but
cannot be parsed."""

from __future__ import annotations

import csv
import io
import json
import zipfile
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import scipy.io

from .b2_reduce import BoundaryProblem, check_layout
from .complex2 import EDGE_KINDS, Complex2, ComplexStructureError
from .da_reduce import (
    CLASS_G,
    KIND_AVERAGE,
    KIND_DIFFERENCE,
    GeneralSystem,
    WeightedDASystem,
)
from .pipeline import ChainArtifacts, reduce_chain
from .sparse_core import DimensionError, SparseMatrix, refuse_non_finite


class ArtifactError(ValueError):
    """An input file that exists but cannot be parsed; the message names it."""


def write_matrix(path, A: SparseMatrix) -> None:
    """``A`` as Matrix Market with a ``general`` header, integer when it is
    integer-exact; a nan or infinite entry, which ``read_matrix`` refuses,
    is refused before the file is opened."""
    refuse_non_finite(f"the matrix for {path}", A.vals)
    scipy.io.mmwrite(str(path), A.to_int_csr() if A.integer_exact else A.to_csr(),
                     symmetry="general")


# the bytes a Matrix Market file may hold after its leading % lines
MATRIX_BODY_BYTES = b"0123456789+-.eE \t\n\r\v\f"


def read_matrix(path) -> SparseMatrix:
    """A Matrix Market file's real matrix; complex entries are refused, not
    cast.  After the leading ``%`` lines only ``MATRIX_BODY_BYTES`` may
    follow, so an entry such as ``3x``, ``nan`` or ``inf`` is refused."""
    data = Path(path).read_bytes()
    if not data.endswith(b"\n"):
        # scipy 1.17's reader crashes the process (SIGSEGV) on a last line
        # that holds anything after its last number and ends the file
        data += b"\n"
    body = 0
    while data.startswith(b"%", body):
        body = data.index(b"\n", body) + 1
    # scipy's reader drops what follows a number on its line: "1 1 3x" reads as 3
    foreign = data[body:].translate(None, MATRIX_BODY_BYTES)
    if foreign:
        raise ArtifactError(f"{path} is not a Matrix Market matrix: it holds "
                            f"{foreign[:1]!r} where only numbers and spaces belong")
    try:
        coo = scipy.io.mmread(io.BytesIO(data))
    except (ValueError, OverflowError) as exc:
        raise ArtifactError(f"{path} is not a Matrix Market matrix: {exc}") from None
    if np.iscomplexobj(coo):
        raise ArtifactError(f"{path} holds complex entries; a matrix file holds real ones")
    return SparseMatrix.from_scipy(coo)


NPY_SUFFIX = ".npy"  # a vector file named so is binary, any other is text


def write_vector(path, v) -> None:
    """A vector file, in the encoding its suffix names.

    A path ending in ``.npy`` holds a 1-D little-endian float64 array in
    NumPy's ``.npy`` format, written with ``allow_pickle=False``, so equal
    vectors give equal bytes and every bit reads back.  Any other path holds
    one entry a line, each the shortest text that reads back exactly:
    ``repr``, less the ".0" of an integral value."""
    v = np.asarray(v, dtype=np.float64).ravel()
    if str(path).endswith(NPY_SUFFIX):
        with open(path, "wb") as fh:
            np.lib.format.write_array(fh, v.astype("<f8", copy=False), allow_pickle=False)
        return
    with open(path, "w") as fh:
        fh.write("\n".join([repr(x).removesuffix(".0") for x in v.tolist()]) + "\n")


def read_vector(path) -> np.ndarray:
    """The float64 vector of a ``write_vector`` file, in the encoding its
    suffix names.  A ``.npy`` file is read by NumPy's ``.npy`` reader with
    ``allow_pickle=False`` (no zip or pickle dispatch, so anything that does
    not start with the ``.npy`` magic is refused as such) and must hold a
    1-D integer or float array.  A file that does not parse, or holds
    another array, raises ``ArtifactError`` naming it."""
    if str(path).endswith(NPY_SUFFIX):
        try:
            with open(path, "rb") as fh:
                a = np.lib.format.read_array(fh, allow_pickle=False)
        except ValueError as exc:
            raise ArtifactError(f"{path} is not a .npy array: {exc}") from None
        if a.ndim != 1 or a.dtype.kind not in "iuf":
            raise ArtifactError(f"{path} holds a {a.ndim}-d {a.dtype} array; a vector "
                                "file holds a 1-d array of integers or floats")
        return a.astype(np.float64, copy=False)
    try:
        with open(path) as fh:  # bytes that are not text raise UnicodeDecodeError
            tokens = fh.read().split()
        return np.array(tokens, dtype=np.float64)
    except ValueError as exc:
        raise ArtifactError(f"{path} is not a vector of numbers: {exc}") from None


def first_bit_difference(a: np.ndarray, b: np.ndarray) -> int | None:
    """The first entry where float64 vectors of one length differ bit for
    bit, or None; unlike ``!=``, it tells 0.0 from -0.0."""
    differ = np.flatnonzero(a.view(np.uint64) != b.view(np.uint64))
    return int(differ[0]) if differ.size else None


def write_ipm_trace(path, log) -> None:
    """The step log of ``maxflow_ipm.run_ipm`` as CSV, one row a half-step."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "kind", "alpha", "barrier", "residual"])
        for rec in log:
            writer.writerow([rec.step, rec.kind, f"{rec.alpha:.12g}",
                             f"{rec.barrier:.12g}", f"{rec.residual:.6e}"])


def write_json(path, obj, indent: int | None = 1) -> None:
    # json.dumps, unlike json.dump, runs the C encoder when indent is None
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, indent=indent, sort_keys=True) + "\n")


def read_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError for non-text bytes
            raise ArtifactError(f"{path} is not valid JSON: {exc}") from None


# -- difference-average systems ---------------------------------------------

# the optional numbers of a da.json row and their defaults; "kind", "i" and
# "j" are required, and "k" too in an average row
_DA_ROW_DEFAULTS = {"weight": 1.0, "rhs": 0.0, "scale": 1.0}


def da_system_to_json(sys: WeightedDASystem) -> dict:
    rows = [{"kind": KIND_AVERAGE if avg else KIND_DIFFERENCE, "i": i, "j": j,
             "k": k if avg else None, "weight": w, "scale": s, "rhs": r}
            for avg, (i, j, k), w, r, s in zip(sys.average.tolist(), sys.var.tolist(),
                                               sys.weight.tolist(), sys.rhs.tolist(),
                                               sys.scale.tolist())]
    return {"n_vars": sys.n_vars, "n_main": sys.n_main, "n_aux": sys.n_aux, "rows": rows}


# the rules of a da.json row, in the order they are checked
_DA_ROW_RULES = ("not an object", "no 'kind'", "no 'i'", "no 'j'", "unknown kind {!r}",
                 "an average row needs 'k'", "a variable id is not an integer",
                 "a variable id is outside int64", "a weight, rhs or scale is not a number",
                 "a weight, rhs or scale is outside float64")
_INT64 = range(-2 ** 63, 2 ** 63)
_FLOAT64_LIMIT = 2 ** 1024 - 2 ** 970  # the least integer that rounds past float64


def _da_columns(rows: list):
    """The columns (average, var, weight, rhs, scale) of da.json rows, one
    list per field, checked in one pass; raises ``ArtifactError`` naming the
    first bad row and the first of ``_DA_ROW_RULES`` it breaks."""
    objects = [isinstance(row, dict) for row in rows]
    rows = [row if ok else {} for row, ok in zip(rows, objects)]
    kind, i, j, k = ([row.get(name) for row in rows] for name in ("kind", "i", "j", "k"))
    numbers = [[row.get(name, default) for row in rows]
               for name, default in _DA_ROW_DEFAULTS.items()]
    average = [v == KIND_AVERAGE for v in kind]
    faults = np.array([
        [not ok for ok in objects],
        *([name not in row for row in rows] for name in ("kind", "i", "j")),
        [type(v) is not str or v not in (KIND_DIFFERENCE, KIND_AVERAGE) for v in kind],
        [avg and v is None for avg, v in zip(average, k)],
        [type(a) is not int or type(b) is not int or (c is not None and type(c) is not int)
         for a, b, c in zip(i, j, k)],
        [any(type(v) is int and v not in _INT64 for v in ids) for ids in zip(i, j, k)],
        [any(type(v) not in (int, float) for v in row) for row in zip(*numbers)],
        [any(type(v) is int and not -_FLOAT64_LIMIT < v < _FLOAT64_LIMIT for v in row)
         for row in zip(*numbers)],
    ], dtype=bool)
    bad = np.flatnonzero(faults.any(axis=0))
    if bad.size:
        q = int(bad[0])
        rule = _DA_ROW_RULES[int(np.argmax(faults[:, q]))]
        raise ArtifactError(f"row {q}: {rule.format(kind[q])}")
    var = np.array([i, j, [-1 if v is None else v for v in k]], dtype=np.int64).T
    return (average, var, *numbers)


def da_system_from_json(obj) -> WeightedDASystem:
    """The system of ``da_system_to_json``, its columns filled straight from
    the rows.  Raises ``ArtifactError`` naming the first bad row: a missing
    field, a non-integer or out-of-range id, an unknown kind, a non-positive
    weight or scale, a weight, scale or rhs that is not finite or lies
    outside float64, or an average row with a nonzero rhs."""
    sizes = [obj.get(name) if isinstance(obj, dict) else None
             for name in ("n_vars", "n_main", "n_aux")]
    rows = obj.get("rows") if isinstance(obj, dict) else None
    if any(type(v) is not int for v in sizes) or not isinstance(rows, list):
        raise ArtifactError("expected an object with integers 'n_vars', 'n_main' and "
                            "'n_aux' and a list 'rows'")
    try:
        return WeightedDASystem(sizes[0], *_da_columns(rows), *sizes[1:])
    except (ValueError, OverflowError) as exc:
        raise ArtifactError(str(exc)) from None


# -- complexes ----------------------------------------------------------------

# JSON field -> (table, Complex2 array, column, table or count bounding its ids);
# every field is a flat int list and the fields of one table share a length
COMPLEX_FIELDS = {
    **{f"tri_v{i}": ("tri", "tri", i, "vertex") for i in range(3)},
    "tri_group": ("tri", "tri_group", None, "tri"),
    "edge_tail": ("edge", "edge", 0, "vertex"), "edge_head": ("edge", "edge", 1, "vertex"),
    "edge_kind": ("edge", "kind", None, "kind"),
    **{f"loop_r{i + 1}": ("loop", "loops", i, "edge") for i in range(3)},
}


def _complex_columns(K: Complex2) -> dict[str, np.ndarray]:
    return {name: getattr(K, attr) if col is None else getattr(K, attr)[:, col]
            for name, (_, attr, col, _) in COMPLEX_FIELDS.items()}


def complex_to_json(K: Complex2) -> dict:
    """Columnar form of the complex: ``n_vertices`` and one flat int list per
    field of ``COMPLEX_FIELDS``."""
    return {"n_vertices": K.n_vertices,
            **{name: a.tolist() for name, a in _complex_columns(K).items()}}


def complex_from_json(obj) -> Complex2:
    """Read the columnar form, from a dict or any mapping of int arrays such
    as the members of a ``write_complex`` archive; rejects missing fields,
    fields of one table with different lengths and ids out of range, naming
    the field, and ignores other keys, such as the ``central``,
    ``edge_group``, ``edge_q`` and ``edge_r`` columns of older archives."""
    if not isinstance(obj, Mapping):
        raise ComplexStructureError(f"a complex is an object of flat int lists, "
                                    f"not a {type(obj).__name__}")
    cols = {}
    for name in ["n_vertices", *COMPLEX_FIELDS]:
        value = obj.get(name, "missing")  # an archive member that does not load raises
        try:
            a = np.asarray(value)
        except ValueError:  # a ragged nested list
            a = None
        if a is None or (a.size and a.dtype.kind not in "iu") or a.ndim != (name != "n_vertices"):
            raise ComplexStructureError(f"complex field {name!r} is missing or not a "
                                        f"flat int list")
        cols[name] = a.astype(np.int64)
    size = {"vertex": int(cols["n_vertices"]), "kind": len(EDGE_KINDS)}
    for name, (table, _, _, _) in COMPLEX_FIELDS.items():
        if cols[name].size != size.setdefault(table, cols[name].size):
            raise ComplexStructureError(f"complex field {name!r} has {cols[name].size} "
                                        f"entries, the other {table} fields {size[table]}")
    for name, (_, _, _, bound) in COMPLEX_FIELDS.items():
        a = cols[name]
        if a.size and (a.min() < 0 or a.max() >= size[bound]):
            raise ComplexStructureError(
                f"complex field {name!r} has an id outside [0, {size[bound]})")
    arrays: dict[str, list[np.ndarray]] = {}
    for name, (_, attr, _, _) in COMPLEX_FIELDS.items():
        arrays.setdefault(attr, []).append(cols[name])
    return Complex2(cols["n_vertices"], **{attr: np.stack(a, axis=1) if len(a) > 1 else a[0]
                                          for attr, a in arrays.items()})


# member dtype and timestamp of a complex archive; a fixed timestamp (the
# earliest a zip can hold) keeps the bytes independent of the clock
_ARCHIVE_DTYPE = np.dtype("<i4")
_ARCHIVE_DATE = (1980, 1, 1, 0, 0, 0)


def write_complex(path, K: Complex2) -> None:
    """The columns of ``complex_to_json`` as an uncompressed zip of
    little-endian int32 ``.npy`` members, ``n_vertices.npy`` and one per
    field of ``COMPLEX_FIELDS``; equal complexes give equal bytes.  Raises
    ``OverflowError``, writing nothing, when a value does not fit in int32."""
    columns = {"n_vertices": np.asarray(K.n_vertices), **_complex_columns(K)}
    limits = np.iinfo(_ARCHIVE_DTYPE)
    for name, a in columns.items():
        if a.size and (a.min() < limits.min or a.max() > limits.max):
            raise OverflowError(f"complex field {name!r} has a value outside int32; "
                                f"{path} is not written")
    with zipfile.ZipFile(path, "w") as archive:
        for name, a in columns.items():
            with archive.open(zipfile.ZipInfo(f"{name}.npy", _ARCHIVE_DATE), "w") as fh:
                np.lib.format.write_array(fh, a.astype(_ARCHIVE_DTYPE), allow_pickle=False)


def read_complex(path) -> Complex2:
    """Inverse of ``write_complex``, checked by ``complex_from_json``, which
    reads the members.  An archive that does not open or holds a member that
    does not load (pickled objects are refused) raises ``ArtifactError``; a
    missing or malformed field raises ``ComplexStructureError``.  Both name
    the file."""
    try:
        with open(path, "rb") as fh, np.lib.npyio.NpzFile(fh, allow_pickle=False) as members:
            return complex_from_json(members)
    except ComplexStructureError as exc:
        raise ComplexStructureError(f"{path}: {exc}") from None
    except (ValueError, zipfile.BadZipFile) as exc:
        raise ArtifactError(f"{path} is not an archive of int arrays: {exc}") from None


# -- boundary problems --------------------------------------------------------

# fixed names of the boundary-problem files, keyed as in manifest["files"]["b2"]
BOUNDARY_FILES = {"d2": "b2_d2.mtx", "weights": "b2_W.npy", "gamma": "b2_gamma.npy",
                  "complex": "b2_complex.npz", "da": "da.json"}


def write_boundary_problem(out_dir, problem: BoundaryProblem) -> None:
    """Write d2, W, gamma, the complex and the difference-average system as
    ``BOUNDARY_FILES``, each fact once: the rest of the problem is derived
    from these on read."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = BOUNDARY_FILES
    write_matrix(out_dir / names["d2"], problem.d2)
    write_vector(out_dir / names["weights"], problem.weights)
    write_vector(out_dir / names["gamma"], problem.gamma)
    write_complex(out_dir / names["complex"], problem.K)
    write_json(out_dir / names["da"], da_system_to_json(problem.da), indent=None)


def _read_instance(src: Path, n_edges: int, d2_name: str) -> dict[str, np.ndarray]:
    """W and gamma of ``src``: ``n_edges`` entries each, d2's rows, finite, W >= 0."""
    vectors = {}
    for key, what in (("weights", "finite and non-negative"), ("gamma", "finite")):
        path = src / BOUNDARY_FILES[key]
        v = vectors[key] = read_vector(path)
        if v.size != n_edges:
            raise DimensionError(f"{path} has {v.size} entries but {d2_name} has {n_edges} rows")
        bad = ~np.isfinite(v) | ((v < 0) & (key == "weights"))  # zero stays: W has real zeros
        if bad.any():
            q = int(np.argmax(bad))
            raise ArtifactError(f"{path} holds {v[q]:g} at entry {q}; its entries must be {what}")
    return vectors


def read_boundary_problem(src) -> BoundaryProblem:
    """Inverse of ``write_boundary_problem``; rejects a d2 entry other than
    +1 and -1, W or gamma as ``_read_instance`` does, a d2 whose column
    count is not the complex's triangle count, a malformed row of
    ``da.json`` (``da_system_from_json``) and a complex that is not laid out
    for that system (``b2_reduce.check_layout``), naming the files."""
    src = Path(src)
    names = BOUNDARY_FILES
    d2 = read_matrix(src / names["d2"])
    bad = d2.vals[np.abs(d2.vals) != 1.0]
    if bad.size:
        raise ArtifactError(f"{src / names['d2']} holds the entry {bad[0]:g}; "
                            "a boundary operator's entries are +1 and -1")
    vectors = _read_instance(src, d2.n_rows, names["d2"])
    K = read_complex(src / names["complex"])
    if d2.n_cols != K.n_triangles:
        raise ArtifactError(f"{src / names['d2']} has {d2.n_cols} columns but "
                            f"{src / names['complex']} has {K.n_triangles} triangles")
    da_path = src / names["da"]
    da_obj = read_json(da_path)
    try:
        da = da_system_from_json(da_obj)
    except ArtifactError as exc:
        raise ArtifactError(f"{da_path}: {exc}") from None
    try:
        check_layout(da, K)
    except ComplexStructureError as exc:
        raise ComplexStructureError(f"{src / names['complex']} and {names['da']}: {exc}") from None
    return BoundaryProblem(K=K, d2=d2, da=da, **vectors)


# -- reduction chains -----------------------------------------------------------

# fixed names of the original system's files, as in manifest["files"]["original"]
ORIGINAL_FILES = ("original_A.mtx", "original_b.vec")


def write_chain(out_dir, chain: ChainArtifacts) -> None:
    """Write the original system, the boundary problem and ``manifest.json``,
    which records the file names, eps and alpha.
    The stages in between are not written: ``read_chain`` re-derives them."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    a_name, b_name = ORIGINAL_FILES
    write_matrix(out_dir / a_name, chain.original.A)
    write_vector(out_dir / b_name, chain.original.b)
    write_boundary_problem(out_dir, chain.problem)
    write_json(out_dir / "manifest.json", {
        "eps": chain.eps,
        "files": {"original": list(ORIGINAL_FILES), "b2": BOUNDARY_FILES},
        "alpha": chain.alpha,
    })


def read_system(matrix_path, rhs_path) -> tuple[SparseMatrix, np.ndarray]:
    """The matrix and right-hand side of ``A x = b`` from their files;
    rejects a vector whose length differs from the row count of the matrix,
    naming both files."""
    A, b = read_matrix(matrix_path), read_vector(rhs_path)
    if b.size != A.n_rows:
        raise DimensionError(f"{rhs_path} has {b.size} entries "
                             f"but {matrix_path} has {A.n_rows} rows")
    return A, b


def _manifest_number(manifest, key: str, low: float, high: float, path) -> float:
    """``manifest[key]``, which must be a JSON number strictly between
    ``low`` and ``high``; raises ``ArtifactError`` naming ``path``."""
    value = manifest.get(key)
    if type(value) not in (int, float) or not low < value < high:
        raise ArtifactError(f"{path}: {key!r} must be a number in ({low:g}, {high:g}), "
                            f"got {value!r}")
    return value


def read_manifest(src) -> tuple[float, float]:
    """The eps and alpha of ``src / "manifest.json"``.  A manifest that is
    not an object, or whose eps is not a number in (0, 1) or alpha not a
    positive finite number, raises ``ArtifactError``; other keys, such as
    the accuracy targets older manifests hold, are ignored."""
    path = Path(src) / "manifest.json"
    manifest = read_json(path)
    if not isinstance(manifest, dict):
        raise ArtifactError(f"{path} is not a JSON object")
    return (_manifest_number(manifest, "eps", 0.0, 1.0, path),
            _manifest_number(manifest, "alpha", 0.0, np.inf, path))


def read_chain(src) -> ChainArtifacts:
    """Rebuild the chain that ``write_chain`` wrote to ``src``: the
    deterministic ``reduce_chain`` of the original system at the manifest's
    eps and alpha.  The stored W and gamma are checked as in
    ``read_boundary_problem`` and must then equal the rebuilt ones bit for
    bit; the first entry that differs raises ``ArtifactError`` naming its
    file and both values.  Opens ``manifest.json``, ``ORIGINAL_FILES`` and
    the two vectors only; an original outside class G raises
    ``MatrixClassError``."""
    src = Path(src)
    eps, alpha = read_manifest(src)
    a_name, b_name = ORIGINAL_FILES
    original = GeneralSystem(*read_system(src / a_name, src / b_name), CLASS_G)
    chain = reduce_chain(original, eps, alpha=alpha)
    P = chain.problem
    stored = _read_instance(src, P.n_edges, f"the d2 built from {a_name}")
    for key, rebuilt in (("weights", P.weights), ("gamma", P.gamma)):
        v = stored[key]
        e = first_bit_difference(v, rebuilt)
        if e is not None:
            raise ArtifactError(f"{src / BOUNDARY_FILES[key]} holds {float(v[e])!r} at entry "
                                f"{e}, but the chain rebuilt from {a_name} has "
                                f"{float(rebuilt[e])!r} there")
    return chain
