"""Runtime guards in the library must raise, so that they survive
``python -O``, which strips every ``assert`` statement."""

import ast
from pathlib import Path

import lin2complex

SRC = Path(lin2complex.__file__).parent


def test_library_has_no_assert_statements():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements vanish under python -O: {found}"


def _named_in_library(hidden, besides=()):
    """Where a library module whose file is not in ``besides`` defines,
    imports or names (as a name or an attribute, so also in a call) one of
    ``hidden``."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name in besides:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = ({node.id} if isinstance(node, ast.Name)
                     else {node.attr} if isinstance(node, ast.Attribute)
                     else {node.name} if isinstance(node, (ast.alias, ast.FunctionDef,
                                                           ast.ClassDef))
                     else set())
            found += [f"{path.name}:{getattr(node, 'lineno', '?')} {name}"
                      for name in names & hidden]
    return found


def test_only_sparse_core_decides_which_eigenvalues_are_zero():
    # every Gram spectrum goes through sparse_core.gram_spectrum, so the
    # zero test lives in one module
    found = _named_in_library({"ZERO_EIGENVALUE"}, besides=("sparse_core.py",))
    assert not found, f"only sparse_core may name these: {found}"


def test_only_sparse_core_calls_the_scipy_solvers():
    # every factorization, eigensolve and least-squares iteration goes through
    # sparse_core, so the SuperLU settings, LU_DELTA and GRAM_SHIFT live in
    # one module
    found = _named_in_library(
        {"splu", "spsolve", "factorized", "eigsh", "eigs", "svds", "lsqr", "lsmr"},
        besides=("sparse_core.py",))
    assert not found, f"only sparse_core may call scipy's solvers: {found}"


def test_only_the_record_modules_call_pattern_entries():
    # the difference-average system is stored as columns, which every module
    # reads whole; a per-row walk over DARow records is how the Python-level
    # constructions crept back in.  The walks, pattern_entries and da_rows,
    # live in tests/_gen.py, and no library module defines or names them
    found = _named_in_library({"pattern_entries", "da_rows"})
    assert not found, f"pattern_entries and da_rows walk the records: {found}"


def test_only_sparse_core_names_the_dense_svd():
    # spectral_summary is a dense reference for the tests and the benchmark's
    # tracer; no certificate reads it
    found = _named_in_library({"spectral_summary"}, besides=("sparse_core.py", "__init__.py"))
    assert not found, f"only sparse_core may name spectral_summary: {found}"


# the public library names that no other library definition names, each with
# what keeps it in src/; everything else a product path does not reach lives
# in tests/_gen.py
PINNED = {
    "reduce_reg": "bench/tracing.py wraps it; ROADMAP item 1 frees it",
    "triangle_adjacency": "bench/tracing.py wraps it; ROADMAP item 1 frees it",
    "projection_residual": "bench/tracing.py wraps it; ROADMAP item 1 frees it",
    "spectral_summary": "bench/tracing.py wraps it; ROADMAP item 1 frees it",
    "complex_to_json": "bench/tracing.py wraps it; scripts/run_maxflow_demo.py writes with it",
    "difference_row": "the README quick tour, bench/workloads.py and scripts/ call it",
    "average_row": "bench/workloads.py and scripts/ call it",
    "plain_da_system": "the README quick tour, bench/workloads.py and scripts/ call it",
    "reduce_da_to_b2": "the README quick tour, bench/workloads.py and scripts/ call it",
    "solve_general": "the README quick tour, bench/workloads.py and scripts/ call it",
}


def _public_definitions_and_names():
    """The public top-level functions and classes of the library modules, as
    {name: module}, and every name that the library's code other than its
    imports mentions, as a Name or an Attribute, less each definition's
    mentions of its own name."""
    defined, named = {}, set()
    for path in sorted(SRC.rglob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = stmt.name
                if not own.startswith("_"):
                    defined[own] = path.name
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != own:
                    named.add(name)
    return defined, named


def test_every_public_library_name_is_reached_or_pinned():
    # src/ holds what the product runs: a public function or class that no
    # other library code names is either pinned, with its reason, or lives
    # with the tests; methods and properties are not covered
    defined, named = _public_definitions_and_names()
    unreached = sorted(f"{module}:{name}" for name, module in defined.items()
                       if name not in named and name not in PINNED)
    assert not unreached, f"no library code names these; pin them or move them: {unreached}"
    stale = sorted(name for name in PINNED if name not in defined or name in named)
    assert not stale, f"PINNED entries that are gone or now named: {stale}"
    assert len(PINNED) <= 10
