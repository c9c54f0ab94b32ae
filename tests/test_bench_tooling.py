"""The benchmark's tracer names library functions by string; a rename in the
library must fail here rather than break a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{function}" for module, function, _, _ in tracing.INSTRUMENTS
               if not callable(getattr(importlib.import_module(f"lin2complex.{module}"),
                                       function, None))]
    assert not missing, missing
