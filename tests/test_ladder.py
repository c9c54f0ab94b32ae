"""scripts/ladder.py on its smallest rung; the checked-in ladder
(BENCH_ladder.json) runs rungs of 24.7k to 791k triangles, which tier-1
leaves out."""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ladder.py"
spec = importlib.util.spec_from_file_location("ladder", SCRIPT)
ladder = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ladder)

FIELDS = {"n", "nnz", "triangles", "edges", "t_per_nnz", "stages_s", "build_s", "weights_s",
          "validate_s", "exact_checks_s", "build_peak_mb", "weights_peak_mb", "validate_peak_mb",
          "write_s", "read_s", "verify_peak_mb", "solve_s",
          "method", "fill", "ratio", "true_ratio", "certified", "max_weight", "peak_rss_mb"}


def test_ladder_prints_one_line_a_rung_with_every_field():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert ladder.main(["--rungs", "6"]) == 0
    lines = out.getvalue().splitlines()
    assert len(lines) == 1
    rung = json.loads(lines[0])
    assert set(rung) == FIELDS
    assert rung["n"] == 6 and rung["nnz"] == 18
    assert rung["triangles"] > 0 and rung["edges"] > rung["triangles"]
    assert abs(rung["t_per_nnz"] - rung["triangles"] / rung["nnz"]) < 0.01
    for name in ("stages_s", "build_s", "weights_s", "validate_s", "exact_checks_s", "write_s",
                 "read_s", "solve_s"):
        assert 0.0 < rung[name] < 60.0
    assert 0.0 < rung["build_peak_mb"] and 0.0 < rung["weights_peak_mb"]
    assert 0.0 < rung["validate_peak_mb"] < rung["verify_peak_mb"]
    assert rung["peak_rss_mb"] > rung["validate_peak_mb"]
    assert rung["certified"] and rung["method"] in ("lu", "lu_colamd") and rung["fill"] > 0
    assert rung["ratio"] <= 1e-3 and rung["true_ratio"] <= 1e-3
    assert rung["max_weight"] > 1.0
