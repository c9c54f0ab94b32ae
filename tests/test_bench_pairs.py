"""The statistics of scripts/bench_pairs.py, on canned result lines; no
benchmark runs here."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "wall_norm_s", "better": "lower", "bound": 0.25},
           {"name": "certified_ratio", "better": "higher", "bound": 0.1}]


def canned(wall: float, certified: float = 1.0) -> str:
    """The stdout of a run: comment lines, then the result object."""
    result = {"correct": True, "attempted": 8, "failed": 0,
              "metrics": {"wall_norm_s": {"value": wall, "unit": "s"},
                          "certified_ratio": {"value": certified, "unit": "1"}}}
    return f"# bench chain_corpus seed=1\n# wall_norm_s {wall}\n{json.dumps(result)}\n"


def pairs(parent, change):
    return [(bench_pairs.result_line(canned(p)), bench_pairs.result_line(canned(c)))
            for p, c in zip(parent, change)]


def test_seeds_parse_ranges_and_lists():
    assert bench_pairs.parse_seeds("101-104") == [101, 102, 103, 104]
    assert bench_pairs.parse_seeds("1-3,7,9") == [1, 2, 3, 7, 9]


def test_quartiles_are_inclusive():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([0.5]) == (0.5, 0.5, 0.5)


def test_clear_gain_holds():
    parent = [0.140, 0.134, 0.147, 0.139, 0.141, 0.136, 0.150, 0.138, 0.142, 0.135]
    change = [0.117, 0.115, 0.120, 0.118, 0.116, 0.119, 0.121, 0.114, 0.117, 0.118]
    s = bench_pairs.summarize(pairs(parent, change), METRICS)
    wall = s["wall_norm_s"]
    assert wall["wins"] == 10 and wall["pairs"] == 10 and wall["holds"]
    assert wall["parent"][1] == pytest.approx(0.1395)
    assert wall["change"][1] == pytest.approx(0.1175)
    # equal certified ratios win no pair, so no gain is shown there
    assert s["certified_ratio"]["wins"] == 0 and not s["certified_ratio"]["holds"]


def test_eight_wins_of_ten_do_not_hold():
    parent = [0.140] * 10
    change = [0.100] * 8 + [0.150] * 2
    wall = bench_pairs.judge(parent, change, "lower", 0.25)
    assert wall["wins"] == 8 and not wall["holds"] and not wall["regressed"]


def test_a_gain_inside_the_parent_spread_does_not_hold():
    # the change wins every pair, but by less than the parent's quartile spread
    parent = [0.10, 0.12, 0.14, 0.16, 0.18, 0.20, 0.22, 0.24, 0.26, 0.28]
    change = [p - 0.01 for p in parent]
    wall = bench_pairs.judge(parent, change, "lower", 0.25)
    assert wall["wins"] == 10 and wall["gain"] == pytest.approx(0.01)
    assert wall["spread"] == pytest.approx(0.09) and not wall["holds"]


def test_higher_is_better_counts_the_other_way():
    s = bench_pairs.judge([0.5] * 10, [0.9] * 10, "higher", 0.1)
    assert s["wins"] == 10 and s["holds"] and not s["regressed"]
    worse = bench_pairs.judge([0.9] * 10, [0.5] * 10, "higher", 0.1)
    assert worse["wins"] == 0 and worse["regressed"]


def test_a_worse_median_beyond_the_bound_is_flagged():
    # 20 % slower is inside a 25 % bound, 30 % slower is not
    assert not bench_pairs.judge([0.10] * 10, [0.12] * 10, "lower", 0.25)["regressed"]
    assert bench_pairs.judge([0.10] * 10, [0.13] * 10, "lower", 0.25)["regressed"]


def test_report_names_every_metric_and_the_verdict():
    text = bench_pairs.report(bench_pairs.summarize(pairs([0.2] * 10, [0.1] * 10), METRICS))
    assert "wall_norm_s" in text and "10/10" in text and "holds" in text
    assert "certified_ratio" in text and "does not hold" in text
    assert "EXCEEDED" not in text


def test_a_run_without_output_is_an_error():
    with pytest.raises(ValueError):
        bench_pairs.result_line("")
