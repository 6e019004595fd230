"""The summary that bench/record.py writes, on synthetic run lines."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parent.parent / "bench" / "record.py"
)
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.2},
]


def _line(wall, rss, failed=0):
    return {
        "correct": failed == 0,
        "attempted": 6,
        "failed": failed,
        "metrics": {
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        },
    }


def _pairs(parent_walls, change_walls, rss=(30.0, 30.0), failed=0):
    return [
        {
            "seed": k + 1,
            "first": "parent" if k % 2 == 0 else "change",
            "parent": _line(p, rss[0]),
            "change": _line(c, rss[1], failed if k == 0 else 0),
        }
        for k, (p, c) in enumerate(zip(parent_walls, change_walls))
    ]


def test_summary_medians_spread_and_gain():
    """A change faster in every pair shows a gain; equal memory is within bound, no gain."""
    parent = [2.0 + 0.01 * k for k in range(10)]
    change = [1.5 + 0.01 * k for k in range(10)]
    out = record.summarise(_pairs(parent, change), END_TO_END)
    wall = out["metrics"]["wall_s"]
    assert wall["parent_median"] == pytest.approx(2.045)
    assert wall["change_median"] == pytest.approx(1.545)
    # statistics.quantiles default method: positions 2.75 and 8.25 of 10
    assert wall["parent_q1"] == pytest.approx(2.0175)
    assert wall["parent_q3"] == pytest.approx(2.0725)
    assert wall["parent_iqr_over_median"] == pytest.approx(0.055 / 2.045)
    assert wall["change_wins"] == 10
    assert wall["within_bound"] and wall["gain_shown"]
    rss = out["metrics"]["peak_rss_mb"]
    assert rss["change_wins"] == 0 and rss["within_bound"] and not rss["gain_shown"]
    assert out["pairs"] == 10 and out["all_correct"]
    assert [r["first"] for r in out["runs"][:2]] == ["parent", "change"]
    assert out["runs"][0]["change"] == {
        "correct": True,
        "attempted": 6,
        "failed": 0,
        "metrics": {"wall_s": 1.5, "peak_rss_mb": 30.0},
    }


def test_summary_flags_regressions_losses_and_failures():
    """Eight wins of ten is no gain, a 30% slower median breaks a 25% bound, a failure shows."""
    parent = [1.0] * 10
    change = [0.5] * 8 + [1.2, 1.2]
    out = record.summarise(_pairs(parent, change, rss=(30.0, 39.0), failed=1), END_TO_END)
    wall = out["metrics"]["wall_s"]
    assert wall["change_wins"] == 8 and not wall["gain_shown"]
    rss = out["metrics"]["peak_rss_mb"]
    assert rss["change_median"] == 39.0 and not rss["within_bound"]
    assert not out["all_correct"]
    assert out["runs"][0]["change"]["failed"] == 1


def test_summary_marks_unresolved_metrics():
    """A parent spread over the bound leaves a metric unresolved unless every change run wins."""
    parent = [1.0, 2.0] * 5  # quartiles 1.0 and 2.0, median 1.5
    out = record.summarise(_pairs(parent, [1.4] * 10), END_TO_END)
    wall = out["metrics"]["wall_s"]
    assert wall["parent_iqr_over_median"] == pytest.approx(1 / 1.5)
    assert wall["change_wins"] == 5 and wall["within_bound"] and wall["unresolved"]
    assert not out["metrics"]["peak_rss_mb"]["unresolved"]  # no parent spread
    wall = record.summarise(_pairs(parent, [0.9] * 10), END_TO_END)["metrics"]["wall_s"]
    assert wall["change_wins"] == 10 and not wall["unresolved"]


def test_src_lines_totals_the_package_modules(tmp_path):
    """src_lines counts newlines of src/graphtrop/*.py only, as `wc -l` does."""
    pkg = tmp_path / "src" / "graphtrop"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text("x = 1\ny = 2\n")
    (pkg / "b.py").write_text("z = 3\nno final newline")
    (pkg / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "src" / "other.py").write_text("not counted\n")
    assert record.src_lines(tmp_path) == 3


def test_flags_name_unresolved_out_of_bound_and_gained_metrics():
    """flags lists workload/metric for each unresolved, out-of-bound and gained metric."""
    gained = record.summarise(_pairs([2.0 + 0.01 * k for k in range(10)], [1.5] * 10), END_TO_END)
    worse = record.summarise(_pairs([1.0] * 10, [1.0] * 10, rss=(30.0, 39.0)), END_TO_END)
    spread = record.summarise(_pairs([1.0, 2.0] * 5, [1.4] * 10), END_TO_END)
    out = record.flags({"fast": gained, "fat": worse, "noisy": spread})
    assert out == {
        "unresolved": ["noisy/wall_s"],
        "not_within_bound": ["fat/peak_rss_mb"],
        "gain_shown": ["fast/wall_s"],
    }
    assert record.flags({"fat": worse})["gain_shown"] == []
