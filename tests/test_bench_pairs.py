"""``tools/bench_pairs.py``'s summary of paired benchmark runs, on canned
result lines."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BETTER = {"items_per_s": "higher", "item_ms_p50": "lower", "ratio_mean": "lower"}


def line(items_per_s, p50, ratio=2.5, failed=0, attempted=100):
    """One run's last line, as ``perfbench/run.py --trace 0`` prints it."""
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "items_per_s": {"value": items_per_s, "unit": "1/s"},
            "item_ms_p50": {"value": p50, "unit": "ms"},
            "ratio_mean": {"value": ratio, "unit": "ratio"},
        },
    }


def test_summary_of_ten_pairs():
    parent = [line(100.0 + i, 4.0 + i / 10) for i in range(10)]
    # the change is faster on every pair but the last, where it ties
    change = [line(120.0 + i, 3.5 + i / 10) for i in range(9)] + [line(109.0, 4.9)]
    summary = bench_pairs.summarize(parent, change, BETTER)
    assert summary["pairs"] == 10
    assert summary["correct"] is True
    assert summary["failed"] == {"parent": 0, "change": 0}
    assert summary["attempted"] == {"parent": 1000, "change": 1000}
    ips = summary["items_per_s"]
    assert ips["parent"] == {"q1": 102.25, "median": 104.5, "q3": 106.75}
    assert ips["change"] == {"q1": 121.25, "median": 123.5, "q3": 125.75}
    assert ips["change_wins"] == 9
    assert ips["parent_iqr"] == 4.5
    assert ips["relative_change"] == round(123.5 / 104.5 - 1, 4)
    assert ips["gain_shown"] is True
    p50 = summary["item_ms_p50"]
    assert p50["change_wins"] == 9  # lower is better; the last pair ties
    assert p50["gain_shown"] is True
    # equal values win for neither side, and show no gain
    ratio = summary["ratio_mean"]
    assert ratio["change_wins"] == 0
    assert ratio["relative_change"] == 0.0
    assert ratio["gain_shown"] is False


def test_a_gain_inside_the_parents_spread_is_not_shown():
    parent = [line(v, 4.0) for v in (90.0, 110.0, 95.0, 105.0)]
    change = [line(v + 1.0, 4.0) for v in (90.0, 110.0, 95.0, 105.0)]
    summary = bench_pairs.summarize(parent, change, BETTER)
    ips = summary["items_per_s"]
    assert ips["change_wins"] == 4
    assert ips["parent_iqr"] > 1.0
    assert ips["gain_shown"] is False


def test_failures_and_a_single_pair():
    summary = bench_pairs.summarize(
        [line(100.0, 4.0)], [line(90.0, 4.5, failed=2)], BETTER
    )
    assert summary["correct"] is False
    assert summary["failed"] == {"parent": 0, "change": 2}
    assert summary["items_per_s"]["parent"] == {"q1": 100.0, "median": 100.0, "q3": 100.0}
    assert summary["items_per_s"]["change_wins"] == 0


def test_unpaired_runs_are_refused():
    with pytest.raises(ValueError, match="same positive number"):
        bench_pairs.summarize([line(1.0, 1.0)], [], BETTER)
    with pytest.raises(ValueError, match="same positive number"):
        bench_pairs.summarize([], [], BETTER)
