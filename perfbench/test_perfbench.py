"""Tests of the benchmark's own arithmetic: tail percentiles and self time.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import percentile, roc_auc, tail_percentile  # noqa: E402
from tracing import covered, self_time_list, summarize  # noqa: E402


def test_percentile_matches_linear_interpolation():
    xs = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(xs, 50) == 3.0
    assert percentile(xs, 0) == 1.0
    assert percentile(xs, 100) == 5.0
    assert percentile(xs, 90) == pytest.approx(4.6)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile(list(range(100)), 90) == pytest.approx(89.1)
    with pytest.raises(ValueError, match="p90 needs 10 samples"):
        tail_percentile(list(range(99)), 90)
    assert tail_percentile(list(range(1000)), 99) == pytest.approx(989.01)
    with pytest.raises(ValueError):
        tail_percentile(list(range(999)), 99)
    # The median is not a tail: any non-empty sample has one.
    assert tail_percentile([7.0], 50) == 7.0


def test_covered_merges_overlapping_children_and_clips_to_parent():
    assert covered((0.0, 10.0), []) == 0.0
    assert covered((0.0, 10.0), [(1.0, 3.0), (2.0, 5.0)]) == 4.0
    assert covered((0.0, 10.0), [(6.0, 7.0), (1.0, 2.0)]) == 2.0
    assert covered((0.0, 10.0), [(-5.0, 1.0), (9.0, 15.0)]) == 2.0


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9]
    spans = [
        ["root", 0.0, 10.0, -1, "measure", 0],
        ["a", 1.0, 4.0, 0, "measure", 0],
        ["b", 2.0, 3.0, 1, "measure", 0],
        ["c", 5.0, 9.0, 0, "measure", 0],
    ]
    assert self_time_list(spans) == [3.0, 2.0, 1.0, 4.0]
    # Self times of a tree add up to the root's duration.
    assert sum(self_time_list(spans)) == 10.0


def test_summarize_groups_by_name_within_a_phase():
    spans = [
        ["x", 0.0, 2.0, -1, "setup", None],
        ["x", 3.0, 5.0, -1, "measure", 1],
        ["y", 3.5, 4.0, 1, "measure", 1],
        ["x", 6.0, 7.0, -1, "measure", 2],
    ]
    out = summarize(spans, "measure")
    assert out["x"] == {"calls": 2, "self_s": 2.5, "total_s": 3.0}
    assert out["y"] == {"calls": 1, "self_s": 0.5, "total_s": 0.5}


def test_roc_auc_rank_formula_with_ties():
    assert roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
    assert roc_auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0
    assert roc_auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5
    assert roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75
