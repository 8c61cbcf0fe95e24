"""Tests for the benchmark's own helpers.

    python -m pytest perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import goalgen  # noqa: E402
import hostspeed  # noqa: E402
from oracle import witness_falsifies  # noqa: E402
from provekit.evaluator import Domain  # noqa: E402
from provekit.lang import parse_goal, print_goal  # noqa: E402
from stats import Span, covered, nearest_rank, self_times, tail  # noqa: E402


def test_tail_is_the_highest_rung_with_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 1001)]
    t = tail(samples)
    # p99.9 would leave 1 sample beyond it; p99 leaves 10.
    assert (t.value, t.percentile, t.beyond, t.samples) == (990.0, 99.0, 10, 1000)
    t = tail(samples[:999])
    # 999 samples: p99 ranks 990th and leaves 9, so the tail falls to p90.
    assert (t.value, t.percentile, t.beyond) == (900.0, 90.0, 99)
    assert sum(1 for s in samples[:999] if s > t.value) == t.beyond


def test_tail_with_few_samples_reports_the_maximum():
    t = tail([3.0, 1.0, 2.0])
    assert (t.value, t.percentile, t.beyond, t.samples) == (3.0, 100.0, 0, 3)


def test_nearest_rank():
    assert nearest_rank([5.0, 1.0, 3.0], 0.5) == 3.0
    assert nearest_rank([1.0, 2.0, 3.0, 4.0], 0.9) == 4.0
    assert nearest_rank([], 0.5) == 0.0


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered([(-1, 2), (9, 12)], 0, 10) == 3


def test_self_time_from_a_span_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping, as on
    # fan-out threads) and c [8, 9]; a has a grandchild [2, 3].
    spans = [
        Span(1, None, "root", 0.0, 10.0),
        Span(2, 1, "a", 1.0, 4.0),
        Span(3, 1, "b", 3.0, 6.0),
        Span(4, 1, "c", 8.0, 9.0),
        Span(5, 2, "leaf", 2.0, 3.0),
    ]
    own = self_times(spans)
    assert own[1] == 10.0 - 5.0 - 1.0
    assert own[2] == 2.0
    assert own[3] == 3.0
    assert own[5] == 1.0


def test_naive_oracle_refutes_a_known_false_goal():
    domain = Domain()
    goal = parse_goal("goal too_strong (x: Int) := x < 3")
    assert witness_falsifies(goal, {"x": 46}, domain)
    assert not witness_falsifies(goal, {"x": 2}, domain)
    # A witness for the wrong binders refutes nothing.
    assert not witness_falsifies(goal, {"y": 46}, domain)


def test_naive_oracle_counts_errors_and_quantifiers():
    domain = Domain()
    crash = parse_goal("goal crash (x: Int) := x % 0 = 0")
    assert witness_falsifies(crash, {"x": 1}, domain)
    exists = parse_goal("goal ex (l: IntList) := exists w: Int, w in l")
    assert witness_falsifies(exists, {"l": []}, domain)
    assert not witness_falsifies(exists, {"l": [1]}, domain)


def test_generated_goals_print_and_parse_back_exactly():
    for seed in range(300):
        tree = goalgen.random_goal(seed, f"g{seed}", depth=2 + seed % 3)
        assert parse_goal(print_goal(tree)) == tree
    wide = goalgen.wide_conjunction_goal("w0", 6)
    assert parse_goal(print_goal(wide)) == wide


def test_streams_repeat_for_a_seed_and_differ_between_seeds():
    domain = Domain(node_budget=50_000)

    def keep(tree):
        return goalgen.decide_size(tree, domain) <= domain.node_budget

    def first(seed):
        stream = goalgen.mixed_stream(
            "t", seed, depth=3, wide=6, keep=keep, wide_seed=0, ratio=(4, 1)
        )
        return [next(stream) for _ in range(10)]

    assert first(1) == first(1)
    assert [g.text for g in first(1)] != [g.text for g in first(2)]
    # The wide conjunctions are the same goals with the same search seeds.
    assert first(1)[4] == first(2)[4]
    assert first(1)[4].text.startswith("goal w0 ")


def test_decide_size_multiplies_carriers():
    domain = Domain()
    goal = parse_goal("goal q (x: Int) := forall q: Int, q = x")
    # 11 points for x, each visiting the quantifier plus 11 bodies of 3 nodes.
    assert goalgen.decide_size(goal, domain) == 11 * (1 + 11 * 3)


def test_host_clock_interpolates_the_readings_around_each_goal(monkeypatch):
    readings = iter([1.0, 3.0, 2.0])
    monkeypatch.setattr(hostspeed, "kernel_seconds", lambda: next(readings))
    monkeypatch.setattr(hostspeed, "REF_KERNEL_S", 2.0)
    clock = hostspeed.HostClock(every_s=0.5)
    clock.start()
    for done, goal_s in enumerate([0.1, 0.1, 0.8, 0.9], start=1):
        clock.tick(done, goal_s)  # reads after goal 3 (1.0 s) and goal 4 (0.9 s)
    clock.finish(4)  # already read after the last goal
    assert clock.marks == [(0, 1.0), (3, 3.0), (4, 2.0)]
    # Goal midpoints at 0.05, 0.15 and 0.6 of the first second; goal 4 is
    # alone between its readings and takes their mean.
    kernel = [1.0 + 2.0 * 0.05, 1.0 + 2.0 * 0.15, 1.0 + 2.0 * 0.6, 2.5]
    assert clock.scales() == pytest.approx([2.0 / k for k in kernel])
