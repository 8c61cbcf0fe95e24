"""The pure parts of ``tools/bench.py``: reading ``run.py``'s output, the
quartiles and the rule that says whether a change is better, within its
bound, unresolved or worse.  The benchmark itself is never run here."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_tool", ROOT / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench  # dataclasses look their module up by name
_spec.loader.exec_module(bench)

# The last two lines of a short qc_screen run, trimmed.
CANNED = """\
ready
{"meta": {"commit": "eab97b5", "goals": 4292, "nproc": 2, "python": "3.11.7", "seed": 3, "trace": 0, "workload": "qc_screen"}}
{"correct": true, "attempted": 4292, "failed": 0, "metrics": {"setup_s": {"value": 0.1985, "unit": "s"}, "goals_per_s": {"value": 1925.18, "unit": "1/s"}, "verdict_p50_ms": {"value": 0.1139, "unit": "ms"}, "verdict_tail_ms": {"value": 5.0765, "unit": "ms"}, "peak_rss_mb": {"value": 28.75, "unit": "MB"}}}
"""

GOALS = bench.Metric("goals_per_s", "higher", 0.25)
P50 = bench.Metric("verdict_p50_ms", "lower", 0.25)


def test_a_run_is_read_from_its_last_line():
    run = bench.parse_run(CANNED)
    assert run == bench.Run(
        correct=True,
        attempted=4292,
        failed=0,
        values={"setup_s": 0.1985, "goals_per_s": 1925.18, "verdict_p50_ms": 0.1139,
                "verdict_tail_ms": 5.0765, "peak_rss_mb": 28.75},
    )


def test_a_run_that_printed_nothing_is_refused():
    with pytest.raises(ValueError):
        bench.parse_run("\n")


CRASH = """\
Traceback (most recent call last):
  File "perfbench/run.py", line 612, in <module>
    main()
KeyError: 'goals'
"""
ARGS = ["python3", "perfbench/run.py", "--workload", "qc_screen", "--seed", "3"]


def _finished(returncode: int, stdout: str, stderr: str = "") -> subprocess.CompletedProcess:
    return subprocess.CompletedProcess(ARGS, returncode, stdout, stderr)


@pytest.mark.parametrize("returncode", [0, 1])
def test_a_finished_run_is_read_whether_or_not_its_checks_passed(returncode):
    assert bench.run_result(_finished(returncode, CANNED), Path("base")) == bench.parse_run(CANNED)


@pytest.mark.parametrize(
    "returncode, stdout, problem",
    [
        (1, "", "run.py printed nothing"),
        (1, "\n".join(CANNED.splitlines()[:2]), "last line is no result: {\"meta\""),
        (1, "ready\n", "last line is no result: ready"),
        (1, '{"correct": true, "metrics": []}', "last line is no result"),
        (2, CANNED, "no result read"),
        (-9, "ready\n", "no result read"),
    ],
    ids=["nothing", "meta_line_last", "not_json", "missing_keys", "usage_error", "killed"],
)
def test_a_run_with_no_result_reports_its_command_exit_code_and_stderr(returncode, stdout, problem):
    stderr = "".join(f"noise {i}\n" for i in range(40)) + CRASH
    with pytest.raises(RuntimeError) as caught:
        bench.run_result(_finished(returncode, stdout, stderr), Path("base"))
    message = str(caught.value)
    head, _, tail = message.partition("\n")
    assert head.startswith(f"{' '.join(ARGS)} in base exited {returncode}: ")
    assert problem in head
    assert tail.splitlines() == stderr.splitlines()[-bench.STDERR_TAIL:]
    assert tail.endswith("KeyError: 'goals'")


def test_the_metrics_come_from_the_benchmark_file():
    metrics = bench.load_metrics(json.loads((ROOT / "BENCHMARK.json").read_text()))
    assert [m.name for m in metrics] == ["setup_s", "goals_per_s", "verdict_p50_ms",
                                         "verdict_tail_ms", "peak_rss_mb"]
    assert {m.name: m.better for m in metrics}["goals_per_s"] == "higher"
    assert all(m.bound > 0 for m in metrics)


@pytest.mark.parametrize(
    "values, expected",
    [
        ([5.0], (5.0, 5.0, 5.0)),
        ([1.0, 2.0, 3.0, 4.0, 5.0], (2.0, 3.0, 4.0)),
        ([4.0, 1.0, 3.0, 2.0], (1.75, 2.5, 3.25)),
    ],
)
def test_quartiles(values, expected):
    assert bench.quartiles(values) == pytest.approx(expected)


BASE = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]  # IQR 1.5


def test_better_in_nine_of_ten_pairs_with_medians_apart_is_better():
    head = [b + 5.0 for b in BASE]
    head[3] = 90.0
    verdict = bench.judge(GOALS, BASE, head)
    assert (verdict.wins, verdict.pairs, verdict.verdict) == (9, 10, "better")
    assert verdict.base_iqr == pytest.approx(1.5)


def test_better_in_eight_of_ten_pairs_is_no_claim():
    head = [b + 5.0 for b in BASE]
    head[3] = head[4] = 90.0
    verdict = bench.judge(GOALS, BASE, head)
    assert (verdict.wins, verdict.verdict) == (8, "within bound")


def test_medians_closer_than_the_base_iqr_are_no_claim():
    head = [b + 1.0 for b in BASE]
    verdict = bench.judge(GOALS, BASE, head)
    assert (verdict.wins, verdict.verdict) == (10, "within bound")


def test_ties_count_for_neither_side():
    head = [b + 5.0 for b in BASE]
    head[0] = BASE[0]
    assert bench.judge(GOALS, BASE, head).wins == 9


def test_a_lower_is_better_metric_wins_by_falling():
    assert bench.judge(P50, BASE, [b - 5.0 for b in BASE]).verdict == "better"
    assert bench.judge(P50, BASE, [b + 5.0 for b in BASE]).wins == 0


@pytest.mark.parametrize("metric, head_shift, verdict", [
    (GOALS, -26.0, "WORSE"),
    (GOALS, -24.0, "within bound"),
    (P50, 26.0, "WORSE"),
    (P50, 24.0, "within bound"),
])
def test_a_median_worse_than_the_bound_is_worse(metric, head_shift, verdict):
    assert bench.judge(metric, BASE, [b + head_shift for b in BASE]).verdict == verdict


def test_unpaired_samples_are_refused():
    with pytest.raises(ValueError):
        bench.judge(GOALS, BASE, BASE[:-1])


def test_a_wide_base_iqr_leaves_a_metric_within_its_bound_unresolved():
    rss = bench.Metric("peak_rss_mb", "lower", 0.1)
    base = [40.0, 42.0, 44.0, 46.0, 48.0, 50.0, 52.0, 54.0, 56.0, 58.0]  # IQR 9 > 4.9
    verdict = bench.judge(rss, base, [b + 1.0 for b in base])
    assert (verdict.base_iqr, verdict.verdict) == (pytest.approx(9.0), "unresolved")
    assert bench.judge(rss, base, [b + 5.0 for b in base]).verdict == "WORSE"


def test_a_wide_base_iqr_is_resolved_when_every_head_run_beats_every_base_run():
    rss = bench.Metric("peak_rss_mb", "lower", 0.1)
    base = [40.0, 42.0, 44.0, 46.0, 48.0, 50.0, 52.0, 54.0, 56.0, 58.0]
    head = [39.0] * 10
    assert bench.judge(rss, base, head).verdict == "better"
    assert bench.judge(rss, base, head, claimable=False).verdict == "within bound"


def test_a_gain_is_not_claimable_from_runs_that_say_so():
    head = [b + 5.0 for b in BASE]
    assert bench.judge(GOALS, BASE, head, claimable=False).verdict == "within bound"


def _run(correct=True, attempted=1000, failed=0, goals=100.0):
    return bench.Run(correct, attempted, failed, {"goals_per_s": goals})


@pytest.mark.parametrize("base, head, claimable", [
    ([_run()] * 2, [_run()] * 2, True),
    ([_run(failed=10)] * 2, [_run(attempted=2000, failed=20)] * 2, True),  # same share
    ([_run()] * 2, [_run(), _run(correct=False)], False),
    ([_run(correct=False), _run()], [_run()] * 2, False),
    ([_run(failed=10)] * 2, [_run(attempted=2000, failed=21)] * 2, False),
])
def test_a_gain_is_claimable_only_from_correct_runs_that_fail_no_more(base, head, claimable):
    assert bench.can_claim(base, head) is claimable


def test_the_table_has_a_row_per_metric():
    run = bench.parse_run(CANNED)
    table = bench.format_table("qc_screen", [GOALS, P50], [run] * 3, [run] * 3)
    lines = table.splitlines()
    assert lines[0] == "qc_screen: 3 pairs; correct 3/3 base, 3/3 head; failed 0/12876 base, 0/12876 head"
    assert lines[3] == "| goals_per_s | 1925 | 1925 | +0.0 % | 0 | 0/3 | within bound |"
    assert len(lines) == 5


def test_a_table_with_a_failing_head_run_calls_nothing_better():
    base = [_run(goals=100.0 + i % 2) for i in range(10)]
    head = [_run(goals=150.0) for _ in range(9)] + [_run(correct=False, failed=3, goals=150.0)]
    lines = bench.format_table("qc_screen", [GOALS], base, head).splitlines()
    assert lines[0] == ("qc_screen: 10 pairs; correct 10/10 base, 9/10 head; failed 0/10000 base, "
                        "3/10000 head; no metric can be called better")
    assert lines[3] == "| goals_per_s | 100.5 | 150 | +49.3 % | 1 | 10/10 | within bound |"
    head[-1] = _run(goals=150.0)
    assert bench.format_table("qc_screen", [GOALS], base, head).splitlines()[3].endswith("| better |")
