"""Trace analytics: ranking quality, pass@k curves, budget counterfactuals."""

from __future__ import annotations

import csv
import functools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provekit.analytics import (
    auroc,
    best_root_score,
    completion_sweeps_needed,
    ensure_uniform_configs,
    pass_at_k_curve,
    proof_stats,
    proved,
    reduction_rate_curve,
    run_end,
    run_success_rate,
    score_label_pairs,
    success_vs_iterations,
    unbiased_pass_at_k,
    write_csv,
)
from corpus import forged_json
from provekit.errors import ContractViolation, MixedConfigError, ProvekitError, UndefinedMetric
from provekit.evaluator import Domain
from provekit.lang import parse_goal
from provekit.prover import BuiltinChecker, ConjunctionSplitter, DirectSubmit
from provekit.quickcheck import QcConfig
from provekit.search import SearchConfig, run_single
from provekit.trace import RunTrace, parse_trace

BASE_CONFIG = {"seed": 0, "decompose_iters": 8, "complete_iters": 3}


def make_trace(problem="p", run_index=0, seed=0, config=None, events=()):
    header = {
        "type": "config",
        "format_version": 1,
        "run_id": f"{problem}.r{run_index}.s{seed}",
        "problem": problem,
        "run_index": run_index,
        "seed": seed,
        "config": dict(BASE_CONFIG) if config is None else config,
    }
    trace = RunTrace(header=header)
    for event_type, fields in events:
        trace.emit(event_type, **fields)
    return trace


def ended(outcome, **extra):
    fields = {
        "outcome": outcome,
        "decompose_iterations": 0,
        "complete_iterations": 0,
        "lemma_count": 0,
    }
    fields.update(extra)
    return ("run_end", fields)


# -- auroc -------------------------------------------------------------------


def test_auroc_worked_example():
    scores = [0.1, 0.4, 0.35, 0.8]
    labels = [False, False, True, True]
    assert auroc(scores, labels) == pytest.approx(0.75, abs=1e-15)


def test_auroc_ties_credit_half():
    assert auroc([1.0, 1.0], [True, False]) == pytest.approx(0.5)
    # positives {1, 2}, negatives {0, 1}: three clean wins and one tie.
    assert auroc([0.0, 1.0, 1.0, 2.0], [False, True, False, True]) == pytest.approx(
        3.5 / 4.0, abs=1e-15
    )


def test_auroc_matches_pairwise_oracle():
    # Independent recomputation: count positive-negative pairs directly.
    rng = random.Random(11)
    scores = [rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]) for _ in range(60)]
    labels = [rng.random() < 0.4 for _ in range(60)]
    labels[0], labels[1] = True, False  # both classes present

    wins = 0.0
    pairs = 0
    for i, li in enumerate(labels):
        if not li:
            continue
        for j, lj in enumerate(labels):
            if lj:
                continue
            pairs += 1
            if scores[i] > scores[j]:
                wins += 1.0
            elif scores[i] == scores[j]:
                wins += 0.5
    assert auroc(scores, labels) == pytest.approx(wins / pairs, abs=1e-12)


def test_auroc_invariant_under_monotone_transforms():
    rng = random.Random(3)
    scores = [rng.uniform(0, 1) for _ in range(30)]
    labels = [rng.random() < 0.5 for _ in range(30)]
    labels[0], labels[1] = True, False
    base = auroc(scores, labels)
    assert auroc([math.exp(s) for s in scores], labels) == base
    assert auroc([10 * s - 4 for s in scores], labels) == base


def test_auroc_label_swap_complements():
    rng = random.Random(5)
    scores = [rng.choice([0.1, 0.2, 0.2, 0.9]) for _ in range(40)]
    labels = [rng.random() < 0.5 for _ in range(40)]
    labels[0], labels[1] = True, False
    flipped = [not label for label in labels]
    assert auroc(scores, flipped) == pytest.approx(1.0 - auroc(scores, labels), abs=1e-12)


def test_auroc_degenerate_labels_are_undefined():
    with pytest.raises(UndefinedMetric):
        auroc([0.1, 0.2], [True, True])
    with pytest.raises(UndefinedMetric):
        auroc([0.1, 0.2], [False, False])
    with pytest.raises(ContractViolation):
        auroc([0.1], [True, False])


# -- unbiased pass@k ------------------------------------------------------------


def test_unbiased_pass_at_k_unit_values():
    assert unbiased_pass_at_k(8, 2, 4) == pytest.approx(55 / 70, abs=1e-15)
    assert unbiased_pass_at_k(8, 0, 4) == 0.0
    assert unbiased_pass_at_k(8, 8, 4) == 1.0  # c = n
    assert unbiased_pass_at_k(8, 5, 4) == 1.0  # n - c < k
    assert unbiased_pass_at_k(5, 1, 1) == pytest.approx(1 / 5, abs=1e-15)


def test_unbiased_pass_at_k_never_falls_with_k():
    for c in range(9):
        rates = [unbiased_pass_at_k(8, c, k) for k in range(1, 9)]
        assert rates == sorted(rates)


@pytest.mark.parametrize("n, c, k", [(4, 2, 5), (4, 5, 2), (4, -1, 2), (4, 2, 0)])
def test_unbiased_pass_at_k_refuses_impossible_counts(n, c, k):
    with pytest.raises(ContractViolation):
        unbiased_pass_at_k(n, c, k)


# -- config pooling ----------------------------------------------------------


def test_uniform_configs_tolerate_seed_differences():
    traces = [
        make_trace(seed=0, config={"seed": 0, "complete_iters": 3}),
        make_trace(seed=9, config={"seed": 9, "complete_iters": 3}),
    ]
    ensure_uniform_configs(traces)


def test_mixed_configs_are_refused():
    traces = [
        make_trace(config={"seed": 0, "complete_iters": 3}),
        make_trace(config={"seed": 0, "complete_iters": 5}),
    ]
    with pytest.raises(MixedConfigError, match="complete_iters"):
        ensure_uniform_configs(traces)
    with pytest.raises(ContractViolation):
        ensure_uniform_configs([])


# -- run outcomes ------------------------------------------------------------


def test_run_end_lookup_and_success_rate():
    won = make_trace(events=[ended("proved")])
    lost = make_trace(events=[ended("exhausted")])
    assert proved(won) and not proved(lost)
    assert run_end(won)["outcome"] == "proved"
    assert run_success_rate([won, won, lost, lost]) == 0.5
    with pytest.raises(ContractViolation):
        run_end(make_trace())
    with pytest.raises(ContractViolation):
        run_success_rate([])


# -- pass@k ------------------------------------------------------------------


def _runs(problem, outcomes):
    return [
        make_trace(problem=problem, run_index=i, seed=i, events=[ended(outcome)])
        for i, outcome in enumerate(outcomes)
    ]


def test_pass_at_k_prefixes_per_problem():
    traces = (
        _runs("A", ["exhausted", "proved", "exhausted"])
        + _runs("B", ["proved", "exhausted", "proved"])
        + _runs("C", ["exhausted", "exhausted", "exhausted"])
    )
    curve = pass_at_k_curve(list(reversed(traces)))  # order must not matter
    assert curve == [
        (1, pytest.approx(1 / 3)),
        (2, pytest.approx(2 / 3)),
        (3, pytest.approx(2 / 3)),
    ]
    rates = [rate for _, rate in curve]
    assert rates == sorted(rates)  # monotone by construction


def test_pass_at_k_caps_at_smallest_run_count():
    traces = (
        _runs("A", ["exhausted", "proved"])
        + _runs("B", ["proved", "exhausted"])
        + _runs("D", ["proved"])
    )
    curve = pass_at_k_curve(traces)
    assert curve == [(1, pytest.approx(2 / 3))]


def test_pass_at_k_refuses_mixed_configs():
    traces = _runs("A", ["proved"]) + [
        make_trace(
            problem="B", config={"seed": 0, "complete_iters": 99}, events=[ended("proved")]
        )
    ]
    with pytest.raises(MixedConfigError):
        pass_at_k_curve(traces)


# -- decomposition curves ----------------------------------------------------


def test_reduction_rate_curve_reports_accepted_rows_only():
    score_a = {"v": 1, "d_parent": 5, "d_children": [2, 2], "d_bar": 2.69, "r": 0.462, "S": 0.462}
    score_b = {"v": 1, "d_parent": 7, "d_children": [], "d_bar": 0.0, "r": 1.0, "S": 1.0}
    score_c = {"v": 1, "d_parent": 0, "d_children": [], "d_bar": 0.0, "r": 1.0, "S": 1.0}
    trace = make_trace(
        events=[
            ("decompose_attempt", {"iteration": 1, "target": "p", "outcome": "rejected",
                                   "score": score_a, "reason": "qc_failed"}),
            ("decompose_attempt", {"iteration": 2, "target": "p",
                                   "outcome": "accepted_decomposition", "score": score_a}),
            ("decompose_attempt", {"iteration": 3, "target": "p_1_1",
                                   "outcome": "accepted_discharge", "score": score_b}),
            ("decompose_attempt", {"iteration": 4, "target": "p_1_2",
                                   "outcome": "accepted_discharge", "score": score_c}),
        ]
    )
    rows = reduction_rate_curve(trace)
    assert [row["iteration"] for row in rows] == [2, 3, 4]
    assert rows[0]["remaining_fraction"] == pytest.approx(2.69 / 5)
    assert rows[1]["remaining_fraction"] == 0.0
    assert rows[2]["remaining_fraction"] == 0.0  # zero-footprint guard
    assert rows[0]["r"] == pytest.approx(0.462)


def test_completion_sweeps_needed():
    trace = make_trace(
        events=[
            ("complete_attempt", {"target": "a", "attempt_index": 1, "audit_ok": True}),
            ("complete_attempt", {"target": "b", "attempt_index": 2, "audit_ok": True}),
            ("complete_attempt", {"target": "c", "attempt_index": 5, "audit_ok": False}),
        ]
    )
    assert completion_sweeps_needed(trace) == 2
    assert completion_sweeps_needed(make_trace()) == 0


def test_best_root_score_tracks_root_attempts_only():
    trace = make_trace(
        problem="root",
        events=[
            ("decompose_attempt", {"iteration": 1, "target": "root", "outcome": "rejected",
                                   "score": {"S": 0.3}}),
            ("decompose_attempt", {"iteration": 2, "target": "root",
                                   "outcome": "accepted_decomposition", "score": {"S": 0.6}}),
            ("decompose_attempt", {"iteration": 3, "target": "root_1_1",
                                   "outcome": "accepted_discharge", "score": {"S": 0.9}}),
        ],
    )
    assert best_root_score(trace) == 0.6
    assert best_root_score(make_trace()) == 0.0


def test_score_label_pairs():
    t1 = make_trace(
        problem="x",
        events=[
            ("decompose_attempt", {"iteration": 1, "target": "x",
                                   "outcome": "accepted_discharge", "score": {"S": 1.0}}),
            ended("proved"),
        ],
    )
    t2 = make_trace(problem="y", events=[ended("exhausted")])
    scores, labels = score_label_pairs([t1, t2])
    assert scores == [1.0, 0.0]
    assert labels == [True, False]


# -- budget counterfactual ---------------------------------------------------


def test_success_vs_iterations_hand_curve():
    config = dict(BASE_CONFIG)
    t_easy = make_trace(events=[ended("proved")], config=config)
    t_late = make_trace(
        events=[
            ("complete_attempt", {"target": "g", "attempt_index": 2, "audit_ok": True}),
            ended("proved"),
        ],
        config=config,
    )
    t_fail = make_trace(events=[ended("exhausted")], config=config)
    curve = success_vs_iterations([t_easy, t_late, t_fail])
    assert curve == [
        (0, pytest.approx(1 / 3)),
        (1, pytest.approx(1 / 3)),
        (2, pytest.approx(2 / 3)),
        (3, pytest.approx(2 / 3)),
    ]


class _LateCloser:
    """Completion-only policy: the third attempt at any lemma succeeds."""

    def propose_decomposition(self, context):
        raise AssertionError("decomposition stage should be disabled")

    def propose_completion(self, context):
        return "decide" if len(context.feedback_history) >= 2 else "sorry"

    def fork(self, seed):
        return self


def test_success_vs_iterations_matches_actual_reruns():
    # The truncation claim, checked against reality: re-running with a
    # smaller completion budget must land exactly where the curve says.
    goal = parse_goal("goal g (x: Int) := x + 0 = x")
    checker = BuiltinChecker(Domain())

    def run_with(budget):
        config = SearchConfig(
            decompose_iters=0,
            complete_iters=budget,
            qc=QcConfig(trials=100, seed=0),
        )
        return run_single(goal, _LateCloser(), checker, config)

    result_full, trace_full = run_with(4)
    assert result_full.outcome == "proved"
    curve = dict(success_vs_iterations([trace_full]))
    for budget in (1, 2, 3, 4):
        result, _ = run_with(budget)
        actually_proved = result.outcome == "proved"
        assert curve[budget] == (1.0 if actually_proved else 0.0)


# -- aggregate stats ---------------------------------------------------------


def test_proof_stats_moments():
    t1 = make_trace(events=[ended("proved", lemma_count=2, decompose_iterations=3,
                                  complete_iterations=1, proof_lines=None)])
    t2 = make_trace(events=[ended("proved", lemma_count=4, decompose_iterations=5,
                                  complete_iterations=3, proof_lines=7)])
    t3 = make_trace(events=[ended("disproved")])
    t4 = make_trace(events=[ended("exhausted")])
    stats = proof_stats([t1, t2, t3, t4])
    assert stats["runs"] == 4
    assert stats["proved"] == 2 and stats["disproved"] == 1 and stats["exhausted"] == 1
    assert stats["lemma_count"]["mean"] == pytest.approx(3.0)
    # population standard deviation of {2, 4}
    assert stats["lemma_count"]["std"] == pytest.approx(1.0)
    assert stats["lemma_count"]["min"] == 2 and stats["lemma_count"]["max"] == 4
    assert stats["proof_lines"]["mean"] == pytest.approx(7.0)
    assert stats["proof_lines"]["std"] == 0.0


def test_proof_stats_refuses_counts_whose_sum_is_past_the_float_range():
    # Each count fits a float, but their sum does not.
    traces = [make_trace(events=[ended("proved", decompose_iterations=10**308)]) for _ in range(2)]
    with pytest.raises(ContractViolation, match="'decompose_iterations' values are past the float"):
        proof_stats(traces)


def test_proof_stats_without_proofs_or_traces():
    stats = proof_stats([make_trace(events=[ended("exhausted")])])
    assert "lemma_count" not in stats
    with pytest.raises(ContractViolation):
        proof_stats([])


# -- csv ---------------------------------------------------------------------


def test_write_csv_accepts_dicts_and_tuples(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ["k", "rate"], [(1, 0.5), {"k": 2, "rate": 0.75}])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["k", "rate"], ["1", "0.5"], ["2", "0.75"]]


# -- forged traces -----------------------------------------------------------


@functools.cache
def _real_trace_lines() -> list[list[dict]]:
    """The lines of two real runs under one config: a goal split and
    proved, and a goal disproved."""
    config = SearchConfig(decompose_iters=2, complete_iters=2, qc=QcConfig(trials=100, seed=0))
    checker = BuiltinChecker(Domain())
    runs = [
        run_single(parse_goal("goal conj (x: Int) := x + 0 = x /\\ x * 1 = x"), ConjunctionSplitter(), checker, config),
        run_single(parse_goal("goal broken (x: Int) := x < 3"), DirectSubmit(), checker, config),
    ]
    return [[trace.header, *trace.events] for _, trace in runs]


# Every report ``provekit analyze`` prints, on a list of traces.
_REPORTS = (
    pass_at_k_curve,
    lambda traces: [reduction_rate_curve(t) for t in traces],
    success_vs_iterations,
    lambda traces: auroc(*score_label_pairs(traces)),
    proof_stats,
)


def _read(runs: list[list[dict]]) -> list[RunTrace]:
    return [parse_trace("\n".join(json.dumps(line) for line in lines)) for lines in runs]


def test_every_report_reads_the_real_traces():
    traces = _read(_real_trace_lines())
    # One proved and one disproved run, so every report has a value to forge.
    assert [proved(t) for t in traces] == [True, False]
    for report in _REPORTS:
        report(traces)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9))
def test_a_forged_trace_is_reported_on_or_refused(seed):
    # Nothing but a ProvekitError may escape, whatever one key holds: a key
    # of any event at any depth, or of the header and its config.
    try:
        traces = _read(forged_json(seed, _real_trace_lines()))
    except ProvekitError:
        return
    for report in _REPORTS:
        try:
            report(traces)
        except ProvekitError:
            pass
