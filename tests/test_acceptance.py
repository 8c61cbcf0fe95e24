"""Top-level acceptance gate.

Each test covers one numbered acceptance criterion end to end and prints a
single pass/fail line (visible under ``pytest -s``).  These are the
behavioral guarantees the package ships under; the per-module suites cover
the same ground at finer grain.
"""

from __future__ import annotations

import json
import math
import random
import threading
import time
from collections import Counter
from dataclasses import replace

import mpmath
import pytest

from provekit.analytics import (
    auroc,
    pass_at_k_curve,
    run_success_rate,
    score_label_pairs,
    unbiased_pass_at_k,
)
from provekit.errors import FilterViolation, PolicyError
from provekit.evaluator import DecisionVerdict, Domain, decide_bounded, eval_formula
from provekit.errors import EvalError
from provekit.lang import GoalDecl, Sort, free_vars, parse_goal
from provekit.pool import PoolConfig, VerificationPool
from provekit.prover import (
    DEFAULT_AXIOM_ALLOWLIST,
    KIND_DIRECT,
    TIMEOUT,
    BuiltinChecker,
    CheckRequest,
    ConjunctionSplitter,
    DecompositionProposal,
    DirectSubmit,
    StochasticPolicy,
)
from provekit.prover import api
from provekit.quickcheck import Counterexample, QcConfig, quickcheck
from provekit.scoring import ScoreConfig, ValidityGate, decomposition_score
from provekit.search import SearchConfig, mix_seed, run_pass_k, run_single
from provekit.training import (
    RECORD_COMPLETION,
    RECORD_DECOMPOSITION,
    TrajectoryRecord,
    export_trajectories,
    filter_groups,
    score_rollout_group,
    validate_record,
)

from corpus import random_goal, wide_conjunction_goal
from enumeration import full_inventory, reduced_inventory

PROVED = "proved"
DISPROVED = "disproved"


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {detail}")


# -- 1: golden decomposition score -------------------------------------------


def test_criterion_01_score_golden():
    with mpmath.workdps(40):
        oracle = mpmath.mpf(8) + mpmath.log(1 + mpmath.exp(-1))
    assert abs(float(oracle) - 8.3133) < 5e-5

    gate = ValidityGate(reconstruction_ok=True, qc_ok_per_lemma=(True, True))
    breakdown = decomposition_score(gate, 18, (7, 8), ScoreConfig(temperature=1.0))
    ok = (
        0.533 <= breakdown.S <= 0.543
        and f"{breakdown.S:.2f}" == "0.54"
        and abs(breakdown.d_bar - float(oracle)) < 1e-12
    )
    _report(1, ok, f"S={breakdown.S:.6f} renders {breakdown.S:.2f}, d_bar={breakdown.d_bar:.10f}")
    assert ok


# -- 2: quickcheck never contradicts the bounded decision oracle -------------


def _goal_from_formula(formula, idx: int) -> GoalDecl:
    names = free_vars(formula)
    binders = []
    for name, sort in (("x", Sort.INT), ("q", Sort.INT), ("l", Sort.INT_LIST)):
        if name in names:
            binders.append((name, sort))
    return GoalDecl(name=f"e{idx}", binders=tuple(binders), body=formula)


def test_criterion_02_oracle_equivalence():
    started = time.monotonic()
    domain = Domain(int_lo=-2, int_hi=2, max_list_len=2, elem_lo=-1, elem_hi=1)

    stock = reduced_inventory().all_formulas(5) + full_inventory().all_formulas(2)
    assert len(reduced_inventory().all_formulas(5)) == 28492
    assert len(full_inventory().all_formulas(2)) == 5202
    formulas = list({repr(f): f for f in stock}.values())

    violations: list[str] = []
    valid_clean = 0
    cex_confirmed = 0
    for idx, formula in enumerate(formulas):
        goal = _goal_from_formula(formula, idx)
        space = 1
        for _, sort in goal.binders:
            space *= domain.value_count(sort)
        config = QcConfig(
            trials=min(1400, 4 * space + 40),
            seed=0,
            gen_int_lo=-2,
            gen_int_hi=2,
            gen_max_list_len=2,
            gen_elem_lo=-1,
            gen_elem_hi=1,
        )
        verdict = decide_bounded(goal, domain)
        outcome = quickcheck(goal, config, domain)
        if isinstance(outcome, Counterexample):
            if verdict.status == DecisionVerdict.VALID:
                violations.append(f"{goal.name}: counterexample against an oracle-valid goal")
            try:
                holds = eval_formula(goal.body, dict(outcome.witness), domain)
            except EvalError:
                holds = False
            if holds:
                violations.append(f"{goal.name}: witness does not falsify")
            else:
                cex_confirmed += 1
        elif verdict.status == DecisionVerdict.VALID:
            valid_clean += 1

    elapsed = time.monotonic() - started
    ok = not violations and elapsed < 300.0
    _report(
        2,
        ok,
        f"{len(formulas)} formulas, {valid_clean} valid clean, "
        f"{cex_confirmed} counterexamples confirmed, {elapsed:.1f}s",
    )
    assert ok, violations[:5]


# -- 3: end-to-end soundness on random goals ----------------------------------


def test_criterion_03_end_to_end_soundness():
    started = time.monotonic()
    domain = Domain(int_lo=-3, int_hi=3, max_list_len=2, elem_lo=-1, elem_hi=1)
    base = SearchConfig(
        decompose_iters=8,
        complete_iters=3,
        seed=0,
        qc=QcConfig(trials=250, seed=0),
        domain=domain,
        max_open_lemmas=16,
    )
    checker = BuiltinChecker(domain)

    violations: list[str] = []
    outcomes: Counter = Counter()
    for i in range(200):
        goal = random_goal(seed=10_000 + i, name=f"g{i}", depth=2)
        config = replace(base, seed=mix_seed(0, goal.name))
        policy = StochasticPolicy(config.seed, domain)
        result, _ = run_single(goal, policy, checker, config)
        outcomes[result.outcome] += 1
        if result.outcome == PROVED:
            verdict = decide_bounded(goal, domain)
            if verdict.status != DecisionVerdict.VALID:
                violations.append(f"{goal.name}: proved but oracle says {verdict.status}")
        elif result.outcome == DISPROVED:
            if result.witness is None:
                violations.append(f"{goal.name}: disproved without witness")
                continue
            try:
                holds = eval_formula(goal.body, dict(result.witness), domain)
            except EvalError:
                holds = False
            if holds:
                violations.append(f"{goal.name}: disproof witness does not falsify")

    elapsed = time.monotonic() - started
    ok = (
        not violations
        and outcomes[PROVED] > 0
        and outcomes[DISPROVED] > 0
        and elapsed < 600.0
    )
    _report(3, ok, f"outcomes {dict(outcomes)}, 0 violations, {elapsed:.1f}s")
    assert ok, violations[:5]


# -- 4: hierarchical decomposition beats flat completion ----------------------


def test_criterion_04_hierarchical_vs_flat():
    started = time.monotonic()
    domain = Domain(int_lo=-2, int_hi=2)
    # The checker's domain caps each check at 20,000 evaluation steps: one
    # atom decides in ~25, the n-ary product cannot.
    checker = BuiltinChecker(replace(domain, node_budget=20_000))
    base = SearchConfig(
        max_open_lemmas=32,
        check_timeout_ms=20_000,
        seed=0,
        qc=QcConfig(trials=120, seed=0),
        domain=domain,
    )
    problems = {n: wide_conjunction_goal(f"wide{n}", n) for n in range(2, 33)}

    flat_unproved = []
    for n in range(8, 33):
        config = replace(base, decompose_iters=0, complete_iters=2)
        result, _ = run_single(problems[n], DirectSubmit(), checker, config)
        if result.outcome != PROVED:
            flat_unproved.append(n)

    hier_proved = []
    for n in range(2, 33):
        config = replace(base, decompose_iters=128, complete_iters=4)
        result, _ = run_single(problems[n], ConjunctionSplitter(depth=31), checker, config)
        if result.outcome == PROVED and result.decompose_iterations <= 128:
            hier_proved.append(n)

    elapsed = time.monotonic() - started
    ok = (
        flat_unproved == list(range(8, 33))
        and hier_proved == list(range(2, 33))
        and elapsed < 120.0
    )
    _report(
        4,
        ok,
        f"flat failed {len(flat_unproved)}/25, hierarchical proved "
        f"{len(hier_proved)}/31, {elapsed:.1f}s",
    )
    assert ok


# -- 5: pass@k grows like independent retries ---------------------------------


def _gated_checker(domain: Domain) -> BuiltinChecker:
    # check budget 600 steps: leaf decides fit, the 3-binder root does not,
    # so a run wins only when the policy draws a decomposing strategy.
    return BuiltinChecker(replace(domain, node_budget=600))


def _gated_conjunction_config(seed: int, domain: Domain) -> SearchConfig:
    return SearchConfig(
        decompose_iters=2,
        complete_iters=2,
        check_timeout_ms=600,
        seed=seed,
        qc=QcConfig(trials=120, seed=0),
        domain=domain,
        max_open_lemmas=8,
    )


def test_criterion_05_pass_at_k_scaling():
    started = time.monotonic()
    domain = Domain(int_lo=-2, int_hi=2)
    checker = _gated_checker(domain)

    traces = []
    win_matrix = []
    for i in range(50):
        goal = wide_conjunction_goal(f"p{i}", 3)
        config = replace(
            _gated_conjunction_config(mix_seed(0, goal.name), domain), k_parallel=8
        )
        policy = StochasticPolicy(config.seed, domain)
        result = run_pass_k(goal, policy, checker, config)
        traces.extend(result.traces)
        win_matrix.append([run.outcome == PROVED for run in result.runs])

    # Unbiased pass@k over every k-subset of each problem's 8 runs; this is
    # the standard low-variance estimator and is nondecreasing in k by
    # construction (the miss probability C(n-c, k)/C(n, k) shrinks with k).
    n = 8
    total_runs = 50 * n
    p_hat = sum(sum(row) for row in win_matrix) / total_runs

    estimates = {}
    for k in (1, 2, 4, 8):
        per_problem = [unbiased_pass_at_k(n, sum(row), k) for row in win_matrix]
        estimates[k] = sum(per_problem) / len(per_problem)
    rates = [estimates[k] for k in (1, 2, 4, 8)]
    monotone = all(a <= b for a, b in zip(rates, rates[1:]))

    prefix_curve = dict(pass_at_k_curve(traces))
    prefix_rates = [prefix_curve[k] for k in (1, 2, 4, 8)]
    prefix_monotone = all(a <= b for a, b in zip(prefix_rates, prefix_rates[1:]))

    within_bounds = True
    details = []
    for k in (1, 2, 4, 8):
        predicted = 1.0 - (1.0 - p_hat) ** k
        se_curve = math.sqrt(max(predicted * (1.0 - predicted), 1e-12) / 50)
        se_p = k * (1.0 - p_hat) ** (k - 1) * math.sqrt(p_hat * (1.0 - p_hat) / total_runs)
        bound = 1.96 * (se_curve + se_p)
        gap = abs(estimates[k] - predicted)
        details.append(f"k={k}:{estimates[k]:.3f}~{predicted:.3f}")
        if gap > bound:
            within_bounds = False

    elapsed = time.monotonic() - started
    ok = monotone and prefix_monotone and within_bounds
    _report(5, ok, f"p_hat={p_hat:.3f}, {' '.join(details)}, {elapsed:.1f}s")
    assert ok


# -- 6: decomposition score ranks provable runs above failures ----------------


def test_criterion_06_score_predicts_success():
    started = time.monotonic()
    domain = Domain(int_lo=-2, int_hi=2)
    checker = _gated_checker(domain)
    good = {"split": 0.70, "direct": 0.10, "ground": 0.10, "junk": 0.10}
    bad = {"split": 0.05, "direct": 0.10, "ground": 0.05, "junk": 0.80}

    traces = []
    for i in range(100):
        goal = wide_conjunction_goal(f"c{i}", 3)
        config = _gated_conjunction_config(mix_seed(1, goal.name), domain)
        weights = good if i % 2 == 0 else bad
        policy = StochasticPolicy(config.seed, domain, weights=weights)
        _, trace = run_single(goal, policy, checker, config)
        traces.append(trace)

    scores, labels = score_label_pairs(traces)
    value = auroc(scores, labels)
    elapsed = time.monotonic() - started
    ok = value > 0.5
    _report(
        6,
        ok,
        f"auroc={value:.3f} over {sum(labels)} proved / {len(labels) - sum(labels)} not, "
        f"{elapsed:.1f}s",
    )
    assert ok


# -- 7: reward-group filtering and export validation --------------------------


class _JunkOnly:
    def propose_decomposition(self, context):
        return DecompositionProposal(
            (parse_goal(f"goal {context.goal.name}_junk := 0 < 0"),), "entailment"
        )

    def propose_completion(self, context):
        raise PolicyError("never completes")

    def fork(self, seed):
        return self


class _Alternator:
    """Discharge on even calls, split the fixed conjunction on odd ones."""

    def __init__(self, lemmas):
        self.lemmas = lemmas
        self.calls = 0

    def propose_decomposition(self, context):
        self.calls += 1
        if self.calls % 2 == 1:
            return DecompositionProposal((), "decide")
        return DecompositionProposal(self.lemmas, "and-intro")

    def propose_completion(self, context):
        raise PolicyError("unused")

    def fork(self, seed):
        return self


def test_criterion_07_reward_filtering_and_export(tmp_path):
    domain = Domain()
    checker = BuiltinChecker(domain)
    config = SearchConfig(qc=QcConfig(trials=150, seed=0))
    conj = parse_goal("goal both (a: Int) := a + 0 = a /\\ a * 1 = a")
    lemmas = (
        parse_goal("goal both_l (a: Int) := a + 0 = a"),
        parse_goal("goal both_r (a: Int) := a * 1 = a"),
    )

    all_one = score_rollout_group(conj, DirectSubmit(), checker, config, n_rollouts=4)
    all_zero = score_rollout_group(conj, _JunkOnly(), checker, config, n_rollouts=4)
    mixed = score_rollout_group(conj, _Alternator(lemmas), checker, config, n_rollouts=4)
    assert all_one.mean_reward() == 1.0
    assert all_zero.mean_reward() == 0.0
    assert 0.0 < mixed.mean_reward() < 1.0
    kept = filter_groups([all_one, all_zero, mixed])
    filtering_ok = kept == [mixed]

    good_dec = TrajectoryRecord(
        kind=RECORD_DECOMPOSITION,
        goal_source="goal both (a: Int) := a + 0 = a /\\ a * 1 = a",
        score={"v": 1, "r": 0.46, "S": 0.46},
    )
    good_comp = TrajectoryRecord(
        kind=RECORD_COMPLETION,
        goal_source="goal both_l (a: Int) := a + 0 = a",
        proof_text="decide",
        verdict_status="accepted",
        axioms=("propext",),
    )
    rejected = 0
    for record in (
        replace_record(good_dec, score={"v": 1, "r": 0.0, "S": 0.0}),
        replace_record(good_dec, score={"v": 0, "r": 0.5, "S": 0.0}),
        replace_record(good_comp, verdict_status="rejected"),
        replace_record(good_comp, axioms=("propext", "Lean.trustCompiler")),
    ):
        with pytest.raises(FilterViolation):
            validate_record(record)
        rejected += 1
        bad_path = tmp_path / "refused.jsonl"
        with pytest.raises(FilterViolation):
            export_trajectories([record], bad_path)
        assert not bad_path.exists()

    out = tmp_path / "accepted.jsonl"
    exported = export_trajectories([good_dec, good_comp], out)

    ok = filtering_ok and rejected == 4 and exported == 2
    _report(7, ok, f"kept 1/3 groups, refused {rejected} invalid records, exported {exported}")
    assert ok


def replace_record(record: TrajectoryRecord, **changes) -> TrajectoryRecord:
    data = record.to_json()
    data.update(changes)
    return TrajectoryRecord.from_json(data)


# -- 8: pool discipline under load --------------------------------------------


def test_criterion_08_pool_discipline():
    started = time.monotonic()
    request = CheckRequest(KIND_DIRECT, parse_goal("goal t (x: Int) := x + 0 = x"))

    # Phase 1: 2000 parked stub jobs against a cap of 16.
    release = threading.Event()

    class Parked:
        def check(self, req, timeout_ms):
            release.wait(timeout=60)
            return api.accepted()

    config = PoolConfig(max_concurrent=16)
    with VerificationPool(Parked(), config) as pool:
        handles = [pool.submit(request, timeout_ms=120_000) for _ in range(2000)]
        deadline = time.monotonic() + 30
        while pool.stats().in_flight < 16 and time.monotonic() < deadline:
            time.sleep(0.002)
        saturated = pool.stats().in_flight
        release.set()
        for handle in handles:
            pool.await_verdict(handle)
        stats = pool.stats()
    peak_ok = saturated == 16 and stats.peak_in_flight == 16 and stats.completed == 2000

    # Phase 2: a stub sleeping 2x the budget must time out at the budget.
    class Sleepy:
        def check(self, req, timeout_ms):
            time.sleep(2.0)
            return api.accepted()

    timeout_ok = True
    measured = []
    with VerificationPool(Sleepy(), PoolConfig(max_concurrent=4)) as pool:
        submitted = [(pool.submit(request, timeout_ms=1000), time.monotonic()) for _ in range(3)]
        for handle, t0 in submitted:
            verdict = pool.await_verdict(handle)
            elapsed = time.monotonic() - t0
            measured.append(elapsed)
            if verdict.status != TIMEOUT or not 0.9 <= elapsed <= 1.1:
                timeout_ok = False

    # Phase 3: conservation identity sampled 100 times under churn.
    rng = random.Random(0)

    class Jitter:
        def check(self, req, timeout_ms):
            time.sleep(rng.random() * 0.004)
            return api.accepted()

    samples = []
    with VerificationPool(
        Jitter(), PoolConfig(max_concurrent=8)
    ) as pool:
        handles = [pool.submit(request, timeout_ms=60_000) for _ in range(400)]
        while len(samples) < 100:
            samples.append(pool.stats().conserved())
            time.sleep(0.001)
        for handle in handles:
            pool.await_verdict(handle)
        samples.append(pool.stats().conserved())
    conservation_ok = all(samples)

    elapsed = time.monotonic() - started
    ok = peak_ok and timeout_ok and conservation_ok and elapsed < 180.0
    _report(
        8,
        ok,
        f"peak={stats.peak_in_flight}, timeouts at {[f'{m:.2f}s' for m in measured]}, "
        f"{len(samples)} conserved snapshots, {elapsed:.1f}s",
    )
    assert ok


# -- 9: byte-identical traces and independently folded analytics --------------


def _mixed_corpus_traces(tmp_path, tag: str):
    domain = Domain(int_lo=-2, int_hi=2)
    checker = _gated_checker(domain)
    good = {"split": 0.70, "direct": 0.10, "ground": 0.10, "junk": 0.10}
    bad = {"split": 0.05, "direct": 0.10, "ground": 0.05, "junk": 0.80}
    out_dir = tmp_path / tag
    out_dir.mkdir()
    traces = []
    for i in range(12):
        goal = wide_conjunction_goal(f"m{i}", 3)
        config = replace(
            _gated_conjunction_config(mix_seed(2, goal.name), domain), k_parallel=2
        )
        policy = StochasticPolicy(config.seed, domain, weights=good if i % 2 == 0 else bad)
        result = run_pass_k(goal, policy, checker, config)
        for trace in result.traces:
            trace.write(out_dir / f"{trace.header['run_id']}.jsonl")
        traces.extend(result.traces)
    return out_dir, traces


def test_criterion_09_determinism_and_independent_fold(tmp_path):
    dir_a, traces_a = _mixed_corpus_traces(tmp_path, "a")
    dir_b, _ = _mixed_corpus_traces(tmp_path, "b")

    files_a = sorted(dir_a.glob("*.jsonl"))
    files_b = sorted(dir_b.glob("*.jsonl"))
    byte_ok = [p.name for p in files_a] == [p.name for p in files_b] and all(
        a.read_bytes() == b.read_bytes() for a, b in zip(files_a, files_b)
    )

    # Independent fold: recompute everything from the serialized text alone.
    docs = []
    for path in files_a:
        lines = path.read_text().splitlines()
        docs.append((json.loads(lines[0]), [json.loads(line) for line in lines[1:]]))

    def fold_proved(events):
        ends = [e for e in events if e["type"] == "run_end"]
        return ends[-1]["outcome"] == PROVED

    def fold_root_score(header, events):
        best = 0.0
        for event in events:
            if event.get("type") == "decompose_attempt" and event.get("target") == header["problem"]:
                score = event.get("score")
                if score is not None:
                    best = max(best, score["S"])
        return best

    fold_labels = [fold_proved(events) for _, events in docs]
    fold_scores = [fold_root_score(header, events) for header, events in docs]
    fold_rate = sum(fold_labels) / len(fold_labels)

    wins, pairs = 0.0, 0
    for score, label in zip(fold_scores, fold_labels):
        if not label:
            continue
        for other, other_label in zip(fold_scores, fold_labels):
            if other_label:
                continue
            pairs += 1
            if score > other:
                wins += 1.0
            elif score == other:
                wins += 0.5
    fold_auroc = wins / pairs

    by_problem: dict[str, list] = {}
    for header, events in docs:
        by_problem.setdefault(header["problem"], []).append((header["run_index"], fold_proved(events)))
    for runs in by_problem.values():
        runs.sort()
    fold_curve = {}
    for k in (1, 2):
        fold_curve[k] = sum(
            1 for runs in by_problem.values() if any(ok for _, ok in runs[:k])
        ) / len(by_problem)

    lib_rate = run_success_rate(traces_a)
    lib_scores, lib_labels = score_label_pairs(traces_a)
    lib_auroc = auroc(lib_scores, lib_labels)
    lib_curve = dict(pass_at_k_curve(traces_a))

    fold_ok = (
        abs(lib_rate - fold_rate) <= 1e-12
        and abs(lib_auroc - fold_auroc) <= 1e-12
        and all(abs(lib_curve[k] - fold_curve[k]) <= 1e-12 for k in (1, 2))
    )
    ok = byte_ok and fold_ok
    _report(
        9,
        ok,
        f"{len(files_a)} traces byte-identical={byte_ok}, "
        f"fold deltas rate={abs(lib_rate - fold_rate):.0e} auroc={abs(lib_auroc - fold_auroc):.0e}",
    )
    assert ok


# -- 10: the axiom audit gate is exact ----------------------------------------


class _AxiomStub:
    def __init__(self, axioms):
        self.axioms = tuple(axioms)

    def check(self, request, timeout_ms):
        return api.accepted(axioms=self.axioms)


def test_criterion_10_axiom_audit():
    assert DEFAULT_AXIOM_ALLOWLIST == frozenset({"propext", "Classical.choice", "Quot.sound"})
    goal = parse_goal("goal leaf (x: Int) := x + 0 = x")
    config = SearchConfig(
        decompose_iters=0, complete_iters=3, seed=0, qc=QcConfig(trials=100, seed=0)
    )

    clean_checker = _AxiomStub(("propext", "Classical.choice", "Quot.sound"))
    clean_result, _ = run_single(goal, DirectSubmit(), clean_checker, config)
    clean_ok = clean_result.outcome == PROVED and clean_result.audit_failures == 0

    revert_ok = True
    for tainted_axiom in ("Lean.ofReduceBool", "Lean.trustCompiler"):
        checker = _AxiomStub(("propext", tainted_axiom))
        result, trace = run_single(goal, DirectSubmit(), checker, config)
        attempts = [e for e in trace.events if e.get("type") == "complete_attempt"]
        if not (
            result.outcome != PROVED
            and result.audit_failures == 3
            and result.open_leaves == 1
            and attempts
            and all(e.get("audit_ok") is False for e in attempts)
        ):
            revert_ok = False

    ok = clean_ok and revert_ok
    _report(10, ok, f"allowlist exact, clean run proved, tainted runs reverted")
    assert ok
