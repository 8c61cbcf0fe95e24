"""Two-stage search: gates, tree bookkeeping, determinism, pass@k."""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import provekit.lang.ast as ast_mod
import provekit.prover.builtin as builtin_mod
import provekit.search as search_mod
from corpus import random_goal, wide_conjunction_goal
from provekit.errors import ContractViolation, ParseError, PolicyError
from provekit.evaluator import Domain
from provekit.lang import (
    Add,
    Eq,
    GoalDecl,
    IntLit,
    Length,
    Lt,
    Not,
    Sort,
    TrueF,
    Var,
    parse_goal,
    print_goal,
)
from provekit.pool import PoolConfig, VerificationPool
from provekit.prover import (
    DIRECT_PROOF_DIRECTIVE,
    KIND_COMPLETION,
    KIND_DIRECT,
    KIND_RECONSTRUCTION,
    RECON_DIRECT,
    BuiltinChecker,
    CheckRequest,
    ConjunctionSplitter,
    DecompositionProposal,
    DirectSubmit,
    StochasticPolicy,
)
from provekit.prover import api
from provekit.quickcheck import QcConfig, quickcheck
from provekit.scoring import ScoreConfig
from provekit.search import (
    GOAL_DECOMPOSED,
    GOAL_DISCHARGED,
    GOAL_OPEN,
    GOAL_PROVED,
    OUTCOME_DISPROVED,
    OUTCOME_EXHAUSTED,
    OUTCOME_PROVED,
    REASON_DUPLICATE_NAME,
    REASON_ILL_SORTED,
    REASON_INFRASTRUCTURE,
    REASON_LEMMA_CAP,
    REASON_QC_FAILED,
    REASON_RECONSTRUCTION,
    REASON_RECONSTRUCTION_TIMEOUT,
    REASON_TARGET_QC,
    REASON_ZERO_FOOTPRINT,
    STEP_ACCEPTED,
    STEP_DISCHARGED,
    STEP_DISPROVED,
    STEP_REJECTED,
    TARGET_HIGHEST_FOOTPRINT,
    TARGET_HIGHEST_SCORE,
    GoalTree,
    SearchConfig,
    completion_stage,
    decompose_step,
    evaluate_proposal,
    mix_seed,
    run_pass_k,
    run_single,
    select_target,
    _count_proof_lines,
)
from provekit.trace import TRACE_HEADER, RunTrace, canonical_json, parse_trace

DOMAIN = Domain()
CONFIG = SearchConfig(qc=QcConfig(trials=200, seed=0))
CHECKER = BuiltinChecker(DOMAIN)


class StubChecker:
    """Returns whatever the supplied function says; records every request."""

    def __init__(self, fn):
        self.fn = fn
        self.requests: list[CheckRequest] = []

    def check(self, request, timeout_ms):
        self.requests.append(request)
        return self.fn(request)


class ScriptedPolicy:
    """Plays back a queue of proposals (or raises queued errors)."""

    def __init__(self, proposals=(), completion_proof=DIRECT_PROOF_DIRECTIVE):
        self.queue = list(proposals)
        self.completion_proof = completion_proof
        self.fork_seeds: list[int] = []
        self.decompose_contexts = []
        self.completion_contexts = []

    def propose_decomposition(self, context):
        self.decompose_contexts.append(context)
        if not self.queue:
            return DecompositionProposal(lemmas=(), reconstruction=RECON_DIRECT)
        item = self.queue.pop(0)
        if isinstance(item, Exception):
            raise item
        return item

    def propose_completion(self, context):
        self.completion_contexts.append(context)
        if isinstance(self.completion_proof, Exception):
            raise self.completion_proof
        return self.completion_proof

    def fork(self, seed):
        self.fork_seeds.append(seed)
        return self


def _tree(source: str) -> GoalTree:
    return GoalTree(parse_goal(source))


def _trace() -> RunTrace:
    return RunTrace.new("t", 0, 0, CONFIG.snapshot())


def _proposal(*lemma_sources: str, reconstruction: str = "entailment"):
    return DecompositionProposal(
        lemmas=tuple(parse_goal(s) for s in lemma_sources),
        reconstruction=reconstruction,
    )


# --- seeds and config ---------------------------------------------------------


def test_mix_seed_is_deterministic_and_tag_sensitive():
    assert mix_seed(7, "a") == mix_seed(7, "a")
    assert mix_seed(7, "a") != mix_seed(7, "b")
    assert mix_seed(7, "a") != mix_seed(8, "a")
    assert 0 <= mix_seed(0, "x") < 2**64


@pytest.mark.parametrize(
    "kwargs",
    [
        {"decompose_iters": -1},
        {"complete_iters": -1},
        {"max_open_lemmas": -1},
        {"k_parallel": 0},
        {"wall_budget_secs": 0.0},
        {"check_timeout_ms": 0},
        {"target_strategy": "random"},
        {"wall_budget_secs": float("nan")},
        {"wall_budget_secs": float("inf")},
        {"wall_budget_secs": float("-inf")},
        {"wall_budget_secs": 10**400},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ContractViolation):
        SearchConfig(**kwargs)


def test_config_snapshot_shape():
    snap = CONFIG.snapshot()
    assert snap["seed"] == 0
    assert snap["qc"]["trials"] == 200
    assert snap["score"]["temperature"] == 1.0
    assert snap["domain"]["int_lo"] == -5
    # The element range is recorded in resolved form.
    assert snap["qc"]["gen_elem_lo"] == CONFIG.qc.elem_lo


# --- goal tree ------------------------------------------------------------------


def test_tree_bookkeeping():
    tree = _tree("goal root (x: Int) := x = x /\\ x + 0 = x")
    root = tree.nodes["root"]
    assert root.depth == 0 and root.order == 0 and root.status == GOAL_OPEN
    assert tree.inserted_lemmas == 0

    lemmas = (parse_goal("goal a (x: Int) := x = x"), parse_goal("goal b (x: Int) := x + 0 = x"))
    children = tree.add_lemmas(root, lemmas, 0.7)
    assert root.status == GOAL_DECOMPOSED
    assert [c.order for c in children] == [1, 2]
    assert all(c.parent == "root" and c.depth == 1 for c in children)
    assert all(c.creation_score == 0.7 for c in children)
    assert tree.inserted_lemmas == 2
    assert [n.name for n in tree.leaves()] == ["a", "b"]
    assert not tree.all_closed()

    tree.nodes["a"].status = GOAL_PROVED
    tree.nodes["b"].status = GOAL_DISCHARGED
    assert tree.all_closed()
    assert [n.name for n in tree.leaves()] == ["a", "b"]


def test_select_target_by_footprint_with_insertion_tiebreak():
    tree = _tree("goal root (x: Int) := x = x /\\ (x + 0 = x /\\ x * 1 = x)")
    root = tree.nodes["root"]
    lemmas = (
        parse_goal("goal small (x: Int) := x = x"),
        parse_goal("goal big (x: Int) := x + 0 = x /\\ x * 1 = x"),
        parse_goal("goal twin (x: Int) := x * 1 = x /\\ x + 0 = x"),
    )
    tree.add_lemmas(root, lemmas, 0.5)
    target = select_target(tree, CONFIG.target_strategy)
    assert target is not None and target.name == "big"  # ties break to earliest


def test_select_target_by_creation_score():
    tree = _tree("goal root := 0 = 0 /\\ 1 = 1")
    root = tree.nodes["root"]
    lemmas = (parse_goal("goal weak := 0 = 0"),)
    (weak,) = tree.add_lemmas(root, lemmas, 0.2)
    lemmas = (parse_goal("goal strong := 1 = 1"),)
    strong = tree.add_lemmas(root, lemmas, 0.9)[0]
    assert weak.goal.footprint == strong.goal.footprint
    target = select_target(tree, TARGET_HIGHEST_SCORE)
    assert target is not None and target.name == "strong"


def test_select_target_returns_none_when_all_closed():
    tree = _tree("goal root := 0 = 0")
    tree.nodes["root"].status = GOAL_PROVED
    assert select_target(tree, CONFIG.target_strategy) is None


# --- proposal gate ---------------------------------------------------------------


def _evaluate(goal, proposal, checker, config):
    """Gate ``proposal`` against the root of a one-goal tree."""
    tree = GoalTree(goal)
    return evaluate_proposal(tree, tree.nodes[goal.name], proposal, checker, config)


def test_discharge_proposal_sends_a_direct_check():
    goal = parse_goal("goal g (x: Int) := x + 0 = x")
    stub = StubChecker(lambda req: api.accepted())
    evaluation = _evaluate(goal, _proposal(reconstruction=RECON_DIRECT), stub, CONFIG)
    assert evaluation.accepted
    assert evaluation.breakdown.S == 1.0 and evaluation.breakdown.r == 1.0
    (request,) = stub.requests
    assert request.kind == KIND_DIRECT
    assert request.proof_text == RECON_DIRECT


def test_discharging_an_operator_free_goal_is_full_reduction():
    goal = parse_goal("goal g := true")
    stub = StubChecker(lambda req: api.accepted())
    evaluation = _evaluate(goal, _proposal(reconstruction=RECON_DIRECT), stub, CONFIG)
    assert evaluation.accepted
    assert evaluation.breakdown.d_parent == 0
    assert evaluation.breakdown.S == 1.0


def test_falsified_lemma_skips_the_checker():
    goal = parse_goal("goal g (x: Int) := x = x")
    stub = StubChecker(lambda req: api.accepted())
    evaluation = _evaluate(goal, _proposal("goal bad := 0 < 0"), stub, CONFIG)
    assert not evaluation.accepted
    assert evaluation.reason == REASON_QC_FAILED
    assert evaluation.gate.qc_ok_per_lemma == (False,)
    assert evaluation.breakdown.S == 0.0
    assert stub.requests == []  # no checker call wasted on a refuted lemma


def test_reconstruction_request_carries_lemmas():
    goal = parse_goal("goal g (x: Int) := x + 0 = x /\\ x * 1 = x")
    stub = StubChecker(lambda req: api.accepted())
    proposal = _proposal("goal p1 (a: Int) := a + 0 = a", "goal p2 (a: Int) := a * 1 = a")
    evaluation = _evaluate(goal, proposal, stub, CONFIG)
    assert evaluation.accepted
    assert evaluation.gate.qc_ok_per_lemma == (True, True)
    (request,) = stub.requests
    assert request.kind == KIND_RECONSTRUCTION
    assert [l.name for l in request.lemmas] == ["p1", "p2"]
    assert evaluation.breakdown.d_children == (2, 2)


@pytest.mark.parametrize(
    "verdict,reason",
    [
        (api.rejected("no"), REASON_RECONSTRUCTION),
        (api.timeout(), REASON_RECONSTRUCTION_TIMEOUT),
        (api.checker_error("crashed"), REASON_INFRASTRUCTURE),
    ],
)
def test_checker_failures_map_to_reasons(verdict, reason):
    goal = parse_goal("goal g (x: Int) := x = x")
    stub = StubChecker(lambda req: verdict)
    evaluation = _evaluate(goal, _proposal("goal a (x: Int) := x = x"), stub, CONFIG)
    assert not evaluation.accepted
    assert evaluation.reason == reason


# --- decompose step ----------------------------------------------------------------


def test_refuted_root_disproves_the_run():
    tree = _tree("goal root (x: Int) := 0 <= x")
    trace = _trace()
    outcome = decompose_step(
        tree, tree.nodes["root"], ScriptedPolicy(), CHECKER, CONFIG, trace, 1
    )
    assert outcome.kind == STEP_DISPROVED
    assert outcome.witness is not None and outcome.witness["x"] < 0
    (event,) = trace.events
    assert event["type"] == "goal_disproved"
    assert event["trial_index"] >= 1


def test_refuted_lemma_is_rejected_not_disproved():
    tree = _tree("goal root (x: Int) := x = x")
    root = tree.nodes["root"]
    lemmas = (parse_goal("goal lem (x: Int) := 0 <= x"),)
    (lemma,) = tree.add_lemmas(root, lemmas, 0.5)
    trace = _trace()
    outcome = decompose_step(tree, lemma, ScriptedPolicy(), CHECKER, CONFIG, trace, 1)
    assert outcome.kind == STEP_REJECTED
    assert outcome.reason == REASON_TARGET_QC
    (event,) = trace.events
    assert event["type"] == "decompose_attempt"
    assert event["reason"] == REASON_TARGET_QC
    assert "witness" in event


def test_policy_error_is_a_recorded_rejection():
    tree = _tree("goal root (x: Int) := x = x")
    policy = ScriptedPolicy([PolicyError("backend down")])
    trace = _trace()
    outcome = decompose_step(tree, tree.nodes["root"], policy, CHECKER, CONFIG, trace, 1)
    assert outcome.kind == STEP_REJECTED
    assert "backend down" in outcome.reason
    assert tree.nodes["root"].status == GOAL_OPEN


_LIST_BINDER = (("l", Sort.INT_LIST),)


@pytest.mark.parametrize(
    "body",
    [
        Lt(Var("l"), IntLit(3)),
        Length(Var("l")),
        Eq(Add(Eq(Var("l"), Var("l")), IntLit(0)), IntLit(1)),
    ],
    ids=["list_binder_as_int", "term_as_body", "formula_as_operand"],
)
def test_ill_sorted_lemma_is_a_recorded_rejection(body):
    # No parser stands between an in-process policy and the gate, so the
    # gate checks sorts itself, before quickcheck evaluates the lemma.
    root = parse_goal("goal root (l: IntList) := 0 <= len(l) /\\ len(l) = len(l)")
    lemma = GoalDecl("root_1", _LIST_BINDER, body)
    policy = ScriptedPolicy([DecompositionProposal((lemma,), "entailment")])
    config = replace(CONFIG, decompose_iters=1, complete_iters=0)
    result, trace = run_single(root, policy, CHECKER, config)
    (attempt,) = [e for e in trace.events if e["type"] == "decompose_attempt"]
    assert attempt["reason"] == REASON_ILL_SORTED
    assert attempt["outcome"] == STEP_REJECTED
    assert "gate" not in attempt and "score" not in attempt
    assert result.outcome == OUTCOME_EXHAUSTED


def test_ill_sorted_root_is_a_contract_violation():
    # Search, rollout scoring and policy-first completion all start from a
    # GoalTree, so its constructor is the one place the root is checked.
    root = GoalDecl("r", _LIST_BINDER, Lt(Var("l"), IntLit(0)))
    config = SearchConfig(decompose_iters=1, complete_iters=0)
    with pytest.raises(ContractViolation, match="goal 'r' is ill sorted: .*'<'"):
        run_single(root, DirectSubmit(), BuiltinChecker(Domain()), config)


@pytest.mark.parametrize("depth", [ast_mod.MAX_DEPTH + 1, 1500, 100_000])
def test_a_lemma_over_the_depth_cap_is_listed_by_name_only(depth):
    root = parse_goal("goal root (x: Int) := x = x /\\ x + 0 = x")
    fine = parse_goal("goal fine (x: Int) := x = x")
    body = TrueF()
    for _ in range(depth - 1):
        body = Not(body)
    proposal = DecompositionProposal((fine, GoalDecl("deep", (), body)), "entailment")
    config = replace(CONFIG, decompose_iters=1, complete_iters=0)
    result, trace = run_single(root, ScriptedPolicy([proposal]), CHECKER, config)
    (attempt,) = [e for e in trace.events if e["type"] == "decompose_attempt"]
    assert attempt["reason"] == REASON_ILL_SORTED
    assert attempt["proposal"]["lemmas"] == [
        {"name": "fine", "source": print_goal(fine), "footprint": 1},
        {"name": "deep"},
    ]
    assert result.outcome == OUTCOME_EXHAUSTED


def test_a_pass_k_root_is_checked_and_measured_once(monkeypatch):
    # The parser sorts the root in its loop, and the first footprint stays
    # on the goal, so neither the parse nor any of the k runs walks the root
    # for its sorts, and only the first run measures it.
    sort_walks, footprint_walks = [], []
    sort_of, footprint = ast_mod._sort_of, ast_mod.formula_footprint

    def counting_sort_of(node, scope, depth):
        sort_walks.append(node)
        return sort_of(node, scope, depth)

    def counting_footprint(node):
        footprint_walks.append(node)
        return footprint(node)

    monkeypatch.setattr(ast_mod, "_sort_of", counting_sort_of)
    monkeypatch.setattr(ast_mod, "formula_footprint", counting_footprint)
    root = parse_goal("goal root (x: Int) := x + 0 = x /\\ x * 1 = x")
    config = replace(CONFIG, k_parallel=4)
    result = run_pass_k(root, ConjunctionSplitter(), CHECKER, config, max_workers=1)
    assert [run.decompose_iterations > 0 for run in result.runs] == [True] * 4
    assert sum(node is root.body for node in sort_walks) == 0
    assert sum(node is root.body for node in footprint_walks) == 1


def test_a_goal_the_parser_does_not_clear_is_walked_once(monkeypatch):
    # An ill-sorted text and a well-sorted body of more than MAX_DEPTH nodes
    # (too many for their count to bound the depth) go to the sort walk,
    # once; a copy made by replace gets a check of its own.
    walked = []
    sort_of = ast_mod._sort_of

    def counting_sort_of(node, scope, depth):
        if depth == 1:
            walked.append(node)
        return sort_of(node, scope, depth)

    monkeypatch.setattr(ast_mod, "_sort_of", counting_sort_of)
    with pytest.raises(ParseError, match="'\\+' expects Int, got IntList"):
        parse_goal("goal bad (l: IntList) := l + 1 = 1")
    assert len(walked) == 1
    size = ast_mod.MAX_DEPTH + 1  # x + ... + x = x: n operands, 2n + 1 nodes
    big = parse_goal("goal big (x: Int) := " + " + ".join(["x"] * (size // 2)) + " = x")
    assert big.sort_error is None
    run_single(big, ConjunctionSplitter(), CHECKER, CONFIG)
    assert len(walked) == 2 and walked[1] is big.body

    small = parse_goal("goal small (x: Int) := x + 0 = x")
    assert small.sort_error is None and len(walked) == 2
    assert replace(small).sort_error is None
    assert len(walked) == 3 and walked[2] is small.body


def test_zero_footprint_target_cannot_be_decomposed():
    tree = _tree("goal root := true")
    policy = ScriptedPolicy([_proposal("goal root_1_1 := true")])
    outcome = decompose_step(tree, tree.nodes["root"], policy, CHECKER, CONFIG, _trace(), 1)
    assert outcome.reason == REASON_ZERO_FOOTPRINT


def test_lemma_cap_blocks_oversized_proposals():
    tree = _tree("goal root (x: Int) := x = x /\\ x + 0 = x")
    config = replace(CONFIG, max_open_lemmas=1)
    policy = ScriptedPolicy(
        [_proposal("goal a (x: Int) := x = x", "goal b (x: Int) := x + 0 = x")]
    )
    outcome = decompose_step(tree, tree.nodes["root"], policy, CHECKER, config, _trace(), 1)
    assert outcome.reason == REASON_LEMMA_CAP
    assert tree.inserted_lemmas == 0


def test_duplicate_lemma_names_are_rejected():
    tree = _tree("goal root (x: Int) := x = x")
    dup_inside = _proposal("goal a (x: Int) := x = x", "goal a (x: Int) := x + 0 = x")
    outcome = decompose_step(
        tree, tree.nodes["root"], ScriptedPolicy([dup_inside]), CHECKER, CONFIG, _trace(), 1
    )
    assert outcome.reason == REASON_DUPLICATE_NAME

    clash_with_tree = _proposal("goal root (x: Int) := x = x")
    outcome = decompose_step(
        tree, tree.nodes["root"], ScriptedPolicy([clash_with_tree]), CHECKER, CONFIG, _trace(), 1
    )
    assert outcome.reason == REASON_DUPLICATE_NAME


def test_rejected_reconstruction_leaves_tree_untouched():
    tree = _tree("goal root (x: Int) := x = x")
    stub = StubChecker(lambda req: api.rejected("does not follow"))
    policy = ScriptedPolicy([_proposal("goal a (x: Int) := x + 0 = x")])
    trace = _trace()
    outcome = decompose_step(tree, tree.nodes["root"], policy, stub, CONFIG, trace, 1)
    assert outcome.reason == REASON_RECONSTRUCTION
    assert tree.nodes["root"].status == GOAL_OPEN
    assert tree.inserted_lemmas == 0
    (event,) = trace.events
    assert event["gate"]["reconstruction_ok"] is False
    assert event["score"]["S"] == 0.0


def test_accepted_split_extends_the_tree():
    tree = _tree("goal root (x: Int) := x + 0 = x /\\ x * 1 = x")
    trace = _trace()
    outcome = decompose_step(
        tree, tree.nodes["root"], ConjunctionSplitter(), CHECKER, CONFIG, trace, 1
    )
    assert outcome.kind == STEP_ACCEPTED
    assert tree.nodes["root"].status == GOAL_DECOMPOSED
    assert tree.inserted_lemmas == 2
    children = [n for n in tree.leaves()]
    assert all(c.creation_score == outcome.score.S for c in children)
    (event,) = trace.events
    assert event["outcome"] == STEP_ACCEPTED
    assert [l["name"] for l in event["proposal"]["lemmas"]] == [c.name for c in children]
    assert event["score"]["v"] == 1


def test_accepted_discharge_closes_the_target():
    tree = _tree("goal root (x: Int) := x + 0 = x")
    trace = _trace()
    outcome = decompose_step(
        tree, tree.nodes["root"], DirectSubmit(), CHECKER, CONFIG, trace, 1
    )
    assert outcome.kind == STEP_DISCHARGED
    node = tree.nodes["root"]
    assert node.status == GOAL_DISCHARGED
    assert node.closing_proof == RECON_DIRECT
    assert tree.all_closed()


# --- completion stage ----------------------------------------------------------------


def _completion_tree():
    tree = _tree("goal root (x: Int) := x = x")
    root = tree.nodes["root"]
    lemmas = (parse_goal("goal leaf (x: Int) := x + 0 = x"),)
    tree.add_lemmas(root, lemmas, 0.5)
    return tree


def test_completion_feedback_accumulates_until_acceptance():
    tree = _completion_tree()
    calls = {"n": 0}

    def fn(request):
        calls["n"] += 1
        return api.accepted() if calls["n"] >= 3 else api.rejected(f"try {calls['n']}")

    policy = ScriptedPolicy()
    trace = _trace()
    sweeps, audit_failures = completion_stage(
        tree, policy, StubChecker(fn), CONFIG, trace, deadline=float("inf")
    )
    assert sweeps == 3
    assert audit_failures == 0
    leaf = tree.nodes["leaf"]
    assert leaf.status == GOAL_PROVED
    assert leaf.closing_attempt == 3
    histories = [len(ctx.feedback_history) for ctx in policy.completion_contexts]
    assert histories == [0, 1, 2]
    assert [e["verdict"]["status"] for e in trace.events] == ["rejected", "rejected", "accepted"]


def test_disallowed_axiom_reverts_the_acceptance():
    tree = _completion_tree()
    stub = StubChecker(lambda req: api.accepted(axioms=("propext", "Lean.ofReduceBool")))
    config = replace(CONFIG, complete_iters=3)
    trace = _trace()
    sweeps, audit_failures = completion_stage(
        tree, ScriptedPolicy(), stub, config, trace, deadline=float("inf")
    )
    assert sweeps == 3
    assert audit_failures == 3
    assert tree.nodes["leaf"].status == GOAL_OPEN
    assert all(e["audit_ok"] is False for e in trace.events)
    assert all(e["verdict"]["axioms"] == ["propext", "Lean.ofReduceBool"] for e in trace.events)


def test_allowlisted_axioms_pass_the_audit():
    tree = _completion_tree()
    stub = StubChecker(
        lambda req: api.accepted(axioms=("propext", "Classical.choice", "Quot.sound"))
    )
    sweeps, audit_failures = completion_stage(
        tree, ScriptedPolicy(), stub, CONFIG, _trace(), deadline=float("inf")
    )
    assert sweeps == 1 and audit_failures == 0
    assert tree.nodes["leaf"].status == GOAL_PROVED


def test_completion_policy_error_skips_that_leaf():
    tree = _completion_tree()
    config = replace(CONFIG, complete_iters=2)
    policy = ScriptedPolicy(completion_proof=PolicyError("no ideas"))
    trace = _trace()
    sweeps, _ = completion_stage(
        tree, policy, CHECKER, config, trace, deadline=float("inf")
    )
    assert sweeps == 2
    assert tree.nodes["leaf"].status == GOAL_OPEN
    assert all("no ideas" in e["error"] for e in trace.events)


def test_each_sweep_attempts_every_open_leaf():
    tree = _tree("goal root (x: Int) := x = x /\\ x + 0 = x")
    root = tree.nodes["root"]
    lemmas = (parse_goal("goal a (x: Int) := x = x"), parse_goal("goal b (x: Int) := x + 0 = x"))
    tree.add_lemmas(root, lemmas, 0.5)
    trace = _trace()
    sweeps, _ = completion_stage(
        tree, ScriptedPolicy(), CHECKER, CONFIG, trace, deadline=float("inf")
    )
    assert sweeps == 1
    assert [e["lemma"] for e in trace.events] == ["a", "b"]
    assert tree.all_closed()


# --- single runs ------------------------------------------------------------------


def test_run_single_proves_a_conjunction_via_split():
    goal = parse_goal("goal conj (x: Int) := x + 0 = x /\\ x * 1 = x")
    result, trace = run_single(goal, ConjunctionSplitter(), CHECKER, CONFIG)
    assert result.outcome == OUTCOME_PROVED and result.proved
    assert result.lemma_count == 2
    assert result.proof_lines is None  # decide directives carry no proof text
    types = [e["type"] for e in trace.events]
    assert types[0] == "decompose_attempt"
    assert "stage_transition" in types
    assert types[-1] == "run_end"
    assert trace.events[-1]["outcome"] == OUTCOME_PROVED


def test_run_single_disproves_a_refutable_root():
    goal = parse_goal("goal bad (x: Int) := 0 <= x")
    result, trace = run_single(goal, DirectSubmit(), CHECKER, CONFIG)
    assert result.outcome == OUTCOME_DISPROVED
    assert result.witness is not None and result.witness["x"] < 0
    assert result.complete_iterations == 0
    assert trace.events[-1]["outcome"] == OUTCOME_DISPROVED
    assert trace.events[-1]["witness"]["x"] == result.witness["x"]


def test_run_single_exhausts_when_nothing_closes():
    goal = parse_goal("goal stuck (x: Int) := x + 0 = x")
    stub = StubChecker(lambda req: api.timeout())
    config = replace(CONFIG, decompose_iters=0, complete_iters=3)
    result, trace = run_single(goal, DirectSubmit(), stub, config)
    assert result.outcome == OUTCOME_EXHAUSTED
    assert result.open_leaves == 1
    assert result.complete_iterations == 3
    assert trace.events[-1]["outcome"] == OUTCOME_EXHAUSTED


def test_a_budget_bound_root_is_not_disproved():
    # Every quickcheck trial runs out of node budget on this goal; that is
    # no witness, so the run goes on and exhausts instead.
    goal = parse_goal("goal g := forall a: IntList, forall b: IntList, a ++ b = a ++ b")
    domain = Domain(node_budget=20_000)
    config = replace(CONFIG, domain=domain, decompose_iters=2, complete_iters=2)
    result, _ = run_single(goal, DirectSubmit(), BuiltinChecker(domain), config)
    assert result.outcome == OUTCOME_EXHAUSTED
    assert result.witness is None


def test_run_single_respects_the_wall_budget():
    goal = parse_goal("goal quick (x: Int) := x + 0 = x")
    config = replace(CONFIG, wall_budget_secs=1e-9)
    result, _ = run_single(goal, DirectSubmit(), CHECKER, config)
    assert result.outcome == OUTCOME_EXHAUSTED
    assert result.decompose_iterations == 0
    assert result.complete_iterations == 0


def test_run_single_forks_the_policy_with_the_config_seed():
    goal = parse_goal("goal g (x: Int) := x + 0 = x")
    policy = ScriptedPolicy()
    config = replace(CONFIG, seed=12345)
    run_single(goal, policy, CHECKER, config)
    assert policy.fork_seeds == [12345]


def test_identical_runs_produce_byte_identical_traces():
    # A valid goal, so the runs go through decomposition and checker calls
    # instead of ending at the first quickcheck.
    goal = parse_goal("goal conj (x: Int) := x + 0 = x /\\ (x * 1 = x /\\ x <= x + 5)")
    policy = StochasticPolicy(0, DOMAIN)
    config = replace(CONFIG, seed=42)
    result_a, trace_a = run_single(goal, policy, CHECKER, config)
    # Use the same (now state-advanced) policy object: fork must reset it.
    result_b, trace_b = run_single(goal, policy, CHECKER, config)
    assert result_a.outcome == result_b.outcome == OUTCOME_PROVED
    assert trace_a.to_jsonl() == trace_b.to_jsonl()


def test_traces_carry_no_wall_clock_fields():
    goal = parse_goal("goal conj (x: Int) := x + 0 = x /\\ x * 1 = x")
    _, trace = run_single(goal, ConjunctionSplitter(), CHECKER, CONFIG)
    text = trace.to_jsonl()
    assert "wall_time" not in text
    assert "elapsed" not in text


def _trace_lines() -> list[dict]:
    goal = parse_goal("goal conj (x: Int) := x + 0 = x /\\ x * 1 = x")
    config = replace(CONFIG, decompose_iters=1)
    _, trace = run_single(goal, ConjunctionSplitter(), CHECKER, config)
    return [trace.header, *trace.events]


def test_a_written_trace_reads_back_as_written():
    lines = _trace_lines()
    assert [e["type"] for e in lines[1:]] == [
        "decompose_attempt", "stage_transition", "complete_attempt", "complete_attempt", "run_end",
    ]
    text = "\n".join(json.dumps(line) for line in lines)
    parsed = parse_trace(text)
    assert [parsed.header, *parsed.events] == lines


@pytest.mark.parametrize(
    "line, edit, message",
    [
        (0, lambda e: e.pop("run_id"), "line 1: config lacks key 'run_id'"),
        (1, lambda e: e.pop("outcome"), "line 2: decompose_attempt lacks key 'outcome'"),
        (1, lambda e: e.update(reason=3), "line 2: decompose_attempt key 'reason' must be string or null, not integer"),
        (2, lambda e: e.update(lemma_count=True), "line 3: stage_transition key 'lemma_count' must be integer, not boolean"),
        (3, lambda e: e.update(audit_ok=1), "line 4: complete_attempt key 'audit_ok' must be boolean or null, not integer"),
        (5, lambda e: e.pop("seq"), "line 6: run_end lacks key 'seq'"),
        (5, lambda e: e.update(type="run_stop"), "line 6: unknown event type 'run_stop'"),
        (5, lambda e: e.pop("type"), "line 6: unknown event type None"),
        (1, lambda e: e.update(score=None), "line 2: decompose_attempt key 'score' must be object, not null"),
        (1, lambda e: e["score"].pop("S"), "line 2: decompose_attempt score lacks key 'S'"),
        (1, lambda e: e["score"].update(r="1"), "line 2: decompose_attempt score key 'r' must be number or integer, not string"),
        (1, lambda e: e["gate"].update(qc_ok=True), "line 2: decompose_attempt gate key 'qc_ok' must be array, not boolean"),
        (1, lambda e: e.update(witness=[]), "line 2: decompose_attempt key 'witness' must be object, not array"),
        (1, lambda e: e.update(trial_index=1.0), "line 2: decompose_attempt key 'trial_index' must be integer, not number"),
        (3, lambda e: e.update(proof_lines="2"), "line 4: complete_attempt key 'proof_lines' must be integer, not string"),
        (3, lambda e: e.update(error=None), "line 4: complete_attempt key 'error' must be string, not null"),
        (0, lambda e: e.update(elapsed=1), "line 1: config has unknown keys ['elapsed']"),
        (1, lambda e: e.update(elapsed=1), "line 2: decompose_attempt has unknown keys ['elapsed']"),
        (1, lambda e: e["score"].update(T=1.0), "line 2: decompose_attempt score has unknown keys ['T']"),
        (1, lambda e: e["gate"].update(audit_ok=True), "line 2: decompose_attempt gate has unknown keys ['audit_ok']"),
        (5, lambda e: e.update(stop_reason="cap", b=0), "line 6: run_end has unknown keys ['b', 'stop_reason']"),
    ],
    ids=[
        "header_key", "missing", "wrong_type", "bool_not_int", "int_not_bool", "seq", "unknown", "untyped",
        "score_null", "score_key", "score_type", "gate_type", "witness_type", "trial_index_type",
        "proof_lines_type", "error_type", "header_extra", "event_extra", "score_extra", "gate_extra",
        "two_extras",
    ],
)
def test_trace_reader_names_the_line_event_and_key(line, edit, message):
    lines = _trace_lines()
    edit(lines[line])
    with pytest.raises(ContractViolation) as info:
        parse_trace("\n".join(json.dumps(e) for e in lines))
    assert str(info.value) == message


def test_lemma_binder_capture_cannot_prove_a_refutable_root():
    # The lemma is valid, but renaming a onto x under its own exists x used
    # to make the premise false everywhere, so the entailment held vacuously.
    # Quickcheck's generator range makes it miss (1, 2, 3), so only the
    # checker stands between this proposal and a false proof.
    goal = parse_goal("goal g (x: Int) (y: Int) (z: Int) := !(x = 1 /\\ y = 2 /\\ z = 3)")
    policy = ScriptedPolicy([
        _proposal("goal g_1_1 (a: Int) (b: Int) (c: Int) := exists x: Int, !(x = a)"),
    ])
    config = replace(CONFIG, decompose_iters=1, complete_iters=1)
    result, trace = run_single(goal, policy, CHECKER, config)
    assert result.outcome == OUTCOME_EXHAUSTED
    assert trace.events[0]["reason"] == REASON_RECONSTRUCTION


def test_count_proof_lines_ignores_directive_only_proofs():
    tree = _completion_tree()
    leaf = tree.nodes["leaf"]
    leaf.status = GOAL_PROVED
    leaf.closing_proof = DIRECT_PROOF_DIRECTIVE
    assert _count_proof_lines(tree) is None
    leaf.closing_proof = "intro x\nsimp\nring"
    assert _count_proof_lines(tree) == 3


# --- pass@k ---------------------------------------------------------------------


class JunkPolicy:
    """Proposes one unsatisfiable lemma forever; completion text is garbage."""

    def propose_decomposition(self, context):
        lemma = parse_goal(f"goal {context.goal.name}_junk := 0 < 0")
        return DecompositionProposal(lemmas=(lemma,), reconstruction="entailment")

    def propose_completion(self, context):
        return "sorry"

    def fork(self, seed):
        return self


class ParityPolicy:
    """Forks to a useless policy on even seeds, a working one on odd."""

    def propose_decomposition(self, context):
        raise AssertionError("the unforked parent must never be consulted")

    propose_completion = propose_decomposition

    def fork(self, seed):
        if seed % 2 == 0:
            return JunkPolicy()
        return DirectSubmit()


def test_pass_k_seeds_and_first_success():
    goal = parse_goal("goal g (x: Int) := x + 0 = x")
    config = replace(CONFIG, k_parallel=4, seed=0, decompose_iters=2, complete_iters=2)
    result = run_pass_k(goal, ParityPolicy(), CHECKER, config)
    assert result.solved
    assert result.first_success_run == 2  # run 0 got seed 0: the dud policy
    assert [r.seed for r in result.runs] == [0 ^ 0, 0 ^ 1, 0 ^ 2, 0 ^ 3]
    assert [r.run_index for r in result.runs] == [0, 1, 2, 3]
    assert [r.outcome for r in result.runs] == [
        OUTCOME_EXHAUSTED,
        OUTCOME_PROVED,
        OUTCOME_EXHAUSTED,
        OUTCOME_PROVED,
    ]
    assert len(result.traces) == 4
    assert all(t.header["config"]["k_parallel"] == 1 for t in result.traces)
    assert not result.disproved


def test_pass_k_on_refutable_goal_reports_disproof():
    goal = parse_goal("goal bad (x: Int) := 0 <= x")
    config = replace(CONFIG, k_parallel=2)
    result = run_pass_k(goal, DirectSubmit(), CHECKER, config)
    assert not result.solved
    assert result.first_success_run is None
    assert result.disproved


def test_pass_k_threaded_matches_sequential():
    goal = parse_goal("goal conj (x: Int) := x + 0 = x /\\ (x * 1 = x /\\ x <= x + 5)")
    config = replace(CONFIG, k_parallel=4, seed=9)
    policy = StochasticPolicy(0, DOMAIN)
    sequential = run_pass_k(goal, policy, CHECKER, config, max_workers=1)
    threaded = run_pass_k(goal, policy, CHECKER, config, max_workers=4)
    assert [r.outcome for r in sequential.runs] == [OUTCOME_PROVED] * 4
    assert [t.to_jsonl() for t in sequential.traces] == [t.to_jsonl() for t in threaded.traces]


# --- the config header ------------------------------------------------------------

# Every field of a SearchConfig and of its qc, score and domain parts, drawn
# from valid values; a field that takes both ints and floats gets both.
CONFIGS = st.builds(
    SearchConfig,
    decompose_iters=st.integers(0, 3),
    max_open_lemmas=st.integers(0, 4),
    complete_iters=st.integers(0, 2),
    wall_budget_secs=st.one_of(st.integers(60, 10**6), st.floats(60.0, 1e6)),
    k_parallel=st.integers(1, 3),
    check_timeout_ms=st.integers(1, 10**6),
    seed=st.sampled_from([0, 1, 2**64 - 1]),
    target_strategy=st.sampled_from([TARGET_HIGHEST_FOOTPRINT, TARGET_HIGHEST_SCORE]),
    qc=st.builds(
        QcConfig,
        trials=st.integers(1, 20),
        seed=st.integers(0, 2**64 - 1),
        gen_int_lo=st.integers(-20, 0),
        gen_int_hi=st.integers(0, 20),
        gen_max_list_len=st.integers(0, 4),
        gen_elem_lo=st.one_of(st.none(), st.integers(-5, 0)),
        gen_elem_hi=st.one_of(st.none(), st.integers(0, 5)),
    ),
    score=st.builds(ScoreConfig, temperature=st.one_of(st.integers(1, 4), st.floats(0.01, 100.0))),
    domain=st.builds(
        Domain,
        int_lo=st.integers(-3, 0),
        int_hi=st.integers(0, 3),
        max_list_len=st.integers(0, 2),
        elem_lo=st.integers(-2, 0),
        elem_hi=st.integers(0, 2),
        node_budget=st.integers(1, 50_000),
    ),
)
HEADER_GOALS = [
    parse_goal("goal bad (x: Int) := x < 3"),
    parse_goal("goal conj (x: Int) (l: IntList) := x + 0 = x /\\ len(l) >= 0"),
]


def _assert_header_is_written_as_snapshot(trace: RunTrace, run_config: SearchConfig) -> None:
    text = trace.to_jsonl()
    assert text.split("\n", 1)[0] == canonical_json(trace.header)
    assert trace.header["config"] == run_config.snapshot()
    # By text as well: 1 and 1.0 are equal values.
    assert canonical_json(trace.header["config"]) == canonical_json(run_config.snapshot())
    assert parse_trace(text).to_jsonl() == text


@settings(max_examples=60, deadline=None)
@given(config=CONFIGS, other=CONFIGS, goal=st.sampled_from(HEADER_GOALS))
def test_a_run_header_line_is_the_canonical_text_of_its_header(config, other, goal):
    result = run_pass_k(
        goal, StochasticPolicy(0, config.domain), BuiltinChecker(config.domain), config, max_workers=1
    )
    for i, trace in enumerate(result.traces):
        _assert_header_is_written_as_snapshot(trace, replace(config, seed=config.seed ^ i, k_parallel=1))
    # One field at a time from another config, every other field shared.
    for name in (f.name for f in fields(SearchConfig)):
        run_config = replace(config, **{name: getattr(other, name)})
        domain = run_config.domain
        _, trace = run_single(goal, StochasticPolicy(0, domain), BuiltinChecker(domain), run_config)
        _assert_header_is_written_as_snapshot(trace, run_config)


def test_configs_equal_but_for_value_types_keep_their_own_header_text():
    goal = HEADER_GOALS[0]
    whole, real = ScoreConfig(temperature=2), ScoreConfig(temperature=2.0)
    lines = []
    for score, budget in [(whole, 60), (whole, 60.0), (real, 60), (whole, 60)]:
        config = replace(CONFIG, score=score, wall_budget_secs=budget)
        _, trace = run_single(goal, DirectSubmit(), CHECKER, config)
        lines.append(trace.to_jsonl().split("\n", 1)[0])
    assert '"score":{"temperature":2}' in lines[0] and lines[0].endswith(
        '"wall_budget_secs":60},"format_version":1,"problem":"bad","run_id":"bad.r0.s0",'
        '"run_index":0,"seed":0,"type":"config"}'
    )
    assert lines[1] == lines[0].replace('"wall_budget_secs":60}', '"wall_budget_secs":60.0}')
    assert lines[2] == lines[0].replace('"temperature":2}', '"temperature":2.0}')
    assert lines[3] == lines[0]


@pytest.mark.parametrize("workers", [1, 2], ids=["sequential", "threaded"])
def test_pass_k_encodes_its_config_once(monkeypatch, workers):
    snapshots = []
    snapshot = SearchConfig.snapshot

    def counting_snapshot(config):
        snapshots.append(config.seed)
        time.sleep(0.05)  # long enough for the other fan-out runs to ask for the header
        return snapshot(config)

    monkeypatch.setattr(SearchConfig, "snapshot", counting_snapshot)
    config = replace(CONFIG, k_parallel=4, seed=5)
    goal = parse_goal("goal conj (x: Int) := x + 0 = x /\\ (x * 1 = x /\\ x <= x + 5)")
    result = run_pass_k(goal, StochasticPolicy(0, DOMAIN), CHECKER, config, max_workers=workers)
    assert [t.header["seed"] for t in result.traces] == [5, 4, 7, 6]
    # Once per call; since Python 3.12 a cached_property takes no lock, so
    # each fan-out worker may build it once.
    assert snapshots[:1] == [5] and len(snapshots) <= workers
    # Another call encodes its own copy of the config.
    snapshots.clear()
    run_pass_k(HEADER_GOALS[0], DirectSubmit(), CHECKER, config, max_workers=workers)
    assert snapshots[:1] == [5] and len(snapshots) <= workers


def test_a_run_leaves_the_config_snapshot_its_fields():
    config = replace(CONFIG, seed=9)
    run_single(HEADER_GOALS[1], ConjunctionSplitter(), CHECKER, config, run_index=2)
    assert list(config.snapshot()) == [f.name for f in fields(SearchConfig)]


def test_run_single_with_a_run_index_is_that_run_of_pass_k():
    config = replace(CONFIG, seed=6)
    goal = parse_goal("goal conj (x: Int) (l: IntList) := x + 0 = x /\\ len(l) >= 0")
    result = run_pass_k(goal, StochasticPolicy(0, DOMAIN), CHECKER, replace(config, k_parallel=3), max_workers=1)
    for i, trace in enumerate(result.traces):
        run, alone = run_single(goal, StochasticPolicy(0, DOMAIN), CHECKER, config, run_index=i)
        assert alone.to_jsonl() == trace.to_jsonl()
        assert run == result.runs[i]


def test_the_config_sorts_first_among_the_header_keys():
    # ``RunTrace.to_jsonl`` splices the config's text in first.
    assert min(TRACE_HEADER) == "config"
    assert RunTrace.new("p", 0, 0, {}).header.keys() == TRACE_HEADER.keys()


# sha256 of every run's trace for PIN_GOALS, recorded before training's
# completion records came from completion_stage.  With a one-slot pool per
# run the pool counters in run_end are deterministic too.
PIN_DOMAIN = Domain(node_budget=25_000)
PIN_CONFIG = SearchConfig(
    decompose_iters=6, complete_iters=2, k_parallel=2, qc=QcConfig(trials=100, seed=0), domain=PIN_DOMAIN
)
PIN_GOALS = [random_goal(s, f"g{s}") for s in range(30)] + [
    wide_conjunction_goal(f"w{n}", n) for n in (3, 5, 7)
]
PASS_K_TRACE_PINS = {
    False: "269eeb56c37fa88e46b3701d55fc63e425700cd8b5c3969e3f27fc336c71f9dc",
    True: "6f2d2c99324119e89e935d278db4a38e853195805d2e5ac2759c6f3f6c15717b",
}


@pytest.mark.parametrize("pooled", [False, True], ids=["no_pool", "one_slot_pool"])
def test_pass_k_traces_are_pinned(pooled):
    digest = hashlib.sha256()
    outcomes = set()
    for goal in PIN_GOALS:
        checker = BuiltinChecker(PIN_DOMAIN)
        factory = None
        if pooled:
            def factory():
                return VerificationPool(checker, PoolConfig(max_concurrent=1))
        result = run_pass_k(
            goal,
            StochasticPolicy(0, PIN_DOMAIN, split_depth=3),
            checker,
            replace(PIN_CONFIG, seed=mix_seed(0, goal.name)),
            pool_factory=factory,
        )
        outcomes.update(run.outcome for run in result.runs)
        for trace in result.traces:
            text = trace.to_jsonl()
            # Every line the writer emits matches the reader's key table.
            parse_trace(text)
            digest.update(text.encode())
    assert outcomes == {OUTCOME_DISPROVED, OUTCOME_PROVED, OUTCOME_EXHAUSTED}
    assert digest.hexdigest() == PASS_K_TRACE_PINS[pooled]


def test_runs_on_a_refuted_root_seed_no_policy_generator(monkeypatch):
    seeded = []

    def counting_random(seed):
        seeded.append(seed)
        return random.Random(seed)

    monkeypatch.setattr(builtin_mod, "random", SimpleNamespace(Random=counting_random))
    config = replace(PIN_CONFIG, k_parallel=4, seed=3)
    policy = StochasticPolicy(0, PIN_DOMAIN)
    refuted = run_pass_k(parse_goal("goal bad (x: Int) := x < 3"), policy, CHECKER, config, max_workers=1)
    assert [run.outcome for run in refuted.runs] == [OUTCOME_DISPROVED] * 4
    assert seeded == []
    # The same count sees the generators of runs that do draw.
    proved = run_pass_k(parse_goal("goal ok (x: Int) := x = x /\\ x <= x"), policy, CHECKER, config, max_workers=1)
    assert [run.outcome for run in proved.runs] == [OUTCOME_PROVED] * 4
    assert seeded == [3, 2, 1, 0]


def test_importing_the_package_does_not_load_the_thread_pool():
    # run_pass_k imports concurrent.futures (and with it logging and
    # traceback) only when it fans out.
    src = str(Path(search_mod.__file__).resolve().parents[1])
    code = "import sys, provekit, provekit.cli; print('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60, check=True
    )
    assert out.stdout.strip() == "False"


class _RecordingPool:
    def __init__(self, checker, log):
        self.checker = checker
        self.log = log
        self.submitted = 0

    def submit(self, request, timeout_ms=None):
        self.submitted += 1
        return self.checker.check(request, timeout_ms or 1000)

    def await_verdict(self, verdict):
        return verdict

    def stats(self):
        return SimpleNamespace(
            submitted=self.submitted,
            completed=self.submitted,
            timed_out=0,
            cancelled=0,
            peak_in_flight=1 if self.submitted else 0,
        )

    def shutdown(self):
        self.log.append(self)


def test_pass_k_builds_and_shuts_down_one_pool_per_run():
    goal = parse_goal("goal g (x: Int) := x + 0 = x")
    config = replace(CONFIG, k_parallel=3, decompose_iters=0, complete_iters=1)
    closed = []
    factory_calls = []

    def factory():
        pool = _RecordingPool(CHECKER, closed)
        factory_calls.append(pool)
        return pool

    result = run_pass_k(goal, DirectSubmit(), CHECKER, config, pool_factory=factory)
    assert len(factory_calls) == 3
    assert closed == factory_calls  # every pool shut down, in run order
    assert all(r.proved for r in result.runs)
    assert all(t.events[-1]["pool"]["submitted"] == 1 for t in result.traces)


class _BudgetRecorder:
    """The builtin checker, recording the kind and budget of every check."""

    def __init__(self, domain: Domain):
        self.inner = BuiltinChecker(domain)
        self.seen: list[tuple[str, int]] = []
        self._lock = threading.Lock()

    def check(self, request, timeout_ms):
        with self._lock:
            self.seen.append((request.kind, timeout_ms))
        return self.inner.check(request, timeout_ms)


def test_pooled_completion_checks_get_the_search_check_budget():
    # The budget differs from the 300,000 ms default, so a pool that capped
    # or replaced a job's timeout with one of its own would show here.
    config = SearchConfig(
        decompose_iters=1, complete_iters=2, check_timeout_ms=400_000, qc=QcConfig(trials=50)
    )
    goal = parse_goal("goal g (x: Int) (y: Int) (z: Int) := x + y + z = z + y + x /\\ x * y = y * x")
    checker = _BudgetRecorder(config.domain)
    with VerificationPool(checker, PoolConfig()) as pool:
        result, _ = run_single(goal, ConjunctionSplitter(), checker, config, pool=pool)
    kinds = [kind for kind, _ in checker.seen]
    assert KIND_RECONSTRUCTION in kinds and KIND_COMPLETION in kinds
    assert {budget for _, budget in checker.seen} == {config.check_timeout_ms}
    assert pool.stats().submitted == kinds.count(KIND_COMPLETION)
    assert result.proved


# --- gate quickcheck memo ------------------------------------------------------------


def _count_gate_quickchecks(monkeypatch) -> list[str]:
    calls = []

    def counting(goal, qc, domain):
        calls.append(goal.name)
        return quickcheck(goal, qc, domain)

    monkeypatch.setattr(search_mod, "quickcheck", counting)
    search_mod._gate_qc_memo.cache_clear()
    return calls


def test_gate_quickchecks_run_once_per_goal(monkeypatch):
    calls = _count_gate_quickchecks(monkeypatch)
    outcomes = []
    for _ in range(2):
        tree = _tree("goal memo (x: Int) := x + 0 = x /\\ x * 1 = x")
        outcome = decompose_step(
            tree, tree.nodes["memo"], ConjunctionSplitter(), CHECKER, CONFIG, _trace(), 1
        )
        outcomes.append((outcome.kind, outcome.score))
    assert outcomes[0] == outcomes[1] == (STEP_ACCEPTED, outcomes[0][1])
    # The target check, then one check per lemma; the second step hits.
    assert calls == ["memo", "memo_1_1", "memo_1_2"]


def test_gate_memo_keeps_each_goal_name_s_counterexample(monkeypatch):
    # Quickcheck seeds its trials from the goal name, so alpha-equal goals
    # with different names must not share an outcome.
    calls = _count_gate_quickchecks(monkeypatch)
    seen = []
    for name in ("first", "second"):
        tree = _tree(f"goal {name} (x: Int) := x < 60")
        trace = _trace()
        outcome = decompose_step(tree, tree.nodes[name], ScriptedPolicy(), CHECKER, CONFIG, trace, 1)
        expected = quickcheck(tree.nodes[name].goal, CONFIG.qc, CONFIG.domain)
        assert outcome.kind == STEP_DISPROVED
        assert outcome.witness == expected.witness
        assert trace.events[0]["trial_index"] == expected.trial_index
        seen.append((expected.trial_index, expected.witness))
    assert seen[0] != seen[1]
    assert calls == ["first", "second"]


def test_gate_memo_runs_a_key_once_across_threads(monkeypatch):
    # Fan-out threads that miss on one key together must not both run the
    # quickcheck; the stub sleeps so that, unserialised, both would miss.
    calls = []

    def slow(goal, qc, domain):
        calls.append(goal.name)
        time.sleep(0.2)
        return quickcheck(goal, qc, domain)

    monkeypatch.setattr(search_mod, "quickcheck", slow)
    search_mod._gate_qc_memo.cache_clear()
    goal = parse_goal("goal shared (x: Int) := x + 0 = x")
    start = threading.Barrier(2)
    outcomes = []

    def ask():
        start.wait()
        outcomes.append(search_mod._gate_quickcheck(goal, CONFIG.qc, CONFIG.domain))

    threads = [threading.Thread(target=ask) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert calls == ["shared"]
    assert outcomes == [quickcheck(goal, CONFIG.qc, CONFIG.domain)] * 2


def test_pass_k_traces_do_not_depend_on_memo_state(monkeypatch):
    decides = []
    real = builtin_mod.decide_bounded

    def counting(goal, domain):
        decides.append(goal)
        return real(goal, domain)

    monkeypatch.setattr(builtin_mod, "decide_bounded", counting)
    goal = parse_goal("goal conj (x: Int) := x + 0 = x /\\ (x * 1 = x /\\ x - x = 0)")
    config = replace(CONFIG, k_parallel=4, seed=3)
    policy = StochasticPolicy(0, DOMAIN)

    search_mod._gate_qc_memo.cache_clear()
    fresh = run_pass_k(goal, policy, BuiltinChecker(DOMAIN), config, max_workers=1)
    cold_decides = len(decides)

    warmed = BuiltinChecker(DOMAIN)
    for other in ("goal other (y: Int) := y * 1 = y /\\ y - y = 0", "goal bad (x: Int) := 0 <= x"):
        run_pass_k(parse_goal(other), policy, warmed, config, max_workers=1)
    first = run_pass_k(goal, policy, warmed, config, max_workers=1)
    decides.clear()
    again = run_pass_k(goal, policy, warmed, config, max_workers=1)

    expected = [t.to_jsonl() for t in fresh.traces]
    assert [t.to_jsonl() for t in first.traces] == expected
    assert [t.to_jsonl() for t in again.traces] == expected
    assert cold_decides > 0 and decides == []
