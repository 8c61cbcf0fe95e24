"""Two-stage search: gates, tree bookkeeping, determinism, pass@k."""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import pytest

import provekit.prover.builtin as builtin_mod
import provekit.search as search_mod
from provekit.errors import ContractViolation, PolicyError
from provekit.evaluator import Domain
from provekit.lang import parse_goal
from provekit.prover import (
    ACCEPTED,
    DIRECT_PROOF_DIRECTIVE,
    KIND_DIRECT,
    KIND_RECONSTRUCTION,
    RECON_DIRECT,
    BuiltinChecker,
    CheckRequest,
    CompletionAttempt,
    ConjunctionSplitter,
    DecompositionProposal,
    DirectSubmit,
    StochasticPolicy,
)
from provekit.prover import api
from provekit.quickcheck import QcConfig, quickcheck
from provekit.search import (
    GOAL_DECOMPOSED,
    GOAL_DISCHARGED,
    GOAL_OPEN,
    GOAL_PROVED,
    OUTCOME_DISPROVED,
    OUTCOME_EXHAUSTED,
    OUTCOME_PROVED,
    REASON_DUPLICATE_NAME,
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
from provekit.trace import RunTrace

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
        return CompletionAttempt(
            proof_text=self.completion_proof,
            attempt_index=len(context.feedback_history) + 1,
        )

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
    children = tree.add_lemmas(root, lemmas, score=0.7)
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
    tree.add_lemmas(
        root,
        (
            parse_goal("goal small (x: Int) := x = x"),
            parse_goal("goal big (x: Int) := x + 0 = x /\\ x * 1 = x"),
            parse_goal("goal twin (x: Int) := x * 1 = x /\\ x + 0 = x"),
        ),
        score=0.5,
    )
    target = select_target(tree, CONFIG.target_strategy)
    assert target is not None and target.name == "big"  # ties break to earliest


def test_select_target_by_creation_score():
    tree = _tree("goal root := 0 = 0 /\\ 1 = 1")
    root = tree.nodes["root"]
    (weak,) = tree.add_lemmas(root, (parse_goal("goal weak := 0 = 0"),), score=0.2)
    strong = tree.add_lemmas(root, (parse_goal("goal strong := 1 = 1"),), score=0.9)[0]
    assert weak.footprint == strong.footprint
    target = select_target(tree, TARGET_HIGHEST_SCORE)
    assert target is not None and target.name == "strong"


def test_select_target_returns_none_when_all_closed():
    tree = _tree("goal root := 0 = 0")
    tree.nodes["root"].status = GOAL_PROVED
    assert select_target(tree, CONFIG.target_strategy) is None


# --- proposal gate ---------------------------------------------------------------


def test_discharge_proposal_sends_a_direct_check():
    goal = parse_goal("goal g (x: Int) := x + 0 = x")
    stub = StubChecker(lambda req: api.accepted())
    evaluation = evaluate_proposal(goal, _proposal(reconstruction=RECON_DIRECT), stub, CONFIG)
    assert evaluation.accepted
    assert evaluation.breakdown.S == 1.0 and evaluation.breakdown.r == 1.0
    (request,) = stub.requests
    assert request.kind == KIND_DIRECT
    assert request.proof_text == RECON_DIRECT


def test_discharging_an_operator_free_goal_is_full_reduction():
    goal = parse_goal("goal g := true")
    stub = StubChecker(lambda req: api.accepted())
    evaluation = evaluate_proposal(goal, _proposal(reconstruction=RECON_DIRECT), stub, CONFIG)
    assert evaluation.accepted
    assert evaluation.breakdown.d_parent == 0
    assert evaluation.breakdown.S == 1.0


def test_falsified_lemma_skips_the_checker():
    goal = parse_goal("goal g (x: Int) := x = x")
    stub = StubChecker(lambda req: api.accepted())
    evaluation = evaluate_proposal(goal, _proposal("goal bad := 0 < 0"), stub, CONFIG)
    assert not evaluation.accepted
    assert evaluation.reason == REASON_QC_FAILED
    assert evaluation.qc_ok == (False,)
    assert evaluation.breakdown.S == 0.0
    assert stub.requests == []  # no checker call wasted on a refuted lemma


def test_reconstruction_request_carries_lemmas():
    goal = parse_goal("goal g (x: Int) := x + 0 = x /\\ x * 1 = x")
    stub = StubChecker(lambda req: api.accepted())
    proposal = _proposal("goal p1 (a: Int) := a + 0 = a", "goal p2 (a: Int) := a * 1 = a")
    evaluation = evaluate_proposal(goal, proposal, stub, CONFIG)
    assert evaluation.accepted
    assert evaluation.qc_ok == (True, True)
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
    evaluation = evaluate_proposal(goal, _proposal("goal a (x: Int) := x = x"), stub, CONFIG)
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
    (lemma,) = tree.add_lemmas(root, (parse_goal("goal lem (x: Int) := 0 <= x"),), score=0.5)
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
    tree.add_lemmas(root, (parse_goal("goal leaf (x: Int) := x + 0 = x"),), score=0.5)
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
    tree.add_lemmas(
        root,
        (parse_goal("goal a (x: Int) := x = x"), parse_goal("goal b (x: Int) := x + 0 = x")),
        score=0.5,
    )
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
    goal = parse_goal("goal conj (x: Int) := x + 0 = x /\\ (x * 1 = x /\\ 0 <= x + 5)")
    policy = StochasticPolicy(0, DOMAIN)
    config = replace(CONFIG, seed=42)
    _, trace_a = run_single(goal, policy, CHECKER, config)
    # Use the same (now state-advanced) policy object: fork must reset it.
    _, trace_b = run_single(goal, policy, CHECKER, config)
    assert trace_a.to_jsonl() == trace_b.to_jsonl()


def test_traces_carry_no_wall_clock_fields():
    goal = parse_goal("goal conj (x: Int) := x + 0 = x /\\ x * 1 = x")
    _, trace = run_single(goal, ConjunctionSplitter(), CHECKER, CONFIG)
    text = trace.to_jsonl()
    assert "wall_time" not in text
    assert "elapsed" not in text


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
        return CompletionAttempt(
            proof_text="sorry", attempt_index=len(context.feedback_history) + 1
        )

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
    goal = parse_goal("goal conj (x: Int) := x + 0 = x /\\ (x * 1 = x /\\ 0 <= x + 5)")
    config = replace(CONFIG, k_parallel=4, seed=9)
    policy = StochasticPolicy(0, DOMAIN)
    sequential = run_pass_k(goal, policy, CHECKER, config, max_workers=1)
    threaded = run_pass_k(goal, policy, CHECKER, config, max_workers=4)
    assert [t.to_jsonl() for t in sequential.traces] == [t.to_jsonl() for t in threaded.traces]


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


# --- gate quickcheck memo ------------------------------------------------------------


def _count_gate_quickchecks(monkeypatch) -> list[str]:
    calls = []

    def counting(goal, qc, domain):
        calls.append(goal.name)
        return quickcheck(goal, qc, domain)

    monkeypatch.setattr(search_mod, "quickcheck", counting)
    search_mod._gate_quickcheck.cache_clear()
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

    search_mod._gate_quickcheck.cache_clear()
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
