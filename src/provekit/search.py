"""Two-stage proof search.

Stage one repeatedly picks an open goal and asks the policy to either break
it into lemmas or discharge it outright; every proposal passes a gate
(quickcheck on each lemma, then a checker-verified reconstruction) before the
tree is touched.  Stage two sweeps the surviving leaves, asking the policy
for complete proofs and feeding checker diagnostics back until every leaf is
closed or the budget runs out.

All randomness is routed through seeds carried in the config, and traces
never record wall-clock time, so a run is reproducible byte for byte.

Gate quickchecks (the target check and the per-lemma checks) go through a
bounded process-wide LRU keyed by the goal, name included, and the quickcheck
and domain configs; quickcheck is a pure function of those, so iterations and
pass@k samples that re-check a goal reuse the outcome.
"""

from __future__ import annotations

import functools
import hashlib
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

from .errors import ContractViolation, PolicyError
from .evaluator import Domain, Env
from .lang import GoalDecl, operator_footprint, print_goal
from .prover import (
    ACCEPTED,
    CHECKER_ERROR,
    KIND_COMPLETION,
    KIND_DIRECT,
    KIND_RECONSTRUCTION,
    MODE_COMPLETE,
    MODE_DECOMPOSE,
    TIMEOUT,
    CheckRequest,
    CheckVerdict,
    Checker,
    CompletionAttempt,
    DecompositionProposal,
    FeedbackEntry,
    Policy,
    PolicyContext,
    axiom_audit,
)
from .quickcheck import Counterexample, QcConfig, QcOutcome, quickcheck
from .scoring import ScoreBreakdown, ScoreConfig, ValidityGate, decomposition_score
from .trace import RunTrace, env_to_json

# Target selection strategies.
TARGET_HIGHEST_FOOTPRINT = "highest-footprint"
TARGET_HIGHEST_SCORE = "highest-score"

# Goal lifecycle states.
GOAL_OPEN = "open"
GOAL_DECOMPOSED = "decomposed"
GOAL_DISCHARGED = "discharged"
GOAL_PROVED = "proved"

# Run outcomes.
OUTCOME_PROVED = "proved"
OUTCOME_DISPROVED = "disproved"
OUTCOME_EXHAUSTED = "exhausted"

# Step outcomes (stage one).
STEP_ACCEPTED = "accepted_decomposition"
STEP_DISCHARGED = "accepted_discharge"
STEP_REJECTED = "rejected"
STEP_DISPROVED = "disproved"

# Rejection reasons recorded on gate failures.
REASON_TARGET_QC = "target_qc_failed"
REASON_POLICY_ERROR = "policy_error"
REASON_LEMMA_CAP = "lemma_cap_exceeded"
REASON_DUPLICATE_NAME = "duplicate_lemma_name"
REASON_ZERO_FOOTPRINT = "zero_footprint_target"
REASON_QC_FAILED = "qc_failed"
REASON_RECONSTRUCTION = "reconstruction_failed"
REASON_RECONSTRUCTION_TIMEOUT = "reconstruction_timeout"
REASON_INFRASTRUCTURE = "infrastructure_error"


# Distinct gate quickchecks remembered across runs in this process.
GATE_QC_MEMO_SIZE = 64


@functools.lru_cache(maxsize=GATE_QC_MEMO_SIZE)
def _gate_quickcheck(goal: GoalDecl, qc: QcConfig, domain: Domain) -> QcOutcome:
    # The goal name is part of the key: quickcheck seeds its trials from it.
    return quickcheck(goal, qc, domain)


def mix_seed(seed: int, tag: str) -> int:
    """Derive a sub-seed from a master seed and a text tag.

    Runs over different problems must not share their random streams even
    when launched with one master seed, so the tag (normally the goal name)
    is hashed into the seed.
    """
    digest = hashlib.sha256(f"{seed}:{tag}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class SearchConfig:
    """Knobs for one search run.

    ``seed`` is the master seed: the policy is forked from it at run start,
    and pass@k runs derive per-run seeds by XOR with the run index.
    """

    decompose_iters: int = 128
    max_open_lemmas: int = 32
    complete_iters: int = 128
    wall_budget_secs: float = 1800.0
    k_parallel: int = 1
    check_timeout_ms: int = 300_000
    seed: int = 0
    target_strategy: str = TARGET_HIGHEST_FOOTPRINT
    qc: QcConfig = field(default_factory=QcConfig)
    score: ScoreConfig = field(default_factory=ScoreConfig)
    domain: Domain = field(default_factory=Domain)

    def __post_init__(self) -> None:
        if self.decompose_iters < 0:
            raise ContractViolation("decompose_iters must be >= 0")
        if self.complete_iters < 0:
            raise ContractViolation("complete_iters must be >= 0")
        if self.max_open_lemmas < 0:
            raise ContractViolation("max_open_lemmas must be >= 0")
        if self.k_parallel < 1:
            raise ContractViolation("k_parallel must be >= 1")
        if self.wall_budget_secs <= 0:
            raise ContractViolation("wall_budget_secs must be positive")
        if self.check_timeout_ms < 1:
            raise ContractViolation("check_timeout_ms must be >= 1")
        if self.target_strategy not in (TARGET_HIGHEST_FOOTPRINT, TARGET_HIGHEST_SCORE):
            raise ContractViolation(f"unknown target strategy {self.target_strategy!r}")

    def snapshot(self) -> dict:
        """Flat JSON-friendly form used as the trace header."""
        return {
            "decompose_iters": self.decompose_iters,
            "max_open_lemmas": self.max_open_lemmas,
            "complete_iters": self.complete_iters,
            "wall_budget_secs": self.wall_budget_secs,
            "k_parallel": self.k_parallel,
            "check_timeout_ms": self.check_timeout_ms,
            "seed": self.seed,
            "target_strategy": self.target_strategy,
            "qc": {
                "trials": self.qc.trials,
                "seed": self.qc.seed,
                "gen_int_lo": self.qc.gen_int_lo,
                "gen_int_hi": self.qc.gen_int_hi,
                "gen_max_list_len": self.qc.gen_max_list_len,
                "gen_elem_lo": self.qc.elem_lo,
                "gen_elem_hi": self.qc.elem_hi,
            },
            "score": {"temperature": self.score.temperature},
            "domain": {
                "int_lo": self.domain.int_lo,
                "int_hi": self.domain.int_hi,
                "max_list_len": self.domain.max_list_len,
                "elem_lo": self.domain.elem_lo,
                "elem_hi": self.domain.elem_hi,
                "node_budget": self.domain.node_budget,
            },
        }


@dataclass
class GoalNode:
    """One goal in the search tree."""

    name: str
    goal: GoalDecl
    footprint: int
    depth: int
    order: int
    parent: str | None = None
    status: str = GOAL_OPEN
    creation_score: float = 0.0
    closing_proof: str | None = None
    closing_attempt: int | None = None


class GoalTree:
    """The root goal plus every lemma ever accepted, in insertion order."""

    def __init__(self, root: GoalDecl) -> None:
        self.nodes: dict[str, GoalNode] = {}
        self.order: list[str] = []
        self._insert(GoalNode(
            name=root.name,
            goal=root,
            footprint=operator_footprint(root),
            depth=0,
            order=0,
        ))
        self.root_name = root.name

    def _insert(self, node: GoalNode) -> None:
        self.nodes[node.name] = node
        self.order.append(node.name)

    def add_lemmas(self, parent: GoalNode, lemmas: tuple[GoalDecl, ...], score: float) -> list[GoalNode]:
        children = []
        for decl in lemmas:
            child = GoalNode(
                name=decl.name,
                goal=decl,
                footprint=operator_footprint(decl),
                depth=parent.depth + 1,
                order=len(self.order),
                parent=parent.name,
                creation_score=score,
            )
            self._insert(child)
            children.append(child)
        parent.status = GOAL_DECOMPOSED
        return children

    @property
    def inserted_lemmas(self) -> int:
        return len(self.order) - 1

    def open_nodes(self) -> list[GoalNode]:
        return [self.nodes[name] for name in self.order if self.nodes[name].status == GOAL_OPEN]

    def leaves(self) -> list[GoalNode]:
        """Nodes that were never decomposed; these are what the proof of the
        root ultimately rests on."""
        return [self.nodes[name] for name in self.order if self.nodes[name].status != GOAL_DECOMPOSED]

    def all_closed(self) -> bool:
        return not self.open_nodes()


def select_target(tree: GoalTree, strategy: str) -> GoalNode | None:
    """Pick the open goal to work on next.

    Highest-footprint attacks the syntactically heaviest goal; highest-score
    prefers goals whose creation came from a strong decomposition (the root
    scores 0.0, so fresh lemmas are preferred to it).  Ties break toward the
    earliest inserted node.
    """
    candidates = tree.open_nodes()
    if not candidates:
        return None
    if strategy == TARGET_HIGHEST_FOOTPRINT:
        return max(candidates, key=lambda n: (n.footprint, -n.order))
    if strategy == TARGET_HIGHEST_SCORE:
        return max(candidates, key=lambda n: (n.creation_score, -n.order))
    raise ContractViolation(f"unknown target strategy {strategy!r}")


@dataclass
class ProposalEvaluation:
    """Gate outputs for one decomposition proposal."""

    qc_ok: tuple[bool, ...]
    reconstruction_verdict: CheckVerdict | None
    gate: ValidityGate
    breakdown: ScoreBreakdown | None
    reason: str | None

    @property
    def accepted(self) -> bool:
        return self.breakdown is not None and self.breakdown.v == 1


def evaluate_proposal(
    goal: GoalDecl,
    proposal: DecompositionProposal,
    checker: Checker,
    config: SearchConfig,
) -> ProposalEvaluation:
    """Run the acceptance gate for a proposal against ``goal``.

    Order matters: lemmas are quickchecked first and the reconstruction
    check is skipped when any lemma already failed, so a falsified lemma
    never costs a checker call.
    """
    qc_ok: list[bool] = []
    for lemma in proposal.lemmas:
        outcome = _gate_quickcheck(lemma, config.qc, config.domain)
        qc_ok.append(not isinstance(outcome, Counterexample))
    verdict: CheckVerdict | None = None
    reason: str | None = None
    if all(qc_ok):
        if proposal.k == 0:
            request = CheckRequest(
                kind=KIND_DIRECT,
                goal=goal,
                proof_text=proposal.reconstruction,
            )
        else:
            request = CheckRequest(
                kind=KIND_RECONSTRUCTION,
                goal=goal,
                lemmas=proposal.lemmas,
                proof_text=proposal.reconstruction,
            )
        verdict = checker.check(request, config.check_timeout_ms)
        if verdict.status == TIMEOUT:
            reason = REASON_RECONSTRUCTION_TIMEOUT
        elif verdict.status == CHECKER_ERROR:
            reason = REASON_INFRASTRUCTURE
        elif not verdict.is_accepted:
            reason = REASON_RECONSTRUCTION
    else:
        reason = REASON_QC_FAILED
    recon_ok = verdict is not None and verdict.is_accepted
    gate = ValidityGate(reconstruction_ok=recon_ok, qc_ok_per_lemma=tuple(qc_ok))
    parent_fp = operator_footprint(goal)
    if proposal.k == 0 and parent_fp == 0:
        # Degenerate goal with no weighted operators: treat a direct
        # discharge as full reduction rather than dividing by zero.
        breakdown = ScoreBreakdown(
            v=gate.value, d_parent=0, d_children=(), d_bar=0.0, r=1.0, S=float(gate.value),
        )
    else:
        child_fps = tuple(operator_footprint(lemma) for lemma in proposal.lemmas)
        breakdown = decomposition_score(gate, parent_fp, child_fps, config.score)
    if breakdown.v == 1:
        reason = None
    return ProposalEvaluation(
        qc_ok=tuple(qc_ok),
        reconstruction_verdict=verdict,
        gate=gate,
        breakdown=breakdown,
        reason=reason,
    )


def _proposal_json(proposal: DecompositionProposal) -> dict:
    return {
        "reconstruction": proposal.reconstruction,
        "rationale": proposal.rationale,
        "lemmas": [
            {
                "name": lemma.name,
                "source": print_goal(lemma),
                "footprint": operator_footprint(lemma),
            }
            for lemma in proposal.lemmas
        ],
    }


def _breakdown_json(breakdown: ScoreBreakdown) -> dict:
    return {
        "v": breakdown.v,
        "d_parent": breakdown.d_parent,
        "d_children": list(breakdown.d_children),
        "d_bar": breakdown.d_bar,
        "r": breakdown.r,
        "S": breakdown.S,
    }


@dataclass
class StepOutcome:
    kind: str
    target: str | None = None
    reason: str | None = None
    witness: Env | None = None
    score: ScoreBreakdown | None = None


def decompose_step(
    tree: GoalTree,
    target: GoalNode,
    policy: Policy,
    checker: Checker,
    config: SearchConfig,
    trace: RunTrace,
    iteration: int,
) -> StepOutcome:
    """One stage-one iteration against an already-selected target."""

    def reject(reason: str, *, proposal=None, evaluation=None, witness=None, trial=None) -> StepOutcome:
        fields = {
            "iteration": iteration,
            "target": target.name,
            "target_footprint": target.footprint,
            "outcome": STEP_REJECTED,
            "reason": reason,
            "proposal": _proposal_json(proposal) if proposal is not None else None,
        }
        if evaluation is not None:
            fields["gate"] = {
                "reconstruction_ok": evaluation.gate.reconstruction_ok,
                "qc_ok": list(evaluation.qc_ok),
            }
            if evaluation.breakdown is not None:
                fields["score"] = _breakdown_json(evaluation.breakdown)
        if witness is not None:
            fields["witness"] = env_to_json(witness)
            fields["trial_index"] = trial
        trace.emit("decompose_attempt", **fields)
        return StepOutcome(kind=STEP_REJECTED, target=target.name, reason=reason, witness=witness)

    # A target that quickcheck can falsify must not be decomposed.  For the
    # root that settles the whole run; for a lemma it just parks the node
    # (the falsity is only over the bounded domain of the parent's gate).
    target_qc = _gate_quickcheck(target.goal, config.qc, config.domain)
    if isinstance(target_qc, Counterexample):
        if target.name == tree.root_name:
            trace.emit(
                "goal_disproved",
                iteration=iteration,
                target=target.name,
                witness=env_to_json(target_qc.witness),
                trial_index=target_qc.trial_index,
            )
            # The outcome is shared through the gate memo; the run's
            # result gets its own copy of the witness.
            return StepOutcome(
                kind=STEP_DISPROVED,
                target=target.name,
                witness=dict(target_qc.witness),
            )
        return reject(REASON_TARGET_QC, witness=target_qc.witness, trial=target_qc.trial_index)

    siblings = tuple(n.goal for n in tree.open_nodes() if n.name != target.name)
    context = PolicyContext(
        goal=target.goal,
        sibling_goals=siblings,
        mode=MODE_DECOMPOSE,
        target_depth=target.depth,
    )
    try:
        proposal = policy.propose_decomposition(context)
    except PolicyError as exc:
        return reject(REASON_POLICY_ERROR + f": {exc}")

    if proposal.k > 0:
        if target.footprint == 0:
            return reject(REASON_ZERO_FOOTPRINT, proposal=proposal)
        if tree.inserted_lemmas + proposal.k > config.max_open_lemmas:
            return reject(REASON_LEMMA_CAP, proposal=proposal)
        names = [lemma.name for lemma in proposal.lemmas]
        if len(set(names)) != len(names) or any(name in tree.nodes for name in names):
            return reject(REASON_DUPLICATE_NAME, proposal=proposal)

    evaluation = evaluate_proposal(target.goal, proposal, checker, config)
    if not evaluation.accepted:
        return reject(evaluation.reason or REASON_RECONSTRUCTION, proposal=proposal, evaluation=evaluation)

    breakdown = evaluation.breakdown
    assert breakdown is not None
    if proposal.k == 0:
        target.status = GOAL_DISCHARGED
        target.closing_proof = proposal.reconstruction
        outcome_kind = STEP_DISCHARGED
    else:
        tree.add_lemmas(target, proposal.lemmas, breakdown.S)
        outcome_kind = STEP_ACCEPTED
    trace.emit(
        "decompose_attempt",
        iteration=iteration,
        target=target.name,
        target_footprint=target.footprint,
        outcome=outcome_kind,
        reason=None,
        proposal=_proposal_json(proposal),
        gate={
            "reconstruction_ok": evaluation.gate.reconstruction_ok,
            "qc_ok": list(evaluation.qc_ok),
        },
        score=_breakdown_json(breakdown),
    )
    return StepOutcome(kind=outcome_kind, target=target.name, score=breakdown)


@dataclass
class RunResult:
    """Terminal state of one run."""

    outcome: str
    problem: str
    run_index: int
    seed: int
    decompose_iterations: int
    complete_iterations: int
    lemma_count: int | None = None
    proof_lines: int | None = None
    open_leaves: int = 0
    audit_failures: int = 0
    witness: Env | None = None

    @property
    def proved(self) -> bool:
        return self.outcome == OUTCOME_PROVED


def _dispatch_checks(
    requests: list[CheckRequest],
    checker: Checker,
    pool,
    timeout_ms: int,
) -> list[CheckVerdict]:
    """Run a batch of checks, through the pool when one is attached.

    Results come back in request order either way, so traces do not depend
    on worker scheduling.
    """
    if pool is None:
        return [checker.check(request, timeout_ms) for request in requests]
    handles = [pool.submit(request, timeout_ms=timeout_ms) for request in requests]
    return [pool.await_verdict(handle) for handle in handles]


def completion_stage(
    tree: GoalTree,
    policy: Policy,
    checker: Checker,
    config: SearchConfig,
    trace: RunTrace,
    deadline: float,
    pool=None,
) -> tuple[int, int]:
    """Stage two: sweep the open leaves until all close or budgets run out.

    Each sweep gives every still-open leaf exactly one attempt, so a stuck
    lemma cannot starve its siblings.  Returns (sweeps_used, audit_failures).
    """
    feedback: dict[str, list[FeedbackEntry]] = {name: [] for name in tree.order}
    audit_failures = 0
    sweeps_used = 0
    for sweep in range(1, config.complete_iters + 1):
        open_leaves = tree.open_nodes()
        if not open_leaves or time.monotonic() > deadline:
            break
        sweeps_used = sweep
        attempts: list[tuple[GoalNode, CompletionAttempt]] = []
        for node in open_leaves:
            siblings = tuple(n.goal for n in open_leaves if n.name != node.name)
            context = PolicyContext(
                goal=node.goal,
                sibling_goals=siblings,
                mode=MODE_COMPLETE,
                feedback_history=tuple(feedback[node.name]),
                target_depth=node.depth,
            )
            try:
                attempt = policy.propose_completion(context)
            except PolicyError as exc:
                trace.emit(
                    "complete_attempt",
                    sweep=sweep,
                    lemma=node.name,
                    attempt_index=sweep,
                    error=f"{REASON_POLICY_ERROR}: {exc}",
                    verdict=None,
                    audit_ok=None,
                )
                continue
            attempts.append((node, attempt))
        requests = [
            CheckRequest(
                kind=KIND_COMPLETION,
                goal=node.goal,
                proof_text=attempt.proof_text,
            )
            for node, attempt in attempts
        ]
        verdicts = _dispatch_checks(requests, checker, pool, config.check_timeout_ms)
        for (node, attempt), verdict in zip(attempts, verdicts):
            audit_ok: bool | None = None
            if verdict.status == ACCEPTED:
                offending = axiom_audit(verdict)
                audit_ok = not offending
                if audit_ok:
                    node.status = GOAL_PROVED
                    node.closing_proof = attempt.proof_text
                    node.closing_attempt = sweep
                else:
                    # The checker said yes but leaned on a disallowed axiom;
                    # the lemma stays unproved and the attempt goes back to
                    # the policy as feedback like any other failure.
                    audit_failures += 1
                    feedback[node.name].append(FeedbackEntry(attempt.proof_text, verdict))
            else:
                feedback[node.name].append(FeedbackEntry(attempt.proof_text, verdict))
            trace.emit(
                "complete_attempt",
                sweep=sweep,
                lemma=node.name,
                attempt_index=sweep,
                verdict={
                    "status": verdict.status,
                    "diagnostics": verdict.diagnostics,
                    "axioms": list(verdict.axioms_used),
                },
                audit_ok=audit_ok,
                proof_lines=len(attempt.proof_text.splitlines()),
            )
    return sweeps_used, audit_failures


def run_single(
    problem: GoalDecl,
    policy: Policy,
    checker: Checker,
    config: SearchConfig,
    run_index: int = 0,
    pool=None,
) -> tuple[RunResult, RunTrace]:
    """One full two-stage run.

    The policy is forked with ``config.seed`` on entry, so the run's
    behaviour is a function of its arguments alone, not of whatever state
    the policy object accumulated before the call.
    """
    policy = policy.fork(config.seed)
    deadline = time.monotonic() + config.wall_budget_secs
    trace = RunTrace.new(problem.name, run_index, config.seed, config.snapshot())
    tree = GoalTree(problem)

    decompose_used = 0
    disproved: StepOutcome | None = None
    while decompose_used < config.decompose_iters:
        if time.monotonic() > deadline:
            break
        target = select_target(tree, config.target_strategy)
        if target is None:
            break
        decompose_used += 1
        outcome = decompose_step(tree, target, policy, checker, config, trace, decompose_used)
        if outcome.kind == STEP_DISPROVED:
            disproved = outcome
            break

    if disproved is not None:
        trace.emit(
            "run_end",
            outcome=OUTCOME_DISPROVED,
            witness=env_to_json(disproved.witness or {}),
            decompose_iterations=decompose_used,
            complete_iterations=0,
            lemma_count=None,
            proof_lines=None,
            audit_failures=0,
            pool=_pool_counters(pool),
        )
        result = RunResult(
            outcome=OUTCOME_DISPROVED,
            problem=problem.name,
            run_index=run_index,
            seed=config.seed,
            decompose_iterations=decompose_used,
            complete_iterations=0,
            witness=disproved.witness,
        )
        return result, trace

    leaves = tree.leaves()
    lemma_count = len(leaves)
    trace.emit(
        "stage_transition",
        decompose_iterations=decompose_used,
        lemma_count=lemma_count,
        open_leaves=[n.name for n in tree.open_nodes()],
    )
    complete_used, audit_failures = completion_stage(
        tree, policy, checker, config, trace, deadline, pool=pool,
    )

    if tree.all_closed():
        outcome_name = OUTCOME_PROVED
    else:
        outcome_name = OUTCOME_EXHAUSTED
    proof_lines = _count_proof_lines(tree)
    open_count = len(tree.open_nodes())
    trace.emit(
        "run_end",
        outcome=outcome_name,
        witness=None,
        decompose_iterations=decompose_used,
        complete_iterations=complete_used,
        lemma_count=lemma_count,
        proof_lines=proof_lines,
        audit_failures=audit_failures,
        pool=_pool_counters(pool),
    )
    result = RunResult(
        outcome=outcome_name,
        problem=problem.name,
        run_index=run_index,
        seed=config.seed,
        decompose_iterations=decompose_used,
        complete_iterations=complete_used,
        lemma_count=lemma_count,
        proof_lines=proof_lines,
        open_leaves=open_count,
        audit_failures=audit_failures,
    )
    return result, trace


def _count_proof_lines(tree: GoalTree) -> int | None:
    """Total lines across closing proofs, when real proof text exists.

    Built-in completion closes leaves with the one-word decide directive;
    counting those lines would just re-report the leaf count, so the figure
    is only produced when some closing proof is more than that directive.
    """
    from .prover import DIRECT_PROOF_DIRECTIVE

    texts = [
        node.closing_proof
        for node in tree.leaves()
        if node.status == GOAL_PROVED and node.closing_proof is not None
    ]
    if not texts:
        return None
    if all(text.strip() == DIRECT_PROOF_DIRECTIVE for text in texts):
        return None
    return sum(len(text.splitlines()) for text in texts)


def _pool_counters(pool) -> dict | None:
    """Deterministic subset of pool stats for the trace; latency quantiles
    are wall-clock and stay out of the log."""
    if pool is None:
        return None
    stats = pool.stats()
    return {
        "submitted": stats.submitted,
        "completed": stats.completed,
        "timed_out": stats.timed_out,
        "cancelled": stats.cancelled,
        "peak_in_flight": stats.peak_in_flight,
    }


@dataclass
class PassKResult:
    problem: str
    solved: bool
    first_success_run: int | None
    runs: list[RunResult]
    traces: list[RunTrace]

    @property
    def disproved(self) -> bool:
        return any(r.outcome == OUTCOME_DISPROVED for r in self.runs)


def run_pass_k(
    problem: GoalDecl,
    policy: Policy,
    checker: Checker,
    config: SearchConfig,
    pool_factory=None,
    max_workers: int | None = None,
) -> PassKResult:
    """k_parallel independent runs of the same problem.

    Run i uses seed ``config.seed ^ i`` and a policy forked with that seed,
    so the attempts diverge while staying replayable.  ``first_success_run``
    is 1-based; ``pool_factory`` (if given) builds a fresh pool per run so
    trace counters stay per-run.
    """
    k = config.k_parallel
    run_configs = [replace(config, seed=config.seed ^ i, k_parallel=1) for i in range(k)]

    def one(i: int) -> tuple[RunResult, RunTrace]:
        pool = pool_factory() if pool_factory is not None else None
        try:
            return run_single(problem, policy, checker, run_configs[i], run_index=i, pool=pool)
        finally:
            if pool is not None:
                pool.shutdown()

    if k == 1 or (max_workers is not None and max_workers <= 1):
        outcomes = [one(i) for i in range(k)]
    else:
        workers = min(k, max_workers) if max_workers else k
        with ThreadPoolExecutor(max_workers=workers) as executor:
            outcomes = list(executor.map(one, range(k)))

    runs = [res for res, _ in outcomes]
    traces = [tr for _, tr in outcomes]
    first_success = None
    for i, res in enumerate(runs):
        if res.proved:
            first_success = i + 1
            break
    return PassKResult(
        problem=problem.name,
        solved=first_success is not None,
        first_success_run=first_success,
        runs=runs,
        traces=traces,
    )
