"""Two-stage proof search.

Stage one repeatedly picks an open goal and asks the policy to either break
it into lemmas or discharge it outright.  ``propose_and_gate``, which
training rewards use too, takes every proposal through one gate (structural
checks, quickcheck on each lemma, then a checker-verified reconstruction)
before the tree is touched.  Stage two sweeps the surviving leaves, asking
the policy for complete proofs and feeding checker diagnostics back until
every leaf is closed or the budget runs out.

All randomness is routed through seeds carried in the config, and traces
never record wall-clock time, so a run is reproducible byte for byte.

Gate quickchecks (the target check and the per-lemma checks) go through a
bounded process-wide LRU keyed by the goal, name included, and the quickcheck
and domain configs; quickcheck is a pure function of those, so iterations and
pass@k samples that re-check a goal reuse the outcome.  One lock serialises
the lookups, so fan-out threads that miss on one key run its quickcheck once.

A miss on a statement already checked under other names (a policy names
each lemma afresh) may be settled by the gate's fact table, which the same
lock guards.  It is keyed by the statement (binders and body, not the
name), the sampler's ranges and the domain.  A statement's sample space is
enumerated by the rent-or-buy rule of ski rental (Karlin et al.,
"Competitive snoopy caching", 1988): only once the trials that earlier
passing gate checks spent sampling the statement reach
``quickcheck.enumeration_cost``.  A statement seen once is never
enumerated, nor is a space too large to repay it.  Once
``quickcheck.holds_everywhere`` holds, every trial would pass, so a miss
returns what sampling would, ``NoCounterexample(trials_run=qc.trials)``,
without sampling.  A fact never turns a counterexample or a budget stop
into a pass: the memo's key, and every verdict, witness and trial index,
stay the ones the seeded stream gives.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, fields, replace

from .errors import ContractViolation, PolicyError
from .evaluator import Domain, Env
from .lang import GoalDecl, print_goal
from .prover import (
    ACCEPTED,
    CHECKER_ERROR,
    DIRECT_PROOF_DIRECTIVE,
    KIND_COMPLETION,
    KIND_DIRECT,
    KIND_RECONSTRUCTION,
    TIMEOUT,
    CheckRequest,
    CheckVerdict,
    Checker,
    DecompositionProposal,
    FeedbackEntry,
    Policy,
    PolicyContext,
    axiom_audit,
)
from .quickcheck import (
    Counterexample,
    NoCounterexample,
    QcConfig,
    QcOutcome,
    enumeration_cost,
    holds_everywhere,
    quickcheck,
)
from .quickcheck import mix_seed as mix_seed  # re-exported
from .scoring import ScoreBreakdown, ScoreConfig, ValidityGate, decomposition_score
from .trace import RunTrace, canonical_json, env_to_json

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
REASON_ILL_SORTED = "ill_sorted_lemma"
REASON_ZERO_FOOTPRINT = "zero_footprint_target"
REASON_QC_FAILED = "qc_failed"
REASON_RECONSTRUCTION = "reconstruction_failed"
REASON_RECONSTRUCTION_TIMEOUT = "reconstruction_timeout"
REASON_INFRASTRUCTURE = "infrastructure_error"


# Distinct gate quickchecks remembered across runs in this process.
GATE_QC_MEMO_SIZE = 64

# Statements the gate's fact table remembers, least recently used first
# out.  On 2,000 passk_builtin goals, 32 entries settled 99 % of the calls
# that 1,024 did, and 128 entries kept 38 KB alive.
FACT_TABLE_SIZE = 128

# Per statement key: ``[trials spent, enumeration cost or None]`` while
# unsettled, then whether the fact holds (``True`` or ``False``).  Read and
# written only by ``_gate_qc_memo``, under ``_GATE_QC_LOCK``.
_FACTS: OrderedDict[tuple, list | bool] = OrderedDict()


@functools.lru_cache(maxsize=GATE_QC_MEMO_SIZE)
def _gate_qc_memo(goal: GoalDecl, qc: QcConfig, domain: Domain) -> QcOutcome:
    # The goal name is part of the memo's key: quickcheck seeds its trials
    # from it.  The fact's key leaves the name and the seed out.
    key = (
        goal.binders, goal.body, qc.gen_int_lo, qc.gen_int_hi,
        qc.gen_max_list_len, qc.elem_lo, qc.elem_hi, domain,
    )
    entry = _FACTS.get(key)
    if type(entry) is list:
        if entry[1] is None:
            entry[1] = enumeration_cost(goal, qc)
        if entry[0] >= entry[1]:  # sampling has paid for the enumeration
            entry = holds_everywhere(goal, qc, domain)
            _FACTS[key] = entry
    if entry is not None:
        _FACTS.move_to_end(key)
    if entry is True:  # every trial would pass
        return NoCounterexample(trials_run=qc.trials)
    outcome = quickcheck(goal, qc, domain)
    if entry is not False and outcome == NoCounterexample(trials_run=qc.trials):
        if entry is None:
            _FACTS[key] = [qc.trials, None]
            if len(_FACTS) > FACT_TABLE_SIZE:
                _FACTS.popitem(last=False)
        else:
            entry[0] += qc.trials
    return outcome


_GATE_QC_LOCK = threading.Lock()


def _gate_quickcheck(goal: GoalDecl, qc: QcConfig, domain: Domain) -> QcOutcome:
    # Quickcheck holds the GIL throughout, so serialising costs no parallelism.
    with _GATE_QC_LOCK:
        return _gate_qc_memo(goal, qc, domain)


@dataclass(frozen=True)
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
        if not 0 < self.wall_budget_secs <= sys.float_info.max:
            raise ContractViolation("wall_budget_secs must be positive and finite")
        if self.check_timeout_ms < 1:
            raise ContractViolation("check_timeout_ms must be >= 1")
        if self.target_strategy not in (TARGET_HIGHEST_FOOTPRINT, TARGET_HIGHEST_SCORE):
            raise ContractViolation(f"unknown target strategy {self.target_strategy!r}")

    def snapshot(self) -> dict:
        """Flat JSON-friendly form used as the trace header: every field of
        this config and of its qc, score and domain parts."""
        qc = dict(vars(self.qc), gen_elem_lo=self.qc.elem_lo, gen_elem_hi=self.qc.elem_hi)
        # From the fields: ``vars(self)`` also holds the cached header parts.
        own = {f.name: getattr(self, f.name) for f in fields(self)}
        return dict(own, qc=qc, score=dict(vars(self.score)), domain=dict(vars(self.domain)))

    @functools.cached_property
    def _header_parts(self) -> tuple[dict, str, str]:
        # The snapshot, and its canonical text cut around the seed's value:
        # the keys sort, and the config has fields on both sides of "seed".
        base = self.snapshot()
        before = canonical_json({k: v for k, v in base.items() if k < "seed"})
        after = canonical_json({k: v for k, v in base.items() if k > "seed"})
        return base, before[:-1] + ',"seed":', "," + after[1:]

    def run_header(self, seed: int) -> tuple[dict, str]:
        """A run's header ``config`` object, this config's snapshot with
        ``seed`` written in, and its canonical text.  The snapshot is built
        and encoded once per config object; each run only writes its seed."""
        base, head, tail = self._header_parts
        return dict(base, seed=seed), head + canonical_json(seed) + tail


@dataclass
class GoalNode:
    """One goal in the search tree.

    ``feedback`` keeps the failed completion attempts, oldest first, so a
    later completion stage over the same tree resumes from them.
    """

    name: str
    goal: GoalDecl
    depth: int
    order: int
    parent: str | None = None
    status: str = GOAL_OPEN
    creation_score: float = 0.0
    closing_proof: str | None = None
    closing_attempt: int | None = None
    closing_verdict: CheckVerdict | None = None
    feedback: list[FeedbackEntry] = field(default_factory=list)


class GoalTree:
    """The root goal plus every lemma ever accepted, in insertion order.
    The root must pass its sort and depth check; the gate checks every lemma."""

    def __init__(self, root: GoalDecl) -> None:
        error = root.sort_error
        if error is not None:
            raise ContractViolation(f"goal {root.name!r} is ill sorted: {error}")
        self.nodes = {root.name: GoalNode(name=root.name, goal=root, depth=0, order=0)}
        self.root_name = root.name

    def add_lemmas(self, parent: GoalNode, lemmas: tuple[GoalDecl, ...], score: float) -> list[GoalNode]:
        """Insert the lemmas, which passed the gate, below ``parent``."""
        children = []
        for decl in lemmas:
            child = GoalNode(
                name=decl.name,
                goal=decl,
                depth=parent.depth + 1,
                order=len(self.nodes),
                parent=parent.name,
                creation_score=score,
            )
            self.nodes[decl.name] = child
            children.append(child)
        parent.status = GOAL_DECOMPOSED
        return children

    @property
    def inserted_lemmas(self) -> int:
        return len(self.nodes) - 1

    def open_nodes(self) -> list[GoalNode]:
        return [node for node in self.nodes.values() if node.status == GOAL_OPEN]

    def leaves(self) -> list[GoalNode]:
        """Nodes that were never decomposed; these are what the proof of the
        root ultimately rests on."""
        return [node for node in self.nodes.values() if node.status != GOAL_DECOMPOSED]

    def all_closed(self) -> bool:
        return not self.open_nodes()


def select_target(tree: GoalTree, strategy: str) -> GoalNode | None:
    """Pick the open goal to work on next.

    Highest-footprint attacks the syntactically heaviest goal; highest-score
    prefers goals whose creation came from a strong decomposition (the root
    scores 0.0, so fresh lemmas are preferred to it).  Ties break toward the
    earliest inserted node.  A lone open goal is returned without weighing
    it, so its footprint is not computed until the gate needs it.
    """
    candidates = tree.open_nodes()
    if len(candidates) < 2:
        return candidates[0] if candidates else None
    if strategy == TARGET_HIGHEST_FOOTPRINT:
        return max(candidates, key=lambda n: (n.goal.footprint, -n.order))
    if strategy == TARGET_HIGHEST_SCORE:
        return max(candidates, key=lambda n: (n.creation_score, -n.order))
    raise ContractViolation(f"unknown target strategy {strategy!r}")


@dataclass
class ProposalEvaluation:
    """Gate outputs for one decomposition proposal.  A proposal turned away
    before any quickcheck (a policy error, a structural rejection or a lemma
    failing its sort and depth check) has no ``gate`` and no ``breakdown``."""

    reason: str | None
    reconstruction_verdict: CheckVerdict | None = None
    gate: ValidityGate | None = None
    breakdown: ScoreBreakdown | None = None

    @property
    def accepted(self) -> bool:
        return self.breakdown is not None and self.breakdown.v == 1


def evaluate_proposal(
    tree: GoalTree,
    target: GoalNode,
    proposal: DecompositionProposal,
    checker: Checker,
    config: SearchConfig,
) -> ProposalEvaluation:
    """Run the acceptance gate for a proposal against ``target`` in ``tree``.

    Order matters: the structural checks (a decomposable target, the lemma
    cap, fresh lemma names) cost little and come first; each lemma's sort
    and depth check comes before anything else walks it.  Then lemmas are
    quickchecked, and the reconstruction check is skipped when any lemma
    already failed, so a falsified lemma never costs a checker call.
    """
    if proposal.k > 0:
        names = [lemma.name for lemma in proposal.lemmas]
        if target.goal.footprint == 0:
            return ProposalEvaluation(REASON_ZERO_FOOTPRINT)
        if tree.inserted_lemmas + proposal.k > config.max_open_lemmas:
            return ProposalEvaluation(REASON_LEMMA_CAP)
        if len(set(names)) != len(names) or any(name in tree.nodes for name in names):
            return ProposalEvaluation(REASON_DUPLICATE_NAME)
    if any(lemma.sort_error is not None for lemma in proposal.lemmas):
        return ProposalEvaluation(REASON_ILL_SORTED)
    qc_ok: list[bool] = []
    for lemma in proposal.lemmas:
        outcome = _gate_quickcheck(lemma, config.qc, config.domain)
        qc_ok.append(not isinstance(outcome, Counterexample))
    verdict: CheckVerdict | None = None
    reason: str | None = None
    if all(qc_ok):
        request = CheckRequest(
            kind=KIND_RECONSTRUCTION if proposal.lemmas else KIND_DIRECT,
            goal=target.goal,
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
    footprints = [lemma.footprint for lemma in proposal.lemmas]
    breakdown = decomposition_score(gate, target.goal.footprint, footprints, config.score)
    if breakdown.v == 1:
        reason = None
    return ProposalEvaluation(reason, verdict, gate, breakdown)


def propose_and_gate(
    tree: GoalTree,
    target: GoalNode,
    policy: Policy,
    checker: Checker,
    config: SearchConfig,
) -> tuple[DecompositionProposal | None, ProposalEvaluation]:
    """Ask the policy to decompose ``target`` and gate its answer: the one
    path from a policy to a scored proposal, for search and training alike.

    A policy error comes back as a ``None`` proposal and a reason-only
    evaluation (``policy_error: ...``).
    """
    siblings = tuple(n.goal for n in tree.open_nodes() if n.name != target.name)
    context = PolicyContext(target.goal, siblings, target_depth=target.depth)
    try:
        proposal = policy.propose_decomposition(context)
    except PolicyError as exc:
        return None, ProposalEvaluation(f"{REASON_POLICY_ERROR}: {exc}")
    return proposal, evaluate_proposal(tree, target, proposal, checker, config)


def _lemma_json(lemma: GoalDecl) -> dict:
    # A lemma that fails its sort and depth check may be too deep to print.
    if lemma.sort_error is not None:
        return {"name": lemma.name}
    return {"name": lemma.name, "source": print_goal(lemma), "footprint": lemma.footprint}


def _proposal_json(proposal: DecompositionProposal) -> dict:
    return {
        "reconstruction": proposal.reconstruction,
        "rationale": proposal.rationale,
        "lemmas": [_lemma_json(lemma) for lemma in proposal.lemmas],
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

    def record(
        reason, *, outcome=STEP_REJECTED, proposal=None, evaluation=None, witness=None, trial=None
    ) -> StepOutcome:
        """Emit the step's one ``decompose_attempt`` event."""
        fields = {
            "iteration": iteration,
            "target": target.name,
            "target_footprint": target.goal.footprint,
            "outcome": outcome,
            "reason": reason,
            "proposal": proposal,
        }
        if evaluation is not None and evaluation.gate is not None:
            fields["gate"] = {
                "reconstruction_ok": evaluation.gate.reconstruction_ok,
                "qc_ok": list(evaluation.gate.qc_ok_per_lemma),
            }
            fields["score"] = evaluation.breakdown.to_json()
        if witness is not None:
            fields["witness"] = env_to_json(witness)
            fields["trial_index"] = trial
        trace.emit("decompose_attempt", **fields)
        score = evaluation.breakdown if evaluation is not None and evaluation.accepted else None
        return StepOutcome(kind=outcome, target=target.name, reason=reason, witness=witness, score=score)

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
        return record(REASON_TARGET_QC, witness=target_qc.witness, trial=target_qc.trial_index)

    proposal, evaluation = propose_and_gate(tree, target, policy, checker, config)
    if proposal is None:
        return record(evaluation.reason)
    proposal_json = _proposal_json(proposal)
    if not evaluation.accepted:
        return record(evaluation.reason, proposal=proposal_json, evaluation=evaluation)

    if proposal.k == 0:
        target.status = GOAL_DISCHARGED
        target.closing_proof = proposal.reconstruction
        return record(None, outcome=STEP_DISCHARGED, proposal=proposal_json, evaluation=evaluation)
    tree.add_lemmas(target, proposal.lemmas, evaluation.breakdown.S)
    return record(None, outcome=STEP_ACCEPTED, proposal=proposal_json, evaluation=evaluation)


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
    lemma cannot starve its siblings.  Each failed attempt is appended to
    its node's ``feedback``.  Returns (sweeps_used, audit_failures).
    """
    audit_failures = 0
    sweeps_used = 0
    for sweep in range(1, config.complete_iters + 1):
        open_leaves = tree.open_nodes()
        if not open_leaves or time.monotonic() > deadline:
            break
        sweeps_used = sweep
        attempts: list[tuple[GoalNode, str]] = []
        for node in open_leaves:
            siblings = tuple(n.goal for n in open_leaves if n.name != node.name)
            context = PolicyContext(
                goal=node.goal,
                sibling_goals=siblings,
                feedback_history=tuple(node.feedback),
                target_depth=node.depth,
            )
            try:
                proof_text = policy.propose_completion(context)
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
            attempts.append((node, proof_text))
        requests = [
            CheckRequest(kind=KIND_COMPLETION, goal=node.goal, proof_text=proof_text)
            for node, proof_text in attempts
        ]
        verdicts = _dispatch_checks(requests, checker, pool, config.check_timeout_ms)
        for (node, proof_text), verdict in zip(attempts, verdicts):
            audit_ok = not axiom_audit(verdict) if verdict.status == ACCEPTED else None
            if audit_ok:
                node.status = GOAL_PROVED
                node.closing_proof = proof_text
                node.closing_attempt = sweep
                node.closing_verdict = verdict
            else:
                # An acceptance that leaned on a disallowed axiom leaves the
                # lemma unproved and goes back to the policy as feedback like
                # any other failure.
                audit_failures += audit_ok is False
                node.feedback.append(FeedbackEntry(proof_text, verdict))
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
                proof_lines=len(proof_text.splitlines()),
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

    Run i uses seed ``config.seed ^ i``.  The policy is forked with that
    seed on entry, so the run's behaviour is a function of its arguments
    alone, not of whatever state the policy object accumulated before the
    call.
    """
    seed = config.seed ^ run_index
    policy = policy.fork(seed)
    deadline = time.monotonic() + config.wall_budget_secs
    trace = RunTrace.new(problem.name, run_index, seed, *config.run_header(seed))
    tree = GoalTree(problem)

    decompose_used = 0
    witness: Env | None = None
    while decompose_used < config.decompose_iters:
        if time.monotonic() > deadline:
            break
        target = select_target(tree, config.target_strategy)
        if target is None:
            break
        decompose_used += 1
        outcome = decompose_step(tree, target, policy, checker, config, trace, decompose_used)
        if outcome.kind == STEP_DISPROVED:
            # A disproving step always carries its witness.
            witness = outcome.witness
            break

    lemma_count = proof_lines = None
    complete_used = audit_failures = open_count = 0
    if witness is not None:
        outcome_name = OUTCOME_DISPROVED
    else:
        lemma_count = len(tree.leaves())
        trace.emit(
            "stage_transition",
            decompose_iterations=decompose_used,
            lemma_count=lemma_count,
            open_leaves=[n.name for n in tree.open_nodes()],
        )
        complete_used, audit_failures = completion_stage(
            tree, policy, checker, config, trace, deadline, pool=pool,
        )
        outcome_name = OUTCOME_PROVED if tree.all_closed() else OUTCOME_EXHAUSTED
        proof_lines = _count_proof_lines(tree)
        open_count = len(tree.open_nodes())
    shared = dict(
        outcome=outcome_name,
        decompose_iterations=decompose_used,
        complete_iterations=complete_used,
        lemma_count=lemma_count,
        proof_lines=proof_lines,
        audit_failures=audit_failures,
    )
    trace.emit(
        "run_end",
        witness=None if witness is None else env_to_json(witness),
        pool=None,
        **shared,
    )
    result = RunResult(
        problem=problem.name,
        run_index=run_index,
        seed=seed,
        open_leaves=open_count,
        witness=witness,
        **shared,
    )
    return result, trace


def _count_proof_lines(tree: GoalTree) -> int | None:
    """Total lines across closing proofs, when real proof text exists.

    Built-in completion closes leaves with the one-word decide directive;
    counting those lines would just re-report the leaf count, so the figure
    is only produced when some closing proof is more than that directive.
    """
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
    so the attempts diverge while staying replayable.  Every run gets one
    copy of the config with ``k_parallel=1``, whose header text is encoded
    once.  ``first_success_run`` is 1-based; ``pool_factory`` (if given)
    builds a fresh pool for each run, which is shut down with its run.
    """
    k = config.k_parallel
    run_config = replace(config, k_parallel=1)

    def one(i: int) -> tuple[RunResult, RunTrace]:
        pool = pool_factory() if pool_factory is not None else None
        try:
            return run_single(problem, policy, checker, run_config, run_index=i, pool=pool)
        finally:
            if pool is not None:
                pool.shutdown()

    if k == 1 or (max_workers is not None and max_workers <= 1):
        outcomes = [one(i) for i in range(k)]
    else:
        # Imported here: concurrent.futures pulls in logging and traceback,
        # which a process that never fans out would otherwise carry.
        from concurrent.futures import ThreadPoolExecutor

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
