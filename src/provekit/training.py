"""Turning search activity into training data.

Three concerns live here: scoring groups of decomposition rollouts so a
learner gets a graded reward instead of a pass/fail bit, closing lemmas with
a learned policy before falling back to a deterministic one, and exporting
validated trajectory records plus a deduplicated curriculum of the lemmas
the search invented along the way.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from .errors import ContractViolation, FilterViolation
from .lang import GoalDecl, parse_goal, print_goal, statement_key
from .prover import (
    ACCEPTED,
    DEFAULT_AXIOM_ALLOWLIST,
    CheckVerdict,
    Checker,
    DecompositionProposal,
    Policy,
)
from .quickcheck import mix_seed
from .search import (
    GOAL_PROVED,
    REASON_INFRASTRUCTURE,
    GoalTree,
    ProposalEvaluation,
    SearchConfig,
    completion_stage,
    propose_and_gate,
)
from .trace import RunTrace, canonical_json, check_keys, numbered_objects, read_text

RECORD_DECOMPOSITION = "decomposition"
RECORD_COMPLETION = "completion"

SOURCE_POLICY = "policy"
SOURCE_FALLBACK = "fallback"

TRAJECTORY_FORMAT_VERSION = 1


@dataclass
class Rollout:
    """One sampled decomposition plus how the gate judged it.

    ``reward`` is None exactly when the sample ended in an infrastructure
    error (policy crash or checker_error); such samples carry no signal
    about the proposal's quality and are excluded from group statistics.
    """

    proposal: DecompositionProposal | None
    evaluation: ProposalEvaluation | None
    reward: float | None
    error: str | None = None


@dataclass
class RolloutGroup:
    goal: GoalDecl
    rollouts: list[Rollout]

    def rewards(self) -> list[float]:
        return [r.reward for r in self.rollouts if r.reward is not None]

    @property
    def all_error(self) -> bool:
        return not self.rewards()

    def mean_reward(self) -> float | None:
        rewards = self.rewards()
        if not rewards:
            return None
        return sum(rewards) / len(rewards)


def score_rollout_group(
    goal: GoalDecl,
    policy: Policy,
    checker: Checker,
    config: SearchConfig,
    n_rollouts: int = 8,
) -> RolloutGroup:
    """Sample ``n_rollouts`` proposals for one goal and score each.

    Each sample takes the search's own path (``propose_and_gate``) on a
    one-goal tree, so the reward is S exactly when search would accept the
    proposal.  A stochastic policy diversifies on its own RNG.  Gate
    failures are rewards of 0.0, not errors: the learner must see them.
    """
    if n_rollouts < 1:
        raise ContractViolation("n_rollouts must be >= 1")
    tree = GoalTree(goal)
    root = tree.nodes[goal.name]
    rollouts: list[Rollout] = []
    for _ in range(n_rollouts):
        proposal, evaluation = propose_and_gate(tree, root, policy, checker, config)
        if proposal is None:  # the policy failed
            rollout = Rollout(None, None, None, error=evaluation.reason)
        elif evaluation.reason == REASON_INFRASTRUCTURE:
            rollout = Rollout(proposal, evaluation, None, evaluation.reconstruction_verdict.diagnostics)
        else:
            rollout = Rollout(proposal, evaluation, evaluation.breakdown.S if evaluation.accepted else 0.0)
        rollouts.append(rollout)
    return RolloutGroup(goal=goal, rollouts=rollouts)


def filter_groups(groups: list[RolloutGroup]) -> list[RolloutGroup]:
    """Keep only groups whose mean reward carries a learning signal.

    Mean exactly 0 (everything failed) or exactly 1 (everything maximal)
    gives a zero-advantage batch; all-error groups have no mean at all.
    """
    kept = []
    for group in groups:
        mean = group.mean_reward()
        if mean is None or mean == 0.0 or mean == 1.0:
            continue
        kept.append(group)
    return kept


@dataclass
class CompletionOutcome:
    """Result of trying to close one lemma, policy first."""

    closed: bool
    source: str | None
    attempts_used: int
    proof_text: str | None = None
    verdict: CheckVerdict | None = None


def policy_first_completion(
    goal: GoalDecl,
    policy: Policy,
    fallback: Policy,
    checker: Checker,
    config: SearchConfig,
    policy_attempts: int = 4,
) -> CompletionOutcome:
    """Try the learned policy a few times, then the fallback.

    The total attempt budget is ``config.complete_iters``; the first
    ``policy_attempts`` of it go to the policy under test so its successes
    are observable separately from the safety net's.  Both phases are the
    search's completion stage over a one-goal tree, so the goal is asked
    for exactly as a search leaf would be (no siblings, depth 0), and the
    feedback of the policy's failures carries over to the fallback.
    """
    if policy_attempts < 0:
        raise ContractViolation("policy_attempts must be >= 0")
    tree = GoalTree(goal)
    node = tree.nodes[goal.name]
    trace = RunTrace(header={})  # the stage's events are not kept
    first = min(policy_attempts, config.complete_iters)
    phases = (
        (SOURCE_POLICY, policy, first),
        (SOURCE_FALLBACK, fallback, config.complete_iters - first),
    )
    used = 0
    for source, active, sweeps in phases:
        completion_stage(
            tree, active, checker, replace(config, complete_iters=sweeps), trace, float("inf")
        )
        if node.status == GOAL_PROVED:
            return CompletionOutcome(
                closed=True,
                source=source,
                attempts_used=used + node.closing_attempt,
                proof_text=node.closing_proof,
                verdict=node.closing_verdict,
            )
        used += sweeps
    return CompletionOutcome(closed=False, source=None, attempts_used=config.complete_iters)


class Curriculum:
    """A growing set of training goals, deduplicated up to renaming.

    Two goals that differ only in their bound-variable or goal names are
    the same exercise; the second copy is refused.  ``version`` bumps on
    every accepted addition so consumers can cheaply detect staleness.
    """

    def __init__(self) -> None:
        self._by_key: dict[str, GoalDecl] = {}
        self._names: set[str] = set()
        self.version = 0

    def __len__(self) -> int:
        return len(self._by_key)

    def __contains__(self, goal: GoalDecl) -> bool:
        return statement_key(goal) in self._by_key

    def goals(self) -> list[GoalDecl]:
        return list(self._by_key.values())

    def add(self, goal: GoalDecl) -> bool:
        key = statement_key(goal)
        if key in self._by_key:
            return False
        name = goal.name
        if name in self._names:
            # Distinct statement under a clashing name: keep both, the
            # newcomer renamed so exports stay unambiguous.
            suffix = 2
            while f"{name}_v{suffix}" in self._names:
                suffix += 1
            goal = GoalDecl(name=f"{name}_v{suffix}", binders=goal.binders, body=goal.body)
        self._by_key[key] = goal
        self._names.add(goal.name)
        self.version += 1
        return True


def augment_curriculum(curriculum: Curriculum, goals: list[GoalDecl]) -> int:
    added = 0
    for goal in goals:
        if curriculum.add(goal):
            added += 1
    return added


@dataclass
class TrajectoryRecord:
    """One exportable training example.

    Decomposition records carry the proposal and its full score breakdown;
    completion records carry the accepted proof and its verdict facts.
    """

    kind: str
    goal_source: str
    # decomposition fields
    lemma_sources: tuple[str, ...] = ()
    reconstruction: str | None = None
    score: dict | None = None
    reward: float | None = None
    # completion fields
    proof_text: str | None = None
    verdict_status: str | None = None
    axioms: tuple[str, ...] = ()
    attempt_index: int | None = None
    source: str | None = None
    replay: bool = False

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict, where: str = "trajectory record") -> "TrajectoryRecord":
        """The record in ``data``, as ``json.loads`` or ``to_json`` gives it."""
        data = {key: tuple(value) if type(value) is list else value for key, value in data.items()}
        check_keys(where, data, RECORD_KEYS, RECORD_OPTIONAL)
        return cls(**data)

    def goal(self) -> GoalDecl:
        return parse_goal(self.goal_source)


# The keys of a trajectory file's header line and of each record line, and
# the JSON types each may take; ``from_json`` has read a record's arrays as
# tuples.  The score is an object whose keys ``validate_record`` checks.
_NULL = type(None)
TRAJECTORY_HEADER = {"type": (str,), "format_version": (int,), "count": (int,)}
RECORD_KEYS = {"kind": (str,), "goal_source": (str,)}
RECORD_OPTIONAL = {
    "lemma_sources": (tuple,),
    "reconstruction": (str, _NULL),
    "score": (dict, _NULL),
    "reward": (float, int, _NULL),
    "proof_text": (str, _NULL),
    "verdict_status": (str, _NULL),
    "axioms": (tuple,),
    "attempt_index": (int, _NULL),
    "source": (str, _NULL),
    "replay": (bool,),
}


def validate_record(
    record: TrajectoryRecord,
    allowlist: frozenset[str] = DEFAULT_AXIOM_ALLOWLIST,
) -> None:
    """Admission rules for the training set.

    A decomposition example must have passed the gate (v = 1) and actually
    shrunk the goal (r > 0): rewarding zero-progress splits teaches the
    policy to stall.  A completion example must be an accepted proof whose
    axioms all sit inside the allowlist.
    """
    if record.kind == RECORD_DECOMPOSITION:
        if record.score is None:
            raise FilterViolation("decomposition record lacks its score breakdown")
        v = record.score.get("v")
        if type(v) is not int or v != 1:
            # A JSON true or 1.0 is not the gate bit, though both equal 1.
            raise FilterViolation("decomposition did not pass the validity gate")
        r = record.score.get("r", 0.0)
        if type(r) not in (float, int):
            raise FilterViolation(f"decomposition reduction r must be a number, not {r!r}")
        if not r > 0.0:
            raise FilterViolation("decomposition has zero reduction")
        return
    if record.kind == RECORD_COMPLETION:
        if record.verdict_status != ACCEPTED:
            raise FilterViolation("completion record is not an accepted proof")
        extra = [a for a in record.axioms if type(a) is not str or a not in allowlist]
        if extra:
            raise FilterViolation(f"completion relies on disallowed axioms: {extra}")
        return
    raise FilterViolation(f"unknown record kind {record.kind!r}")


def export_trajectories(records: list[TrajectoryRecord], path: str | Path) -> int:
    """Validate every record, then write the JSONL file atomically enough
    for our purposes (full-file write).  Returns the record count."""
    for record in records:
        validate_record(record)
    header = {
        "type": "trajectories",
        "format_version": TRAJECTORY_FORMAT_VERSION,
        "count": len(records),
    }
    lines = [canonical_json(header)]
    lines.extend(canonical_json(record.to_json()) for record in records)
    Path(path).write_text("\n".join(lines) + "\n")
    return len(records)


def load_trajectories(path: str | Path) -> list[TrajectoryRecord]:
    lines = numbered_objects(read_text(path))
    if not lines:
        raise FilterViolation("empty trajectory file")
    (number, header), rest = lines[0], lines[1:]
    if header.get("type") != "trajectories":
        raise FilterViolation("missing trajectory header")
    if header.get("format_version") != TRAJECTORY_FORMAT_VERSION:
        raise FilterViolation(f"unsupported trajectory format {header.get('format_version')!r}")
    check_keys(f"line {number}: trajectory header", header, TRAJECTORY_HEADER)
    records = [TrajectoryRecord.from_json(data, f"line {n}: trajectory record") for n, data in rest]
    if header["count"] != len(records):
        raise FilterViolation("trajectory count disagrees with header")
    for record in records:
        validate_record(record)
    return records


def _decomposition_record(goal: GoalDecl, rollout: Rollout) -> TrajectoryRecord:
    assert rollout.proposal is not None and rollout.evaluation is not None
    breakdown = rollout.evaluation.breakdown
    assert breakdown is not None
    return TrajectoryRecord(
        kind=RECORD_DECOMPOSITION,
        goal_source=print_goal(goal),
        lemma_sources=tuple(print_goal(l) for l in rollout.proposal.lemmas),
        reconstruction=rollout.proposal.reconstruction,
        score=breakdown.to_json(),
        reward=rollout.reward,
    )


@dataclass
class CollectStats:
    problems_sampled: int = 0
    groups_kept: int = 0
    groups_dropped: int = 0
    decomposition_records: int = 0
    completion_records: int = 0
    curriculum_added: int = 0


def collect(
    problems: list[GoalDecl],
    policy: Policy,
    checker: Checker,
    config: SearchConfig,
    fallback: Policy | None = None,
    curriculum: Curriculum | None = None,
    n_problems: int | None = None,
    n_rollouts: int = 8,
    replay_ratio: float = 0.25,
    policy_attempts: int = 4,
) -> tuple[list[TrajectoryRecord], Curriculum, CollectStats]:
    """One data-collection pass.

    For each sampled problem: draw a rollout group, keep it only if its
    reward spread is informative, export the gate-passing rollouts, then
    close the best proposal's lemmas (policy first, fallback after) and
    export those proofs.  ``replay_ratio`` of completion records are marked
    for replay so later training mixes fresh and replayed proofs; lemmas
    from the best rollout feed the curriculum.
    """
    if not problems:
        raise ContractViolation("need at least one problem to collect from")
    if not 0.0 <= replay_ratio <= 1.0:
        raise ContractViolation("replay_ratio must be within [0, 1]")
    fallback = fallback if fallback is not None else policy
    curriculum = curriculum if curriculum is not None else Curriculum()
    count = n_problems if n_problems is not None else len(problems)
    rng = random.Random(mix_seed(config.seed, "collect"))
    records: list[TrajectoryRecord] = []
    stats = CollectStats()
    for _ in range(count):
        problem = problems[rng.randrange(len(problems))]
        stats.problems_sampled += 1
        run_policy = policy.fork(mix_seed(config.seed, f"collect:{problem.name}:{stats.problems_sampled}"))
        group = score_rollout_group(problem, run_policy, checker, config, n_rollouts)
        if not filter_groups([group]):
            stats.groups_dropped += 1
            continue
        stats.groups_kept += 1
        best: Rollout | None = None
        for rollout in group.rollouts:
            # The reward is S = r * v when the gate accepts, so it is positive
            # exactly when the record passes validate_record (v = 1, r > 0).
            if rollout.reward is None or not rollout.reward > 0.0:
                continue
            records.append(_decomposition_record(problem, rollout))
            stats.decomposition_records += 1
            # Completion practice and curriculum growth both need lemmas, so
            # the best *decomposing* rollout is followed up, not a discharge.
            if rollout.proposal is not None and rollout.proposal.k >= 1:
                if best is None or rollout.reward > best.reward:
                    best = rollout
        if best is None or best.proposal is None:
            continue
        for lemma in best.proposal.lemmas:
            outcome = policy_first_completion(
                lemma, run_policy, fallback, checker, config, policy_attempts
            )
            if not outcome.closed:
                continue
            assert outcome.verdict is not None and outcome.proof_text is not None
            records.append(
                TrajectoryRecord(
                    kind=RECORD_COMPLETION,
                    goal_source=print_goal(lemma),
                    proof_text=outcome.proof_text,
                    verdict_status=outcome.verdict.status,
                    axioms=outcome.verdict.axioms_used,
                    attempt_index=outcome.attempts_used,
                    source=outcome.source,
                    replay=rng.random() < replay_ratio,
                )
            )
            stats.completion_records += 1
        stats.curriculum_added += augment_curriculum(curriculum, list(best.proposal.lemmas))
    return records, curriculum, stats
