"""Evaluator-backed checker and the deterministic built-in policies.

The built-in checker decides obligations over a finite domain.  Structural
reconstruction markers (conjunction introduction, first-binder grounding)
are verified syntactically, which keeps their cost independent of the
domain size; everything else falls back to the bounded entailment check.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import replace

from ..errors import BudgetExceeded
from ..evaluator import DecisionVerdict, Domain, decide_bounded, entailment_check
from ..lang.ast import (
    And,
    Formula,
    GoalDecl,
    IntLit,
    ListLit,
    Lt,
    Sort,
    Term,
    conjunct_fringe,
    free_vars,
    substitute,
)
from ..lang.printer import format_formula
from . import api
from .api import (
    CheckRequest,
    CheckVerdict,
    CompletionAttempt,
    DecompositionProposal,
    PolicyContext,
    fresh_lemma_name,
)


def value_term(value: int | tuple[int, ...]) -> Term:
    if isinstance(value, tuple):
        return ListLit(tuple(IntLit(v) for v in value))
    return IntLit(value)


def witness_text(env: dict) -> str:
    parts = []
    for name in sorted(env):
        value = env[name]
        shown = list(value) if isinstance(value, tuple) else value
        parts.append(f"{name}={shown}")
    return ", ".join(parts)


# Distinct (statement, budget) pairs one checker remembers.  A pass@k sweep
# re-decides a few dozen statements hundreds of times; with the gate
# quickcheck memo in ``search`` this held about 0.27 MB after 3000
# ``passk_builtin`` benchmark goals.
DECIDE_MEMO_SIZE = 128


def _decide_statement(
    binders: tuple[tuple[str, Sort], ...], body: Formula, domain: Domain
) -> CheckVerdict:
    # The goal name never reaches the verdict: deciding and the
    # counterexample text depend on the binders and the body alone.
    verdict = decide_bounded(GoalDecl(name="", binders=binders, body=body), domain)
    if verdict.status == DecisionVerdict.VALID:
        return api.accepted()
    if verdict.status == DecisionVerdict.COUNTEREXAMPLE:
        return api.rejected(f"counterexample: {witness_text(verdict.witness or {})}")
    return api.timeout()


class BuiltinChecker:
    """Checker over the bounded evaluator.

    The evaluation budget is derived from the requested timeout (a fixed
    node rate, not wall time) and capped by the domain's own budget, so
    identical obligations always get identical verdicts.

    Bounded decides (direct checks, direct-proof completions and
    reconstructions without lemmas) are memoized per checker in an LRU of
    ``DECIDE_MEMO_SIZE`` entries keyed by the goal's binders, its body and
    the effective domain, whose ``node_budget`` carries the timeout.  The
    goal name is not part of the key.  A timeout is cached like any other
    verdict: it means the node budget ran out, which is a deterministic
    function of the statement and that budget, and it is still reported
    as a timeout, never as a proof.  An exception escapes the memo
    uncached and surfaces as ``checker_error``, so a later call retries.
    """

    def __init__(self, domain: Domain, nodes_per_ms: int = 1000):
        self.domain = domain
        self.nodes_per_ms = nodes_per_ms
        self._decide_memo = functools.lru_cache(maxsize=DECIDE_MEMO_SIZE)(_decide_statement)

    def _domain_for(self, timeout_ms: int) -> Domain:
        budget = min(self.domain.node_budget, max(1, timeout_ms) * self.nodes_per_ms)
        return replace(self.domain, node_budget=budget)

    def check(self, request: CheckRequest, timeout_ms: int) -> CheckVerdict:
        start = time.perf_counter()
        domain = self._domain_for(timeout_ms)
        try:
            verdict = self._dispatch(request, domain)
        except BudgetExceeded:
            verdict = api.timeout()
        except Exception as exc:  # infrastructure failure, not falsity
            verdict = api.checker_error(f"{type(exc).__name__}: {exc}")
        elapsed_ms = int((time.perf_counter() - start) * 1000)
        return replace(verdict, wall_time_ms=elapsed_ms)

    # -- dispatch ------------------------------------------------------------

    def _dispatch(self, request: CheckRequest, domain: Domain) -> CheckVerdict:
        if request.kind == api.KIND_DIRECT:
            return self._decide(request.goal, domain)
        if request.kind == api.KIND_COMPLETION:
            if request.proof_text == api.DIRECT_PROOF_DIRECTIVE:
                return self._decide(request.goal, domain)
            return api.rejected(f"unrecognized proof directive {request.proof_text!r}")
        marker = request.proof_text or api.RECON_ENTAILMENT
        if not request.lemmas:
            return self._decide(request.goal, domain)
        if marker == api.RECON_AND_INTRO:
            return self._check_and_intro(request.goal, request.lemmas)
        if marker == api.RECON_GROUND:
            return self._check_grounding(request.goal, request.lemmas, domain)
        return self._check_entailment(request.goal, request.lemmas, domain)

    def _decide(self, goal: GoalDecl, domain: Domain) -> CheckVerdict:
        return self._decide_memo(goal.binders, goal.body, domain)

    def _check_entailment(
        self, goal: GoalDecl, lemmas: tuple[GoalDecl, ...], domain: Domain
    ) -> CheckVerdict:
        if entailment_check(list(lemmas), goal, domain):
            return api.accepted()
        return api.rejected("lemmas do not entail the goal over the domain")

    def _check_and_intro(self, goal: GoalDecl, lemmas: tuple[GoalDecl, ...]) -> CheckVerdict:
        """Structural conjunction introduction: the lemma bodies, in order,
        must tile the conjunct fringe of the goal body, and each lemma must
        close over a subset of the goal's binders."""
        binder_set = set(goal.binders)
        collected: list[Formula] = []
        for lemma in lemmas:
            for binder in lemma.binders:
                if binder not in binder_set:
                    return api.rejected(
                        f"lemma {lemma.name} binds {binder[0]!r} which the goal does not"
                    )
            missing = free_vars(lemma.body) - {name for name, _ in lemma.binders}
            if missing:
                return api.rejected(f"lemma {lemma.name} leaves {sorted(missing)} unbound")
            collected.extend(conjunct_fringe(lemma.body))
        if collected != conjunct_fringe(goal.body):
            return api.rejected("lemma bodies do not tile the goal's conjunction")
        return api.accepted()

    def _check_grounding(
        self, goal: GoalDecl, lemmas: tuple[GoalDecl, ...], domain: Domain
    ) -> CheckVerdict:
        """Structural grounding of the first binder: one lemma per domain
        value, in enumeration order, with the binder substituted away."""
        if not goal.binders:
            return api.rejected("grounding needs at least one binder")
        name0, sort0 = goal.binders[0]
        values = list(domain.iter_values(sort0))
        if len(lemmas) != len(values):
            return api.rejected(
                f"grounding needs {len(values)} instances, got {len(lemmas)}"
            )
        rest = goal.binders[1:]
        for lemma, value in zip(lemmas, values):
            if lemma.binders != rest:
                return api.rejected(f"lemma {lemma.name} must keep binders {rest!r}")
            expected = substitute(goal.body, name0, value_term(value))
            if lemma.body != expected:
                return api.rejected(
                    f"lemma {lemma.name} is not the instance at {name0} = {value!r}; "
                    f"expected body: {format_formula(expected)}"
                )
        return api.accepted()


# ---------------------------------------------------------------------------
# Built-in policies


def _restrict_binders(
    binders: tuple[tuple[str, Sort], ...], used: set[str]
) -> tuple[tuple[str, Sort], ...]:
    return tuple(b for b in binders if b[0] in used)


def _split_fringe(body: Formula, depth: int) -> list[Formula]:
    if depth <= 0 or not isinstance(body, And):
        return [body]
    return _split_fringe(body.left, depth - 1) + _split_fringe(body.right, depth - 1)


def _direct_proposal() -> DecompositionProposal:
    return DecompositionProposal(lemmas=(), reconstruction=api.RECON_DIRECT)


def _completion(context: PolicyContext) -> CompletionAttempt:
    return CompletionAttempt(
        proof_text=api.DIRECT_PROOF_DIRECTIVE,
        attempt_index=len(context.feedback_history) + 1,
    )


class DirectSubmit:
    """Always asks for the target to be discharged outright."""

    def propose_decomposition(self, context: PolicyContext) -> DecompositionProposal:
        return _direct_proposal()

    def propose_completion(self, context: PolicyContext) -> CompletionAttempt:
        return _completion(context)

    def fork(self, seed: int) -> "DirectSubmit":
        return self


class ConjunctionSplitter:
    """Split a conjunction into its conjuncts, recursing to a depth limit.

    Each lemma keeps only the parent binders its body mentions.  Non-
    conjunctions fall through to a direct discharge."""

    def __init__(self, depth: int = 1):
        self.depth = depth

    def propose_decomposition(self, context: PolicyContext) -> DecompositionProposal:
        goal = context.goal
        if not isinstance(goal.body, And):
            return _direct_proposal()
        pieces = _split_fringe(goal.body, self.depth)
        child_depth = context.target_depth + 1
        lemmas = []
        for i, piece in enumerate(pieces, start=1):
            lemmas.append(
                GoalDecl(
                    name=fresh_lemma_name(goal.name, child_depth, i),
                    binders=_restrict_binders(goal.binders, free_vars(piece)),
                    body=piece,
                )
            )
        return DecompositionProposal(
            lemmas=tuple(lemmas),
            reconstruction=api.RECON_AND_INTRO,
            rationale="split the conjunction into independent pieces",
        )

    def propose_completion(self, context: PolicyContext) -> CompletionAttempt:
        return _completion(context)

    def fork(self, seed: int) -> "ConjunctionSplitter":
        return self


class QuantifierGrounder:
    """Replace the first binder by one lemma per domain value when the
    enumeration is small enough to be worth spelling out."""

    def __init__(self, domain: Domain, max_points: int = 8):
        self.domain = domain
        self.max_points = max_points

    def propose_decomposition(self, context: PolicyContext) -> DecompositionProposal:
        goal = context.goal
        if not goal.binders:
            return _direct_proposal()
        name0, sort0 = goal.binders[0]
        if self.domain.value_count(sort0) > self.max_points:
            return _direct_proposal()
        child_depth = context.target_depth + 1
        lemmas = []
        for i, value in enumerate(self.domain.iter_values(sort0), start=1):
            lemmas.append(
                GoalDecl(
                    name=fresh_lemma_name(goal.name, child_depth, i),
                    binders=goal.binders[1:],
                    body=substitute(goal.body, name0, value_term(value)),
                )
            )
        return DecompositionProposal(
            lemmas=tuple(lemmas),
            reconstruction=api.RECON_GROUND,
            rationale=f"ground {name0} over its {len(lemmas)}-point carrier",
        )

    def propose_completion(self, context: PolicyContext) -> CompletionAttempt:
        return _completion(context)

    def fork(self, seed: int) -> "QuantifierGrounder":
        return self


def _junk_proposal(context: PolicyContext) -> DecompositionProposal:
    """A deliberately worthless proposal: one unsatisfiable closed lemma.

    Useful as the low-quality arm when exercising gates and calibration;
    the per-lemma counterexample search rejects it immediately."""
    child_depth = context.target_depth + 1
    lemma = GoalDecl(
        name=fresh_lemma_name(context.goal.name, child_depth, 1),
        binders=(),
        body=Lt(IntLit(0), IntLit(0)),
    )
    return DecompositionProposal(
        lemmas=(lemma,),
        reconstruction=api.RECON_ENTAILMENT,
        rationale="speculative helper",
    )


DEFAULT_WEIGHTS = {"split": 0.45, "direct": 0.25, "ground": 0.15, "junk": 0.15}


class StochasticPolicy:
    """Seeded mixture over the built-in proposal strategies.

    One generator drives all draws, so a single-threaded run replays
    identically; forking reseeds a fresh copy for an independent run."""

    def __init__(
        self,
        seed: int,
        domain: Domain,
        weights: dict[str, float] | None = None,
        split_depth: int = 1,
        max_ground_points: int = 8,
    ):
        self.seed = seed
        self.domain = domain
        self.weights = dict(weights or DEFAULT_WEIGHTS)
        self.split_depth = split_depth
        self.max_ground_points = max_ground_points
        self._rng = random.Random(seed)
        self._splitter = ConjunctionSplitter(depth=split_depth)
        self._grounder = QuantifierGrounder(domain, max_points=max_ground_points)
        self._direct = DirectSubmit()

    def propose_decomposition(self, context: PolicyContext) -> DecompositionProposal:
        names = sorted(self.weights)
        action = self._rng.choices(names, weights=[self.weights[n] for n in names])[0]
        if action == "split":
            return self._splitter.propose_decomposition(context)
        if action == "ground":
            return self._grounder.propose_decomposition(context)
        if action == "junk":
            return _junk_proposal(context)
        return self._direct.propose_decomposition(context)

    def propose_completion(self, context: PolicyContext) -> CompletionAttempt:
        return _completion(context)

    def fork(self, seed: int) -> "StochasticPolicy":
        return StochasticPolicy(
            seed,
            self.domain,
            weights=self.weights,
            split_depth=self.split_depth,
            max_ground_points=self.max_ground_points,
        )

