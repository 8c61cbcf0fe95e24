"""Evaluator-backed checker and the deterministic built-in policies.

The built-in checker decides obligations over a finite domain.  Structural
reconstruction markers (conjunction introduction, first-binder grounding)
are verified syntactically, which keeps their cost independent of the
domain size; everything else falls back to the bounded entailment check.
"""

from __future__ import annotations

import functools
import random
from dataclasses import replace

from ..errors import BudgetExceeded, ContractViolation
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
NODES_PER_MS = 1000  # evaluation steps per millisecond of a check's timeout
MAX_GROUND_POINTS = 8  # the widest carrier ``QuantifierGrounder`` spells out


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
    rate of ``NODES_PER_MS``, not wall time) and capped by the domain's own
    budget, so identical obligations always get identical verdicts.

    Bounded decides (direct checks, direct-proof completions and
    reconstructions without lemmas) are memoized per checker in an LRU of
    ``DECIDE_MEMO_SIZE`` entries keyed by the goal's binders, its body and
    the effective domain, whose ``node_budget`` carries the timeout.  The
    goal name is not part of the key.  A timeout is cached like any other
    verdict: it means the node budget ran out, which is a deterministic
    function of the statement and that budget, and it is still reported
    as a timeout, never as a proof.  An exception escapes the memo
    uncached and surfaces as ``checker_error``, so a later call retries.
    The effective domain of the last timeout is kept, so a run of checks
    at one timeout passes the memo the same ``Domain`` object each time.
    """

    def __init__(self, domain: Domain):
        self.domain = domain
        self._decide_memo = functools.lru_cache(maxsize=DECIDE_MEMO_SIZE)(_decide_statement)
        self._last_domain: tuple[int, Domain] | None = None

    def _domain_for(self, timeout_ms: int) -> Domain:
        # One read and one assignment of a tuple, so threads sharing the
        # checker never see a timeout paired with another timeout's domain.
        last = self._last_domain
        if last is not None and last[0] == timeout_ms:
            return last[1]
        budget = min(self.domain.node_budget, max(1, timeout_ms) * NODES_PER_MS)
        domain = replace(self.domain, node_budget=budget)
        self._last_domain = (timeout_ms, domain)
        return domain

    def check(self, request: CheckRequest, timeout_ms: int) -> CheckVerdict:
        try:
            return self._dispatch(request, self._domain_for(timeout_ms))
        except BudgetExceeded:
            return api.timeout()
        except Exception as exc:  # infrastructure failure, not falsity
            return api.checker_error(f"{type(exc).__name__}: {exc}")

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
        if entailment_check(request.lemmas, request.goal, domain):
            return api.accepted()
        return api.rejected("lemmas do not entail the goal over the domain")

    def _decide(self, goal: GoalDecl, domain: Domain) -> CheckVerdict:
        return self._decide_memo(goal.binders, goal.body, domain)

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
        values = domain.carrier(sort0)
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


def _direct_proposal() -> DecompositionProposal:
    return DecompositionProposal(lemmas=(), reconstruction=api.RECON_DIRECT)


class _BuiltinPolicy:
    """What the built-in policies share: every completion is the direct-proof
    directive, and a policy with no per-run state forks to itself."""

    def propose_completion(self, context: PolicyContext) -> str:
        return api.DIRECT_PROOF_DIRECTIVE

    def fork(self, seed: int) -> "_BuiltinPolicy":
        return self


class DirectSubmit(_BuiltinPolicy):
    """Always asks for the target to be discharged outright."""

    def propose_decomposition(self, context: PolicyContext) -> DecompositionProposal:
        return _direct_proposal()


class ConjunctionSplitter(_BuiltinPolicy):
    """Split a conjunction into its conjuncts, recursing to a depth limit.

    Each lemma keeps only the parent binders its body mentions.  Non-
    conjunctions fall through to a direct discharge.  The depth is at least
    1: at depth 0 the fringe is the goal itself, proposed as its own lemma."""

    def __init__(self, depth: int = 1):
        if depth < 1:
            raise ContractViolation("split depth must be a positive integer")
        self.depth = depth

    def propose_decomposition(self, context: PolicyContext) -> DecompositionProposal:
        goal = context.goal
        if not isinstance(goal.body, And):
            return _direct_proposal()
        pieces = conjunct_fringe(goal.body, self.depth)
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


class QuantifierGrounder(_BuiltinPolicy):
    """Replace the first binder by one lemma per domain value when the
    enumeration has at most ``MAX_GROUND_POINTS`` values."""

    def __init__(self, domain: Domain):
        self.domain = domain

    def propose_decomposition(self, context: PolicyContext) -> DecompositionProposal:
        goal = context.goal
        if not goal.binders:
            return _direct_proposal()
        name0, sort0 = goal.binders[0]
        if self.domain.value_count(sort0) > MAX_GROUND_POINTS:
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


class StochasticPolicy(_BuiltinPolicy):
    """Seeded mixture over the built-in proposal strategies.

    One generator drives all draws, so a single-threaded run replays
    identically; forking gives an independent run a fresh generator on the
    fork's seed.  The generator is seeded on the first draw, so a run that
    never asks for a decomposition (its root is refuted first) seeds none.
    Forks share the stateless sub-policies."""

    def __init__(
        self,
        seed: int,
        domain: Domain,
        weights: dict[str, float] | None = None,
        split_depth: int = 1,
    ):
        self.seed = seed
        self.domain = domain
        self.weights = dict(weights or DEFAULT_WEIGHTS)
        self.split_depth = split_depth
        self._rng: random.Random | None = None
        self._splitter = ConjunctionSplitter(depth=split_depth)
        self._grounder = QuantifierGrounder(domain)
        self._direct = DirectSubmit()

    def propose_decomposition(self, context: PolicyContext) -> DecompositionProposal:
        if self._rng is None:
            self._rng = random.Random(self.seed)
        names = sorted(self.weights)
        action = self._rng.choices(names, weights=[self.weights[n] for n in names])[0]
        if action == "split":
            return self._splitter.propose_decomposition(context)
        if action == "ground":
            return self._grounder.propose_decomposition(context)
        if action == "junk":
            return _junk_proposal(context)
        return self._direct.propose_decomposition(context)

    def fork(self, seed: int) -> "StochasticPolicy":
        # A copy of every attribute but the seed and the generator; the
        # sub-policies are shared, and copy.copy would cost more than this.
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__, seed=seed, weights=dict(self.weights), _rng=None)
        return twin

