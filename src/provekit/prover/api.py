"""Contracts between the search engine and its proposal/verification backends.

Checkers verify; policies propose.  Both come in a built-in flavor (backed
by the bounded evaluator) and an external flavor (a process or HTTP service
speaking newline-delimited JSON).  The engine only ever sees these types.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from ..errors import ContractViolation
from ..lang.ast import GoalDecl

# Check request kinds.
KIND_DIRECT = "direct"
KIND_RECONSTRUCTION = "reconstruction"
KIND_COMPLETION = "completion"

# Verdict statuses.
ACCEPTED = "accepted"
REJECTED = "rejected"
TIMEOUT = "timeout"
CHECKER_ERROR = "checker_error"

# Proposal modes: the ``mode`` field of an external policy request.
MODE_DECOMPOSE = "decompose"
MODE_COMPLETE = "complete"

# Reconstruction markers understood by the built-in checker.  Anything else
# falls back to the semantic entailment check.
RECON_ENTAILMENT = "entailment"
RECON_AND_INTRO = "and-intro"
RECON_GROUND = "ground-first-binder"
RECON_DIRECT = "direct"

# The one proof directive the built-in completion checker understands.
DIRECT_PROOF_DIRECTIVE = "decide"

# Axioms an accepted proof may depend on without losing trust.
DEFAULT_AXIOM_ALLOWLIST = frozenset({"propext", "Classical.choice", "Quot.sound"})


@dataclass(frozen=True)
class CheckRequest:
    kind: str
    goal: GoalDecl
    lemmas: tuple[GoalDecl, ...] = ()
    proof_text: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in (KIND_DIRECT, KIND_RECONSTRUCTION, KIND_COMPLETION):
            raise ContractViolation(f"unknown check kind {self.kind!r}")


@dataclass(frozen=True)
class CheckVerdict:
    status: str
    diagnostics: str = ""
    axioms_used: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.status != ACCEPTED and self.axioms_used:
            raise ContractViolation("axioms_used is only meaningful on acceptance")

    @property
    def is_accepted(self) -> bool:
        return self.status == ACCEPTED


def accepted(axioms: tuple[str, ...] = ()) -> CheckVerdict:
    return CheckVerdict(ACCEPTED, axioms_used=axioms)


def rejected(diagnostics: str) -> CheckVerdict:
    return CheckVerdict(REJECTED, diagnostics=diagnostics)


def timeout() -> CheckVerdict:
    return CheckVerdict(TIMEOUT, diagnostics="check budget exhausted")


def checker_error(diagnostics: str) -> CheckVerdict:
    return CheckVerdict(CHECKER_ERROR, diagnostics=diagnostics)


@dataclass(frozen=True)
class DecompositionProposal:
    """Candidate child lemmas plus how to rebuild the parent from them.

    Zero lemmas means a direct discharge: prove the target outright."""

    lemmas: tuple[GoalDecl, ...]
    reconstruction: str
    rationale: str | None = None

    @property
    def k(self) -> int:
        return len(self.lemmas)


@dataclass(frozen=True)
class FeedbackEntry:
    proof_text: str
    verdict: CheckVerdict


@dataclass(frozen=True)
class PolicyContext:
    """Everything a proposal source may condition on: the goal, the other
    open goals, the failed attempts on this goal and its depth in the tree.

    The method it is passed to says whether a decomposition or a completion
    is wanted.  feedback_history holds this goal's failed completions, in
    order; search leaves it empty when asking for a decomposition.
    target_depth lets policies mint canonical fresh lemma names
    (``<parent>_<depth>_<ordinal>``) without seeing the goal tree.
    """

    goal: GoalDecl
    sibling_goals: tuple[GoalDecl, ...] = ()
    feedback_history: tuple[FeedbackEntry, ...] = ()
    target_depth: int = 0


@runtime_checkable
class Checker(Protocol):
    def check(self, request: CheckRequest, timeout_ms: int) -> CheckVerdict:
        """Verify one obligation within the given budget.  Infrastructure
        failures must come back as checker_error verdicts, never as a
        rejected one: flakiness must not look like mathematical falsity."""
        ...


@runtime_checkable
class Policy(Protocol):
    def propose_decomposition(self, context: PolicyContext) -> DecompositionProposal:
        ...

    def propose_completion(self, context: PolicyContext) -> str:
        """The proof text to check for ``context.goal``."""
        ...

    def fork(self, seed: int) -> "Policy":
        """A reseeded copy safe to drive an independent run; stateless
        policies may return themselves."""
        ...


def fresh_lemma_name(parent: str, depth: int, ordinal: int) -> str:
    return f"{parent}_{depth}_{ordinal}"


def axiom_audit(
    verdict: CheckVerdict, allowlist: frozenset[str] = DEFAULT_AXIOM_ALLOWLIST
) -> list[str]:
    """Return the axioms an accepted verdict relies on beyond the allowlist.

    Empty means the verdict passes.  Auditing anything but an acceptance is
    a caller bug."""
    if verdict.status != ACCEPTED:
        raise ContractViolation("only accepted verdicts carry axioms to audit")
    return [axiom for axiom in verdict.axioms_used if axiom not in allowlist]
