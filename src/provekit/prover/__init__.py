"""Checker and policy backends plus the contracts they share."""

from .api import (
    ACCEPTED,
    CHECKER_ERROR,
    DEFAULT_AXIOM_ALLOWLIST,
    DIRECT_PROOF_DIRECTIVE,
    KIND_COMPLETION,
    KIND_DIRECT,
    KIND_RECONSTRUCTION,
    MODE_COMPLETE,
    MODE_DECOMPOSE,
    RECON_AND_INTRO,
    RECON_DIRECT,
    RECON_ENTAILMENT,
    RECON_GROUND,
    REJECTED,
    TIMEOUT,
    Checker,
    CheckRequest,
    CheckVerdict,
    DecompositionProposal,
    FeedbackEntry,
    Policy,
    PolicyContext,
    axiom_audit,
    fresh_lemma_name,
)
from .builtin import (
    BuiltinChecker,
    ConjunctionSplitter,
    DirectSubmit,
    QuantifierGrounder,
    StochasticPolicy,
)
from .external import (
    ExternalChecker,
    ExternalPolicy,
    JsonHttpEndpoint,
    JsonLineProcess,
    make_transport,
)

__all__ = [
    "ACCEPTED", "CHECKER_ERROR", "DEFAULT_AXIOM_ALLOWLIST",
    "DIRECT_PROOF_DIRECTIVE", "KIND_COMPLETION", "KIND_DIRECT",
    "KIND_RECONSTRUCTION", "MODE_COMPLETE", "MODE_DECOMPOSE",
    "RECON_AND_INTRO", "RECON_DIRECT", "RECON_ENTAILMENT", "RECON_GROUND",
    "REJECTED", "TIMEOUT",
    "Checker", "CheckRequest", "CheckVerdict", "DecompositionProposal",
    "FeedbackEntry", "Policy", "PolicyContext",
    "axiom_audit", "fresh_lemma_name",
    "BuiltinChecker", "ConjunctionSplitter", "DirectSubmit",
    "QuantifierGrounder", "StochasticPolicy",
    "ExternalChecker", "ExternalPolicy", "JsonHttpEndpoint",
    "JsonLineProcess", "make_transport",
]
