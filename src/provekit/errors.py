"""Exception types shared across the engine.

Every failure mode that crosses a module boundary gets a named class here so
callers can react to the category without string matching.
"""

from __future__ import annotations


class ProvekitError(Exception):
    """Base class for all engine errors."""


class ParseError(ProvekitError):
    """Raised on malformed goal text.

    Carries the source position so tools can point at the offending token.
    """

    def __init__(self, message: str, line: int, column: int, length: int = 1) -> None:
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column
        self.length = length


class EvalError(ProvekitError):
    """A term or formula could not be evaluated (e.g. modulo by zero)."""


class BudgetExceeded(ProvekitError):
    """The per-decision evaluation step budget ran out."""


class ContractViolation(ProvekitError):
    """An operation was called outside its stated preconditions."""


class PolicyError(ProvekitError):
    """A proposal source misbehaved (unparseable or malformed response)."""


class CheckerProtocolError(ProvekitError):
    """An external checker broke the wire protocol (bad id, bad JSON, ...)."""


class UnknownHandle(ProvekitError):
    """A job handle was not issued by this pool."""


class MixedConfigError(ProvekitError):
    """Traces grouped into one analysis disagree on non-seed configuration."""


class UndefinedMetric(ProvekitError):
    """A metric has no defined value on this input (e.g. single-class AUROC)."""


class FilterViolation(ProvekitError):
    """A trajectory record failed the export-time quality filter."""
