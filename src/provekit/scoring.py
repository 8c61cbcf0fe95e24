"""Decomposition quality scoring.

A proposal earns a score only if it survives both validity gates (statement
reconstruction and per-lemma counterexample search); the magnitude then
reflects how much smaller the children are than the parent.  Child sizes are
aggregated with a temperature-controlled smooth maximum so one oversized
child dominates but does not fully mask its siblings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ContractViolation


@dataclass(frozen=True)
class ScoreConfig:
    temperature: float = 1.0

    def __post_init__(self) -> None:
        if not (self.temperature > 0.0) or math.isinf(self.temperature):
            raise ContractViolation("temperature must be positive and finite")


@dataclass(frozen=True)
class ValidityGate:
    """The two binary checks a proposal must pass to score above zero."""

    reconstruction_ok: bool
    qc_ok_per_lemma: tuple[bool, ...]

    @property
    def value(self) -> int:
        return int(self.reconstruction_ok and all(self.qc_ok_per_lemma))


@dataclass(frozen=True)
class ScoreBreakdown:
    v: int
    d_parent: int
    d_children: tuple[int, ...]
    d_bar: float
    r: float
    S: float

    def to_json(self) -> dict:
        """The form traces and training records store."""
        return {
            "v": self.v,
            "d_parent": self.d_parent,
            "d_children": list(self.d_children),
            "d_bar": self.d_bar,
            "r": self.r,
            "S": self.S,
        }


def logsumexp_footprint(footprints: list[int], temperature: float) -> float:
    """Smooth maximum of child footprints: T * log(sum(exp(d_i / T))).

    Stabilized around the maximum so large footprints cannot overflow.
    Bounds: max(d) <= result <= max(d) + T * log(len(d)).
    """
    if not footprints:
        raise ContractViolation("need at least one footprint")
    if not (temperature > 0.0):
        raise ContractViolation("temperature must be positive")
    top = max(footprints)
    total = sum(math.exp((d - top) / temperature) for d in footprints)
    return top + temperature * math.log(total)


def reduction_ratio(d_parent: int, d_bar: float) -> float:
    """Relative size reduction, clamped at zero when children grew."""
    if d_parent <= 0:
        raise ContractViolation("parent footprint must be positive")
    return max(1.0 - d_bar / d_parent, 0.0)


def decomposition_score(
    gate: ValidityGate,
    d_parent: int,
    d_children: list[int],
    config: ScoreConfig | None = None,
) -> ScoreBreakdown:
    """Combine the validity gate with the structural reduction ratio.

    A direct discharge (no children) is all-or-nothing: r = 1 and the score
    equals the gate value, even for a parent of footprint 0.  Otherwise
    S = r * v, so gate failure forces a zero score no matter how good the
    reduction looks.
    """
    config = config or ScoreConfig()
    if d_parent < 0 or (d_parent == 0 and d_children):
        raise ContractViolation("parent footprint must be positive")
    if len(gate.qc_ok_per_lemma) != len(d_children):
        raise ContractViolation("gate arity disagrees with child count")
    v = gate.value
    if not d_children:
        return ScoreBreakdown(
            v=v, d_parent=d_parent, d_children=(), d_bar=0.0, r=1.0, S=float(v)
        )
    d_bar = logsumexp_footprint(d_children, config.temperature)
    r = reduction_ratio(d_parent, d_bar)
    return ScoreBreakdown(
        v=v,
        d_parent=d_parent,
        d_children=tuple(d_children),
        d_bar=d_bar,
        r=r,
        S=r * v,
    )
