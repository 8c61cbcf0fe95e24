"""Canonical ASCII rendering of goals.

The invariant the tests enforce: ``parse(print(g))`` reproduces ``g``
structurally.  Output sticks to the ASCII operator spellings; parentheses
are inserted wherever a child sits below the precedence its context needs.
"""

from __future__ import annotations

from .ast import (
    CHILDREN,
    LEFT,
    OPERATORS,
    RIGHT,
    Count,
    Exists,
    FalseF,
    Forall,
    GoalDecl,
    IfThenElse,
    IntLit,
    Length,
    ListLit,
    Node,
    Not,
    TrueF,
    Var,
)

# Infix operators and atomic comparisons as (spaced symbol, precedence, the
# precedence the left operand must reach, the one the right operand must
# reach): an operand on a side its operator does not associate to must bind
# strictly tighter.  Quantifiers bind loosest, at precedence 0.
_INFIX = {
    cls: (f" {symbol} ", prec, prec + (assoc != LEFT), prec + (assoc != RIGHT))
    for symbol, cls, prec, assoc in OPERATORS
}


def format_formula(node: Node, min_prec: int = 0) -> str:
    """Render a formula or a term, parenthesized when it binds more loosely
    than ``min_prec``."""
    kind = type(node)
    infix = _INFIX.get(kind)
    if infix is not None:
        symbol, prec, left_prec, right_prec = infix
        left, right = CHILDREN[kind](node)
        text = format_formula(left, left_prec) + symbol + format_formula(right, right_prec)
        return f"({text})" if prec < min_prec else text
    if kind is Var:
        return node.name
    if kind is IntLit:
        return str(node.value)
    if kind is Forall or kind is Exists:
        text = f"{kind.__name__.lower()} {node.binder}: {node.sort}, {format_formula(node.body)}"
        return f"({text})" if min_prec > 0 else text
    if kind is Not:
        # Always parenthesize the negated formula; cheap and unambiguous.
        return f"!({format_formula(node.child)})"
    if kind is ListLit:
        return "[" + ", ".join([format_formula(e) for e in node.elements]) + "]"
    if kind is Length:
        return f"len({format_formula(node.arg)})"
    if kind is Count:
        return f"count({format_formula(node.arg)}, {format_formula(node.element)})"
    if kind is IfThenElse:
        return (
            f"(if {format_formula(node.cond)} "
            f"then {format_formula(node.then)} else {format_formula(node.other)})"
        )
    if kind is TrueF:
        return "true"
    if kind is FalseF:
        return "false"
    raise TypeError(f"unknown syntax node {kind.__name__}")


def print_goal(goal: GoalDecl) -> str:
    binders = "".join(f" ({name}: {sort})" for name, sort in goal.binders)
    return f"goal {goal.name}{binders} := {format_formula(goal.body)}"
