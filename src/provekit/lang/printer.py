"""Canonical ASCII rendering of goals.

The invariant the tests enforce: ``parse(print(g))`` reproduces ``g``
structurally.  Output sticks to the ASCII operator spellings; parentheses
are inserted wherever a child sits below the precedence its context needs.
"""

from __future__ import annotations

from .ast import (
    CHILDREN,
    Add,
    And,
    Append,
    Cons,
    Count,
    Eq,
    Exists,
    FalseF,
    Forall,
    GoalDecl,
    IfThenElse,
    IntLit,
    Le,
    Length,
    ListLit,
    Lt,
    Mem,
    Mod,
    Mul,
    Node,
    Not,
    Or,
    Implies,
    Sub,
    TrueF,
    Var,
)

# Formula precedence: quantifiers extend maximally right, so they act as the
# loosest binders; Not is tightest among the connectives.  Terms have their
# own scale; every term binds at least as tightly as a formula context asks.
_P_QUANT = 0
_P_IMPLIES = 1
_P_OR = 2
_P_AND = 3

_T_CONS = 1
_T_ADD = 2
_T_MUL = 3

_LEFT, _RIGHT = "left", "right"

# Infix operators as (spaced symbol, precedence, the precedence the left
# operand must reach, the one the right operand must reach): the operand on
# the side an operator does not associate to must bind strictly tighter.
_INFIX = {
    cls: (f" {symbol} ", prec, prec + (assoc == _RIGHT), prec + (assoc == _LEFT))
    for cls, (symbol, prec, assoc) in {
        Cons: ("::", _T_CONS, _RIGHT),
        Append: ("++", _T_CONS, _RIGHT),
        Add: ("+", _T_ADD, _LEFT),
        Sub: ("-", _T_ADD, _LEFT),
        Mul: ("*", _T_MUL, _LEFT),
        Mod: ("%", _T_MUL, _LEFT),
        And: ("/\\", _P_AND, _RIGHT),
        Or: ("\\/", _P_OR, _RIGHT),
        Implies: ("->", _P_IMPLIES, _RIGHT),
    }.items()
}

# Atomic formulas: two terms around a symbol, never parenthesized.
_ATOMS = {Eq: " = ", Lt: " < ", Le: " <= ", Mem: " in "}


def format_formula(node: Node, min_prec: int = _P_QUANT) -> str:
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
    atom = _ATOMS.get(kind)
    if atom is not None:
        left, right = CHILDREN[kind](node)
        return format_formula(left) + atom + format_formula(right)
    if kind is Forall or kind is Exists:
        keyword = "forall" if kind is Forall else "exists"
        text = f"{keyword} {node.binder}: {node.sort}, {format_formula(node.body)}"
        return f"({text})" if _P_QUANT < min_prec else text
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
