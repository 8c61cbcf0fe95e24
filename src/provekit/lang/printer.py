"""Canonical ASCII rendering of goals.

The invariant the tests enforce: ``parse(print(g))`` reproduces ``g``
structurally.  Output sticks to the ASCII operator spellings; parentheses
are inserted wherever a child sits below the precedence its context needs.
"""

from __future__ import annotations

from .ast import (
    Add,
    And,
    Append,
    Cons,
    Count,
    Eq,
    Exists,
    FalseF,
    Forall,
    Formula,
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
    Not,
    Or,
    Implies,
    Sub,
    Term,
    TrueF,
    Var,
)

# Formula precedence: quantifiers extend maximally right, so they act as the
# loosest binders; Not is tightest among the connectives.
_P_QUANT = 0
_P_IMPLIES = 1
_P_OR = 2
_P_AND = 3
_P_NOT = 4
_P_ATOM = 5

# Term precedence.
_T_CONS = 1
_T_ADD = 2
_T_MUL = 3
_T_PRIMARY = 4


def format_term(term: Term, min_prec: int = _T_CONS) -> str:
    if isinstance(term, IntLit):
        return str(term.value)
    if isinstance(term, Var):
        return term.name
    if isinstance(term, ListLit):
        return "[" + ", ".join(format_term(e) for e in term.elements) + "]"
    if isinstance(term, Length):
        return f"len({format_term(term.arg)})"
    if isinstance(term, Count):
        return f"count({format_term(term.arg)}, {format_term(term.element)})"
    if isinstance(term, IfThenElse):
        return (
            f"(if {format_formula(term.cond, _P_QUANT)} "
            f"then {format_term(term.then)} else {format_term(term.other)})"
        )
    if isinstance(term, (Cons, Append)):
        op = "::" if isinstance(term, Cons) else "++"
        left = term.head if isinstance(term, Cons) else term.left
        right = term.tail if isinstance(term, Cons) else term.right
        # Right associative: the left child must bind strictly tighter.
        text = f"{format_term(left, _T_CONS + 1)} {op} {format_term(right, _T_CONS)}"
        return f"({text})" if _T_CONS < min_prec else text
    if isinstance(term, (Add, Sub)):
        op = "+" if isinstance(term, Add) else "-"
        text = f"{format_term(term.left, _T_ADD)} {op} {format_term(term.right, _T_ADD + 1)}"
        return f"({text})" if _T_ADD < min_prec else text
    if isinstance(term, (Mul, Mod)):
        op = "*" if isinstance(term, Mul) else "%"
        text = f"{format_term(term.left, _T_MUL)} {op} {format_term(term.right, _T_MUL + 1)}"
        return f"({text})" if _T_MUL < min_prec else text
    raise TypeError(f"unknown term {term!r}")


def format_formula(formula: Formula, min_prec: int = _P_QUANT) -> str:
    if isinstance(formula, TrueF):
        return "true"
    if isinstance(formula, FalseF):
        return "false"
    if isinstance(formula, Eq):
        return f"{format_term(formula.left)} = {format_term(formula.right)}"
    if isinstance(formula, Lt):
        return f"{format_term(formula.left)} < {format_term(formula.right)}"
    if isinstance(formula, Le):
        return f"{format_term(formula.left)} <= {format_term(formula.right)}"
    if isinstance(formula, Mem):
        return f"{format_term(formula.element)} in {format_term(formula.lst)}"
    if isinstance(formula, Not):
        # Always parenthesize the negated formula; cheap and unambiguous.
        return f"!({format_formula(formula.child, _P_QUANT)})"
    if isinstance(formula, And):
        text = (
            f"{format_formula(formula.left, _P_AND + 1)} /\\ "
            f"{format_formula(formula.right, _P_AND)}"
        )
        return f"({text})" if _P_AND < min_prec else text
    if isinstance(formula, Or):
        text = (
            f"{format_formula(formula.left, _P_OR + 1)} \\/ "
            f"{format_formula(formula.right, _P_OR)}"
        )
        return f"({text})" if _P_OR < min_prec else text
    if isinstance(formula, Implies):
        text = (
            f"{format_formula(formula.left, _P_IMPLIES + 1)} -> "
            f"{format_formula(formula.right, _P_IMPLIES)}"
        )
        return f"({text})" if _P_IMPLIES < min_prec else text
    if isinstance(formula, (Forall, Exists)):
        kw = "forall" if isinstance(formula, Forall) else "exists"
        text = f"{kw} {formula.binder}: {formula.sort}, {format_formula(formula.body, _P_QUANT)}"
        return f"({text})" if _P_QUANT < min_prec else text
    raise TypeError(f"unknown formula {formula!r}")


def print_goal(goal: GoalDecl) -> str:
    binders = "".join(f" ({name}: {sort})" for name, sort in goal.binders)
    return f"goal {goal.name}{binders} := {format_formula(goal.body)}"
