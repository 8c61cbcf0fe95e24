"""Naive evaluator used to re-verify disproof witnesses.

Plain recursion, no step budget, its own carrier enumeration: it shares no
code with the evaluator under test, so a fast-path bug there cannot also
hide here.  Modelled on the reference oracle in the evaluator tests and
copied, not imported, so the benchmark does not depend on test code.
"""

from __future__ import annotations

from provekit.evaluator import Domain
from provekit.lang import (
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
    Implies,
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
    Sort,
    Sub,
    TrueF,
    Var,
)


class NaiveError(Exception):
    """Evaluation error (modulo by zero) in the naive evaluator."""


def _lists(lo: int, hi: int, max_len: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = [()]
    layer: list[tuple[int, ...]] = [()]
    for _ in range(max_len):
        layer = [tup + (e,) for tup in layer for e in range(lo, hi + 1)]
        out.extend(layer)
    return out


def _values(domain: Domain, sort: Sort) -> list:
    if sort is Sort.INT:
        return list(range(domain.int_lo, domain.int_hi + 1))
    return _lists(domain.elem_lo, domain.elem_hi, domain.max_list_len)


def naive_term(term, env: dict, domain: Domain):
    if isinstance(term, IntLit):
        return term.value
    if isinstance(term, Var):
        return env[term.name]
    if isinstance(term, Add):
        return naive_term(term.left, env, domain) + naive_term(term.right, env, domain)
    if isinstance(term, Sub):
        return naive_term(term.left, env, domain) - naive_term(term.right, env, domain)
    if isinstance(term, Mul):
        return naive_term(term.left, env, domain) * naive_term(term.right, env, domain)
    if isinstance(term, Mod):
        a = naive_term(term.left, env, domain)
        b = naive_term(term.right, env, domain)
        if b == 0:
            raise NaiveError("modulo by zero")
        # Truncating division derived from the quotient, not from abs-mod.
        q = abs(a) // abs(b)
        if (a >= 0) != (b >= 0):
            q = -q
        return a - b * q
    if isinstance(term, ListLit):
        return tuple(naive_term(e, env, domain) for e in term.elements)
    if isinstance(term, Cons):
        return (naive_term(term.head, env, domain),) + naive_term(term.tail, env, domain)
    if isinstance(term, Append):
        return naive_term(term.left, env, domain) + naive_term(term.right, env, domain)
    if isinstance(term, Length):
        return len(naive_term(term.arg, env, domain))
    if isinstance(term, Count):
        xs = naive_term(term.arg, env, domain)
        v = naive_term(term.element, env, domain)
        return len([x for x in xs if x == v])
    if isinstance(term, IfThenElse):
        if naive_formula(term.cond, env, domain):
            return naive_term(term.then, env, domain)
        return naive_term(term.other, env, domain)
    raise TypeError(f"unknown term {term!r}")


def naive_formula(formula, env: dict, domain: Domain) -> bool:
    if isinstance(formula, TrueF):
        return True
    if isinstance(formula, FalseF):
        return False
    if isinstance(formula, Eq):
        return naive_term(formula.left, env, domain) == naive_term(formula.right, env, domain)
    if isinstance(formula, Lt):
        return naive_term(formula.left, env, domain) < naive_term(formula.right, env, domain)
    if isinstance(formula, Le):
        return naive_term(formula.left, env, domain) <= naive_term(formula.right, env, domain)
    if isinstance(formula, Mem):
        return naive_term(formula.element, env, domain) in naive_term(formula.lst, env, domain)
    if isinstance(formula, Not):
        return not naive_formula(formula.child, env, domain)
    if isinstance(formula, And):
        return naive_formula(formula.left, env, domain) and naive_formula(
            formula.right, env, domain
        )
    if isinstance(formula, Or):
        return naive_formula(formula.left, env, domain) or naive_formula(
            formula.right, env, domain
        )
    if isinstance(formula, Implies):
        return (not naive_formula(formula.left, env, domain)) or naive_formula(
            formula.right, env, domain
        )
    if isinstance(formula, Forall):
        return all(
            naive_formula(formula.body, {**env, formula.binder: v}, domain)
            for v in _values(domain, formula.sort)
        )
    if isinstance(formula, Exists):
        return any(
            naive_formula(formula.body, {**env, formula.binder: v}, domain)
            for v in _values(domain, formula.sort)
        )
    raise TypeError(f"unknown formula {formula!r}")


def witness_falsifies(goal: GoalDecl, witness: dict, domain: Domain) -> bool:
    """True when the assignment really refutes the goal: the body is false
    there, or evaluating it errors (an error counts as falsifying)."""
    env = {name: tuple(v) if isinstance(v, list) else v for name, v in witness.items()}
    if set(env) != {name for name, _ in goal.binders}:
        return False
    try:
        return not naive_formula(goal.body, env, domain)
    except NaiveError:
        return True
