"""Abstract syntax for the bounded spec language.

Two sorts only: integers and integer lists.  Terms and formulas are frozen
dataclasses, so structural equality and hashing come for free; that is what
the dedup and trace machinery rely on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Sort(enum.Enum):
    INT = "Int"
    INT_LIST = "IntList"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class SourceSpan:
    line: int
    column: int
    length: int = 1


# ---------------------------------------------------------------------------
# Terms


class Term:
    """Base class; concrete nodes below."""

    __slots__ = ()


@dataclass(frozen=True)
class IntLit(Term):
    value: int


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Add(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Sub(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Mul(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Mod(Term):
    """Remainder truncated toward zero: the result carries the dividend's sign."""

    left: Term
    right: Term


@dataclass(frozen=True)
class ListLit(Term):
    elements: tuple[Term, ...] = ()


@dataclass(frozen=True)
class Cons(Term):
    head: Term
    tail: Term


@dataclass(frozen=True)
class Append(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Length(Term):
    arg: Term


@dataclass(frozen=True)
class Count(Term):
    arg: Term
    element: Term


@dataclass(frozen=True)
class IfThenElse(Term):
    cond: "Formula"
    then: Term
    other: Term


# ---------------------------------------------------------------------------
# Formulas


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class TrueF(Formula):
    pass


@dataclass(frozen=True)
class FalseF(Formula):
    pass


@dataclass(frozen=True)
class Eq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class Lt(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class Le(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class Mem(Formula):
    element: Term
    lst: Term


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Forall(Formula):
    binder: str
    sort: Sort
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    binder: str
    sort: Sort
    body: Formula


@dataclass(frozen=True)
class GoalDecl:
    """A named, implicitly universally quantified statement."""

    name: str
    binders: tuple[tuple[str, Sort], ...]
    body: Formula
    span: SourceSpan | None = field(default=None, compare=False)


# ---------------------------------------------------------------------------
# Structural measures and helpers

# Nodes that count one step of logical or domain structure.  Variable
# references, literals and binder annotations carry no weight.
_COUNTED_TERMS = (Add, Sub, Mul, Mod, Cons, Append, Length, Count, IfThenElse)
_COUNTED_FORMULAS = (Eq, Lt, Le, Mem, Not, And, Or, Implies, Forall, Exists)


def term_footprint(term: Term) -> int:
    weight = 1 if isinstance(term, _COUNTED_TERMS) else 0
    if isinstance(term, (Add, Sub, Mul, Mod, Append)):
        return weight + term_footprint(term.left) + term_footprint(term.right)
    if isinstance(term, Cons):
        return weight + term_footprint(term.head) + term_footprint(term.tail)
    if isinstance(term, Length):
        return weight + term_footprint(term.arg)
    if isinstance(term, Count):
        return weight + term_footprint(term.arg) + term_footprint(term.element)
    if isinstance(term, IfThenElse):
        return (
            weight
            + formula_footprint(term.cond)
            + term_footprint(term.then)
            + term_footprint(term.other)
        )
    if isinstance(term, ListLit):
        return sum(term_footprint(e) for e in term.elements)
    return weight


def formula_footprint(formula: Formula) -> int:
    weight = 1 if isinstance(formula, _COUNTED_FORMULAS) else 0
    if isinstance(formula, (Eq, Lt, Le)):
        return weight + term_footprint(formula.left) + term_footprint(formula.right)
    if isinstance(formula, Mem):
        return weight + term_footprint(formula.element) + term_footprint(formula.lst)
    if isinstance(formula, Not):
        return weight + formula_footprint(formula.child)
    if isinstance(formula, (And, Or, Implies)):
        return weight + formula_footprint(formula.left) + formula_footprint(formula.right)
    if isinstance(formula, (Forall, Exists)):
        return weight + formula_footprint(formula.body)
    return weight


def operator_footprint(goal: GoalDecl) -> int:
    """Count of operator nodes in the goal body; the size measure the
    decomposition score compares parents and children by."""
    return formula_footprint(goal.body)


def term_free_vars(term: Term, acc: set[str]) -> None:
    if isinstance(term, Var):
        acc.add(term.name)
    elif isinstance(term, (Add, Sub, Mul, Mod, Append)):
        term_free_vars(term.left, acc)
        term_free_vars(term.right, acc)
    elif isinstance(term, Cons):
        term_free_vars(term.head, acc)
        term_free_vars(term.tail, acc)
    elif isinstance(term, Length):
        term_free_vars(term.arg, acc)
    elif isinstance(term, Count):
        term_free_vars(term.arg, acc)
        term_free_vars(term.element, acc)
    elif isinstance(term, IfThenElse):
        free_vars_into(term.cond, acc)
        term_free_vars(term.then, acc)
        term_free_vars(term.other, acc)
    elif isinstance(term, ListLit):
        for e in term.elements:
            term_free_vars(e, acc)


def free_vars_into(formula: Formula, acc: set[str]) -> None:
    if isinstance(formula, (Eq, Lt, Le)):
        term_free_vars(formula.left, acc)
        term_free_vars(formula.right, acc)
    elif isinstance(formula, Mem):
        term_free_vars(formula.element, acc)
        term_free_vars(formula.lst, acc)
    elif isinstance(formula, Not):
        free_vars_into(formula.child, acc)
    elif isinstance(formula, (And, Or, Implies)):
        free_vars_into(formula.left, acc)
        free_vars_into(formula.right, acc)
    elif isinstance(formula, (Forall, Exists)):
        inner: set[str] = set()
        free_vars_into(formula.body, inner)
        inner.discard(formula.binder)
        acc |= inner


def free_vars(formula: Formula) -> set[str]:
    acc: set[str] = set()
    free_vars_into(formula, acc)
    return acc


def _subst_term(term: Term, mapping: dict[str, Term]) -> Term:
    if isinstance(term, Var):
        return mapping.get(term.name, term)
    if isinstance(term, (Add, Sub, Mul, Mod, Append)):
        return type(term)(_subst_term(term.left, mapping), _subst_term(term.right, mapping))
    if isinstance(term, Cons):
        return Cons(_subst_term(term.head, mapping), _subst_term(term.tail, mapping))
    if isinstance(term, Length):
        return Length(_subst_term(term.arg, mapping))
    if isinstance(term, Count):
        return Count(_subst_term(term.arg, mapping), _subst_term(term.element, mapping))
    if isinstance(term, IfThenElse):
        return IfThenElse(
            _subst_formula(term.cond, mapping),
            _subst_term(term.then, mapping),
            _subst_term(term.other, mapping),
        )
    if isinstance(term, ListLit):
        return ListLit(tuple(_subst_term(e, mapping) for e in term.elements))
    return term


def _fresh_name(base: str, taken: set[str]) -> str:
    i = 1
    while f"{base}_{i}" in taken:
        i += 1
    return f"{base}_{i}"


def _subst_formula(formula: Formula, mapping: dict[str, Term]) -> Formula:
    if isinstance(formula, (Eq, Lt, Le)):
        return type(formula)(_subst_term(formula.left, mapping), _subst_term(formula.right, mapping))
    if isinstance(formula, Mem):
        return Mem(_subst_term(formula.element, mapping), _subst_term(formula.lst, mapping))
    if isinstance(formula, Not):
        return Not(_subst_formula(formula.child, mapping))
    if isinstance(formula, (And, Or, Implies)):
        return type(formula)(_subst_formula(formula.left, mapping), _subst_formula(formula.right, mapping))
    if isinstance(formula, (Forall, Exists)):
        # The binder shadows its own name; it is renamed apart when a
        # replacement reaching the body mentions it, so nothing is captured.
        inner = {name: term for name, term in mapping.items() if name != formula.binder}
        if not inner:
            return formula
        body_free = free_vars(formula.body)
        incoming: set[str] = set()
        for name, term in inner.items():
            if name in body_free:
                term_free_vars(term, incoming)
        binder = formula.binder
        if binder in incoming:
            binder = _fresh_name(binder, body_free | incoming)
            inner[formula.binder] = Var(binder)
        return type(formula)(binder, formula.sort, _subst_formula(formula.body, inner))
    return formula


def substitute(formula: Formula, name: str, replacement: Term) -> Formula:
    """Replace free occurrences of ``name``.  Shadowing binders stop the
    descent, and a binder that would capture a free variable of the
    replacement is renamed apart first."""
    return _subst_formula(formula, {name: replacement})


def rename_free(formula: Formula, mapping: dict[str, str]) -> Formula:
    """Rename free variables simultaneously (so a permutation of names is
    safe), renaming bound variables apart where a target name would be
    captured."""
    return _subst_formula(formula, {old: Var(new) for old, new in mapping.items() if old != new})


def conjunct_fringe(formula: Formula) -> list[Formula]:
    """Leaves of the maximal conjunction tree, left to right."""
    if isinstance(formula, And):
        return conjunct_fringe(formula.left) + conjunct_fringe(formula.right)
    return [formula]


def _canon_term(term: Term, env: dict[str, str], level: int) -> str:
    if isinstance(term, IntLit):
        return str(term.value)
    if isinstance(term, Var):
        return env.get(term.name, term.name)
    if isinstance(term, (Add, Sub, Mul, Mod, Append)):
        return f"{type(term).__name__}({_canon_term(term.left, env, level)},{_canon_term(term.right, env, level)})"
    if isinstance(term, Cons):
        return f"Cons({_canon_term(term.head, env, level)},{_canon_term(term.tail, env, level)})"
    if isinstance(term, Length):
        return f"Length({_canon_term(term.arg, env, level)})"
    if isinstance(term, Count):
        return f"Count({_canon_term(term.arg, env, level)},{_canon_term(term.element, env, level)})"
    if isinstance(term, IfThenElse):
        return (
            f"Ite({_canon_formula(term.cond, env, level)},{_canon_term(term.then, env, level)},"
            f"{_canon_term(term.other, env, level)})"
        )
    if isinstance(term, ListLit):
        return "List(" + ",".join(_canon_term(e, env, level) for e in term.elements) + ")"
    raise TypeError(f"unknown term {term!r}")


def _canon_formula(formula: Formula, env: dict[str, str], level: int) -> str:
    if isinstance(formula, TrueF):
        return "T"
    if isinstance(formula, FalseF):
        return "F"
    if isinstance(formula, (Eq, Lt, Le)):
        return f"{type(formula).__name__}({_canon_term(formula.left, env, level)},{_canon_term(formula.right, env, level)})"
    if isinstance(formula, Mem):
        return f"Mem({_canon_term(formula.element, env, level)},{_canon_term(formula.lst, env, level)})"
    if isinstance(formula, Not):
        return f"Not({_canon_formula(formula.child, env, level)})"
    if isinstance(formula, (And, Or, Implies)):
        return (
            f"{type(formula).__name__}({_canon_formula(formula.left, env, level)},"
            f"{_canon_formula(formula.right, env, level)})"
        )
    if isinstance(formula, (Forall, Exists)):
        # Labelled by binding depth, not by len(env): a binder that shadows
        # a name already in scope does not grow env, so the next binder down
        # would reuse its label.
        inner = dict(env)
        inner[formula.binder] = f"b{level}"
        return (
            f"{type(formula).__name__}[{formula.sort.value}]"
            f"({_canon_formula(formula.body, inner, level + 1)})"
        )
    raise TypeError(f"unknown formula {formula!r}")


def statement_key(goal: GoalDecl) -> str:
    """Canonical form of the statement, invariant under renaming of binders
    and bound variables.  Goal names are provenance, not identity, so they
    are excluded."""
    env = {name: f"b{i}" for i, (name, _) in enumerate(goal.binders)}
    sorts = ",".join(sort.value for _, sort in goal.binders)
    return f"({sorts})|{_canon_formula(goal.body, env, len(goal.binders))}"


def alpha_equivalent(a: GoalDecl, b: GoalDecl) -> bool:
    return statement_key(a) == statement_key(b)
