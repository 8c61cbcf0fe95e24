"""Abstract syntax for the bounded spec language.

Two sorts only: integers and integer lists.  Terms and formulas are frozen
dataclasses, so structural equality and hashing come for free; that is what
the dedup and trace machinery rely on.  Every walk over a tree recurses,
so a tree that enters the engine must first pass ``GoalDecl.sort_error``,
which also bounds its depth by ``MAX_DEPTH``.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable


class Sort(enum.Enum):
    INT = "Int"
    INT_LIST = "IntList"

    def __str__(self) -> str:
        return self.value


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


# The deepest goal body, in nodes along its longest path (``x = 0`` is 2
# deep); far below the depth at which the interpreter stops a walk.
MAX_DEPTH = 128


@dataclass(frozen=True)
class GoalDecl:
    """A named, implicitly universally quantified statement.  Its hash is
    the one the dataclass would generate, ``hash((name, binders, body))``,
    but it is worked out once per goal, like the two cached properties;
    none of the three enters equality or repr."""

    name: str
    binders: tuple[tuple[str, Sort], ...]
    body: Formula

    def __hash__(self) -> int:
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        # A frozen dataclass rehashes the whole tree on every call; memo
        # and set lookups of one goal repeat the call many times.
        return hash((self.name, self.binders, self.body))

    def __getstate__(self) -> dict:
        # String hashes differ between processes, so a copy sent to another
        # one must work its hash out again.
        return {key: value for key, value in self.__dict__.items() if key != "_hash"}

    @functools.cached_property
    def sort_error(self) -> str | None:
        """Why the goal may not enter the engine, or None: it is too deep,
        an operator gets an operand of the wrong sort (named in the
        message), a variable is unbound or the body is not a formula."""
        try:
            sort = _sort_of(self.body, dict(self.binders), 1)
        except _IllSorted as exc:
            return str(exc)
        return None if sort is _PROP else f"sort mismatch: the goal body is {sort}, not a formula"

    @functools.cached_property
    def footprint(self) -> int:
        """Count of operator nodes in the body, by which the decomposition
        score compares parents and children; read after ``sort_error``."""
        return formula_footprint(self.body)


# ---------------------------------------------------------------------------
# The node table

Node = Term | Formula


class _NodeTable(dict):
    """Per-class dispatch table; an unregistered class is an error, never a
    leaf, so no walk can silently skip the variables inside it."""

    def __missing__(self, cls: type):
        raise TypeError(f"unknown syntax node {cls.__name__}")


def _fields(*names: str) -> Callable[[Node], tuple[Node, ...]]:
    if not names:
        return lambda node: ()
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda node: (get(node),)
    return attrgetter(*names)


# The child nodes of every node class, in field order.  Every structural
# walk below dispatches through this table, and so do the printer and the
# evaluator's compiler.
CHILDREN: dict[type, Callable[[Node], tuple[Node, ...]]] = _NodeTable({
    **dict.fromkeys((IntLit, Var, TrueF, FalseF), _fields()),
    **dict.fromkeys(
        (Add, Sub, Mul, Mod, Append, Eq, Lt, Le, And, Or, Implies), _fields("left", "right")
    ),
    ListLit: attrgetter("elements"),
    Cons: _fields("head", "tail"),
    Length: _fields("arg"),
    Count: _fields("arg", "element"),
    IfThenElse: _fields("cond", "then", "other"),
    Mem: _fields("element", "lst"),
    Not: _fields("child"),
    Forall: _fields("body"),
    Exists: _fields("body"),
})


# ---------------------------------------------------------------------------
# The operator table

LEFT, RIGHT, NONASSOC = "left", "right", "nonassoc"

# Every infix operator and atomic comparison, loosest first: ASCII symbol,
# node class, precedence and associativity.  The parser climbs this table
# and the printer parenthesizes by it, so the two agree by construction.
# Quantifiers bind loosest of all (their bodies extend as far right as they
# can), and ``!`` takes a comparison as its operand.
OPERATORS = (
    ("->", Implies, 1, RIGHT),
    ("\\/", Or, 2, RIGHT),
    ("/\\", And, 3, RIGHT),
    ("=", Eq, 4, NONASSOC),
    ("<", Lt, 4, NONASSOC),
    ("<=", Le, 4, NONASSOC),
    ("in", Mem, 4, NONASSOC),
    ("::", Cons, 5, RIGHT),
    ("++", Append, 5, RIGHT),
    ("+", Add, 6, LEFT),
    ("-", Sub, 6, LEFT),
    ("*", Mul, 7, LEFT),
    ("%", Mod, 7, LEFT),
)


# ---------------------------------------------------------------------------
# Sorts

# The sort of a formula.  It is not a Sort, so no binder can have it.
_PROP = "Prop"
# The sort variable of the polymorphic nodes: every _A in one signature is
# the same term sort.
_A = "A"

_INT, _LIST = Sort.INT, Sort.INT_LIST

# Each node class's child sorts, in CHILDREN order, and its own sort.  A
# variable's sort comes from its binder, and a list literal's elements are
# all Int.
_SIGNATURES = _NodeTable({
    IntLit: ((), _INT),
    **dict.fromkeys((TrueF, FalseF), ((), _PROP)),
    **dict.fromkeys((Add, Sub, Mul, Mod), ((_INT, _INT), _INT)),
    ListLit: ((), _LIST),
    Cons: ((_INT, _LIST), _LIST),
    Append: ((_LIST, _LIST), _LIST),
    Length: ((_LIST,), _INT),
    Count: ((_LIST, _INT), _INT),
    IfThenElse: ((_PROP, _A, _A), _A),
    Eq: ((_A, _A), _PROP),
    **dict.fromkeys((Lt, Le), ((_INT, _INT), _PROP)),
    Mem: ((_INT, _LIST), _PROP),
    Not: ((_PROP,), _PROP),
    **dict.fromkeys((And, Or, Implies), ((_PROP, _PROP), _PROP)),
    **dict.fromkeys((Forall, Exists), ((_PROP,), _PROP)),
})

# How sort errors name a node: its operator symbol or keyword.
_SPELLING = {cls: symbol for symbol, cls, _, _ in OPERATORS} | {
    Not: "!", Forall: "forall", Exists: "exists", Length: "len", Count: "count",
    IfThenElse: "if", ListLit: "[...]",
}


class _IllSorted(Exception):
    pass


def _sort_of(node: Node, scope: dict[str, Sort], depth: int):
    if depth > MAX_DEPTH:
        raise _IllSorted(f"nested more than {MAX_DEPTH} deep")
    kind = type(node)
    if kind is Var:
        if node.name not in scope:
            raise _IllSorted(f"unbound variable {node.name!r}")
        return scope[node.name]
    params, result = _SIGNATURES[kind]
    children = CHILDREN[kind](node)
    if kind is ListLit:
        params = (_INT,) * len(children)
    elif kind is Forall or kind is Exists:
        scope = {**scope, node.binder: node.sort}
    bound = None
    for param, child in zip(params, children):
        sort = _sort_of(child, scope, depth + 1)
        if param is _A:
            # The first child binds the sort variable, to a term sort only.
            param = bound = bound or (sort if sort is not _PROP else "a term")
        if sort is not param:
            raise _IllSorted(f"sort mismatch: {_SPELLING[kind]!r} expects {param}, got {sort}")
    return bound if result is _A else result


# ---------------------------------------------------------------------------
# Structural measures and helpers

# Nodes that count one step of logical or domain structure.  Variable
# references, literals and binder annotations carry no weight.
_COUNTED = frozenset(CHILDREN).difference({IntLit, Var, ListLit, TrueF, FalseF})


def formula_footprint(node: Node) -> int:
    """Count of operator nodes in a formula or term."""
    kind = type(node)
    return (1 if kind in _COUNTED else 0) + sum(map(formula_footprint, CHILDREN[kind](node)))


def _collect_free(node: Node, acc: set[str]) -> None:
    kind = type(node)
    if kind is Var:
        acc.add(node.name)
    elif kind is Forall or kind is Exists:
        inner = free_vars(node.body)
        inner.discard(node.binder)
        acc |= inner
    else:
        for child in CHILDREN[kind](node):
            _collect_free(child, acc)


def free_vars(node: Node) -> set[str]:
    """Names that occur free in a formula or term."""
    acc: set[str] = set()
    _collect_free(node, acc)
    return acc


def _fresh_name(base: str, taken: set[str]) -> str:
    i = 1
    while f"{base}_{i}" in taken:
        i += 1
    return f"{base}_{i}"


def _subst(node: Node, mapping: dict[str, Term]) -> Node:
    kind = type(node)
    if kind is Var:
        return mapping.get(node.name, node)
    if kind is Forall or kind is Exists:
        # The binder shadows its own name; it is renamed apart when a
        # replacement reaching the body mentions it, so nothing is captured.
        inner = {name: term for name, term in mapping.items() if name != node.binder}
        if not inner:
            return node
        body_free = free_vars(node.body)
        incoming: set[str] = set()
        for name, term in inner.items():
            if name in body_free:
                _collect_free(term, incoming)
        binder = node.binder
        if binder in incoming:
            binder = _fresh_name(binder, body_free | incoming)
            inner[node.binder] = Var(binder)
        return kind(binder, node.sort, _subst(node.body, inner))
    children = CHILDREN[kind](node)
    if not children:
        return node
    rebuilt = [_subst(child, mapping) for child in children]
    return ListLit(tuple(rebuilt)) if kind is ListLit else kind(*rebuilt)


def substitute(formula: Formula, name: str, replacement: Term) -> Formula:
    """Replace free occurrences of ``name``.  Shadowing binders stop the
    descent, and a binder that would capture a free variable of the
    replacement is renamed apart first."""
    return _subst(formula, {name: replacement})


def rename_free(formula: Formula, mapping: dict[str, str]) -> Formula:
    """Rename free variables simultaneously (so a permutation of names is
    safe), renaming bound variables apart where a target name would be
    captured."""
    return _subst(formula, {old: Var(new) for old, new in mapping.items() if old != new})


def conjunct_fringe(formula: Formula, depth: float = math.inf) -> list[Formula]:
    """Leaves of the conjunction tree, left to right, descending at most
    ``depth`` levels (the whole tree by default)."""
    if depth > 0 and isinstance(formula, And):
        return conjunct_fringe(formula.left, depth - 1) + conjunct_fringe(formula.right, depth - 1)
    return [formula]


# Key labels that differ from the class name.
_KEY_LABELS = {TrueF: "T", FalseF: "F", IfThenElse: "Ite", ListLit: "List"}


def _canon(node: Node, env: dict[str, str], level: int) -> str:
    kind = type(node)
    if kind is Var:
        return env.get(node.name, node.name)
    if kind is IntLit:
        return str(node.value)
    if kind is Forall or kind is Exists:
        # Labelled by binding depth, not by len(env): a binder that shadows
        # a name already in scope does not grow env, so the next binder down
        # would reuse its label.
        inner = dict(env)
        inner[node.binder] = f"b{level}"
        return f"{kind.__name__}[{node.sort.value}]({_canon(node.body, inner, level + 1)})"
    if kind is TrueF or kind is FalseF:
        return _KEY_LABELS[kind]
    args = ",".join([_canon(child, env, level) for child in CHILDREN[kind](node)])
    return f"{_KEY_LABELS.get(kind, kind.__name__)}({args})"


def statement_key(goal: GoalDecl) -> str:
    """Canonical form of the statement, invariant under renaming of binders
    and bound variables.  Goal names are provenance, not identity, so they
    are excluded."""
    env = {name: f"b{i}" for i, (name, _) in enumerate(goal.binders)}
    sorts = ",".join(sort.value for _, sort in goal.binders)
    return f"({sorts})|{_canon(goal.body, env, len(goal.binders))}"

