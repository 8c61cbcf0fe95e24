"""Bounded evaluation and decision procedures.

All semantics are relative to a finite ``Domain``: integers range over a
closed interval and lists over bounded-length vectors of bounded elements.
Deciding a goal enumerates every binder assignment, so validity here always
means validity over the domain, nothing stronger.  Entailment is decided
the same way: it is the implication from the lemmas to the goal, decided
over the goal's assignments by the same loop.

Conventions that matter for soundness downstream:

- ``Mod`` truncates toward zero (the result carries the dividend's sign) and
  a zero divisor raises ``EvalError``.
- Any evaluation error while deciding an assignment counts as falsifying
  that assignment; a crashing statement is never silently accepted.
- One ``node_budget`` covers a whole decision (all assignments); exhausting
  it raises ``BudgetExceeded``, which callers surface as a resource verdict.

Evaluation is compiled: each call of ``decide_bounded``,
``entailment_check`` or ``quickcheck`` turns every formula it needs into
nested closures once, then runs them for every assignment (the technique of
Feeley & Lapalme, "Using closures for code generation", 1987).  The step
count is part of the contract, and it is the one a tree walker gives: one
budget step per node visit, in pre-order and left to right, with the same
short-circuiting as the formula's logic, and the visit that takes the
budget below zero raises.  The closures do not tick: the budget is charged
a fixed count where evaluation branches, on entry to a block.  When an
evaluation would overdraw it, or raises, the formula's root replays once
through a per-node walker from the budget it was entered with, so every
value, error and remaining budget is the one-tick-per-visit one.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .errors import BudgetExceeded, ContractViolation, EvalError
from .lang.ast import (
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
    Node,
    Not,
    Or,
    Implies,
    Sort,
    Sub,
    TrueF,
    Var,
    rename_free,
)

Value = int | tuple[int, ...]
Env = dict[str, Value]

# Carriers remembered in this process, one per (domain, sort).
CARRIER_MEMO_SIZE = 32


@dataclass(frozen=True)
class Domain:
    """Finite carrier sets plus the per-decision step budget."""

    int_lo: int = -5
    int_hi: int = 5
    max_list_len: int = 3
    elem_lo: int = -2
    elem_hi: int = 2
    node_budget: int = 1_000_000

    def __post_init__(self) -> None:
        if self.int_lo > self.int_hi or self.elem_lo > self.elem_hi:
            raise ContractViolation("empty value range")
        if self.max_list_len < 0 or self.node_budget <= 0:
            raise ContractViolation("need max_list_len >= 0 and node_budget > 0")

    @functools.lru_cache(maxsize=CARRIER_MEMO_SIZE)
    def carrier(self, sort: Sort) -> tuple[Value, ...]:
        """Every value of ``sort``, in ``iter_values`` order, built once per
        domain and sort and shared by every compile and decide over it."""
        return tuple(self.iter_values(sort))

    def iter_values(self, sort: Sort) -> Iterator[Value]:
        """Integers ascending; lists by length, then lexicographically."""
        if sort is Sort.INT:
            yield from range(self.int_lo, self.int_hi + 1)
            return
        elems = range(self.elem_lo, self.elem_hi + 1)
        for length in range(self.max_list_len + 1):
            yield from itertools.product(elems, repeat=length)

    def value_count(self, sort: Sort) -> int:
        if sort is Sort.INT:
            return self.int_hi - self.int_lo + 1
        base = self.elem_hi - self.elem_lo + 1
        if base == 1:
            return self.max_list_len + 1
        return (base ** (self.max_list_len + 1) - 1) // (base - 1)

    def iter_assignments(self, binders: tuple[tuple[str, Sort], ...]) -> Iterator[Env]:
        """Cartesian product of per-binder enumerations; the last binder
        varies fastest."""
        names = [name for name, _ in binders]
        pools = [self.carrier(sort) for _, sort in binders]
        for combo in itertools.product(*pools):
            yield dict(zip(names, combo))


class Budget:
    """Mutable step counter shared by every node visit in one decision."""

    __slots__ = ("remaining",)

    def __init__(self, limit: int):
        self.remaining = limit


_EXHAUSTED = "evaluation step budget exhausted"

FormulaFn = Callable[[Env], bool]

# Every subtree is compiled to a part, ``(size, how, what)``: the number of
# nodes visited every time the subtree is, and a variable's name (``_VAR``),
# a constant (``_CONST``) or an unticked closure (``_FN``).
_VAR, _CONST, _FN = "var", "const", "fn"
Part = tuple[int, str, object]


class _Compiler:
    """Turns one formula into nested closures over one domain and budget.

    A block starts at a compiled formula's root, at the right side of And,
    Or and Implies, at each branch of IfThenElse and at a quantifier's
    body, and holds every node below it that no further block holds.  Its
    size, the nodes visited whenever it is entered, is fixed at compile
    time: the count between two branch points (Ball & Larus, TOPLAS 1994),
    run as one superoperator (Proebsting, POPL 1995).  Every block is
    charged on each entry, a quantifier's body once per value; only the
    root replays.  Nothing outside the root is prepaid and evaluation is
    pure, so a completed run made exactly the visits charged, and the
    root's ``walk`` decides any other ending node by node.  The closures
    hold the budget of one call and are never cached.
    """

    def __init__(self, domain: Domain, budget: Budget):
        self.domain = domain
        self.budget = budget

    def compile(self, node: Node) -> Callable[[Env], Value | bool]:
        """The closure of ``node`` as a root block: charged like any block,
        and on an overdraw or a raise it restores its entry budget and walks."""
        try:
            part = _BUILDERS[type(node)](self, node)
        except KeyError as missing:  # a node class with no builder, here or below
            raise EvalError(f"unknown syntax node {missing.args[0].__name__}") from None
        budget, walk, size, fast = self.budget, self.walk, part[0], _as_fn(part)

        def run(env: Env) -> Value | bool:
            entry = budget.remaining
            if entry >= size:
                budget.remaining = entry - size
                try:
                    return fast(env)
                except Exception:  # the walk raises it again, at its node
                    budget.remaining = entry
            return walk(node, env)

        return run

    def block(self, node: Node) -> Callable[[Env], Value | bool]:
        """The closure of a nested block: charged on entry, then run.  An
        overdraw raises to the root block, which replays."""
        part = _BUILDERS[type(node)](self, node)
        budget, size, fast = self.budget, part[0], _as_fn(part)

        def run(env: Env) -> Value | bool:
            remaining = budget.remaining - size
            if remaining < 0:
                raise BudgetExceeded(_EXHAUSTED)
            budget.remaining = remaining
            return fast(env)

        return run

    def walk(self, node: Node, env: Env) -> Value | bool:
        """Evaluate ``node`` with one tick per visit: the root's replay."""
        budget = self.budget
        budget.remaining -= 1
        if budget.remaining < 0:
            raise BudgetExceeded(_EXHAUSTED)
        kind = type(node)
        if kind is Var:
            try:
                return env[node.name]
            except KeyError:
                raise EvalError(f"unbound variable {node.name!r}") from None
        op = _OPS.get(kind)
        if op is not None:
            return op(*[self.walk(child, env) for child in CHILDREN[kind](node)])
        if kind in _CONSTANTS:
            return _CONSTANTS[kind](node)
        if kind in _SETTLED:
            settled_by, result = _SETTLED[kind]
            if self.walk(node.left, env) == settled_by:
                return result
            return self.walk(node.right, env)
        if kind is IfThenElse:
            return self.walk(node.then if self.walk(node.cond, env) else node.other, env)
        want_all, inner = kind is Forall, dict(env)  # Forall or Exists
        for value in self.domain.carrier(node.sort):
            inner[node.binder] = value
            if self.walk(node.body, inner) != want_all:
                return not want_all
        return want_all


def _trunc_mod(a: int, b: int) -> int:
    if b == 0:
        raise EvalError("modulo by zero")
    r = abs(a) % abs(b)
    return r if a >= 0 else -r


# The value of each leaf with no variable, from the node.
_CONSTANTS = {
    IntLit: operator.attrgetter("value"),
    TrueF: lambda node: True,
    FalseF: lambda node: False,
}

# The value of each other node class whose children are all evaluated, from
# their values in CHILDREN order.
_OPS: dict[type, Callable] = {
    Add: operator.add,
    Sub: operator.sub,
    Mul: operator.mul,
    Mod: _trunc_mod,
    ListLit: lambda *elements: elements,
    Cons: lambda head, tail: (head, *tail),
    Append: operator.add,
    Length: len,
    Count: tuple.count,
    Eq: operator.eq,
    Lt: operator.lt,
    Le: operator.le,
    Mem: lambda element, lst: element in lst,
    Not: operator.not_,
}

# For And, Or and Implies: when the left side evaluates to ``settled_by``
# the node yields ``result`` without visiting the right.
_SETTLED = {And: (False, False), Or: (True, True), Implies: (False, True)}


def _as_fn(part: Part) -> Callable[[Env], Value | bool]:
    _, how, what = part
    if how is _VAR:
        return operator.itemgetter(what)
    if how is _CONST:
        return lambda env: what
    return what


def _unary(op: Callable):
    """Builder for a node class whose one child's value ``op`` maps."""

    def build(c: _Compiler, node: Node) -> Part:
        (child,) = CHILDREN[type(node)](node)
        size, how, a = _BUILDERS[type(child)](c, child)
        if how is _VAR:
            return (size + 1, _FN, lambda env: op(env[a]))
        if how is _CONST:
            return (size + 1, _FN, lambda env: op(a))
        return (size + 1, _FN, lambda env: op(a(env)))

    return build


def _binary(op: Callable):
    """Builder for a node class whose two children are evaluated in field
    order, then combined by ``op``.  A variable or constant child is read
    inline; a missing variable raises ``KeyError``, which sends the root
    to its replay."""

    def build(c: _Compiler, node: Node) -> Part:
        left, right = CHILDREN[type(node)](node)
        lsize, lhow, a = _BUILDERS[type(left)](c, left)
        rsize, rhow, b = _BUILDERS[type(right)](c, right)
        size = 1 + lsize + rsize
        if lhow is _VAR:
            if rhow is _VAR:
                return (size, _FN, lambda env: op(env[a], env[b]))
            if rhow is _CONST:
                return (size, _FN, lambda env: op(env[a], b))
            return (size, _FN, lambda env: op(env[a], b(env)))
        if lhow is _CONST:
            if rhow is _VAR:
                return (size, _FN, lambda env: op(a, env[b]))
            if rhow is _CONST:
                return (size, _FN, lambda env: op(a, b))
            return (size, _FN, lambda env: op(a, b(env)))
        if rhow is _VAR:
            return (size, _FN, lambda env: op(a(env), env[b]))
        if rhow is _CONST:
            return (size, _FN, lambda env: op(a(env), b))
        return (size, _FN, lambda env: op(a(env), b(env)))

    return build


def _list_lit(c: _Compiler, term: ListLit) -> Part:
    parts = [_BUILDERS[type(element)](c, element) for element in term.elements]
    size, literal = 1, True
    for part in parts:
        size += part[0]
        literal = literal and part[1] is _CONST
    if literal:  # a list of constants is a constant
        return (size, _CONST, tuple([part[2] for part in parts]))
    fns = [_as_fn(part) for part in parts]
    return (size, _FN, lambda env: tuple([fn(env) for fn in fns]))


def _if_then_else(c: _Compiler, term: IfThenElse) -> Part:
    size, _, _ = part = _BUILDERS[type(term.cond)](c, term.cond)
    cond, then, other = _as_fn(part), c.block(term.then), c.block(term.other)
    return (size + 1, _FN, lambda env: then(env) if cond(env) else other(env))


def _connective(settled_by: bool, result: bool):
    """Builder for And, Or and Implies: when the left side evaluates to
    ``settled_by`` the node yields ``result`` without visiting the right,
    whose block is charged only when it is entered."""

    def build(c: _Compiler, formula: And | Or | Implies) -> Part:
        size, _, _ = part = _BUILDERS[type(formula.left)](c, formula.left)
        left, right = _as_fn(part), c.block(formula.right)

        def run(env: Env) -> bool:
            if left(env) == settled_by:
                return result
            return right(env)

        return (size + 1, _FN, run)

    return build


def _quantifier(c: _Compiler, formula: Forall | Exists) -> Part:
    binder, body = formula.binder, c.block(formula.body)
    values, want_all = c.domain.carrier(formula.sort), type(formula) is Forall

    def run(env: Env) -> bool:
        inner = dict(env)  # the caller's env never sees the binder
        for value in values:
            inner[binder] = value
            if body(inner) != want_all:  # a counterexample or a witness
                return not want_all
        return want_all

    return (1, _FN, run)


# Every table above is read by the walker too, so a replay computes what
# the blocks do.
_BUILDERS: dict[type, Callable[[_Compiler, Node], Part]] = {
    **dict.fromkeys(_CONSTANTS, lambda c, leaf: (1, _CONST, _CONSTANTS[type(leaf)](leaf))),
    Var: lambda c, term: (1, _VAR, term.name),
    **{kind: _unary(_OPS[kind]) for kind in (Length, Not)},
    **{kind: _binary(_OPS[kind])
       for kind in (Add, Sub, Mul, Mod, Cons, Append, Count, Eq, Lt, Le, Mem)},
    ListLit: _list_lit,
    IfThenElse: _if_then_else,
    **{kind: _connective(*settled) for kind, settled in _SETTLED.items()},
    Forall: _quantifier,
    Exists: _quantifier,
}


def compile_formula(formula: Formula, domain: Domain, budget: Budget) -> FormulaFn:
    """Compile once; each call of the result evaluates under one assignment
    and charges ``budget``.  Quantifiers enumerate the domain."""
    return _Compiler(domain, budget).compile(formula)


def eval_formula(formula: Formula, env: Env, domain: Domain, budget: Budget | None = None) -> bool:
    """Evaluate under one assignment; quantifiers enumerate the domain."""
    if budget is None:
        budget = Budget(domain.node_budget)
    return compile_formula(formula, domain, budget)(env)


@dataclass(frozen=True)
class DecisionVerdict:
    """Outcome of a bounded decision.

    status is one of "valid", "counterexample", "resource_exceeded"; the
    witness is the first falsifying assignment in enumeration order (an
    assignment whose evaluation errored counts as falsifying).
    """

    status: str
    witness: Env | None = None
    steps_used: int = 0

    VALID = "valid"
    COUNTEREXAMPLE = "counterexample"
    RESOURCE_EXCEEDED = "resource_exceeded"


def _first_failure(holds_at: FormulaFn, assignments: Iterator[Env]) -> Env | None:
    """The first assignment at which ``holds_at`` is false or raises
    ``EvalError``, or None when it holds at all of them.  This is the one
    exhaustive assignment loop; ``BudgetExceeded`` propagates."""
    for env in assignments:
        try:
            if not holds_at(env):
                return env
        except EvalError:
            return env
    return None


def decide_bounded(goal: GoalDecl, domain: Domain) -> DecisionVerdict:
    """Exhaustively decide the goal over the domain under one budget."""
    budget = Budget(domain.node_budget)
    holds_at = compile_formula(goal.body, domain, budget)
    try:
        witness = _first_failure(holds_at, domain.iter_assignments(goal.binders))
    except BudgetExceeded:
        return DecisionVerdict(DecisionVerdict.RESOURCE_EXCEEDED, steps_used=domain.node_budget)
    status = DecisionVerdict.VALID if witness is None else DecisionVerdict.COUNTEREXAMPLE
    return DecisionVerdict(status, witness, steps_used=domain.node_budget - budget.remaining)


def _closed(holds_at: FormulaFn, assignments: Iterator[Env]) -> FormulaFn:
    """A universal closure, evaluated once, as a premise that ignores the
    assignment: it returns the closure's truth or re-raises its error."""
    try:
        value = all(map(holds_at, assignments))
    except EvalError as exc:
        error = exc  # the except clause unbinds its own name on exit

        def premise(env: Env) -> bool:
            raise error

        return premise
    return lambda env: value


def entailment_check(lemmas: Sequence[GoalDecl], goal: GoalDecl, domain: Domain) -> bool:
    """Decide ``lemma_1 -> ... -> lemma_n -> goal`` over the goal's
    assignments, under one budget.

    A lemma whose binder sorts match the goal's, positionally, is renamed
    onto the goal's binders and read at each assignment; any other lemma is
    universally closed over its own binders and evaluated once.  Premises
    run in lemma order and stop at the first false one, so an earlier false
    premise shields a later erroring one.  An evaluation error at an
    assignment falsifies the implication there, as in ``decide_bounded``.

    With no lemmas this reduces exactly to deciding the goal itself.
    Raises BudgetExceeded when the shared budget runs out.
    """
    compiler = _Compiler(domain, Budget(domain.node_budget))
    goal_sorts = [sort for _, sort in goal.binders]
    premises: list[FormulaFn] = []
    for lemma in lemmas:
        if lemma.binders and [sort for _, sort in lemma.binders] == goal_sorts:
            mapping = {old: new for (old, _), (new, _) in zip(lemma.binders, goal.binders)}
            premises.append(compiler.compile(rename_free(lemma.body, mapping)))
        else:
            holds_at = compiler.compile(lemma.body)
            premises.append(_closed(holds_at, domain.iter_assignments(lemma.binders)))
    goal_holds_at = compiler.compile(goal.body)

    def implication(env: Env) -> bool:
        return not all(premise(env) for premise in premises) or goal_holds_at(env)

    return _first_failure(implication, domain.iter_assignments(goal.binders)) is None
