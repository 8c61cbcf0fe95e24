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
Feeley & Lapalme, "Using closures for code generation", 1987).  Each closure
charges exactly one budget step per node visit, in pre-order and left to
right, with the same short-circuiting as the formula's logic, so step counts
are part of the contract.  Compiled closures hold their call's budget and
are never cached.
"""

from __future__ import annotations

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
        pools = [list(self.iter_values(sort)) for _, sort in binders]
        for combo in itertools.product(*pools):
            yield dict(zip(names, combo))


class Budget:
    """Mutable step counter shared by every node visit in one decision."""

    __slots__ = ("remaining",)

    def __init__(self, limit: int):
        self.remaining = limit


_EXHAUSTED = "evaluation step budget exhausted"

TermFn = Callable[[Env], Value]
FormulaFn = Callable[[Env], bool]


class _Compiler:
    """Turns one formula into nested closures over one domain and budget.

    Every closure starts with the same three-line tick, so each node visit
    costs exactly one budget step, in pre-order, and the visit that takes
    ``remaining`` below zero raises.  The closures are built per call and
    never cached: they hold the budget of that call.
    """

    def __init__(self, domain: Domain, budget: Budget):
        self.domain = domain
        self.budget = budget
        self._carriers: dict[Sort, tuple[Value, ...]] = {}

    def compile(self, node: Node) -> Callable[[Env], Value | bool]:
        build = _BUILDERS.get(type(node))
        if build is None:
            raise EvalError(f"unknown syntax node {node!r}")
        return build(self, node)

    def carrier(self, sort: Sort) -> tuple[Value, ...]:
        values = self._carriers.get(sort)
        if values is None:
            values = self._carriers[sort] = tuple(self.domain.iter_values(sort))
        return values


def _constant(value_of: Callable[[Node], Value | bool]):
    """Builder for a leaf whose value is fixed at compile time."""

    def build(c: _Compiler, node: Node) -> Callable[[Env], Value | bool]:
        budget, value = c.budget, value_of(node)

        def run(env: Env) -> Value | bool:
            budget.remaining -= 1
            if budget.remaining < 0:
                raise BudgetExceeded(_EXHAUSTED)
            return value

        return run

    return build


def _var(c: _Compiler, term: Var) -> TermFn:
    budget, name = c.budget, term.name

    def run(env: Env) -> Value:
        budget.remaining -= 1
        if budget.remaining < 0:
            raise BudgetExceeded(_EXHAUSTED)
        try:
            return env[name]
        except KeyError:
            raise EvalError(f"unbound variable {name!r}") from None

    return run


def _trunc_mod(a: int, b: int) -> int:
    if b == 0:
        raise EvalError("modulo by zero")
    r = abs(a) % abs(b)
    return r if a >= 0 else -r


def _binary(op: Callable[[Value, Value], Value | bool]):
    """Builder for a node whose two child terms are evaluated in field
    order, then combined by ``op``."""

    def build(c: _Compiler, node: Node) -> Callable[[Env], Value | bool]:
        left, right = CHILDREN[type(node)](node)
        budget, left, right = c.budget, c.compile(left), c.compile(right)

        def run(env: Env) -> Value | bool:
            budget.remaining -= 1
            if budget.remaining < 0:
                raise BudgetExceeded(_EXHAUSTED)
            return op(left(env), right(env))

        return run

    return build


def _list_lit(c: _Compiler, term: ListLit) -> TermFn:
    budget, elements = c.budget, tuple(c.compile(e) for e in term.elements)

    def run(env: Env) -> Value:
        budget.remaining -= 1
        if budget.remaining < 0:
            raise BudgetExceeded(_EXHAUSTED)
        return tuple([element(env) for element in elements])

    return run


def _cons(c: _Compiler, term: Cons) -> TermFn:
    budget, head, tail = c.budget, c.compile(term.head), c.compile(term.tail)

    def run(env: Env) -> Value:
        budget.remaining -= 1
        if budget.remaining < 0:
            raise BudgetExceeded(_EXHAUSTED)
        return (head(env), *tail(env))

    return run


def _length(c: _Compiler, term: Length) -> TermFn:
    budget, arg = c.budget, c.compile(term.arg)

    def run(env: Env) -> Value:
        budget.remaining -= 1
        if budget.remaining < 0:
            raise BudgetExceeded(_EXHAUSTED)
        return len(arg(env))

    return run


def _if_then_else(c: _Compiler, term: IfThenElse) -> TermFn:
    budget, cond = c.budget, c.compile(term.cond)
    then, other = c.compile(term.then), c.compile(term.other)

    def run(env: Env) -> Value:
        budget.remaining -= 1
        if budget.remaining < 0:
            raise BudgetExceeded(_EXHAUSTED)
        return then(env) if cond(env) else other(env)

    return run


def _mem(c: _Compiler, formula: Mem) -> FormulaFn:
    budget, element, lst = c.budget, c.compile(formula.element), c.compile(formula.lst)

    def run(env: Env) -> bool:
        budget.remaining -= 1
        if budget.remaining < 0:
            raise BudgetExceeded(_EXHAUSTED)
        needle = element(env)
        return needle in lst(env)

    return run


def _not(c: _Compiler, formula: Not) -> FormulaFn:
    budget, child = c.budget, c.compile(formula.child)

    def run(env: Env) -> bool:
        budget.remaining -= 1
        if budget.remaining < 0:
            raise BudgetExceeded(_EXHAUSTED)
        return not child(env)

    return run


def _connective(settled_by: bool, result: bool):
    """Builder for And, Or and Implies: when the left side evaluates to
    ``settled_by`` the node yields ``result`` without visiting the right."""

    def build(c: _Compiler, formula: And | Or | Implies) -> FormulaFn:
        budget, left, right = c.budget, c.compile(formula.left), c.compile(formula.right)

        def run(env: Env) -> bool:
            budget.remaining -= 1
            if budget.remaining < 0:
                raise BudgetExceeded(_EXHAUSTED)
            if left(env) == settled_by:
                return result
            return right(env)

        return run

    return build


def _quantifier(c: _Compiler, formula: Forall | Exists) -> FormulaFn:
    budget, binder, body = c.budget, formula.binder, c.compile(formula.body)
    values, want_all = c.carrier(formula.sort), type(formula) is Forall

    def run(env: Env) -> bool:
        budget.remaining -= 1
        if budget.remaining < 0:
            raise BudgetExceeded(_EXHAUSTED)
        inner = dict(env)  # the caller's env never sees the binder
        for value in values:
            inner[binder] = value
            if body(inner) != want_all:  # a counterexample or a witness
                return not want_all
        return want_all

    return run


_BUILDERS: dict[type, Callable[[_Compiler, Node], Callable[[Env], Value | bool]]] = {
    IntLit: _constant(operator.attrgetter("value")),
    Var: _var,
    Add: _binary(operator.add),
    Sub: _binary(operator.sub),
    Mul: _binary(operator.mul),
    Mod: _binary(_trunc_mod),
    ListLit: _list_lit,
    Cons: _cons,
    Append: _binary(operator.add),
    Length: _length,
    Count: _binary(tuple.count),
    IfThenElse: _if_then_else,
    TrueF: _constant(lambda node: True),
    FalseF: _constant(lambda node: False),
    Eq: _binary(operator.eq),
    Lt: _binary(operator.lt),
    Le: _binary(operator.le),
    Mem: _mem,
    Not: _not,
    And: _connective(False, False),
    Or: _connective(True, True),
    Implies: _connective(False, True),
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
