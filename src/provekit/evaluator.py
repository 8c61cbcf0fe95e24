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
count is part of the contract: one budget step per node visit, in pre-order
and left to right, with the same short-circuiting as the formula's logic,
and the visit that takes the budget below zero raises.  A subtree whose
visits do not depend on values is a block, charged its fixed visit count
in one step and evaluated without per-node ticks; when the charge would
overdraw the budget, or the evaluation raises, the block replays node by
node, so every value, error and remaining budget is the one-tick-per-visit
one.  Compiled closures hold their call's budget and are never cached.
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

# A static subtree is compiled to a part, ``(size, how, what)``: its visit
# count and a variable's name (``_VAR``), a constant (``_CONST``) or an
# unticked closure (``_FN``).  Any other subtree is compiled to its ticking
# closure.
_VAR, _CONST, _FN = "var", "const", "fn"
StaticPart = tuple[int, str, object]
Part = StaticPart | Callable[[Env], Value | bool]


class _Compiler:
    """Turns one formula into nested closures over one domain and budget.

    A node class is static when its visits do not depend on values: every
    class but And, Or, Implies, IfThenElse, Forall and Exists.  A maximal
    subtree of static nodes is a block, and its visit count ``n`` is fixed
    at compile time (the sizes are summed in the one bottom-up pass that
    builds the closures).  A block's closure charges ``n`` in one
    subtraction and evaluates through unticked closures, which read variable
    and literal children inline (Proebsting's superoperators, POPL 1995).
    When ``n`` would overdraw the budget, or the unticked evaluation raises,
    it gives the ``n`` steps back and replays the block through per-node
    closures, built on its first replay.  Those, like the closures of the
    nodes outside blocks, tick once per visit, in pre-order, and the visit
    that takes ``remaining`` below zero raises.  Evaluation is pure, so a
    block that completes has made exactly its ``n`` visits, and any other
    ending is decided node by node: results, errors and ``remaining`` are
    what one tick per node visit gives.  ``fuse=False`` compiles node by
    node throughout.  The closures are built per call and never cached:
    they hold the budget of that call.
    """

    def __init__(self, domain: Domain, budget: Budget, fuse: bool = True):
        self.domain = domain
        self.budget = budget
        self.fuse = fuse
        self._carriers: dict[Sort, tuple[Value, ...]] = {}

    def compile(self, node: Node) -> Callable[[Env], Value | bool]:
        try:
            part = _BUILDERS[type(node)](self, node)
        except KeyError as missing:  # a node class with no builder, here or below
            raise EvalError(f"unknown syntax node {missing.args[0].__name__}") from None
        return part if type(part) is not tuple else self.closure(node, part)

    def closure(self, node: Node, part: Part) -> Callable[[Env], Value | bool]:
        """The ticking closure of a compiled part: a static leaf ticks once,
        a larger static subtree is charged as a block."""
        if type(part) is not tuple:
            return part
        size, how, what = part
        if size == 1:
            if how is _VAR:
                return _tick_var(self.budget, what)
            return _tick_constant(self.budget, what)
        budget, domain = self.budget, self.domain
        fast = what if how is _FN else _as_fn(part)
        replay = None

        def run(env: Env) -> Value | bool:
            nonlocal replay
            remaining = budget.remaining - size
            if remaining >= 0:
                budget.remaining = remaining
                try:
                    return fast(env)
                except Exception:  # the replay raises it again, at its node
                    budget.remaining = remaining + size
            if replay is None:
                replay = _Compiler(domain, budget, fuse=False).compile(node)
            return replay(env)

        return run

    def carrier(self, sort: Sort) -> tuple[Value, ...]:
        values = self._carriers.get(sort)
        if values is None:
            values = self._carriers[sort] = tuple(self.domain.iter_values(sort))
        return values


def _tick_constant(budget: Budget, value: Value | bool) -> Callable[[Env], Value | bool]:
    def run(env: Env) -> Value | bool:
        budget.remaining -= 1
        if budget.remaining < 0:
            raise BudgetExceeded(_EXHAUSTED)
        return value

    return run


def _tick_var(budget: Budget, name: str) -> TermFn:
    def run(env: Env) -> Value:
        budget.remaining -= 1
        if budget.remaining < 0:
            raise BudgetExceeded(_EXHAUSTED)
        try:
            return env[name]
        except KeyError:
            raise EvalError(f"unbound variable {name!r}") from None

    return run


def _tick_unary(budget: Budget, op: Callable, child: Callable) -> Callable[[Env], Value | bool]:
    def run(env: Env) -> Value | bool:
        budget.remaining -= 1
        if budget.remaining < 0:
            raise BudgetExceeded(_EXHAUSTED)
        return op(child(env))

    return run


def _tick_binary(
    budget: Budget, op: Callable, left: Callable, right: Callable
) -> Callable[[Env], Value | bool]:
    def run(env: Env) -> Value | bool:
        budget.remaining -= 1
        if budget.remaining < 0:
            raise BudgetExceeded(_EXHAUSTED)
        return op(left(env), right(env))

    return run


def _as_fn(part: StaticPart) -> Callable[[Env], Value | bool]:
    _, how, what = part
    if how is _VAR:
        return operator.itemgetter(what)
    if how is _CONST:
        return lambda env: what
    return what


def _var(c: _Compiler, term: Var) -> Part:
    return (1, _VAR, term.name)


def _constant(value_of: Callable[[Node], Value | bool]):
    """Builder for a leaf whose value is fixed at compile time."""
    return lambda c, node: (1, _CONST, value_of(node))


def _unary(op: Callable):
    """Builder for a static node class whose one child's value ``op`` maps."""

    def build(c: _Compiler, node: Node) -> Part:
        (child,) = CHILDREN[type(node)](node)
        part = _BUILDERS[type(child)](c, child)
        if c.fuse and type(part) is tuple:
            size, how, a = part
            if how is _VAR:
                return (size + 1, _FN, lambda env: op(env[a]))
            if how is _CONST:
                return (size + 1, _FN, lambda env: op(a))
            return (size + 1, _FN, lambda env: op(a(env)))
        return _tick_unary(c.budget, op, c.closure(child, part))

    return build


def _binary(op: Callable):
    """Builder for a static node class whose two child terms are evaluated
    in field order, then combined by ``op``.  Inside a block, a variable or
    constant child is read inline; a missing variable raises ``KeyError``,
    which sends the block to its replay."""

    def build(c: _Compiler, node: Node) -> Part:
        left, right = CHILDREN[type(node)](node)
        lpart = _BUILDERS[type(left)](c, left)
        rpart = _BUILDERS[type(right)](c, right)
        if c.fuse and type(lpart) is tuple and type(rpart) is tuple:
            lsize, lhow, a = lpart
            rsize, rhow, b = rpart
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
        return _tick_binary(c.budget, op, c.closure(left, lpart), c.closure(right, rpart))

    return build


def _list_lit(c: _Compiler, term: ListLit) -> Part:
    parts = [_BUILDERS[type(element)](c, element) for element in term.elements]
    if c.fuse:
        size, literal = 1, True
        for part in parts:
            if type(part) is not tuple:
                break
            size += part[0]
            literal = literal and part[1] is _CONST
        else:
            if literal:  # a list of constants is a constant
                return (size, _CONST, tuple([part[2] for part in parts]))
            fns = [_as_fn(part) for part in parts]
            return (size, _FN, lambda env: tuple([fn(env) for fn in fns]))
    budget = c.budget
    elements = [c.closure(element, part) for element, part in zip(term.elements, parts)]

    def run(env: Env) -> Value:
        budget.remaining -= 1
        if budget.remaining < 0:
            raise BudgetExceeded(_EXHAUSTED)
        return tuple([element(env) for element in elements])

    return run


def _trunc_mod(a: int, b: int) -> int:
    if b == 0:
        raise EvalError("modulo by zero")
    r = abs(a) % abs(b)
    return r if a >= 0 else -r


def _member(element: int, lst: tuple[int, ...]) -> bool:
    return element in lst


def _cons(head: int, tail: tuple[int, ...]) -> tuple[int, ...]:
    return (head, *tail)


def _if_then_else(c: _Compiler, term: IfThenElse) -> TermFn:
    budget, cond = c.budget, c.compile(term.cond)
    then, other = c.compile(term.then), c.compile(term.other)

    def run(env: Env) -> Value:
        budget.remaining -= 1
        if budget.remaining < 0:
            raise BudgetExceeded(_EXHAUSTED)
        return then(env) if cond(env) else other(env)

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


_BUILDERS: dict[type, Callable[[_Compiler, Node], Part]] = {
    IntLit: _constant(operator.attrgetter("value")),
    Var: _var,
    Add: _binary(operator.add),
    Sub: _binary(operator.sub),
    Mul: _binary(operator.mul),
    Mod: _binary(_trunc_mod),
    ListLit: _list_lit,
    Cons: _binary(_cons),
    Append: _binary(operator.add),
    Length: _unary(len),
    Count: _binary(tuple.count),
    IfThenElse: _if_then_else,
    TrueF: _constant(lambda node: True),
    FalseF: _constant(lambda node: False),
    Eq: _binary(operator.eq),
    Lt: _binary(operator.lt),
    Le: _binary(operator.le),
    Mem: _binary(_member),
    Not: _unary(operator.not_),
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
