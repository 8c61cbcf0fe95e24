"""Bounded evaluation semantics, checked against independent re-derivations.

The agreement tests re-implement evaluation naively (plain recursion, no
budget, hand-rolled carrier enumeration) so a shared bug in the production
path cannot hide: both sides would have to be wrong in the same way.
"""

from __future__ import annotations

import collections
import hashlib
import random
import re
from dataclasses import dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import random_goal
from enumeration import independent_list_values
from provekit.errors import BudgetExceeded, ContractViolation, EvalError
from provekit.evaluator import (
    Budget,
    DecisionVerdict,
    Domain,
    decide_bounded,
    entailment_check,
    _Compiler,
    compile_formula,
    eval_formula,
)
from provekit.lang import (
    Add,
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
    Not,
    And,
    Or,
    Implies,
    Sort,
    Sub,
    TrueF,
    Var,
    parse_goal,
    print_goal,
    rename_free,
)
from provekit.lang.ast import CHILDREN
from provekit.quickcheck import QcConfig, quickcheck

TINY = Domain(int_lo=-2, int_hi=2, max_list_len=2, elem_lo=-1, elem_hi=1)


# --- independent oracle -----------------------------------------------------


class _NaiveErr(Exception):
    pass


def _naive_lists(lo: int, hi: int, max_len: int) -> list[tuple[int, ...]]:
    # Layer-by-layer extension: appending ascending elements to an already
    # lexicographic layer keeps each layer lexicographic.
    out: list[tuple[int, ...]] = [()]
    layer: list[tuple[int, ...]] = [()]
    for _ in range(max_len):
        nxt = []
        for tup in layer:
            for e in range(lo, hi + 1):
                nxt.append(tup + (e,))
        layer = nxt
        out.extend(layer)
    return out


def _naive_values(domain: Domain, sort: Sort) -> list:
    if sort is Sort.INT:
        return list(range(domain.int_lo, domain.int_hi + 1))
    return _naive_lists(domain.elem_lo, domain.elem_hi, domain.max_list_len)


def _naive_term(term, env, domain):
    if isinstance(term, IntLit):
        return term.value
    if isinstance(term, Var):
        return env[term.name]
    if isinstance(term, Add):
        return _naive_term(term.left, env, domain) + _naive_term(term.right, env, domain)
    if isinstance(term, Sub):
        return _naive_term(term.left, env, domain) - _naive_term(term.right, env, domain)
    if isinstance(term, Mul):
        return _naive_term(term.left, env, domain) * _naive_term(term.right, env, domain)
    if isinstance(term, Mod):
        a = _naive_term(term.left, env, domain)
        b = _naive_term(term.right, env, domain)
        if b == 0:
            raise _NaiveErr
        # Truncating division derived from the quotient, not from abs-mod.
        q = abs(a) // abs(b)
        if (a >= 0) != (b >= 0):
            q = -q
        return a - b * q
    if isinstance(term, ListLit):
        return tuple(_naive_term(e, env, domain) for e in term.elements)
    if isinstance(term, Cons):
        return (_naive_term(term.head, env, domain),) + _naive_term(term.tail, env, domain)
    if isinstance(term, Append):
        return _naive_term(term.left, env, domain) + _naive_term(term.right, env, domain)
    if isinstance(term, Length):
        return len(_naive_term(term.arg, env, domain))
    if isinstance(term, Count):
        xs = _naive_term(term.arg, env, domain)
        v = _naive_term(term.element, env, domain)
        return len([x for x in xs if x == v])
    if isinstance(term, IfThenElse):
        if _naive_formula(term.cond, env, domain):
            return _naive_term(term.then, env, domain)
        return _naive_term(term.other, env, domain)
    raise AssertionError(term)


def _naive_formula(formula, env, domain) -> bool:
    if isinstance(formula, TrueF):
        return True
    if isinstance(formula, FalseF):
        return False
    if isinstance(formula, Eq):
        return _naive_term(formula.left, env, domain) == _naive_term(formula.right, env, domain)
    if isinstance(formula, Lt):
        return _naive_term(formula.left, env, domain) < _naive_term(formula.right, env, domain)
    if isinstance(formula, Le):
        return _naive_term(formula.left, env, domain) <= _naive_term(formula.right, env, domain)
    if isinstance(formula, Mem):
        return _naive_term(formula.element, env, domain) in _naive_term(formula.lst, env, domain)
    if isinstance(formula, Not):
        return not _naive_formula(formula.child, env, domain)
    if isinstance(formula, And):
        return _naive_formula(formula.left, env, domain) and _naive_formula(
            formula.right, env, domain
        )
    if isinstance(formula, Or):
        return _naive_formula(formula.left, env, domain) or _naive_formula(
            formula.right, env, domain
        )
    if isinstance(formula, Implies):
        return (not _naive_formula(formula.left, env, domain)) or _naive_formula(
            formula.right, env, domain
        )
    if isinstance(formula, Forall):
        return all(
            _naive_formula(formula.body, {**env, formula.binder: v}, domain)
            for v in _naive_values(domain, formula.sort)
        )
    if isinstance(formula, Exists):
        return any(
            _naive_formula(formula.body, {**env, formula.binder: v}, domain)
            for v in _naive_values(domain, formula.sort)
        )
    raise AssertionError(formula)


def _naive_decide(goal: GoalDecl, domain: Domain):
    def rec(idx: int, env: dict):
        if idx == len(goal.binders):
            try:
                ok = _naive_formula(goal.body, env, domain)
            except _NaiveErr:
                ok = False
            return None if ok else dict(env)
        name, sort = goal.binders[idx]
        for v in _naive_values(domain, sort):
            env[name] = v
            hit = rec(idx + 1, env)
            if hit is not None:
                return hit
            del env[name]
        return None

    witness = rec(0, {})
    if witness is None:
        return DecisionVerdict.VALID, None
    return DecisionVerdict.COUNTEREXAMPLE, witness


# --- carrier enumeration ----------------------------------------------------


def test_int_carrier_is_ascending():
    assert list(TINY.iter_values(Sort.INT)) == [-2, -1, 0, 1, 2]


def test_list_carrier_order_matches_two_independent_derivations():
    expected = [
        (),
        (-1,),
        (0,),
        (1,),
        (-1, -1),
        (-1, 0),
        (-1, 1),
        (0, -1),
        (0, 0),
        (0, 1),
        (1, -1),
        (1, 0),
        (1, 1),
    ]
    assert list(TINY.iter_values(Sort.INT_LIST)) == expected
    assert list(independent_list_values(-1, 1, 2)) == expected
    assert _naive_lists(-1, 1, 2) == expected


@pytest.mark.parametrize(
    "domain",
    [
        TINY,
        Domain(),
        Domain(int_lo=0, int_hi=0, max_list_len=0, elem_lo=0, elem_hi=0),
        Domain(int_lo=-1, int_hi=3, max_list_len=4, elem_lo=2, elem_hi=2),
    ],
)
@pytest.mark.parametrize("sort", [Sort.INT, Sort.INT_LIST])
def test_value_count_closed_form_matches_enumeration(domain, sort):
    assert domain.value_count(sort) == len(list(domain.iter_values(sort)))


def test_assignments_vary_last_binder_fastest():
    d = Domain(int_lo=0, int_hi=1, max_list_len=0, elem_lo=0, elem_hi=0)
    envs = list(d.iter_assignments((("a", Sort.INT), ("b", Sort.INT))))
    assert envs == [
        {"a": 0, "b": 0},
        {"a": 0, "b": 1},
        {"a": 1, "b": 0},
        {"a": 1, "b": 1},
    ]


def test_assignment_count_is_product_of_carriers():
    binders = (("x", Sort.INT), ("l", Sort.INT_LIST), ("y", Sort.INT))
    n = sum(1 for _ in TINY.iter_assignments(binders))
    assert n == 5 * 13 * 5


def test_no_binders_yields_one_empty_assignment():
    assert list(TINY.iter_assignments(())) == [{}]


def test_compiles_and_decides_over_one_domain_share_each_carrier():
    domain = Domain(max_list_len=2)
    goal = parse_goal("goal c (l: IntList) := forall m: IntList, len(m ++ l) = len(l) + len(m)")
    Domain.carrier.cache_clear()
    first = compile_formula(goal.body, domain, Budget(domain.node_budget))
    second = compile_formula(goal.body, domain, Budget(domain.node_budget))
    assert first({"l": ()}) and second({"l": (1,)})
    assert decide_bounded(goal, domain).status == DecisionVerdict.VALID
    info = Domain.carrier.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    carrier = domain.carrier(Sort.INT_LIST)
    assert carrier == tuple(domain.iter_values(Sort.INT_LIST))
    assert [env["l"] for env in domain.iter_assignments(goal.binders)] == list(carrier)
    assert all(env["l"] is value for env, value in zip(domain.iter_assignments(goal.binders), carrier))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"int_lo": 1, "int_hi": 0},
        {"elem_lo": 2, "elem_hi": 1},
        {"max_list_len": -1},
        {"node_budget": 0},
    ],
)
def test_degenerate_domains_are_rejected(kwargs):
    with pytest.raises(ContractViolation):
        Domain(**kwargs)


# --- term and formula evaluation --------------------------------------------


def _eval_term(term, env, budget):
    return _Compiler(TINY, budget).compile(term)(env)


def _run_term(term, env=None):
    return _eval_term(term, env or {}, Budget(10_000))


@pytest.mark.parametrize(
    "a,b",
    [(a, b) for a in range(-7, 8) for b in (-3, -2, -1, 1, 2, 3)],
)
def test_mod_truncates_toward_zero(a, b):
    got = _run_term(Mod(IntLit(a), IntLit(b)))
    q = abs(a) // abs(b)
    if (a >= 0) != (b >= 0):
        q = -q
    assert got == a - b * q
    # The result carries the dividend's sign (or is zero).
    assert got == 0 or (got > 0) == (a > 0)


def test_mod_by_zero_raises():
    with pytest.raises(EvalError):
        _run_term(Mod(IntLit(1), IntLit(0)))


def test_list_operations():
    l = ListLit((IntLit(1), IntLit(2)))
    assert _run_term(l) == (1, 2)
    assert _run_term(Cons(IntLit(0), l)) == (0, 1, 2)
    assert _run_term(Append(l, l)) == (1, 2, 1, 2)
    assert _run_term(Length(l)) == 2
    assert _run_term(Count(Append(l, l), IntLit(2))) == 2
    assert _run_term(Count(l, IntLit(9))) == 0


def test_conditional_term_branches_on_formula():
    t = IfThenElse(Lt(Var("x"), IntLit(0)), IntLit(-1), IntLit(1))
    assert _eval_term(t, {"x": -2}, Budget(100)) == -1
    assert _eval_term(t, {"x": 2}, Budget(100)) == 1


def test_unbound_variable_is_an_eval_error():
    with pytest.raises(EvalError):
        _run_term(Var("nope"))


def test_membership():
    l = ListLit((IntLit(1), IntLit(2)))
    assert eval_formula(Mem(IntLit(2), l), {}, TINY)
    assert not eval_formula(Mem(IntLit(3), l), {}, TINY)


def test_quantifier_over_lists():
    f = Exists("m", Sort.INT_LIST, Eq(Length(Var("m")), IntLit(2)))
    assert eval_formula(f, {}, TINY)
    g = Forall("m", Sort.INT_LIST, Le(Length(Var("m")), IntLit(1)))
    assert not eval_formula(g, {}, TINY)


def test_inner_binder_shadows_outer():
    f = Forall("x", Sort.INT, Exists("x", Sort.INT, Eq(Var("x"), IntLit(0))))
    assert eval_formula(f, {}, TINY)


def test_budget_ticks_once_per_node_visit():
    goal = parse_goal("goal t := 1 + 2 = 3")
    budget = Budget(100)
    assert eval_formula(goal.body, {}, TINY, budget)
    assert 100 - budget.remaining == 5  # Eq, Add, three literals


def test_budget_exhaustion_raises():
    goal = parse_goal("goal t := 1 + 2 = 3")
    for limit in range(5):  # the visit that takes the budget below zero raises
        budget = Budget(limit)
        with pytest.raises(BudgetExceeded):
            eval_formula(goal.body, {}, TINY, budget)
        assert budget.remaining == -1


# --- the step-count contract, against a per-node reference -----------------


def _ref_mod(a: int, b: int) -> int:
    """Derived from the quotient, as in the oracle."""
    if b == 0:
        raise EvalError("modulo by zero")
    q = abs(a) // abs(b)
    return a - b * (q if (a >= 0) == (b >= 0) else -q)


# The value of each node class whose children are all evaluated, from their
# values in field order.
_REF_OPS = {
    Add: lambda a, b: a + b,
    Sub: lambda a, b: a - b,
    Mul: lambda a, b: a * b,
    Mod: _ref_mod,
    ListLit: lambda *elements: tuple(elements),
    Cons: lambda head, tail: (head,) + tail,
    Append: lambda a, b: a + b,
    Length: len,
    Count: lambda xs, v: sum(1 for x in xs if x == v),
    Eq: lambda a, b: a == b,
    Lt: lambda a, b: a < b,
    Le: lambda a, b: a <= b,
    Mem: lambda element, xs: element in xs,
    Not: lambda value: not value,
}


def _reference(node, env, domain, budget):
    """A tree walker that ticks once per node visit, in pre-order over
    ``CHILDREN``, and raises on the visit that takes the budget below zero."""
    budget.remaining -= 1
    if budget.remaining < 0:
        raise BudgetExceeded("reference budget")
    kind = type(node)
    if kind is Var:
        if node.name not in env:
            raise EvalError("unbound")
        return env[node.name]
    if kind is IntLit or kind is TrueF or kind is FalseF:
        return node.value if kind is IntLit else kind is TrueF
    if kind in (And, Or, Implies):
        settled_by, result = {And: (False, False), Or: (True, True), Implies: (False, True)}[kind]
        if _reference(node.left, env, domain, budget) == settled_by:
            return result
        return _reference(node.right, env, domain, budget)
    if kind is IfThenElse:
        branch = node.then if _reference(node.cond, env, domain, budget) else node.other
        return _reference(branch, env, domain, budget)
    if kind is Forall or kind is Exists:
        for value in domain.iter_values(node.sort):
            if _reference(node.body, {**env, node.binder: value}, domain, budget) != (kind is Forall):
                return kind is not Forall
        return kind is Forall
    values = [_reference(child, env, domain, budget) for child in CHILDREN[kind](node)]
    return _REF_OPS[kind](*values)


def _outcome(run, limit):
    """The value or exception class of ``run(budget)``, with what is left."""
    budget = Budget(limit)
    try:
        result = run(budget)
    except (BudgetExceeded, EvalError) as exc:
        result = type(exc)
    return result, budget.remaining


# Pieces that raise part-way through a fixed-size subtree: a zero divisor
# at the sixth visit, and a variable no binder provides at the fourth.
_RAISING = (
    Le(Add(IntLit(1), Mod(Var("x"), IntLit(0))), IntLit(4)),
    Eq(Mul(IntLit(2), Var("unbound")), Length(ListLit((IntLit(0),)))),
)
# Inside a quantifier over v, this one raises only at v = 0, the second of
# the three values, after the body has run once.
_RAISING_AT_ZERO = Lt(Mod(IntLit(1), Var("v")), IntLit(1))
# Term pieces, for a conditional's branches.
_RAISING_TERMS = (Mod(Var("x"), IntLit(0)), Var("unbound"))
_SMALL = Domain(int_lo=-1, int_hi=1, max_list_len=1, elem_lo=0, elem_hi=1)


def _spliced(data, body, pieces=_RAISING):
    """``body`` and a raising piece under a connective, the piece on either
    side: on the right it starts a block of its own."""
    splice = data.draw(st.sampled_from((And, Or, Implies)))
    piece = data.draw(st.sampled_from(pieces))
    return splice(piece, body) if data.draw(st.booleans()) else splice(body, piece)


def _with_raising_piece(data, body):
    """``body`` with a raising piece at a drawn block boundary, or as is."""
    place = data.draw(st.sampled_from((None, "connective", "quantifier", "branch", "not")))
    if place == "connective":
        return _spliced(data, body)
    if place == "quantifier":  # a body block is charged once per value
        quantifier = data.draw(st.sampled_from((Forall, Exists)))
        return quantifier("v", Sort.INT, _spliced(data, body, _RAISING + (_RAISING_AT_ZERO,)))
    if place == "branch":  # each branch is a block, under the comparison's
        term = data.draw(st.sampled_from(_RAISING_TERMS))
        if data.draw(st.booleans()):
            return Le(IfThenElse(body, term, IntLit(0)), IntLit(1))
        return Le(IfThenElse(body, IntLit(0), term), IntLit(1))
    if place == "not":  # the connective's left side shares Not's block
        return Not(_spliced(data, body))
    return body


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_every_budget_matches_a_per_node_reference(data):
    goal = random_goal(data.draw(st.integers(0, 10**9)), "g", data.draw(st.integers(2, 4)))
    body = _with_raising_piece(data, goal.body)
    env = {"x": 0}  # the raising pieces read x
    for name, sort in goal.binders:
        if sort is Sort.INT:
            env[name] = data.draw(st.integers(-3, 3))
        else:
            env[name] = tuple(data.draw(st.lists(st.integers(-2, 2), max_size=3)))
    unlimited = Budget(10**9)
    try:
        _reference(body, env, _SMALL, unlimited)
    except EvalError:
        pass
    needed = 10**9 - unlimited.remaining
    for limit in range(needed + 2):
        got = _outcome(lambda budget: compile_formula(body, _SMALL, budget)(env), limit)
        assert got == _outcome(lambda budget: _reference(body, env, _SMALL, budget), limit), limit


# Not a Formula subclass, so the node-table census in test_lang stays exact:
# the compiler dispatches on the class alone.
@dataclass(frozen=True)
class _Unregistered:
    """A node class the evaluator has no builder for."""


@pytest.mark.parametrize(
    "place",
    [lambda f: f, lambda f: And(TrueF(), f), lambda f: Forall("q", Sort.INT, f)],
    ids=["root", "right-of-connective", "quantifier-body"],
)
def test_an_unregistered_node_class_is_an_eval_error(place):
    with pytest.raises(EvalError, match="unknown syntax node _Unregistered"):
        compile_formula(place(_Unregistered()), TINY, Budget(100))


def _count_walks(monkeypatch):
    """A list that gains one entry per replay: a walk entered from outside
    the walker."""
    walk, depth, starts = _Compiler.walk, [0], []

    def counting(self, node, env):
        if not depth[0]:
            starts.append(node)
        depth[0] += 1
        try:
            return walk(self, node, env)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(_Compiler, "walk", counting)
    return starts


# Each right side and each quantifier body is a block inside its parent's.
_DEEP = (
    "(forall a: Int, a = a) /\\ (forall a: Int, a + 0 = a) /\\ (forall m: IntList, "
    "forall n: IntList, forall k: IntList, len(m ++ n ++ k) = len(k ++ n ++ m))"
)
_DEEP_ERROR = "x = x /\\ x = x /\\ (forall b: Int, b = b /\\ (forall c: Int, x % 0 = c))"


@pytest.mark.parametrize(
    "text, node_budget, status",
    [
        (f"goal deep := {_DEEP}", 25_000, DecisionVerdict.RESOURCE_EXCEEDED),
        (f"goal deep (x: Int) := {_DEEP_ERROR}", 1_000_000, DecisionVerdict.COUNTEREXAMPLE),
    ],
    ids=["exhausted", "erroring"],
)
def test_a_failed_evaluation_walks_once_from_its_root(monkeypatch, text, node_budget, status):
    starts = _count_walks(monkeypatch)
    goal = parse_goal(text)
    assert decide_bounded(goal, Domain(node_budget=node_budget)).status == status
    assert starts == [goal.body]


def test_an_exhausted_entailment_walks_once_from_its_root(monkeypatch):
    starts = _count_walks(monkeypatch)
    goal = parse_goal(f"goal deep := {_DEEP}")
    with pytest.raises(BudgetExceeded):
        entailment_check([], goal, Domain(node_budget=25_000))
    assert starts == [goal.body]


def test_a_completed_evaluation_never_walks(monkeypatch):
    starts = _count_walks(monkeypatch)
    goal = parse_goal(f"goal deep := {_DEEP}")
    assert decide_bounded(goal, Domain(max_list_len=1)).status == DecisionVerdict.VALID
    assert starts == []


# --- bounded decision -------------------------------------------------------


def test_first_witness_in_enumeration_order():
    verdict = decide_bounded(parse_goal("goal w (x: Int) := x < 3"), Domain())
    assert verdict.status == DecisionVerdict.COUNTEREXAMPLE
    assert verdict.witness == {"x": 3}


def test_valid_goal_reports_steps():
    verdict = decide_bounded(parse_goal("goal v (x: Int) := x <= 5"), Domain())
    assert verdict.status == DecisionVerdict.VALID
    assert 0 < verdict.steps_used <= Domain().node_budget


def test_evaluation_error_counts_as_falsifying():
    verdict = decide_bounded(parse_goal("goal e (x: Int) := x % 0 = 0"), TINY)
    assert verdict.status == DecisionVerdict.COUNTEREXAMPLE
    assert verdict.witness == {"x": -2}  # first assignment in order
    # The error escapes a quantifier; the witness must not carry its binder.
    verdict = decide_bounded(parse_goal("goal e (x: Int) := forall q: Int, x % 0 = q"), TINY)
    assert verdict.witness == {"x": -2}


def test_tiny_budget_yields_resource_verdict():
    d = Domain(node_budget=10)
    goal = parse_goal("goal b (l: IntList) := forall q: Int, q + len(l) = len(l) + q")
    verdict = decide_bounded(goal, d)
    assert verdict.status == DecisionVerdict.RESOURCE_EXCEEDED


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_decision_agrees_with_naive_oracle(seed):
    goal = random_goal(seed, "g", depth=2)
    verdict = decide_bounded(goal, TINY)
    status, witness = _naive_decide(goal, TINY)
    assert verdict.status == status
    if status == DecisionVerdict.COUNTEREXAMPLE:
        assert verdict.witness == witness


def test_observable_behaviour_is_pinned():
    # Recorded from the tree-walking interpreter this evaluator replaced:
    # every verdict, witness and step count, and every quickcheck outcome,
    # must stay exactly as it was.  24 of the decides exhaust the budget,
    # so the budget path is pinned too.
    domain = Domain(node_budget=25_000)
    config = QcConfig(trials=200)
    decided, checked = [], []
    for s in range(300):
        goal = random_goal(s, f"g{s}", 3)
        verdict = decide_bounded(goal, domain)
        decided.append((verdict.status, verdict.witness, verdict.steps_used))
        checked.append(quickcheck(goal, config, domain))
    assert collections.Counter(status for status, _, _ in decided) == {
        DecisionVerdict.COUNTEREXAMPLE: 226,
        DecisionVerdict.VALID: 50,
        DecisionVerdict.RESOURCE_EXCEEDED: 24,
    }
    assert (
        hashlib.sha256(repr(decided).encode()).hexdigest()
        == "e7059fc3c97e20bf5cd15e2be0a0885e9851001c85997f85bc820628cfaa376d"
    )
    assert (
        hashlib.sha256(repr(checked).encode()).hexdigest()
        == "3943a7c882af97b362eb2323f50bba918b3f4228fe271c358a595d8df306f408"
    )


def _lemma_set(seed: int) -> tuple[list[GoalDecl], GoalDecl]:
    """A random goal and zero to three random lemmas.  About half the lemmas
    get their binders renamed to a, b, c; whether a lemma's sorts match the
    goal's (a pointwise premise) or not (a closed one, often over fewer
    binders) is left to the draw."""
    rng = random.Random(seed)
    goal = random_goal(rng.randrange(10**9), "g", 2)
    lemmas = []
    for k in range(rng.randrange(4)):
        lemma = random_goal(rng.randrange(10**9), f"l{k}", 2)
        if rng.random() < 0.5:
            mapping = {name: new for (name, _), new in zip(lemma.binders, "abc")}
            binders = tuple((mapping[name], sort) for name, sort in lemma.binders)
            lemma = GoalDecl(lemma.name, binders, rename_free(lemma.body, mapping))
        lemmas.append(lemma)
    return lemmas, goal


def _entailment_and_steps(lemmas, goal, domain, cap):
    """The entailment result and the smallest budget at which it completes,
    found by bisection; ``"budget"`` when even ``cap`` steps do not do."""

    def run(budget):
        try:
            return entailment_check(lemmas, goal, replace(domain, node_budget=budget))
        except BudgetExceeded:
            return None

    if run(cap) is None:
        return "budget"
    lo, hi = 1, cap
    while lo < hi:
        mid = (lo + hi) // 2
        if run(mid) is None:
            lo = mid + 1
        else:
            hi = mid
    return run(hi), hi


# Hand-written (lemmas, goal) cases for the premise kinds the random sets
# rarely reach: closed lemmas that are false, true or erroring, pointwise
# lemmas that are renamed or erroring, and a false premise shielding an
# erroring one, in both orders.
_ENTAILMENT_CASES = [
    (["goal abs := 0 = 1"], "goal g (x: Int) := x = 99"),
    (["goal t (a: Int) (b: Int) := a + b = b + a"], "goal g (x: Int) := x + 0 = x"),
    (["goal t (a: Int) (b: Int) := a + b = b + a"], "goal g (x: Int) := x = 1"),
    (["goal c := 1 % 0 = 0"], "goal g (x: Int) := x = x"),
    (["goal lo (a: Int) := 1 <= a", "goal hi (b: Int) := b <= 1"], "goal g (x: Int) := x = 1"),
    (["goal lo (a: Int) := 1 <= a"], "goal g (x: Int) := x = 1"),
    (["goal e (a: Int) := 0 <= 1 % a"], "goal g (x: Int) := x <= 2"),
    (["goal abs := 0 = 1", "goal c := 1 % 0 = 0"], "goal g (x: Int) := x = 99"),
    (["goal c := 1 % 0 = 0", "goal abs := 0 = 1"], "goal g (x: Int) := x = 99"),
    (["goal p (a: Int) := !(a = 0)", "goal e (b: Int) := 0 <= 1 % b"], "goal g (x: Int) := x = x"),
    (["goal e (b: Int) := 0 <= 1 % b", "goal p (a: Int) := !(a = 0)"], "goal g (x: Int) := x = x"),
    (["goal p (a: Int) := 0 < a", "goal c := 1 % 0 = 0"], "goal g (x: Int) := 0 < x"),
    (["goal t := 0 = 0", "goal e (a: Int) := 0 <= 1 % a"], "goal g (x: Int) := x = x"),
]


def test_entailment_is_pinned():
    # Every result and step count, including the budget path, recorded
    # from the premise-list implementation this loop replaced.
    cap = 5_000
    pinned = [_entailment_and_steps(*_lemma_set(seed), TINY, cap) for seed in range(400)]
    for lemma_texts, goal_text in _ENTAILMENT_CASES:
        lemmas = [parse_goal(text) for text in lemma_texts]
        pinned.append(_entailment_and_steps(lemmas, parse_goal(goal_text), TINY, cap))
    assert collections.Counter(
        result if result == "budget" else result[0] for result in pinned
    ) == {True: 268, False: 136, "budget": 9}
    assert (
        hashlib.sha256(repr(pinned).encode()).hexdigest()
        == "e9a0dd3a82df0462967d59df870f2f9af9e176bdfde215dd1de34c33a9bddb77"
    )


# --- entailment -------------------------------------------------------------


def _decl(src: str) -> GoalDecl:
    return parse_goal(src)


def test_no_lemmas_reduces_to_decision():
    valid = _decl("goal g (x: Int) := x <= 5")
    invalid = _decl("goal g (x: Int) := x <= 4")
    assert entailment_check([], valid, Domain())
    assert not entailment_check([], invalid, Domain())


def test_matching_signature_is_renamed_pointwise():
    goal = _decl("goal g (x: Int) := x = 3")
    lo = _decl("goal lo (a: Int) := 3 <= a")
    hi = _decl("goal hi (b: Int) := b <= 3")
    assert entailment_check([lo, hi], goal, Domain())
    assert not entailment_check([lo], goal, Domain())
    assert not entailment_check([hi], goal, Domain())


def test_pointwise_rename_is_simultaneous():
    # The lemma's binders are the goal's, swapped: renaming one name at a
    # time collapsed x and y and rejected this valid entailment.
    goal = _decl("goal g (x: Int) (y: Int) := x - y <= 3")
    lemma = _decl("goal l (y: Int) (x: Int) := y - x <= 3")
    assert entailment_check([lemma], goal, Domain())


def test_pointwise_rename_avoids_capture():
    # Renaming a onto x must not let the lemma's own exists x capture it: a
    # captured premise is false everywhere and entails anything vacuously.
    goal = _decl("goal g (x: Int) (y: Int) (z: Int) := !(x = 1 /\\ y = 2 /\\ z = 3)")
    lemma = _decl("goal l (a: Int) (b: Int) (c: Int) := exists x: Int, !(x = a)")
    assert not entailment_check([lemma], goal, Domain())


_CORPUS_NAMES = ("x", "y", "l", "q", "w", "q2", "w2")


def _entails(lemmas, goal, domain):
    try:
        return entailment_check(lemmas, goal, domain)
    except BudgetExceeded:
        return "budget"


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.permutations(_CORPUS_NAMES))
def test_entailment_invariant_under_alpha_renaming_of_the_lemma(seed, names):
    # Permuting every name of the goal, free and bound, gives an
    # alpha-equal lemma whose binders and inner quantifiers reuse the
    # goal's names; it must entail exactly what the goal itself does.
    goal = random_goal(seed, "g")
    renaming = dict(zip(_CORPUS_NAMES, names))
    text = re.sub(r"\b(x|y|l|q|w|q2|w2)\b", lambda m: renaming[m.group(1)], print_goal(goal))
    lemma = parse_goal(text.replace("goal g ", "goal lemma ", 1))
    domain = replace(TINY, node_budget=20_000)
    assert _entails([lemma], goal, domain) == _entails([goal], goal, domain)


def test_closed_false_lemma_entails_anything():
    goal = _decl("goal g (x: Int) := x = 99")
    absurd = _decl("goal abs := 0 = 1")
    assert entailment_check([absurd], goal, Domain())


def test_mismatched_signature_is_universally_closed():
    goal = _decl("goal g (x: Int) := x + 0 = x")
    # Different arity: closed over its own binders, i.e. a domain-valid fact.
    side = _decl("goal s (a: Int) (b: Int) := a + b = b + a")
    assert entailment_check([side], goal, Domain())
    refuted = _decl("goal r (a: Int) (b: Int) := a = b")
    # A false closure is a false constant premise: vacuous entailment.
    assert entailment_check([refuted], goal, Domain())


def test_earlier_false_premise_shields_erroring_one():
    goal = _decl("goal g (x: Int) := x = 99")
    absurd = _decl("goal abs := 0 = 1")
    crash = _decl("goal c := 1 % 0 = 0")
    assert entailment_check([absurd, crash], goal, Domain())
    assert not entailment_check([crash, absurd], goal, Domain())


def test_erroring_goal_body_fails_entailment():
    goal = _decl("goal g (x: Int) := x % 0 = 0")
    assert not entailment_check([], goal, Domain())


def test_entailment_budget_exhaustion_propagates():
    d = Domain(node_budget=5)
    goal = _decl("goal g (x: Int) := forall q: Int, q + x = x + q")
    with pytest.raises(BudgetExceeded):
        entailment_check([], goal, d)


def _implication(lemmas: list[GoalDecl], goal: GoalDecl) -> GoalDecl:
    """The goal ``lemma_1 -> ... -> goal`` over the goal's binders.  A lemma
    whose sorts match the goal's is renamed onto its binders; any other is
    closed by nested foralls over its own, first binder outermost."""
    goal_sorts = tuple(sort for _, sort in goal.binders)
    body = goal.body
    for lemma in reversed(lemmas):
        if lemma.binders and tuple(sort for _, sort in lemma.binders) == goal_sorts:
            mapping = {old: new for (old, _), (new, _) in zip(lemma.binders, goal.binders)}
            premise = rename_free(lemma.body, mapping)
        else:
            premise = lemma.body
            for name, sort in reversed(lemma.binders):
                premise = Forall(name, sort, premise)
        body = Implies(premise, body)
    return GoalDecl(goal.name, goal.binders, body)


def test_entailment_decides_the_implication():
    # The closed form re-evaluates a closed lemma at every goal point, so it
    # costs more steps; a case where either side runs out is skipped.
    domain = replace(TINY, node_budget=20_000)
    agreed = collections.Counter()
    for seed in range(300):
        lemmas, goal = _lemma_set(seed)
        verdict = decide_bounded(_implication(lemmas, goal), domain)
        entails = _entails(lemmas, goal, domain)
        if verdict.status == DecisionVerdict.RESOURCE_EXCEEDED or entails == "budget":
            continue
        assert (verdict.status == DecisionVerdict.VALID) == entails, seed
        agreed[entails] += 1
    assert agreed[True] > 100 and agreed[False] > 50
