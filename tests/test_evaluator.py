"""Bounded evaluation semantics, checked against independent re-derivations.

The agreement tests re-implement evaluation naively (plain recursion, no
budget, hand-rolled carrier enumeration) so a shared bug in the production
path cannot hide: both sides would have to be wrong in the same way.
"""

from __future__ import annotations

import re
from dataclasses import replace

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
    eval_formula,
    eval_term,
    leave_one_out_necessity,
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
)

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


def _run_term(term, env=None):
    return eval_term(term, env or {}, TINY, Budget(10_000))


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
    assert eval_term(t, {"x": -2}, TINY, Budget(100)) == -1
    assert eval_term(t, {"x": 2}, TINY, Budget(100)) == 1


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
    with pytest.raises(BudgetExceeded):
        eval_formula(goal.body, {}, TINY, Budget(3))


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


# --- necessity probe --------------------------------------------------------


def test_necessity_flags_redundant_lemma():
    goal = _decl("goal g (x: Int) := x = 3")
    lo = _decl("goal lo (a: Int) := 3 <= a")
    hi = _decl("goal hi (b: Int) := b <= 3")
    padding = _decl("goal p (w: Int) := w <= 5")
    flags = leave_one_out_necessity([lo, hi, padding], goal, Domain())
    assert flags == [True, True, False]


def test_necessity_requires_entailing_set():
    goal = _decl("goal g (x: Int) := x = 3")
    with pytest.raises(ContractViolation):
        leave_one_out_necessity([], goal, Domain())
