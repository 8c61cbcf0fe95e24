"""Parser, printer, and structural-measure tests for the goal language."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provekit.errors import ParseError
from provekit.lang import (
    Add,
    And,
    Eq,
    Forall,
    GoalDecl,
    IntLit,
    Le,
    Lt,
    Mem,
    Not,
    Sort,
    Var,
    alpha_equivalent,
    formula_footprint,
    free_vars,
    operator_footprint,
    parse_goal,
    parse_goal_file,
    print_goal,
    rename_free,
    statement_key,
)

from corpus import random_goal


def roundtrip(goal: GoalDecl) -> GoalDecl:
    return parse_goal(print_goal(goal))


# ---------------------------------------------------------------------------
# Round-trip


HAND_SOURCES = [
    "goal t1 (x: Int) := x + 0 = x",
    "goal t2 (x: Int) (l: IntList) := x in l -> count(l, x) >= 1",
    "goal t3 (l: IntList) := len(l ++ l) = len(l) + len(l)",
    "goal t4 (x: Int) := x % 3 < 3 \\/ x % 3 = 3",
    "goal t5 (x: Int) := !(x < x) /\\ (x <= x)",
    "goal t6 := forall q: Int, q <= q",
    "goal t7 (l: IntList) := exists q: Int, !(q in l) \\/ len(l) > 0",
    "goal t8 (x: Int) := (if x < 0 then 0 - x else x) >= 0",
    "goal t9 (x: Int) (l: IntList) := x :: [1, 2] = x :: 1 :: 2 :: [] /\\ len(l) != 0 -> len(l) > 0",
    "goal t10 (x: Int) := x * 1 - x = 0",
    "goal t11 (l: IntList) := [] ++ l = l",
    "goal t12 (x: Int) := true -> (false \\/ x = x)",
]


@pytest.mark.parametrize("source", HAND_SOURCES)
def test_roundtrip_hand_sources(source):
    goal = parse_goal(source)
    again = roundtrip(goal)
    assert again == goal
    # A second bounce is a fixed point of the printed form itself.
    assert print_goal(again) == print_goal(goal)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_roundtrip_random_goals(seed):
    goal = random_goal(seed, "prop")
    assert roundtrip(goal) == goal


def test_unicode_aliases_parse_to_ascii_ast():
    uni = parse_goal("goal u (x: Int) (l: IntList) := x ∈ l ∧ x ≤ x → ¬(x ≠ x) ∨ x < x")
    asc = parse_goal("goal u (x: Int) (l: IntList) := x in l /\\ x <= x -> !(x != x) \\/ x < x")
    assert uni == asc
    uni_q = parse_goal("goal q := ∀ y: Int, ∃ z: Int, y ≤ z")
    asc_q = parse_goal("goal q := forall y: Int, exists z: Int, y <= z")
    assert uni_q == asc_q


def test_comments_and_blank_lines_ignored():
    decls = parse_goal_file(
        """
        # leading comment
        goal a (x: Int) := x = x  # trailing comment

        # another
        goal b := true
        """
    )
    assert [d.name for d in decls] == ["a", "b"]


def test_comparison_sugar_desugars():
    g = parse_goal("goal s (x: Int) := x > 0 /\\ x >= 0 /\\ x != 1")
    gt, rest = g.body.left, g.body.right
    ge, ne = rest.left, rest.right
    assert gt == Lt(IntLit(0), Var("x"))
    assert ge == Le(IntLit(0), Var("x"))
    assert ne == Not(Eq(Var("x"), IntLit(1)))


def test_negative_literal_parses():
    g = parse_goal("goal n := -3 < -1")
    assert g.body == Lt(IntLit(-3), IntLit(-1))


def test_implication_is_right_associative():
    g = parse_goal("goal r (x: Int) := x = x -> x = x -> x = x")
    assert g.body.right.__class__.__name__ == "Implies"


def test_and_binds_tighter_than_or_and_implies():
    g = parse_goal("goal p := true /\\ false \\/ true -> false")
    # ((true /\ false) \/ true) -> false
    assert g.body.__class__.__name__ == "Implies"
    assert g.body.left.__class__.__name__ == "Or"
    assert g.body.left.left.__class__.__name__ == "And"


# ---------------------------------------------------------------------------
# Parse errors


@pytest.mark.parametrize(
    "source",
    [
        "goal e (x: Bool) := x = x",  # unknown sort
        "goal e (x: Int) := y = 0",  # unbound variable
        "goal e (x: Int) (x: Int) := x = x",  # duplicate binder
        "goal e (x: Int) := x = [1]",  # comparison across sorts
        "goal e (l: IntList) := l :: l = l",  # cons head must be Int
        "goal e (x: Int) := x +",  # dangling operator
        "goal e (x: Int) := (x = x",  # unclosed paren
        "goal e := iff x then 1 else 2",  # stray identifier
        "goal e (x: Int) := len(x) = 0",  # len of a non-list
    ],
)
def test_parse_errors_raise(source):
    with pytest.raises(ParseError):
        parse_goal(source)


def test_parse_error_carries_position():
    try:
        parse_goal("goal e (x: Int) :=\n  x = zz")
    except ParseError as exc:
        assert exc.line == 2
        assert exc.column >= 6
    else:
        pytest.fail("expected a ParseError")


def test_duplicate_goal_names_rejected():
    with pytest.raises(ParseError):
        parse_goal_file("goal a := true\ngoal a := false")


def test_parse_goal_requires_exactly_one():
    with pytest.raises(ParseError):
        parse_goal("goal a := true\ngoal b := true")


# ---------------------------------------------------------------------------
# Operator footprint


@pytest.mark.parametrize(
    "source, expected",
    [
        ("goal f (x: Int) := x + 0 = x", 2),  # Add, Eq
        ("goal f (x: Int) := x = x", 1),  # Eq
        ("goal f := true", 0),  # literals weigh nothing
        ("goal f (x: Int) (l: IntList) := x in l -> count(l, x) >= 1", 4),  # Mem, Implies, Count, Le
        ("goal f (l: IntList) := len(l ++ l) = len(l) + len(l)", 6),  # 3 Len, Append, Add, Eq
        ("goal f := forall q: Int, q <= q", 2),  # Forall, Le
        ("goal f (x: Int) := !(x < x)", 2),  # Not, Lt
        ("goal f (x: Int) := (if x < 0 then 0 - x else x) >= 0", 4),  # ITE, Lt, Sub, Le
        ("goal f (x: Int) := [1, 2, 3] = [3, 2, 1]", 1),  # list literals weigh nothing
        ("goal f (x: Int) := x :: [] = x :: []", 3),  # 2 Cons, Eq
    ],
)
def test_footprint_hand_counts(source, expected):
    assert operator_footprint(parse_goal(source)) == expected


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=10**9))
def test_footprint_additive_over_connectives(seed_a, seed_b):
    a = random_goal(seed_a, "a").body
    b = random_goal(seed_b, "b").body
    assert formula_footprint(And(a, b)) == 1 + formula_footprint(a) + formula_footprint(b)
    assert formula_footprint(Not(a)) == 1 + formula_footprint(a)
    assert formula_footprint(Forall("fresh", Sort.INT, a)) == 1 + formula_footprint(a)


# Renaming targets: fresh names, the corpus's other binders (so swaps occur)
# and its inner quantifier names (so a naive rename would be captured).
_RENAME_TARGETS = ("x", "y", "l", "q", "w", "q2", "w2", "x_r", "y_r", "l_r")


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.permutations(_RENAME_TARGETS))
def test_footprint_invariant_under_renaming(seed, targets):
    goal = random_goal(seed, "orig")
    mapping = {name: new for (name, _), new in zip(goal.binders, targets)}
    renamed = GoalDecl(
        name="renamed",
        binders=tuple((mapping[n], s) for n, s in goal.binders),
        body=rename_free(goal.body, mapping),
    )
    assert operator_footprint(renamed) == operator_footprint(goal)
    assert alpha_equivalent(goal, renamed)
    assert statement_key(goal) == statement_key(renamed)


def test_footprint_zero_for_literal_only_goal():
    goal = parse_goal("goal z := true")
    assert operator_footprint(goal) == 0


# ---------------------------------------------------------------------------
# Alpha equivalence and statement keys


def test_statement_key_ignores_goal_name():
    a = parse_goal("goal first (x: Int) := x = x")
    b = parse_goal("goal second (x: Int) := x = x")
    assert statement_key(a) == statement_key(b)


def test_statement_key_distinguishes_binder_sorts():
    a = parse_goal("goal g (x: Int) := x = x")
    b = parse_goal("goal g (l: IntList) := l = l")
    assert statement_key(a) != statement_key(b)


def test_statement_key_separates_binders_below_a_shadowing_one():
    # The inner w shadows the outer binder; v must still get its own label.
    a = parse_goal("goal g (w: Int) := exists w: Int, exists v: Int, v <= w")
    b = parse_goal("goal g (w: Int) := exists w: Int, exists v: Int, v <= v")
    assert not alpha_equivalent(a, b)


def test_alpha_equivalence_respects_bound_structure():
    a = parse_goal("goal g := forall y: Int, y <= y")
    b = parse_goal("goal g := forall z: Int, z <= z")
    c = parse_goal("goal g := forall z: Int, z < z")
    assert alpha_equivalent(a, b)
    assert not alpha_equivalent(a, c)


def test_free_vars_sees_through_shadowing():
    g = parse_goal("goal g (x: Int) := forall x: Int, x = x")
    assert free_vars(g.body) == set()
    h = parse_goal("goal h (x: Int) := x = 0 /\\ (forall x: Int, x = x)")
    assert free_vars(h.body) == {"x"}


# ---------------------------------------------------------------------------
# Printer details


def test_printer_parenthesizes_mixed_precedence():
    source = "goal p (x: Int) := (x + 1) * 2 = 2 * x + 2"
    printed = print_goal(parse_goal(source))
    assert "(x + 1) * 2" in printed
    assert parse_goal(printed) == parse_goal(source)


def test_printer_not_always_parenthesizes():
    printed = print_goal(parse_goal("goal p (x: Int) := !(x = x)"))
    assert "!(x = x)" in printed


def test_printer_renders_list_literals():
    printed = print_goal(parse_goal("goal p := [1, 2] = 1 :: 2 :: []"))
    assert "[1, 2]" in printed
