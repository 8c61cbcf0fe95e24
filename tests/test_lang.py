"""Parser, printer, and structural-measure tests for the goal language."""

import hashlib
import pickle
import random
import re
from dataclasses import dataclass, replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import provekit.lang
import provekit.lang.ast as ast_mod
import provekit.prover
from provekit.errors import EvalError, ParseError
from provekit.evaluator import _BUILDERS, Domain, eval_formula
from provekit.lang import (
    Add,
    And,
    Cons,
    Eq,
    Exists,
    Forall,
    Formula,
    GoalDecl,
    IfThenElse,
    Implies,
    IntLit,
    Le,
    Length,
    ListLit,
    Lt,
    Not,
    Or,
    Sort,
    Sub,
    Term,
    Var,
    format_formula,
    formula_footprint,
    free_vars,
    parse_goal,
    parse_goal_file,
    print_goal,
    rename_free,
    statement_key,
    substitute,
    tokenize,
)
from provekit.lang.ast import _PROP, _SIGNATURES, CHILDREN, MAX_DEPTH, OPERATORS
from provekit.lang.parser import _INFIX, _scan

from corpus import (
    SOUP_HEADS,
    SOUP_TOKENS,
    UNICODE_DIGITS,
    random_formula,
    random_goal,
    random_int_term,
    random_list_term,
    token_soup,
    wide_conjunction_goal,
)


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


BAD_SOURCES = [
    "goal e (x: Bool) := x = x",  # unknown sort
    "goal e (x: Int) := y = 0",  # unbound variable
    "goal e (x: Int) (x: Int) := x = x",  # duplicate binder
    "goal e (x: Int) := x = [1]",  # comparison across sorts
    "goal e (l: IntList) := l :: l = l",  # cons head must be Int
    "goal e (x: Int) := x +",  # dangling operator
    "goal e (x: Int) := (x = x",  # unclosed paren
    "goal e := iff x then 1 else 2",  # stray identifier
    "goal e (x: Int) := len(x) = 0",  # len of a non-list
    "goal e (x: Int) := x = x = x",  # comparisons do not chain
    "goal e (x: Int) := (x < x <= x)",
    "goal e (l: IntList) := 0 in l in l",
]


# Nesting far past the parser's bound of twice lang.ast.MAX_DEPTH, and past
# the interpreter's recursion limit too (each level is a few frames).
DEEP_SOURCES = [
    pytest.param("goal a := " + "(" * 1000 + "0 = 0" + ")" * 1000, id="nested_parens"),
    pytest.param("goal a := " + r" /\ ".join(["0 = 0"] * 1000), id="conjunct_chain"),
    pytest.param("goal a := " + "!(" * 500 + "0 = 0" + ")" * 500, id="nested_negations"),
]


@pytest.mark.parametrize("source", BAD_SOURCES + DEEP_SOURCES)
def test_parse_errors_raise(source):
    with pytest.raises(ParseError):
        parse_goal(source)


def _depth(node) -> int:
    return 1 + max(map(_depth, CHILDREN[type(node)](node)), default=0)


_X, _L = Var("x"), Var("l")


def _nots(depth):
    return _X_EQ if depth == 2 else Not(_nots(depth - 1))


def _right(cls):
    def term(depth):
        return _X if depth == 1 else cls(_X, term(depth - 1))

    return lambda depth: Eq(_X, term(depth - 1))


def _left(cls):
    def term(depth):
        return _X if depth == 1 else cls(term(depth - 1), _X)

    return lambda depth: Eq(term(depth - 1), _X)


def _right_implies(depth):
    return _X_EQ if depth == 2 else Implies(_X_EQ, _right_implies(depth - 1))


def _left_and(depth):
    return _X_EQ if depth == 2 else And(_left_and(depth - 1), _X_EQ)


def _quantified(depth):
    # An operator over a quantifier over an operator, and so on.
    if depth <= 3:
        return _X_EQ if depth == 2 else Not(_X_EQ)
    return And(_X_EQ, Forall("y", Sort.INT, _quantified(depth - 2)))


def _ifs(depth):
    def term(depth):
        if depth <= 2:
            return _X if depth == 1 else Add(_X, _X)
        return IfThenElse(Lt(_X, _X), _X, term(depth - 1))

    return Eq(term(depth - 1), _X)


def _lengths(depth):
    def int_term(depth):
        return _X if depth == 1 else Length(list_term(depth - 1))

    def list_term(depth):
        return _L if depth == 1 else Cons(int_term(depth - 1), _L)

    return Eq(int_term(depth - 1), _X)


_X_EQ = Eq(_X, _X)
# Bodies of exactly the given depth, one per way the printer nests text.
DEPTH_SHAPES = {
    "nested_not": _nots,
    "right_nested_sub": _right(Sub),
    "left_nested_sub": _left(Sub),
    "right_nested_implies": _right_implies,
    "left_nested_and": _left_and,
    "quantifier_under_operator": _quantified,
    "nested_if": _ifs,
    "nested_len_cons": _lengths,
}


@pytest.mark.parametrize("shape", DEPTH_SHAPES.values(), ids=DEPTH_SHAPES.keys())
def test_the_depth_cap_is_exact(shape):
    binders = (("x", Sort.INT), ("l", Sort.INT_LIST))
    at_cap = GoalDecl("d", binders, shape(MAX_DEPTH))
    assert _depth(at_cap.body) == MAX_DEPTH
    assert at_cap.sort_error is None
    assert roundtrip(at_cap) == at_cap
    over = GoalDecl("d", binders, shape(MAX_DEPTH + 1))
    assert _depth(over.body) == MAX_DEPTH + 1
    assert over.sort_error == f"nested more than {MAX_DEPTH} deep"
    with pytest.raises(ParseError, match="nested"):
        parse_goal(print_goal(over))


@pytest.mark.parametrize("digit", UNICODE_DIGITS)
def test_non_ascii_digits_are_parse_errors(digit):
    # Integer literals are ASCII digits: int() would take some of these and
    # raise a ValueError on the others.
    for source in (f"goal a := {digit} = 1", f"goal a := 1{digit} = 1", f"goal a := -{digit} = 1"):
        with pytest.raises(ParseError):
            parse_goal(source)


def test_overlong_integer_literal_is_a_parse_error():
    with pytest.raises(ParseError, match="too long"):
        parse_goal(f"goal a := {'9' * 5000} = 1")


@pytest.mark.parametrize(
    "source, operator",
    [
        ("goal e (l: IntList) := l < 3", "'<'"),
        ("goal e (x: Int) := x + (x = x) = x", "'+'"),
        ("goal e (x: Int) := len(x) = 0", "'len'"),
        ("goal e (x: Int) := (if x = x then x else [x]) = x", "'if'"),
        ("goal e (x: Int) := (x = x) = (x = x)", "'='"),
        ("goal e (x: Int) := !x", "'!'"),
        ("goal e (x: Int) := x + 1", "not a formula"),
    ],
)
def test_sort_errors_point_at_the_goal_name(source, operator):
    with pytest.raises(ParseError) as info:
        parse_goal_file("goal ok := true\n" + source)
    assert (info.value.line, info.value.column, info.value.length) == (2, 6, 1)
    assert operator in info.value.message


# ---------------------------------------------------------------------------
# The parser's sort check against the sort walk


def _size(node) -> int:
    return 1 + sum(map(_size, CHILDREN[type(node)](node)))


def _count_walks(monkeypatch) -> list:
    """The root of every sort walk from here on."""
    roots = []
    sort_of = ast_mod._sort_of

    def counting_sort_of(node, scope, depth):
        if depth == 1:
            roots.append(node)
        return sort_of(node, scope, depth)

    monkeypatch.setattr(ast_mod, "_sort_of", counting_sort_of)
    return roots


def _slots(node, parent=None, expects=None, path=()):
    """Every (path, parent class, sort the slot takes) of the tree, root
    first; the root has neither parent nor sort."""
    yield path, parent, expects
    kind = type(node)
    children = CHILDREN[kind](node)
    if children:  # a variable has no row
        params = (Sort.INT,) * len(children) if kind is ListLit else _SIGNATURES[kind][0]
        for i, (child, param) in enumerate(zip(children, params)):
            yield from _slots(child, kind, param, path + (i,))


def _replaced(node, path, new):
    if not path:
        return new
    kind = type(node)
    children = list(CHILDREN[kind](node))
    children[path[0]] = _replaced(children[path[0]], path[1:], new)
    if kind is ListLit:
        return ListLit(tuple(children))
    if kind is Forall or kind is Exists:
        return kind(node.binder, node.sort, *children)
    return kind(*children)


def _names(goal):
    """The goal's Int binders and IntList binders, as the corpus takes them."""
    return tuple(
        tuple(name for name, s in goal.binders if s is sort) for sort in (Sort.INT, Sort.INT_LIST)
    )


def _term(rng, goal, sort):
    make = random_int_term if sort is Sort.INT else random_list_term
    return make(rng, rng.randrange(3), *_names(goal))


def _operand(rng, goal):
    # A formula printed as an operand reads back only when its root is not
    # a negation: "!" takes a whole comparison after it.
    formula = random_formula(rng, rng.randrange(3), *_names(goal))
    while type(formula) is Not:
        formula = formula.child
    return formula


_TERM_SORTS = (Sort.INT, Sort.INT_LIST)
# Operators over terms, whose operands the printer parenthesizes by precedence.
_TERM_OPERATORS = {cls for _, cls, _, _ in OPERATORS} - {And, Or, Implies}

# Ways to make a corpus goal ill-sorted such that its printed text still
# reads back as the same tree: which slots may change, by parent class and
# the sort the slot takes, and what goes there.
_MUTATIONS = {
    "formula_in_a_term_slot": (
        lambda parent, sort: parent in _TERM_OPERATORS,
        lambda rng, goal, sort: _operand(rng, goal),
    ),
    "term_of_the_other_sort": (
        lambda parent, sort: sort in _TERM_SORTS,
        lambda rng, goal, sort: _term(rng, goal, Sort.INT_LIST if sort is Sort.INT else Sort.INT),
    ),
    "term_body": (
        lambda parent, sort: parent is None,
        lambda rng, goal, sort: _term(rng, goal, rng.choice(_TERM_SORTS)),
    ),
    "if_branches_of_two_sorts": (
        lambda parent, sort: True,
        lambda rng, goal, sort: IfThenElse(
            _operand(rng, goal), *(_term(rng, goal, s) for s in rng.sample(_TERM_SORTS, 2))
        ),
    ),
    "eq_over_two_formulas": (
        lambda parent, sort: parent is None or sort == _PROP,
        lambda rng, goal, sort: Eq(_operand(rng, goal), _operand(rng, goal)),
    ),
}


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.sampled_from(["none", *_MUTATIONS]))
def test_the_parser_and_the_sort_walk_agree(seed, mutation):
    # The parser clears a goal only where the walk would, and leaves every
    # message to the walk.
    rng = random.Random(seed)
    hand = random_goal(rng.randrange(10**9), "g", rng.choice((2, 3, 4)))
    if mutation != "none":
        where, what = _MUTATIONS[mutation]
        slots = [(path, sort) for path, parent, sort in _slots(hand.body) if where(parent, sort)]
        assume(slots)  # a body of equations alone has no Int or IntList slot
        path, sort = rng.choice(slots)
        hand = replace(hand, body=_replaced(hand.body, path, what(rng, hand, sort)))
    verdict = hand.sort_error
    assert (verdict is None) == (mutation == "none")
    try:
        parsed = parse_goal(print_goal(hand))
    except ParseError as exc:
        assert exc.message == verdict
        return
    assert parsed == hand and verdict is None
    assert parsed.sort_error is None and replace(parsed).sort_error is None


def _sum_text(binders: str, first: str, operands: int, comparison: str = "=") -> str:
    """A goal comparing ``first + x + ... + x`` (left-associated, of
    ``operands`` operands) with ``x``."""
    return f"goal c {binders} := " + " + ".join([first] + ["x"] * (operands - 1)) + f" {comparison} x"


_INT_X, _BOTH = "(x: Int)", "(x: Int) (l: IntList)"


@pytest.mark.parametrize(
    "text, nodes",
    [
        (_sum_text(_INT_X, "x", MAX_DEPTH // 2 - 1), MAX_DEPTH - 1),
        (_sum_text(_BOTH, "len(l)", MAX_DEPTH // 2 - 1), MAX_DEPTH),
        (_sum_text(_INT_X, "x", MAX_DEPTH // 2), MAX_DEPTH + 1),
        # "!=" builds two nodes, Not over Eq.
        (_sum_text(_BOTH, "len(l)", MAX_DEPTH // 2 - 1, "!="), MAX_DEPTH + 1),
    ],
    ids=["one_under", "at_the_count", "one_over", "not_equal_one_over"],
)
def test_the_walk_runs_only_past_max_depth_nodes(monkeypatch, text, nodes):
    walked = _count_walks(monkeypatch)
    goal = parse_goal(text)
    assert _size(goal.body) == nodes
    assert goal.sort_error is None
    assert walked == ([goal.body] if nodes > MAX_DEPTH else [])


@pytest.mark.parametrize(
    "text, error",
    [
        ("goal s (x: Int) := (forall x: IntList, len(x) >= 0) /\\ x + 1 = 1 + x", None),
        ("goal s (l: IntList) := (exists l: Int, l < 1) /\\ l = []", None),
        ("goal s (x: Int) := forall x: IntList, x + 1 = 1", "sort mismatch: '+' expects Int, got IntList"),
        ("goal s (l: IntList) := exists l: Int, len(l) = 0", "sort mismatch: 'len' expects IntList, got Int"),
    ],
)
def test_a_binder_shadowed_with_the_other_sort(text, error):
    # Inside the quantifier the name has the quantifier's sort, and after
    # it the goal binder's again.
    try:
        goal = parse_goal(text)
    except ParseError as exc:
        assert exc.message == error
        return
    assert error is None
    assert goal.sort_error is None and replace(goal).sort_error is None


def test_every_infix_spelling_carries_the_sort_rule_of_the_class_it_builds():
    built = {symbol: cls for symbol, cls, _, _ in OPERATORS} | {">": Lt, ">=": Le, "!=": Eq}
    assert _INFIX.keys() == built.keys()
    for symbol, (_, _, build, rule, size) in _INFIX.items():
        node = build(_X, _L)
        assert type(node.child if symbol == "!=" else node) is built[symbol]
        assert rule is _SIGNATURES[built[symbol]]
        assert _size(node) == size + 2


_soup = st.builds(
    lambda head, tokens, glue: head + glue.join(tokens),
    st.sampled_from(SOUP_HEADS),
    st.lists(st.sampled_from(SOUP_TOKENS + UNICODE_DIGITS), max_size=12),
    st.sampled_from(("", " ")),
)


_mutated = st.integers(0, 10**9).map(lambda seed: token_soup(seed, SOUP_TOKENS + UNICODE_DIGITS))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), _soup, _mutated))
def test_parse_accepts_or_raises_parse_error(text):
    # Nothing but a ParseError may escape, whatever a peer sends.
    try:
        goal = parse_goal(text)
    except ParseError:
        return
    assert isinstance(goal, GoalDecl)
    assert goal.sort_error is None
    assert roundtrip(goal) == goal


def _read(reader, text):
    try:
        return reader(text)
    except ParseError:
        return None


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.text(alphabet=" \t\r\n#x1_-=/\\∧٣@é"), _soup, _mutated))
def test_the_scan_and_the_positioned_reader_agree(text):
    # The parser reads kinds and texts from one scan and positions from a
    # second: both must see the same tokens, or both reject the text.
    scanned = _read(_scan, text)
    positioned = _read(tokenize, text)
    if scanned is None or positioned is None:
        assert scanned is positioned
        return
    assert list(zip(*scanned)) == [(tok.kind, tok.text) for tok in positioned]


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


def _pinned_texts() -> list[str]:
    texts = [print_goal(random_goal(s, f"g{s}", d)) for s in range(300) for d in (2, 3, 4)]
    texts += [print_goal(wide_conjunction_goal(f"w{i}", 6)) for i in range(10)]
    texts += HAND_SOURCES + BAD_SOURCES + [_EVERY_NODE]
    texts += [token_soup(s) for s in range(20_000)]
    return texts


def test_parse_behaviour_is_pinned():
    # Recorded before the recursive-descent parser was replaced by one
    # precedence-climbing loop: which texts parse, and to which trees and
    # goal spans, must stay exactly as they were.
    digest = hashlib.sha256()
    for text in _pinned_texts():
        try:
            outcome = repr(parse_goal(text))
        except ParseError:
            outcome = "ParseError"
        digest.update(outcome.encode() + b"\n")
    assert digest.hexdigest() == "ef08c468218726b6519e57d0d85a5d68551f0c204b2d758f8bb5535b30936186"


def _placed(text: str) -> tuple[str, ...]:
    """The text with CRLF line ends, after blank and comment lines, and
    before a trailing comment at end of input."""
    crlf = text.replace("\n", "\r\n")
    return (
        crlf,
        "\n# header\n\n  \t\n" + text,
        "\r\n\r\n# header\r\n   " + crlf,
        text + "  # trailing",
        text + "\n# last line",
    )


def test_parse_errors_are_pinned():
    # Recorded before the lexer was split into a scan without positions and
    # a positioned reader for errors: every error's message, line, column
    # and length must stay exactly as they were.
    texts = _pinned_texts()
    placed = BAD_SOURCES + HAND_SOURCES + [p.values[0] for p in DEEP_SOURCES]
    placed += [token_soup(s) for s in range(3000)]
    texts += [variant for text in placed for variant in _placed(text)]
    digest = hashlib.sha256()
    for text in texts:
        try:
            parse_goal(text)
            outcome = "ok"
        except ParseError as exc:
            outcome = repr((exc.message, exc.line, exc.column, exc.length))
        digest.update(outcome.encode() + b"\n")
    assert digest.hexdigest() == "2e3a91f736b83723ac15e63bca5dd559c5a3d815dff4c772cedc39c59ac0710d"


_SEPARATORS = ("\n", "\n\n", "\r\n", " ", "\n# comment\n", "  # trailing\n\n", "\n\t \n   ")


def test_goal_file_spans_are_pinned():
    # Recorded with the error pin above: files of several printed goals with
    # comments, blank lines, CRLF line ends, Unicode aliases and declarations
    # that share a line or span two must keep every tree and every goal span,
    # the spans on later lines included.
    digest = hashlib.sha256()
    for f in range(300):
        rng = random.Random(f)
        source = rng.choice(("", "# goals\n", "\n\n  "))
        for i in range(rng.randrange(1, 7)):
            text = print_goal(random_goal(rng.randrange(10**9), f"g{i}", rng.choice((2, 3, 4))))
            if rng.random() < 0.3:
                text = text.replace(" := ", " :=\n    ", 1)
            if rng.random() < 0.3:
                text = text.replace("/\\", "∧").replace("->", "→")
            source += text + rng.choice(_SEPARATORS)
        digest.update(repr(parse_goal_file(source)).encode() + b"\n")
    assert digest.hexdigest() == "20acce93e1b1d99332bf1c09484e3ff47f5835b4cc02f6e1b295385e697fcd98"


# ---------------------------------------------------------------------------
# Goal hashing


CORPUS_GOALS = [random_goal(s, f"g{s}", d) for s in range(100) for d in (2, 3, 4)] + [
    wide_conjunction_goal(f"w{n}", n) for n in (2, 6)
]


def test_goal_hash_is_the_dataclass_hash_before_and_after_the_cached_properties():
    for goal in CORPUS_GOALS:
        expected = hash((goal.name, goal.binders, goal.body))
        assert hash(goal) == expected
        assert goal.sort_error is None and goal.footprint >= 0
        assert hash(goal) == expected
        # A copy whose cached properties are read before its first hash.
        fresh = replace(goal)
        assert fresh.footprint == goal.footprint and fresh.sort_error is None
        assert hash(fresh) == expected


def test_goals_differing_only_in_span_hash_and_compare_equal():
    for goal in CORPUS_GOALS[:60]:
        parsed = parse_goal(print_goal(goal))
        assert parsed.span is not None and goal.span is None
        assert parsed == goal and hash(parsed) == hash(goal)
        assert len({goal, parsed, replace(parsed, span=None)}) == 1
    renamed = replace(CORPUS_GOALS[0], name="other")
    assert renamed != CORPUS_GOALS[0]


def test_a_pickled_goal_works_its_hash_out_again():
    goal = CORPUS_GOALS[5]
    hash(goal)
    copy = pickle.loads(pickle.dumps(goal))
    assert "_hash" not in copy.__dict__
    assert copy == goal and hash(copy) == hash(goal)


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
    assert parse_goal(source).footprint == expected


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
    assert renamed.footprint == goal.footprint
    assert statement_key(goal) == statement_key(renamed)


def test_footprint_zero_for_literal_only_goal():
    goal = parse_goal("goal z := true")
    assert goal.footprint == 0


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
    assert statement_key(a) != statement_key(b)


def test_alpha_equivalence_respects_bound_structure():
    a = parse_goal("goal g := forall y: Int, y <= y")
    b = parse_goal("goal g := forall z: Int, z <= z")
    c = parse_goal("goal g := forall z: Int, z < z")
    assert statement_key(a) == statement_key(b)
    assert statement_key(a) != statement_key(c)


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


# ---------------------------------------------------------------------------
# Traversals, pinned


def _traversal_record(goal: GoalDecl) -> tuple:
    body = goal.body
    names = [name for name, _ in goal.binders]
    quantified = re.search(r"(?:forall|exists) (\w+):", print_goal(goal))
    inner = quantified.group(1) if quantified else "q"
    substituted = swapped = None
    if names:
        substituted = tuple(
            print_goal(replace(goal, body=substitute(body, names[0], term)))
            for term in (IntLit(1), Var(inner))
        )
    if len(names) >= 2:
        swapped = print_goal(replace(goal, body=rename_free(body, {names[0]: names[1], names[1]: names[0]})))
    return (
        print_goal(goal),
        statement_key(goal),
        goal.footprint,
        sorted(free_vars(body)),
        substituted,
        swapped,
    )


def test_traversals_are_pinned():
    # Recorded before the per-class isinstance chains were replaced by the
    # node table: printing, canonical keys, footprints, free variables and
    # substitution (with replacements an inner quantifier would capture)
    # must stay exactly as they were.
    goals = [random_goal(s, f"g{s}", d) for s in range(300) for d in (2, 3, 4)]
    goals += [wide_conjunction_goal(f"w{i}", 6) for i in range(10)]
    digest = hashlib.sha256()
    for goal in goals:
        digest.update(repr(_traversal_record(goal)).encode())
    assert digest.hexdigest() == "7f52fcd382f2c19076814f9c2c7e3228781a48cdbc387958ff22107142b8719c"


# ---------------------------------------------------------------------------
# The node table


@dataclass(frozen=True)
class _Unregistered(Term):
    """A node class no table knows about."""

    arg: Term


# Every node class once: Add Sub Mul Mod Cons Append Length Count ListLit
# IfThenElse IntLit Var, Eq Lt Le Mem Not And Or Implies Forall Exists TrueF
# FalseF.
_EVERY_NODE = (
    "goal every (x: Int) (l: IntList) := forall q: Int, exists w: Int, "
    "!(x in x :: [1] ++ l) /\\ true \\/ false -> "
    "len(l) = count(l, x) * 2 - x % 3 + (if x < q then x else w) /\\ w <= q"
)


def _classes_in(node) -> set[type]:
    seen = {type(node)}
    for child in CHILDREN[type(node)](node):
        seen |= _classes_in(child)
    return seen


def test_every_node_class_is_in_every_table():
    classes = set(Term.__subclasses__()) | set(Formula.__subclasses__())
    classes.discard(_Unregistered)
    assert len(classes) == 24
    assert classes <= set(CHILDREN)
    assert classes <= set(_BUILDERS)
    assert classes - {Var} == set(_SIGNATURES)  # a variable's sort is its binder's
    # The printer dispatches in code, not through a dict: print a goal that
    # holds every class and read it back.
    goal = parse_goal(_EVERY_NODE)
    assert _classes_in(goal.body) == classes
    assert goal.sort_error is None
    assert parse_goal(print_goal(goal)) == goal


def test_unregistered_node_class_is_rejected_by_every_walk():
    # An unknown node skipped as a leaf would hide the variables below it,
    # and the and-intro check would pass a lemma with an unbound name.
    body = Eq(_Unregistered(Var("x")), IntLit(0))
    goal = GoalDecl("stray", (("x", Sort.INT),), body)
    for walk in (
        formula_footprint,
        free_vars,
        lambda f: substitute(f, "x", IntLit(1)),
        lambda f: rename_free(f, {"x": "y"}),
        lambda f: statement_key(replace(goal, body=f)),
        lambda f: replace(goal, body=f).sort_error,
        format_formula,
    ):
        with pytest.raises(TypeError):
            walk(body)
    with pytest.raises(EvalError):
        eval_formula(body, {"x": 0}, Domain())


def test_every_exported_name_resolves():
    for module in (provekit.lang, provekit.prover):
        assert [name for name in module.__all__ if not hasattr(module, name)] == []
