"""Seeded random goal generation for soundness and scaling tests.

This generator is deliberately test-side code: it builds AST nodes directly
so the goals it produces do not depend on the parser working, and the mix of
valid and refutable statements is controlled only by the seed.  Garbage
goal texts and forged JSON documents feed the readers' fuzz tests.
"""

from __future__ import annotations

import copy
import random
import re

from provekit.lang import (
    Add,
    And,
    Append,
    Cons,
    Count,
    Eq,
    Exists,
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
    Not,
    Or,
    Implies,
    Sort,
    Sub,
    Term,
    Var,
    print_goal,
)

INT_SCOPE = ("x", "y")
LIST_SCOPE = ("l",)


def random_int_term(
    rng: random.Random, depth: int, scope: tuple[str, ...], lists: tuple[str, ...]
) -> Term:
    if depth <= 0 or rng.random() < 0.4:
        if scope and rng.random() < 0.6:
            return Var(rng.choice(scope))
        return IntLit(rng.randint(-3, 3))
    pick = rng.randrange(6)
    if pick == 0:
        return Add(
            random_int_term(rng, depth - 1, scope, lists),
            random_int_term(rng, depth - 1, scope, lists),
        )
    if pick == 1:
        return Sub(
            random_int_term(rng, depth - 1, scope, lists),
            random_int_term(rng, depth - 1, scope, lists),
        )
    if pick == 2:
        return Mul(
            random_int_term(rng, depth - 1, scope, lists),
            random_int_term(rng, depth - 1, scope, lists),
        )
    if pick == 3:
        # Keep the divisor a nonzero literal most of the time but leave the
        # zero case reachable: erroring goals are part of the contract.
        divisor = IntLit(rng.choice([-3, -2, 2, 3, 0]))
        return Mod(random_int_term(rng, depth - 1, scope, lists), divisor)
    if pick == 4:
        return Length(random_list_term(rng, depth - 1, scope, lists))
    return Count(
        random_list_term(rng, depth - 1, scope, lists),
        random_int_term(rng, depth - 1, scope, lists),
    )


def random_list_term(
    rng: random.Random, depth: int, scope: tuple[str, ...], lists: tuple[str, ...]
) -> Term:
    if depth <= 0 or rng.random() < 0.5:
        if lists and rng.random() < 0.7:
            return Var(rng.choice(lists))
        return ListLit(tuple(IntLit(rng.randint(-1, 1)) for _ in range(rng.randrange(3))))
    if rng.random() < 0.5:
        return Cons(
            random_int_term(rng, depth - 1, scope, lists),
            random_list_term(rng, depth - 1, scope, lists),
        )
    return Append(
        random_list_term(rng, depth - 1, scope, lists),
        random_list_term(rng, depth - 1, scope, lists),
    )


def random_formula(
    rng: random.Random, depth: int, scope: tuple[str, ...], lists: tuple[str, ...]
) -> Formula:
    if depth <= 0:
        kind = rng.randrange(4)
        if kind == 0:
            return Eq(random_int_term(rng, 0, scope, lists), random_int_term(rng, 0, scope, lists))
        if kind == 1:
            return Le(random_int_term(rng, 0, scope, lists), random_int_term(rng, 0, scope, lists))
        if kind == 2:
            return Lt(random_int_term(rng, 0, scope, lists), random_int_term(rng, 0, scope, lists))
        return Mem(random_int_term(rng, 0, scope, lists), random_list_term(rng, 0, scope, lists))
    pick = rng.randrange(10)
    if pick == 0:
        return Not(random_formula(rng, depth - 1, scope, lists))
    if pick == 1:
        return And(
            random_formula(rng, depth - 1, scope, lists),
            random_formula(rng, depth - 1, scope, lists),
        )
    if pick == 2:
        return Or(
            random_formula(rng, depth - 1, scope, lists),
            random_formula(rng, depth - 1, scope, lists),
        )
    if pick == 3:
        return Implies(
            random_formula(rng, depth - 1, scope, lists),
            random_formula(rng, depth - 1, scope, lists),
        )
    if pick == 4:
        inner = "q" if "q" not in scope else "q2"
        return Forall(inner, Sort.INT, random_formula(rng, depth - 1, scope + (inner,), lists))
    if pick == 5:
        inner = "w" if "w" not in scope else "w2"
        return Exists(inner, Sort.INT, random_formula(rng, depth - 1, scope + (inner,), lists))
    if pick == 6:
        return Eq(
            random_int_term(rng, depth - 1, scope, lists),
            random_int_term(rng, depth - 1, scope, lists),
        )
    if pick == 7:
        return Le(
            random_int_term(rng, depth - 1, scope, lists),
            random_int_term(rng, depth - 1, scope, lists),
        )
    if pick == 8:
        return Mem(
            random_int_term(rng, depth - 1, scope, lists),
            random_list_term(rng, depth - 1, scope, lists),
        )
    return ite_comparison(rng, depth, scope, lists)


def ite_comparison(
    rng: random.Random, depth: int, scope: tuple[str, ...], lists: tuple[str, ...]
) -> Formula:
    term = IfThenElse(
        random_formula(rng, depth - 1, scope, lists),
        random_int_term(rng, depth - 1, scope, lists),
        random_int_term(rng, depth - 1, scope, lists),
    )
    return Le(term, random_int_term(rng, depth - 1, scope, lists))


def random_goal(seed: int, name: str, depth: int = 3) -> GoalDecl:
    rng = random.Random(seed)
    binders = []
    if rng.random() < 0.9:
        binders.append(("x", Sort.INT))
    if rng.random() < 0.4:
        binders.append(("y", Sort.INT))
    if rng.random() < 0.7:
        binders.append(("l", Sort.INT_LIST))
    scope = tuple(n for n, s in binders if s is Sort.INT)
    lists = tuple(n for n, s in binders if s is Sort.INT_LIST)
    body = random_formula(rng, depth, scope, lists)
    return GoalDecl(name=name, binders=tuple(binders), body=body)


def conjunction_chain(atoms: list[Formula]) -> Formula:
    """Right-associated conjunction, matching the concrete syntax."""
    out = atoms[-1]
    for atom in reversed(atoms[:-1]):
        out = And(atom, out)
    return out


def wide_conjunction_goal(name: str, n: int) -> GoalDecl:
    """n independent, individually trivial atoms over n distinct binders.

    Each atom is x_i + 0 = x_i (footprint 2), so deciding one atom touches
    a 1-binder space while deciding the whole body walks the full n-ary
    product; that gap is what separates flat from hierarchical search.
    """
    assert n >= 1
    binders = tuple((f"x{i}", Sort.INT) for i in range(1, n + 1))
    atoms: list[Formula] = [
        Eq(Add(Var(f"x{i}"), IntLit(0)), Var(f"x{i}")) for i in range(1, n + 1)
    ]
    return GoalDecl(name=name, binders=binders, body=conjunction_chain(atoms))


# ---------------------------------------------------------------------------
# Token soup: near-miss and garbage goal texts for parser properties

SOUP_HEADS = (
    "goal g := ",
    "goal g (x: Int) := ",
    "goal g (x: Int) (l: IntList) := ",
    "goal g (x: Int) (y: Int) (l: IntList) := ",
    "goal g (x: Int) (x: Int) := ",
    "goal g (b: Bool) := ",
    "goal ",
    "",
)

SOUP_TOKENS = (
    "x", "y", "l", "q", "zz", "0", "1", "23", "-", "-1", "+", "*", "%", "::", "++",
    "=", "<", "<=", ">", ">=", "!=", "in", "/\\", "\\/", "->", "!", "(", ")", "(", ")",
    "[", "]", ",", "len(", "count(", "if", "then", "else", "true", "false",
    "forall q: Int,", "exists q: IntList,", "forall", ":", "Int", "IntList", ":=",
    "∀ q: Int,", "∃ w: Int,", "∧", "∨", "→", "⇒", "¬", "∈", "≤", "≥", "≠",
    "goal", "# note", "\n", "@",
)

# Digits outside ASCII: decimal ones int() would accept, and superscript or
# circled ones it would not.
UNICODE_DIGITS = ("٣", "１", "𝟘", "²", "①", "½")

_PIECES = re.compile(r"(\s+|[()\[\],])")


def _mutate(rng: random.Random, text: str, tokens: tuple[str, ...]) -> str:
    pieces = [p for p in _PIECES.split(text) if p]
    for _ in range(rng.randrange(1, 4)):
        i = rng.randrange(len(pieces))
        move = rng.randrange(5)
        if move == 0:
            del pieces[i]
        elif move == 1:
            pieces.insert(i, rng.choice(tokens))
        elif move == 2:
            pieces[i] = rng.choice(tokens)
        elif move == 3 and i + 1 < len(pieces):
            pieces[i], pieces[i + 1] = pieces[i + 1], pieces[i]
        else:
            pieces = [p for p in pieces if p not in "()"] or pieces
        if not pieces:
            break
    return "".join(pieces)


def token_soup(seed: int, tokens: tuple[str, ...] = SOUP_TOKENS) -> str:
    """A seeded goal text: a random run of tokens after a goal head, or a
    printed corpus goal whose body has a few tokens dropped, added,
    replaced or swapped, or its parentheses stripped."""
    rng = random.Random(seed)
    if rng.random() < 0.3:
        parts = [rng.choice(SOUP_HEADS)]
        for _ in range(rng.randrange(1, 9)):
            parts.append(rng.choice(tokens))
            parts.append(rng.choice((" ", " ", "")))
        return "".join(parts)
    goal = random_goal(rng.getrandbits(32), "g", rng.randrange(1, 4))
    head, body = print_goal(goal).split(" := ")
    return f"{head} := {_mutate(rng, body, tokens)}"


# ---------------------------------------------------------------------------
# Forged JSON: a document read from a file with one key set to anything

# Strings a forged value may hold: some name an event type or an outcome.
_FORGED_TEXTS = ("", "x", "é", "config", "run_end", "decompose_attempt", "proved", "completion")


def json_value(rng: random.Random, depth: int = 2):
    """A random JSON value: a scalar of each JSON type, or an array or an
    object of such values nested up to ``depth``.  Integers come from a
    small range: a forged budget of 10**12 is valid JSON that only makes a
    report loop for a long time."""
    kind = rng.randrange(7 if depth > 0 else 5)
    if kind == 0:
        return None
    if kind == 1:
        return rng.random() < 0.5
    if kind == 2:
        return rng.randint(-3, 40)
    if kind == 3:
        return rng.choice((0.0, 2.5, -1e308, float("inf"), float("nan"), rng.uniform(-9, 9)))
    if kind == 4:
        return rng.choice(_FORGED_TEXTS)
    items = [json_value(rng, depth - 1) for _ in range(rng.randrange(4))]
    if kind == 5:
        return items
    return {rng.choice(_FORGED_TEXTS): item for item in items}


def _key_paths(value, path: tuple = ()) -> list[tuple]:
    """The path to each key of each object within ``value``, at any depth,
    through objects and arrays alike."""
    paths = []
    if isinstance(value, dict):
        for key, item in value.items():
            paths.append((*path, key))
            paths.extend(_key_paths(item, (*path, key)))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            paths.extend(_key_paths(item, (*path, index)))
    return paths


def forged_json(seed: int, document):
    """A copy of ``document`` in which one key, of any object at any depth
    within it, holds a seeded ``json_value``."""
    rng = random.Random(seed)
    *parents, last = rng.choice(_key_paths(document))
    forged = copy.deepcopy(document)
    target = forged
    for step in parents:
        target = target[step]
    target[last] = json_value(rng)
    return forged
