"""Seeded goal streams for the benchmark workloads.

Goals come from the test-side corpus generator (``tests/corpus.py``, which
must be importable).  A change to that generator changes the seed-0 outcome
counts and trace digests recorded in ``expected.json``, so it cannot pass
unnoticed.  Goals are built as syntax trees and handed to the program as
printed goal text only.

Every workload draws its random goals through a static cost filter: the
number of syntax nodes one evaluation can visit, with each quantifier
multiplying its body by the size of its carrier.  The filter is a property of
the goal text alone, computed here without calling the program.  It keeps
the per-goal cost distribution light-tailed enough that a run of a few dozen
seconds measures the same thing whatever the seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Iterator

from corpus import random_goal, wide_conjunction_goal
from provekit.evaluator import Domain
from provekit.lang import Exists, Forall, Formula, GoalDecl, Term, print_goal
from provekit.search import mix_seed


# --- static cost estimate ------------------------------------------------------


def eval_size(node, domain: Domain) -> int:
    """Syntax nodes one evaluation visits at most: every node once, and a
    quantifier's body once per value of its carrier."""
    if isinstance(node, (Forall, Exists)):
        return 1 + domain.value_count(node.sort) * eval_size(node.body, domain)
    size = 1
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if isinstance(value, tuple):
            size += sum(eval_size(v, domain) for v in value if isinstance(v, (Term, Formula)))
        elif isinstance(value, (Term, Formula)):
            size += eval_size(value, domain)
    return size


def decide_size(goal: GoalDecl, domain: Domain) -> int:
    """Syntax nodes an exhaustive decision visits at most."""
    points = 1
    for _, sort in goal.binders:
        points *= domain.value_count(sort)
    return points * eval_size(goal.body, domain)


# --- streams -------------------------------------------------------------------


@dataclass(frozen=True)
class Goal:
    """One generated goal: the text the program receives, the search seed a
    pass@k run of it uses, and the tree it was printed from, which only the
    benchmark's checks use."""

    name: str
    text: str
    seed: int
    tree: GoalDecl


def _draw_seed(tag: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{tag}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def as_goal(tree: GoalDecl, master_seed: int) -> Goal:
    """The goal with search seed ``mix_seed(master_seed, name)``, as
    ``provekit run`` derives it."""
    return Goal(tree.name, print_goal(tree), mix_seed(master_seed, tree.name), tree)


def filtered_random_goals(
    tag: str, seed: int, depths: tuple[int, ...], keep
) -> Iterator[Goal]:
    """Endless random goals; candidate i has depth ``depths[i % len]`` and is
    kept when ``keep(tree)`` holds."""
    index = 0
    while True:
        tree = random_goal(_draw_seed(tag, seed, index), f"g{index}", depths[index % len(depths)])
        index += 1
        if keep(tree):
            yield as_goal(tree, seed)


def mixed_stream(
    tag: str, seed: int, depth: int, wide: int, keep, wide_seed: int, ratio: tuple[int, int]
) -> Iterator[Goal]:
    """Blocks of ``ratio[0]`` filtered random goals followed by ``ratio[1]``
    wide conjunctions.  The wide conjunctions take their search seeds from
    ``wide_seed``."""
    randoms = filtered_random_goals(tag, seed, (depth,), keep)
    wides = 0
    while True:
        for _ in range(ratio[0]):
            yield next(randoms)
        for _ in range(ratio[1]):
            yield as_goal(wide_conjunction_goal(f"w{wides}", wide), wide_seed)
            wides += 1
