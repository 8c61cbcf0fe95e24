"""Randomized counterexample search over generated binder assignments.

Generation is uniform and fully seeded: each call derives its own generator
state from (seed, goal name), so outcomes are reproducible and independent
of call order.  Values are drawn by rejection on ``getrandbits``, which
yields exactly the stream ``random.randint`` would give from the same state,
without its per-call argument checks.  One closure draws a whole trial, each
binder's rejection loop in line and with no call per value.  A reported
witness is always re-verified by evaluation before being returned; there is
no shrinking.

Quickcheck keeps no state between calls.  The search's gate settles a
statement it keeps seeing under new names from two pure rules here:
``holds_everywhere`` says whether every top-level conjunct holds without
error at every point of the sampled space of its own free binders, within
a step bound that keeps every whole trial inside the node budget, so that
every trial of every call would pass; ``enumeration_cost`` says how many
points that takes.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from .errors import BudgetExceeded, ContractViolation, EvalError
from .evaluator import Budget, Domain, Env, FormulaFn, compile_formula
from .lang.ast import Formula, GoalDecl, Sort, conjunct_fringe, free_vars


@dataclass(frozen=True)
class QcConfig:
    trials: int = 1000
    seed: int = 0
    gen_int_lo: int = -100
    gen_int_hi: int = 100
    gen_max_list_len: int = 8
    # List elements default to the integer range; set these when the element
    # carrier is narrower than the integer one (they must then match the
    # domain the results will be compared against).
    gen_elem_lo: int | None = None
    gen_elem_hi: int | None = None

    def __post_init__(self) -> None:
        if self.trials <= 0:
            raise ContractViolation("trials must be positive")
        if self.gen_int_lo > self.gen_int_hi:
            raise ContractViolation("empty generator integer range")
        if self.gen_max_list_len < 0:
            raise ContractViolation("gen_max_list_len must be >= 0")
        if self.elem_lo > self.elem_hi:
            raise ContractViolation("empty generator element range")

    @property
    def elem_lo(self) -> int:
        return self.gen_int_lo if self.gen_elem_lo is None else self.gen_elem_lo

    @property
    def elem_hi(self) -> int:
        return self.gen_int_hi if self.gen_elem_hi is None else self.gen_elem_hi


@dataclass(frozen=True)
class NoCounterexample:
    trials_run: int


@dataclass(frozen=True)
class Counterexample:
    witness: Env
    trial_index: int  # 1-based


QcOutcome = NoCounterexample | Counterexample


def mix_seed(seed: int, tag: str) -> int:
    """Derive a sub-seed from a master seed and a text tag.

    Runs over different problems must not share their random streams even
    when launched with one master seed, so the tag (normally the goal name)
    is hashed into the seed.
    """
    digest = hashlib.sha256(f"{seed}:{tag}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def derive_rng(seed: int, goal_name: str) -> random.Random:
    """Generator state owned by one quickcheck call, stable across runs."""
    return random.Random(mix_seed(seed, goal_name))


def env_sampler(
    binders: tuple[tuple[str, Sort], ...], config: QcConfig, rng: random.Random
) -> Callable[[], Env]:
    """Return a function that draws one assignment per call; identical
    generator state gives an identical sequence of environments.

    Each value equals what ``rng.randint`` would return at that point of the
    stream: ``randint(lo, hi)`` is ``lo + r`` for the first
    ``getrandbits(n.bit_length())`` draw ``r`` below ``n = hi - lo + 1``.
    Every binder's rejection loop runs in line, with no call per value.
    """
    getrandbits = rng.getrandbits
    int_lo, int_n = config.gen_int_lo, config.gen_int_hi - config.gen_int_lo + 1
    int_k = int_n.bit_length()
    len_n = config.gen_max_list_len + 1
    len_k = len_n.bit_length()
    elem_lo, elem_n = config.elem_lo, config.elem_hi - config.elem_lo + 1
    elem_k = elem_n.bit_length()
    plan = [(name, sort is Sort.INT) for name, sort in binders]

    def draw() -> Env:
        env: Env = {}
        for name, is_int in plan:
            if is_int:
                r = getrandbits(int_k)
                while r >= int_n:
                    r = getrandbits(int_k)
                env[name] = int_lo + r
            else:
                # The length is drawn first, then the elements in order.
                left = getrandbits(len_k)
                while left >= len_n:
                    left = getrandbits(len_k)
                elems = []
                while left:
                    r = getrandbits(elem_k)
                    while r >= elem_n:
                        r = getrandbits(elem_k)
                    elems.append(elem_lo + r)
                    left -= 1
                env[name] = tuple(elems)
        return env

    return draw


# A trial under a fresh budget: whether the assignment falsifies the
# formula.  ``BudgetExceeded`` escapes it and ends the call.
Trial = Callable[[FormulaFn, Env], bool]


def _trials(domain: Domain) -> tuple[Budget, Trial]:
    """A budget to compile against, and the trial that refills it."""
    budget = Budget(domain.node_budget)

    def trial(holds_at: FormulaFn, env: Env) -> bool:
        """An evaluation error counts as falsifying the assignment."""
        budget.remaining = domain.node_budget
        try:
            return not holds_at(env)
        except EvalError:
            return True

    return budget, trial


def _sampled_space(config: QcConfig) -> Domain:
    """The values the sampler draws, as a domain over which to enumerate."""
    return Domain(
        int_lo=config.gen_int_lo,
        int_hi=config.gen_int_hi,
        max_list_len=config.gen_max_list_len,
        elem_lo=config.elem_lo,
        elem_hi=config.elem_hi,
    )


def _conjunct_spaces(goal: GoalDecl) -> list[tuple[Formula, tuple[tuple[str, Sort], ...]]]:
    """Each top-level conjunct with the binders among its free variables.
    A free variable that is no binder is left unbound, as in a trial."""
    sorts = dict(goal.binders)  # a repeated name keeps its last sort, as a drawn env does
    return [
        (conjunct, tuple((name, sorts[name]) for name in sorted(free_vars(conjunct) & sorts.keys())))
        for conjunct in conjunct_fringe(goal.body)
    ]


def _points(space: Domain, binders: tuple[tuple[str, Sort], ...]) -> Iterator[Env]:
    """Every assignment of ``binders`` over ``space``, the last binder
    varying fastest.  Values are made as they are reached and no carrier is
    held whole, so memory stays small whatever the space's size."""
    if not binders:
        yield {}
        return
    (name, sort), rest = binders[0], binders[1:]
    for value in space.iter_values(sort):
        for env in _points(space, rest):
            yield {name: value, **env}


def enumeration_cost(goal: GoalDecl, config: QcConfig) -> int:
    """Points ``holds_everywhere`` evaluates: the sum of the sizes of the
    conjuncts' sampled spaces."""
    space = _sampled_space(config)
    return sum(
        math.prod(space.value_count(sort) for _, sort in binders)
        for _, binders in _conjunct_spaces(goal)
    )


def holds_everywhere(goal: GoalDecl, config: QcConfig, domain: Domain) -> bool:
    """Whether every trial of ``goal`` passes whatever the sampler draws,
    so that ``quickcheck`` returns ``NoCounterexample(config.trials)``
    under any name and seed.

    Each top-level conjunct must hold, without error, at every point of
    the sampled space of its own free binders.  A trial then evaluates
    every conjunct and each ``And`` above them once, so it visits at most
    ``(conjuncts - 1) + sum of each conjunct's most steps`` nodes, which
    must fit in the node budget.
    """
    space = _sampled_space(config)
    budget, trial = _trials(domain)
    spaces = _conjunct_spaces(goal)
    bound = len(spaces) - 1
    for conjunct, binders in spaces:
        holds_at = compile_formula(conjunct, domain, budget)
        most = 0
        for env in _points(space, binders):
            try:
                if trial(holds_at, env):
                    return False
            except BudgetExceeded:
                return False
            most = max(most, domain.node_budget - budget.remaining)
        bound += most
        if bound > domain.node_budget:
            return False
    return True


def quickcheck(goal: GoalDecl, config: QcConfig, domain: Domain) -> QcOutcome:
    """Run up to ``config.trials`` sampled assignments against the goal body.

    Inner quantifiers still range over ``domain``; only the outer binders are
    sampled.  The body is compiled once per call and each trial gets a fresh
    node budget.  The first falsifying assignment is re-verified and returned
    with its 1-based trial index.  A trial that runs out of budget falsifies
    nothing: the search stops there and reports the trials finished before.
    """
    budget, trial = _trials(domain)
    holds_at = compile_formula(goal.body, domain, budget)
    draw = env_sampler(goal.binders, config, derive_rng(config.seed, goal.name))
    try:
        for index in range(1, config.trials + 1):
            env = draw()
            if trial(holds_at, env):
                if not trial(holds_at, env):
                    raise ContractViolation("witness failed re-verification")
                return Counterexample(witness=env, trial_index=index)
    except BudgetExceeded:
        return NoCounterexample(trials_run=index - 1)
    return NoCounterexample(trials_run=config.trials)
