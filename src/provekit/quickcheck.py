"""Randomized counterexample search over generated binder assignments.

Generation is uniform and fully seeded: each call derives its own generator
state from (seed, goal name), so outcomes are reproducible and independent
of call order.  Values are drawn by rejection on ``getrandbits``, which
yields exactly the stream ``random.randint`` would give from the same state,
without its per-call argument checks.  A reported witness is always
re-verified by evaluation before being returned; there is no shrinking.

A statement that keeps passing under new names is settled from its sample
space instead.  A process-wide fact table, keyed by the statement (binders
and body, not the name), the sampler's ranges and the domain, records a
fact once every top-level conjunct has held without error at every point
of the sampled space of its own free variables, within a step bound that
keeps every whole evaluation inside the node budget.  Then every trial
would pass, so a later call whose first trial passes returns what its
remaining trials would: ``NoCounterexample(trials_run=config.trials)``.  A
fact only ever stands for what sampling would return; it never turns a
counterexample or a budget stop into a pass, and every verdict, witness
and trial index stays the one the seeded stream gives.  A space is
enumerated by the rent-or-buy rule of ski rental (Karlin et al.,
"Competitive snoopy caching", 1988): only once the trials that earlier
passing calls spent sampling the statement reach the enumeration's cost,
the sum of its conjuncts' space sizes.  A statement seen once is never
enumerated, nor is a space too large to repay it.
"""

from __future__ import annotations

import hashlib
import math
import random
import threading
from collections import OrderedDict
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
    """
    getrandbits = rng.getrandbits

    def uniform(lo: int, hi: int) -> Callable[[], int]:
        n = hi - lo + 1
        k = n.bit_length()

        def draw_one() -> int:
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            return lo + r

        return draw_one

    draw_int = uniform(config.gen_int_lo, config.gen_int_hi)
    draw_len = uniform(0, config.gen_max_list_len)
    draw_elem = uniform(config.elem_lo, config.elem_hi)
    plan = [(name, sort is Sort.INT) for name, sort in binders]

    def draw() -> Env:
        env: Env = {}
        for name, is_int in plan:
            if is_int:
                env[name] = draw_int()
            else:
                # The length is drawn first, then the elements in order.
                env[name] = tuple([draw_elem() for _ in range(draw_len())])
        return env

    return draw


# Statements the fact table remembers, least recently used first out.  On
# 2,000 passk_builtin goals, 32 entries settled 99 % of the calls that
# 1,024 did, and 128 entries kept 38 KB alive.
FACT_TABLE_SIZE = 128

# Per key: ``[trials spent, enumeration cost or None]`` while unsettled,
# then whether the fact holds (``True`` or ``False``).
_FACTS: OrderedDict[tuple, list | bool] = OrderedDict()
_FACTS_LOCK = threading.Lock()

# A trial under a fresh budget: whether the assignment falsifies the
# formula.  ``BudgetExceeded`` escapes it and ends the call.
Trial = Callable[[FormulaFn, Env], bool]


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


def _enumeration_cost(goal: GoalDecl, space: Domain) -> int:
    """Points an enumeration evaluates: the sum of the conjuncts' spaces."""
    return sum(
        math.prod(space.value_count(sort) for _, sort in binders)
        for _, binders in _conjunct_spaces(goal)
    )


def _holds_everywhere(
    goal: GoalDecl, space: Domain, domain: Domain, budget: Budget, trial: Trial
) -> bool:
    """Whether every trial of ``goal`` passes whatever the sampler draws.

    Each conjunct must hold, without error, at every point of its own
    space.  A trial then evaluates every conjunct and each ``And`` above
    them once, so it visits at most ``(conjuncts - 1) + sum of each
    conjunct's most steps`` nodes, which must fit in the node budget.
    """
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


def _remember(key: tuple, entry: list | bool) -> None:
    """Store ``entry`` as the most recently used; the caller holds the lock."""
    _FACTS[key] = entry
    _FACTS.move_to_end(key)
    if len(_FACTS) > FACT_TABLE_SIZE:
        _FACTS.popitem(last=False)


def _pay_rent(key: tuple, trials: int) -> None:
    """Count the trials a passing call spent sampling an unsettled statement."""
    with _FACTS_LOCK:  # looked up again: another call may have stored or bought it
        entry = _FACTS.get(key)
        if entry is None:
            _remember(key, [trials, None])
        elif type(entry) is list:
            entry[0] += trials


def _settled(
    key: tuple, goal: GoalDecl, config: QcConfig, domain: Domain, budget: Budget, trial: Trial
) -> bool:
    """Whether the fact about ``key`` holds, enumerating its space first if
    the trials spent on it have reached the enumeration's cost."""
    with _FACTS_LOCK:
        entry = _FACTS.get(key)
        if entry is not None:
            _FACTS.move_to_end(key)
    if type(entry) is not list:
        return entry is True
    space = _sampled_space(config)
    if entry[1] is None:
        entry[1] = _enumeration_cost(goal, space)
    if entry[0] < entry[1]:
        return False
    holds = _holds_everywhere(goal, space, domain, budget, trial)
    with _FACTS_LOCK:
        _remember(key, holds)
    return holds


def _witness(trial: Trial, holds_at: FormulaFn, env: Env, index: int) -> Counterexample:
    """The counterexample of a falsifying trial, once re-verified."""
    if not trial(holds_at, env):
        raise ContractViolation("witness failed re-verification")
    return Counterexample(witness=env, trial_index=index)


def quickcheck(goal: GoalDecl, config: QcConfig, domain: Domain) -> QcOutcome:
    """Run up to ``config.trials`` sampled assignments against the goal body.

    Inner quantifiers still range over ``domain``; only the outer binders are
    sampled.  The body is compiled once per call and each trial gets a fresh
    node budget.  The first falsifying assignment is re-verified and returned
    with its 1-based trial index.  A trial that runs out of budget falsifies
    nothing: the search stops there and reports the trials finished before.
    Once the first trial passes, a fact about the statement may settle the
    call with what its other trials would return (see the module notes).
    """
    budget = Budget(domain.node_budget)

    def trial(holds_at: FormulaFn, env: Env) -> bool:
        """An evaluation error counts as falsifying the assignment."""
        budget.remaining = domain.node_budget
        try:
            return not holds_at(env)
        except EvalError:
            return True

    holds_at = compile_formula(goal.body, domain, budget)
    draw = env_sampler(goal.binders, config, derive_rng(config.seed, goal.name))
    index = 1
    try:
        env = draw()
        if trial(holds_at, env):
            return _witness(trial, holds_at, env, index)
        key = (
            goal.binders, goal.body, config.gen_int_lo, config.gen_int_hi,
            config.gen_max_list_len, config.elem_lo, config.elem_hi, domain,
        )
        if _settled(key, goal, config, domain, budget, trial):
            return NoCounterexample(trials_run=config.trials)
        for index in range(2, config.trials + 1):
            env = draw()
            if trial(holds_at, env):
                return _witness(trial, holds_at, env, index)
    except BudgetExceeded:
        return NoCounterexample(trials_run=index - 1)
    _pay_rent(key, config.trials)
    return NoCounterexample(trials_run=config.trials)
