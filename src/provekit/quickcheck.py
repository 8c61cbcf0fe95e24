"""Randomized counterexample search over generated binder assignments.

Generation is uniform and fully seeded: each call derives its own generator
state from (seed, goal name), so outcomes are reproducible and independent
of call order.  Values are drawn by rejection on ``getrandbits``, which
yields exactly the stream ``random.randint`` would give from the same state,
without its per-call argument checks.  A reported witness is always
re-verified by evaluation before being returned; there is no shrinking.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable

from .errors import BudgetExceeded, ContractViolation, EvalError
from .evaluator import Budget, Domain, Env, compile_formula
from .lang.ast import GoalDecl, Sort


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


def quickcheck(goal: GoalDecl, config: QcConfig, domain: Domain) -> QcOutcome:
    """Run up to ``config.trials`` sampled assignments against the goal body.

    Inner quantifiers still range over ``domain``; only the outer binders are
    sampled.  The body is compiled once per call and each trial gets a fresh
    node budget.  The first falsifying assignment is re-verified and returned
    with its 1-based trial index.  A trial that runs out of budget falsifies
    nothing: the search stops there and reports the trials finished before.
    """
    budget = Budget(domain.node_budget)
    holds_at = compile_formula(goal.body, domain, budget)

    def falsifies(env: Env) -> bool:
        """An evaluation error counts as falsifying the assignment."""
        budget.remaining = domain.node_budget
        try:
            return not holds_at(env)
        except EvalError:
            return True

    draw = env_sampler(goal.binders, config, derive_rng(config.seed, goal.name))
    for trial in range(1, config.trials + 1):
        env = draw()
        try:
            falsified = falsifies(env)
        except BudgetExceeded:
            return NoCounterexample(trials_run=trial - 1)
        if falsified:
            if not falsifies(env):  # re-verification
                raise ContractViolation("witness failed re-verification")
            return Counterexample(witness=env, trial_index=trial)
    return NoCounterexample(trials_run=config.trials)
