"""Soundness against an adversarial policy.

The gate is the only thing between a policy and a false proof.  The policy
here proposes what a hostile peer might: conjuncts of its target, the
target itself, unrelated formulas, capture bait, ill-sorted lemmas, lemmas
with shuffled, dropped, renamed or extra binders, reused names, random
reconstruction markers (a bogus one included) and random completion
texts.  On a domain small enough that quickcheck's single trial barely
helps, a run may still reach ``proved`` only when the root is valid over
the domain.
"""

from __future__ import annotations

import random
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import random_formula, random_goal
from provekit.errors import ParseError, PolicyError
from provekit.evaluator import DecisionVerdict, Domain, decide_bounded
from provekit.lang import (
    Add,
    Eq,
    Exists,
    GoalDecl,
    IntLit,
    Length,
    Lt,
    Not,
    Sort,
    Var,
    conjunct_fringe,
    parse_goal,
    print_goal,
    rename_free,
)
from provekit.prover import (
    DIRECT_PROOF_DIRECTIVE,
    RECON_AND_INTRO,
    RECON_DIRECT,
    RECON_ENTAILMENT,
    RECON_GROUND,
    BuiltinChecker,
    DecompositionProposal,
)
from provekit.quickcheck import QcConfig
from provekit.search import OUTCOME_PROVED, SearchConfig, run_single

DOMAIN = Domain(int_lo=-2, int_hi=2, max_list_len=2, elem_lo=-2, elem_hi=2, node_budget=200_000)
CONFIG = SearchConfig(
    decompose_iters=6,
    complete_iters=2,
    max_open_lemmas=8,
    qc=QcConfig(trials=1, seed=0),
    domain=DOMAIN,
)
CHECKER = BuiltinChecker(DOMAIN)
MARKERS = (RECON_ENTAILMENT, RECON_AND_INTRO, RECON_GROUND, RECON_DIRECT, "bogus-marker")
PROOF_TEXTS = (DIRECT_PROOF_DIRECTIVE, "sorry", "", RECON_ENTAILMENT, "by simp")


class Adversary:
    """A seeded policy that proposes anything a peer could send."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def fork(self, seed: int) -> "Adversary":
        return Adversary(seed)

    def propose_decomposition(self, context) -> DecompositionProposal:
        rng = self.rng
        goal = context.goal
        lemmas = tuple(self._lemma(goal, i) for i in range(rng.randrange(4)))
        return DecompositionProposal(lemmas, rng.choice(MARKERS))

    def propose_completion(self, context) -> str:
        return self.rng.choice(PROOF_TEXTS)

    def _lemma(self, goal: GoalDecl, index: int) -> GoalDecl:
        rng = self.rng
        ints = tuple(name for name, sort in goal.binders if sort is Sort.INT)
        lists = tuple(name for name, sort in goal.binders if sort is Sort.INT_LIST)
        binders = list(goal.binders)
        name = f"{goal.name}_{index}_{rng.randrange(10**6)}" if rng.random() < 0.8 else goal.name
        move = rng.randrange(5)
        if move == 4:
            # Ill-sorted, handed over as a tree: no parser sees it.
            body = self._ill_sorted(goal, binders, ints, lists)
            return GoalDecl(name, tuple(binders), body)
        if move == 0:
            body = rng.choice(conjunct_fringe(goal.body))
        elif move == 1:
            body = goal.body
        elif move == 2:
            body = random_formula(rng, 2, ints, lists)
        else:
            # Capture bait: valid, but false once a renaming lets the
            # quantifier capture the other name.
            other = rng.choice(ints) if ints else "v"
            bound = rng.choice([n for n in ints + ("v", "w") if n != other])
            body = Exists(bound, Sort.INT, Not(Eq(Var(bound), Var(other))))
        edit = rng.randrange(6)
        if edit == 0:
            rng.shuffle(binders)
        elif edit == 1 and binders:
            del binders[rng.randrange(len(binders)):]
        elif edit == 2 and binders:
            names = rng.sample(("x", "y", "l", "v", "w", "z"), len(binders))
            body = rename_free(body, {old: new for (old, _), new in zip(binders, names)})
            binders = [(new, sort) for (_, sort), new in zip(binders, names)]
        elif edit == 3:
            binders.append((rng.choice(("z", "v")), rng.choice((Sort.INT, Sort.INT_LIST))))
        # Through the wire format, as an external policy's lemma would come.
        try:
            return parse_goal(print_goal(GoalDecl(name, tuple(binders), body)))
        except ParseError as exc:
            raise PolicyError(f"unparseable lemma: {exc}") from exc

    def _ill_sorted(self, goal, binders, ints, lists):
        rng = self.rng
        pick = rng.randrange(3)
        if pick == 0 and ints:
            # An Int binder retyped as a list, then compared as an int.
            i = next(i for i, (name, _) in enumerate(binders) if name == ints[0])
            binders[i] = (ints[0], Sort.INT_LIST)
            return Lt(Var(ints[0]), IntLit(rng.randint(-2, 2)))
        if pick == 1:
            return Length(Var(lists[0])) if lists else Add(IntLit(1), IntLit(1))
        return Eq(Add(goal.body, IntLit(0)), IntLit(1))


def _root(seed: int) -> GoalDecl:
    return random_goal(seed, f"g{seed}", 2)


# The property says nothing about valid roots, so it samples the others:
# refutable ones and those the decision runs out of budget on.
INVALID_ROOTS = [
    s for s in range(400) if decide_bounded(_root(s), DOMAIN).status != DecisionVerdict.VALID
]


def _outcome(goal_seed: int, policy_seed: int) -> str:
    result, _ = run_single(_root(goal_seed), Adversary(0), CHECKER, replace(CONFIG, seed=policy_seed))
    return result.outcome


@settings(max_examples=800, deadline=None)
@given(st.sampled_from(INVALID_ROOTS), st.integers(0, 2**32 - 1))
def test_adversary_never_proves_an_invalid_root(goal_seed, policy_seed):
    assert _outcome(goal_seed, policy_seed) != OUTCOME_PROVED


def test_adversary_proves_some_valid_roots():
    # The property above is not vacuous: on valid roots the same adversary
    # gets proposals through the gate and closes the leaves.
    valid = sorted(set(range(40)) - set(INVALID_ROOTS))
    proved = [s for s in valid if _outcome(s, s) == OUTCOME_PROVED]
    assert len(proved) >= len(valid) // 2
