"""An adversarial policy, in process and behind a stdio peer.

``Adversary`` proposes what a hostile peer might: conjuncts of its target,
the target itself, unrelated formulas, capture bait, ill-sorted lemmas,
lemmas nested just past the depth cap, lemmas with shuffled, dropped,
renamed or extra binders, reused names, random reconstruction markers (a
bogus one included) and random completion texts.

Run as a script, this module is that adversary as a policy peer speaking
the newline-delimited JSON protocol of ``ExternalPolicy``:

    python3 tests/adversary.py

Each request must carry a ``seed`` besides the protocol's fields; the peer
draws its proposal and its misbehaviour from it, so a reply depends on the
request alone.  The peer prints its lemmas, ill-sorted and too deep ones
included, and the adapter parses them.  It also misbehaves at the reply
level: fields that are missing or ill-typed, duplicate replies, late
replies to the request before, and, with ``BREAK_RATE``, a reply to an id
never sent or a line that is not a JSON object.  It is never silent.

Needs the ``provekit`` package importable (for example ``PYTHONPATH=src``).
"""

from __future__ import annotations

import json
import random
import sys

from corpus import random_formula
from provekit.errors import ParseError, PolicyError
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
    TrueF,
    Var,
    conjunct_fringe,
    parse_goal,
    print_goal,
    rename_free,
)
from provekit.lang.ast import MAX_DEPTH
from provekit.prover import (
    DIRECT_PROOF_DIRECTIVE,
    RECON_AND_INTRO,
    RECON_DIRECT,
    RECON_ENTAILMENT,
    RECON_GROUND,
    DecompositionProposal,
    PolicyContext,
)

MARKERS = (RECON_ENTAILMENT, RECON_AND_INTRO, RECON_GROUND, RECON_DIRECT, "bogus-marker")
PROOF_TEXTS = (DIRECT_PROOF_DIRECTIVE, "sorry", "", RECON_ENTAILMENT, "by simp")

# Share of replies that break the connection.  Each break costs the caller
# a new peer process, so it is kept rare.
BREAK_RATE = 0.005


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
            # Ill-sorted or too deep, handed over as a tree: no parser sees it.
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
        return self._hand_over(GoalDecl(name, tuple(binders), body))

    def _hand_over(self, lemma: GoalDecl) -> GoalDecl:
        # Through the wire format, as an external policy's lemma would come.
        try:
            return parse_goal(print_goal(lemma))
        except ParseError as exc:
            raise PolicyError(f"unparseable lemma: {exc}") from exc

    def _ill_sorted(self, goal, binders, ints, lists):
        rng = self.rng
        pick = rng.randrange(4)
        if pick == 3:
            # Well sorted, but one or two levels past the depth cap.
            body = TrueF()
            for _ in range(MAX_DEPTH + rng.randrange(2)):
                body = Not(body)
            return body
        if pick == 0 and ints:
            # An Int binder retyped as a list, then compared as an int.
            i = next(i for i, (name, _) in enumerate(binders) if name == ints[0])
            binders[i] = (ints[0], Sort.INT_LIST)
            return Lt(Var(ints[0]), IntLit(rng.randint(-2, 2)))
        if pick == 1:
            return Length(Var(lists[0])) if lists else Add(IntLit(1), IntLit(1))
        return Eq(Add(goal.body, IntLit(0)), IntLit(1))


class _PeerAdversary(Adversary):
    """Hands every lemma over as a tree, for the peer to print."""

    def _hand_over(self, lemma: GoalDecl) -> GoalDecl:
        return lemma


def reply_lines(request: dict) -> list[str]:
    """The lines the peer writes in answer to one request."""
    rng = random.Random(request["seed"])
    rid = request["id"]
    adversary = _PeerAdversary(rng.getrandbits(32))
    context = PolicyContext(goal=parse_goal(request["goal"]))
    if request["mode"] == "decompose":
        proposal = adversary.propose_decomposition(context)
        main = "lemmas"
        fields = {
            "lemmas": [print_goal(lemma) for lemma in proposal.lemmas],
            "reconstruction": proposal.reconstruction,
        }
    else:
        main = "proof"
        fields = {"proof": adversary.propose_completion(context)}
    reply = {"id": rid, **fields}
    if rng.random() < BREAK_RATE:
        return [rng.choice([
            json.dumps({**reply, "id": rid + 1000}),
            json.dumps({**reply, "id": str(rid)}),
            json.dumps(fields),
            json.dumps([reply]),
            "null",
            "not json",
        ])]
    kind = rng.choice(("plain", "plain", "plain", "missing", "ill-typed", "duplicate", "late"))
    if kind == "missing":
        del reply[main]
    elif kind == "ill-typed":
        key = rng.choice((main, "reconstruction", "rationale"))
        reply[key] = rng.choice((5, None, [7], {"a": 1}, "oops"))
    elif kind == "duplicate":
        return [json.dumps(reply)] * 2
    elif kind == "late" and rid > 1:
        # A reply to the request before, which was answered already.
        late = {"id": rid - 1, "lemmas": [], "reconstruction": RECON_GROUND, "proof": "decide"}
        return [json.dumps(late), json.dumps(reply)]
    return [json.dumps(reply)]


def serve() -> None:
    for line in sys.stdin:
        if line.strip():
            for out in reply_lines(json.loads(line)):
                sys.stdout.write(out + "\n")
            sys.stdout.flush()


if __name__ == "__main__":
    serve()
