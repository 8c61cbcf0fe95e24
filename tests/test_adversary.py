"""Soundness against an adversarial policy, in process and over the wire.

The gate is the only thing between a policy and a false proof.  The policy
here (``adversary.Adversary``) proposes what a hostile peer might.  On a
domain small enough that quickcheck's single trial barely helps, a run may
still reach ``proved`` only when the root is valid over the domain.  Over
the wire the same adversary sits behind a stdio peer that also misbehaves
at the reply level, and no request may wait out its transport timeout.
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import replace
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from adversary import Adversary
from corpus import random_goal
from provekit.errors import CheckerProtocolError
from provekit.evaluator import DecisionVerdict, Domain, decide_bounded
from provekit.lang import GoalDecl
from provekit.prover import BuiltinChecker, ExternalPolicy, JsonLineProcess
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


# --- over the wire ---------------------------------------------------------------

PEER = [sys.executable, str(Path(__file__).with_name("adversary.py"))]
WIRE_TIMEOUT_S = 10.0
WIRE_EXAMPLES = 300


class _Reconnecting:
    """A transport to the adversary peer.  It stamps each request with a
    seed for the peer, opens a new peer once a connection broke, and
    records how long each request took and why one failed."""

    def __init__(self):
        self.peer: JsonLineProcess | None = None
        self.rng = random.Random(0)
        self.seconds: list[float] = []
        self.failures: list[str] = []

    def request(self, payload, timeout_s):
        if self.peer is None:
            self.peer = JsonLineProcess(PEER)
        start = time.monotonic()
        try:
            return self.peer.request({**payload, "seed": self.rng.getrandbits(64)}, timeout_s)
        except CheckerProtocolError as exc:
            self.failures.append(str(exc))
            self.close()
            raise
        finally:
            self.seconds.append(time.monotonic() - start)

    def close(self):
        if self.peer is not None:
            self.peer.close()
            self.peer = None


def test_wire_adversary_never_proves_an_invalid_root_and_never_waits_out_a_timeout():
    transport = _Reconnecting()
    policy = ExternalPolicy(transport)
    policy.REQUEST_TIMEOUT_S = WIRE_TIMEOUT_S
    invalid = set(INVALID_ROOTS)
    proved_valid = 0
    try:
        for example in range(WIRE_EXAMPLES):
            goal_seed = random.Random(example).randrange(400)
            transport.rng = random.Random(example)
            result, _ = run_single(_root(goal_seed), policy, CHECKER, replace(CONFIG, seed=example))
            if goal_seed in invalid:
                assert result.outcome != OUTCOME_PROVED, (goal_seed, example)
            else:
                proved_valid += result.outcome == OUTCOME_PROVED
    finally:
        transport.close()
    # The peer is never silent, and a reply it breaks the connection with
    # fails its request at once; none of them is a timeout or a crash.
    assert max(transport.seconds) < WIRE_TIMEOUT_S / 2
    assert transport.failures
    assert all("never sent" in f or "unparseable" in f for f in transport.failures), transport.failures
    # Lemmas do cross the wire and get through the gate.
    assert proved_valid > 0
