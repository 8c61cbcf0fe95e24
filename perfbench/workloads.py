"""The benchmark workloads and the closed loop that drives them.

One client issues goals back to back.  For each goal the benchmark hands the
program goal text and takes back a verdict, the way ``provekit run`` and
``provekit qc`` do: ``parse_goal``, then ``run_pass_k`` or ``quickcheck``,
and every run trace through ``RunTrace.to_jsonl``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Iterator

from provekit.evaluator import Domain
from provekit.lang import GoalDecl
from provekit.pool import PoolConfig
from provekit.prover import (
    CHECKER_ERROR,
    KIND_DIRECT,
    BuiltinChecker,
    ExternalChecker,
    JsonLineProcess,
    StochasticPolicy,
)
from provekit.quickcheck import Counterexample, QcConfig
from provekit.search import REASON_INFRASTRUCTURE, SearchConfig, run_pass_k

import goalgen
import stub_checker
from goalgen import Goal
from layers import Probe
from oracle import witness_falsifies
from stats import TAIL_LADDER

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@dataclass
class GoalResult:
    """What one goal produced.  Once the goal is checked, ``compact`` drops
    everything but a few scalars, so what a run holds does not grow with
    the number of goals a faster program gets through."""

    goal: Goal | None
    name: str
    latency_s: float = 0.0
    parsed: GoalDecl | None = None
    outcomes: tuple[str, ...] = ()
    witnesses: tuple[dict | None, ...] = ()
    traces: tuple[str, ...] = ()
    error: str | None = None
    failures: list[str] = field(default_factory=list)
    record: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and not self.failures

    def keep_record(self) -> None:
        """What the digest covers: the traces, or for a bare quickcheck the
        outcome and witness."""
        if self.traces:
            self.record = "".join(self.traces)
        else:
            self.record = json.dumps(
                [self.name, self.outcomes, self.witnesses], sort_keys=True
            ) + "\n"

    def compact(self, keep_witnesses: bool) -> None:
        self.goal = None
        self.parsed = None
        self.traces = ()
        if not keep_witnesses:
            self.witnesses = ()


def digest(results: list[GoalResult]) -> str:
    h = hashlib.sha256()
    for result in results:
        h.update(result.record.encode())
    return h.hexdigest()


def checker_failed(trace_text: str) -> bool:
    """Did any check in this run end in an infrastructure failure?"""
    return f'"{CHECKER_ERROR}"' in trace_text or REASON_INFRASTRUCTURE in trace_text


class Workload:
    name = ""
    chunk = 50  # goals generated per batch, outside the timed region
    trace_goals = 50  # goals in the traced pass
    # Rungs the tail percentile may take.  Each workload stops at the highest
    # rung its goal count fills, so that the tail does not jump to another
    # percentile when a run holds a few more or fewer goals.
    tail_ladder = TAIL_LADDER
    digest_checked = True

    def __init__(self) -> None:
        self.probe: Probe = Probe()

    def params(self) -> dict:
        raise NotImplementedError

    def stream(self, seed: int) -> Iterator[Goal]:
        raise NotImplementedError

    def open(self, probe: Probe) -> None:
        self.probe = probe

    def close(self) -> None:
        pass

    def run_goal(self, goal: Goal, result: GoalResult) -> None:
        raise NotImplementedError

    def verify(self, result: GoalResult) -> None:
        """Checks that need no trust in the evaluator under test."""
        if result.parsed != result.goal.tree:
            result.failures.append("printed goal does not parse back to the same tree")
        for outcome, witness in zip(result.outcomes, result.witnesses):
            if witness is not None and not witness_falsifies(result.goal.tree, witness, self.domain):
                result.failures.append(f"witness {witness} does not refute the goal ({outcome})")
        for text in result.traces:
            if checker_failed(text):
                result.failures.append("a check ended in checker_error")


class PassKBuiltin(Workload):
    name = "passk_builtin"
    chunk = 25
    trace_goals = 40
    tail_ladder = (90.0, 50.0)
    # Random goals per wide conjunction.  About two in three random goals die
    # in quickcheck within a millisecond or two and the rest take tens of
    # milliseconds; at 4:1 the median goal sat on the edge of that cheap
    # cluster and moved by a fifth from seed to seed.  At 6:1 it sits inside.
    ratio = (6, 1)
    # Random goals whose one evaluation visits more nodes than this are left
    # out: about one in thirty, and among them the goals whose exhausted
    # searches ran for seconds and decided a run's throughput by themselves.
    eval_size_cap = 200

    def __init__(self, domain: Domain | None = None) -> None:
        super().__init__()
        # The node budget is a fortieth of the default so that a run holds
        # dozens of wide conjunctions, each burning the budget several times.
        self.domain = domain or Domain(node_budget=25_000)
        self.config = SearchConfig(
            decompose_iters=16,
            complete_iters=4,
            k_parallel=4,
            qc=QcConfig(trials=200),
            domain=self.domain,
        )

    def params(self) -> dict:
        return {
            "search": self.config.snapshot(),
            "random_goal_depth": 3,
            "wide_conjunction_width": 6,
            "random_to_wide": "%d:%d" % self.ratio,
            "random_goal_filter": f"decide_size <= node_budget, eval_size <= {self.eval_size_cap}",
            "max_workers": 1,
        }

    def stream(self, seed: int) -> Iterator[Goal]:
        budget = self.domain.node_budget
        # The wide conjunctions, nine tenths of the time here, are the same
        # goals with the same search seeds in every run, so the seed only
        # draws the random goals and does not decide the throughput.
        return goalgen.mixed_stream(
            self.name, seed, depth=3, wide=6,
            keep=lambda tree: (
                goalgen.decide_size(tree, self.domain) <= budget
                and goalgen.eval_size(tree.body, self.domain) <= self.eval_size_cap
            ),
            wide_seed=0, ratio=self.ratio,
        )

    def open(self, probe: Probe) -> None:
        super().open(probe)
        self.policy = probe.policy(StochasticPolicy(0, self.domain))
        self.checker = probe.checker(BuiltinChecker(self.domain))

    def run_goal(self, goal: Goal, result: GoalResult) -> None:
        probe = self.probe
        result.parsed = probe.parse(goal.text)
        config = replace(self.config, seed=goal.seed)
        passk = probe.pass_k(result.parsed, self.policy, self.checker, config, max_workers=1)
        result.traces = tuple(probe.serialize(trace) for trace in passk.traces)
        result.outcomes = tuple(run.outcome for run in passk.runs)
        result.witnesses = tuple(run.witness for run in passk.runs)


class QcScreen(Workload):
    name = "qc_screen"
    chunk = 500
    trace_goals = 1500
    tail_ladder = (99.0, 90.0, 50.0)
    eval_size_cap = 200

    def __init__(self) -> None:
        super().__init__()
        self.domain = Domain()
        self.qc = QcConfig()

    def params(self) -> dict:
        return {
            "qc": {"trials": self.qc.trials, "seed": self.qc.seed},
            "random_goal_depth": [3, 4],
            "random_goal_filter": f"eval_size <= {self.eval_size_cap}",
        }

    def stream(self, seed: int) -> Iterator[Goal]:
        return goalgen.filtered_random_goals(
            self.name, seed, (3, 4),
            keep=lambda tree: goalgen.eval_size(tree.body, self.domain) <= self.eval_size_cap,
        )

    def run_goal(self, goal: Goal, result: GoalResult) -> None:
        result.parsed = self.probe.parse(goal.text)
        outcome = self.probe.quickcheck(result.parsed, self.qc, self.domain)
        if isinstance(outcome, Counterexample):
            result.outcomes = ("counterexample",)
            result.witnesses = (outcome.witness,)
        else:
            result.outcomes = ("no_counterexample",)
            result.witnesses = (None,)


class PassKExternal(Workload):
    name = "passk_external"
    chunk = 25
    trace_goals = 40
    digest_checked = False  # pool peak_in_flight in run_end depends on thread timing
    # Three in four random goals die in quickcheck within a few ms and never
    # reach the checker.  At two wide conjunctions per random goal the median
    # goal goes through the transport and the pool, and the median sits well
    # inside that cluster instead of on the edge between the two.
    ratio = (1, 2)
    tail_ladder = (90.0, 50.0)
    decide_size_cap = 20_000

    def __init__(self) -> None:
        super().__init__()
        self.domain = Domain()
        self.config = SearchConfig(
            decompose_iters=2,
            complete_iters=4,
            k_parallel=4,
            qc=QcConfig(trials=200),
            domain=self.domain,
        )
        self.transport = None

    def params(self) -> dict:
        return {
            "search": self.config.snapshot(),
            "split_depth": 3,
            "random_goal_depth": 2,
            "wide_conjunction_width": 3,
            "random_to_wide": "%d:%d" % self.ratio,
            "random_goal_filter": f"decide_size <= {self.decide_size_cap}",
            "stub_service_delay_ms": stub_checker.DELAY_MS,
            "max_workers": NPROC,
            "pool_max_concurrent": NPROC,
        }

    def stream(self, seed: int) -> Iterator[Goal]:
        return goalgen.mixed_stream(
            self.name, seed, depth=2, wide=3,
            keep=lambda tree: goalgen.decide_size(tree, self.domain) <= self.decide_size_cap,
            wide_seed=seed, ratio=self.ratio,
        )

    def _policy(self) -> StochasticPolicy:
        return StochasticPolicy(0, self.domain, split_depth=3)

    def open(self, probe: Probe) -> None:
        super().open(probe)
        self.transport = JsonLineProcess([sys.executable, stub_checker.__file__])
        # One round trip on the bare transport, so the peer is up before the
        # first goal and set-up stays out of the per-layer figures.
        warm = self.transport.request(
            {"id": "warm", "kind": KIND_DIRECT, "goal": "goal warm := 0 = 0", "lemmas": [],
             "proof": None, "timeout_ms": 60_000},
            timeout_s=60.0,
        )
        if warm.get("status") != "accepted":
            self.close()
            raise RuntimeError(f"stub checker did not come up: {warm}")
        self.checker = probe.checker(ExternalChecker(probe.transport(self.transport)))
        self.pool_factory = probe.pool_factory(self.checker, PoolConfig(max_concurrent=NPROC))
        self.policy = probe.policy(self._policy())

    def close(self) -> None:
        if self.transport is not None:
            self.transport.close()
            self.transport = None

    def run_goal(self, goal: Goal, result: GoalResult) -> None:
        probe = self.probe
        result.parsed = probe.parse(goal.text)
        config = replace(self.config, seed=goal.seed)
        passk = probe.pass_k(
            result.parsed, self.policy, self.checker, config,
            pool_factory=self.pool_factory, max_workers=NPROC,
        )
        result.traces = tuple(probe.serialize(trace) for trace in passk.traces)
        result.outcomes = tuple(run.outcome for run in passk.runs)
        result.witnesses = tuple(run.witness for run in passk.runs)

    def verify(self, result: GoalResult) -> None:
        super().verify(result)
        config = replace(self.config, seed=result.goal.seed)
        local = run_pass_k(
            result.goal.tree, self._policy(), BuiltinChecker(self.domain), config, max_workers=1
        )
        expected = tuple((run.outcome, run.witness) for run in local.runs)
        if tuple(zip(result.outcomes, result.witnesses)) != expected:
            result.failures.append("outcomes differ from the in-process builtin checker")


WORKLOADS = {w.name: w for w in (PassKBuiltin, QcScreen, PassKExternal)}


def goal_batches(stream: Iterator[Goal], size: int) -> Iterator[list[Goal]]:
    while True:
        yield list(itertools.islice(stream, size))


def drive(
    workload: Workload,
    batches: Iterator[list[Goal]],
    first: list[Goal],
    *,
    seconds: float | None = None,
    count: int | None = None,
    verify: bool = True,
    records: int = 0,
    keep_witnesses: bool = False,
    between_batches=None,
    clock=None,
) -> list[GoalResult]:
    """Issue goals back to back until ``seconds`` of goal time have passed
    and ``count`` goals are done (either may be left out).  Goal generation
    (between batches) and the checks of each goal (``verify``) happen outside
    the timed region.  The first ``records`` results keep their digest
    record.  ``between_batches``, if given, is called with the goal time so
    far before each new batch.  ``clock``, a ``hostspeed.HostClock``, if
    given, reads the host's speed between goals."""
    results: list[GoalResult] = []
    busy = 0.0
    batch = first
    if clock is not None:
        clock.start()
    while True:
        for goal in batch:
            result = GoalResult(goal=goal, name=goal.name)
            start = time.perf_counter()
            try:
                with workload.probe.goal(len(results)):
                    workload.run_goal(goal, result)
            except Exception as exc:  # a goal that raises is a failed operation
                result.error = f"{type(exc).__name__}: {exc}"
            result.latency_s = time.perf_counter() - start
            busy += result.latency_s
            if verify and result.error is None:
                workload.verify(result)
            if len(results) < records:
                result.keep_record()
            result.compact(keep_witnesses)
            results.append(result)
            if clock is not None:
                clock.tick(len(results), result.latency_s)
            if (seconds is None or busy >= seconds) and len(results) >= (count or 0):
                if clock is not None:
                    clock.finish(len(results))
                return results
        if between_batches is not None:
            between_batches(busy)
        batch = next(batches)


def outcome_counts(results: list[GoalResult]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for result in results:
        for outcome in result.outcomes:
            counts[outcome] = counts.get(outcome, 0) + 1
    return dict(sorted(counts.items()))

