"""Bounded-concurrency verification pool.

Jobs wait FIFO for one of ``max_concurrent`` slots, and each job that takes
a slot runs on a thread of its own, which exits once the check returns.
The queue has no cap: it holds only what callers submit.  Every job ends in
exactly one of four buckets (completed, timed out, cancelled, or still
pending/queued), and the stats snapshot preserves the conservation identity

    submitted == completed + timed_out + cancelled + in_flight + queued

at every observable instant.  Each job is submitted with its timeout (the
search passes its ``check_timeout_ms``); the pool has no timeout setting of
its own.  A job's deadline is its submission time plus its timeout; whoever
sees it pass first, awaiter or job thread, finalizes the job as a timeout,
and a job still queued past it never starts.  A slot is a place in the
running set, not a thread: a job cut short frees its slot at once, and its
thread counts as ``stuck`` until the check returns, so a hung check never
holds up the queue.  The checker still gets the job's full timeout.  A
handle carries its job, so the pool keeps only queued and running jobs, and
latency quantiles cover recent jobs only.
"""

from __future__ import annotations

import collections
import math
import threading
import time
from dataclasses import dataclass, field

from .errors import ContractViolation, UnknownHandle
from .prover import api
from .prover.api import Checker, CheckRequest, CheckVerdict

# Latency samples kept for the stats quantiles: the most recent jobs'.
_LATENCY_SAMPLES = 4096


@dataclass(frozen=True)
class PoolConfig:
    max_concurrent: int = 512

    def __post_init__(self) -> None:
        if self.max_concurrent < 1:
            raise ContractViolation("pool needs positive capacity")


@dataclass(frozen=True)
class JobHandle:
    job_id: str
    _job: _Job | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class PoolStats:
    submitted: int
    completed: int
    timed_out: int
    cancelled: int
    in_flight: int
    queued: int
    peak_in_flight: int
    latency_ms_p50: float | None
    latency_ms_p95: float | None
    latency_ms_p99: float | None
    stuck: int  # threads still in the check of a job cut short; wall-clock, not traced

    def conserved(self) -> bool:
        return self.submitted == (
            self.completed + self.timed_out + self.cancelled + self.in_flight + self.queued
        )


@dataclass(slots=True, eq=False)
class _Job:
    pool: VerificationPool
    job_id: str
    request: CheckRequest
    timeout_ms: int
    deadline: float
    verdict: CheckVerdict | None = None
    started_at: float | None = None  # set when the job takes a slot


def _nearest_rank(sorted_samples: list[float], q: float) -> float:
    rank = max(1, math.ceil(q * len(sorted_samples)))
    return sorted_samples[rank - 1]


class VerificationPool:
    """Runs checker obligations with admission control and wall timeouts."""

    def __init__(self, checker: Checker, config: PoolConfig | None = None):
        self.checker = checker
        self.config = config or PoolConfig()
        self._lock = threading.Lock()
        self._done = threading.Condition(self._lock)  # awaiters wait for verdicts
        self._queue: collections.deque[_Job] = collections.deque()
        self._running: set[_Job] = set()  # jobs holding a slot
        self._next_id = 0
        self._shutdown = False
        self._counts = {"submitted": 0, "completed": 0, "timed_out": 0, "cancelled": 0}
        self._peak = 0
        self._checking = 0  # job threads whose check has not returned
        self._latencies: collections.deque[float] = collections.deque(maxlen=_LATENCY_SAMPLES)

    # -- lifecycle -----------------------------------------------------------

    def shutdown(self) -> None:
        with self._lock:
            self._shutdown = True

    def __enter__(self) -> "VerificationPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- submission and retrieval ---------------------------------------------

    def submit(self, request: CheckRequest, timeout_ms: int) -> JobHandle:
        """Queue one obligation with its check budget and return at once;
        the job starts as soon as a slot is free."""
        if timeout_ms < 1:
            raise ContractViolation("timeout must be positive")
        with self._lock:
            if self._shutdown:
                raise ContractViolation("pool is shut down")
            self._next_id += 1
            deadline = time.monotonic() + timeout_ms / 1000.0
            job = _Job(self, f"job-{self._next_id:06d}", request, timeout_ms, deadline)
            self._queue.append(job)
            self._counts["submitted"] += 1
            self._dispatch_locked()
            return JobHandle(job.job_id, job)

    def await_verdict(self, handle: JobHandle) -> CheckVerdict:
        """Block until the job finishes or its deadline passes; a second
        await on the same handle returns the same verdict."""
        job = handle._job
        if job is None or job.pool is not self:
            raise UnknownHandle(handle.job_id)
        with self._lock:
            remaining = job.deadline - time.monotonic()
            if not self._done.wait_for(lambda: job.verdict is not None, remaining):
                if job.started_at is None:
                    self._queue.remove(job)
                self._finalize_locked(job, "timed_out", api.timeout())
            return job.verdict

    def cancel_all(self, reason: str = "cancelled") -> int:
        """Cancel everything pending or running; returns how many jobs were
        cut short.  The pool stays usable afterwards."""
        with self._lock:
            cut = [*self._queue, *self._running]
            self._queue.clear()  # first, so the slots freed below start nothing
            for job in cut:
                self._finalize_locked(job, "cancelled", api.checker_error(reason))
            return len(cut)

    def stats(self) -> PoolStats:
        with self._lock:
            samples = sorted(self._latencies)
            return PoolStats(
                **self._counts,
                in_flight=len(self._running),
                queued=len(self._queue),
                peak_in_flight=self._peak,
                latency_ms_p50=_nearest_rank(samples, 0.50) if samples else None,
                latency_ms_p95=_nearest_rank(samples, 0.95) if samples else None,
                latency_ms_p99=_nearest_rank(samples, 0.99) if samples else None,
                stuck=self._checking - len(self._running),
            )

    # -- internals -------------------------------------------------------------

    def _finalize_locked(self, job: _Job, bucket: str, verdict: CheckVerdict) -> None:
        """Record the outcome of a job that has none yet.  A running job
        frees its slot here, whether or not its check returned."""
        job.verdict = verdict
        self._counts[bucket] += 1
        if job.started_at is not None:
            self._running.remove(job)
            self._latencies.append((time.monotonic() - job.started_at) * 1000.0)
            self._dispatch_locked()
        self._done.notify_all()

    def _dispatch_locked(self) -> None:
        """Start queued jobs while a slot is free, each on a new thread; a
        job past its deadline times out without starting."""
        while self._queue and len(self._running) < self.config.max_concurrent:
            job = self._queue.popleft()
            now = time.monotonic()
            if now >= job.deadline:
                self._finalize_locked(job, "timed_out", api.timeout())
                continue
            job.started_at = now
            self._running.add(job)
            self._checking += 1
            self._peak = max(self._peak, len(self._running))
            threading.Thread(target=self._run, args=(job,), daemon=True).start()

    def _run(self, job: _Job) -> None:
        try:
            verdict = self.checker.check(job.request, job.timeout_ms)
        except Exception as exc:  # checker bugs are infrastructure errors
            verdict = api.checker_error(f"{type(exc).__name__}: {exc}")
        with self._lock:
            self._checking -= 1
            if job.verdict is None:  # nobody cut the job short
                late = time.monotonic() > job.deadline
                self._finalize_locked(job, "timed_out" if late else "completed",
                                      api.timeout() if late else verdict)
