"""Bounded-concurrency verification pool.

Jobs are admitted FIFO into a capacity-limited queue and executed by at
most ``max_concurrent`` workers.  Every job ends in exactly one of four
buckets (completed, timed out, cancelled, or still pending/queued), and the
stats snapshot preserves the conservation identity

    submitted == completed + timed_out + cancelled + in_flight + queued

at every observable instant.  Timeouts are measured from execution start,
not from submission; a job that outlives its budget is finalized as a
timeout and the worker's eventual result is discarded.  A job is forgotten
once its verdict has been awaited, and latency quantiles cover the most
recent jobs only, so the bookkeeping stays bounded however many jobs run.
"""

from __future__ import annotations

import collections
import math
import threading
import time
from dataclasses import dataclass

from .errors import ContractViolation, QueueFull, UnknownHandle
from .prover import api
from .prover.api import Checker, CheckRequest, CheckVerdict

# Latency samples kept for the stats quantiles: the most recent jobs'.
_LATENCY_SAMPLES = 4096


@dataclass(frozen=True)
class PoolConfig:
    max_concurrent: int = 512
    check_timeout_ms: int = 300_000
    queue_capacity: int = 4096

    def __post_init__(self) -> None:
        if self.max_concurrent < 1 or self.queue_capacity < 1:
            raise ContractViolation("pool needs positive capacity")
        if self.check_timeout_ms < 1:
            raise ContractViolation("timeout must be positive")


@dataclass(frozen=True)
class JobHandle:
    job_id: str
    submitted_at: float


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

    def conserved(self) -> bool:
        return self.submitted == (
            self.completed + self.timed_out + self.cancelled + self.in_flight + self.queued
        )


_PENDING = "pending"
_RUNNING = "running"
_DONE_COMPLETED = "completed"
_DONE_TIMED_OUT = "timed_out"
_DONE_CANCELLED = "cancelled"


class _Job:
    __slots__ = ("job_id", "request", "timeout_ms", "state", "verdict", "started_at")

    def __init__(self, job_id: str, request: CheckRequest, timeout_ms: int):
        self.job_id = job_id
        self.request = request
        self.timeout_ms = timeout_ms
        self.state = _PENDING
        self.verdict: CheckVerdict | None = None
        self.started_at: float | None = None


def _nearest_rank(sorted_samples: list[float], q: float) -> float:
    rank = max(1, math.ceil(q * len(sorted_samples)))
    return sorted_samples[rank - 1]


class VerificationPool:
    """Runs checker obligations with admission control and wall timeouts."""

    def __init__(self, checker: Checker, config: PoolConfig | None = None):
        self.checker = checker
        self.config = config or PoolConfig()
        self._cond = threading.Condition()
        self._queue: collections.deque[_Job] = collections.deque()
        self._jobs: dict[str, _Job] = {}
        self._workers: list[threading.Thread] = []
        self._next_id = 0
        self._shutdown = False
        self._counts = {
            "submitted": 0,
            "completed": 0,
            "timed_out": 0,
            "cancelled": 0,
            "peak_in_flight": 0,
        }
        self._running = 0
        self._latencies: collections.deque[float] = collections.deque(maxlen=_LATENCY_SAMPLES)

    # -- lifecycle -----------------------------------------------------------

    def _spawn_worker_locked(self) -> None:
        if len(self._workers) < self.config.max_concurrent:
            worker = threading.Thread(target=self._work_loop, daemon=True)
            self._workers.append(worker)
            worker.start()

    def shutdown(self) -> None:
        with self._cond:
            self._shutdown = True
            self._cond.notify_all()

    def __enter__(self) -> "VerificationPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- submission and retrieval ---------------------------------------------

    def submit(self, request: CheckRequest, timeout_ms: int | None = None) -> JobHandle:
        """Admit one obligation; raises QueueFull instead of blocking, so
        producers feel backpressure immediately."""
        effective = self.config.check_timeout_ms
        if timeout_ms is not None:
            effective = min(effective, timeout_ms)
        with self._cond:
            if self._shutdown:
                raise ContractViolation("pool is shut down")
            if len(self._queue) >= self.config.queue_capacity:
                raise QueueFull(
                    f"queue at capacity ({self.config.queue_capacity})"
                )
            self._next_id += 1
            job = _Job(f"job-{self._next_id:06d}", request, effective)
            self._jobs[job.job_id] = job
            self._queue.append(job)
            self._counts["submitted"] += 1
            if len(self._workers) < min(
                self.config.max_concurrent, self._running + len(self._queue)
            ):
                self._spawn_worker_locked()
            self._cond.notify()
            return JobHandle(job_id=job.job_id, submitted_at=time.monotonic())

    def await_verdict(self, handle: JobHandle) -> CheckVerdict:
        """Block until the job finishes or its wall budget (measured from
        execution start) lapses, whichever is first.  The pool then forgets
        the job, so a second await on its handle raises UnknownHandle."""
        with self._cond:
            job = self._jobs.get(handle.job_id)
            if job is None:
                raise UnknownHandle(handle.job_id)
            while job.verdict is None:
                if job.started_at is not None:
                    remaining = job.started_at + job.timeout_ms / 1000.0 - time.monotonic()
                    if remaining <= 0:
                        self._finalize_locked(job, _DONE_TIMED_OUT, api.timeout(job.timeout_ms))
                        break
                    self._cond.wait(timeout=remaining)
                else:
                    self._cond.wait(timeout=0.05)
            self._jobs.pop(handle.job_id, None)
            return job.verdict

    def cancel_all(self, reason: str = "cancelled") -> int:
        """Cancel everything pending or running; returns how many jobs were
        cut short.  The pool stays usable afterwards."""
        with self._cond:
            count = 0
            while self._queue:
                job = self._queue.popleft()
                self._finalize_locked(job, _DONE_CANCELLED, api.checker_error(reason))
                count += 1
            for job in self._jobs.values():
                if job.state == _RUNNING and job.verdict is None:
                    self._finalize_locked(job, _DONE_CANCELLED, api.checker_error(reason))
                    count += 1
            return count

    def stats(self) -> PoolStats:
        with self._cond:
            samples = sorted(self._latencies)
            queued = len(self._queue)
            in_flight = self._running
            return PoolStats(
                submitted=self._counts["submitted"],
                completed=self._counts["completed"],
                timed_out=self._counts["timed_out"],
                cancelled=self._counts["cancelled"],
                in_flight=in_flight,
                queued=queued,
                peak_in_flight=self._counts["peak_in_flight"],
                latency_ms_p50=_nearest_rank(samples, 0.50) if samples else None,
                latency_ms_p95=_nearest_rank(samples, 0.95) if samples else None,
                latency_ms_p99=_nearest_rank(samples, 0.99) if samples else None,
            )

    # -- internals -------------------------------------------------------------

    def _finalize_locked(self, job: _Job, bucket: str, verdict: CheckVerdict) -> None:
        """Single writer of a job's outcome; later writers are ignored."""
        if job.verdict is not None:
            return
        job.verdict = verdict
        was_running = job.state == _RUNNING
        job.state = bucket
        if bucket == _DONE_COMPLETED:
            self._counts["completed"] += 1
        elif bucket == _DONE_TIMED_OUT:
            self._counts["timed_out"] += 1
        else:
            self._counts["cancelled"] += 1
        if was_running:
            self._running -= 1
        if job.started_at is not None:
            self._latencies.append((time.monotonic() - job.started_at) * 1000.0)
        self._cond.notify_all()

    def _work_loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._shutdown:
                    self._cond.wait()
                if self._shutdown and not self._queue:
                    return
                job = self._queue.popleft()
                if job.verdict is not None:
                    continue  # cancelled while queued
                job.state = _RUNNING
                job.started_at = time.monotonic()
                self._running += 1
                if self._running > self._counts["peak_in_flight"]:
                    self._counts["peak_in_flight"] = self._running
                timeout_ms = job.timeout_ms
                request = job.request
            try:
                verdict = self.checker.check(request, timeout_ms)
            except Exception as exc:  # checker bugs are infrastructure errors
                verdict = api.checker_error(f"{type(exc).__name__}: {exc}")
            with self._cond:
                if job.verdict is not None:
                    # Timeout or cancellation already owns the outcome; the
                    # late result is dropped (no job both completes and
                    # times out).
                    continue
                elapsed_ms = (time.monotonic() - (job.started_at or 0.0)) * 1000.0
                if elapsed_ms > job.timeout_ms:
                    self._finalize_locked(job, _DONE_TIMED_OUT, api.timeout(job.timeout_ms))
                else:
                    self._finalize_locked(job, _DONE_COMPLETED, verdict)
