"""Verification pool: admission, timeouts, conservation."""

from __future__ import annotations

import threading
import time
import weakref

import pytest

from provekit.errors import ContractViolation, UnknownHandle
from provekit.evaluator import Domain
from provekit.lang import parse_goal
import provekit.pool as pool_mod
from provekit.pool import JobHandle, PoolConfig, VerificationPool, _nearest_rank
from provekit.prover import (
    ACCEPTED,
    CHECKER_ERROR,
    KIND_DIRECT,
    TIMEOUT,
    BuiltinChecker,
    CheckRequest,
)
from provekit.prover import api


# The search's default check budget.
TIMEOUT_MS = 300_000


def _request(name: str = "t") -> CheckRequest:
    return CheckRequest(KIND_DIRECT, parse_goal(f"goal {name} (x: Int) := x + 0 = x"))


def wait_until(predicate, timeout=5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


class RecordingChecker:
    def __init__(self, delay_s: float = 0.0):
        self.delay_s = delay_s
        self.seen: list[str] = []
        self.timeouts: list[int] = []
        self._lock = threading.Lock()

    def check(self, request, timeout_ms):
        with self._lock:
            self.seen.append(request.goal.name)
            self.timeouts.append(timeout_ms)
        if self.delay_s:
            time.sleep(self.delay_s)
        return api.accepted()


class GatedChecker:
    """Parks every check of a goal named with ``prefix`` until released;
    lets tests pin in-flight counts."""

    def __init__(self, prefix: str = ""):
        self.prefix = prefix
        self.release = threading.Event()
        self.entered = 0
        self._lock = threading.Lock()

    def check(self, request, timeout_ms):
        with self._lock:
            self.entered += 1
        if request.goal.name.startswith(self.prefix):
            self.release.wait(timeout=10)
        return api.accepted()


class RaisingChecker:
    def check(self, request, timeout_ms):
        raise RuntimeError("backend fell over")


@pytest.mark.parametrize("kwargs", [{"max_concurrent": 0}])
def test_config_validation(kwargs):
    with pytest.raises(ContractViolation):
        PoolConfig(**kwargs)


def test_submit_rejects_a_timeout_below_one():
    with VerificationPool(RecordingChecker()) as pool:
        with pytest.raises(ContractViolation):
            pool.submit(_request(), timeout_ms=0)
        assert pool.stats().submitted == 0


def test_submit_await_roundtrip():
    with VerificationPool(BuiltinChecker(Domain())) as pool:
        handle = pool.submit(_request(), TIMEOUT_MS)
        verdict = pool.await_verdict(handle)
        assert verdict.status == ACCEPTED
        stats = pool.stats()
        assert stats.submitted == 1 and stats.completed == 1
        assert stats.conserved()


def test_single_worker_executes_fifo():
    checker = RecordingChecker()
    with VerificationPool(checker, PoolConfig(max_concurrent=1)) as pool:
        handles = [pool.submit(_request(f"g{i}"), TIMEOUT_MS) for i in range(6)]
        for handle in handles:
            pool.await_verdict(handle)
    assert checker.seen == [f"g{i}" for i in range(6)]


def test_unknown_handle_is_rejected():
    with VerificationPool(BuiltinChecker(Domain())) as pool:
        with pytest.raises(UnknownHandle):
            pool.await_verdict(JobHandle(job_id="job-999999"))


def test_checker_exceptions_become_checker_error_verdicts():
    with VerificationPool(RaisingChecker()) as pool:
        verdict = pool.await_verdict(pool.submit(_request(), TIMEOUT_MS))
        assert verdict.status == CHECKER_ERROR
        assert "RuntimeError" in verdict.diagnostics
        stats = pool.stats()
        assert stats.completed == 1  # an error verdict is still a completion
        assert stats.conserved()


def test_timeout_is_measured_from_submission():
    checker = RecordingChecker(delay_s=0.5)
    config = PoolConfig(max_concurrent=1)
    with VerificationPool(checker, config) as pool:
        start = time.monotonic()
        verdict = pool.await_verdict(pool.submit(_request(), timeout_ms=100))
        elapsed = time.monotonic() - start
        assert verdict.status == TIMEOUT
        assert elapsed < 0.45  # did not wait for the slow checker
        # The worker's late result must not flip the outcome.
        assert wait_until(lambda: pool.stats().in_flight == 0)
        stats = pool.stats()
        assert stats.timed_out == 1 and stats.completed == 0
        assert stats.conserved()

    # A job whose deadline passes while it waits in the queue never starts.
    checker = RecordingChecker(delay_s=0.5)
    with VerificationPool(checker, config) as pool:
        slow = pool.submit(_request("slow"), timeout_ms=100)
        start = time.monotonic()
        queued = pool.submit(_request("queued"), timeout_ms=50)
        assert pool.await_verdict(queued).status == TIMEOUT
        assert time.monotonic() - start < 0.45
        assert pool.await_verdict(slow).status == TIMEOUT
        assert checker.seen == ["slow"]
        stats = pool.stats()
        assert stats.timed_out == 2 and stats.queued == 0
        assert stats.conserved()


def test_a_stuck_check_does_not_block_the_queue():
    # Two slots: one parked job times out while the other keeps its slot,
    # and the queued job takes the freed slot while the parked check still
    # holds its thread.
    checker = GatedChecker(prefix="parked")
    config = PoolConfig(max_concurrent=2)
    with VerificationPool(checker, config) as pool:
        started = time.monotonic()
        first = pool.submit(_request("parked1"), timeout_ms=100)
        second = pool.submit(_request("parked2"), timeout_ms=5_000)
        third = pool.submit(_request("free"), timeout_ms=5_000)
        assert pool.await_verdict(first).status == TIMEOUT
        assert pool.await_verdict(third).status == ACCEPTED
        assert time.monotonic() - started < 0.5
        assert pool.stats().stuck >= 1  # served while a parked check holds its thread
        checker.release.set()
        assert pool.await_verdict(second).status == ACCEPTED
        stats = pool.stats()
        assert (stats.timed_out, stats.completed) == (1, 2)
        assert stats.conserved()


def test_no_job_starts_while_max_concurrent_threads_are_stuck():
    # Each job of 20 ms over a blocked checker is awaited before the next is
    # submitted.  Two stuck threads stop the pool from starting a third, so
    # the other eight time out in the queue, and the queue moves again once
    # the checker returns.
    checker = GatedChecker()
    samples = []
    with VerificationPool(checker, PoolConfig(max_concurrent=2)) as pool:
        for i in range(10):
            handle = pool.submit(_request(f"j{i}"), timeout_ms=20)
            samples.append(pool.stats())
            assert pool.await_verdict(handle).status == TIMEOUT
            samples.append(pool.stats())
        assert checker.entered == 2
        later = [pool.submit(_request(f"later{i}"), TIMEOUT_MS) for i in range(3)]
        samples.append(pool.stats())
        assert (samples[-1].queued, samples[-1].in_flight, samples[-1].stuck) == (3, 0, 2)
        checker.release.set()
        assert all(pool.await_verdict(handle).status == ACCEPTED for handle in later)
        assert wait_until(lambda: pool.stats().stuck == 0)
        samples.append(pool.stats())
    assert max(stats.stuck for stats in samples) == 2
    assert (samples[-1].timed_out, samples[-1].completed, samples[-1].queued) == (10, 3, 0)
    assert all(stats.conserved() for stats in samples)


def test_stuck_threads_stay_below_twice_max_concurrent():
    # Ten jobs submitted together: a job starts only while fewer than two
    # threads are stuck, and at most two run, so at most three get stuck.
    checker = GatedChecker()
    with VerificationPool(checker, PoolConfig(max_concurrent=2)) as pool:
        handles = [pool.submit(_request(f"j{i}"), timeout_ms=20) for i in range(10)]
        assert all(pool.await_verdict(handle).status == TIMEOUT for handle in handles)
        stats = pool.stats()
        checker.release.set()
    assert 2 <= stats.stuck <= 3
    assert stats.timed_out == 10 and stats.conserved()


def test_stuck_counts_threads_left_in_a_cut_short_check():
    checker = GatedChecker()
    config = PoolConfig(max_concurrent=1)
    samples = []

    def sample(pool):
        stats = pool.stats()
        samples.append(stats)
        return stats

    with VerificationPool(checker, config) as pool:
        assert pool.await_verdict(pool.submit(_request(), timeout_ms=100)).status == TIMEOUT
        assert sample(pool).stuck >= 1
        assert sample(pool).in_flight == 0
        checker.release.set()
        assert wait_until(lambda: sample(pool).stuck == 0)
        # The pool serves the next job.
        assert pool.await_verdict(pool.submit(_request(), timeout_ms=100)).status == ACCEPTED
        assert sample(pool).stuck == 0
    assert all(stats.conserved() for stats in samples)


def test_worker_threads_exit_after_shutdown():
    # Threads left by earlier tests may exit meanwhile, so compare sets.
    baseline = set(threading.enumerate())
    for _ in range(200):
        with VerificationPool(RecordingChecker(), PoolConfig(max_concurrent=4)) as pool:
            handles = [pool.submit(_request(f"j{i}"), TIMEOUT_MS) for i in range(4)]
            for handle in handles:
                assert pool.await_verdict(handle).status == ACCEPTED
    assert wait_until(lambda: set(threading.enumerate()) <= baseline)


def test_job_threads_exit_when_their_checks_return():
    # Before shutdown, the pool keeps no thread but those still in a check.
    checker = GatedChecker(prefix="parked")
    baseline = set(threading.enumerate())
    with VerificationPool(checker, PoolConfig(max_concurrent=4)) as pool:
        assert pool.await_verdict(pool.submit(_request("parked"), timeout_ms=100)).status == TIMEOUT
        for _ in range(50):
            handles = [pool.submit(_request(f"j{i}"), TIMEOUT_MS) for i in range(4)]
            for handle in handles:
                assert pool.await_verdict(handle).status == ACCEPTED
        assert wait_until(lambda: len(set(threading.enumerate()) - baseline) == 1)
        assert pool.stats().stuck == 1
        checker.release.set()
        assert wait_until(lambda: set(threading.enumerate()) <= baseline)
        assert pool.stats().stuck == 0


def test_each_job_gets_the_timeout_it_was_submitted_with():
    checker = RecordingChecker(delay_s=0.5)
    with VerificationPool(checker, PoolConfig(max_concurrent=2)) as pool:
        slow = pool.submit(_request("slow"), timeout_ms=60_000)
        tight = pool.submit(_request("tight"), timeout_ms=80)
        assert pool.await_verdict(tight).status == TIMEOUT  # its own budget, not a pool cap
        assert pool.await_verdict(slow).status == ACCEPTED
    assert sorted(checker.timeouts) == [80, 60_000]  # the checker gets the job's budget


def test_parked_jobs_pin_peak_in_flight_to_the_cap():
    checker = GatedChecker()
    config = PoolConfig(max_concurrent=3)
    with VerificationPool(checker, config) as pool:
        handles = [pool.submit(_request(f"g{i}"), TIMEOUT_MS) for i in range(7)]
        assert wait_until(lambda: pool.stats().in_flight == 3)
        assert pool.stats().peak_in_flight == 3
        checker.release.set()
        for handle in handles:
            pool.await_verdict(handle)
        stats = pool.stats()
        assert stats.peak_in_flight == 3  # the high-water mark persists
        assert stats.completed == 7
        assert stats.conserved()


def test_conservation_under_concurrent_snapshots():
    checker = RecordingChecker(delay_s=0.002)
    config = PoolConfig(max_concurrent=4)
    violations = []
    stop = threading.Event()

    def sampler(pool):
        while not stop.is_set():
            if not pool.stats().conserved():
                violations.append(pool.stats())
            time.sleep(0.001)

    with VerificationPool(checker, config) as pool:
        thread = threading.Thread(target=sampler, args=(pool,))
        thread.start()
        handles = [pool.submit(_request(f"g{i}"), TIMEOUT_MS) for i in range(60)]
        for handle in handles:
            pool.await_verdict(handle)
        stop.set()
        thread.join()
    assert violations == []


def test_submit_after_shutdown_is_refused():
    pool = VerificationPool(BuiltinChecker(Domain()))
    pool.shutdown()
    with pytest.raises(ContractViolation):
        pool.submit(_request(), TIMEOUT_MS)


def test_latency_quantiles_reported_after_completions():
    checker = RecordingChecker(delay_s=0.002)
    with VerificationPool(checker, PoolConfig(max_concurrent=2)) as pool:
        for _ in range(10):
            pool.await_verdict(pool.submit(_request(), TIMEOUT_MS))
        stats = pool.stats()
    assert stats.latency_ms_p50 is not None
    assert stats.latency_ms_p50 <= stats.latency_ms_p95 <= stats.latency_ms_p99


def test_nearest_rank_quantile_hand_cases():
    samples = [10.0, 20.0, 30.0, 40.0]
    assert _nearest_rank(samples, 0.50) == 20.0
    assert _nearest_rank(samples, 0.95) == 40.0
    assert _nearest_rank(samples, 0.25) == 10.0
    assert _nearest_rank([7.5], 0.99) == 7.5
    # Against an offline recomputation over a bigger synthetic sample.
    big = sorted(float((i * 37) % 101) for i in range(1000))
    for q in (0.5, 0.95, 0.99):
        import math

        expected = big[max(1, math.ceil(q * len(big))) - 1]
        assert _nearest_rank(big, q) == expected


def test_empty_pool_reports_no_latencies():
    with VerificationPool(BuiltinChecker(Domain())) as pool:
        stats = pool.stats()
    assert stats.latency_ms_p50 is None
    assert stats.submitted == 0
    assert stats.conserved()


def test_bookkeeping_stays_bounded_after_many_jobs(monkeypatch):
    monkeypatch.setattr(pool_mod, "_LATENCY_SAMPLES", 16)
    with VerificationPool(RecordingChecker(), PoolConfig(max_concurrent=4)) as pool:
        handles = [pool.submit(_request(f"j{i}"), TIMEOUT_MS) for i in range(200)]
        for handle in handles:
            assert pool.await_verdict(handle).status == ACCEPTED
        assert not pool._queue and not pool._running
        assert len(pool._latencies) == 16
        stats = pool.stats()
        assert pool.await_verdict(handles[0]).status == ACCEPTED  # a second await
    assert stats.submitted == stats.completed == 200
    assert stats.conserved()


def test_a_finished_job_nobody_awaits_is_not_kept():
    requests = [_request(f"j{i}") for i in range(50)]
    refs = [weakref.ref(request) for request in requests]
    with VerificationPool(RecordingChecker(), PoolConfig(max_concurrent=4)) as pool:
        handles = [pool.submit(request, TIMEOUT_MS) for request in requests]
        del requests
        assert wait_until(lambda: pool.stats().completed == 50)
        del handles
        assert all(ref() is None for ref in refs)
        assert pool.stats().conserved()


def test_a_handle_from_another_pool_is_unknown():
    with VerificationPool(RecordingChecker()) as first, VerificationPool(RecordingChecker()) as second:
        handle = first.submit(_request(), TIMEOUT_MS)
        with pytest.raises(UnknownHandle):
            second.await_verdict(handle)
        verdict = first.await_verdict(handle)
        assert verdict.status == ACCEPTED
        assert first.await_verdict(handle) is verdict
