"""Per-layer measurement from outside the program.

A workload talks to the program through a probe.  The plain probe calls the
public API directly and installs nothing.  The tracing probe wraps the
objects the benchmark hands to the program (checker, policy, transport,
pool factory), patches the module-level names the program calls through for
the duration of the traced pass, and records spans in memory: name, start,
end, parent span and goal.  Spans are turned into metrics once, at the end.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import json
import threading
import time
from pathlib import Path

import provekit.prover.builtin as builtin_mod
import provekit.prover.external as external_mod
import provekit.search as search_mod
from provekit import analytics
from provekit.errors import CheckerProtocolError
from provekit.lang import parse_goal, statement_key
from provekit.pool import VerificationPool
from provekit.prover import api
from provekit.quickcheck import Counterexample, quickcheck
from provekit.search import run_pass_k
from provekit.trace import parse_trace

from stats import Span, nearest_rank, self_times

KINDS = (api.KIND_DIRECT, api.KIND_RECONSTRUCTION, api.KIND_COMPLETION)
STATUSES = (api.ACCEPTED, api.REJECTED, api.TIMEOUT, api.CHECKER_ERROR)
MODES = (api.MODE_DECOMPOSE, api.MODE_COMPLETE)
REASONS = tuple(
    getattr(search_mod, name) for name in sorted(dir(search_mod)) if name.startswith("REASON_")
)

# Every per-layer metric, in report order, with its unit.
METRICS: dict[str, str] = {
    "lang.parse_ms": "ms",
    "lang.print_ms": "ms",
    "evaluator.decide_calls": "count",
    "evaluator.decide_unique": "count",
    "evaluator.repeat_ratio": "ratio",
    "evaluator.decide_ms": "ms",
    "evaluator.steps": "count",
    "evaluator.steps_per_s": "1/s",
    "evaluator.entail_calls": "count",
    "evaluator.entail_ms": "ms",
    "quickcheck.calls": "count",
    "quickcheck.unique": "count",
    "quickcheck.repeat_ratio": "ratio",
    "quickcheck.trials": "count",
    "quickcheck.ms": "ms",
    "quickcheck.trials_per_s": "1/s",
    **{f"prover.check.{k}.{s}": "count" for k in KINDS for s in STATUSES},
    **{f"prover.check_ms.{k}": "ms" for k in KINDS},
    "prover.wasted_ms": "ms",
    **{f"prover.policy_calls.{m}": "count" for m in MODES},
    "prover.policy_ms": "ms",
    "prover.external.requests": "count",
    "prover.external.rtt_ms_p50": "ms",
    "prover.external.rtt_ms_p90": "ms",
    "prover.external.overhead_ms_p50": "ms",
    "prover.external.errors": "count",
    "pool.submitted": "count",
    "pool.timed_out": "count",
    "pool.peak_in_flight": "count",
    "pool.roundtrip_ms_p50": "ms",
    "pool.roundtrip_ms_p90": "ms",
    "pool.wait_ms_p50": "ms",
    "search.runs": "count",
    "search.self_ms": "ms",
    "search.decompose_iters": "count",
    "search.complete_sweeps": "count",
    "search.accept_ratio": "ratio",
    **{f"search.rejections.{r}": "count" for r in REASONS},
    "search.fanout_overlap": "ratio",
    "trace.events": "count",
    "trace.bytes": "bytes",
    "trace.serialize_ms": "ms",
    "trace.parse_ms": "ms",
    "analytics.report_ms": "ms",
    "bench.trace_overhead_ratio": "ratio",
    "bench.ops_failed_ratio": "ratio",
}


def analytics_report(traces) -> None:
    """The reports a user draws from a sweep's traces."""
    analytics.pass_at_k_curve(traces)
    analytics.success_vs_iterations(traces)
    analytics.proof_stats(traces)
    for trace in traces:
        analytics.reduction_rate_curve(trace)


class Probe:
    """Untraced access to the program: every call goes straight through."""

    def parse(self, text: str):
        return parse_goal(text)

    def quickcheck(self, goal, config, domain):
        return quickcheck(goal, config, domain)

    def pass_k(self, goal, policy, checker, config, pool_factory=None, max_workers=None):
        return run_pass_k(
            goal, policy, checker, config, pool_factory=pool_factory, max_workers=max_workers
        )

    def serialize(self, trace) -> str:
        return trace.to_jsonl()

    def checker(self, checker):
        return checker

    def policy(self, policy):
        return policy

    def transport(self, transport):
        return transport

    def pool_factory(self, checker, config):
        return lambda: VerificationPool(checker, config)

    @contextlib.contextmanager
    def goal(self, index: int):
        yield

    @contextlib.contextmanager
    def installed(self):
        yield


class Tracer(Probe):
    """Records spans and counts at every layer boundary."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: collections.Counter = collections.Counter()
        self.samples: dict[str, list[float]] = collections.defaultdict(list)
        self.unique: dict[str, set] = collections.defaultdict(set)
        self.trace_texts: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._goal_index: int | None = None
        self._goal_span: int | None = None

    # -- spans ------------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        """Time a block.  Its parent is the innermost open span on this
        thread, or the current goal's span for work on pool and fan-out
        threads."""
        stack = self._stack()
        parent = stack[-1] if stack else self._goal_span
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end, self._goal_index))

    def _count(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def _sample(self, key: str, value: float) -> None:
        with self._lock:
            self.samples[key].append(value)

    def _key(self, metric: str, key) -> None:
        with self._lock:
            self.unique[metric].add(key)

    @contextlib.contextmanager
    def goal(self, index: int):
        self._goal_index = index
        with self.span("goal"):
            self._goal_span = self._stack()[-1]
            try:
                yield
            finally:
                self._goal_span = None
                self._goal_index = None

    # -- calls the benchmark makes itself ------------------------------------------

    def parse(self, text: str):
        with self.span("lang.parse"):
            return parse_goal(text)

    def pass_k(self, goal, policy, checker, config, pool_factory=None, max_workers=None):
        with self.span("search.pass_k"):
            return run_pass_k(
                goal, policy, checker, config, pool_factory=pool_factory, max_workers=max_workers
            )

    def serialize(self, trace) -> str:
        with self.span("trace.serialize"):
            text = trace.to_jsonl()
        self.trace_texts.append(text)
        return text

    # -- wrapped objects ----------------------------------------------------------

    def checker(self, checker):
        return TracedChecker(checker, self)

    def policy(self, policy):
        return TracedPolicy(policy, self)

    def transport(self, transport):
        return TracedTransport(transport, self)

    def pool_factory(self, checker, config):
        return lambda: TimedPool(checker, config, self)

    # -- module-level names -----------------------------------------------------------

    def quickcheck(self, goal, config, domain):
        with self.span("quickcheck"):
            outcome = quickcheck(goal, config, domain)
        self._count("quickcheck.calls")
        self._key("quickcheck.unique", (statement_key(goal), config, domain))
        trials = outcome.trial_index if isinstance(outcome, Counterexample) else outcome.trials_run
        self._count("quickcheck.trials", trials)
        return outcome

    @contextlib.contextmanager
    def installed(self):
        """Patch the names the program calls through; restore them after."""
        originals = {
            (search_mod, "quickcheck"): search_mod.quickcheck,
            (search_mod, "run_single"): search_mod.run_single,
            (search_mod, "print_goal"): search_mod.print_goal,
            (external_mod, "print_goal"): external_mod.print_goal,
            (builtin_mod, "decide_bounded"): builtin_mod.decide_bounded,
            (builtin_mod, "entailment_check"): builtin_mod.entailment_check,
        }
        run_single = search_mod.run_single
        print_goal = search_mod.print_goal
        decide_bounded = builtin_mod.decide_bounded
        entailment_check = builtin_mod.entailment_check

        def traced_run_single(*args, **kwargs):
            with self.span("search.run"):
                result, trace = run_single(*args, **kwargs)
            self._count("search.runs")
            self._count("search.decompose_iters", result.decompose_iterations)
            self._count("search.complete_sweeps", result.complete_iterations)
            return result, trace

        def traced_print_goal(goal):
            with self.span("lang.print"):
                return print_goal(goal)

        def traced_decide_bounded(goal, domain):
            with self.span("evaluator.decide"):
                verdict = decide_bounded(goal, domain)
            self._count("evaluator.decide_calls")
            self._count("evaluator.steps", verdict.steps_used)
            self._key("evaluator.decide_unique", (statement_key(goal), domain.node_budget))
            return verdict

        def traced_entailment_check(lemmas, goal, domain):
            with self.span("evaluator.entail"):
                holds = entailment_check(lemmas, goal, domain)
            self._count("evaluator.entail_calls")
            return holds

        search_mod.quickcheck = self.quickcheck
        search_mod.run_single = traced_run_single
        search_mod.print_goal = traced_print_goal
        external_mod.print_goal = traced_print_goal
        builtin_mod.decide_bounded = traced_decide_bounded
        builtin_mod.entailment_check = traced_entailment_check
        try:
            yield
        finally:
            for (module, name), value in originals.items():
                setattr(module, name, value)

    # -- report ------------------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """Every span as one JSON line, times in ms from the first span."""
        origin = min((span.start for span in self.spans), default=0.0)
        own = self_times(self.spans)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps({
                    "id": span.span_id,
                    "parent": span.parent,
                    "name": span.name,
                    "goal": span.goal,
                    "start_ms": (span.start - origin) * 1000.0,
                    "end_ms": (span.end - origin) * 1000.0,
                    "self_ms": own[span.span_id] * 1000.0,
                }) + "\n")

    def metrics(self, untraced_s: float, traced_s: float, failed_ratio: float) -> dict[str, float]:
        """Every per-layer metric; layers the workload does not use read 0."""
        traces = []
        if self.trace_texts:
            with self.span("trace.parse"):
                traces = [parse_trace(text) for text in self.trace_texts]
            with self.span("analytics.report"):
                analytics_report(traces)
        by_name: dict[str, list[Span]] = collections.defaultdict(list)
        for span in self.spans:
            by_name[span.name].append(span)

        def total_ms(name: str) -> float:
            return sum(s.duration for s in by_name[name]) * 1000.0

        out: dict[str, float] = {name: 0 for name in METRICS}
        c = self.counts
        out["lang.parse_ms"] = total_ms("lang.parse")
        out["lang.print_ms"] = total_ms("lang.print")

        calls = c["evaluator.decide_calls"]
        unique = len(self.unique["evaluator.decide_unique"])
        out["evaluator.decide_calls"] = calls
        out["evaluator.decide_unique"] = unique
        out["evaluator.repeat_ratio"] = 1.0 - unique / calls if calls else 0.0
        out["evaluator.decide_ms"] = total_ms("evaluator.decide")
        out["evaluator.steps"] = c["evaluator.steps"]
        if out["evaluator.decide_ms"]:
            out["evaluator.steps_per_s"] = c["evaluator.steps"] / (out["evaluator.decide_ms"] / 1000.0)
        out["evaluator.entail_calls"] = c["evaluator.entail_calls"]
        out["evaluator.entail_ms"] = total_ms("evaluator.entail")

        qc_calls = c["quickcheck.calls"]
        qc_unique = len(self.unique["quickcheck.unique"])
        out["quickcheck.calls"] = qc_calls
        out["quickcheck.unique"] = qc_unique
        out["quickcheck.repeat_ratio"] = 1.0 - qc_unique / qc_calls if qc_calls else 0.0
        out["quickcheck.trials"] = c["quickcheck.trials"]
        out["quickcheck.ms"] = total_ms("quickcheck")
        if out["quickcheck.ms"]:
            out["quickcheck.trials_per_s"] = c["quickcheck.trials"] / (out["quickcheck.ms"] / 1000.0)

        for kind in KINDS:
            for status in STATUSES:
                out[f"prover.check.{kind}.{status}"] = c[f"prover.check.{kind}.{status}"]
            out[f"prover.check_ms.{kind}"] = sum(self.samples[f"check_ms.{kind}"])
        out["prover.wasted_ms"] = sum(self.samples["wasted_ms"])
        for mode in MODES:
            out[f"prover.policy_calls.{mode}"] = c[f"prover.policy_calls.{mode}"]
        out["prover.policy_ms"] = total_ms("prover.policy")

        rtt = self.samples["rtt_ms"]
        out["prover.external.requests"] = c["prover.external.requests"]
        out["prover.external.rtt_ms_p50"] = nearest_rank(rtt, 0.5)
        out["prover.external.rtt_ms_p90"] = nearest_rank(rtt, 0.9)
        out["prover.external.overhead_ms_p50"] = nearest_rank(self.samples["overhead_ms"], 0.5)
        out["prover.external.errors"] = c["prover.external.errors"]

        roundtrip = self.samples["roundtrip_ms"]
        out["pool.submitted"] = c["pool.submitted"]
        out["pool.timed_out"] = c["pool.timed_out"]
        out["pool.peak_in_flight"] = c["pool.peak_in_flight"]
        out["pool.roundtrip_ms_p50"] = nearest_rank(roundtrip, 0.5)
        out["pool.roundtrip_ms_p90"] = nearest_rank(roundtrip, 0.9)
        out["pool.wait_ms_p50"] = nearest_rank(self.samples["pool_wait_ms"], 0.5)

        own = self_times(self.spans)
        runs = by_name["search.run"]
        out["search.runs"] = c["search.runs"]
        out["search.self_ms"] = sum(own[s.span_id] for s in runs) * 1000.0
        out["search.decompose_iters"] = c["search.decompose_iters"]
        out["search.complete_sweeps"] = c["search.complete_sweeps"]
        attempts = accepted = 0
        for trace in traces:
            for event in trace.events:
                if event.get("type") != "decompose_attempt":
                    continue
                attempts += 1
                reason = event.get("reason")
                if reason is None:
                    accepted += 1
                else:
                    key = f"search.rejections.{reason.split(':', 1)[0]}"
                    if key in out:
                        out[key] += 1
        out["search.accept_ratio"] = accepted / attempts if attempts else 0.0
        pass_k_s = sum(s.duration for s in by_name["search.pass_k"])
        if pass_k_s:
            out["search.fanout_overlap"] = sum(s.duration for s in runs) / pass_k_s

        out["trace.events"] = sum(len(t.events) + 1 for t in traces)
        out["trace.bytes"] = sum(len(text.encode()) for text in self.trace_texts)
        out["trace.serialize_ms"] = total_ms("trace.serialize")
        out["trace.parse_ms"] = total_ms("trace.parse")
        out["analytics.report_ms"] = total_ms("analytics.report")

        out["bench.trace_overhead_ratio"] = traced_s / untraced_s - 1.0 if untraced_s else 0.0
        out["bench.ops_failed_ratio"] = failed_ratio
        return out


class TracedChecker:
    """Delegating checker that times each check and counts it by kind and
    status."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def check(self, request, timeout_ms):
        start = time.perf_counter()
        with self.tracer.span("prover.check"):
            verdict = self.inner.check(request, timeout_ms)
        ms = (time.perf_counter() - start) * 1000.0
        t = self.tracer
        t._count(f"prover.check.{request.kind}.{verdict.status}")
        t._sample(f"check_ms.{request.kind}", ms)
        if verdict.status in (api.TIMEOUT, api.CHECKER_ERROR):
            t._sample("wasted_ms", ms)
        return verdict


class TracedPolicy:
    """Delegating policy; forks stay wrapped because every run forks."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def propose_decomposition(self, context):
        self.tracer._count(f"prover.policy_calls.{api.MODE_DECOMPOSE}")
        with self.tracer.span("prover.policy"):
            return self.inner.propose_decomposition(context)

    def propose_completion(self, context):
        self.tracer._count(f"prover.policy_calls.{api.MODE_COMPLETE}")
        with self.tracer.span("prover.policy"):
            return self.inner.propose_completion(context)

    def fork(self, seed):
        return TracedPolicy(self.inner.fork(seed), self.tracer)


class TracedTransport:
    """Delegating wire transport: round-trip time per request, and the part
    of it the peer did not report as its own service time."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def request(self, payload, timeout_s):
        t = self.tracer
        t._count("prover.external.requests")
        start = time.perf_counter()
        try:
            with t.span("prover.external.rtt"):
                response = self.inner.request(payload, timeout_s)
        except CheckerProtocolError:
            t._count("prover.external.errors")
            raise
        rtt = (time.perf_counter() - start) * 1000.0
        t._sample("rtt_ms", rtt)
        service = response.get("service_ms")
        if isinstance(service, (int, float)):
            t._sample("overhead_ms", rtt - service)
        if response.get("status") == "error":
            t._count("prover.external.errors")
        return response

    def close(self):
        self.inner.close()


class TimedPool:
    """Delegating verification pool: submit-to-verdict time per job, and how
    much of it the job spent waiting rather than being checked."""

    def __init__(self, checker, config, tracer: Tracer):
        self.tracer = tracer
        self._lock = threading.Lock()
        self._submitted: dict[str, tuple[float, object]] = {}
        self._check_ms: dict[int, float] = {}
        self.inner = VerificationPool(_TimedCheck(checker, self), config)

    def _checked(self, request, ms: float) -> None:
        with self._lock:
            self._check_ms[id(request)] = ms

    def submit(self, request, timeout_ms=None):
        handle = self.inner.submit(request, timeout_ms=timeout_ms)
        self._submitted[handle.job_id] = (time.perf_counter(), request)
        return handle

    def await_verdict(self, handle):
        with self.tracer.span("pool.await"):
            verdict = self.inner.await_verdict(handle)
        submitted_at, request = self._submitted.pop(handle.job_id)
        roundtrip = (time.perf_counter() - submitted_at) * 1000.0
        self.tracer._sample("roundtrip_ms", roundtrip)
        with self._lock:
            check_ms = self._check_ms.pop(id(request), None)
        if check_ms is not None:
            self.tracer._sample("pool_wait_ms", roundtrip - check_ms)
        return verdict

    def stats(self):
        return self.inner.stats()

    def shutdown(self):
        stats = self.inner.stats()
        t = self.tracer
        t._count("pool.submitted", stats.submitted)
        t._count("pool.timed_out", stats.timed_out)
        with t._lock:
            t.counts["pool.peak_in_flight"] = max(t.counts["pool.peak_in_flight"], stats.peak_in_flight)
        self.inner.shutdown()


class _TimedCheck:
    """The checker as the pool's workers see it: reports each check's own
    duration back to the pool wrapper.  The request stays referenced by the
    pool wrapper until its verdict is awaited, so its id is unique."""

    def __init__(self, checker, pool: TimedPool):
        self.checker = checker
        self.pool = pool

    def check(self, request, timeout_ms):
        start = time.perf_counter()
        verdict = self.checker.check(request, timeout_ms)
        self.pool._checked(request, (time.perf_counter() - start) * 1000.0)
        return verdict

