"""provekit benchmark: one workload per invocation.

    python3 perfbench/run.py --workload passk_builtin --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics over ``--seconds`` of goal
time.  ``--trace 1`` runs a fixed prefix of the goal stream untraced, traced
and untraced again, and reports the per-layer metrics.  Both check every output.
The last line of standard output is the JSON result; the line before it
holds the run's metadata.

``--reference`` runs the fixed 50-goal pass@k sweep at the default node
budget and checks its outcome counts and trace digest.  Run from the root of
a checkout; the program is imported from ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import HostClock, kernel_seconds, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS = ROOT / "tests"  # the test-side goal generator, corpus.py
EXPECTED = HERE / "expected.json"
SPANS_DIR = ROOT / ".perfbench"  # where a traced run writes its spans
SETUP_REPEATS = 7
DEFAULT_SEED = 0


def _use_source_tree() -> None:
    """Import the program from the checkout, in this process and in the
    stub peer it starts, and the goal generator from the tests."""
    if not (SRC / "provekit").is_dir():
        sys.exit(f"error: no provekit sources under {SRC}")
    if not (CORPUS / "corpus.py").is_file():
        sys.exit(f"error: no goal generator at {CORPUS / 'corpus.py'}")
    sys.path[:0] = [str(SRC), str(CORPUS)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )


def git_commit() -> str:
    """The checked-out commit, read from the git directory if there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(workload_name: str, seed: int, probe):
    """Everything before the first goal is issued: goal generation and,
    for the external workload, the stub peer."""
    from workloads import WORKLOADS, goal_batches

    workload = WORKLOADS[workload_name]()
    batches = goal_batches(workload.stream(seed), workload.chunk)
    first = next(batches)
    workload.open(probe)
    return workload, batches, first


def setup_probe(workload_name: str, seed: int) -> None:
    from layers import Probe

    workload, _, _ = setup(workload_name, seed, Probe())
    try:
        print("ready", flush=True)
    finally:
        workload.close()


class SetupSampler:
    """Process start to first goal issued, in fresh interpreters.

    The host's speed drifts over seconds, so the samples are spread over the
    run at even steps of goal time, between batches and outside the timed
    region, rather than taken back to back."""

    def __init__(self, workload_name: str, seed: int, seconds: float) -> None:
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
                     "--seed", str(seed), "--setup-probe"]
        self.step = seconds / SETUP_REPEATS
        self.samples: list[float] = []
        self.scaled: list[float] = []

    def __call__(self, busy: float) -> None:
        """Take the samples due after ``busy`` seconds of goal time."""
        while len(self.samples) < SETUP_REPEATS and busy >= len(self.samples) * self.step:
            self.samples.append(self.sample())

    def finish(self) -> list[float]:
        while len(self.samples) < SETUP_REPEATS:
            self.samples.append(self.sample())
        return self.samples

    def sample(self) -> float:
        """One set-up time, raw; ``self.scaled`` gets it at the reference speed."""
        before = kernel_seconds()
        start = time.perf_counter()
        with subprocess.Popen(self.argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        self.scaled.append(elapsed * scale((before + kernel_seconds()) / 2.0))
        return elapsed


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())


def check_digest(name: str, seed: int, results) -> str | None:
    """Compare the default seed's first goals with the recorded values."""
    from workloads import digest, outcome_counts

    ref = load_expected().get(name)
    if ref is None or seed != ref["seed"]:
        return None
    if len(results) < ref["goals"]:
        return f"only {len(results)} goals, fewer than the {ref['goals']} recorded"
    prefix = results[: ref["goals"]]
    if outcome_counts(prefix) != ref["outcomes"]:
        return f"outcome counts {outcome_counts(prefix)} != recorded {ref['outcomes']}"
    if digest(prefix) != ref["sha256"]:
        return "trace digest differs from the recorded one"
    return "ok"


def emit(meta: dict, correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def failure_notes(results) -> list[str]:
    return [f"{r.name}: {r.error or r.failures}" for r in results if not r.ok][:5]


def run_untraced(args, meta: dict) -> tuple[bool, int, int, dict, dict]:
    from layers import Probe
    from stats import tail
    from workloads import drive

    sampler = SetupSampler(args.workload, args.seed, args.seconds)
    sampler(0.0)
    workload, batches, first = setup(args.workload, args.seed, Probe())
    records = workload.trace_goals if workload.digest_checked else 0
    clock = HostClock()
    try:
        # At least the recorded prefix, so the digest check always runs.
        results = drive(workload, batches, first, seconds=args.seconds,
                        count=records, records=records, between_batches=sampler,
                        clock=clock)
    finally:
        workload.close()
    sampler.finish()
    failed = sum(1 for r in results if not r.ok)
    digest_status = check_digest(workload.name, args.seed, results) if workload.digest_checked else None
    if digest_status not in (None, "ok"):
        failed += 1

    def summary(latencies_ms: list[float], setup: list[float]) -> dict:
        t = tail(latencies_ms, ladder=workload.tail_ladder)
        return {
            "setup_s": statistics.median(setup),
            "goals_per_s": 1000.0 * len(latencies_ms) / sum(latencies_ms),
            "verdict_p50_ms": statistics.median(latencies_ms),
            "verdict_tail_ms": t.value,
        }

    raw = [r.latency_s * 1000.0 for r in results]
    scales = clock.scales()
    t = tail(raw, ladder=workload.tail_ladder)
    meta.update(
        goals=len(results),
        setup_samples_s=sampler.samples,
        p50_samples=len(raw),
        tail_percentile=t.percentile,
        tail_samples=t.samples,
        tail_beyond=t.beyond,
        raw=summary(raw, sampler.samples),
        host_scale_median=statistics.median(scales),
        host_readings=len(clock.marks),
        digest=digest_status,
        failures=failure_notes(results),
    )
    metrics = summary([ms * k for ms, k in zip(raw, scales)], sampler.scaled)
    metrics["peak_rss_mb"] = peak_rss_mb()
    units = {"setup_s": "s", "goals_per_s": "1/s", "verdict_p50_ms": "ms",
             "verdict_tail_ms": "ms", "peak_rss_mb": "MB"}
    return failed == 0, len(results), failed, metrics, units


def run_traced(args, meta: dict) -> tuple[bool, int, int, dict, dict]:
    from layers import METRICS, Probe, Tracer
    from workloads import WORKLOADS, drive

    workload = WORKLOADS[args.workload]()
    stream = workload.stream(args.seed)
    goals = [next(stream) for _ in range(workload.trace_goals)]

    def one_pass(probe, **kwargs):
        workload.open(probe)
        try:
            return drive(workload, iter(()), goals, count=len(goals), **kwargs)
        finally:
            workload.close()

    # Untraced passes on both sides of the traced one, so warm-up does not
    # count against either side of the overhead ratio.  The checks run on the
    # first pass, where no wrapper is installed.
    plain = one_pass(Probe(), records=len(goals) if workload.digest_checked else 0,
                     keep_witnesses=True)
    tracer = Tracer()
    with tracer.installed():
        traced = one_pass(tracer, verify=False, keep_witnesses=True)
    plain_again = one_pass(Probe(), verify=False, keep_witnesses=True)
    for a, b, c in zip(plain, traced, plain_again):
        if not (a.outcomes, a.witnesses) == (b.outcomes, b.witnesses) == (c.outcomes, c.witnesses):
            b.failures.append("traced and untraced passes disagree")
    failed = sum(1 for r in plain + traced if not r.ok)
    digest_status = check_digest(workload.name, args.seed, plain) if workload.digest_checked else None
    if digest_status not in (None, "ok"):
        failed += 1
    attempted = len(plain) + len(traced) + len(plain_again)
    metrics = tracer.metrics(
        untraced_s=sum(r.latency_s for r in plain + plain_again) / 2,
        traced_s=sum(r.latency_s for r in traced),
        failed_ratio=failed / attempted,
    )
    spans = SPANS_DIR / f"spans-{workload.name}-s{args.seed}.jsonl"
    tracer.write_spans(spans)
    meta.update(goals=len(goals), digest=digest_status, failures=failure_notes(plain + traced),
                spans=str(spans.relative_to(ROOT)))
    return failed == 0, attempted, failed, metrics, METRICS


def reference_goals():
    """The fixed sweep: 40 random goals and ten 6-wide conjunctions."""
    import goalgen

    trees = [goalgen.random_goal(s, f"g{s}") for s in range(40)]
    trees += [goalgen.wide_conjunction_goal(f"w{i}", 6) for i in range(10)]
    return [goalgen.as_goal(tree, DEFAULT_SEED) for tree in trees]


def run_reference():
    """The fixed sweep at the default domain, per-goal seed mix_seed(0, name)."""
    from layers import Probe
    from provekit.evaluator import Domain
    from workloads import PassKBuiltin, drive

    goals = reference_goals()
    workload = PassKBuiltin(domain=Domain())
    workload.open(Probe())
    return drive(workload, iter(()), goals, count=len(goals), records=len(goals))


def run_prefix(name: str):
    """The default seed's traced prefix, untraced."""
    from layers import Probe
    from workloads import WORKLOADS, drive

    workload = WORKLOADS[name]()
    stream = workload.stream(DEFAULT_SEED)
    goals = [next(stream) for _ in range(workload.trace_goals)]
    workload.open(Probe())
    try:
        return drive(workload, iter(()), goals, count=len(goals), records=len(goals))
    finally:
        workload.close()


def reference(meta: dict) -> int:
    from workloads import digest, outcome_counts

    start = time.perf_counter()
    results = run_reference()
    elapsed = time.perf_counter() - start
    ref = load_expected()["reference"]
    counts = outcome_counts(results)
    failed = sum(1 for r in results if not r.ok)
    ok = failed == 0 and counts == ref["outcomes"] and digest(results) == ref["sha256"]
    meta.update(outcomes=counts, expected=ref["outcomes"], sha256=digest(results),
                elapsed_s=elapsed, failed=failed, failures=failure_notes(results))
    print(json.dumps({"meta": meta}, sort_keys=True))
    print("reference sweep matches" if ok else "reference sweep DIFFERS")
    return 0 if ok else 1


def record() -> int:
    """Rewrite expected.json from the current program.  Only for a change
    that alters traces on purpose; the diff of expected.json shows it."""
    from workloads import WORKLOADS, digest, outcome_counts

    expected = {}
    runs = {name: lambda name=name: run_prefix(name) for name, w in WORKLOADS.items() if w.digest_checked}
    runs["reference"] = run_reference
    for name, run in runs.items():
        results = run()
        if any(not r.ok for r in results):
            print(f"{name}: checks failed, nothing recorded: {failure_notes(results)}")
            return 1
        expected[name] = {
            "seed": DEFAULT_SEED,
            "goals": len(results),
            "outcomes": outcome_counts(results),
            "sha256": digest(results),
        }
    EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    print(json.dumps(expected, sort_keys=True))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="provekit benchmark")
    parser.add_argument("--workload", default="passk_builtin")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--reference", action="store_true",
                        help="run the fixed 50-goal sweep and check it against expected.json")
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json from the current program")
    args = parser.parse_args()
    _use_source_tree()

    from workloads import NPROC, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.record:
        return record()
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": NPROC,
        "commit": git_commit(),
        "params": WORKLOADS[args.workload]().params(),
    }
    if args.reference:
        return reference(meta)
    runner = run_traced if args.trace else run_untraced
    correct, attempted, failed, metrics, units = runner(args, meta)
    meta["peak_rss_mb"] = peak_rss_mb()
    emit(meta, correct, attempted, failed, metrics, units)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
