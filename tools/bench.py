#!/usr/bin/env python3
"""A/B the benchmark between a base revision and the working tree.

    tools/bench.py compare --base <rev> --workload W --pairs N --seed-base K

The base revision is checked out with ``git worktree add`` into a temporary
directory, which is removed at the end.  Pair i runs
``python3 perfbench/run.py --trace 0`` on seed K + i in both trees, the two
sides taking turns to go first.  The run length, the end-to-end metrics,
their directions and bounds come from ``BENCHMARK.json``.  The table's
first line counts the runs that read ``correct`` and the operations that
failed on each side.  For each metric the table gives both medians, the
base's interquartile range and the pairs in which the working tree read
better, then the verdict:

* ``better`` when the working tree reads better in at least nine tenths of
  the pairs (ties count for neither side) and the medians lie further apart
  than the base's interquartile range.  No metric is called better when a
  run is not ``correct`` or the working tree fails a larger share of its
  operations than the base;
* ``WORSE`` when the working tree's median is worse than the base's by more
  than the metric's bound;
* ``unresolved`` when the base's interquartile range is wider than the
  bound, unless every working-tree run beats every base run;
* ``within bound`` otherwise.

Run from anywhere inside the checkout.  Nothing is imported from
``perfbench/``: its output is read as text.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLAIM_SHARE = 0.9  # a gain must show in this share of the pairs
STDERR_TAIL = 20  # lines of a failed run's stderr shown with its error


@dataclass(frozen=True)
class Metric:
    name: str
    better: str  # "higher" or "lower"
    bound: float  # the share by which the median may worsen


@dataclass(frozen=True)
class Run:
    correct: bool
    attempted: int
    failed: int
    values: dict[str, float]


def load_metrics(benchmark: dict) -> list[Metric]:
    """The end-to-end metrics a ``BENCHMARK.json`` document declares."""
    return [Metric(m["name"], m["better"], m["bound"]) for m in benchmark["end_to_end"]]


def parse_run(stdout: str) -> Run:
    """The result of one ``run.py`` invocation: its last line of output,
    which must be a result line."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("run.py printed nothing")
    try:
        result = json.loads(lines[-1])
        return Run(
            correct=result["correct"],
            attempted=result["attempted"],
            failed=result["failed"],
            values={name: entry["value"] for name, entry in result["metrics"].items()},
        )
    except (ValueError, KeyError, TypeError, AttributeError):
        raise ValueError(f"run.py's last line is no result: {lines[-1][:200]}") from None


def run_result(out: subprocess.CompletedProcess, tree: Path) -> Run:
    """The run a finished ``run.py`` reports.  It exits 1 both when a check
    failed and when it crashed, so unless it exited 0 or 1 with a result
    line last, the error names the command, its exit code and the tail of
    its stderr."""
    try:
        if out.returncode in (0, 1):
            return parse_run(out.stdout)
        problem = "no result read"
    except ValueError as exc:
        problem = str(exc)
    tail = "\n".join(out.stderr.strip().splitlines()[-STDERR_TAIL:])
    command = " ".join(map(str, out.args))
    raise RuntimeError(f"{command} in {tree} exited {out.returncode}: {problem}\n{tail}")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


@dataclass(frozen=True)
class Verdict:
    base_median: float
    head_median: float
    base_iqr: float
    wins: int
    pairs: int
    verdict: str


def judge(metric: Metric, base: list[float], head: list[float], claimable: bool = True) -> Verdict:
    """Apply the claim rule and the metric's bound to paired samples.

    ``claimable`` is false when the runs cannot support a gain (see
    ``can_claim``); the verdict is then never ``better``.
    """
    if len(base) != len(head) or not base:
        raise ValueError("want the same positive number of samples on each side")
    sign = 1.0 if metric.better == "higher" else -1.0
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    b1, base_median, b3 = quartiles(base)
    head_median = quartiles(head)[1]
    gain = sign * (head_median - base_median)
    allowed = metric.bound * abs(base_median)
    if claimable and wins >= CLAIM_SHARE * len(base) and gain > b3 - b1:
        verdict = "better"
    elif -gain > allowed:
        verdict = "WORSE"
    elif b3 - b1 > allowed and min(sign * h for h in head) <= max(sign * b for b in base):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return Verdict(base_median, head_median, b3 - b1, wins, len(base), verdict)


def _failed_share(runs: list[Run]) -> float:
    attempted = sum(r.attempted for r in runs)
    return sum(r.failed for r in runs) / attempted if attempted else 0.0


def can_claim(base: list[Run], head: list[Run]) -> bool:
    """Whether the runs can support a gain: every run is correct and the
    working tree fails no larger share of its operations than the base."""
    return all(r.correct for r in base + head) and _failed_share(head) <= _failed_share(base)


def format_table(workload: str, metrics: list[Metric], base: list[Run], head: list[Run]) -> str:
    ok = can_claim(base, head)
    rows = [
        f"{workload}: {len(base)} pairs; correct {sum(r.correct for r in base)}/{len(base)} base, "
        f"{sum(r.correct for r in head)}/{len(head)} head; failed {sum(r.failed for r in base)}/"
        f"{sum(r.attempted for r in base)} base, {sum(r.failed for r in head)}/"
        f"{sum(r.attempted for r in head)} head"
        + ("" if ok else "; no metric can be called better"),
        "| metric | base median | head median | change | base IQR | better in | verdict |",
        "|---|---|---|---|---|---|---|",
    ]
    for metric in metrics:
        v = judge(metric, [r.values[metric.name] for r in base], [r.values[metric.name] for r in head], ok)
        change = (v.head_median / v.base_median - 1.0) * 100.0 if v.base_median else float("nan")
        rows.append(
            f"| {metric.name} | {v.base_median:.4g} | {v.head_median:.4g} | {change:+.1f} % | "
            f"{v.base_iqr:.3g} | {v.wins}/{v.pairs} | {v.verdict} |"
        )
    return "\n".join(rows)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> Run:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    return run_result(subprocess.run(argv, cwd=tree, capture_output=True, text=True), tree)


def compare(args: argparse.Namespace) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = load_metrics(benchmark)
    base_runs: list[Run] = []
    head_runs: list[Run] = []
    with tempfile.TemporaryDirectory(prefix="bench-base-") as parent:
        base_tree = Path(parent) / "base"
        subprocess.run(["git", "worktree", "add", "--detach", str(base_tree), args.base],
                       cwd=ROOT, check=True, capture_output=True)
        try:
            for i in range(args.pairs):
                seed = args.seed_base + i
                sides = [(base_tree, base_runs), (ROOT, head_runs)]
                for tree, runs in sides if i % 2 == 0 else sides[::-1]:
                    runs.append(run_once(tree, args.workload, seed, benchmark["run_seconds"]))
                for side, run in (("base", base_runs[-1]), ("head", head_runs[-1])):
                    values = " ".join(f"{m.name}={run.values[m.name]:.4g}" for m in metrics)
                    print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: correct={run.correct} "
                          f"attempted={run.attempted} failed={run.failed} {values}", file=sys.stderr, flush=True)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(base_tree)],
                           cwd=ROOT, check=True, capture_output=True)
    print(format_table(args.workload, metrics, base_runs, head_runs))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    cmp_p = sub.add_parser("compare", help="alternate pairs of runs against a base revision")
    cmp_p.add_argument("--base", required=True, help="git revision to compare against")
    cmp_p.add_argument("--workload", required=True)
    cmp_p.add_argument("--pairs", type=int, default=10)
    cmp_p.add_argument("--seed-base", type=int, required=True,
                       help="pair i runs seed K + i; pick seeds not used while writing the change")
    cmp_p.set_defaults(func=compare)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
