"""Post-hoc analysis over run traces.

Everything here recomputes from the JSONL logs alone; nothing peeks at live
search state.  That keeps the numbers auditable: anyone holding the trace
files can reproduce every figure.
"""

from __future__ import annotations

import csv
import math
import statistics
import sys
from pathlib import Path

from .errors import ContractViolation, MixedConfigError, UndefinedMetric
from .trace import RunTrace

# Keys that legitimately differ between runs of one experiment.
_VOLATILE_CONFIG_KEYS = ("seed",)


def _comparable_config(trace: RunTrace) -> dict:
    config = dict(trace.header.get("config", {}))
    for key in _VOLATILE_CONFIG_KEYS:
        config.pop(key, None)
    return config


def ensure_uniform_configs(traces: list[RunTrace]) -> None:
    """Refuse to pool runs that were produced under different settings.

    Seeds are expected to differ; anything else differing means the curves
    would silently average apples with oranges.
    """
    if not traces:
        raise ContractViolation("no traces given")
    baseline = _comparable_config(traces[0])
    for trace in traces[1:]:
        candidate = _comparable_config(trace)
        if candidate != baseline:
            diff_keys = sorted(
                k
                for k in set(baseline) | set(candidate)
                if baseline.get(k) != candidate.get(k)
            )
            raise MixedConfigError(
                f"trace {trace.header.get('run_id')!r} disagrees on config keys {diff_keys}"
            )


def run_end(trace: RunTrace) -> dict:
    for event in reversed(trace.events):
        if event.get("type") == "run_end":
            return event
    raise ContractViolation(f"trace {trace.header.get('run_id')!r} has no run_end event")


def proved(trace: RunTrace) -> bool:
    return run_end(trace).get("outcome") == "proved"


def run_success_rate(traces: list[RunTrace]) -> float:
    if not traces:
        raise ContractViolation("no traces given")
    return sum(1 for t in traces if proved(t)) / len(traces)


def pass_at_k_curve(traces: list[RunTrace]) -> list[tuple[int, float]]:
    """Fraction of problems solved within the first k runs, for each k.

    Runs are grouped by problem and ordered by run index, so pass@k uses
    the same prefix of attempts for every problem; the curve is therefore
    monotone in k by construction.  k ranges up to the smallest run count
    any problem has, keeping every point an average over all problems.
    """
    ensure_uniform_configs(traces)
    by_problem: dict[str, list[RunTrace]] = {}
    for trace in traces:
        by_problem.setdefault(trace.header["problem"], []).append(trace)
    for runs in by_problem.values():
        runs.sort(key=lambda t: t.header.get("run_index", 0))
    max_k = min(len(runs) for runs in by_problem.values())
    if max_k == 0:
        raise ContractViolation("a problem has no runs")
    curve = []
    for k in range(1, max_k + 1):
        solved = sum(
            1 for runs in by_problem.values() if any(proved(t) for t in runs[:k])
        )
        curve.append((k, solved / len(by_problem)))
    return curve


def unbiased_pass_at_k(n: int, c: int, k: int) -> float:
    """Chance that k runs drawn without replacement from n, of which c
    succeeded, include a success: 1 - C(n-c, k) / C(n, k), the unbiased
    estimator of Chen et al. (arXiv:2107.03374).  It never falls as k
    grows, and it is 1 once fewer than k runs failed."""
    if not 0 <= c <= n or not 1 <= k <= n:
        raise ContractViolation(f"pass@k needs 0 <= c <= n and 1 <= k <= n, got n={n}, c={c}, k={k}")
    if n - c < k:
        return 1.0
    return 1.0 - math.comb(n - c, k) / math.comb(n, k)


def reduction_rate_curve(trace: RunTrace) -> list[dict]:
    """Per accepted decomposition: how much of the target's footprint the
    children retain, and the resulting reduction ratio.

    Iterations whose attempt was rejected contribute nothing; they are
    omitted rather than padded so the curve only shows real progress.
    """
    rows = []
    for event in trace.events:
        if event.get("type") != "decompose_attempt":
            continue
        if event.get("outcome") not in ("accepted_decomposition", "accepted_discharge"):
            continue
        score = event.get("score")
        if not score:
            continue
        for key in ("d_parent", "d_bar", "r"):
            # The reader takes integers of any size; the report divides and
            # prints these as floats.  NaN and the infinities fail here too.
            if not -sys.float_info.max <= score[key] <= sys.float_info.max:
                raise ContractViolation(
                    f"trace {trace.header.get('run_id')!r} iteration {event['iteration']}: "
                    f"score key {key!r} is past the float range"
                )
        d_parent = score["d_parent"]
        d_bar = score["d_bar"]
        remaining = d_bar / d_parent if d_parent > 0 else 0.0
        rows.append(
            {
                "iteration": event["iteration"],
                "target": event["target"],
                "d_parent": d_parent,
                "d_bar": d_bar,
                "remaining_fraction": remaining,
                "r": score["r"],
            }
        )
    return rows


def completion_sweeps_needed(trace: RunTrace) -> int:
    """Largest sweep index that closed a lemma (0 when stage one finished
    the whole proof)."""
    needed = 0
    for event in trace.events:
        if event.get("type") == "complete_attempt" and event.get("audit_ok") is True:
            needed = max(needed, event["attempt_index"])
    return needed


def success_vs_iterations(traces: list[RunTrace]) -> list[tuple[int, float]]:
    """Success rate as a function of the completion budget.

    A run counts as succeeding under budget j when it proved its goal and
    no closing attempt needed a sweep later than j.  Sweeps are strict
    prefixes of each other, so this truncation is exactly what rerunning
    with complete_iters = j would produce.
    """
    ensure_uniform_configs(traces)
    header = traces[0].header
    budget_cap = header["config"].get("complete_iters")
    if type(budget_cap) is not int:
        raise ContractViolation(f"trace {header['run_id']!r} config lacks an integer 'complete_iters'")
    outcomes = [(proved(t), completion_sweeps_needed(t)) for t in traces]
    curve = []
    for j in range(0, budget_cap + 1):
        wins = sum(1 for ok, needed in outcomes if ok and needed <= j)
        curve.append((j, wins / len(outcomes)))
    return curve


def best_root_score(trace: RunTrace) -> float:
    """The strongest decomposition score ever achieved against the root.

    Used as a cheap predictor of eventual success; runs whose every root
    attempt failed the gate sit at 0.0.
    """
    root = trace.header["problem"]
    best = 0.0
    for event in trace.events:
        if event.get("type") != "decompose_attempt" or event.get("target") != root:
            continue
        score = event.get("score")
        if score is not None:
            best = max(best, score["S"])
    return best


def auroc(scores: list[float], labels: list[bool]) -> float:
    """Probability a random positive outranks a random negative.

    Computed by rank statistics with average ranks, so tied scores credit
    half a win; degenerate label sets have no ranking to measure and raise
    instead of returning a misleading 0.5.
    """
    if len(scores) != len(labels):
        raise ContractViolation("scores and labels must align")
    n_pos = sum(1 for label in labels if label)
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetric("need both positive and negative labels")
    order = sorted(range(len(scores)), key=lambda i: scores[i])
    ranks = [0.0] * len(scores)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        # 1-based ranks; ties share the average of their rank block.
        average = (i + j) / 2 + 1
        for idx in order[i : j + 1]:
            ranks[idx] = average
        i = j + 1
    rank_sum_pos = sum(ranks[i] for i, label in enumerate(labels) if label)
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


def score_label_pairs(traces: list[RunTrace]) -> tuple[list[float], list[bool]]:
    scores = [best_root_score(t) for t in traces]
    labels = [proved(t) for t in traces]
    return scores, labels


def proof_stats(traces: list[RunTrace]) -> dict:
    """Aggregate outcome counts plus moments over the proved runs.

    Standard deviations are population ones: the runs analyzed are the
    whole population of interest, not a sample from something larger.
    """
    if not traces:
        raise ContractViolation("no traces given")
    ends = [run_end(t) for t in traces]
    stats: dict = {
        "runs": len(ends),
        "proved": sum(1 for e in ends if e["outcome"] == "proved"),
        "disproved": sum(1 for e in ends if e["outcome"] == "disproved"),
        "exhausted": sum(1 for e in ends if e["outcome"] == "exhausted"),
    }
    proved_ends = [e for e in ends if e["outcome"] == "proved"]

    def moments(key: str, values: list[int]) -> dict:
        try:
            return {
                "mean": statistics.fmean(values),
                "std": statistics.pstdev(values),
                "min": min(values),
                "max": max(values),
            }
        except OverflowError:
            # The reader takes integers of any size; a float holds less.
            raise ContractViolation(f"run_end {key!r} values are past the float range") from None

    if proved_ends:
        if any(e["lemma_count"] is None for e in proved_ends):
            raise ContractViolation("a proved run_end has lemma_count null")
        for key in ("lemma_count", "decompose_iterations", "complete_iterations"):
            stats[key] = moments(key, [e[key] for e in proved_ends])
        lines = [e["proof_lines"] for e in proved_ends if e.get("proof_lines") is not None]
        if lines:
            # Only external proofs have meaningful line counts; the builtin
            # one-word directive is skipped at the source.
            stats["proof_lines"] = moments("proof_lines", lines)
    return stats


def write_csv(path: str | Path, header: list[str], rows: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            if isinstance(row, dict):
                writer.writerow([row[col] for col in header])
            else:
                writer.writerow(list(row))
