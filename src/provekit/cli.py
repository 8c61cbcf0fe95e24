"""Command-line front end.

Subcommands: run (two-stage search), qc (counterexample hunting), collect
(training data), pool-stats (verification pool exercise), analyze (trace
post-processing).  A JSON config file supplies any setting; each command
reads it once and writes its flags into it (``_FLAG_KEYS``), so explicit
flags beat the file and the file beats the defaults.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .analytics import (
    auroc,
    pass_at_k_curve,
    proof_stats,
    reduction_rate_curve,
    score_label_pairs,
    success_vs_iterations,
    write_csv,
)
from .config import (
    load_config_file,
    pool_config_from_sections,
    search_config_from_sections,
)
from .errors import ContractViolation, ProvekitError
from .lang import GoalDecl, parse_goal_file
from .pool import VerificationPool
from .prover import (
    KIND_DIRECT,
    BuiltinChecker,
    CheckRequest,
    ConjunctionSplitter,
    DirectSubmit,
    ExternalChecker,
    ExternalPolicy,
    QuantifierGrounder,
    StochasticPolicy,
    make_transport,
)
from .quickcheck import Counterexample, mix_seed, quickcheck
from .search import SearchConfig, run_pass_k
from .trace import read_text, read_trace_dir
from .training import collect, export_trajectories


def _load_goals(path: str, only: list[str] | None) -> list[GoalDecl]:
    goals = parse_goal_file(read_text(path))
    if only:
        by_name = {g.name: g for g in goals}
        missing = [name for name in only if name not in by_name]
        if missing:
            raise ContractViolation(f"no such goal(s) in {path}: {', '.join(missing)}")
        goals = [by_name[name] for name in only]
    if not goals:
        raise ContractViolation(f"{path} declares no goals")
    return goals


def _make_checker(spec: str, config: SearchConfig):
    if spec == "builtin":
        return BuiltinChecker(config.domain)
    return ExternalChecker(make_transport(spec))


def _make_policy(spec: str, config: SearchConfig):
    if spec == "builtin":
        return StochasticPolicy(config.seed, config.domain)
    if spec == "direct":
        return DirectSubmit()
    if spec == "split":
        return ConjunctionSplitter()
    if spec.startswith("split:"):
        try:
            return ConjunctionSplitter(depth=int(spec.split(":", 1)[1]))
        except ValueError:
            raise ContractViolation(f"policy {spec!r}: split depth must be an integer") from None
        except ContractViolation as exc:
            raise ContractViolation(f"policy {spec!r}: {exc}") from None
    if spec == "ground":
        return QuantifierGrounder(config.domain)
    return ExternalPolicy(make_transport(spec))


# Each flag's (section, key) in the config document.
_FLAG_KEYS = {
    "seed": ("search", "seed"),
    "k": ("search", "k_parallel"),
    "decompose_iters": ("search", "decompose_iters"),
    "complete_iters": ("search", "complete_iters"),
    "max_open_lemmas": ("search", "max_open_lemmas"),
    "wall_budget_secs": ("search", "wall_budget_secs"),
    "check_timeout": ("search", "check_timeout_ms"),
    "strategy": ("search", "target_strategy"),
    "qc_trials": ("qc", "trials"),
    "qc_seed": ("qc", "seed"),
    "workers": ("pool", "max_concurrent"),
}


def _config_document(args) -> dict:
    """The config file, read once, with every given flag written into its
    (section, key): the one source a command builds its configs from."""
    data = load_config_file(args.config) if args.config else {}
    for flag, (section, key) in _FLAG_KEYS.items():
        value = getattr(args, flag, None)
        if value is not None:
            data.setdefault(section, {})[key] = value
    return data


def cmd_run(args) -> int:
    document = _config_document(args)
    base = search_config_from_sections(document)
    goals = _load_goals(args.goals, args.goal)
    checker = _make_checker(args.checker, base)
    policy = _make_policy(args.policy, base)
    trace_dir = Path(args.trace_dir) if args.trace_dir else None
    if trace_dir:
        trace_dir.mkdir(parents=True, exist_ok=True)

    pool_factory = None
    if "pool" in document:  # from the file or from --workers
        pool_cfg = pool_config_from_sections(document)

        def pool_factory():
            return VerificationPool(checker, pool_cfg)

    all_solved = True
    for goal in goals:
        # Every problem gets its own seed stream; otherwise structurally
        # identical goals would rise or fall in lockstep.
        config = replace(base, seed=mix_seed(base.seed, goal.name))
        result = run_pass_k(goal, policy, checker, config, pool_factory=pool_factory)
        if trace_dir:
            for trace in result.traces:
                trace.write(trace_dir / f"{trace.header['run_id']}.jsonl")
        if result.disproved:
            witness = next(r.witness for r in result.runs if r.witness is not None)
            print(f"{goal.name}: disproved, witness {witness}")
            all_solved = False
        elif result.solved:
            first = result.runs[result.first_success_run - 1]
            print(
                f"{goal.name}: proved on run {result.first_success_run}/{config.k_parallel} "
                f"(lemmas={first.lemma_count}, "
                f"iters={first.decompose_iterations}+{first.complete_iterations})"
            )
        else:
            print(f"{goal.name}: exhausted after {config.k_parallel} run(s)")
            all_solved = False
    return 0 if all_solved else 2


def cmd_qc(args) -> int:
    config = search_config_from_sections(_config_document(args))
    goals = _load_goals(args.goals, args.goal)
    found = unsettled = False
    for goal in goals:
        outcome = quickcheck(goal, config.qc, config.domain)
        if isinstance(outcome, Counterexample):
            found = True
            print(f"{goal.name}: counterexample at trial {outcome.trial_index}: {outcome.witness}")
        elif outcome.trials_run < config.qc.trials:
            # Quickcheck stops early only when a trial runs out of node budget.
            unsettled = True
            print(
                f"{goal.name}: stopped after {outcome.trials_run} of {config.qc.trials} trials: "
                "node budget ran out"
            )
        else:
            print(f"{goal.name}: no counterexample in {outcome.trials_run} trials")
    return 1 if found else 2 if unsettled else 0


def cmd_collect(args) -> int:
    config = search_config_from_sections(_config_document(args))
    goals = _load_goals(args.goals, args.goal)
    checker = _make_checker(args.checker, config)
    policy = _make_policy(args.policy, config)
    fallback = _make_policy(args.fallback_policy, config) if args.fallback_policy else None
    records, curriculum, stats = collect(
        goals,
        policy,
        checker,
        config,
        fallback=fallback,
        n_problems=args.n_problems,
        n_rollouts=args.n_rollouts,
        replay_ratio=args.replay_ratio,
    )
    count = export_trajectories(records, args.out)
    print(
        f"sampled {stats.problems_sampled} problems: kept {stats.groups_kept} groups, "
        f"dropped {stats.groups_dropped}; wrote {count} records "
        f"({stats.decomposition_records} decomposition, {stats.completion_records} completion) "
        f"to {args.out}; curriculum gained {stats.curriculum_added} goals"
    )
    return 0


def cmd_pool_stats(args) -> int:
    document = _config_document(args)
    config = search_config_from_sections(document)
    goals = _load_goals(args.goals, args.goal)
    checker = _make_checker(args.checker, config)
    with VerificationPool(checker, pool_config_from_sections(document)) as pool:
        handles = []
        for _ in range(args.repeat):
            for goal in goals:
                request = CheckRequest(kind=KIND_DIRECT, goal=goal)
                handles.append(pool.submit(request, config.check_timeout_ms))
        for handle in handles:
            pool.await_verdict(handle)
        stats = pool.stats()
    payload = {**asdict(stats), "conserved": stats.conserved()}
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_analyze(args) -> int:
    if args.report == "passk":
        curve = pass_at_k_curve(read_trace_dir(args.traces))
        rows = [(k, rate) for k, rate in curve]
        if args.out:
            write_csv(args.out, ["k", "pass_rate"], rows)
        for k, rate in rows:
            print(f"pass@{k} = {rate:.4f}")
    elif args.report == "reduction":
        rows = []
        for trace in read_trace_dir(args.traces):
            run_id = trace.header.get("run_id")
            for row in reduction_rate_curve(trace):
                rows.append({"run_id": run_id, **row})
        header = ["run_id", "iteration", "target", "d_parent", "d_bar", "remaining_fraction", "r"]
        if args.out:
            write_csv(args.out, header, rows)
        for row in rows:
            print(
                f"{row['run_id']} iter {row['iteration']}: {row['target']} "
                f"remaining={row['remaining_fraction']:.4f} r={row['r']:.4f}"
            )
    elif args.report == "success":
        curve = success_vs_iterations(read_trace_dir(args.traces))
        if args.out:
            write_csv(args.out, ["complete_iters", "success_rate"], curve)
        for budget, rate in curve:
            print(f"budget {budget}: success {rate:.4f}")
    elif args.report == "auroc":
        scores, labels = score_label_pairs(read_trace_dir(args.traces))
        value = auroc(scores, labels)
        if args.out:
            write_csv(args.out, ["auroc"], [(value,)])
        print(f"auroc = {value:.4f}")
    elif args.report == "stats":
        stats = proof_stats(read_trace_dir(args.traces))
        print(json.dumps(stats, indent=2, sort_keys=True))
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown report {args.report!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="provekit",
        description="Hierarchical proof search over a bounded goal language.",
    )
    parser.add_argument("--config", help="JSON config file (sections: search, qc, score, domain, pool)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_search_flags(p) -> None:
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--qc-trials", type=int, default=None)
        p.add_argument("--qc-seed", type=int, default=None)

    run_p = sub.add_parser("run", help="run the two-stage search on each goal")
    run_p.add_argument("goals", help="goal declaration file")
    run_p.add_argument("--goal", action="append", help="restrict to this goal (repeatable)")
    run_p.add_argument("--k", type=int, default=None, help="independent runs per goal")
    run_p.add_argument("--decompose-iters", type=int, default=None)
    run_p.add_argument("--complete-iters", type=int, default=None)
    run_p.add_argument("--max-open-lemmas", type=int, default=None)
    run_p.add_argument("--wall-budget-secs", type=float, default=None)
    run_p.add_argument("--check-timeout", type=int, default=None, metavar="MS",
                       help="per-check budget in milliseconds")
    run_p.add_argument(
        "--strategy", choices=["highest-footprint", "highest-score"], default=None
    )
    run_p.add_argument("--checker", default="builtin", help="builtin | command line | http(s) URL")
    run_p.add_argument("--policy", default="builtin", help="builtin | direct | split[:N] | ground | command | URL")
    run_p.add_argument("--trace-dir", help="write one trace JSONL per run here")
    run_p.add_argument("--workers", type=int, default=None, help="verify through a pool this wide")
    add_search_flags(run_p)
    run_p.set_defaults(func=cmd_run)

    qc_p = sub.add_parser(
        "qc",
        help="quickcheck goals; exit 1 on any counterexample, else 2 if a goal ran out of "
        "node budget before its last trial",
    )
    qc_p.add_argument("goals", help="goal declaration file")
    qc_p.add_argument("--goal", action="append")
    qc_p.add_argument("--trials", dest="qc_trials", type=int, default=None)
    qc_p.add_argument("--seed", dest="qc_seed", type=int, default=None)
    qc_p.set_defaults(func=cmd_qc, seed=None)

    col_p = sub.add_parser("collect", help="sample rollouts and export training records")
    col_p.add_argument("goals", help="goal declaration file (the curriculum seed)")
    col_p.add_argument("--goal", action="append")
    col_p.add_argument("--out", required=True, help="trajectory JSONL path")
    col_p.add_argument("--n-problems", type=int, default=None)
    col_p.add_argument("--n-rollouts", type=int, default=8)
    col_p.add_argument("--replay-ratio", type=float, default=0.25)
    col_p.add_argument("--checker", default="builtin")
    col_p.add_argument("--policy", default="builtin")
    col_p.add_argument("--fallback-policy", default=None)
    col_p.add_argument("--check-timeout", type=int, default=None, metavar="MS")
    col_p.add_argument("--complete-iters", type=int, default=None)
    add_search_flags(col_p)
    col_p.set_defaults(func=cmd_collect)

    pool_p = sub.add_parser("pool-stats", help="push direct checks through the pool, print stats")
    pool_p.add_argument("goals", help="goal declaration file")
    pool_p.add_argument("--goal", action="append")
    pool_p.add_argument("--checker", default="builtin")
    pool_p.add_argument("--workers", type=int, default=None)
    pool_p.add_argument("--repeat", type=int, default=1)
    pool_p.add_argument("--check-timeout", type=int, default=None, metavar="MS")
    add_search_flags(pool_p)
    pool_p.set_defaults(func=cmd_pool_stats)

    ana_p = sub.add_parser("analyze", help="compute reports from trace files")
    ana_sub = ana_p.add_subparsers(dest="report", required=True)
    for name in ("passk", "reduction", "success", "auroc", "stats"):
        rp = ana_sub.add_parser(name)
        rp.add_argument("traces", help="trace file or directory")
        if name != "stats":
            rp.add_argument("--out", help="optional CSV output path")
        rp.set_defaults(func=cmd_analyze, report=name)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ProvekitError, OSError) as exc:  # OSError: a missing or unreadable input file
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
