"""Hierarchical proof search over a small bounded goal language.

The pipeline: parse goals, hunt counterexamples cheaply, decompose hard
goals into scored lemma trees, finish the leaves against a checker, and
mine the whole process for training data and analytics.
"""

from .errors import (
    BudgetExceeded,
    CheckerProtocolError,
    ContractViolation,
    EvalError,
    FilterViolation,
    MixedConfigError,
    ParseError,
    PolicyError,
    ProvekitError,
    QueueFull,
    UndefinedMetric,
    UnknownHandle,
)
from .evaluator import (
    DecisionVerdict,
    Domain,
    decide_bounded,
    entailment_check,
    eval_formula,
)
from .lang import GoalDecl, Sort, operator_footprint, parse_goal, parse_goal_file, print_goal
from .pool import JobHandle, PoolConfig, PoolStats, VerificationPool
from .quickcheck import Counterexample, NoCounterexample, QcConfig, mix_seed, quickcheck
from .scoring import (
    ScoreBreakdown,
    ScoreConfig,
    ValidityGate,
    decomposition_score,
    logsumexp_footprint,
    reduction_ratio,
)
from .search import (
    PassKResult,
    RunResult,
    SearchConfig,
    run_pass_k,
    run_single,
)
from .trace import RunTrace, parse_trace, read_trace, read_trace_dir

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded", "CheckerProtocolError", "ContractViolation", "EvalError",
    "FilterViolation", "MixedConfigError", "ParseError", "PolicyError",
    "ProvekitError", "QueueFull", "UndefinedMetric", "UnknownHandle",
    "DecisionVerdict", "Domain", "decide_bounded", "entailment_check",
    "eval_formula",
    "GoalDecl", "Sort", "operator_footprint", "parse_goal", "parse_goal_file",
    "print_goal",
    "JobHandle", "PoolConfig", "PoolStats", "VerificationPool",
    "Counterexample", "NoCounterexample", "QcConfig", "mix_seed", "quickcheck",
    "ScoreBreakdown", "ScoreConfig", "ValidityGate", "decomposition_score",
    "logsumexp_footprint", "reduction_ratio",
    "PassKResult", "RunResult", "SearchConfig", "run_pass_k",
    "run_single",
    "RunTrace", "parse_trace", "read_trace", "read_trace_dir",
    "__version__",
]
