"""Seeded random testing: determinism, witness soundness, generator ranges
and the generator stream.  A fact the search gate settles from a
statement's sample space changes no outcome under any name, serially or
across threads, and leaves quickcheck itself drawing every trial."""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import provekit.quickcheck as quickcheck_mod
import provekit.search as search_mod
from corpus import random_goal, wide_conjunction_goal
from provekit.errors import BudgetExceeded, ContractViolation, EvalError
from provekit.evaluator import Budget, Domain, eval_formula
from provekit.lang import (
    Add,
    And,
    Eq,
    Forall,
    GoalDecl,
    IntLit,
    Lt,
    Mod,
    Not,
    Or,
    Sort,
    Sub,
    Var,
    conjunct_fringe,
    free_vars,
    parse_goal,
)
from provekit.quickcheck import (
    Counterexample,
    NoCounterexample,
    QcConfig,
    derive_rng,
    env_sampler,
    quickcheck,
)
from provekit.search import FACT_TABLE_SIZE

DOMAIN = Domain()


def test_identical_config_gives_identical_outcome():
    goal = parse_goal("goal neg (x: Int) := 0 <= x")
    cfg = QcConfig(trials=50, seed=0)
    assert quickcheck(goal, cfg, DOMAIN) == quickcheck(goal, cfg, DOMAIN)


def test_outcome_is_independent_of_call_order():
    a = parse_goal("goal a (x: Int) := 0 <= x")
    b = parse_goal("goal b (x: Int) := x <= 0")
    cfg = QcConfig(trials=30, seed=5)
    first_a = quickcheck(a, cfg, DOMAIN)
    first_b = quickcheck(b, cfg, DOMAIN)
    # Reversed order: each call derives its own generator state.
    assert quickcheck(b, cfg, DOMAIN) == first_b
    assert quickcheck(a, cfg, DOMAIN) == first_a


def test_goal_name_decorrelates_streams():
    r1 = derive_rng(0, "alpha")
    r2 = derive_rng(0, "beta")
    r3 = derive_rng(0, "alpha")
    first = r1.random()
    assert first == r3.random()
    assert first != r2.random()


def test_trial_index_is_one_based():
    goal = parse_goal("goal f := 0 = 1")
    out = quickcheck(goal, QcConfig(trials=10, seed=0), DOMAIN)
    assert out == Counterexample(witness={}, trial_index=1)


def test_valid_goal_reports_trials_run():
    goal = parse_goal("goal t (x: Int) := x + 0 = x")
    out = quickcheck(goal, QcConfig(trials=25, seed=3), DOMAIN)
    assert out == NoCounterexample(trials_run=25)


def test_evaluation_error_counts_as_counterexample():
    goal = parse_goal("goal e (x: Int) := x % 0 = 0")
    out = quickcheck(goal, QcConfig(trials=10, seed=0), DOMAIN)
    assert isinstance(out, Counterexample)
    assert out.trial_index == 1


BUDGET_BOUND = "goal g := forall a: IntList, forall b: IntList, a ++ b = a ++ b"


def test_budget_exhaustion_is_not_a_counterexample():
    # decide_bounded calls this goal resource_exceeded under this budget; a
    # trial that runs out of budget disproves nothing either.
    goal = parse_goal(BUDGET_BOUND)
    out = quickcheck(goal, QcConfig(trials=10, seed=0), Domain(node_budget=20_000))
    assert out == NoCounterexample(trials_run=0)


@pytest.mark.parametrize("seed", range(10))
def test_budget_exhaustion_stops_at_that_trial(seed):
    # A trial with x < 0 stays within the budget; the first other one runs
    # out of it and ends the search, counting only the trials before it.
    goal = parse_goal("goal h (x: Int) := x < 0 \\/ (forall a: Int, forall b: Int, a + b = b + a)")
    config = QcConfig(trials=50, seed=seed)
    draw = env_sampler(goal.binders, config, derive_rng(seed, goal.name))
    finished = 0
    while draw()["x"] < 0:
        finished += 1
    out = quickcheck(goal, config, Domain(node_budget=100))
    assert out == NoCounterexample(trials_run=finished)


def test_needle_in_haystack_detection_rate():
    # One falsifying point out of 201; 1000 trials find it with
    # probability about 0.993 per seed, so 20 seeds shouldn't miss often.
    goal = parse_goal("goal n (x: Int) := x != 37")
    found = sum(
        isinstance(quickcheck(goal, QcConfig(trials=1000, seed=s), DOMAIN), Counterexample)
        for s in range(20)
    )
    assert found >= 16


def test_inner_quantifiers_range_over_domain_not_generator():
    # Sampled x routinely falls outside [-5, 5], where no domain value of w
    # can equal it, so the mismatch surfaces immediately.
    goal = parse_goal("goal q (x: Int) := exists w: Int, w = x")
    out = quickcheck(goal, QcConfig(trials=200, seed=0), DOMAIN)
    assert isinstance(out, Counterexample)
    assert abs(out.witness["x"]) > DOMAIN.int_hi


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=5000), st.integers(min_value=0, max_value=50))
def test_witness_always_falsifies(goal_seed, qc_seed):
    goal = random_goal(goal_seed, "g", depth=2)
    domain = Domain(int_lo=-2, int_hi=2, max_list_len=2, elem_lo=-1, elem_hi=1)
    cfg = QcConfig(
        trials=40,
        seed=qc_seed,
        gen_int_lo=-2,
        gen_int_hi=2,
        gen_max_list_len=2,
        gen_elem_lo=-1,
        gen_elem_hi=1,
    )
    out = quickcheck(goal, cfg, domain)
    if isinstance(out, Counterexample):
        try:
            holds = eval_formula(goal.body, out.witness, domain)
        except EvalError:
            holds = False
        assert not holds


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_generated_values_respect_configured_ranges(seed):
    cfg = QcConfig(
        trials=1,
        seed=seed,
        gen_int_lo=-3,
        gen_int_hi=7,
        gen_max_list_len=4,
        gen_elem_lo=0,
        gen_elem_hi=2,
    )
    binders = (("x", Sort.INT), ("l", Sort.INT_LIST), ("y", Sort.INT))
    draw = env_sampler(binders, cfg, derive_rng(seed, "ranges"))
    for _ in range(20):
        env = draw()
        assert -3 <= env["x"] <= 7
        assert -3 <= env["y"] <= 7
        assert len(env["l"]) <= 4
        assert all(0 <= e <= 2 for e in env["l"])


def test_element_range_defaults_to_integer_range():
    cfg = QcConfig(trials=1, seed=0, gen_int_lo=5, gen_int_hi=6, gen_max_list_len=3)
    assert cfg.elem_lo == 5 and cfg.elem_hi == 6
    draw = env_sampler((("l", Sort.INT_LIST),), cfg, derive_rng(0, "default-elems"))
    for _ in range(20):
        env = draw()
        assert all(5 <= e <= 6 for e in env["l"])


def _randint_sampler(binders, config, rng):
    """The trial stream drawn with ``rng.randint``, which ``env_sampler`` must reproduce."""

    def draw():
        env = {}
        for name, sort in binders:
            if sort is Sort.INT:
                env[name] = rng.randint(config.gen_int_lo, config.gen_int_hi)
            else:
                length = rng.randint(0, config.gen_max_list_len)
                env[name] = tuple(rng.randint(config.elem_lo, config.elem_hi) for _ in range(length))
        return env

    return draw


MIXED = (("x", Sort.INT), ("l", Sort.INT_LIST), ("y", Sort.INT), ("m", Sort.INT_LIST))


@pytest.mark.parametrize(
    "config, binders",
    [
        (QcConfig(), MIXED),
        (QcConfig(gen_int_lo=4, gen_int_hi=4, gen_max_list_len=0), MIXED),
        (QcConfig(gen_int_lo=-7, gen_int_hi=300, gen_max_list_len=7, gen_elem_lo=0, gen_elem_hi=3), MIXED),
        (QcConfig(gen_int_lo=-(2**40), gen_int_hi=2**40, gen_elem_lo=-(2**33), gen_elem_hi=2**35), MIXED),
        # Each element is a 1-bit draw that is rejected half the time.
        (QcConfig(gen_max_list_len=8, gen_elem_lo=3, gen_elem_hi=3), MIXED),
        (QcConfig(), (("l", Sort.INT_LIST), ("m", Sort.INT_LIST))),
        # Both values of a repeated name are drawn, and the last is kept.
        (QcConfig(), (("x", Sort.INT), ("x", Sort.INT_LIST), ("l", Sort.INT_LIST), ("l", Sort.INT))),
    ],
    ids=["default", "one_value", "narrow_elements", "wider_than_2_32", "one_value_elements",
         "lists_only", "repeated_name"],
)
def test_sampler_stream_equals_randint(config, binders):
    # Witnesses and trial indices are pinned elsewhere through this stream;
    # a change in how CPython's randint draws from getrandbits fails here.
    for seed in range(10):
        rng, reference_rng = derive_rng(seed, "stream"), derive_rng(seed, "stream")
        draw = env_sampler(binders, config, rng)
        reference = _randint_sampler(binders, config, reference_rng)
        assert [draw() for _ in range(500)] == [reference() for _ in range(500)]
        assert rng.getstate() == reference_rng.getstate()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"trials": 0},
        {"trials": -3},
        {"gen_int_lo": 1, "gen_int_hi": 0},
        {"gen_max_list_len": -1},
        {"gen_elem_lo": 3, "gen_elem_hi": 1},
        {"gen_int_lo": 5, "gen_int_hi": 9, "gen_elem_lo": 10},
    ],
)
def test_bad_configs_are_rejected(kwargs):
    with pytest.raises(ContractViolation):
        QcConfig(**kwargs)


# --- facts the gate settles from the sample space --------------------------------


def named(statement: GoalDecl, name: str) -> GoalDecl:
    return GoalDecl(name, statement.binders, statement.body)


def check_exact(statement: GoalDecl, config: QcConfig, domain: Domain, calls: int) -> list[bool]:
    """Quickcheck the statement through the gate under ``calls`` fresh
    names in turn, each call seeing the facts the calls before it left, and
    compare every outcome with what sampling alone gives.  Returns the
    facts settled under keys that were not in the table before."""
    table = search_mod._FACTS
    before = set(table)
    names = [f"{statement.name}_{i}" for i in range(calls)]
    gated = [search_mod._gate_quickcheck(named(statement, name), config, domain) for name in names]
    settled = [entry for key, entry in table.items() if key not in before and type(entry) is bool]
    assert gated == [quickcheck(named(statement, name), config, domain) for name in names]
    return settled


def steps_bound(statement: GoalDecl, config: QcConfig, domain: Domain) -> int | None:
    """Nodes a trial can visit at most, worked out by the evaluator alone:
    ``(conjuncts - 1)`` plus each conjunct's most steps over the sampled
    values of its free binders; None when a conjunct fails or errs at one."""
    space = Domain(config.gen_int_lo, config.gen_int_hi, config.gen_max_list_len,
                   config.elem_lo, config.elem_hi)
    sorts = dict(statement.binders)
    conjuncts = conjunct_fringe(statement.body)
    bound = len(conjuncts) - 1
    for conjunct in conjuncts:
        binders = tuple((name, sorts[name]) for name in free_vars(conjunct) if name in sorts)
        most = 0
        for env in space.iter_assignments(binders):
            budget = Budget(10**9)
            try:
                if eval_formula(conjunct, env, domain, budget) is not True:
                    return None
            except (EvalError, BudgetExceeded):
                return None
            most = max(most, 10**9 - budget.remaining)
        bound += most
    return bound


NARROW = QcConfig(trials=30, gen_int_lo=-3, gen_int_hi=3, gen_max_list_len=2,
                  gen_elem_lo=-1, gen_elem_hi=1)


@pytest.mark.parametrize(
    "config",
    [NARROW, QcConfig(trials=200)],
    ids=["narrow_ranges", "default_ranges"],
)
@pytest.mark.parametrize("budget", [40, 25_000, 1_000_000])
def test_a_fact_changes_no_outcome_on_corpus_goals(fresh_gate, config, budget):
    # Narrow ranges let statements over lists settle too; at the default
    # ranges a list's space is far too large to repay, and only statements
    # over one or two integers can settle.
    domain = Domain(node_budget=budget)
    settled = []
    for seed in range(25):
        statement = random_goal(seed, f"g{seed}", depth=2 + seed % 2)
        settled += check_exact(statement, config, domain, calls=24)
    if config is NARROW and budget > 40:
        assert settled.count(True) >= 3


def reference_quickcheck(goal: GoalDecl, config: QcConfig, domain: Domain):
    """Quickcheck as a plain loop: ``randint`` draws, and each trial compiled
    and evaluated afresh under a fresh budget."""
    draw = _randint_sampler(goal.binders, config, derive_rng(config.seed, goal.name))
    for index in range(1, config.trials + 1):
        env = draw()
        try:
            holds = eval_formula(goal.body, env, domain, Budget(domain.node_budget))
        except EvalError:
            holds = False
        except BudgetExceeded:
            return NoCounterexample(trials_run=index - 1)
        if not holds:
            return Counterexample(witness=env, trial_index=index)
    return NoCounterexample(trials_run=config.trials)


@pytest.mark.parametrize(
    "config, budget",
    [
        (QcConfig(), 1_000_000),
        (NARROW, 1_000_000),
        (QcConfig(trials=300, gen_elem_lo=2, gen_elem_hi=2), 1_000_000),
        (QcConfig(trials=300), 12),
    ],
    ids=["default", "narrow_ranges", "one_value_elements", "budget_stops_trials"],
)
def test_quickcheck_equals_a_plain_reference_loop(fresh_gate, config, budget):
    # Each goal under three names, so that the gate's facts settle some of
    # the later ones; quickcheck alone and the gate both give the loop's
    # outcome under every name.
    domain = Domain(node_budget=budget)
    outcomes = []
    for seed in range(40):
        statement = random_goal(seed, f"r{seed}", depth=2 + seed % 2)
        for name in (f"r{seed}_{i}" for i in range(3)):
            goal = named(statement, name)
            outcome = reference_quickcheck(goal, config, domain)
            assert quickcheck(goal, config, domain) == outcome
            assert search_mod._gate_quickcheck(goal, config, domain) == outcome
            outcomes.append(outcome)
    kinds = {type(outcome) for outcome in outcomes}
    assert kinds == {Counterexample, NoCounterexample}
    if budget == 12:
        # Some trials stop on the budget after others have passed.
        assert any(0 < getattr(o, "trials_run", 0) < config.trials for o in outcomes)
    else:
        assert True in fresh_gate.values()


@pytest.mark.parametrize("width", range(1, 7))
def test_wide_conjunctions_settle_after_a_few_sightings(fresh_gate, width):
    # Each atom ranges over 201 integers, so 201 * width points repay after
    # width + 1 calls of 200 trials.  A trial visits 5 nodes per atom and
    # one per And: at that budget every trial fits, one below none does.
    statement = wide_conjunction_goal("w", width)
    config = QcConfig(trials=200)
    bound = 6 * width - 1
    assert steps_bound(statement, config, Domain()) == bound
    for budget in (25_000, bound):
        assert check_exact(statement, config, Domain(node_budget=budget), width + 3) == [True]
    # The facts above stand for their own budgets only.
    assert check_exact(statement, config, Domain(node_budget=bound - 1), width + 3) == []


def test_the_steps_bound_is_met_exactly(fresh_gate):
    # At the bound a fact settles; one below, where some trial may run out
    # of budget, none does, and sampling gives every outcome, although the
    # table holds the fact at the bound.
    at_bound = below = 0
    for seed in range(40):
        statement = random_goal(seed, f"b{seed}", depth=2 + seed % 2)
        bound = steps_bound(statement, NARROW, Domain())
        if bound is None:
            continue
        assert check_exact(statement, NARROW, Domain(node_budget=bound), calls=40) == [True]
        at_bound += 1
        if bound > 1:
            assert True not in check_exact(statement, NARROW, Domain(node_budget=bound - 1), 40)
            below += 1
    assert at_bound >= 5 and below >= 5


X, Y = Var("x"), Var("y")
INT_X = (("x", Sort.INT),)


@pytest.mark.parametrize(
    "statement, fact",
    [
        # x % (x - 37) errs at x = 37 alone, which sampling mostly misses.
        (GoalDecl("err", INT_X, And(Eq(X, X), Eq(Mod(X, Sub(X, IntLit(37))), Mod(X, Sub(X, IntLit(37)))))),
         False),
        # y is no binder: it is unbound where x >= 99 reaches it.
        (GoalDecl("free", INT_X, Or(Lt(X, IntLit(99)), Eq(Y, Y))), False),
        (GoalDecl("closed", (), Eq(Add(IntLit(1), IntLit(1)), IntLit(2))), True),
        (GoalDecl("quantified", INT_X,
                  And(Forall("a", Sort.INT, And(Eq(Add(Var("a"), X), Add(X, Var("a"))), Eq(X, X))),
                      Not(Lt(X, X)))),
         True),
        # The unused binder y is no part of either conjunct's space.
        (GoalDecl("unused", (("x", Sort.INT), ("y", Sort.INT_LIST)), Eq(Add(X, IntLit(0)), X)), True),
    ],
    ids=["eval_error_at_one_point", "free_non_binder", "zero_binders", "conjunct_under_quantifier",
         "unused_list_binder"],
)
def test_a_fact_settles_exactly_on_edge_statements(fresh_gate, statement, fact):
    config = QcConfig(trials=40)
    assert check_exact(statement, config, Domain(), calls=20) == [fact]


def test_a_fact_needs_every_point_inside_the_budget(fresh_gate):
    # x >= 98 takes the costly branch, 9 nodes against 4, and forty trials
    # often miss it; with the And and y = y a trial visits 13 at most.
    statement = parse_goal("goal c (x: Int) (y: Int) := (x < 98 \\/ x + 0 = x) /\\ y = y")
    config = QcConfig(trials=40)
    assert steps_bound(statement, config, Domain()) == 13
    assert check_exact(statement, config, Domain(node_budget=13), 60) == [True]
    assert check_exact(statement, config, Domain(node_budget=12), 60) == [False]


def test_a_space_is_enumerated_once_sampling_has_paid_for_it(fresh_gate, monkeypatch):
    bought = []
    enumerate_space = search_mod.holds_everywhere

    def spy(goal, *args):
        bought.append(goal.name)
        return enumerate_space(goal, *args)

    monkeypatch.setattr(search_mod, "holds_everywhere", spy)
    # 201 points at 100 trials a call: the fourth call has 300 trials behind it.
    statement = parse_goal("goal a (x: Int) := x + 0 = x")
    for i in range(6):
        search_mod._gate_quickcheck(named(statement, f"a{i}"), QcConfig(trials=100), Domain())
    assert bought == ["a3"]
    # A list's space at the default ranges, about 10**18 points, never repays.
    lists = parse_goal("goal l (m: IntList) := m = m")
    for i in range(50):
        search_mod._gate_quickcheck(named(lists, f"l{i}"), QcConfig(trials=100), Domain())
    assert bought == ["a3"]


def test_quickcheck_draws_every_trial_of_a_statement_the_gate_settled(fresh_gate, monkeypatch):
    draws = []
    sampler = quickcheck_mod.env_sampler

    def counting(binders, config, rng):
        draw = sampler(binders, config, rng)
        draws.append(0)

        def counted():
            draws[-1] += 1
            return draw()

        return counted

    monkeypatch.setattr(quickcheck_mod, "env_sampler", counting)
    statement = parse_goal("goal a (x: Int) := x + 0 = x")
    config = QcConfig(trials=100)
    gated = [search_mod._gate_quickcheck(named(statement, f"g{i}"), config, DOMAIN) for i in range(6)]
    # Three calls pay for the 201 points; the fourth buys the fact, and
    # from there the gate draws nothing.
    assert gated == [NoCounterexample(trials_run=100)] * 6
    assert draws == [100] * 3
    assert list(fresh_gate.values()) == [True]
    draws.clear()
    alone = [quickcheck(named(statement, f"q{i}"), config, DOMAIN) for i in range(6)]
    assert alone == [NoCounterexample(trials_run=100)] * 6
    assert draws == [100] * 6


def test_a_fact_stands_only_for_its_own_sample_space(fresh_gate):
    statement = parse_goal("goal r (x: Int) (l: IntList) := x < 4 /\\ len(l) < 3")
    assert check_exact(statement, NARROW, Domain(), 40) == [True]
    # One more integer, or longer lists, and the statement fails somewhere.
    for wider in (replace(NARROW, gen_int_hi=4), replace(NARROW, gen_max_list_len=3)):
        assert True not in check_exact(statement, wider, Domain(), 40)
    # Sampled integers reach past the domain's: [51, 60] falsifies, and
    # twenty trials often miss it.
    needle = parse_goal("goal s (x: Int) := x < 51 \\/ x > 60")
    assert check_exact(needle, QcConfig(trials=20), Domain(), 60) == [False]


def in_threads(jobs: list[GoalDecl], config: QcConfig, domain: Domain) -> list:
    """Quickcheck ``jobs`` through the gate on eight threads started
    together, with a short switch interval so that they trade the
    interpreter often; the outcomes come back in job order."""
    start = threading.Barrier(8)

    def run(part: list[GoalDecl]) -> list:
        start.wait(timeout=60)
        return [search_mod._gate_quickcheck(goal, config, domain) for goal in part]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            parts = list(pool.map(run, [jobs[i::8] for i in range(8)], timeout=120))
    finally:
        sys.setswitchinterval(interval)
    return [parts[i % 8][i // 8] for i in range(len(jobs))]


def test_threads_sharing_the_table_get_the_serial_outcomes(fresh_gate, monkeypatch):
    bought = []
    enumerate_space = search_mod.holds_everywhere

    def spy(goal, *args):
        bought.append(goal.name)
        return enumerate_space(goal, *args)

    monkeypatch.setattr(search_mod, "holds_everywhere", spy)
    config, domain = QcConfig(trials=200), Domain()
    # Two statements under distinct names, which threads buy while others
    # look them up, and a list statement whose space never repays, so its
    # entry counts every trial the threads spend on it.
    needle = parse_goal("goal t (x: Int) := x + 0 = x /\\ x != 37")
    valid = parse_goal("goal v (x: Int) := x * 1 = x")
    lists = parse_goal("goal l (m: IntList) := m = m")
    jobs = [named(statement, f"{statement.name}{i}") for i in range(32) for statement in (needle, valid)]
    jobs += [named(lists, f"l{i}") for i in range(80)]
    serial = [quickcheck(goal, config, domain) for goal in jobs]
    assert in_threads(jobs, config, domain) == serial
    assert {name[0] for name in bought} == {"t", "v"}
    rents = [entry[0] for entry in fresh_gate.values() if type(entry) is list and (entry[1] or 0) > 10**9]
    assert rents == [200 * 80]
    # x = 37 falsifies the needle, and some names miss it.
    assert any(isinstance(outcome, NoCounterexample) for outcome in serial[0:64:2])
    # More statements than the table holds: lookups and evictions interleave.
    churn = [parse_goal(f"goal c{i} (x: Int) := x + {i} = {i} + x") for i in range(2 * FACT_TABLE_SIZE)]
    assert in_threads(churn, config, domain) == [quickcheck(goal, config, domain) for goal in churn]
    assert len(fresh_gate) == FACT_TABLE_SIZE
