"""Seeded random testing: determinism, witness soundness, generator ranges
and the generator stream."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import random_goal
from provekit.errors import ContractViolation, EvalError
from provekit.evaluator import Domain, eval_formula
from provekit.lang import Sort, parse_goal
from provekit.quickcheck import (
    Counterexample,
    NoCounterexample,
    QcConfig,
    derive_rng,
    env_sampler,
    quickcheck,
)

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


@pytest.mark.parametrize(
    "config",
    [
        QcConfig(),
        QcConfig(gen_int_lo=4, gen_int_hi=4, gen_max_list_len=0),
        QcConfig(gen_int_lo=-7, gen_int_hi=300, gen_max_list_len=7, gen_elem_lo=0, gen_elem_hi=3),
        QcConfig(gen_int_lo=-(2**40), gen_int_hi=2**40, gen_elem_lo=-(2**33), gen_elem_hi=2**35),
    ],
    ids=["default", "one_value", "narrow_elements", "wider_than_2_32"],
)
def test_sampler_stream_equals_randint(config):
    # Witnesses and trial indices are pinned elsewhere through this stream;
    # a change in how CPython's randint draws from getrandbits fails here.
    binders = (("x", Sort.INT), ("l", Sort.INT_LIST), ("y", Sort.INT), ("m", Sort.INT_LIST))
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
