"""Training-data pipeline: rollout scoring, filtering, export, curriculum."""

from __future__ import annotations

import hashlib
import math
from dataclasses import MISSING, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import forged_json, random_goal, wide_conjunction_goal
from provekit.errors import ContractViolation, FilterViolation, PolicyError, ProvekitError
from provekit.evaluator import Domain
from provekit.lang import Eq, GoalDecl, IntLit, Not, Sort, TrueF, Var, parse_goal
from provekit.lang.ast import MAX_DEPTH
from provekit.prover import (
    ACCEPTED,
    DecompositionProposal,
    BuiltinChecker,
    DirectSubmit,
    StochasticPolicy,
)
from provekit.prover import api
from provekit.quickcheck import QcConfig
from provekit.search import (
    REASON_DUPLICATE_NAME,
    REASON_ILL_SORTED,
    REASON_INFRASTRUCTURE,
    REASON_LEMMA_CAP,
    REASON_POLICY_ERROR,
    REASON_ZERO_FOOTPRINT,
    STEP_ACCEPTED,
    STEP_DISCHARGED,
    SearchConfig,
    run_single,
)
from provekit.trace import RunTrace, canonical_json, parse_trace
from provekit.training import (
    RECORD_COMPLETION,
    RECORD_DECOMPOSITION,
    RECORD_KEYS,
    RECORD_OPTIONAL,
    SOURCE_FALLBACK,
    SOURCE_POLICY,
    Curriculum,
    Rollout,
    RolloutGroup,
    TrajectoryRecord,
    augment_curriculum,
    collect,
    export_trajectories,
    filter_groups,
    load_trajectories,
    policy_first_completion,
    score_rollout_group,
    validate_record,
)

GOAL_BOTH = parse_goal("goal both (a: Int) := a + 0 = a /\\ a * 1 = a")
LEMMA_L = parse_goal("goal both_l (a: Int) := a + 0 = a")
LEMMA_R = parse_goal("goal both_r (a: Int) := a * 1 = a")
SPLIT = DecompositionProposal((LEMMA_L, LEMMA_R), "and-intro")
DISCHARGE = DecompositionProposal((), "decide")
# A list binder compared with an integer: no parse yields it, a policy can.
ILL_SORTED = GoalDecl("both_r", (("a", Sort.INT_LIST),), Eq(Var("a"), IntLit(1)))
JUNK = DecompositionProposal((parse_goal("goal junk := 0 < 0"),), "entailment")

CONFIG = SearchConfig(qc=QcConfig(trials=150, seed=0), complete_iters=4)
CHECKER = BuiltinChecker(Domain())


class ScriptedDecomposer:
    """Pops scripted proposals, raising queued exceptions; discharges when
    the script runs dry.  Completions always suggest the decision procedure."""

    def __init__(self, script):
        self.script = list(script)

    def propose_decomposition(self, context):
        if not self.script:
            return DISCHARGE
        item = self.script.pop(0)
        if isinstance(item, Exception):
            raise item
        return item

    def propose_completion(self, context):
        return "decide"

    def fork(self, seed):
        return self


class ScriptedCompleter:
    """Pops one proof text per attempt and records the feedback depth it saw."""

    def __init__(self, texts):
        self.texts = list(texts)
        self.seen_history_lengths: list[int] = []

    def propose_decomposition(self, context):
        raise AssertionError("completion-only policy was asked to decompose")

    def propose_completion(self, context):
        self.seen_history_lengths.append(len(context.feedback_history))
        if not self.texts:
            raise PolicyError("out of ideas")
        return self.texts.pop(0)

    def fork(self, seed):
        return self


class MagicChecker:
    """Accepts exactly one password; everything else is a rejection."""

    def __init__(self, password="open sesame", axioms=()):
        self.password = password
        self.axioms = tuple(axioms)

    def check(self, request, timeout_ms):
        if request.proof_text == self.password:
            return api.accepted(axioms=self.axioms)
        return api.rejected("wrong incantation")


class BrokenChecker:
    def check(self, request, timeout_ms):
        return api.checker_error("backend down")


# -- rollout groups ----------------------------------------------------------


def test_rollout_group_direct_policy_maxes_out():
    group = score_rollout_group(LEMMA_L, DirectSubmit(), CHECKER, CONFIG, n_rollouts=3)
    assert [r.reward for r in group.rollouts] == [1.0, 1.0, 1.0]
    assert group.mean_reward() == 1.0
    assert not group.all_error


def test_rollout_group_gate_failures_score_zero():
    policy = ScriptedDecomposer([JUNK, JUNK])
    group = score_rollout_group(LEMMA_L, policy, CHECKER, CONFIG, n_rollouts=2)
    assert [r.reward for r in group.rollouts] == [0.0, 0.0]
    assert all(r.error is None for r in group.rollouts)
    assert group.mean_reward() == 0.0


def test_rollout_group_policy_errors_carry_no_reward():
    policy = ScriptedDecomposer([PolicyError("nope"), DISCHARGE])
    group = score_rollout_group(LEMMA_L, policy, CHECKER, CONFIG, n_rollouts=2)
    first, second = group.rollouts
    assert first.reward is None and first.error.startswith("policy_error")
    assert second.reward == 1.0
    assert group.rewards() == [1.0]
    assert group.mean_reward() == 1.0


def test_rollout_group_checker_errors_carry_no_reward():
    group = score_rollout_group(LEMMA_L, DirectSubmit(), BrokenChecker(), CONFIG, n_rollouts=2)
    assert all(r.reward is None for r in group.rollouts)
    assert group.all_error
    assert group.mean_reward() is None


def test_rollout_group_requires_positive_count():
    with pytest.raises(ContractViolation):
        score_rollout_group(LEMMA_L, DirectSubmit(), CHECKER, CONFIG, n_rollouts=0)


def test_rollout_group_mixes_discharge_and_split():
    policy = ScriptedDecomposer([DISCHARGE, SPLIT])
    group = score_rollout_group(GOAL_BOTH, policy, CHECKER, CONFIG, n_rollouts=2)
    discharge, split = group.rollouts
    assert discharge.reward == 1.0
    # parent footprint 5 (two comparisons, two arithmetic ops, one connective),
    # children 2 and 2: the smooth max of equal terms adds ln(2).
    expected = 1.0 - (2.0 + math.log(2.0)) / 5.0
    assert split.reward == pytest.approx(expected, abs=1e-12)
    assert split.evaluation.breakdown.d_children == (2, 2)
    assert 0.0 < group.mean_reward() < 1.0


# -- training reward agrees with search ---------------------------------------


def _search_reward(goal, policy, config):
    """The reward that the first ``decompose_attempt`` of a one-iteration
    search implies, with its reason; ``None, None`` when quickcheck refutes
    the root, so no proposal is asked for."""
    _, trace = run_single(goal, policy, CHECKER, replace(config, decompose_iters=1, complete_iters=0))
    attempts = [e for e in trace.events if e["type"] == "decompose_attempt"]
    if not attempts:
        return None, None
    (event,) = attempts
    reason = event["reason"]
    if reason is not None and reason.split(":")[0] in (REASON_POLICY_ERROR, REASON_INFRASTRUCTURE):
        return None, reason
    if event["outcome"] in (STEP_ACCEPTED, STEP_DISCHARGED):
        return event["score"]["S"], reason
    return 0.0, reason


def _training_reward(goal, policy, config):
    group = score_rollout_group(goal, policy.fork(config.seed), CHECKER, config, n_rollouts=1)
    return group.rollouts[0].reward


@pytest.mark.parametrize(
    "goal,lemmas,config,reason",
    [
        (parse_goal("goal z := true"), (parse_goal("goal z1 := true"),), CONFIG, REASON_ZERO_FOOTPRINT),
        (GOAL_BOTH, (LEMMA_L, replace(LEMMA_R, name=LEMMA_L.name)), CONFIG, REASON_DUPLICATE_NAME),
        (GOAL_BOTH, (replace(LEMMA_L, name=GOAL_BOTH.name), LEMMA_R), CONFIG, REASON_DUPLICATE_NAME),
        (GOAL_BOTH, (LEMMA_L, LEMMA_R), replace(CONFIG, max_open_lemmas=1), REASON_LEMMA_CAP),
        (GOAL_BOTH, (LEMMA_L, ILL_SORTED), CONFIG, REASON_ILL_SORTED),
    ],
    ids=[
        "zero_footprint_target", "repeated_lemma_name", "lemma_named_like_goal", "lemma_cap",
        "ill_sorted_lemma",
    ],
)
def test_structural_rejections_score_zero_as_in_search(goal, lemmas, config, reason):
    proposal = DecompositionProposal(lemmas, "and-intro")
    searched, searched_reason = _search_reward(goal, ScriptedDecomposer([proposal]), config)
    assert searched_reason == reason
    assert _training_reward(goal, ScriptedDecomposer([proposal]), config) == searched == 0.0


def _nested_nots(depth: int):
    """A formula exactly ``depth`` nodes deep, built without recursion."""
    body = TrueF()
    for _ in range(depth - 1):
        body = Not(body)
    return body


@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 1500, 100_000])
def test_a_lemma_over_the_depth_cap_scores_zero_as_in_search(depth):
    # No parser stands before an in-process policy: the gate's sort check
    # is what keeps the tree from every recursive walk after it.
    deep = GoalDecl("both_deep", (), _nested_nots(depth))
    proposal = DecompositionProposal((LEMMA_L, deep), "and-intro")
    searched, reason = _search_reward(GOAL_BOTH, ScriptedDecomposer([proposal]), CONFIG)
    assert reason == REASON_ILL_SORTED
    assert _training_reward(GOAL_BOTH, ScriptedDecomposer([proposal]), CONFIG) == searched == 0.0


@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 100_000])
def test_a_root_over_the_depth_cap_is_a_contract_violation(depth):
    root = GoalDecl("deep", (), _nested_nots(depth))
    starts = (
        lambda: run_single(root, DirectSubmit(), CHECKER, CONFIG),
        lambda: score_rollout_group(root, DirectSubmit(), CHECKER, CONFIG, n_rollouts=1),
        lambda: policy_first_completion(root, DirectSubmit(), DirectSubmit(), CHECKER, CONFIG),
    )
    for start in starts:
        with pytest.raises(ContractViolation, match=f"goal 'deep' is ill sorted: nested more than {MAX_DEPTH} deep"):
            start()


def test_training_reward_matches_search_on_random_goals():
    policy = StochasticPolicy(0, Domain())
    compared = []
    for s in range(200):
        goal = random_goal(s, f"g{s}", 3)
        searched, reason = _search_reward(goal, policy, CONFIG)
        if reason is None and searched is None:
            continue  # quickcheck refuted the root
        assert _training_reward(goal, policy, CONFIG) == searched, (goal.name, reason)
        compared.append(searched)
    # Both rejections and accepted splits with a partial reduction occur.
    assert 0.0 in compared and any(0.0 < r < 1.0 for r in compared)


# -- group filtering ---------------------------------------------------------


def test_filter_groups_keeps_only_informative_means():
    def group(rewards):
        return RolloutGroup(LEMMA_L, [Rollout(None, None, r) for r in rewards])

    g_zero = group([0.0, 0.0])
    g_one = group([1.0])
    g_error = group([None, None])
    g_mixed = group([0.0, 1.0])
    g_partial = group([None, 0.5])
    kept = filter_groups([g_zero, g_one, g_error, g_mixed, g_partial])
    assert kept == [g_mixed, g_partial]


# -- policy-first completion -------------------------------------------------


def test_completion_policy_closes_first_try():
    policy = ScriptedCompleter(["open sesame"])
    outcome = policy_first_completion(
        LEMMA_L, policy, DirectSubmit(), MagicChecker(), CONFIG
    )
    assert outcome.closed and outcome.source == SOURCE_POLICY
    assert outcome.attempts_used == 1
    assert outcome.proof_text == "open sesame"
    assert outcome.verdict.status == ACCEPTED


def test_completion_falls_back_after_policy_budget():
    policy = ScriptedCompleter(["wrong", "wrong"])
    fallback = ScriptedCompleter(["open sesame"])
    outcome = policy_first_completion(
        LEMMA_L, policy, fallback, MagicChecker(), CONFIG, policy_attempts=2
    )
    assert outcome.closed and outcome.source == SOURCE_FALLBACK
    assert outcome.attempts_used == 3
    # Feedback kept accumulating across the handover.
    assert policy.seen_history_lengths == [0, 1]
    assert fallback.seen_history_lengths == [2]


def test_completion_budget_exhaustion():
    outcome = policy_first_completion(
        LEMMA_L,
        ScriptedCompleter(["a", "b", "c", "d"]),
        ScriptedCompleter(["e", "f", "g", "h"]),
        MagicChecker(),
        CONFIG,
        policy_attempts=2,
    )
    assert not outcome.closed
    assert outcome.source is None
    assert outcome.attempts_used == CONFIG.complete_iters


def test_completion_rejects_tainted_acceptances():
    # Accepted but leaning on a disallowed axiom: never counts as closed.
    checker = MagicChecker(axioms=("Lean.ofReduceBool",))
    policy = ScriptedCompleter(["open sesame"] * 4)
    outcome = policy_first_completion(
        LEMMA_L, policy, ScriptedCompleter([]), MagicChecker(axioms=("Lean.ofReduceBool",)), CONFIG
    )
    del checker
    assert not outcome.closed
    assert outcome.attempts_used == CONFIG.complete_iters


def test_completion_policy_error_consumes_attempt():
    policy = ScriptedCompleter([])  # raises PolicyError immediately
    fallback = ScriptedCompleter(["open sesame"])
    outcome = policy_first_completion(
        LEMMA_L, policy, fallback, MagicChecker(), CONFIG, policy_attempts=1
    )
    assert outcome.closed and outcome.source == SOURCE_FALLBACK
    assert outcome.attempts_used == 2


def test_completion_zero_policy_attempts_goes_straight_to_fallback():
    policy = ScriptedCompleter(["open sesame"])
    fallback = ScriptedCompleter(["open sesame"])
    outcome = policy_first_completion(
        LEMMA_L, policy, fallback, MagicChecker(), CONFIG, policy_attempts=0
    )
    assert outcome.closed and outcome.source == SOURCE_FALLBACK
    assert outcome.attempts_used == 1
    assert policy.seen_history_lengths == []


def test_completion_negative_policy_attempts_invalid():
    with pytest.raises(ContractViolation):
        policy_first_completion(
            LEMMA_L, DirectSubmit(), DirectSubmit(), CHECKER, CONFIG, policy_attempts=-1
        )


# -- curriculum --------------------------------------------------------------


def test_curriculum_dedups_alpha_variants():
    curriculum = Curriculum()
    assert curriculum.add(parse_goal("goal a (x: Int) := x + 0 = x"))
    assert not curriculum.add(parse_goal("goal b (y: Int) := y + 0 = y"))
    assert len(curriculum) == 1
    assert curriculum.version == 1
    assert parse_goal("goal c (z: Int) := z + 0 = z") in curriculum


def test_curriculum_renames_colliding_names():
    curriculum = Curriculum()
    curriculum.add(parse_goal("goal t (x: Int) := x + 0 = x"))
    curriculum.add(parse_goal("goal t (x: Int) := x * 1 = x"))
    curriculum.add(parse_goal("goal t (x: Int) := x + 1 = 1 + x"))
    names = sorted(g.name for g in curriculum.goals())
    assert names == ["t", "t_v2", "t_v3"]
    assert len(curriculum) == 3
    assert curriculum.version == 3


def test_augment_curriculum_counts_additions():
    curriculum = Curriculum()
    goals = [
        parse_goal("goal p (x: Int) := x <= x"),
        parse_goal("goal q (y: Int) := y <= y"),  # alpha-duplicate of p
        parse_goal("goal r (x: Int) := x < x + 1"),
    ]
    assert augment_curriculum(curriculum, goals) == 2
    assert len(curriculum) == 2


# -- record validation -------------------------------------------------------


def _good_decomposition() -> TrajectoryRecord:
    return TrajectoryRecord(
        kind=RECORD_DECOMPOSITION,
        goal_source="goal both (a: Int) := a + 0 = a /\\ a * 1 = a",
        lemma_sources=("goal both_l (a: Int) := a + 0 = a",),
        reconstruction="entailment",
        score={"v": 1, "d_parent": 5, "d_children": [2], "d_bar": 2.0, "r": 0.6, "S": 0.6},
        reward=0.6,
    )


def _good_completion(axioms=("propext",)) -> TrajectoryRecord:
    return TrajectoryRecord(
        kind=RECORD_COMPLETION,
        goal_source="goal both_l (a: Int) := a + 0 = a",
        proof_text="decide",
        verdict_status=ACCEPTED,
        axioms=axioms,
        attempt_index=1,
        source=SOURCE_POLICY,
    )


def test_validate_decomposition_rules():
    validate_record(_good_decomposition())

    missing = _good_decomposition()
    missing.score = None
    with pytest.raises(FilterViolation):
        validate_record(missing)

    gated = _good_decomposition()
    gated.score = dict(gated.score, v=0)
    with pytest.raises(FilterViolation, match="validity gate"):
        validate_record(gated)

    stalled = _good_decomposition()
    stalled.score = dict(stalled.score, r=0.0)
    with pytest.raises(FilterViolation, match="zero reduction"):
        validate_record(stalled)


def test_validate_completion_rules():
    validate_record(_good_completion())

    unproved = _good_completion()
    unproved.verdict_status = "rejected"
    with pytest.raises(FilterViolation, match="accepted"):
        validate_record(unproved)

    tainted = _good_completion(axioms=("propext", "Lean.ofReduceBool"))
    with pytest.raises(FilterViolation, match="Lean.ofReduceBool"):
        validate_record(tainted)

    # A caller-supplied allowlist can admit what the default refuses.
    validate_record(tainted, allowlist=frozenset({"propext", "Lean.ofReduceBool"}))


@pytest.mark.parametrize("r", ["0.6", None, [0.6], True], ids=["string", "null", "array", "boolean"])
def test_validate_refuses_a_reduction_that_is_not_a_number(r):
    record = replace(_good_decomposition(), score={"v": 1, "r": r, "S": 0.6})
    with pytest.raises(FilterViolation, match="reduction r must be a number"):
        validate_record(record)


@pytest.mark.parametrize("v", [True, 1.0, "1"], ids=["boolean", "real", "string"])
def test_validate_refuses_a_gate_bit_that_is_not_the_integer_one(v):
    record = replace(_good_decomposition(), score=dict(_good_decomposition().score, v=v))
    with pytest.raises(FilterViolation, match="validity gate"):
        validate_record(record)


@pytest.mark.parametrize("axiom", [5, None, ["propext"], {"propext": 1}], ids=["integer", "null", "array", "object"])
def test_validate_refuses_an_axiom_that_is_not_a_string(axiom):
    with pytest.raises(FilterViolation, match="disallowed axioms"):
        validate_record(_good_completion(axioms=("propext", axiom)))


def test_validate_unknown_kind():
    stray = _good_completion()
    stray.kind = "mystery"
    with pytest.raises(FilterViolation, match="mystery"):
        validate_record(stray)


# -- export and load ---------------------------------------------------------


def test_trajectory_roundtrip(tmp_path):
    records = [_good_decomposition(), _good_completion(), _good_decomposition()]
    path = tmp_path / "out.jsonl"
    assert export_trajectories(records, path) == 3

    lines = path.read_text().splitlines()
    assert len(lines) == 4
    import json

    header = json.loads(lines[0])
    assert header == {"type": "trajectories", "format_version": 1, "count": 3}

    loaded = load_trajectories(path)
    assert loaded == records
    assert isinstance(loaded[0].lemma_sources, tuple)
    assert isinstance(loaded[1].axioms, tuple)
    assert loaded[1].goal().name == "both_l"


def test_export_validates_before_writing(tmp_path):
    bad = _good_completion()
    bad.verdict_status = "timeout"
    path = tmp_path / "out.jsonl"
    with pytest.raises(FilterViolation):
        export_trajectories([_good_decomposition(), bad], path)
    assert not path.exists()


def test_load_rejects_corrupt_files(tmp_path):
    import json

    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")
    with pytest.raises(FilterViolation, match="empty"):
        load_trajectories(empty)

    headerless = tmp_path / "headerless.jsonl"
    headerless.write_text(json.dumps(_good_completion().to_json()) + "\n")
    with pytest.raises(FilterViolation, match="header"):
        load_trajectories(headerless)

    wrong_version = tmp_path / "version.jsonl"
    wrong_version.write_text(
        json.dumps({"type": "trajectories", "format_version": 99, "count": 0}) + "\n"
    )
    with pytest.raises(FilterViolation, match="format"):
        load_trajectories(wrong_version)

    miscounted = tmp_path / "count.jsonl"
    miscounted.write_text(
        json.dumps({"type": "trajectories", "format_version": 1, "count": 2})
        + "\n"
        + json.dumps(_good_completion().to_json())
        + "\n"
    )
    with pytest.raises(FilterViolation, match="count"):
        load_trajectories(miscounted)

    invalid_record = tmp_path / "invalid.jsonl"
    bad = _good_completion()
    bad.verdict_status = "rejected"
    invalid_record.write_text(
        json.dumps({"type": "trajectories", "format_version": 1, "count": 1})
        + "\n"
        + json.dumps(bad.to_json())
        + "\n"
    )
    with pytest.raises(FilterViolation):
        load_trajectories(invalid_record)


@pytest.mark.parametrize(
    "record, message",
    [({"bogus": 1}, "unknown keys \\['bogus'\\]"), ({"kind": "completion"}, "line 2: trajectory record lacks key 'goal_source'")],
    ids=["unknown_key", "missing_key"],
)
def test_load_names_an_unknown_or_missing_record_key(tmp_path, record, message):
    import json

    path = tmp_path / "keys.jsonl"
    header = json.dumps({"type": "trajectories", "format_version": 1, "count": 1})
    path.write_text(f"{header}\n{json.dumps(record)}\n")
    with pytest.raises(ContractViolation, match=message):
        load_trajectories(path)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("score", [], "line 2: trajectory record key 'score' must be object or null, not array"),
        ("axioms", 5, "line 2: trajectory record key 'axioms' must be array, not integer"),
        ("replay", 1, "line 2: trajectory record key 'replay' must be boolean, not integer"),
    ],
    ids=["score", "axioms", "replay"],
)
def test_load_names_a_record_key_of_the_wrong_type(tmp_path, key, value, message):
    import json

    path = tmp_path / "types.jsonl"
    header = json.dumps({"type": "trajectories", "format_version": 1, "count": 1})
    record = dict(_good_completion().to_json(), **{key: value})
    path.write_text(f"{header}\n{json.dumps(record)}\n")
    with pytest.raises(ContractViolation) as info:
        load_trajectories(path)
    assert str(info.value) == message


def test_load_refuses_a_reward_that_is_not_a_json_number(tmp_path):
    path = tmp_path / "nan.jsonl"
    assert export_trajectories([_good_decomposition()], path) == 1
    path.write_text(path.read_text().replace('"reward":0.6', '"reward":NaN'))
    with pytest.raises(ContractViolation) as info:
        load_trajectories(path)
    assert str(info.value) == "line 2 is not valid JSON: NaN is not a JSON number"


def test_load_names_a_header_key_of_the_wrong_type(tmp_path):
    import json

    path = tmp_path / "header.jsonl"
    path.write_text(json.dumps({"type": "trajectories", "format_version": 1, "count": "0"}) + "\n")
    with pytest.raises(ContractViolation) as info:
        load_trajectories(path)
    assert str(info.value) == "line 1: trajectory header key 'count' must be integer, not string"


def test_the_record_tables_name_every_record_field():
    required = {f.name for f in fields(TrajectoryRecord) if f.default is MISSING}
    assert set(RECORD_KEYS) == required
    assert set(RECORD_KEYS) | set(RECORD_OPTIONAL) == {f.name for f in fields(TrajectoryRecord)}


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9))
def test_a_forged_trajectory_file_is_loaded_or_refused(tmp_path_factory, seed):
    # Nothing but a ProvekitError may escape, whatever one key of the header
    # or of a record holds, at any depth.
    import json

    lines = [
        {"type": "trajectories", "format_version": 1, "count": 2},
        _good_decomposition().to_json(),
        _good_completion().to_json(),
    ]
    lines = json.loads(json.dumps(lines))
    path = tmp_path_factory.getbasetemp() / "forged.jsonl"
    path.write_text("\n".join(json.dumps(line) for line in forged_json(seed, lines)) + "\n")
    try:
        load_trajectories(path)
    except ProvekitError:
        pass


def test_load_gives_a_record_without_optional_keys_their_defaults():
    record = TrajectoryRecord.from_json({"kind": "completion", "goal_source": "goal g := true"})
    assert record == TrajectoryRecord(kind="completion", goal_source="goal g := true")


@pytest.mark.parametrize(
    "bad_line, message",
    [("{not json", "line 3 is not valid JSON"), ('"text"', "line 3 is not a JSON object")],
    ids=["not_json", "not_an_object"],
)
def test_load_names_a_line_that_is_not_a_json_object(tmp_path, bad_line, message):
    import json

    path = tmp_path / "corrupt.jsonl"
    header = json.dumps({"type": "trajectories", "format_version": 1, "count": 1})
    path.write_text(f"{header}\n\n{bad_line}\n")
    with pytest.raises(ContractViolation, match=message):
        load_trajectories(path)


# -- collection pass ---------------------------------------------------------


def test_collect_end_to_end():
    policy = ScriptedDecomposer([DISCHARGE, SPLIT])
    records, curriculum, stats = collect(
        [GOAL_BOTH],
        policy,
        CHECKER,
        CONFIG,
        n_problems=1,
        n_rollouts=2,
        replay_ratio=0.0,
    )
    kinds = [r.kind for r in records]
    assert kinds.count(RECORD_DECOMPOSITION) == 2
    assert kinds.count(RECORD_COMPLETION) == 2
    assert stats.problems_sampled == 1
    assert stats.groups_kept == 1 and stats.groups_dropped == 0
    assert stats.decomposition_records == 2
    assert stats.completion_records == 2
    assert stats.curriculum_added == 2
    assert sorted(g.name for g in curriculum.goals()) == ["both_l", "both_r"]
    completions = [r for r in records if r.kind == RECORD_COMPLETION]
    assert all(r.source == SOURCE_POLICY and r.attempt_index == 1 for r in completions)
    assert all(r.replay is False for r in completions)
    for record in records:
        validate_record(record)


def test_collect_marks_replays_at_full_ratio():
    policy = ScriptedDecomposer([DISCHARGE, SPLIT])
    records, _, _ = collect(
        [GOAL_BOTH], policy, CHECKER, CONFIG, n_problems=1, n_rollouts=2, replay_ratio=1.0
    )
    completions = [r for r in records if r.kind == RECORD_COMPLETION]
    assert completions and all(r.replay is True for r in completions)


def test_collect_drops_saturated_groups():
    records, curriculum, stats = collect(
        [LEMMA_L, LEMMA_R],
        DirectSubmit(),
        CHECKER,
        CONFIG,
        n_problems=4,
        n_rollouts=2,
    )
    assert records == []
    assert stats.groups_dropped == 4 and stats.groups_kept == 0
    assert len(curriculum) == 0


def test_collect_input_validation():
    with pytest.raises(ContractViolation):
        collect([], DirectSubmit(), CHECKER, CONFIG)
    with pytest.raises(ContractViolation):
        collect([LEMMA_L], DirectSubmit(), CHECKER, CONFIG, replay_ratio=1.5)


def test_collect_is_deterministic():
    problems = [
        GOAL_BOTH,
        parse_goal("goal pair (x: Int) (y: Int) := x + y = y + x /\\ x * 0 = 0"),
        parse_goal("goal solo (z: Int) := z <= z"),
    ]

    def run():
        policy = StochasticPolicy(seed=7, domain=Domain())
        return collect(
            problems,
            policy,
            BuiltinChecker(Domain()),
            CONFIG,
            n_problems=4,
            n_rollouts=3,
        )

    records_a, _, stats_a = run()
    records_b, _, stats_b = run()
    assert [r.to_json() for r in records_a] == [r.to_json() for r in records_b]
    assert stats_a == stats_b


class SlowCompleter:
    """Decomposes like its inner policy; a goal's completions fail
    ``sum(map(ord, name)) % 4`` times before it suggests the decision
    procedure, so some lemmas outlast the policy's attempts."""

    def __init__(self, inner):
        self.inner = inner

    def propose_decomposition(self, context):
        return self.inner.propose_decomposition(context)

    def propose_completion(self, context):
        failed = len(context.feedback_history)
        patience = sum(map(ord, context.goal.name)) % 4
        return "decide" if failed >= patience else f"sorry {failed}"

    def fork(self, seed):
        return SlowCompleter(self.inner.fork(seed))


# sha256 of the exported file, recorded while policy_first_completion still
# ran its own propose/check/audit loop.
COLLECT_EXPORT_PIN = "1e80a6f73bb7bbbfc75e033ebb6cabaa0446abebbbbacba2c805537bf66af177"


def test_collect_export_is_pinned(tmp_path, monkeypatch):
    emitted: list[dict] = []
    emit = RunTrace.emit

    def recording_emit(self, event_type, **fields):
        emitted.append(emit(self, event_type, **fields))
        return emitted[-1]

    monkeypatch.setattr(RunTrace, "emit", recording_emit)
    domain = Domain(node_budget=25_000)
    config = SearchConfig(qc=QcConfig(trials=100, seed=0), complete_iters=4, domain=domain, seed=2)
    problems = (
        [wide_conjunction_goal(f"w{n}", n) for n in (2, 3, 4)]
        + [random_goal(s, f"g{s}") for s in range(12)]
        + [GOAL_BOTH]
    )
    records, _, _ = collect(
        problems,
        SlowCompleter(StochasticPolicy(0, domain, split_depth=2)),
        BuiltinChecker(domain),
        config,
        fallback=DirectSubmit(),
        n_problems=20,
        n_rollouts=4,
        replay_ratio=0.5,
        policy_attempts=2,
    )
    sources = {(r.source, r.attempt_index) for r in records if r.kind == RECORD_COMPLETION}
    assert sources == {(SOURCE_POLICY, 1), (SOURCE_POLICY, 2), (SOURCE_FALLBACK, 3)}
    path = tmp_path / "trajectories.jsonl"
    export_trajectories(records, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == COLLECT_EXPORT_PIN
    # Every event the completion stages emitted matches the trace reader's table.
    header = RunTrace.new("collect", 0, 0, {}).header
    assert {event["type"] for event in emitted} == {"complete_attempt"}
    parse_trace("\n".join(canonical_json(line) for line in [header, *emitted]))
