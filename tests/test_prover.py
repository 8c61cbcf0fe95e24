"""Built-in checker dispatch, structural reconstruction, and policies."""

from __future__ import annotations

import random
import sys
import threading

import pytest

import provekit.prover.builtin as builtin_mod
from provekit.errors import ContractViolation
from provekit.evaluator import Domain
from provekit.lang import GoalDecl, IntLit, ListLit, Sort, parse_goal, substitute
from provekit.prover import (
    ACCEPTED,
    CHECKER_ERROR,
    DEFAULT_AXIOM_ALLOWLIST,
    DIRECT_PROOF_DIRECTIVE,
    KIND_COMPLETION,
    KIND_DIRECT,
    KIND_RECONSTRUCTION,
    REJECTED,
    TIMEOUT,
    BuiltinChecker,
    CheckRequest,
    CheckVerdict,
    Checker,
    ConjunctionSplitter,
    DirectSubmit,
    Policy,
    PolicyContext,
    QuantifierGrounder,
    StochasticPolicy,
    axiom_audit,
    fresh_lemma_name,
)
from provekit.prover.api import RECON_AND_INTRO, RECON_DIRECT, RECON_GROUND
from provekit.prover.builtin import MAX_GROUND_POINTS, NODES_PER_MS, _junk_proposal

DOMAIN = Domain()
CHECKER = BuiltinChecker(DOMAIN)
T_MS = 300_000


def _check(request: CheckRequest) -> CheckVerdict:
    return CHECKER.check(request, T_MS)


# --- direct and completion checks --------------------------------------------


def test_direct_valid_goal_is_accepted():
    goal = parse_goal("goal t (x: Int) := x + 0 = x")
    verdict = _check(CheckRequest(KIND_DIRECT, goal))
    assert verdict.status == ACCEPTED


def test_direct_refutable_goal_is_rejected_with_witness():
    goal = parse_goal("goal t (x: Int) := x < 3")
    verdict = _check(CheckRequest(KIND_DIRECT, goal))
    assert verdict.status == REJECTED
    assert "x=3" in verdict.diagnostics


def test_completion_decide_directive_decides():
    goal = parse_goal("goal t (x: Int) := x <= 5")
    verdict = _check(CheckRequest(KIND_COMPLETION, goal, proof_text=DIRECT_PROOF_DIRECTIVE))
    assert verdict.status == ACCEPTED


def test_completion_unknown_directive_is_rejected():
    goal = parse_goal("goal t := 0 = 0")
    verdict = _check(CheckRequest(KIND_COMPLETION, goal, proof_text="sorry"))
    assert verdict.status == REJECTED
    assert "sorry" in verdict.diagnostics


def test_reconstruction_without_lemmas_decides_the_goal():
    good = parse_goal("goal t (x: Int) := x <= 5")
    bad = parse_goal("goal t (x: Int) := x <= 4")
    assert _check(CheckRequest(KIND_RECONSTRUCTION, good)).status == ACCEPTED
    assert _check(CheckRequest(KIND_RECONSTRUCTION, bad)).status == REJECTED


def test_entailment_reconstruction():
    goal = parse_goal("goal g (x: Int) := x = 3")
    lo = parse_goal("goal lo (a: Int) := 3 <= a")
    hi = parse_goal("goal hi (b: Int) := b <= 3")
    ok = CheckRequest(KIND_RECONSTRUCTION, goal, lemmas=(lo, hi))
    assert _check(ok).status == ACCEPTED
    weak = CheckRequest(KIND_RECONSTRUCTION, goal, lemmas=(lo,))
    assert _check(weak).status == REJECTED


def test_unknown_marker_falls_back_to_entailment():
    goal = parse_goal("goal g (x: Int) := x = 3")
    lo = parse_goal("goal lo (a: Int) := 3 <= a")
    hi = parse_goal("goal hi (b: Int) := b <= 3")
    req = CheckRequest(KIND_RECONSTRUCTION, goal, lemmas=(lo, hi), proof_text="by magic")
    assert _check(req).status == ACCEPTED


def test_budget_exhaustion_maps_to_timeout_verdict():
    checker = BuiltinChecker(Domain(node_budget=1))
    goal = parse_goal("goal t := 0 = 0")
    verdict = checker.check(CheckRequest(KIND_DIRECT, goal), T_MS)
    assert verdict.status == TIMEOUT


def test_infrastructure_faults_become_checker_error_not_rejection():
    verdict = _check(CheckRequest(KIND_DIRECT, None))  # type: ignore[arg-type]
    assert verdict.status == CHECKER_ERROR
    assert verdict.diagnostics


def test_erroring_goal_is_a_rejection_not_a_fault():
    goal = parse_goal("goal e (x: Int) := x % 0 = 0")
    assert _check(CheckRequest(KIND_DIRECT, goal)).status == REJECTED


# --- decide memo ---------------------------------------------------------------


def _count_decides(monkeypatch, fail_first: int = 0) -> list:
    """Count calls into the evaluator; the first ``fail_first`` raise."""
    calls = []
    real = builtin_mod.decide_bounded

    def counting(goal, domain):
        calls.append(domain.node_budget)
        if len(calls) <= fail_first:
            raise RuntimeError("evaluator crashed")
        return real(goal, domain)

    monkeypatch.setattr(builtin_mod, "decide_bounded", counting)
    return calls


def test_repeated_decide_is_evaluated_once(monkeypatch):
    calls = _count_decides(monkeypatch)
    checker = BuiltinChecker(DOMAIN)
    goal = parse_goal("goal t (x: Int) := x < 3")
    renamed = parse_goal("goal other (x: Int) := x < 3")
    first = checker.check(CheckRequest(KIND_DIRECT, goal), T_MS)
    # The same statement under another name, and through the other two
    # request kinds that decide it, reuses the verdict.
    again = [
        checker.check(CheckRequest(KIND_DIRECT, renamed), T_MS),
        checker.check(CheckRequest(KIND_RECONSTRUCTION, goal), T_MS),
        checker.check(CheckRequest(KIND_COMPLETION, goal, proof_text=DIRECT_PROOF_DIRECTIVE), T_MS),
    ]
    assert len(calls) == 1
    assert first.status == REJECTED and "x=3" in first.diagnostics
    for verdict in again:
        assert (verdict.status, verdict.diagnostics) == (first.status, first.diagnostics)


def test_decide_memo_is_keyed_by_the_node_budget(monkeypatch):
    calls = _count_decides(monkeypatch)
    checker = BuiltinChecker(DOMAIN)
    # 11**3 assignments: more than a 1 ms budget's nodes, fewer than 100 ms's.
    goal = parse_goal("goal t (x: Int) (y: Int) (z: Int) := x + y + z = z + y + x")
    request = CheckRequest(KIND_DIRECT, goal)
    assert checker.check(request, 1).status == TIMEOUT
    assert checker.check(request, 100).status == ACCEPTED
    # A cached budget exhaustion is still reported as a timeout.
    assert checker.check(request, 1).status == TIMEOUT
    assert calls == [NODES_PER_MS, 100 * NODES_PER_MS]


def test_decide_memo_never_caches_a_checker_error(monkeypatch):
    calls = _count_decides(monkeypatch, fail_first=1)
    checker = BuiltinChecker(DOMAIN)
    request = CheckRequest(KIND_DIRECT, parse_goal("goal t (x: Int) := x <= 5"))
    crashed = checker.check(request, T_MS)
    assert crashed.status == CHECKER_ERROR and "RuntimeError" in crashed.diagnostics
    assert checker.check(request, T_MS).status == ACCEPTED
    assert checker.check(request, T_MS).status == ACCEPTED
    assert len(calls) == 2


def test_checks_at_one_timeout_share_one_domain():
    checker = BuiltinChecker(DOMAIN)
    first = checker._domain_for(10)
    assert checker._domain_for(10) is first and first.node_budget == 10 * NODES_PER_MS
    assert checker._domain_for(20).node_budget == 20 * NODES_PER_MS
    assert checker._domain_for(10).node_budget == 10 * NODES_PER_MS
    assert checker._domain_for(10**9).node_budget == DOMAIN.node_budget


def test_threads_sharing_a_checker_get_the_domain_of_their_own_timeout():
    checker = BuiltinChecker(DOMAIN)
    wrong: list[tuple[int, int]] = []

    def worker(timeout_ms: int) -> None:
        for _ in range(2000):
            budget = checker._domain_for(timeout_ms).node_budget
            if budget != timeout_ms * NODES_PER_MS:
                wrong.append((timeout_ms, budget))

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(1, 9)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


# --- conjunction introduction -------------------------------------------------


def _and_intro(goal: GoalDecl, *lemmas: GoalDecl) -> CheckVerdict:
    return _check(
        CheckRequest(KIND_RECONSTRUCTION, goal, lemmas=lemmas, proof_text=RECON_AND_INTRO)
    )


def test_and_intro_accepts_exact_tiling():
    goal = parse_goal("goal g (x: Int) := x = x /\\ (x <= 5 /\\ 0 <= x + 5)")
    a = parse_goal("goal a (x: Int) := x = x")
    b = parse_goal("goal b (x: Int) := x <= 5")
    c = parse_goal("goal c (x: Int) := 0 <= x + 5")
    assert _and_intro(goal, a, b, c).status == ACCEPTED


def test_and_intro_is_structural_not_semantic():
    # Falsity is the quickcheck gate's job; tiling alone passes here.
    goal = parse_goal("goal g := 0 = 1 /\\ 0 = 2")
    a = parse_goal("goal a := 0 = 1")
    b = parse_goal("goal b := 0 = 2")
    assert _and_intro(goal, a, b).status == ACCEPTED


def test_and_intro_lemma_may_cover_a_subtree():
    goal = parse_goal("goal g := 0 = 0 /\\ (1 = 1 /\\ 2 = 2)")
    a = parse_goal("goal a := 0 = 0")
    bc = parse_goal("goal bc := 1 = 1 /\\ 2 = 2")
    assert _and_intro(goal, a, bc).status == ACCEPTED


def test_and_intro_rejects_wrong_order_and_missing_pieces():
    goal = parse_goal("goal g := 0 = 0 /\\ 1 = 1")
    a = parse_goal("goal a := 0 = 0")
    b = parse_goal("goal b := 1 = 1")
    assert _and_intro(goal, b, a).status == REJECTED
    assert _and_intro(goal, a).status == REJECTED


def test_and_intro_rejects_foreign_binder():
    goal = parse_goal("goal g (x: Int) := x = x /\\ 0 = 0")
    a = parse_goal("goal a (z: Int) := z = z")
    b = parse_goal("goal b := 0 = 0")
    verdict = _and_intro(goal, a, b)
    assert verdict.status == REJECTED
    assert "z" in verdict.diagnostics


def test_and_intro_rejects_unbound_lemma_body():
    goal = parse_goal("goal g (x: Int) := x = x /\\ 0 = 0")
    stray = GoalDecl("a", (), parse_goal("goal t (x: Int) := x = x").body)
    b = parse_goal("goal b := 0 = 0")
    verdict = _and_intro(goal, stray, b)
    assert verdict.status == REJECTED
    assert "unbound" in verdict.diagnostics


# --- first-binder grounding ---------------------------------------------------


def test_grounding_accepts_in_order_instances():
    d = Domain(int_lo=0, int_hi=1)
    checker = BuiltinChecker(d)
    goal = parse_goal("goal g (x: Int) (y: Int) := x * y = y * x")
    lemmas = tuple(
        GoalDecl(f"g_1_{i}", (("y", Sort.INT),), substitute(goal.body, "x", IntLit(v)))
        for i, v in enumerate([0, 1], start=1)
    )
    req = CheckRequest(KIND_RECONSTRUCTION, goal, lemmas=lemmas, proof_text=RECON_GROUND)
    assert checker.check(req, T_MS).status == ACCEPTED


def test_grounding_rejects_wrong_count_order_or_binders():
    d = Domain(int_lo=0, int_hi=1)
    checker = BuiltinChecker(d)
    goal = parse_goal("goal g (x: Int) (y: Int) := x * y = y * x")
    inst = [
        GoalDecl(f"g_1_{i}", (("y", Sort.INT),), substitute(goal.body, "x", IntLit(v)))
        for i, v in enumerate([0, 1], start=1)
    ]

    def run(lemmas):
        req = CheckRequest(
            KIND_RECONSTRUCTION, goal, lemmas=tuple(lemmas), proof_text=RECON_GROUND
        )
        return checker.check(req, T_MS)

    assert "2 instances" in run(inst[:1]).diagnostics
    assert "not the instance" in run(inst[::-1]).diagnostics
    dropped = GoalDecl(inst[0].name, (), inst[0].body)
    assert "must keep binders" in run([dropped, inst[1]]).diagnostics
    closed = parse_goal("goal c := 0 = 0")
    assert "at least one binder" in checker.check(
        CheckRequest(KIND_RECONSTRUCTION, closed, lemmas=(inst[0],), proof_text=RECON_GROUND),
        T_MS,
    ).diagnostics


def test_grounding_over_list_carrier():
    d = Domain(int_lo=0, int_hi=0, max_list_len=1, elem_lo=0, elem_hi=0)
    checker = BuiltinChecker(d)
    goal = parse_goal("goal g (l: IntList) := len(l) <= 1")
    values = [(), (0,)]
    lemmas = tuple(
        GoalDecl(
            f"g_1_{i}",
            (),
            substitute(goal.body, "l", ListLit(tuple(IntLit(e) for e in v))),
        )
        for i, v in enumerate(values, start=1)
    )
    req = CheckRequest(KIND_RECONSTRUCTION, goal, lemmas=lemmas, proof_text=RECON_GROUND)
    assert checker.check(req, T_MS).status == ACCEPTED


# --- policies -----------------------------------------------------------------


def _ctx(goal: GoalDecl, depth: int = 0) -> PolicyContext:
    return PolicyContext(goal=goal, target_depth=depth)


def test_direct_submit_policy():
    goal = parse_goal("goal t := 0 = 0")
    policy = DirectSubmit()
    proposal = policy.propose_decomposition(_ctx(goal))
    assert proposal.k == 0
    assert proposal.reconstruction == RECON_DIRECT
    assert policy.propose_completion(_ctx(goal)) == DIRECT_PROOF_DIRECTIVE
    assert policy.fork(99) is policy


def test_splitter_depth_controls_fringe_flattening():
    goal = parse_goal("goal g := 0 = 0 /\\ (1 = 1 /\\ 2 = 2)")
    shallow = ConjunctionSplitter(depth=1).propose_decomposition(_ctx(goal))
    assert shallow.k == 2
    deep = ConjunctionSplitter(depth=2).propose_decomposition(_ctx(goal))
    assert deep.k == 3
    assert deep.reconstruction == RECON_AND_INTRO


# At depth 0 the fringe was the goal itself, proposed as its own only lemma.
@pytest.mark.parametrize(
    "make",
    [lambda depth: ConjunctionSplitter(depth=depth),
     lambda depth: StochasticPolicy(0, DOMAIN, split_depth=depth)],
    ids=["splitter", "stochastic"],
)
@pytest.mark.parametrize("depth", [0, -1])
def test_a_split_depth_below_one_is_refused(make, depth):
    with pytest.raises(ContractViolation, match="split depth must be a positive integer"):
        make(depth)


def test_splitter_restricts_binders_and_names_children():
    goal = parse_goal("goal g (x: Int) (y: Int) := x = x /\\ y = y")
    proposal = ConjunctionSplitter().propose_decomposition(_ctx(goal, depth=2))
    first, second = proposal.lemmas
    assert first.name == fresh_lemma_name("g", 3, 1)
    assert second.name == fresh_lemma_name("g", 3, 2)
    assert first.binders == (("x", Sort.INT),)
    assert second.binders == (("y", Sort.INT),)


def test_splitter_proposals_reconstruct_under_the_checker():
    goal = parse_goal("goal g (x: Int) := x + 0 = x /\\ x * 1 = x")
    proposal = ConjunctionSplitter().propose_decomposition(_ctx(goal))
    req = CheckRequest(
        KIND_RECONSTRUCTION, goal, lemmas=proposal.lemmas, proof_text=proposal.reconstruction
    )
    assert _check(req).status == ACCEPTED


def test_splitter_falls_back_to_direct_on_non_conjunction():
    goal = parse_goal("goal g (x: Int) := x = x")
    proposal = ConjunctionSplitter().propose_decomposition(_ctx(goal))
    assert proposal.k == 0 and proposal.reconstruction == RECON_DIRECT


# The widest Int carrier the grounder spells out, and one value more.
EIGHT_INTS = Domain(int_lo=-4, int_hi=3)
NINE_INTS = Domain(int_lo=-4, int_hi=4)


def test_grounder_instantiates_small_carriers():
    goal = parse_goal("goal g (x: Int) (y: Int) := x * y = y * x")
    proposal = QuantifierGrounder(EIGHT_INTS).propose_decomposition(_ctx(goal))
    assert proposal.k == EIGHT_INTS.value_count(Sort.INT) == MAX_GROUND_POINTS
    assert proposal.reconstruction == RECON_GROUND
    req = CheckRequest(
        KIND_RECONSTRUCTION, goal, lemmas=proposal.lemmas, proof_text=proposal.reconstruction
    )
    assert BuiltinChecker(EIGHT_INTS).check(req, T_MS).status == ACCEPTED


def test_grounder_declines_large_carriers_and_closed_goals():
    goal = parse_goal("goal g (x: Int) := x + 0 = x")
    assert QuantifierGrounder(NINE_INTS).propose_decomposition(_ctx(goal)).k == 0
    assert QuantifierGrounder(DOMAIN).propose_decomposition(_ctx(goal)).k == 0
    closed = parse_goal("goal c := 0 = 0")
    assert QuantifierGrounder(DOMAIN).propose_decomposition(_ctx(closed)).k == 0


def test_junk_proposal_is_refutable_by_quickcheck():
    from provekit.quickcheck import Counterexample, QcConfig, quickcheck

    goal = parse_goal("goal g (x: Int) := x = x")
    proposal = _junk_proposal(_ctx(goal))
    assert proposal.k == 1
    (lemma,) = proposal.lemmas
    out = quickcheck(lemma, QcConfig(trials=5, seed=0), DOMAIN)
    assert isinstance(out, Counterexample)


def test_stochastic_policy_is_seed_deterministic():
    goal = parse_goal("goal g (x: Int) := x = x /\\ x + 0 = x")
    ctx = _ctx(goal)
    a = StochasticPolicy(7, DOMAIN)
    b = StochasticPolicy(7, DOMAIN)
    assert [a.propose_decomposition(ctx) for _ in range(20)] == [
        b.propose_decomposition(ctx) for _ in range(20)
    ]


def test_stochastic_policy_mixes_all_strategies():
    goal = parse_goal("goal g (x: Int) := x = x /\\ x + 0 = x")
    ctx = _ctx(goal)
    # 5-point integer carrier keeps the grounder inside its point cap.
    policy = StochasticPolicy(0, Domain(int_lo=-2, int_hi=2))
    kinds = {
        policy.propose_decomposition(ctx).reconstruction for _ in range(200)
    }
    assert kinds == {RECON_AND_INTRO, RECON_DIRECT, RECON_GROUND, "entailment"}


def test_stochastic_fork_reseeds_independently():
    goal = parse_goal("goal g (x: Int) := x = x /\\ x + 0 = x")
    ctx = _ctx(goal)
    parent = StochasticPolicy(3, DOMAIN, split_depth=2)
    parent.propose_decomposition(ctx)  # advance parent state
    child = parent.fork(3)
    fresh = StochasticPolicy(3, DOMAIN, split_depth=2)
    assert [child.propose_decomposition(ctx) for _ in range(10)] == [
        fresh.propose_decomposition(ctx) for _ in range(10)
    ]


# The reconstruction marker each action of StochasticPolicy proposes for
# GROUNDABLE on SMALL_DOMAIN, whose 5-point carrier keeps the grounder
# inside its point cap.
SMALL_DOMAIN = Domain(int_lo=-2, int_hi=2)
GROUNDABLE = parse_goal("goal g (x: Int) := x = x /\\ x + 0 = x")
MARKER_OF_ACTION = {
    "split": RECON_AND_INTRO, "ground": RECON_GROUND, "junk": "entailment", "direct": RECON_DIRECT,
}


def _eager_markers(seed: int, draws: int) -> list[str]:
    """What a generator seeded up front draws, as reconstruction markers."""
    names = sorted(builtin_mod.DEFAULT_WEIGHTS)
    weights = [builtin_mod.DEFAULT_WEIGHTS[n] for n in names]
    rng = random.Random(seed)
    return [MARKER_OF_ACTION[rng.choices(names, weights=weights)[0]] for _ in range(draws)]


def test_a_fork_seeded_on_first_draw_replays_an_eagerly_seeded_generator():
    ctx = _ctx(GROUNDABLE)
    for seed in range(50):
        fork_seed = seed * 7919 + 1
        fork = StochasticPolicy(seed, SMALL_DOMAIN).fork(fork_seed)
        drawn = [fork.propose_decomposition(ctx).reconstruction for _ in range(12)]
        assert drawn == _eager_markers(fork_seed, 12)


def test_interleaved_forks_share_no_generator():
    ctx = _ctx(GROUNDABLE)
    parent = StochasticPolicy(0, SMALL_DOMAIN)
    forks = [parent.fork(5), parent.fork(5), parent.fork(6)]
    drawn: list[list[str]] = [[], [], []]
    for _ in range(15):
        for fork, out in zip(forks, drawn):
            out.append(fork.propose_decomposition(ctx).reconstruction)
    assert drawn == [_eager_markers(5, 15), _eager_markers(5, 15), _eager_markers(6, 15)]
    # The parent, never drawn from, still starts its own stream.
    assert parent.propose_decomposition(ctx).reconstruction == _eager_markers(0, 1)[0]


def test_a_fork_shares_the_stateless_sub_policies_but_not_the_weights():
    parent = StochasticPolicy(0, DOMAIN, split_depth=2)
    fork = parent.fork(1)
    assert (fork._splitter, fork._grounder, fork._direct) == (
        parent._splitter, parent._grounder, parent._direct,
    )
    assert (fork.seed, fork.split_depth) == (1, 2)
    assert fork.weights == parent.weights and fork.weights is not parent.weights


def test_stochastic_policy_copies_caller_weights():
    weights = {"split": 1.0, "direct": 0.0, "ground": 0.0, "junk": 0.0}
    policy = StochasticPolicy(0, DOMAIN, weights=weights)
    weights["split"] = 0.0
    weights["junk"] = 1.0
    goal = parse_goal("goal g := 0 = 0 /\\ 1 = 1")
    proposal = policy.propose_decomposition(_ctx(goal))
    assert proposal.reconstruction == RECON_AND_INTRO


# --- protocol plumbing ---------------------------------------------------------


def test_builtin_types_satisfy_the_protocols():
    assert isinstance(CHECKER, Checker)
    for policy in (DirectSubmit(), ConjunctionSplitter(), StochasticPolicy(0, DOMAIN)):
        assert isinstance(policy, Policy)


def test_axiom_audit():
    clean = CheckVerdict(ACCEPTED, axioms_used=("propext", "Quot.sound"))
    assert axiom_audit(clean) == []
    dirty = CheckVerdict(ACCEPTED, axioms_used=("propext", "Lean.ofReduceBool"))
    assert axiom_audit(dirty) == ["Lean.ofReduceBool"]
    with pytest.raises(ContractViolation):
        axiom_audit(CheckVerdict(REJECTED, diagnostics="no"))


def test_default_allowlist_contents():
    assert DEFAULT_AXIOM_ALLOWLIST == frozenset({"propext", "Classical.choice", "Quot.sound"})


def test_contract_validation_on_wire_types():
    goal = parse_goal("goal t := 0 = 0")
    with pytest.raises(ContractViolation):
        CheckRequest("prove", goal)
    with pytest.raises(ContractViolation):
        CheckVerdict(REJECTED, axioms_used=("propext",))


def test_fresh_lemma_name_format():
    assert fresh_lemma_name("root", 1, 2) == "root_1_2"
