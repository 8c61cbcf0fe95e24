"""Wire protocol adapters: stdio JSON lines, HTTP, prompt templating."""

from __future__ import annotations

import http.server
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from concurrent.futures import ThreadPoolExecutor

import pytest

from provekit.errors import CheckerProtocolError, PolicyError
from provekit.lang import parse_goal
from provekit.prover import (
    ACCEPTED,
    CHECKER_ERROR,
    REJECTED,
    TIMEOUT,
    CheckRequest,
    DirectSubmit,
    ExternalChecker,
    ExternalPolicy,
    FeedbackEntry,
    JsonHttpEndpoint,
    JsonLineProcess,
    make_transport,
)
from provekit.prover import external as external_mod
from provekit.prover import prompts
from provekit.prover.api import (
    KIND_COMPLETION,
    KIND_DIRECT,
    CheckVerdict,
    PolicyContext,
)
from provekit.prover.external import CHECK_MEMO_SIZE, MAX_LINE_BYTES
from provekit.search import (
    OUTCOME_EXHAUSTED,
    REASON_INFRASTRUCTURE,
    SearchConfig,
    run_single,
)

# A scriptable peer: behavior is keyed on substrings of the goal text, so
# one server covers every scenario without a config channel.
SERVER_SRC = r'''
import json, sys, time

held = None

def reply(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()

def check_response(req):
    goal = req.get("goal", "")
    rid = req["id"]
    if "slowreply" in goal:
        time.sleep(1.0)
        return {"id": rid, "status": "accepted"}
    if "wrongid" in goal:
        return {"id": "nope", "status": "accepted"}
    if "unsentid" in goal:
        return {"id": rid + 1000, "status": "accepted"}
    if "axioms" in goal:
        return {"id": rid, "status": "accepted",
                "axioms": ["propext", "Quot.sound"], "wall_time_ms": 12}
    if "reject" in goal:
        return {"id": rid, "status": "rejected", "diagnostics": "nope"}
    if "timeouty" in goal:
        return {"id": rid, "status": "timeout"}
    if "brokeme" in goal:
        return {"id": rid, "status": "error", "diagnostics": "kernel panic"}
    if "weird" in goal:
        return {"id": rid, "status": "maybe"}
    if "bigreply" in goal:
        return {"id": rid, "status": "rejected", "diagnostics": "a" * 1_000_000}
    return {"id": rid, "status": "accepted", "goal": goal}

def policy_response(req):
    goal = req.get("goal", "")
    rid = req["id"]
    if "wrongid" in goal:
        return {"id": "nope", "lemmas": [], "proof": "decide"}
    if req["mode"] == "decompose":
        if "notalist" in goal:
            return {"id": rid, "lemmas": "oops"}
        if "badlemma" in goal:
            return {"id": rid, "lemmas": ["goal ( := junk"]}
        if "bare" in goal:
            return {"id": rid, "lemmas": ["goal bare_1_1 := 0 = 0"]}
        return {
            "id": rid,
            "lemmas": ["goal a (x: Int) := x = x", "goal b := 0 = 0"],
            "reconstruction": "and-intro",
            "rationale": "because",
        }
    if "fulltext" in goal:
        return {"id": rid, "proof": "decide"}
    if "straymark" in goal:
        return {"id": rid, "proof": "=======\njunk"}
    if "editor" in goal:
        proof = "\n".join([
            "<<<<<<< SEARCH",
            "line two",
            "=======",
            "line 2",
            ">>>>>>> REPLACE",
        ])
        return {"id": rid, "proof": proof}
    return {"id": rid, "proof": "decide"}

for line in sys.stdin:
    line = line.strip()
    if not line:
        continue
    req = json.loads(line)
    goal = req.get("goal", "")
    if "dropdead" in goal:
        sys.exit(0)
    if "garbage" in goal:
        sys.stdout.write("not json at all\n")
        sys.stdout.flush()
        continue
    if "badbytes" in goal:
        sys.stdout.buffer.write(b'{"id": %d, "status": "rejected", "diagnostics": "\xff"}\n'
                                % req["id"])
        sys.stdout.flush()
        continue
    if "flood" in goal:
        # 4 MB and no newline; the client stops reading and closes the pipe.
        try:
            sys.stdout.buffer.write(b"x" * (4 << 20))
            sys.stdout.flush()
        except OSError:
            sys.exit(0)
        continue
    if "pairfirst" in goal:
        held = check_response(req)
        continue
    resp = policy_response(req) if "mode" in req else check_response(req)
    reply(resp)
    if "dupreply" in goal:
        reply(resp)
    if held is not None:
        reply(held)
        held = None
'''


@pytest.fixture(scope="module")
def server_script(tmp_path_factory):
    path = tmp_path_factory.mktemp("peer") / "peer.py"
    path.write_text(SERVER_SRC)
    return str(path)


@pytest.fixture()
def process(server_script):
    with JsonLineProcess([sys.executable, server_script]) as proc:
        yield proc


def _direct(name: str) -> CheckRequest:
    return CheckRequest(KIND_DIRECT, parse_goal(f"goal {name} := 0 = 0"))


class _CountingTransport:
    """Records every request and answers it with the next scripted reply,
    repeating the last: a dict of wire fields, or an exception to raise.
    With ``gated``, a request sets ``entered`` and then waits for
    ``release``."""

    def __init__(self, *replies, gated=False):
        self.replies = replies
        self.payloads = []
        self.entered = threading.Event()
        self.release = threading.Event()
        if not gated:
            self.release.set()

    def request(self, payload, timeout_s):
        self.payloads.append(payload)
        self.entered.set()
        assert self.release.wait(5.0)
        reply = self.replies[min(len(self.payloads), len(self.replies)) - 1]
        if isinstance(reply, BaseException):
            raise reply
        return {"id": len(self.payloads), **reply}


# --- stdio transport ----------------------------------------------------------


def test_checker_roundtrip_with_axioms(process):
    checker = ExternalChecker(process)
    verdict = checker.check(_direct("axioms"), 1000)
    assert verdict.status == ACCEPTED
    assert verdict.axioms_used == ("propext", "Quot.sound")


@pytest.mark.parametrize(
    "name,status,needle",
    [
        ("rejectme", REJECTED, "nope"),
        ("timeouty", TIMEOUT, ""),
        ("brokeme", CHECKER_ERROR, "kernel panic"),
    ],
)
def test_wire_statuses_map_onto_verdicts(process, name, status, needle):
    verdict = ExternalChecker(process).check(_direct(name), 1000)
    assert verdict.status == status
    assert needle in verdict.diagnostics


def test_unknown_wire_status_is_a_checker_error(process):
    verdict = ExternalChecker(process).check(_direct("weird"), 1000)
    assert verdict.status == CHECKER_ERROR
    assert "maybe" in verdict.diagnostics


_UNHASHABLE_STATUSES = [["accepted"], {"accepted": True}]


@pytest.mark.parametrize("status", _UNHASHABLE_STATUSES, ids=["array", "object"])
def test_a_status_that_is_not_a_string_is_a_checker_error(status):
    verdict = ExternalChecker(_CountingTransport({"status": status})).check(_direct("any"), 1000)
    assert verdict.status == CHECKER_ERROR
    assert verdict.diagnostics == f"unknown status {status!r}"


@pytest.mark.parametrize("status", _UNHASHABLE_STATUSES, ids=["array", "object"])
def test_a_status_that_is_not_a_string_does_not_end_the_run(status):
    # The stage-one gate asks the checker first; the bad reply must become
    # an infrastructure rejection there, not an exception out of the run.
    checker = ExternalChecker(_CountingTransport({"status": status}))
    config = SearchConfig(decompose_iters=2, complete_iters=1)
    result, trace = run_single(parse_goal("goal g (x: Int) := x = x"), DirectSubmit(), checker, config)
    assert result.outcome == OUTCOME_EXHAUSTED
    reasons = [e["reason"] for e in trace.events if e["type"] == "decompose_attempt"]
    assert reasons == [REASON_INFRASTRUCTURE] * 2


@pytest.mark.parametrize("axioms", [5, "propext", None])
def test_axioms_that_are_not_a_list_are_a_checker_error(axioms):
    checker = ExternalChecker(_CountingTransport({"status": "accepted", "axioms": axioms}))
    verdict = checker.check(_direct("anything"), 1000)
    assert verdict.status == CHECKER_ERROR
    assert "axioms must be a list" in verdict.diagnostics


def test_reported_wall_time_is_not_read():
    checker = ExternalChecker(_CountingTransport({"status": "accepted", "wall_time_ms": "soon"}))
    assert checker.check(_direct("anything"), 1000).status == ACCEPTED


def test_the_transport_numbers_its_requests(process):
    # Any id the caller passed is overwritten.
    assert process.request({"id": "mine", "goal": "goal plain := 0 = 0"}, 5.0)["id"] == 1
    assert process.request({"goal": "goal plain := 0 = 0"}, 5.0)["id"] == 2


def test_out_of_order_responses_are_routed_by_id(process):
    # The peer holds its answer to the first request until the second
    # arrives, then answers in reverse order.
    first = {"goal": "goal pairfirst := 0 = 0"}
    second = {"goal": "goal plain := 0 = 0"}
    with ThreadPoolExecutor(max_workers=1) as pool:
        fut = pool.submit(process.request, first, 5.0)
        got_second = process.request(second, 5.0)
        got_first = fut.result(timeout=5.0)
    assert got_first["goal"] == first["goal"]
    assert got_second["goal"] == second["goal"]


def test_transport_timeout_raises(process):
    with pytest.raises(CheckerProtocolError, match="no response"):
        process.request({"goal": "goal slowreply := 0 = 0"}, 0.25)


def test_late_reply_after_timeout_is_dropped(process):
    with pytest.raises(CheckerProtocolError, match="no response"):
        process.request({"goal": "goal slowreply := 0 = 0"}, 0.25)
    # The peer answers in order, so by the time this reply is in, the late
    # answer to the first request has been read as well.
    plain = {"goal": "goal plain := 0 = 0"}
    assert process.request(plain, 5.0)["goal"] == plain["goal"]
    assert process._replies == {}


def test_duplicate_reply_is_dropped(process):
    assert process.request({"goal": "goal dupreply := 0 = 0"}, 5.0)["id"] == 1
    assert process.request({"goal": "goal plain := 0 = 0"}, 5.0)["id"] == 2
    assert process._replies == {}


@pytest.mark.parametrize("name", ["wrongid", "unsentid"])
def test_reply_to_an_id_never_sent_fails_at_once(process, name):
    process.request({"goal": "goal plain := 0 = 0"}, 5.0)  # the peer is up
    start = time.monotonic()
    with pytest.raises(CheckerProtocolError, match="never sent"):
        process.request({"goal": f"goal {name} := 0 = 0"}, 30.0)
    assert time.monotonic() - start < 1.0
    # The connection is broken: a later request fails at once as well.
    with pytest.raises(CheckerProtocolError, match="never sent"):
        process.request({"goal": "goal plain := 0 = 0"}, 30.0)
    assert time.monotonic() - start < 1.0


def test_reply_to_an_id_never_sent_is_a_checker_error_at_once(process):
    checker = ExternalChecker(process)
    assert checker.check(_direct("plain"), 30_000).status == ACCEPTED
    start = time.monotonic()
    verdict = checker.check(_direct("wrongid"), 30_000)
    assert time.monotonic() - start < 1.0
    assert verdict.status == CHECKER_ERROR
    assert "never sent" in verdict.diagnostics


def test_reply_to_an_id_never_sent_is_a_policy_error_at_once(process):
    policy = ExternalPolicy(process)
    assert policy.propose_completion(PolicyContext(goal=parse_goal("goal fulltext := 0 = 0")))
    start = time.monotonic()
    with pytest.raises(PolicyError, match="never sent"):
        policy.propose_decomposition(PolicyContext(goal=parse_goal("goal wrongid := 0 = 0")))
    assert time.monotonic() - start < 1.0


def test_peer_exit_surfaces_as_protocol_error(process):
    with pytest.raises(CheckerProtocolError):
        process.request({"goal": "goal dropdead := 0 = 0"}, 2.0)


def test_unparseable_peer_line_surfaces_as_protocol_error(process):
    with pytest.raises(CheckerProtocolError, match="unparseable"):
        process.request({"goal": "goal garbage := 0 = 0"}, 2.0)


def test_reply_that_is_not_utf8_fails_at_once(process):
    start = time.monotonic()
    with pytest.raises(CheckerProtocolError, match="unparseable"):
        process.request({"goal": "goal badbytes := 0 = 0"}, 30.0)
    assert time.monotonic() - start < 1.0
    # The reader broke the connection rather than dying, so a later request fails at once too.
    with pytest.raises(CheckerProtocolError, match="unparseable"):
        process.request({"goal": "goal plain := 0 = 0"}, 30.0)
    assert time.monotonic() - start < 1.0


def test_reply_that_is_not_utf8_is_a_checker_error_at_once(process):
    start = time.monotonic()
    verdict = ExternalChecker(process).check(_direct("badbytes"), 30_000)
    assert time.monotonic() - start < 1.0
    assert verdict.status == CHECKER_ERROR


def test_a_line_longer_than_the_cap_is_a_checker_error(process):
    start = time.monotonic()
    verdict = ExternalChecker(process).check(_direct("flood"), 30_000)
    assert verdict.status == CHECKER_ERROR
    assert f"peer sent a line longer than {MAX_LINE_BYTES} bytes" in verdict.diagnostics
    # The connection is broken: a later request fails at once too.
    with pytest.raises(CheckerProtocolError, match=f"longer than {MAX_LINE_BYTES} bytes"):
        process.request({"goal": "goal plain := 0 = 0"}, 30.0)
    assert time.monotonic() - start < 5.0


def test_a_long_reply_within_the_cap_is_read(process):
    assert 1_000_000 < MAX_LINE_BYTES
    verdict = ExternalChecker(process).check(_direct("bigreply"), 30_000)
    assert verdict.status == REJECTED
    assert verdict.diagnostics == "a" * 1_000_000


def test_close_stops_the_peer_and_the_reader(server_script):
    proc = JsonLineProcess([sys.executable, server_script])
    assert proc.request({"goal": "goal plain := 0 = 0"}, 5.0)["status"] == "accepted"
    proc.close()
    assert proc._proc.poll() is not None
    assert not proc._reader.is_alive()
    start = time.monotonic()
    with pytest.raises(CheckerProtocolError, match="closed"):
        proc.request({"goal": "goal plain := 0 = 0"}, 30.0)
    assert time.monotonic() - start < 1.0


@pytest.fixture()
def deaf_peer(tmp_path):
    """A peer that closes its input once started and never replies; the
    fixture yields once the input is closed."""
    closed = tmp_path / "closed"
    code = f"import os, time; os.close(0); open({str(closed)!r}, 'w').close(); time.sleep(30)"
    with JsonLineProcess([sys.executable, "-c", code]) as proc:
        deadline = time.monotonic() + 30
        while not closed.exists():
            assert time.monotonic() < deadline
            time.sleep(0.01)
        yield proc


def test_a_peer_that_stops_reading_is_a_checker_error_at_once(deaf_peer):
    start = time.monotonic()
    verdict = ExternalChecker(deaf_peer).check(_direct("plain"), 30_000)
    assert verdict.status == CHECKER_ERROR
    assert "cannot write to peer" in verdict.diagnostics
    # The connection is broken: a later request fails before it is written.
    with pytest.raises(CheckerProtocolError, match="cannot write to peer"):
        deaf_peer.request({"goal": "goal plain := 0 = 0"}, 30.0)
    assert time.monotonic() - start < 1.0
    # The stage-one gate's in-line check ends in a rejection, not an exception out of the run.
    config = SearchConfig(decompose_iters=2, complete_iters=1)
    result, trace = run_single(
        parse_goal("goal g (x: Int) := x = x"), DirectSubmit(), ExternalChecker(deaf_peer), config
    )
    assert result.outcome == OUTCOME_EXHAUSTED
    reasons = [e["reason"] for e in trace.events if e["type"] == "decompose_attempt"]
    assert reasons == [REASON_INFRASTRUCTURE] * 2


def test_a_peer_that_stops_reading_is_a_policy_error(deaf_peer):
    with pytest.raises(PolicyError, match="cannot write to peer"):
        ExternalPolicy(deaf_peer).propose_decomposition(PolicyContext(goal=parse_goal("goal g := 0 = 0")))


def test_transport_failure_becomes_checker_error_verdict(process):
    checker = ExternalChecker(process)
    verdict = checker.check(_direct("dropdead"), 500)
    assert verdict.status == CHECKER_ERROR


# --- external checker verdict memo ---------------------------------------------

_WIRE = {ACCEPTED: "accepted", REJECTED: "rejected", TIMEOUT: "timeout", CHECKER_ERROR: "error"}


@pytest.fixture()
def waiting(monkeypatch):
    """Released once by every call that starts waiting on a check in flight."""
    semaphore = threading.Semaphore(0)

    class SignallingEvent(threading.Event):
        def wait(self, timeout=None):
            semaphore.release()
            return super().wait(timeout)

    class WatchedFlight(external_mod._Flight):
        def __init__(self):
            super().__init__()
            self.done = SignallingEvent()

    monkeypatch.setattr(external_mod, "_Flight", WatchedFlight)
    return semaphore


@pytest.mark.parametrize("status", [ACCEPTED, REJECTED, TIMEOUT, CHECKER_ERROR])
def test_concurrent_identical_checks_share_one_request(waiting, status):
    transport = _CountingTransport({"status": _WIRE[status], "diagnostics": "d"}, gated=True)
    checker = ExternalChecker(transport)
    with ThreadPoolExecutor(max_workers=2) as pool:
        first = pool.submit(checker.check, _direct("same"), 1000)
        assert transport.entered.wait(5.0)
        second = pool.submit(checker.check, _direct("same"), 1000)
        assert waiting.acquire(timeout=5.0)
        transport.release.set()
        verdicts = (first.result(timeout=5.0), second.result(timeout=5.0))
    assert len(transport.payloads) == 1
    assert verdicts[0] == verdicts[1]
    assert verdicts[0].status == status
    assert checker._in_flight == {}


@pytest.mark.parametrize("status", [ACCEPTED, REJECTED])
def test_repeated_settled_check_is_served_without_a_request(status):
    transport = _CountingTransport({"status": _WIRE[status], "axioms": []})
    checker = ExternalChecker(transport)
    first = checker.check(_direct("same"), 1000)
    assert first.status == status
    assert [checker.check(_direct("same"), 1000) for _ in range(3)] == [first] * 3
    assert len(transport.payloads) == 1


@pytest.mark.parametrize(
    "reply,status",
    [
        ({"status": "timeout"}, TIMEOUT),
        ({"status": "error", "diagnostics": "kernel panic"}, CHECKER_ERROR),
        (CheckerProtocolError("connection reset"), CHECKER_ERROR),
    ],
)
def test_timeouts_and_checker_errors_are_asked_again(reply, status):
    transport = _CountingTransport(reply, {"status": "accepted"})
    checker = ExternalChecker(transport)
    assert checker.check(_direct("same"), 1000).status == status
    assert checker.check(_direct("same"), 1000).status == ACCEPTED
    assert len(transport.payloads) == 2


_BASE = CheckRequest(
    KIND_COMPLETION,
    parse_goal("goal base (x: Int) := x = x"),
    lemmas=(parse_goal("goal l1 := 0 = 0"),),
    proof_text="decide",
)


@pytest.mark.parametrize(
    "other,timeout_ms",
    [
        (CheckRequest(KIND_COMPLETION, _BASE.goal, _BASE.lemmas, "simp"), 1000),
        (CheckRequest(KIND_COMPLETION, _BASE.goal, (), "decide"), 1000),
        (CheckRequest(KIND_COMPLETION, parse_goal("goal renamed (x: Int) := x = x"),
                      _BASE.lemmas, "decide"), 1000),
        (_BASE, 2000),
    ],
    ids=["proof_text", "lemmas", "goal_name", "timeout_ms"],
)
def test_remembered_acceptance_answers_no_other_obligation(other, timeout_ms):
    transport = _CountingTransport({"status": "accepted"}, {"status": "rejected"})
    checker = ExternalChecker(transport)
    assert checker.check(_BASE, 1000).status == ACCEPTED
    assert checker.check(other, timeout_ms).status == REJECTED
    assert len(transport.payloads) == 2


def test_finished_verdicts_stay_within_the_memo_size():
    transport = _CountingTransport({"status": "accepted"})
    checker = ExternalChecker(transport)
    for index in range(CHECK_MEMO_SIZE + 10):
        checker.check(_direct(f"g{index}"), 1000)
        assert len(checker._finished) <= CHECK_MEMO_SIZE
    assert len(checker._finished) == CHECK_MEMO_SIZE
    sent = len(transport.payloads)
    checker.check(_direct(f"g{CHECK_MEMO_SIZE + 9}"), 1000)  # the newest is kept
    assert len(transport.payloads) == sent
    checker.check(_direct("g0"), 1000)  # the oldest was evicted
    assert len(transport.payloads) == sent + 1


def test_many_threads_send_each_obligation_once():
    class EchoTransport:
        """Accepts every request, naming its goal in the axioms."""

        def __init__(self):
            self.goals = []

        def request(self, payload, timeout_s):
            self.goals.append(payload["goal"])
            time.sleep(0.001)
            return {"id": 1, "status": "accepted", "axioms": [payload["goal"]]}

    transport = EchoTransport()
    checker = ExternalChecker(transport)
    requests = [_direct(f"g{index}") for index in range(5)] * 40
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            verdicts = list(pool.map(lambda r: checker.check(r, 1000), requests, timeout=30.0))
    finally:
        sys.setswitchinterval(previous)
    assert sorted(transport.goals) == sorted(set(transport.goals))
    assert len(transport.goals) == 5
    for request, verdict in zip(requests, verdicts):
        assert verdict.axioms_used == (f"goal {request.goal.name} := 0 = 0",)
    assert checker._in_flight == {}


def test_a_leader_that_raises_releases_its_waiters(waiting):
    transport = _CountingTransport(RuntimeError("transport bug"), {"status": "accepted"},
                                   gated=True)
    checker = ExternalChecker(transport)
    with ThreadPoolExecutor(max_workers=2) as pool:
        leader = pool.submit(checker.check, _direct("same"), 1000)
        assert transport.entered.wait(5.0)
        waiter = pool.submit(checker.check, _direct("same"), 1000)
        assert waiting.acquire(timeout=5.0)
        transport.release.set()
        with pytest.raises(RuntimeError, match="transport bug"):
            leader.result(timeout=5.0)
        verdict = waiter.result(timeout=5.0)
    assert verdict.status == CHECKER_ERROR
    assert "RuntimeError: transport bug" in verdict.diagnostics
    assert checker._in_flight == {} and len(checker._finished) == 0
    assert checker.check(_direct("same"), 1000).status == ACCEPTED  # asked again
    assert len(transport.payloads) == 2


# --- external policy ----------------------------------------------------------


def test_policy_decomposition_roundtrip(process):
    policy = ExternalPolicy(process)
    ctx = PolicyContext(goal=parse_goal("goal lemmas_ok (x: Int) := x = x /\\ 0 = 0"))
    proposal = policy.propose_decomposition(ctx)
    assert [lemma.name for lemma in proposal.lemmas] == ["a", "b"]
    assert proposal.lemmas[0].binders == parse_goal("goal a (x: Int) := x = x").binders
    assert proposal.reconstruction == "and-intro"
    assert proposal.rationale == "because"


def test_policy_default_reconstruction_is_entailment(process):
    policy = ExternalPolicy(process)
    ctx = PolicyContext(goal=parse_goal("goal bare := 0 = 0"))
    assert policy.propose_decomposition(ctx).reconstruction == "entailment"


def test_policy_rejects_malformed_lemma_payloads(process):
    policy = ExternalPolicy(process)
    with pytest.raises(PolicyError, match="lemmas"):
        policy.propose_decomposition(PolicyContext(goal=parse_goal("goal notalist := 0 = 0")))
    with pytest.raises(PolicyError, match="unparseable lemma"):
        policy.propose_decomposition(PolicyContext(goal=parse_goal("goal badlemma := 0 = 0")))


@pytest.mark.parametrize("lemma", ["goal a := ² = 1", "goal a (x: Int) := x < ٣"])
def test_policy_non_ascii_digit_lemma_is_unparseable(lemma):
    policy = ExternalPolicy(_CountingTransport({"lemmas": [lemma]}))
    with pytest.raises(PolicyError, match="unparseable lemma"):
        policy.propose_decomposition(PolicyContext(goal=parse_goal("goal g := 0 = 0")))


def test_policy_deeply_nested_lemma_is_unparseable():
    lemma = "goal a := " + "(" * 1000 + "0 = 0" + ")" * 1000
    policy = ExternalPolicy(_CountingTransport({"lemmas": [lemma]}))
    with pytest.raises(PolicyError, match="unparseable lemma.*nested too deeply"):
        policy.propose_decomposition(PolicyContext(goal=parse_goal("goal g := 0 = 0")))


def test_policy_completion_full_text(process):
    policy = ExternalPolicy(process)
    ctx = PolicyContext(goal=parse_goal("goal fulltext := 0 = 0"))
    assert policy.propose_completion(ctx) == "decide"


def test_policy_completion_applies_edits_to_previous_attempt(process):
    policy = ExternalPolicy(process)
    history = (
        FeedbackEntry("line one\nline two", CheckVerdict(REJECTED, diagnostics="bad")),
    )
    ctx = PolicyContext(goal=parse_goal("goal editor := 0 = 0"), feedback_history=history)
    assert policy.propose_completion(ctx) == "line one\nline 2"


def test_policy_completion_rejects_stray_markers(process):
    policy = ExternalPolicy(process)
    ctx = PolicyContext(goal=parse_goal("goal straymark := 0 = 0"))
    with pytest.raises(PolicyError, match="stray marker"):
        policy.propose_completion(ctx)


def test_policy_transport_failure_is_policy_error(process):
    policy = ExternalPolicy(process)
    with pytest.raises(PolicyError):
        policy.propose_decomposition(PolicyContext(goal=parse_goal("goal dropdead := 0 = 0")))


# --- http transport -----------------------------------------------------------


class _Handler(http.server.BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers["Content-Length"])
        req = json.loads(self.rfile.read(length))
        if self.path == "/wrongid":
            body = {"id": "nope", "status": "accepted"}
        elif self.path == "/garbage":
            self._send(200, b"<html>oops</html>")
            return
        elif self.path == "/array":
            body = [1, 2]
        elif self.path == "/badbytes":
            self._send(200, b'{"id": %d, "status": "accepted", "x": "\xff"}' % req["id"])
            return
        elif self.path == "/slowbody":
            # A valid 31-byte reply whose headers come at once and whose
            # body comes a byte every 0.3 s: 9.3 s in all.
            reply = json.dumps({"id": req["id"], "status": "accepted"}).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(reply)))
            self.end_headers()
            self._drip(reply)
            return
        elif self.path == "/slowheader":
            reply = json.dumps({"id": req["id"], "status": "accepted"}).encode()
            head = b"HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n" % len(reply)
            self._drip(head + reply)
            return
        elif self.path == "/big":
            try:
                self._send(200, b"[" + b"0," * 1_000_000 + b"0]")
            except (BrokenPipeError, ConnectionResetError):
                pass  # the client stopped reading at its cap
            return
        else:
            body = {"id": req["id"], "status": "accepted", "axioms": ["propext"]}
        self._send(200, json.dumps(body).encode())

    def _send(self, code, payload):
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _drip(self, data, pause=0.3):
        """Send ``data`` a byte per ``pause``, until the client hangs up."""
        try:
            for i in range(len(data)):
                self.wfile.write(data[i:i + 1])
                time.sleep(pause)
        except (BrokenPipeError, ConnectionResetError):
            pass

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def http_base():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


def test_http_roundtrip(http_base):
    checker = ExternalChecker(JsonHttpEndpoint(f"{http_base}/check"))
    verdict = checker.check(_direct("anything"), 1000)
    assert verdict.status == ACCEPTED
    assert verdict.axioms_used == ("propext",)


def test_http_id_mismatch_is_checker_error(http_base):
    checker = ExternalChecker(JsonHttpEndpoint(f"{http_base}/wrongid"))
    verdict = checker.check(_direct("anything"), 1000)
    assert verdict.status == CHECKER_ERROR
    assert "echo" in verdict.diagnostics


def test_http_garbage_body_is_checker_error(http_base):
    checker = ExternalChecker(JsonHttpEndpoint(f"{http_base}/garbage"))
    verdict = checker.check(_direct("anything"), 1000)
    assert verdict.status == CHECKER_ERROR


def test_http_id_mismatch_is_policy_error(http_base):
    policy = ExternalPolicy(JsonHttpEndpoint(f"{http_base}/wrongid"))
    with pytest.raises(PolicyError, match="echo"):
        policy.propose_decomposition(PolicyContext(goal=parse_goal("goal g := 0 = 0")))


def test_http_non_object_body_is_checker_error(http_base):
    checker = ExternalChecker(JsonHttpEndpoint(f"{http_base}/array"))
    verdict = checker.check(_direct("anything"), 1000)
    assert verdict.status == CHECKER_ERROR
    assert "not a JSON object" in verdict.diagnostics


def test_http_non_object_body_is_policy_error(http_base):
    policy = ExternalPolicy(JsonHttpEndpoint(f"{http_base}/array"))
    with pytest.raises(PolicyError, match="not a JSON object"):
        policy.propose_decomposition(PolicyContext(goal=parse_goal("goal g := 0 = 0")))


def test_http_body_that_is_not_utf8_is_checker_error(http_base):
    checker = ExternalChecker(JsonHttpEndpoint(f"{http_base}/badbytes"))
    verdict = checker.check(_direct("anything"), 1000)
    assert verdict.status == CHECKER_ERROR
    assert "unparseable" in verdict.diagnostics


def test_http_body_that_is_not_utf8_is_policy_error(http_base):
    policy = ExternalPolicy(JsonHttpEndpoint(f"{http_base}/badbytes"))
    with pytest.raises(PolicyError, match="unparseable"):
        policy.propose_decomposition(PolicyContext(goal=parse_goal("goal g := 0 = 0")))


def test_http_connection_failure_is_checker_error():
    checker = ExternalChecker(JsonHttpEndpoint("http://127.0.0.1:9/unreachable"))
    verdict = checker.check(_direct("anything"), 200)
    assert verdict.status == CHECKER_ERROR
    assert "transport" in verdict.diagnostics


@pytest.mark.parametrize("path", ["/slowbody", "/slowheader"])
def test_an_http_reply_sent_a_byte_at_a_time_fails_at_the_deadline(http_base, path):
    # Each byte comes well within the timeout, so only a deadline for the
    # whole request stops a reply that would take 9 s.
    endpoint = JsonHttpEndpoint(f"{http_base}{path}")
    started = time.monotonic()
    with pytest.raises(CheckerProtocolError, match="http transport failure: timed out"):
        endpoint.request({"kind": "direct"}, timeout_s=1.0)
    assert time.monotonic() - started < 1.5


def test_a_slow_http_checker_is_a_checker_error_at_its_deadline(http_base, monkeypatch):
    monkeypatch.setattr(ExternalChecker, "TRANSPORT_GRACE_S", 0.5)
    checker = ExternalChecker(JsonHttpEndpoint(f"{http_base}/slowbody"))
    started = time.monotonic()
    verdict = checker.check(_direct("anything"), 500)
    assert time.monotonic() - started < 1.5
    assert verdict.status == CHECKER_ERROR
    assert "timed out" in verdict.diagnostics


def test_an_http_reply_longer_than_the_cap_is_checker_error(http_base):
    checker = ExternalChecker(JsonHttpEndpoint(f"{http_base}/big"))
    verdict = checker.check(_direct("anything"), 1000)
    assert verdict.status == CHECKER_ERROR
    assert f"http reply longer than {MAX_LINE_BYTES} bytes" in verdict.diagnostics


def test_importing_the_package_does_not_load_ssl():
    # The HTTP transport imports http.client (and with it ssl and email)
    # only when a request is sent.
    import provekit

    src = str(Path(provekit.__file__).resolve().parents[1])
    code = "import sys, provekit, provekit.cli; print('ssl' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60, check=True
    )
    assert out.stdout.strip() == "False"


def test_make_transport_picks_by_scheme(server_script):
    assert isinstance(make_transport("http://example.invalid/x"), JsonHttpEndpoint)
    assert isinstance(make_transport("https://example.invalid/x"), JsonHttpEndpoint)
    proc = make_transport(f"{sys.executable} {server_script}")
    try:
        assert isinstance(proc, JsonLineProcess)
    finally:
        proc.close()


# --- prompt templates and edit blocks ------------------------------------------


def test_default_templates_render_the_goal():
    goal = parse_goal("goal target (x: Int) := x + 0 = x")
    text = prompts.render_decompose_prompt(goal, prompts.load_default("decompose"))
    assert "target" in text
    assert "x + 0 = x" in text


def test_completion_template_includes_feedback():
    goal = parse_goal("goal t := 0 = 0")
    history = (FeedbackEntry("old proof", CheckVerdict(REJECTED, diagnostics="line 3 bad")),)
    text = prompts.render_completion_prompt(goal, history, prompts.load_default("complete"))
    assert "old proof" in text
    assert "line 3 bad" in text
    empty = prompts.render_completion_prompt(goal, (), prompts.load_default("complete"))
    assert "0 = 0" in empty


def test_parse_search_replace_roundtrip():
    text = "\n".join(
        [
            "prefix chatter",
            "<<<<<<< SEARCH",
            "a",
            "=======",
            "b",
            ">>>>>>> REPLACE",
            "<<<<<<< SEARCH",
            "c",
            "=======",
            "",
            ">>>>>>> REPLACE",
        ]
    )
    assert prompts.parse_search_replace(text) == [("a", "b"), ("c", "")]
    assert prompts.parse_search_replace("plain proof text") == []


@pytest.mark.parametrize(
    "text",
    [
        "=======\nalone",
        ">>>>>>> REPLACE",
        "<<<<<<< SEARCH\nno divider",
        "<<<<<<< SEARCH\nx\n=======\nno closer",
        "<<<<<<< SEARCH\nx\n<<<<<<< SEARCH\ny\n=======\nz\n>>>>>>> REPLACE",
    ],
)
def test_malformed_edit_blocks_are_rejected(text):
    with pytest.raises(PolicyError):
        prompts.parse_search_replace(text)


def test_apply_search_replace_semantics():
    base = "aa bb aa"
    assert prompts.apply_search_replace(base, [("aa", "xx")]) == "xx bb aa"
    assert prompts.apply_search_replace("", [("", "seed")]) == "seed"
    assert prompts.apply_search_replace("head", [("", "tail")]) == "head\ntail"
    with pytest.raises(PolicyError, match="not found"):
        prompts.apply_search_replace(base, [("zz", "xx")])
