"""Wire protocol adapters: stdio JSON lines, HTTP, prompt templating."""

from __future__ import annotations

import http.server
import json
import os
import subprocess
import sys
import threading
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
    ExternalChecker,
    ExternalPolicy,
    FeedbackEntry,
    JsonHttpEndpoint,
    JsonLineProcess,
    make_transport,
)
from provekit.prover import prompts
from provekit.prover.api import (
    KIND_COMPLETION,
    KIND_DIRECT,
    MODE_COMPLETE,
    CheckVerdict,
    PolicyContext,
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
    return {"id": rid, "status": "accepted"}

def policy_response(req):
    goal = req.get("goal", "")
    rid = req["id"]
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
    if "pairfirst" in goal:
        held = check_response(req)
        continue
    resp = policy_response(req) if "mode" in req else check_response(req)
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


# --- stdio transport ----------------------------------------------------------


def test_checker_roundtrip_with_axioms(process):
    checker = ExternalChecker(process)
    verdict = checker.check(_direct("axioms"), 1000)
    assert verdict.status == ACCEPTED
    assert verdict.axioms_used == ("propext", "Quot.sound")
    assert verdict.wall_time_ms == 12


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


def test_out_of_order_responses_are_routed_by_id(process):
    # The peer holds its answer to the first request until the second
    # arrives, then answers in reverse order.
    first = {"id": "a1", "goal": "goal pairfirst := 0 = 0"}
    second = {"id": "a2", "goal": "goal plain := 0 = 0"}
    with ThreadPoolExecutor(max_workers=1) as pool:
        fut = pool.submit(process.request, first, 5.0)
        got_second = process.request(second, 5.0)
        got_first = fut.result(timeout=5.0)
    assert got_first["id"] == "a1"
    assert got_second["id"] == "a2"


def test_transport_timeout_raises(process):
    with pytest.raises(CheckerProtocolError, match="no response"):
        process.request({"id": "t1", "goal": "goal slowreply := 0 = 0"}, 0.25)


def test_peer_exit_surfaces_as_protocol_error(process):
    with pytest.raises(CheckerProtocolError):
        process.request({"id": "d1", "goal": "goal dropdead := 0 = 0"}, 2.0)


def test_unparseable_peer_line_surfaces_as_protocol_error(process):
    with pytest.raises(CheckerProtocolError, match="unparseable"):
        process.request({"id": "g1", "goal": "goal garbage := 0 = 0"}, 2.0)


def test_transport_failure_becomes_checker_error_verdict(process):
    checker = ExternalChecker(process)
    verdict = checker.check(_direct("dropdead"), 500)
    assert verdict.status == CHECKER_ERROR


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


def test_policy_completion_full_text(process):
    policy = ExternalPolicy(process)
    ctx = PolicyContext(goal=parse_goal("goal fulltext := 0 = 0"), mode=MODE_COMPLETE)
    attempt = policy.propose_completion(ctx)
    assert attempt.proof_text == "decide"
    assert attempt.attempt_index == 1


def test_policy_completion_applies_edits_to_previous_attempt(process):
    policy = ExternalPolicy(process)
    history = (
        FeedbackEntry("line one\nline two", CheckVerdict(REJECTED, diagnostics="bad")),
    )
    ctx = PolicyContext(
        goal=parse_goal("goal editor := 0 = 0"),
        feedback_history=history,
        mode=MODE_COMPLETE,
    )
    attempt = policy.propose_completion(ctx)
    assert attempt.proof_text == "line one\nline 2"
    assert attempt.attempt_index == 2


def test_policy_completion_rejects_stray_markers(process):
    policy = ExternalPolicy(process)
    ctx = PolicyContext(goal=parse_goal("goal straymark := 0 = 0"), mode=MODE_COMPLETE)
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
        else:
            body = {"id": req["id"], "status": "accepted", "axioms": ["propext"]}
        self._send(200, json.dumps(body).encode())

    def _send(self, code, payload):
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def http_base():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()


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


def test_http_connection_failure_is_checker_error():
    checker = ExternalChecker(JsonHttpEndpoint("http://127.0.0.1:9/unreachable"))
    verdict = checker.check(_direct("anything"), 200)
    assert verdict.status == CHECKER_ERROR
    assert "transport" in verdict.diagnostics


def test_importing_the_package_does_not_load_ssl():
    # The HTTP transport imports urllib.request (and with it ssl, http and
    # email) only when a request is sent.
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


def test_load_template_reads_files(tmp_path):
    path = tmp_path / "tpl.txt"
    path.write_text("prove {goal_name} now")
    assert prompts.load_template(str(path)) == "prove {goal_name} now"


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
