"""Adapters for out-of-process checkers and policies.

Wire format: one JSON object per line (or per HTTP POST).  Every request
carries an ``id`` the peer must echo; responses may arrive out of order on
the stdio transport and are matched back by that id.  Unknown fields are
ignored in both directions, so either side can extend the protocol.

Transport or protocol failures surface as ``checker_error`` verdicts on the
checker side (infrastructure must never masquerade as falsity) and as
``PolicyError`` on the policy side (the step is retried against the
iteration budget).
"""

from __future__ import annotations

import itertools
import json
import shlex
import subprocess
import threading

from ..errors import CheckerProtocolError, ParseError, PolicyError
from ..lang.parser import parse_goal
from ..lang.printer import print_goal
from . import api, prompts
from .api import (
    CheckRequest,
    CheckVerdict,
    CompletionAttempt,
    DecompositionProposal,
    PolicyContext,
)

_WIRE_STATUS = {
    "accepted": api.ACCEPTED,
    "rejected": api.REJECTED,
    "timeout": api.TIMEOUT,
    "error": api.CHECKER_ERROR,
}


class JsonLineProcess:
    """A child process spoken to over stdin/stdout, one JSON object per line.

    A background reader routes responses by id, so slow answers to earlier
    requests cannot starve later ones."""

    def __init__(self, argv: list[str] | str):
        if isinstance(argv, str):
            argv = shlex.split(argv)
        self._proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
        self._write_lock = threading.Lock()
        self._cond = threading.Condition()
        self._responses: dict[str, dict] = {}
        self._broken: str | None = None
        self._reader = threading.Thread(target=self._read_loop, daemon=True)
        self._reader.start()

    def _read_loop(self) -> None:
        assert self._proc.stdout is not None
        for line in self._proc.stdout:
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                key = str(payload["id"])
            except (json.JSONDecodeError, KeyError, TypeError):
                with self._cond:
                    self._broken = f"peer sent an unparseable line: {line[:200]!r}"
                    self._cond.notify_all()
                return
            with self._cond:
                self._responses[key] = payload
                self._cond.notify_all()
        with self._cond:
            if self._broken is None:
                self._broken = "peer closed its output stream"
            self._cond.notify_all()

    def request(self, payload: dict, timeout_s: float) -> dict:
        key = str(payload["id"])
        encoded = json.dumps(payload) + "\n"
        with self._write_lock:
            if self._proc.stdin is None or self._proc.poll() is not None:
                raise CheckerProtocolError("peer process is gone")
            self._proc.stdin.write(encoded)
            self._proc.stdin.flush()
        deadline = threading.TIMEOUT_MAX if timeout_s is None else timeout_s
        with self._cond:
            got = self._cond.wait_for(
                lambda: key in self._responses or self._broken is not None,
                timeout=deadline,
            )
            if key in self._responses:
                return self._responses.pop(key)
            if self._broken is not None:
                raise CheckerProtocolError(self._broken)
            if not got:
                raise CheckerProtocolError(f"no response for {key} within {timeout_s}s")
            raise CheckerProtocolError("transport failure")

    def close(self) -> None:
        try:
            if self._proc.stdin is not None:
                self._proc.stdin.close()
            self._proc.terminate()
            self._proc.wait(timeout=5)
        except Exception:
            self._proc.kill()

    def __enter__(self) -> "JsonLineProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class JsonHttpEndpoint:
    """Same payloads, one POST per request."""

    def __init__(self, url: str):
        self.url = url

    def request(self, payload: dict, timeout_s: float) -> dict:
        # Imported here: urllib.request pulls in ssl, http and email, which
        # every other use of the package would otherwise pay for in memory.
        import urllib.error
        import urllib.request

        body = json.dumps(payload).encode()
        req = urllib.request.Request(
            self.url, data=body, headers={"Content-Type": "application/json"}
        )
        try:
            with urllib.request.urlopen(req, timeout=timeout_s) as resp:
                raw = resp.read().decode()
        except (urllib.error.URLError, OSError) as exc:
            raise CheckerProtocolError(f"http transport failure: {exc}") from exc
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise CheckerProtocolError(f"unparseable http response: {raw[:200]!r}") from exc

    def close(self) -> None:
        pass


def make_transport(endpoint: str) -> JsonLineProcess | JsonHttpEndpoint:
    """``http(s)://...`` means an HTTP endpoint; anything else is run as a
    child process command line."""
    if endpoint.startswith(("http://", "https://")):
        return JsonHttpEndpoint(endpoint)
    return JsonLineProcess(endpoint)


class _IdSource:
    def __init__(self, prefix: str):
        self._counter = itertools.count(1)
        self._lock = threading.Lock()
        self.prefix = prefix

    def next(self) -> str:
        with self._lock:
            return f"{self.prefix}-{next(self._counter)}"


class ExternalChecker:
    """Checker contract over a wire transport."""

    # Grace added to the remote's own budget before the transport gives up.
    TRANSPORT_GRACE_S = 10.0

    def __init__(self, transport):
        self.transport = transport
        self._ids = _IdSource("chk")

    def check(self, request: CheckRequest, timeout_ms: int) -> CheckVerdict:
        req_id = self._ids.next()
        payload = {
            "id": req_id,
            "kind": request.kind,
            "goal": print_goal(request.goal),
            "lemmas": [print_goal(lemma) for lemma in request.lemmas],
            "proof": request.proof_text,
            "timeout_ms": timeout_ms,
        }
        try:
            response = self.transport.request(
                payload, timeout_s=timeout_ms / 1000.0 + self.TRANSPORT_GRACE_S
            )
        except CheckerProtocolError as exc:
            return api.checker_error(str(exc))
        if str(response.get("id")) != req_id:
            return api.checker_error(
                f"response id {response.get('id')!r} does not echo request id {req_id!r}"
            )
        status = _WIRE_STATUS.get(response.get("status"))
        if status is None:
            return api.checker_error(f"unknown status {response.get('status')!r}")
        diagnostics = str(response.get("diagnostics", ""))
        wall = int(response.get("wall_time_ms", 0))
        if status == api.ACCEPTED:
            axioms = tuple(str(a) for a in response.get("axioms", []))
            return CheckVerdict(status, axioms_used=axioms, wall_time_ms=wall)
        return CheckVerdict(status, diagnostics=diagnostics, wall_time_ms=wall)


class ExternalPolicy:
    """Policy contract over a wire transport.

    Requests additionally carry a rendered prompt (templates are plain text
    files, editable without touching code); peers free to ignore it get the
    structured fields either way.  Completion responses may be full proof
    text or search/replace edits against the previous attempt.
    """

    REQUEST_TIMEOUT_S = 120.0

    def __init__(
        self,
        transport,
        decompose_template: str | None = None,
        complete_template: str | None = None,
    ):
        self.transport = transport
        self.decompose_template = decompose_template or prompts.load_default("decompose")
        self.complete_template = complete_template or prompts.load_default("complete")
        self._ids = _IdSource("pol")

    def _roundtrip(self, payload: dict) -> dict:
        try:
            response = self.transport.request(payload, timeout_s=self.REQUEST_TIMEOUT_S)
        except CheckerProtocolError as exc:
            raise PolicyError(str(exc)) from exc
        if str(response.get("id")) != payload["id"]:
            raise PolicyError(
                f"response id {response.get('id')!r} does not echo {payload['id']!r}"
            )
        return response

    def propose_decomposition(self, context: PolicyContext) -> DecompositionProposal:
        payload = {
            "id": self._ids.next(),
            "mode": api.MODE_DECOMPOSE,
            "goal": print_goal(context.goal),
            "siblings": [print_goal(g) for g in context.sibling_goals],
            "feedback": [],
            "prompt": prompts.render_decompose_prompt(context.goal, self.decompose_template),
        }
        response = self._roundtrip(payload)
        raw_lemmas = response.get("lemmas")
        if not isinstance(raw_lemmas, list):
            raise PolicyError("decompose response must carry a 'lemmas' list")
        lemmas = []
        for source in raw_lemmas:
            try:
                lemmas.append(parse_goal(str(source)))
            except ParseError as exc:
                raise PolicyError(f"unparseable lemma {source!r}: {exc}") from exc
        reconstruction = str(response.get("reconstruction") or api.RECON_ENTAILMENT)
        rationale = response.get("rationale")
        return DecompositionProposal(
            lemmas=tuple(lemmas),
            reconstruction=reconstruction,
            rationale=None if rationale is None else str(rationale),
        )

    def propose_completion(self, context: PolicyContext) -> CompletionAttempt:
        base = context.feedback_history[-1].proof_text if context.feedback_history else ""
        payload = {
            "id": self._ids.next(),
            "mode": api.MODE_COMPLETE,
            "goal": print_goal(context.goal),
            "siblings": [print_goal(g) for g in context.sibling_goals],
            "feedback": [
                {"proof": entry.proof_text, "diagnostics": entry.verdict.diagnostics}
                for entry in context.feedback_history
            ],
            "prompt": prompts.render_completion_prompt(
                context.goal, context.feedback_history, self.complete_template
            ),
        }
        response = self._roundtrip(payload)
        proof = response.get("proof")
        if not isinstance(proof, str):
            raise PolicyError("complete response must carry a 'proof' string")
        edits = prompts.parse_search_replace(proof)
        proof_text = prompts.apply_search_replace(base, edits) if edits else proof
        return CompletionAttempt(
            proof_text=proof_text, attempt_index=len(context.feedback_history) + 1
        )

    def fork(self, seed: int) -> "ExternalPolicy":
        return self
