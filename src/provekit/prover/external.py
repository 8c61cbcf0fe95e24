"""Adapters for out-of-process checkers and policies.

Wire format: one JSON object per line (or per HTTP POST).  As in JSON-RPC
2.0, the client assigns request ids and the peer echoes them: each
transport numbers its own requests 1, 2, 3, ..., overwriting any ``id`` the
caller passed, and returns only a JSON object that echoes the id sent.
Responses may arrive out of order on the stdio transport and are matched
back by that id.  Unknown fields are ignored in both directions, so either
side can extend the protocol.

Transport or protocol failures surface as ``checker_error`` verdicts on the
checker side (infrastructure must never masquerade as falsity) and as
``PolicyError`` on the policy side (the step is retried against the
iteration budget).
"""

from __future__ import annotations

import io
import itertools
import json
import shlex
import subprocess
import threading
import time
from collections import OrderedDict

from ..errors import CheckerProtocolError, ParseError, PolicyError
from ..lang.parser import parse_goal
from ..lang.printer import print_goal
from . import api, prompts
from .api import CheckRequest, CheckVerdict, DecompositionProposal, PolicyContext

_WIRE_STATUS = {
    "accepted": api.ACCEPTED,
    "rejected": api.REJECTED,
    "timeout": api.TIMEOUT,
    "error": api.CHECKER_ERROR,
}

# Distinct finished obligations one external checker remembers, as
# ``DECIDE_MEMO_SIZE`` bounds the built-in checker's decide memo.  The
# ``passk_external`` benchmark repeats a request only within one goal's
# pass@k, so a few goals' worth is enough.
CHECK_MEMO_SIZE = 64

# The longest stdio line (newline included) or HTTP reply body a peer may
# send.  The largest legitimate reply is a decomposition: at most 32 lemmas
# (the ``max_open_lemmas`` default), each a goal text, and the longest goal
# the tests and benchmark generate prints in 875 bytes (a 32-wide
# conjunction), so such a reply stays near 32 KB: 1 MiB leaves 30 times that.
MAX_LINE_BYTES = 1 << 20


class JsonLineProcess:
    """A child process spoken to over stdin/stdout, one JSON object per line.

    A background reader routes responses by id, so slow answers to earlier
    requests cannot starve later ones.  It keeps only replies that a request
    is still waiting for: a reply to an id that was sent but is no longer
    awaited (a late or duplicate answer) is dropped, so such replies cannot
    pile up.  A line longer than ``MAX_LINE_BYTES``, a line that is not
    UTF-8 or not a JSON object with an id, a reply to an id never sent, or a
    request the peer no longer reads breaks the connection: every waiting
    request, and every later one, fails at once with
    ``CheckerProtocolError``.  So a peer that never ends its line costs at
    most one cap's worth of memory."""

    def __init__(self, argv: list[str] | str):
        if isinstance(argv, str):
            argv = shlex.split(argv)
        # Bytes, not text: each line is decoded on its own, so a reply that
        # is not UTF-8 fails like any other malformed line.
        self._proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self._write_lock = threading.Lock()
        self._cond = threading.Condition()
        self._replies: dict[int, dict | None] = {}  # awaited id -> its reply once read
        self._last_id = 0  # ids 1..last_id have been sent
        self._broken: str | None = None
        self._reader = threading.Thread(target=self._read_loop, daemon=True)
        self._reader.start()

    def _read_loop(self) -> None:
        assert self._proc.stdout is not None
        # The reader owns the stream: it closes it when it stops reading.
        with self._proc.stdout as stream:
            while line := stream.readline(MAX_LINE_BYTES + 1):
                if len(line) > MAX_LINE_BYTES:
                    return self._break(f"peer sent a line longer than {MAX_LINE_BYTES} bytes")
                line = line.strip()
                if not line:
                    continue
                try:
                    reply = json.loads(line.decode("utf-8"))
                    key = reply["id"]
                except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError):
                    return self._break(f"peer sent an unparseable line: {line[:200]!r}")
                with self._cond:
                    if type(key) is not int or not 0 < key <= self._last_id:
                        return self._break(f"peer replied to id {key!r}, which was never sent")
                    if key in self._replies and self._replies[key] is None:
                        self._replies[key] = reply
                        self._cond.notify_all()
        self._break("peer closed its output stream")

    def _break(self, reason: str) -> None:
        """Fail every waiting and every later request with ``reason``."""
        with self._cond:
            if self._broken is None:
                self._broken = reason
            self._cond.notify_all()

    def request(self, payload: dict, timeout_s: float) -> dict:
        # Registered before the write, so even an instant reply is kept.
        with self._cond:
            if self._broken is not None:
                raise CheckerProtocolError(self._broken)
            self._last_id += 1
            key = self._last_id
            self._replies[key] = None
        try:
            encoded = (json.dumps({**payload, "id": key}) + "\n").encode()
            with self._write_lock:
                if self._proc.stdin is None or self._proc.poll() is not None:
                    raise CheckerProtocolError("peer process is gone")
                try:
                    self._proc.stdin.write(encoded)
                    self._proc.stdin.flush()
                except (OSError, ValueError) as exc:  # ValueError: the pipe is closed
                    reason = f"cannot write to peer: {exc}"
                    self._break(reason)
                    raise CheckerProtocolError(reason) from None
            with self._cond:
                self._cond.wait_for(
                    lambda: self._replies[key] is not None or self._broken is not None,
                    timeout=timeout_s,
                )
                if self._replies[key] is not None:
                    return self._replies[key]
                if self._broken is not None:
                    raise CheckerProtocolError(self._broken)
                raise CheckerProtocolError(f"no response for request {key} within {timeout_s}s")
        finally:
            # Also drops a reply that slipped in after the wait gave up.
            with self._cond:
                del self._replies[key]

    def close(self) -> None:
        """Stop the child and the reader; later requests fail at once."""
        self._break("transport is closed")
        try:
            if self._proc.stdin is not None:
                self._proc.stdin.close()
            self._proc.terminate()
            self._proc.wait(timeout=5)
        except Exception:
            self._proc.kill()
            self._proc.wait()
        self._reader.join(timeout=5)

    def __enter__(self) -> "JsonLineProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class JsonHttpEndpoint:
    """Same payloads, one POST per request; the reply must be a JSON object
    that echoes the request's id.  One deadline covers connecting and every
    read of the reply, and the body may be ``MAX_LINE_BYTES`` long."""

    def __init__(self, url: str):
        self.url = url
        self._ids = itertools.count(1)

    def request(self, payload: dict, timeout_s: float) -> dict:
        # Imported here: http.client pulls in ssl and email, which every
        # other use of the package would otherwise pay for in memory.
        from http import client
        from urllib.parse import urlsplit

        deadline = time.monotonic() + timeout_s
        key = next(self._ids)
        body = json.dumps({**payload, "id": key}).encode()
        url = urlsplit(self.url)
        path = url._replace(scheme="", netloc="").geturl() or "/"
        connection = client.HTTPSConnection if url.scheme == "https" else client.HTTPConnection
        conn = connection(url.netloc, timeout=timeout_s)
        try:
            conn.request("POST", path, body, {"Content-Type": "application/json"})
            # Not ``conn.getresponse``, which may close the socket mid-reply.
            resp = client.HTTPResponse(_DeadlineReader(conn.sock, deadline), method="POST")
            resp.begin()
            raw = resp.read(MAX_LINE_BYTES + 1)
        except (client.HTTPException, OSError) as exc:  # a missed deadline too
            raise CheckerProtocolError(f"http transport failure: {exc}") from exc
        finally:
            conn.close()
        if not 200 <= resp.status < 300:
            raise CheckerProtocolError(f"http transport failure: {resp.status} {resp.reason}")
        if len(raw) > MAX_LINE_BYTES:
            raise CheckerProtocolError(f"http reply longer than {MAX_LINE_BYTES} bytes")
        try:
            reply = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckerProtocolError(f"unparseable http response: {raw[:200]!r}") from exc
        if not isinstance(reply, dict):
            raise CheckerProtocolError(f"reply is not a JSON object: {raw[:200]!r}")
        if type(reply.get("id")) is not int or reply["id"] != key:
            raise CheckerProtocolError(
                f"response id {reply.get('id')!r} does not echo request id {key!r}"
            )
        return reply

    def close(self) -> None:
        pass


class _DeadlineReader(io.RawIOBase):
    """A socket whose reads wait only for the time left before a deadline."""

    def __init__(self, sock, deadline: float):
        self._sock, self._deadline = sock, deadline

    def makefile(self, mode: str) -> io.BufferedReader:
        return io.BufferedReader(self)

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        # Past the deadline a read takes only bytes that are already here.
        self._sock.settimeout(max(self._deadline - time.monotonic(), 1e-6))
        return self._sock.recv_into(buffer)


def make_transport(endpoint: str) -> JsonLineProcess | JsonHttpEndpoint:
    """``http(s)://...`` means an HTTP endpoint; anything else is run as a
    child process command line."""
    if endpoint.startswith(("http://", "https://")):
        return JsonHttpEndpoint(endpoint)
    return JsonLineProcess(endpoint)


class _Flight:
    """One check on the wire; callers with the same key wait for its verdict."""

    __slots__ = ("done", "verdict")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.verdict: CheckVerdict | None = None


class ExternalChecker:
    """Checker contract over a wire transport.

    Each distinct obligation goes over the wire once.  The memo key is what
    the peer sees, the payload without its id: kind, printed goal, printed
    lemmas, proof text and ``timeout_ms``.  A call whose key is already in
    flight waits for that request and shares its verdict, whatever its
    status.  Only ``accepted`` and ``rejected`` verdicts are kept for later
    calls, in an LRU of ``CHECK_MEMO_SIZE`` entries; a ``timeout`` is wall
    clock and a ``checker_error`` may be transient, so those are asked
    again.  In-flight checks are held apart from the LRU, so eviction never
    touches them.  If the request raises, the caller that sent it sees the
    exception and those waiting on it get ``checker_error``.
    """

    # Grace added to the remote's own budget before the transport gives up.
    TRANSPORT_GRACE_S = 10.0

    def __init__(self, transport):
        self.transport = transport
        self._lock = threading.Lock()
        self._finished: OrderedDict[tuple, CheckVerdict] = OrderedDict()
        self._in_flight: dict[tuple, _Flight] = {}

    def check(self, request: CheckRequest, timeout_ms: int) -> CheckVerdict:
        payload = {
            "kind": request.kind,
            "goal": print_goal(request.goal),
            "lemmas": [print_goal(lemma) for lemma in request.lemmas],
            "proof": request.proof_text,
            "timeout_ms": timeout_ms,
        }
        # Exactly what the peer sees: two calls with one key look the same to it.
        key = (
            request.kind, payload["goal"], tuple(payload["lemmas"]), request.proof_text, timeout_ms
        )
        with self._lock:
            verdict = self._finished.get(key)
            if verdict is not None:
                self._finished.move_to_end(key)
                return verdict
            flight = self._in_flight.get(key)
            leading = flight is None
            if leading:
                flight = self._in_flight[key] = _Flight()
        if not leading:
            flight.done.wait()
            return flight.verdict
        try:
            verdict = self._ask(payload, timeout_ms)
        except BaseException as exc:
            verdict = api.checker_error(f"shared check raised {type(exc).__name__}: {exc}")
            raise
        finally:
            with self._lock:
                del self._in_flight[key]
                if verdict.status in (api.ACCEPTED, api.REJECTED):
                    self._finished[key] = verdict
                    if len(self._finished) > CHECK_MEMO_SIZE:
                        self._finished.popitem(last=False)
            flight.verdict = verdict
            flight.done.set()
        return verdict

    def _ask(self, payload: dict, timeout_ms: int) -> CheckVerdict:
        try:
            response = self.transport.request(payload, timeout_ms / 1000.0 + self.TRANSPORT_GRACE_S)
        except CheckerProtocolError as exc:
            return api.checker_error(str(exc))
        wire_status = response.get("status")
        # Only a string can name a status; an array or object is unhashable.
        status = _WIRE_STATUS.get(wire_status) if isinstance(wire_status, str) else None
        if status is None:
            return api.checker_error(f"unknown status {wire_status!r}")
        if status == api.ACCEPTED:
            axioms = response.get("axioms", [])
            if not isinstance(axioms, list):
                return api.checker_error(f"axioms must be a list, got {axioms!r}")
            return api.accepted(tuple(str(a) for a in axioms))
        return CheckVerdict(status, diagnostics=str(response.get("diagnostics", "")))


class ExternalPolicy:
    """Policy contract over a wire transport.

    Each request names its ``mode`` (decompose or complete) and carries the
    goal, the other open goals and, for a completion, the feedback on
    earlier attempts.  It also carries a prompt rendered from the packaged
    templates; peers free to ignore it get the structured fields either
    way.  A completion reply is the proof text, either in full or as
    search/replace edits against the previous attempt.
    """

    REQUEST_TIMEOUT_S = 120.0

    def __init__(self, transport):
        self.transport = transport
        self.decompose_template = prompts.load_default("decompose")
        self.complete_template = prompts.load_default("complete")

    def _roundtrip(self, payload: dict) -> dict:
        try:
            return self.transport.request(payload, self.REQUEST_TIMEOUT_S)
        except CheckerProtocolError as exc:
            raise PolicyError(str(exc)) from exc

    def propose_decomposition(self, context: PolicyContext) -> DecompositionProposal:
        payload = {
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

    def propose_completion(self, context: PolicyContext) -> str:
        base = context.feedback_history[-1].proof_text if context.feedback_history else ""
        payload = {
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
        return prompts.apply_search_replace(base, edits) if edits else proof

    def fork(self, seed: int) -> "ExternalPolicy":
        return self
