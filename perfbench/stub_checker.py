"""Stub checker peer for the external-checker workload.

Speaks the newline-delimited JSON checker protocol on stdin/stdout.  Each
request is answered a fixed service delay after it arrived, with the verdict
the in-process builtin checker gives on the parsed request.  The reply
carries the service time (arrival to answer) both in the protocol's integer
``wall_time_ms`` and, unrounded, in ``service_ms``, so the caller can
separate transport overhead from service time.

The delay stands for a checker's work, so it is ``DELAY_MS`` at the
reference host speed of ``hostspeed.py`` and stretches with the host as all
other work does: the peer reads the host's speed every ``READ_EVERY_S`` and
waits ``DELAY_MS`` times the median of its last ``READINGS`` kernel times
over the reference one.  The benchmark reports times at the reference speed,
so the delay reads as ``DELAY_MS`` there however fast the host runs.

Requests are served concurrently by one thread that never sleeps: it polls
its input and answers each request when its delay is up.  A peer that
slept would answer when the host got round to waking it, and on a shared
virtual machine that wait varies from minute to minute by more than the
delay itself.

    python3 stub_checker.py

Needs the ``provekit`` package importable (for example ``PYTHONPATH=src``).
"""

from __future__ import annotations

import heapq
import itertools
import json
import os
import statistics
import sys
import time

from provekit.evaluator import Domain
from provekit.lang import parse_goal
from provekit.prover import BuiltinChecker, CheckRequest, api

from hostspeed import REF_KERNEL_S, kernel_seconds

# The fixed service delay before each answer at the reference host speed, a
# recorded workload parameter.
DELAY_MS = 5.0
READ_EVERY_S = 0.2
READINGS = 5

WIRE_STATUS = {
    api.ACCEPTED: "accepted",
    api.REJECTED: "rejected",
    api.TIMEOUT: "timeout",
    api.CHECKER_ERROR: "error",
}


def answer(request: dict, checker: BuiltinChecker) -> dict:
    try:
        check = CheckRequest(
            kind=request["kind"],
            goal=parse_goal(request["goal"]),
            lemmas=tuple(parse_goal(text) for text in request.get("lemmas", [])),
            proof_text=request.get("proof"),
        )
        verdict = checker.check(check, int(request["timeout_ms"]))
        return {
            "status": WIRE_STATUS[verdict.status],
            "diagnostics": verdict.diagnostics,
            "axioms": list(verdict.axioms_used),
        }
    except Exception as exc:  # a bad request is this peer's error, not falsity
        return {"status": "error", "diagnostics": f"{type(exc).__name__}: {exc}"}


def serve() -> None:
    checker = BuiltinChecker(Domain())
    fd = sys.stdin.fileno()
    os.set_blocking(fd, False)
    due: list[tuple[float, int, float, str]] = []  # (answer at, order, arrived, line)
    order = itertools.count()
    pending = b""
    open_input = True
    readings = [kernel_seconds()]
    read_at = time.perf_counter()
    delay_s = DELAY_MS / 1000.0 * readings[0] / REF_KERNEL_S
    while open_input or due:
        if time.perf_counter() - read_at >= READ_EVERY_S:
            readings = readings[1 - READINGS:] + [kernel_seconds()]
            read_at = time.perf_counter()
            delay_s = DELAY_MS / 1000.0 * statistics.median(readings) / REF_KERNEL_S
        if open_input:
            try:
                chunk = os.read(fd, 1 << 16)
            except BlockingIOError:
                chunk = None
            if chunk == b"":
                open_input = False
            elif chunk:
                arrived = time.perf_counter()
                *lines, pending = (pending + chunk).split(b"\n")
                for line in lines:
                    if line.strip():
                        heapq.heappush(due, (arrived + delay_s, next(order), arrived, line.decode()))
        while due and due[0][0] <= time.perf_counter():
            _, _, arrived, line = heapq.heappop(due)
            request = json.loads(line)
            reply = answer(request, checker)
            service_ms = (time.perf_counter() - arrived) * 1000.0
            reply.update(id=request.get("id"), wall_time_ms=int(service_ms), service_ms=service_ms)
            sys.stdout.write(json.dumps(reply) + "\n")
            sys.stdout.flush()


def main() -> None:
    try:
        serve()
    except BrokenPipeError:
        pass  # the caller closed the connection; nothing left to answer


if __name__ == "__main__":
    main()
