"""Run traces: an append-only event log, one JSON object per line.

The first line is the configuration snapshot (with a format version); every
later line is an event with a monotonically increasing ``seq``.  Traces
deliberately carry no wall-clock data: two runs of the same inputs must
produce byte-identical logs, which is what makes replay a meaningful check.
Latency figures live in the pool's stats API instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ContractViolation

FORMAT_VERSION = 1


# ``json.dumps`` and ``json.loads`` with options build a new coder per call;
# one shared encoder and decoder keep no state between calls.  Neither takes
# ``NaN`` or ``Infinity``, which are not JSON, so the writer cannot emit a
# line the reader refuses.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def canonical_json(obj) -> str:
    """One stable rendering: sorted keys, no whitespace."""
    return _ENCODER.encode(obj)


def decode_json(text: str, where: str):
    """The JSON value in ``text``, read strictly: anything that is not JSON,
    ``NaN`` and ``Infinity`` included, raises ``ContractViolation`` naming
    ``where``.  Every reader of a file decodes through this."""
    try:
        return _DECODER.decode(text)
    except ValueError as exc:
        raise ContractViolation(f"{where} is not valid JSON: {exc}") from None


# The keys each trace line must carry and the JSON types each may take, as
# ``decode_json`` returns them: the config header, then every event type
# ``search`` emits.  ``parse_trace`` checks every line against these tables
# and ``TRACE_OPTIONAL``, and refuses any key they do not name, so readers
# may index these keys without a check.  Where a table gives another table
# instead of types, the value is an object whose keys are checked against
# it in turn.
_NULL = type(None)
TRACE_HEADER = {
    "type": (str,),
    "format_version": (int,),
    "run_id": (str,),
    "problem": (str,),
    "run_index": (int,),
    "seed": (int,),
    "config": (dict,),
}
_EVENT = {"seq": (int,), "type": (str,)}
TRACE_EVENTS = {
    "decompose_attempt": {
        "iteration": (int,),
        "target": (str,),
        "target_footprint": (int,),
        "outcome": (str,),
        "reason": (str, _NULL),
        "proposal": (dict, _NULL),
        **_EVENT,
    },
    "goal_disproved": {
        "iteration": (int,),
        "target": (str,),
        "witness": (dict,),
        "trial_index": (int,),
        **_EVENT,
    },
    "stage_transition": {
        "decompose_iterations": (int,),
        "lemma_count": (int,),
        "open_leaves": (list,),
        **_EVENT,
    },
    "complete_attempt": {
        "sweep": (int,),
        "lemma": (str,),
        "attempt_index": (int,),
        "verdict": (dict, _NULL),
        "audit_ok": (bool, _NULL),
        **_EVENT,
    },
    "run_end": {
        "outcome": (str,),
        "decompose_iterations": (int,),
        "complete_iterations": (int,),
        "lemma_count": (int, _NULL),
        "proof_lines": (int, _NULL),
        "audit_failures": (int,),
        "witness": (dict, _NULL),
        "pool": (dict, _NULL),
        **_EVENT,
    },
}

# Keys an event carries only sometimes, checked when present.  A reader
# must still test for the key, but may then index what the table lists.
# The score object is written by ``ScoreBreakdown.to_json``; its reals are
# JSON numbers, which another writer may render as integers.
_NUMBER = (float, int)
TRACE_OPTIONAL = {
    "decompose_attempt": {
        "gate": {"reconstruction_ok": (bool,), "qc_ok": (list,)},
        "score": {
            "v": (int,),
            "d_parent": (int,),
            "d_children": (list,),
            "d_bar": _NUMBER,
            "r": _NUMBER,
            "S": _NUMBER,
        },
        "witness": (dict,),
        "trial_index": (int,),
    },
    "complete_attempt": {"error": (str,), "proof_lines": (int,)},
}

_JSON_NAMES = {
    int: "integer", float: "number", str: "string", bool: "boolean",
    dict: "object", list: "array", tuple: "array", _NULL: "null",
}


def check_keys(where: str, obj: dict, keys: dict, optional: dict | None = None) -> None:
    """Check a JSON object read from a file against a table of the ``keys``
    it must carry and one of the keys it may carry.  Any other key, a
    missing key, or a value not of the exact JSON type its table gives (a
    boolean is not an integer here) raises ``ContractViolation`` naming
    ``where`` and the key.  A table in place of types checks a nested object."""
    optional = optional or {}
    unknown = sorted(key for key in obj if key not in keys and key not in optional)
    if unknown:
        raise ContractViolation(f"{where} has unknown keys {unknown}")
    for key in keys:
        if key not in obj:
            raise ContractViolation(f"{where} lacks key {key!r}")
    for key, value in obj.items():
        kinds = keys.get(key) or optional[key]
        accepted = (dict,) if isinstance(kinds, dict) else kinds
        if type(value) not in accepted:
            expected = " or ".join(_JSON_NAMES[kind] for kind in accepted)
            raise ContractViolation(
                f"{where} key {key!r} must be {expected}, not {_JSON_NAMES[type(value)]}"
            )
        if isinstance(kinds, dict):
            check_keys(f"{where} {key}", value, kinds)


@dataclass
class RunTrace:
    """A run's header and events.  ``config_text``, when given, is the
    canonical text of ``header["config"]``, encoded once for every run of
    one config object; a trace read back has none and encodes its own.
    The header is read-only once the trace is made."""

    header: dict
    events: list[dict] = field(default_factory=list)
    config_text: str | None = field(default=None, repr=False, compare=False)

    def emit(self, event_type: str, **fields) -> dict:
        event = {"seq": len(self.events) + 1, "type": event_type}
        event.update(fields)
        self.events.append(event)
        return event

    def to_jsonl(self) -> str:
        rest = dict(self.header)
        config = rest.pop("config")
        text = canonical_json(config) if self.config_text is None else self.config_text
        # "config" sorts first among the header keys.
        lines = ['{"config":' + text + "," + canonical_json(rest)[1:]]
        lines.extend(canonical_json(e) for e in self.events)
        return "\n".join(lines) + "\n"

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.to_jsonl())

    @classmethod
    def new(
        cls, problem: str, run_index: int, seed: int, config_snapshot: dict,
        config_text: str | None = None,
    ) -> "RunTrace":
        header = {
            "type": "config",
            "format_version": FORMAT_VERSION,
            "run_id": f"{problem}.r{run_index}.s{seed}",
            "problem": problem,
            "run_index": run_index,
            "seed": seed,
            "config": config_snapshot,
        }
        return cls(header=header, config_text=config_text)


def read_text(path: str | Path) -> str:
    """The text of an input file; one that is not UTF-8 raises
    ``ContractViolation`` naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ContractViolation(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def numbered_objects(text: str) -> list[tuple[int, dict]]:
    """The JSON object on each non-blank line of a JSON-lines text, with its
    line number; a line holding anything else raises ``ContractViolation``
    with its number."""
    numbered = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        value = decode_json(line, f"line {number}")
        if not isinstance(value, dict):
            raise ContractViolation(f"line {number} is not a JSON object")
        numbered.append((number, value))
    return numbered


def parse_trace(text: str) -> RunTrace:
    """The trace in ``text``; a line that is not JSON, or that fails
    ``check_keys`` against ``TRACE_HEADER`` or its event's tables in
    ``TRACE_EVENTS`` and ``TRACE_OPTIONAL``, raises ``ContractViolation``
    naming the line, its type and the key."""
    lines = numbered_objects(text)
    if not lines:
        raise ContractViolation("empty trace")
    (number, header), events = lines[0], lines[1:]
    if header.get("type") != "config":
        raise ContractViolation("trace must start with its config snapshot")
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise ContractViolation(f"unsupported trace format version {version!r}")
    check_keys(f"line {number}: config", header, TRACE_HEADER)
    for number, event in events:
        event_type = event.get("type")
        keys = TRACE_EVENTS.get(event_type) if isinstance(event_type, str) else None
        if keys is None:
            raise ContractViolation(f"line {number}: unknown event type {event_type!r}")
        check_keys(f"line {number}: {event_type}", event, keys, TRACE_OPTIONAL.get(event_type))
    return RunTrace(header=header, events=[event for _, event in events])


def read_trace(path: str | Path) -> RunTrace:
    text = read_text(path)
    try:
        return parse_trace(text)
    except ContractViolation as exc:
        raise ContractViolation(f"{path}: {exc}") from None


def read_trace_dir(path: str | Path) -> list[RunTrace]:
    """All ``*.jsonl`` traces under a directory (or the single file itself),
    sorted by file name for stable processing order."""
    p = Path(path)
    if p.is_file():
        return [read_trace(p)]
    return [read_trace(f) for f in sorted(p.glob("*.jsonl"))]


def env_to_json(env: dict) -> dict:
    return {
        name: list(value) if isinstance(value, tuple) else value
        for name, value in env.items()
    }
