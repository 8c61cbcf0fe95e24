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


def canonical_json(obj) -> str:
    """One stable rendering: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass
class RunTrace:
    header: dict
    events: list[dict] = field(default_factory=list)

    def emit(self, event_type: str, **fields) -> dict:
        event = {"seq": len(self.events) + 1, "type": event_type}
        event.update(fields)
        self.events.append(event)
        return event

    def to_jsonl(self) -> str:
        lines = [canonical_json(self.header)]
        lines.extend(canonical_json(e) for e in self.events)
        return "\n".join(lines) + "\n"

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.to_jsonl())

    @classmethod
    def new(cls, problem: str, run_index: int, seed: int, config_snapshot: dict) -> "RunTrace":
        header = {
            "type": "config",
            "format_version": FORMAT_VERSION,
            "run_id": f"{problem}.r{run_index}.s{seed}",
            "problem": problem,
            "run_index": run_index,
            "seed": seed,
            "config": config_snapshot,
        }
        return cls(header=header)


def read_text(path: str | Path) -> str:
    """The text of an input file; one that is not UTF-8 raises
    ``ContractViolation`` naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ContractViolation(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def json_objects(text: str) -> list[dict]:
    """The JSON object on each non-blank line of a JSON-lines text; a line
    holding anything else raises ``ContractViolation`` with its number."""
    objects = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            value = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ContractViolation(f"line {number} is not valid JSON: {exc}") from None
        if not isinstance(value, dict):
            raise ContractViolation(f"line {number} is not a JSON object")
        objects.append(value)
    return objects


def parse_trace(text: str) -> RunTrace:
    objects = json_objects(text)
    if not objects:
        raise ContractViolation("empty trace")
    header = objects[0]
    if header.get("type") != "config":
        raise ContractViolation("trace must start with its config snapshot")
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise ContractViolation(f"unsupported trace format version {version!r}")
    return RunTrace(header=header, events=objects[1:])


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
