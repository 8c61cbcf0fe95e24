"""Engine configuration files.

One JSON document configures everything; sections mirror the config
dataclasses (``search``, ``qc``, ``score``, ``domain``, ``pool``) and any
section or key may be omitted to take its default.  The check budget is
``search.check_timeout_ms``, for in-line and pooled checks alike; the
``pool`` section holds only ``max_concurrent``.
Precedence is fixed: built-in defaults, then the file, then explicit
command-line flags, which the front end writes into the document's
sections before any config is built from it.
"""

from __future__ import annotations

import json
from dataclasses import fields, replace
from pathlib import Path

from .errors import ContractViolation
from .evaluator import Domain
from .pool import PoolConfig
from .quickcheck import QcConfig
from .scoring import ScoreConfig
from .search import SearchConfig
from .trace import read_text

_SECTIONS = ("search", "qc", "score", "domain", "pool")

# The JSON types a field admits, by the type of its default; no field takes
# a bool, and a field whose default is None takes an int.
_JSON_TYPES = {int: (int,), float: (int, float), str: (str,), type(None): (int, type(None))}


def load_config_file(path: str | Path) -> dict:
    try:
        data = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ContractViolation(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ContractViolation("config file must hold a JSON object")
    unknown = sorted(set(data) - set(_SECTIONS))
    if unknown:
        raise ContractViolation(f"unknown config sections: {unknown}")
    for section in data:
        if not isinstance(data[section], dict):
            raise ContractViolation(f"config section {section!r} must be an object")
    return data


def _build(cls, section: dict, name: str):
    defaults = {f.name: f.default for f in fields(cls)}
    unknown = sorted(set(section) - set(defaults))
    if unknown:
        raise ContractViolation(f"unknown keys in config section {name!r}: {unknown}")
    for key, value in section.items():
        accepted = _JSON_TYPES[type(defaults[key])]
        if isinstance(value, bool) or not isinstance(value, accepted):
            expected = " or ".join("null" if t is type(None) else t.__name__ for t in accepted)
            raise ContractViolation(
                f"config key {name}.{key} must be {expected}, not {type(value).__name__}"
            )
    return cls(**section)


def search_config_from_sections(data: dict) -> SearchConfig:
    """Assemble a SearchConfig from a parsed config document."""
    qc = _build(QcConfig, data.get("qc", {}), "qc")
    score = _build(ScoreConfig, data.get("score", {}), "score")
    domain = _build(Domain, data.get("domain", {}), "domain")
    search_section = dict(data.get("search", {}))
    for reserved in ("qc", "score", "domain"):
        if reserved in search_section:
            raise ContractViolation(
                f"{reserved!r} belongs in its own top-level section, not under search"
            )
    config = _build(SearchConfig, search_section, "search")
    return replace(config, qc=qc, score=score, domain=domain)


def pool_config_from_sections(data: dict) -> PoolConfig:
    return _build(PoolConfig, data.get("pool", {}), "pool")
