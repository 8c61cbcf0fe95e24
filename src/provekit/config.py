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

from dataclasses import fields, replace
from pathlib import Path

from .errors import ContractViolation
from .evaluator import Domain
from .pool import PoolConfig
from .quickcheck import QcConfig
from .scoring import ScoreConfig
from .search import SearchConfig
from .trace import check_keys, decode_json, read_text

_SECTIONS = ("search", "qc", "score", "domain", "pool")

# The JSON types a field admits, by the type of its default; no field takes
# a bool, a field whose default is None takes an int, and one of any other
# default (a search config's qc, score and domain) is no key of its section.
_JSON_TYPES = {int: (int,), float: (float, int), str: (str,), type(None): (int, type(None))}


def load_config_file(path: str | Path) -> dict:
    data = decode_json(read_text(path), f"config file {path}")
    if not isinstance(data, dict):
        raise ContractViolation("config file must hold a JSON object")
    check_keys(f"config file {path}", data, {}, dict.fromkeys(_SECTIONS, (dict,)))
    return data


def _build(cls, section: dict, name: str):
    table = {f.name: _JSON_TYPES[type(f.default)] for f in fields(cls) if type(f.default) in _JSON_TYPES}
    check_keys(f"config section {name!r}", section, {}, table)
    return cls(**section)


def search_config_from_sections(data: dict) -> SearchConfig:
    """Assemble a SearchConfig from a parsed config document."""
    qc = _build(QcConfig, data.get("qc", {}), "qc")
    score = _build(ScoreConfig, data.get("score", {}), "score")
    domain = _build(Domain, data.get("domain", {}), "domain")
    config = _build(SearchConfig, data.get("search", {}), "search")
    return replace(config, qc=qc, score=score, domain=domain)


def pool_config_from_sections(data: dict) -> PoolConfig:
    return _build(PoolConfig, data.get("pool", {}), "pool")
