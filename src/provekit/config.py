"""Engine configuration files.

One JSON document configures everything; sections mirror the config
dataclasses (``search``, ``qc``, ``score``, ``domain``, ``pool``) and any
section or key may be omitted to take its default.  Precedence is fixed:
built-in defaults, then the file, then explicit command-line flags.
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

_SECTIONS = ("search", "qc", "score", "domain", "pool")


def load_config_file(path: str | Path) -> dict:
    try:
        data = json.loads(Path(path).read_text())
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
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(section) - known)
    if unknown:
        raise ContractViolation(f"unknown keys in config section {name!r}: {unknown}")
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


def apply_flag_overrides(config: SearchConfig, overrides: dict) -> SearchConfig:
    """Overlay non-None flag values onto a SearchConfig.

    ``qc.<field>`` keys land on the quickcheck section; every other key
    names a field of the search section.  Any other dotted key raises.
    """
    direct = {}
    qc = {}
    for key, value in overrides.items():
        if value is None:
            continue
        section, dotted, field_name = key.partition(".")
        if not dotted:
            direct[key] = value
        elif section == "qc":
            qc[field_name] = value
        else:
            raise ContractViolation(f"unknown override section {section!r}")
    if qc:
        direct["qc"] = replace(config.qc, **qc)
    return replace(config, **direct) if direct else config
