"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

import provekit.search as search_mod


@pytest.fixture()
def fresh_gate():
    """The search gate with both of its tables empty, before the test and
    after it: the name-keyed quickcheck memo and the statement facts, which
    earlier tests may have filled.  Yields the fact table."""

    def clear() -> None:
        search_mod._gate_qc_memo.cache_clear()
        search_mod._FACTS.clear()

    clear()
    yield search_mod._FACTS
    clear()
