"""Scoring math: smooth-max aggregation, reduction ratio, gated score.

The headline regression is the 18 -> [7, 8] worked example: its smooth
maximum is 8 + ln(1 + e^-1), pinned here against an arbitrary-precision
oracle before the two-decimal rendering is asserted.
"""

from __future__ import annotations

import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provekit.errors import ContractViolation
from provekit.scoring import (
    ScoreBreakdown,
    ScoreConfig,
    ValidityGate,
    decomposition_score,
    logsumexp_footprint,
    reduction_ratio,
)

ALL_TRUE_2 = ValidityGate(reconstruction_ok=True, qc_ok_per_lemma=(True, True))


def _mp_logsumexp(footprints, temperature):
    with mpmath.workdps(50):
        t = mpmath.mpf(temperature)
        total = mpmath.fsum(mpmath.exp(mpmath.mpf(d) / t) for d in footprints)
        return float(t * mpmath.log(total))


# --- golden worked example ---------------------------------------------------


def test_golden_smooth_max_matches_high_precision_oracle():
    got = logsumexp_footprint([7, 8], 1.0)
    closed_form = 8 + math.log(1 + math.exp(-1))
    assert got == pytest.approx(closed_form, abs=1e-12)
    assert got == pytest.approx(_mp_logsumexp([7, 8], 1.0), rel=1e-12)
    assert got == pytest.approx(8.3133, abs=5e-5)


def test_golden_score_and_two_decimal_rendering():
    breakdown = decomposition_score(ALL_TRUE_2, 18, [7, 8], ScoreConfig(temperature=1.0))
    assert breakdown.v == 1
    assert 0.533 <= breakdown.S <= 0.543
    assert f"{breakdown.S:.2f}" == "0.54"
    assert breakdown.S == pytest.approx(1 - (8 + math.log(1 + math.exp(-1))) / 18, abs=1e-12)


# --- smooth max --------------------------------------------------------------


def test_single_footprint_is_exact():
    assert logsumexp_footprint([5], 1.0) == pytest.approx(5.0, abs=1e-12)


def test_symmetric_pair_adds_t_log_two():
    assert logsumexp_footprint([4, 4], 2.0) == pytest.approx(4 + 2 * math.log(2), abs=1e-12)


def test_large_footprints_do_not_overflow():
    got = logsumexp_footprint([10_000, 9_999], 0.1)
    assert math.isfinite(got)
    assert got == pytest.approx(_mp_logsumexp([10_000, 9_999], 0.1), rel=1e-9)


@pytest.mark.parametrize("bad", [[], None])
def test_empty_footprints_rejected(bad):
    with pytest.raises((ContractViolation, TypeError)):
        logsumexp_footprint(bad, 1.0)


@pytest.mark.parametrize("temperature", [0.0, -1.0])
def test_nonpositive_temperature_rejected(temperature):
    with pytest.raises(ContractViolation):
        logsumexp_footprint([1, 2], temperature)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=8),
    st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
)
def test_smooth_max_sandwich_and_oracle_agreement(footprints, temperature):
    got = logsumexp_footprint(footprints, temperature)
    top = max(footprints)
    assert top - 1e-9 <= got <= top + temperature * math.log(len(footprints)) + 1e-9
    assert got == pytest.approx(_mp_logsumexp(footprints, temperature), rel=1e-9)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=6),
    st.integers(min_value=0, max_value=5),
    st.floats(min_value=1.0, max_value=2.0, allow_nan=False),
)
def test_shrinking_any_child_strictly_lowers_the_aggregate(footprints, index, temperature):
    index = index % len(footprints)
    shrunk = list(footprints)
    shrunk[index] -= 1
    before = logsumexp_footprint(footprints, temperature)
    after = logsumexp_footprint(shrunk, temperature)
    assert after < before


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=100), min_size=2, max_size=6),
    st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
    st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
)
def test_aggregate_is_nondecreasing_in_temperature(footprints, t_low, bump):
    t_high = t_low + bump
    low = logsumexp_footprint(footprints, t_low)
    high = logsumexp_footprint(footprints, t_high)
    assert low <= high + 1e-12


# --- reduction ratio ---------------------------------------------------------


def test_reduction_ratio_values():
    assert reduction_ratio(18, 8.3133) == pytest.approx(0.5382, abs=5e-5)
    assert reduction_ratio(10, 12.0) == 0.0
    for d in range(1, 6):
        assert reduction_ratio(d, float(d)) == 0.0


@pytest.mark.parametrize("d_parent", [0, -3])
def test_nonpositive_parent_rejected(d_parent):
    with pytest.raises(ContractViolation):
        reduction_ratio(d_parent, 1.0)
    with pytest.raises(ContractViolation):
        decomposition_score(ALL_TRUE_2, d_parent, [1, 2])


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10_000), st.floats(min_value=0.0, max_value=20_000.0))
def test_reduction_ratio_stays_in_unit_interval(d_parent, d_bar):
    assert 0.0 <= reduction_ratio(d_parent, d_bar) <= 1.0


# --- gated score -------------------------------------------------------------


def test_gate_value_is_conjunction():
    assert ValidityGate(True, (True, True)).value == 1
    assert ValidityGate(True, ()).value == 1
    assert ValidityGate(False, (True,)).value == 0
    assert ValidityGate(True, (True, False)).value == 0


@pytest.mark.parametrize(
    "gate",
    [
        ValidityGate(False, (True, True)),
        ValidityGate(True, (False, True)),
        ValidityGate(True, (True, False)),
        ValidityGate(False, (False, False)),
    ],
)
def test_failed_gate_forces_zero_score(gate):
    breakdown = decomposition_score(gate, 18, [7, 8])
    assert breakdown.v == 0
    assert breakdown.S == 0.0
    # The structural ratio is still reported for diagnostics.
    assert breakdown.r > 0.0


def test_direct_discharge_convention():
    ok = decomposition_score(ValidityGate(True, ()), 7, [])
    assert ok == ScoreBreakdown(v=1, d_parent=7, d_children=(), d_bar=0.0, r=1.0, S=1.0)
    bad = decomposition_score(ValidityGate(False, ()), 7, [])
    assert bad.S == 0.0 and bad.r == 1.0
    # An operator-free parent (footprint 0) can still be discharged whole.
    free = decomposition_score(ValidityGate(True, ()), 0, [])
    assert free == ScoreBreakdown(v=1, d_parent=0, d_children=(), d_bar=0.0, r=1.0, S=1.0)
    assert decomposition_score(ValidityGate(False, ()), 0, []).S == 0.0


def test_gate_arity_must_match_children():
    with pytest.raises(ContractViolation):
        decomposition_score(ValidityGate(True, (True,)), 18, [7, 8])


def test_default_temperature_is_one():
    assert ScoreConfig().temperature == 1.0
    via_default = decomposition_score(ALL_TRUE_2, 18, [7, 8])
    explicit = decomposition_score(ALL_TRUE_2, 18, [7, 8], ScoreConfig(temperature=1.0))
    assert via_default == explicit


@pytest.mark.parametrize("temperature", [0.0, -0.5, math.inf])
def test_bad_score_config_rejected(temperature):
    with pytest.raises(ContractViolation):
        ScoreConfig(temperature=temperature)


@settings(max_examples=200, deadline=None)
@given(
    st.booleans(),
    st.lists(st.booleans(), min_size=1, max_size=6),
    st.integers(min_value=1, max_value=200),
    st.data(),
)
def test_breakdown_invariants_hold_everywhere(recon, qc_bits, d_parent, data):
    children = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=200),
            min_size=len(qc_bits),
            max_size=len(qc_bits),
        )
    )
    gate = ValidityGate(recon, tuple(qc_bits))
    b = decomposition_score(gate, d_parent, children)
    assert b.S == b.r * b.v
    assert 0.0 <= b.r <= 1.0
    assert 0.0 <= b.S <= 1.0
    if b.v == 0:
        assert b.S == 0.0
    assert b.r == pytest.approx(max(1.0 - b.d_bar / b.d_parent, 0.0), abs=1e-12)
