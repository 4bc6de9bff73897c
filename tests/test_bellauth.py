"""CHSH statistics and entanglement-based link authentication."""

from __future__ import annotations

import math

import numpy as np
import pytest

from qcsync.bellauth import (
    AUTHENTIC,
    INCONCLUSIVE,
    INTERCEPT_RESEND_VISIBILITY_CAP,
    REJECTED,
    AuthPolicy,
    ChshSettings,
    DEFAULT_SETTINGS,
    EntanglementModel,
    authenticate,
    chsh_value,
    simulate_coincidences,
)


def _estimate(visibility, pairs, seed=1):
    model = EntanglementModel(visibility=visibility)
    counts = simulate_coincidences(model, DEFAULT_SETTINGS, pairs, (seed, "bell"))
    return chsh_value(counts)


@pytest.mark.parametrize("visibility", [1.0, 0.9, 1 / math.sqrt(2), 0.5])
def test_s_matches_visibility_scaling(visibility):
    est = _estimate(visibility, pairs=10000)
    assert est.S == pytest.approx(2 * math.sqrt(2) * visibility, abs=4 * est.standard_error)
    assert est.standard_error < 0.05


def test_correlation_model():
    model = EntanglementModel(visibility=0.8)
    assert model.correlation(0.0, 0.0) == pytest.approx(-0.8)
    assert model.correlation(0.0, math.pi / 2) == pytest.approx(0.8)
    assert model.correlation(0.0, math.pi / 4) == pytest.approx(0.0, abs=1e-12)


def test_counts_table_shape_and_totals():
    counts = simulate_coincidences(EntanglementModel(), DEFAULT_SETTINGS, 500, (3,))
    assert counts.shape == (4, 4)
    assert counts.dtype == np.int64
    assert np.all(counts.sum(axis=1) == 500)


def test_pairs_per_setting_bounded_at_int64():
    counts = simulate_coincidences(EntanglementModel(), DEFAULT_SETTINGS, 2**63 - 1, (3,))
    assert np.all(counts.sum(axis=1) == 2**63 - 1)
    # 2^63 overflowed numpy's multinomial with OverflowError
    with pytest.raises(ValueError, match="pairs_per_setting"):
        simulate_coincidences(EntanglementModel(), DEFAULT_SETTINGS, 2**63, (3,))


def test_simulation_deterministic_per_seed():
    a = simulate_coincidences(EntanglementModel(0.9), DEFAULT_SETTINGS, 1000, (7, "x"))
    b = simulate_coincidences(EntanglementModel(0.9), DEFAULT_SETTINGS, 1000, (7, "x"))
    c = simulate_coincidences(EntanglementModel(0.9), DEFAULT_SETTINGS, 1000, (8, "x"))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_chsh_exact_on_constructed_table():
    # perfect correlators: E = [-1, +1, -1, -1] gives S = 1 + 1 + 1 + 1 = 4
    counts = np.array(
        [
            [0, 50, 50, 0],
            [50, 0, 0, 50],
            [0, 50, 50, 0],
            [0, 50, 50, 0],
        ],
        dtype=np.int64,
    )
    est = chsh_value(counts)
    assert est.S == pytest.approx(4.0)


def test_standard_error_floor_is_one_over_n():
    counts = np.array(
        [
            [0, 50, 50, 0],
            [50, 0, 0, 50],
            [0, 50, 50, 0],
            [0, 50, 50, 0],
        ],
        dtype=np.int64,
    )
    est = chsh_value(counts)
    # saturated correlators would give zero binomial variance; the floor keeps
    # the per-setting variance at 1/N^2
    assert est.standard_error == pytest.approx(math.sqrt(4 / 100**2))


def test_chsh_validation():
    with pytest.raises(ValueError):
        chsh_value(np.zeros((3, 4), dtype=np.int64))
    empty_row = np.ones((4, 4), dtype=np.int64)
    empty_row[2] = 0
    with pytest.raises(ValueError):
        chsh_value(empty_row)


def test_authenticate_min_pairs_gate_first():
    # a wildly violating table is still inconclusive when a setting is starved
    counts = np.array(
        [
            [0, 10, 9, 0],
            [10, 0, 0, 9],
            [0, 10, 9, 0],
            [0, 10, 9, 0],
        ],
        dtype=np.int64,
    )
    est = chsh_value(counts)
    assert authenticate(est, AuthPolicy(min_pairs_per_setting=20)) == INCONCLUSIVE
    assert authenticate(est, AuthPolicy(min_pairs_per_setting=10)) == AUTHENTIC


def test_authenticate_decision_sides():
    policy = AuthPolicy()
    high = _estimate(0.98, pairs=20000)
    assert high.S - 3 * high.standard_error > 2.0
    assert authenticate(high, policy) == AUTHENTIC

    low = _estimate(0.5, pairs=20000)
    assert low.S + 3 * low.standard_error < 2.0
    assert authenticate(low, policy) == REJECTED

    # straddling the threshold: S near 2.0 with a modest sample
    near = _estimate(2.0 / (2 * math.sqrt(2)), pairs=2000)
    assert authenticate(near, policy) == INCONCLUSIVE


def test_intercept_resend_cap_never_violates():
    s_cap = 2 * math.sqrt(2) * INTERCEPT_RESEND_VISIBILITY_CAP
    assert s_cap == pytest.approx(2.0)
    verdicts = [
        authenticate(_estimate(INTERCEPT_RESEND_VISIBILITY_CAP, 10000, seed=s), AuthPolicy())
        for s in range(200)
    ]
    # with S centered exactly on the threshold a 3 sigma one-sided excursion
    # should be rare; none of these trials may authenticate as a flood
    assert verdicts.count(AUTHENTIC) <= 2
    assert verdicts.count(INCONCLUSIVE) >= 190


def test_settings_and_policy_validation():
    with pytest.raises(ValueError):
        EntanglementModel(visibility=1.2)
    with pytest.raises(ValueError):
        ChshSettings(a=math.nan)
    with pytest.raises(ValueError):
        AuthPolicy(s_threshold=1.5)
    with pytest.raises(ValueError):
        AuthPolicy(min_pairs_per_setting=0)
    with pytest.raises(ValueError):
        AuthPolicy(confidence_sigma=0.0)
    with pytest.raises(ValueError):
        simulate_coincidences(EntanglementModel(), DEFAULT_SETTINGS, 0, (1,))


def test_setting_pair_row_order():
    s = ChshSettings(a=0.1, a_prime=0.2, b=0.3, b_prime=0.4)
    assert s.setting_pairs == ((0.1, 0.3), (0.1, 0.4), (0.2, 0.3), (0.2, 0.4))
