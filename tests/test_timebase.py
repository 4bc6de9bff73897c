"""Clock model arithmetic: exactness, inversion, corrections, noise streams."""

from __future__ import annotations

import numpy as np
import pytest

from qcsync.timebase import (
    FS_PER_SECOND,
    TIMESTAMP_RANGE,
    ClockModel,
    ClockState,
    NonMonotonicClockError,
    TimeRangeError,
    apply_correction,
    check_time_range,
    local_time,
    local_times,
    true_time_of_local,
    _ExactRate,
    _RandomWalkPhase,
)


def test_offset_only_clock_is_exact_shift():
    state = ClockState(ClockModel(initial_offset_fs=123456789), rng_stream=1)
    for t in (0, 1, -1, 10**15, 7 * 10**17, -(10**16)):
        assert local_time(state, t, readout_noise=False) == t + 123456789


def test_fractional_frequency_term_exact_rational():
    # y = 1e-6 must contribute round(y * t) exactly, not a float approximation
    state = ClockState(ClockModel(fractional_frequency=1e-6), rng_stream=1)
    t = 10**15
    expected = t + round(1e-6 * t)
    assert local_time(state, t, readout_noise=False) == expected
    # at t large enough that float64 loses integer resolution
    t_big = 10**17 + 3
    reading = local_time(state, t_big, readout_noise=False)
    assert reading - t_big == pytest.approx(1e-6 * t_big, abs=1)


def test_drift_term_quadratic_in_seconds():
    # d = 1e-12 per second: after 100 s the rate term is d*t^2/2 = 5e-9 s = 5e6 fs
    state = ClockState(ClockModel(frequency_drift=1e-12), rng_stream=1)
    t = 100 * FS_PER_SECOND
    reading = local_time(state, t, readout_noise=False)
    assert reading - t == pytest.approx(5.0e6, abs=1)


def test_parameter_validation():
    with pytest.raises(ValueError):
        ClockModel(fractional_frequency=1e-3)
    with pytest.raises(ValueError):
        ClockModel(white_phase_sigma_fs=-1.0)
    with pytest.raises(ValueError):
        ClockModel(random_walk_freq_coeff=-0.1)
    with pytest.raises(ValueError):
        ClockModel(frequency_drift=float("nan"))


def test_time_range_enforced():
    check_time_range(TIMESTAMP_RANGE - 1)
    with pytest.raises(TimeRangeError):
        check_time_range(TIMESTAMP_RANGE)
    state = ClockState(ClockModel(initial_offset_fs=10), rng_stream=1)
    with pytest.raises(TimeRangeError):
        local_time(state, TIMESTAMP_RANGE - 5, readout_noise=False)


def test_inversion_roundtrip_within_1fs():
    rng = np.random.default_rng(7)
    for _ in range(50):
        model = ClockModel(
            initial_offset_fs=int(rng.integers(-(10**12), 10**12)),
            fractional_frequency=float(rng.uniform(-1e-4, 1e-4)),
            frequency_drift=float(rng.uniform(-1e-9, 1e-9)),
        )
        state = ClockState(model, rng_stream=3)
        t = int(rng.integers(-(10**16), 10**16))
        reading = local_time(state, t, readout_noise=False)
        t_back = true_time_of_local(state, reading)
        assert abs(local_time(state, t_back, readout_noise=False) - reading) <= 1
        assert abs(t_back - t) <= 1


def test_inversion_rejects_pathological_rate():
    state = ClockState(ClockModel(), rng_stream=1, accumulated_rate_correction=0.9)
    with pytest.raises(NonMonotonicClockError):
        true_time_of_local(state, 10**15)


def test_apply_correction_composes_additively():
    state = ClockState(ClockModel(initial_offset_fs=1000), rng_stream=1)
    once = apply_correction(apply_correction(state, 300), 700)
    assert local_time(once, 5 * 10**14, readout_noise=False) == 5 * 10**14


def test_rate_correction_referenced_to_epoch():
    state = ClockState(ClockModel(fractional_frequency=1e-9), rng_stream=1)
    fixed = apply_correction(state, 0, 1e-9)
    assert local_time(fixed, 10**15, readout_noise=False) == 10**15
    assert local_time(fixed, 10**17, readout_noise=False) == 10**17


def test_correction_preserves_noise_realization():
    model = ClockModel(random_walk_freq_coeff=1e-9)
    state = ClockState(model, rng_stream=5)
    t = 3 * 10**13
    before = local_time(state, t, readout_noise=False)
    after = local_time(apply_correction(state, 42), t, readout_noise=False)
    assert before - after == 42


def test_random_walk_deterministic_and_query_order_free():
    model = ClockModel(random_walk_freq_coeff=1e-8)
    a = ClockState(model, rng_stream=(9, "clock", "x"))
    b = ClockState(model, rng_stream=(9, "clock", "x"))
    times = [10**13, 5 * 10**12, 8 * 10**13, 10**12]
    got_a = [local_time(a, t, readout_noise=False) for t in times]
    got_b = [local_time(b, t, readout_noise=False) for t in sorted(times)]
    by_time_b = dict(zip(sorted(times), got_b))
    assert got_a == [by_time_b[t] for t in times]


def test_random_walk_far_reading_matches_stepwise_extension():
    far = _RandomWalkPhase(5e-13, np.random.default_rng(8))
    stepwise = _RandomWalkPhase(5e-13, np.random.default_rng(8))
    horizon = 40 * FS_PER_SECOND  # ten 4096-node chunks of 1 ms
    for t in range(FS_PER_SECOND, horizon, 3 * FS_PER_SECOND):
        stepwise.phase_at(t)
    times = [horizon, horizon - 1, 17 * FS_PER_SECOND + 3, 10**9]
    assert [far.phase_at(t) for t in times] == [stepwise.phase_at(t) for t in times]
    assert np.array_equal(far._y, stepwise._y)
    assert np.array_equal(far._phase, stepwise._phase)


def test_random_walk_zero_before_epoch():
    state = ClockState(ClockModel(random_walk_freq_coeff=1e-6), rng_stream=2)
    assert local_time(state, 0, readout_noise=False) == 0
    assert local_time(state, -(10**14), readout_noise=False) == -(10**14)


def test_random_walk_scale_matches_model():
    # After tau seconds, phase std is roughly coeff * tau^1.5 / sqrt(3) seconds
    coeff, tau_s = 1e-9, 4.0
    t = int(tau_s * FS_PER_SECOND)
    phases = []
    for k in range(300):
        state = ClockState(ClockModel(random_walk_freq_coeff=coeff), rng_stream=(11, k))
        phases.append(local_time(state, t, readout_noise=False) - t)
    expected_fs = coeff * tau_s**1.5 / np.sqrt(3.0) * FS_PER_SECOND
    assert np.std(phases) == pytest.approx(expected_fs, rel=0.2)


def test_local_times_matches_scalar_path():
    rng = np.random.default_rng(17)
    times = np.concatenate(
        (
            [0, 1, -1, 10**12, 7 * 10**13, 10**15, 10**15 + 1],
            rng.integers(-(10**16), 10**16, 400),
        )
    ).astype(np.int64)
    # drift 0 takes the limb kernel, drift != 0 the per-tag Python-int loop
    for drift in (0.0, 2e-11):
        model = ClockModel(
            initial_offset_fs=987,
            fractional_frequency=3e-7,
            frequency_drift=drift,
            random_walk_freq_coeff=1e-9,
        )
        state_vec = apply_correction(ClockState(model, rng_stream=13), -5000, 2.5e-7)
        state_scl = apply_correction(ClockState(model, rng_stream=13), -5000, 2.5e-7)
        got = local_times(state_vec, times, readout_noise=False)
        want = [local_time(state_scl, int(t), readout_noise=False) for t in times]
        assert got.tolist() == want, drift


def _rate_kernel_times(rng):
    edges = [0, 1, -1, 2**62, -(2**62), 2**63 - 1, -(2**63)]
    spread = np.concatenate(
        [rng.integers(-(2**e), 2**e, 60) for e in (8, 24, 40, 52, 62)]
    )
    return np.concatenate((edges, spread)).astype(np.int64)


def test_rate_kernel_matches_scalar_rounding():
    rng = np.random.default_rng(23)
    rates = [*rng.uniform(-1e-3, 1e-3, 12), 0.9, -0.9, 1e-20, -1e-20, 0.5, 2.0**-64, 2.0**-65, 1.0]
    shifts = {_ExactRate(rate)._shift for rate in rates}
    assert min(shifts) < 64 < max(shifts)
    times = _rate_kernel_times(rng)
    for rate in rates:
        exact = _ExactRate(rate)
        assert exact.has_array_form
        want = [exact(int(t)) for t in times]
        assert exact.terms(times).tolist() == want, rate
    # ties round away from zero
    odd = np.array([-7, -5, -3, -1, 1, 3, 5, 7], dtype=np.int64)
    for exact in (_ExactRate(0.5), _ExactRate(-1.5), _ExactRate(2.0**-60)):
        assert exact.terms(odd * 2**59).tolist() == [exact(int(t) * 2**59) for t in odd]


def test_rate_kernel_raises_outside_int64():
    assert _ExactRate(1.0).terms(np.array([-(2**63)], dtype=np.int64)).tolist() == [-(2**63)]
    wide = _ExactRate(2.0**62 + 2.0**40)  # numerator above 2^32, in both limbs
    assert wide.terms(np.array([-1, 0, 1], dtype=np.int64)).tolist() == [-wide.num, 0, wide.num]
    with pytest.raises(TimeRangeError):
        wide.terms(np.array([2], dtype=np.int64))
    with pytest.raises(TimeRangeError):
        _ExactRate(-1.0).terms(np.array([-(2**63)], dtype=np.int64))
    with pytest.raises(TimeRangeError):
        _ExactRate(3.0).terms(np.array([0, 2**62], dtype=np.int64))


@pytest.mark.parametrize("fractional_frequency", [0.0, 1e-9])
def test_local_times_raises_when_a_reading_leaves_int64(fractional_frequency):
    model = ClockModel(initial_offset_fs=2**62, fractional_frequency=fractional_frequency)
    state = ClockState(model, rng_stream=1)
    with pytest.raises(TimeRangeError):
        local_times(state, np.array([0, 2**62], dtype=np.int64), readout_noise=False)
    # near the limit but inside it, the readings are the exact scalar ones
    times = np.array([-(2**62), 0, 2**62 - 2**40], dtype=np.int64)
    want = [local_time(state, int(t), readout_noise=False) for t in times]
    assert local_times(state, times, readout_noise=False).tolist() == want


def test_local_times_offset_beyond_int64_with_readings_inside():
    state = ClockState(ClockModel(initial_offset_fs=2**63 + 5), rng_stream=1)
    times = np.array([-(2**62), -10], dtype=np.int64)
    assert local_times(state, times, readout_noise=False).tolist() == [2**62 + 5, 2**63 - 5]
    with pytest.raises(TimeRangeError):
        local_times(state, np.array([-5], dtype=np.int64), readout_noise=False)


def test_local_times_raises_when_noise_leaves_int64():
    model = ClockModel(initial_offset_fs=2**63 - 2, white_phase_sigma_fs=1e6)
    state = ClockState(model, rng_stream=1)
    with pytest.raises(TimeRangeError):
        local_times(state, np.zeros(64, dtype=np.int64))


def test_white_noise_uses_supplied_stream():
    model = ClockModel(white_phase_sigma_fs=100.0)
    state = ClockState(model, rng_stream=21)
    r1 = local_time(state, 10**12, rng=np.random.default_rng(0))
    r2 = local_time(state, 10**12, rng=np.random.default_rng(0))
    assert r1 == r2
    spread = {
        local_time(state, 10**12, rng=np.random.default_rng(k)) for k in range(20)
    }
    assert len(spread) > 5
