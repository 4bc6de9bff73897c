"""Clock model arithmetic: exactness, int64 range, corrections, noise streams."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from qcsync import timebase
from qcsync.timebase import (
    FS_PER_SECOND,
    ClockModel,
    ClockState,
    TimeRangeError,
    apply_correction,
    local_time,
    local_times,
    _BLOCK,
    _ExactRate,
    _RandomWalkPhase,
)


def test_offset_only_clock_is_exact_shift():
    state = ClockState(ClockModel(initial_offset_fs=123456789), rng_stream=1)
    for t in (0, 1, -1, 10**15, 7 * 10**17, -(10**16)):
        assert local_time(state, t) == t + 123456789


def test_fractional_frequency_term_exact_rational():
    # y = 1e-6 must contribute round(y * t) exactly, not a float approximation
    state = ClockState(ClockModel(fractional_frequency=1e-6), rng_stream=1)
    t = 10**15
    expected = t + round(1e-6 * t)
    assert local_time(state, t) == expected
    # at t large enough that float64 loses integer resolution
    t_big = 10**17 + 3
    reading = local_time(state, t_big)
    assert reading - t_big == pytest.approx(1e-6 * t_big, abs=1)


def test_drift_term_quadratic_in_seconds():
    # d = 1e-12 per second: after 100 s the rate term is d*t^2/2 = 5e-9 s = 5e6 fs
    state = ClockState(ClockModel(frequency_drift=1e-12), rng_stream=1)
    t = 100 * FS_PER_SECOND
    reading = local_time(state, t)
    assert reading - t == pytest.approx(5.0e6, abs=1)


def test_parameter_validation():
    with pytest.raises(ValueError):
        ClockModel(fractional_frequency=1e-3)
    with pytest.raises(ValueError):
        ClockModel(white_phase_sigma_fs=-1.0)
    ClockModel(white_phase_sigma_fs=1e15)  # 1 s is allowed
    with pytest.raises(ValueError, match="white_phase_sigma_fs must be in"):
        ClockModel(white_phase_sigma_fs=1e15 + 1)
    with pytest.raises(ValueError):
        ClockModel(random_walk_freq_coeff=-0.1)
    ClockModel(random_walk_freq_coeff=1e-3)
    with pytest.raises(ValueError, match="random_walk_freq_coeff must be in"):
        ClockModel(random_walk_freq_coeff=1.1e-3)
    with pytest.raises(ValueError):
        ClockModel(frequency_drift=float("nan"))


def test_time_range_enforced():
    state = ClockState(ClockModel(initial_offset_fs=10), rng_stream=1)
    assert local_time(state, 2**63 - 11) == 2**63 - 1
    with pytest.raises(TimeRangeError):
        local_time(state, 2**63 - 10)
    with pytest.raises(TimeRangeError, match="true time"):
        local_time(ClockState(ClockModel(initial_offset_fs=-10), rng_stream=1), 2**63)
    assert local_time(ClockState(ClockModel(initial_offset_fs=10), rng_stream=1), -(2**63)) == 10 - 2**63
    with pytest.raises(TimeRangeError):
        apply_correction(state, 2**63)
    apply_correction(state, -(2**63))


def test_apply_correction_composes_additively():
    state = ClockState(ClockModel(initial_offset_fs=1000), rng_stream=1)
    once = apply_correction(apply_correction(state, 300), 700)
    assert local_time(once, 5 * 10**14) == 5 * 10**14


def test_rate_correction_referenced_to_epoch():
    state = ClockState(ClockModel(fractional_frequency=1e-9), rng_stream=1)
    fixed = apply_correction(state, 0, 1e-9)
    assert local_time(fixed, 10**15) == 10**15
    assert local_time(fixed, 10**17) == 10**17


def test_correction_preserves_noise_realization():
    model = ClockModel(random_walk_freq_coeff=1e-9)
    state = ClockState(model, rng_stream=5)
    t = 3 * 10**13
    before = local_time(state, t)
    after = local_time(apply_correction(state, 42), t)
    assert before - after == 42


def test_random_walk_deterministic_and_query_order_free():
    model = ClockModel(random_walk_freq_coeff=1e-8)
    a = ClockState(model, rng_stream=(9, "clock", "x"))
    b = ClockState(model, rng_stream=(9, "clock", "x"))
    times = [10**13, 5 * 10**12, 8 * 10**13, 10**12]
    got_a = [local_time(a, t) for t in times]
    got_b = [local_time(b, t) for t in sorted(times)]
    by_time_b = dict(zip(sorted(times), got_b))
    assert got_a == [by_time_b[t] for t in times]


def test_random_walk_far_reading_matches_stepwise_extension():
    far = _RandomWalkPhase(5e-13, np.random.default_rng(8))
    stepwise = _RandomWalkPhase(5e-13, np.random.default_rng(8))
    horizon = 40 * FS_PER_SECOND  # ten 4096-node chunks of 1 ms
    for t in range(FS_PER_SECOND, horizon, 3 * FS_PER_SECOND):
        stepwise.phases_at(np.array([t], dtype=np.int64))
    times = [horizon, horizon - 1, 17 * FS_PER_SECOND + 3, 10**9]
    one_by_one = [stepwise.phases_at(np.array([t], dtype=np.int64))[0] for t in times]
    assert far.phases_at(np.array(times, dtype=np.int64)).tolist() == one_by_one
    assert np.array_equal(far._y, stepwise._y)
    assert np.array_equal(far._phase, stepwise._phase)


def test_random_walk_phase_beyond_int64_raises():
    # a walk of 1e10/sqrt(s) reaches phases of about 1e20 fs within a few ms;
    # casting them to int64 gave invalid values
    times = np.array([1, 10**12, 10**13], dtype=np.int64)
    with pytest.raises(TimeRangeError, match="random-walk"):
        _RandomWalkPhase(1e10, np.random.default_rng(3)).phases_at(times)
    walk = _RandomWalkPhase(1e10, np.random.default_rng(3))
    assert walk.phases_at(np.array([1], dtype=np.int64)).tolist() == [0]
    with pytest.raises(TimeRangeError, match="random-walk"):
        walk.phases_at(np.array([10**13], dtype=np.int64))


def test_random_walk_zero_before_epoch():
    state = ClockState(ClockModel(random_walk_freq_coeff=1e-6), rng_stream=2)
    assert local_time(state, 0) == 0
    assert local_time(state, -(10**14)) == -(10**14)


def test_random_walk_scale_matches_model():
    # After tau seconds, phase std is roughly coeff * tau^1.5 / sqrt(3) seconds
    coeff, tau_s = 1e-9, 4.0
    t = int(tau_s * FS_PER_SECOND)
    phases = []
    for k in range(300):
        state = ClockState(ClockModel(random_walk_freq_coeff=coeff), rng_stream=(11, k))
        phases.append(local_time(state, t) - t)
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
    # drift 0 takes the float rate kernel, drift != 0 the per-tag Python-int loop
    for drift in (0.0, 2e-11):
        model = ClockModel(
            initial_offset_fs=987,
            fractional_frequency=3e-7,
            frequency_drift=drift,
            random_walk_freq_coeff=1e-9,
        )
        state_vec = apply_correction(ClockState(model, rng_stream=13), -5000, 2.5e-7)
        state_scl = apply_correction(ClockState(model, rng_stream=13), -5000, 2.5e-7)
        got = local_times(state_vec, times)
        want = [local_time(state_scl, int(t)) for t in times]
        assert got.tolist() == want, drift


def _rate_kernel_times(rng):
    edges = [0, 1, -1, 2**62, -(2**62), 2**63 - 1, -(2**63)]
    # from 2^53 up, float(t) rounds t itself
    near_2_53 = [sign * (2**53 + d) for sign in (1, -1) for d in (-3, -1, 1, 3)]
    spread = np.concatenate(
        [rng.integers(-(2**e), 2**e, 60) for e in (8, 24, 40, 52, 62)]
    )
    return np.concatenate((edges, near_2_53, spread)).astype(np.int64)


def test_rate_kernel_matches_scalar_rounding(monkeypatch):
    rng = np.random.default_rng(23)
    rates = [*rng.uniform(-1e-3, 1e-3, 12), 0.9, -0.9, 1e-20, -1e-20, 0.5, 2.0**-64, 2.0**-65, 1.0]
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
    # Products exactly on a half, far below 2^50, fail the float filter: each
    # takes the exact path, also in the second block of a long array.
    half = _ExactRate(2.0**-20)
    ties = np.array([1, -1, 3, -5, 2**43 - 1, -(2**43 - 1)], dtype=np.int64) * 2**19
    long = np.concatenate((np.arange(_BLOCK, dtype=np.int64) << 20, ties))
    want = [half(int(t)) for t in long]
    reference, exact_calls = _ExactRate.__call__, []
    monkeypatch.setattr(_ExactRate, "__call__", lambda self, t: exact_calls.append(t) or reference(self, t))
    assert half.terms(long).tolist() == want
    assert exact_calls == ties.tolist()
    assert want[-6:] == [1, -1, 2, -3, 2**42, -(2**42)]


def test_rate_kernel_matches_exact_terms_on_a_seeded_sweep():
    # 1000 rates x 100 times: 10^5 (rate, time) pairs against the Python-int terms
    rng = np.random.default_rng(31)
    signs = rng.choice([-1.0, 1.0], 1000)
    rates = signs * 10.0 ** rng.uniform(-20, 0, 1000)
    rates[:200] = signs[:200] * 2.0 ** -rng.integers(1, 70, 200).astype(float)  # dyadic rates
    for rate in rates.tolist():
        exact = _ExactRate(rate)
        times = rng.integers(-(2**63), 2**63 - 1, 100, dtype=np.int64, endpoint=True)
        times >>= rng.integers(0, 63, 100)  # magnitudes spread over every scale
        times[:2] = -(2**63), 2**63 - 1
        assert exact.terms(times).tolist() == [exact(t) for t in times.tolist()], rate


def test_local_times_near_the_int64_end_reads_without_warning():
    # |rate * t| is about 2^53, past the float filter: the exact path runs,
    # and no float at or past 2^63 is cast to int64
    times = np.array([2**63 - 2**40 - k for k in (2**39, 2**20, 1, 0)], dtype=np.int64)
    exact = _ExactRate(9.99e-4)
    state = ClockState(ClockModel(initial_offset_fs=-(2**54), fractional_frequency=9.99e-4), rng_stream=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert exact.terms(times).tolist() == [exact(t) for t in times.tolist()]
        assert local_times(state, times).tolist() == [local_time(state, t) for t in times.tolist()]


def test_noiseless_clock_derives_no_random_walk_generator(monkeypatch):
    paths = []
    derive = timebase.derive_rng
    monkeypatch.setattr(timebase, "derive_rng", lambda *path: paths.append(path) or derive(*path))
    quiet = ClockState(ClockModel(fractional_frequency=1e-9, white_phase_sigma_fs=10.0), rng_stream=(4, "a"))
    apply_correction(quiet, 5, 1e-12)
    assert paths == []
    walk = ClockState(ClockModel(random_walk_freq_coeff=1e-9), rng_stream=(4, "a"))
    assert paths == [(0, "clock-rw", 4, "a")]
    apply_correction(walk, 5)  # a corrected clock shares its walk
    assert paths == [(0, "clock-rw", 4, "a")]


def test_rate_kernel_raises_outside_int64():
    assert _ExactRate(1.0).terms(np.array([-(2**63)], dtype=np.int64)).tolist() == [-(2**63)]
    wide = _ExactRate(2.0**62 + 2.0**40)  # every nonzero product is past the float filter
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
        local_times(state, np.array([0, 2**62], dtype=np.int64))
    # near the limit but inside it, the readings are the exact scalar ones
    times = np.array([-(2**62), 0, 2**62 - 2**40], dtype=np.int64)
    want = [local_time(state, int(t)) for t in times]
    assert local_times(state, times).tolist() == want


def test_local_times_offset_beyond_int64_with_readings_inside():
    state = ClockState(ClockModel(initial_offset_fs=2**63 + 5), rng_stream=1)
    times = np.array([-(2**62), -10], dtype=np.int64)
    assert local_times(state, times).tolist() == [2**62 + 5, 2**63 - 5]
    with pytest.raises(TimeRangeError):
        local_times(state, np.array([-5], dtype=np.int64))


def test_local_times_raises_when_noise_leaves_int64():
    model = ClockModel(initial_offset_fs=2**63 - 2, white_phase_sigma_fs=1e6)
    state = ClockState(model, rng_stream=1)
    with pytest.raises(TimeRangeError):
        local_times(state, np.zeros(64, dtype=np.int64), rng=np.random.default_rng(0))


def test_white_noise_uses_supplied_stream():
    model = ClockModel(white_phase_sigma_fs=100.0)
    state = ClockState(model, rng_stream=21)
    t = np.array([10**12], dtype=np.int64)
    r1 = local_times(state, t, rng=np.random.default_rng(0))
    r2 = local_times(state, t, rng=np.random.default_rng(0))
    assert r1.tolist() == r2.tolist()
    spread = {int(local_times(state, t, rng=np.random.default_rng(k))[0]) for k in range(20)}
    assert len(spread) > 5
    # without a generator the reading is the noise-free one
    assert local_times(state, t).tolist() == [local_time(state, 10**12)] == [10**12]


def test_random_walk_read_only_before_epoch():
    # a fresh walk read only at t <= 0 indexed past its one-node arrays
    state = ClockState(ClockModel(random_walk_freq_coeff=1e-9), rng_stream=1)
    assert local_times(state, np.array([0, -5], dtype=np.int64)).tolist() == [0, -5]
    fresh = ClockState(ClockModel(random_walk_freq_coeff=1e-9), rng_stream=1)
    assert local_time(fresh, -5) == -5
    # extending the walk there changes no later reading
    later = np.array([10**12 + 7, 5 * 10**12], dtype=np.int64)
    untouched = ClockState(ClockModel(random_walk_freq_coeff=1e-9), rng_stream=1)
    assert local_times(state, later).tolist() == local_times(untouched, later).tolist()
