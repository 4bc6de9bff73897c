"""Coincidence peak search, two-way combination, and frequency tracking."""

from __future__ import annotations

import math

import numpy as np
import pytest

from qcsync import estimator
from qcsync.estimator import (
    CorrelationConfig,
    EmptyOverlapError,
    InsufficientBlocksError,
    NoPeakError,
    UnphysicalFlightTimeError,
    coarse_histogram,
    cross_correlate,
    estimate_two_way,
    frequency_track,
    two_way_offset,
)

CFG = CorrelationConfig(
    search_window=10**10, coarse_bin=10**6, fine_bin=1000, refine_span_bins=3
)


def _pair_streams(n, offset, spacing=10**9, jitter=0, seed=0):
    # uniform arrival times give a flat accidental background
    rng = np.random.default_rng(seed)
    local = np.sort(rng.integers(0, n * spacing, n)).astype(np.int64)
    shifts = rng.normal(0, jitter, n).round().astype(np.int64) if jitter else 0
    remote = np.sort(local + offset + shifts)
    return local, remote


def test_exact_shift_recovered():
    local, remote = _pair_streams(100, offset=123456)
    result = cross_correlate(local, remote, CFG)
    assert result.peak_offset == 123456
    assert result.peak_counts == 100
    assert result.peak_width_fs == 0.0


def test_five_event_constructed_shift():
    local = np.array([10**6, 3 * 10**6, 7 * 10**6, 11 * 10**6, 20 * 10**6], dtype=np.int64)
    remote = local + 999
    cfg = CorrelationConfig(
        search_window=10**10, coarse_bin=10**6, fine_bin=1000, significance_sigma=2.0
    )
    result = cross_correlate(local, remote, cfg)
    assert result.peak_offset == 999


def test_negative_shift_recovered():
    local, remote = _pair_streams(100, offset=-54321)
    assert cross_correlate(local, remote, CFG).peak_offset == -54321


def test_shift_equivariance():
    # shifting the remote stream by delta shifts the answer by exactly delta,
    # and shifting both streams by the same amount leaves it unchanged
    local, remote = _pair_streams(200, offset=777, jitter=300, seed=3)
    # 50 ps jitter at 1 ps fine bins with a 1e-9 drift: the member window is
    # 3 sigma of the line, so the iterated window decides which pairs count
    rng = np.random.default_rng(4)
    drift_local = np.sort(rng.integers(0, 10**12, 5000)).astype(np.int64)
    drift = (1e-9 * drift_local).round().astype(np.int64)
    drift_remote = np.sort(drift_local + 777 + drift + rng.normal(0, 50_000, 5000).round().astype(np.int64))
    drift_cfg = CorrelationConfig(search_window=10**10, coarse_bin=10**6, fine_bin=1000)
    for loc, rem, cfg in ((local, remote, CFG), (drift_local, drift_remote, drift_cfg)):
        base = cross_correlate(loc, rem, cfg)
        for delta in (1, 999, 10**6 + 7, -12345):
            shifted = cross_correlate(loc, rem + delta, cfg)
            assert shifted.peak_offset == base.peak_offset + delta
            assert shifted.histogram_summary == base.histogram_summary
        common = cross_correlate(loc + 2**40, rem + 2**40, cfg)
        assert common.peak_offset == base.peak_offset
        assert common.peak_width_fs == base.peak_width_fs
        assert common.histogram_summary == base.histogram_summary
    assert 0 < base.histogram_summary["region_total"] < len(drift_local)


def test_centroid_is_mean_of_peak_members():
    local = np.arange(1, 201, dtype=np.int64) * 10**7
    remote = local + np.where(np.arange(200) % 2 == 0, 1000, 1100)
    result = cross_correlate(local, remote, CFG)
    assert result.peak_offset == 1050


def test_tie_breaks_toward_smallest_offset():
    local = np.array([10**7], dtype=np.int64)
    remote = np.array([10**7 - 5 * 10**6, 10**7 + 5 * 10**6], dtype=np.int64)
    cfg = CorrelationConfig(
        search_window=10**10, coarse_bin=10**6, fine_bin=1000, significance_sigma=0.1
    )
    assert cross_correlate(local, remote, cfg).peak_offset == -5 * 10**6


def test_no_peak_raises_with_significance():
    rng = np.random.default_rng(11)
    local = np.sort(rng.integers(0, 10**12, 300)).astype(np.int64)
    remote = np.sort(rng.integers(0, 10**12, 300)).astype(np.int64)
    with pytest.raises(NoPeakError) as err:
        cross_correlate(local, remote, CFG)
    assert err.value.significance < CFG.significance_sigma


def test_empty_stream_rejected():
    with pytest.raises(EmptyOverlapError):
        cross_correlate(np.empty(0, dtype=np.int64), np.array([1], dtype=np.int64), CFG)


def test_disjoint_windows_rejected():
    local = np.array([0], dtype=np.int64)
    remote = np.array([10**14], dtype=np.int64)
    with pytest.raises(EmptyOverlapError):
        cross_correlate(local, remote, CFG)


def _brute_diffs(local, remote, window):
    diffs = (remote[None, :] - local[:, None]).ravel()
    return diffs[np.abs(diffs) <= window]


def _brute_histogram(local, remote, cfg):
    origin = int(remote[0]) - int(local[0])
    diffs = _brute_diffs(local, remote, cfg.search_window)
    bins, counts = np.unique((diffs - origin) // cfg.coarse_bin, return_counts=True)
    return bins, counts, origin


def _assert_matches_brute_force(local, remote, cfg):
    bins, counts, origin = coarse_histogram(local, remote, cfg)
    want_bins, want_counts, want_origin = _brute_histogram(local, remote, cfg)
    assert origin == want_origin
    assert bins.dtype == np.int64
    assert np.array_equal(bins, want_bins)
    assert np.array_equal(counts, want_counts)


def test_brute_force_histogram_equivalence():
    rng = np.random.default_rng(29)
    cfg = CorrelationConfig(search_window=10**8, coarse_bin=10**5, fine_bin=100)
    for _ in range(50):
        n, m = int(rng.integers(1, 200)), int(rng.integers(1, 200))
        local = np.sort(rng.integers(0, 10**9, n)).astype(np.int64)
        remote = np.sort(rng.integers(0, 10**9, m)).astype(np.int64)
        _assert_matches_brute_force(local, remote, cfg)


@pytest.mark.parametrize("chunk_pairs,block_pairs", [(150, 150), (700, 64), (10**6, 333)])
def test_chunked_enumeration_matches_single_pass(monkeypatch, chunk_pairs, block_pairs):
    # about 200 in-window pairs per local tag, so chunks and blocks start and
    # end inside one tag's run; the first two settings merge hundreds of sorted
    # chunks, the last sorts one chunk filled from many blocks
    local, remote = _pair_streams(500, offset=3 * 10**7, spacing=10**6, jitter=2000, seed=8)
    cfg = CorrelationConfig(search_window=10**8, coarse_bin=10**5, fine_bin=100)
    single = cross_correlate(local, remote, cfg)
    monkeypatch.setattr(estimator, "_CHUNK_PAIRS", chunk_pairs)
    monkeypatch.setattr(estimator, "_BLOCK_PAIRS", block_pairs)
    _assert_matches_brute_force(local, remote, cfg)
    assert cross_correlate(local, remote, cfg) == single


def test_histogram_beyond_uint32_bin_range():
    # 1 fs bins over +-3e9 fs: 6e9 + 1 bins, more than 32-bit offsets can hold
    rng = np.random.default_rng(31)
    cfg = CorrelationConfig(search_window=3 * 10**9, coarse_bin=1, fine_bin=1)
    local = np.sort(rng.integers(0, 10**9, 5)).astype(np.int64)
    remote = np.sort(rng.integers(-2 * 10**9, 4 * 10**9, 20)).astype(np.int64)
    want_bins, _, origin = _brute_histogram(local, remote, cfg)
    bin_lo = (-cfg.search_window - origin) // cfg.coarse_bin
    assert want_bins.max() - bin_lo >= 2**32  # offsets a uint32 would wrap
    _assert_matches_brute_force(local, remote, cfg)


def test_window_edges_are_inclusive():
    window = 10**8
    cfg = CorrelationConfig(search_window=window, coarse_bin=10**5, fine_bin=100)
    local = np.array([10**9], dtype=np.int64)
    remote = local + np.array([-window - 1, -window, window, window + 1], dtype=np.int64)
    _, counts, _ = coarse_histogram(local, remote, cfg)
    assert counts.sum() == 2
    _assert_matches_brute_force(local, remote, cfg)


def test_fine_span_clipped_at_window_edge():
    # the peak sits 5 ps inside +W, so the fine span and the member window
    # reach past the window and the fine pass must drop those pairs
    window = 10**9
    cfg = CorrelationConfig(search_window=window, coarse_bin=10**6, fine_bin=10**4)
    local = np.arange(1, 301, dtype=np.int64) * 10**10
    jitter = np.random.default_rng(12).normal(0, 10**4, 300).round().astype(np.int64)
    remote = local + window - 5000 + jitter
    result = cross_correlate(local, remote, cfg)
    members = result.members
    assert result.histogram_summary["region_total"] == len(members.diffs)

    # the members are a fixed point of the member rule over all pairs: the
    # in-window pairs within max(3 sigma, fine_bin) of the members' line
    diffs = (remote[None, :] - local[:, None]).ravel()
    times = np.repeat(local, len(remote))
    slope, intercept = np.polyfit(members.local_times.astype(float), members.diffs.astype(float), 1)
    assert slope == pytest.approx(members.slope, abs=1e-12)
    residuals = diffs - (intercept + slope * times)
    member_residuals = members.diffs - (intercept + slope * members.local_times)
    sigma = math.sqrt(np.mean(member_residuals**2))
    assert sigma == pytest.approx(result.peak_width_fs)
    inside = np.abs(residuals) <= max(3 * sigma, cfg.fine_bin)
    assert np.array_equal(np.sort(diffs[inside & (np.abs(diffs) <= window)]), np.sort(members.diffs))
    assert result.peak_offset == round(members.diffs.mean())
    # pairs past +W fall inside the member window, so an unclipped span would count them
    assert (inside & (diffs > window)).any()


def test_uncertainty_scales_with_width_over_sqrt_n():
    local, remote = _pair_streams(10000, offset=10**9, jitter=70700, seed=5)
    cfg = CorrelationConfig(search_window=10**10, coarse_bin=10**6, fine_bin=2 * 10**5)
    result = cross_correlate(local, remote, cfg)
    assert result.peak_width_fs == pytest.approx(70700, rel=0.05)
    # Two equal directions: 0.5 * hypot(u, u) = u / sqrt(2), u = width / sqrt(members)
    members = result.histogram_summary["region_total"]
    assert members == len(result.members.diffs)
    width_over_sqrt_n = result.peak_width_fs / math.sqrt(members)
    assert two_way_offset(result, result).offset_uncertainty == round(width_over_sqrt_n / math.sqrt(2))


def test_two_way_combination_algebra():
    local, remote = _pair_streams(50, offset=10**9 + 10**6)
    d_ab = cross_correlate(local, remote, CFG)
    local2, remote2 = _pair_streams(50, offset=10**9 - 10**6)
    d_ba = cross_correlate(local2, remote2, CFG)
    result = two_way_offset(d_ab, d_ba)
    assert result.clock_offset == 10**6
    assert result.flight_time == 10**9
    assert result.forward is d_ab and result.backward is d_ba


def test_two_way_halving_rounds_toward_zero():
    local, remote = _pair_streams(50, offset=11)
    d_ab = cross_correlate(local, remote, CFG)
    local2, remote2 = _pair_streams(50, offset=16)
    d_ba = cross_correlate(local2, remote2, CFG)
    result = two_way_offset(d_ab, d_ba)
    assert result.clock_offset == -2  # (11-16)/2 = -2.5 -> -2
    assert result.flight_time == 13  # (11+16)/2 = 13.5 -> 13


def test_negative_flight_time_rejected():
    local, remote = _pair_streams(50, offset=-10**6)
    d = cross_correlate(local, remote, CFG)
    with pytest.raises(UnphysicalFlightTimeError):
        two_way_offset(d, d)


def test_config_validation():
    with pytest.raises(ValueError):
        CorrelationConfig(fine_bin=0)
    with pytest.raises(ValueError):
        CorrelationConfig(fine_bin=10**7, coarse_bin=10**6)
    with pytest.raises(ValueError):
        CorrelationConfig(coarse_bin=10**14, search_window=10**13)
    with pytest.raises(ValueError):
        CorrelationConfig(significance_sigma=0.0)


def _drifting_session(y, n, jitter, seed, theta0=5 * 10**6, flight=10**9):
    # remote_ab tag = local_a + flight + theta(t); remote_ba = local_b + flight - theta(t)
    rng = np.random.default_rng(seed)
    span = 10**12
    local_a = np.sort(rng.integers(0, span, n)).astype(np.int64)
    theta_a = theta0 + (y * local_a).round().astype(np.int64)
    jit = lambda k: rng.normal(0, jitter, k).round().astype(np.int64) if jitter else 0
    remote_ab = np.sort(local_a + flight + theta_a + jit(n))
    local_b = np.sort(rng.integers(0, span, n)).astype(np.int64)
    theta_b = theta0 + (y * local_b).round().astype(np.int64)
    remote_ba = np.sort(local_b + flight - theta_b + jit(n))
    return local_a, remote_ab, local_b, remote_ba


def test_frequency_track_recovers_slope():
    cfg = CorrelationConfig(
        search_window=10**10, coarse_bin=10**6, fine_bin=10**4, block_count=10
    )
    streams = _drifting_session(1e-9, 20000, jitter=0, seed=8)
    fit = frequency_track(*streams, cfg)
    assert fit.fractional_frequency == pytest.approx(1e-9, abs=1e-11)
    assert fit.offset_at_epoch == pytest.approx(5 * 10**6, abs=100)
    assert len(fit.block_offsets) == 10


def test_estimate_two_way_fits_frequency_only_with_blocks():
    streams = _drifting_session(1e-9, 20000, jitter=0, seed=8)
    cfg = CorrelationConfig(search_window=10**10, coarse_bin=10**6, fine_bin=10**4)
    assert estimate_two_way(*streams, cfg).frequency is None
    blocks = CorrelationConfig(search_window=10**10, coarse_bin=10**6, fine_bin=10**4, block_count=10)
    result = estimate_two_way(*streams, blocks)
    assert result.frequency == frequency_track(*streams, blocks)
    assert result.clock_offset == estimate_two_way(*streams, cfg).clock_offset


def test_frequency_track_rejects_negative_flight():
    cfg = CorrelationConfig(
        search_window=10**10, coarse_bin=10**6, fine_bin=10**4, block_count=4
    )
    with pytest.raises(UnphysicalFlightTimeError):
        frequency_track(*_drifting_session(0.0, 2000, 0, 3, flight=-10**9), cfg)


def test_frequency_track_needs_two_blocks():
    cfg = CorrelationConfig(search_window=10**10, block_count=1)
    with pytest.raises(ValueError):
        frequency_track(*_drifting_session(0.0, 100, 0, 1), cfg)


def test_frequency_track_insufficient_blocks():
    cfg = CorrelationConfig(
        search_window=10**10, coarse_bin=10**6, fine_bin=10**4, block_count=10
    )
    # one unpaired tag of A at 10x the pairs' span puts every member, in
    # both directions, in the first of A's ten blocks
    local_a, remote_ab, local_b, remote_ba = _drifting_session(0.0, 2000, jitter=0, seed=9)
    local_a = np.append(local_a, 10**13)
    whole = CorrelationConfig(search_window=10**10, coarse_bin=10**6, fine_bin=10**4)
    assert estimate_two_way(local_a, remote_ab, local_b, remote_ba, whole).clock_offset == 5 * 10**6
    with pytest.raises(InsufficientBlocksError):
        frequency_track(local_a, remote_ab, local_b, remote_ba, cfg)
