"""Coincidence peak search, two-way combination, and frequency tracking."""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qcsync import estimator
from qcsync.estimator import (
    CorrelationConfig,
    EmptyOverlapError,
    NoPeakError,
    UnphysicalFlightTimeError,
    coarse_histogram,
    cross_correlate,
    estimate_two_way,
    frequency_track,
    two_way_offset,
)
from qcsync.scenario import build_correlation, build_session, load_scenario
from qcsync.session import run_session
from qcsync.timebase import ClockState

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
    bins, counts, origin = coarse_histogram(local, remote, cfg)[:3]
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
    counts = coarse_histogram(local, remote, cfg).counts
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


def test_refine_span_clipped_to_the_window():
    # a span reaching past every window bin from any peak is clipped to that
    # reach: 10^18 bins, whose first difference lies beyond int64, gives
    # the result of the window's bin count less one
    cfg = CorrelationConfig(search_window=10**8, coarse_bin=10**6, fine_bin=10**4)
    local, remote = _pair_streams(300, offset=4 * 10**7, spacing=10**9, jitter=10**5, seed=12)
    bin_lo, bin_hi = estimator._window_bin_range(int(remote[0]) - int(local[0]), cfg)
    reach = bin_hi - bin_lo
    clipped = _outcome(local, remote, replace(cfg, refine_span_bins=reach))
    assert _outcome(local, remote, replace(cfg, refine_span_bins=10**18)) == clipped
    assert clipped[0].histogram_summary["span_fs"] == (2 * reach + 1) * cfg.coarse_bin
    assert abs(clipped[0].peak_offset - 4 * 10**7) < 10**5


@pytest.mark.parametrize("window", [2**63 - 2, 10**19])
def test_window_past_int64_enumerates_like_a_window_of_1e18(window):
    # every difference the streams can form lies inside all three windows;
    # the window's offsets wrapped the int64 tags (2^63 - 2) or did not
    # convert to int64 at all (10^19)
    local, remote = _pair_streams(100, offset=4 * 10**7, jitter=10**5, seed=12)
    cfg = CorrelationConfig(search_window=10**18, coarse_bin=10**6, fine_bin=10**4)
    wide = replace(cfg, search_window=window)
    assert np.array_equal(coarse_histogram(local, remote, wide).bins, coarse_histogram(local, remote, cfg).bins)
    got, want = cross_correlate(local, remote, wide), cross_correlate(local, remote, cfg)
    assert (got.peak_offset, got.peak_counts) == (want.peak_offset, want.peak_counts)
    assert np.array_equal(got.members.diffs, want.members.diffs)


def test_uncertainty_scales_with_width_over_sqrt_n():
    local, remote = _pair_streams(10000, offset=10**9, jitter=70700, seed=5)
    cfg = CorrelationConfig(search_window=10**10, coarse_bin=10**6, fine_bin=2 * 10**5)
    result = cross_correlate(local, remote, cfg)
    assert result.peak_width_fs == pytest.approx(70700, rel=0.05)
    members = result.histogram_summary["region_total"]
    assert members == len(result.members.diffs)
    # Two equal directions read at the same epoch: 0.5 * hypot(u, u) = u / sqrt(2),
    # u = width * sqrt(1/n + (t_e - t_mean)^2 / Sxx)
    span = (int(local[0]), int(local[-1]))
    times = result.members.local_times.astype(float)
    dt = (span[0] + span[1]) // 2 - times.mean()
    u = result.peak_width_fs * math.sqrt(1 / members + dt**2 / np.sum((times - times.mean()) ** 2))
    assert u > result.peak_width_fs / math.sqrt(members)
    assert two_way_offset(result, result, span, 1).offset_uncertainty == round(u / math.sqrt(2))


def test_members_at_one_local_time_have_no_slope_term():
    # one local tag per direction: Sxx = 0, so the slope is 0, the reading is
    # the mean member difference with sigma/sqrt(n), and the rate is unbounded
    local = np.array([10**9], dtype=np.int64)
    spread = np.arange(-4, 5, dtype=np.int64) * 1000
    cfg = CorrelationConfig(search_window=10**10, coarse_bin=10**5, fine_bin=10**4)
    d = cross_correlate(local, local + 10**9 + 10**6 + spread, cfg)
    assert d.members.sxx == 0 and d.members.slope == 0.0
    result = estimate_two_way(local, local + 10**9 + 10**6 + spread, local, local + 10**9 - 10**6 + spread, cfg)
    assert (result.clock_offset, result.flight_time) == (10**6, 10**9)
    assert result.offset_uncertainty == round(d.peak_width_fs / math.sqrt(9) / math.sqrt(2))
    assert result.frequency.fractional_frequency == 0.0
    assert result.frequency.fractional_frequency_uncertainty == math.inf


def test_two_way_combination_algebra():
    local, remote = _pair_streams(50, offset=10**9 + 10**6)
    d_ab = cross_correlate(local, remote, CFG)
    local2, remote2 = _pair_streams(50, offset=10**9 - 10**6)
    d_ba = cross_correlate(local2, remote2, CFG)
    result = two_way_offset(d_ab, d_ba, (int(local[0]), int(local[-1])), 1)
    assert result.clock_offset == 10**6
    assert result.flight_time == 10**9
    assert result.epoch_fs == (int(local[0]) + int(local[-1])) // 2
    assert result.forward is d_ab and result.backward is d_ba


def test_two_way_halving_rounds_toward_zero():
    local, remote = _pair_streams(50, offset=11)
    d_ab = cross_correlate(local, remote, CFG)
    local2, remote2 = _pair_streams(50, offset=16)
    d_ba = cross_correlate(local2, remote2, CFG)
    result = two_way_offset(d_ab, d_ba, (int(local[0]), int(local[-1])), 1)
    assert result.clock_offset == -2  # (11-16)/2 = -2.5 -> -2
    assert result.flight_time == 13  # (11+16)/2 = 13.5 -> 13


def test_negative_flight_time_rejected():
    local, remote = _pair_streams(50, offset=-10**6)
    d = cross_correlate(local, remote, CFG)
    with pytest.raises(UnphysicalFlightTimeError):
        two_way_offset(d, d, (int(local[0]), int(local[-1])), 1)


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
    result = estimate_two_way(*streams, cfg)
    fit = result.frequency
    assert fit == frequency_track(*streams, cfg)
    assert fit.fractional_frequency == pytest.approx(1e-9, abs=1e-11)
    assert abs(fit.fractional_frequency - 1e-9) < 3 * fit.fractional_frequency_uncertainty < 1e-11
    assert fit.offset_at_epoch == pytest.approx(5 * 10**6, abs=100)
    assert len(fit.block_offsets) == 10
    # theta(t) = 5e6 + y*t in A's local time, read at the midpoint of A's tags;
    # the members' mean times lie about 1 us, 1 fs of drift, away from it
    local_a = streams[0]
    assert result.epoch_fs == (int(local_a[0]) + int(local_a[-1])) // 2
    assert abs(result.clock_offset - (5 * 10**6 + 1e-9 * result.epoch_fs)) < 0.5


def test_frequency_track_rejects_negative_flight():
    cfg = CorrelationConfig(
        search_window=10**10, coarse_bin=10**6, fine_bin=10**4, block_count=4
    )
    with pytest.raises(UnphysicalFlightTimeError):
        frequency_track(*_drifting_session(0.0, 2000, 0, 3, flight=-10**9), cfg)


def test_estimate_two_way_fits_frequency_only_with_blocks():
    # the fit is present with or without blocks; block_count changes neither
    # the rate nor the offset, which come from the member lines
    streams = _drifting_session(1e-9, 20000, jitter=0, seed=8)
    cfg = CorrelationConfig(search_window=10**10, coarse_bin=10**6, fine_bin=10**4)
    blocks = CorrelationConfig(search_window=10**10, coarse_bin=10**6, fine_bin=10**4, block_count=10)
    one, ten = estimate_two_way(*streams, cfg), estimate_two_way(*streams, blocks)
    assert one.frequency == frequency_track(*streams, cfg)
    assert ten.frequency == frequency_track(*streams, blocks)
    assert one.clock_offset == ten.clock_offset


def test_frequency_track_needs_two_blocks():
    # a single block is enough: the rate and the offset come from the member
    # lines, and block_count only sets the diagnostic block offsets
    streams = _drifting_session(1e-9, 20000, jitter=0, seed=8)
    fit = frequency_track(*streams, CorrelationConfig(search_window=10**10, coarse_bin=10**6, fine_bin=10**4))
    ten = frequency_track(*streams, CorrelationConfig(search_window=10**10, coarse_bin=10**6, fine_bin=10**4, block_count=10))
    assert len(fit.block_offsets) <= 1
    assert fit.fractional_frequency == ten.fractional_frequency
    assert fit.offset_at_epoch == ten.offset_at_epoch


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
    fit = frequency_track(local_a, remote_ab, local_b, remote_ba, cfg)
    assert len(fit.block_offsets) == 1
    assert fit.fractional_frequency == frequency_track(local_a, remote_ab, local_b, remote_ba, whole).fractional_frequency


def _smallest_smooth_above(n):
    # the search the fold-length table replaced: the smallest 2^i 3^j 5^k above n
    best = 1 << n.bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m <= n:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


def test_fold_length_table_matches_the_search():
    rng = np.random.default_rng(17)
    for n in [*range(1 << 16), *rng.integers(0, estimator._MAX_SUPERBINS + 1, 20000).tolist()]:
        assert estimator._fold_length(n) == _smallest_smooth_above(n), n
    # past the table a length only has to exceed the largest fold
    assert estimator._fold_length(2**40) > estimator._MAX_SUPERBINS


# The bounded peak search. Module constants shrink the superbins, the visit
# budget and the size rule, so that small inputs run every branch; each case
# is checked against the brute-force histogram's first argmax and count, and
# cross_correlate must return the same result on both routes.


def _force_bounded(monkeypatch, superbin_bins=4, budget=64):
    # the probe is off: every window is searched at the floor level alone
    monkeypatch.setattr(estimator, "_PROBE_SUPERBINS", estimator._MAX_SUPERBINS)
    monkeypatch.setattr(estimator, "_SUPERBIN_BINS", superbin_bins)
    monkeypatch.setattr(estimator, "_VISIT_BUDGET", budget)
    monkeypatch.setattr(estimator, "_MIN_BOUND_PAIRS", 1)
    monkeypatch.setattr(estimator, "_PAIRS_PER_BOUND", 0)


def _bounded(local, remote, cfg):
    found = estimator._bounded_peak(local, remote, cfg)
    if found is not None:
        assert found[2] == len(_brute_diffs(local, remote, cfg.search_window))
        return found[:2]


def _brute_peak(local, remote, cfg):
    bins, counts, _ = _brute_histogram(local, remote, cfg)
    i = int(np.argmax(counts))
    return int(bins[i]), int(counts[i])


def _outcome(local, remote, cfg):
    try:
        result = cross_correlate(local, remote, cfg)
    except NoPeakError as err:
        return "no peak", err.significance
    return result, result.members.local_times.tolist(), result.members.diffs.tolist()


def _assert_routes_agree(monkeypatch, local, remote, cfg, bounded=True):
    """The bounded search finds the brute-force peak (or falls back) and both routes agree."""
    peak = _bounded(local, remote, cfg)
    if bounded:
        assert peak == _brute_peak(local, remote, cfg)
    else:
        assert peak is None
    routed = _outcome(local, remote, cfg)
    with monkeypatch.context() as m:
        m.setattr(estimator, "_MAX_SUPERBINS", 0)  # every window enumerated
        assert _bounded(local, remote, cfg) is None
        assert _outcome(local, remote, cfg) == routed
    return peak


def _peaked_streams(rng, n_peak, offset, n_background, span, jitter=0):
    # n_peak remote tags at offset (+- jitter) from local tags, plus uniform
    # background tags on both sides
    local = rng.integers(0, span, n_peak + n_background)
    remote = np.concatenate((local[:n_peak] + offset, rng.integers(0, span, n_background)))
    if jitter:
        remote[:n_peak] += rng.integers(-jitter, jitter + 1, n_peak)
    return np.sort(local).astype(np.int64), np.sort(remote).astype(np.int64)


def _anchored(local, remote, origin):
    # a tag pair far below both streams sets the binning origin; its other
    # pairs lie far outside the window
    anchor = int(min(local.min(), remote.min())) - 10**10
    return np.concatenate(([anchor], local)).astype(np.int64), np.sort(np.append(remote, anchor + origin))


@pytest.mark.parametrize("span", [5 * 10**7, 4 * 10**8])
def test_bounded_search_matches_brute_force(monkeypatch, span):
    # within a 5e7 fs span every tag pair lies inside the window and the
    # fold holds each difference once; over 4e8 fs the fold also aliases
    # out-of-window pairs onto the window's superbins
    rng = np.random.default_rng(41)
    cfg = CorrelationConfig(search_window=10**8, coarse_bin=10**5, fine_bin=100, significance_sigma=3.0)
    routes = []
    for trial in range(30):
        superbin_bins, budget = int(rng.choice([1, 2, 4, 16])), int(rng.choice([1, 3, 64]))
        _force_bounded(monkeypatch, superbin_bins, budget)
        offset = int(rng.integers(-cfg.search_window // 2, cfg.search_window // 2))
        n_peak, n_background = int(rng.integers(20, 80)), int(rng.integers(0, 60))
        local, remote = _peaked_streams(rng, n_peak, offset, n_background, span, jitter=10**5)
        peak = _bounded(local, remote, cfg)
        routes.append(peak is not None)
        _assert_routes_agree(monkeypatch, local, remote, cfg, bounded=peak is not None)
    assert 5 <= sum(routes) <= 25


def test_routes_and_pair_searches_with_shipped_constants(monkeypatch):
    # A dense window with under one pair per tag and a window of few pairs
    # are enumerated, searching the window once; the peak span's pairs come
    # from that enumeration. A sparse window as long as the session takes
    # the bounded search, and enumerating it instead gives the same result.
    searches = []
    pair_runs = estimator._pair_runs
    monkeypatch.setattr(estimator, "_pair_runs", lambda *args: searches.append(args[2:]) or pair_runs(*args))
    dense = _pair_streams(20000, offset=5 * 10**6, spacing=10**9, jitter=1000, seed=2)
    few = _pair_streams(100, offset=5 * 10**6, spacing=10**8, seed=3)
    for local, remote in (dense, few):
        cross_correlate(local, remote, CorrelationConfig(search_window=2 * 10**8, fine_bin=10**5))
        assert len(searches) == 1
        searches.clear()

    cfg = CorrelationConfig(search_window=2 * 10**12, fine_bin=2 * 10**5)
    local, remote = _peaked_streams(np.random.default_rng(6), 500, 3 * 10**11, 500, 2 * 10**12, jitter=10**5)
    bounded = cross_correlate(local, remote, cfg)
    assert len(searches) > 2
    searches.clear()
    monkeypatch.setattr(estimator, "_MAX_SUPERBINS", 0)
    assert cross_correlate(local, remote, cfg) == bounded
    assert len(searches) == 1


def _span_search(local, remote, cfg, peak_bin):
    # the peak span's pairs as a second binary search over the span finds
    # them: local times and differences from the span's first difference
    span_lo = int(remote[0]) - int(local[0]) + (peak_bin - cfg.refine_span_bins) * cfg.coarse_bin
    span_hi = span_lo + (2 * cfg.refine_span_bins + 1) * cfg.coarse_bin
    window = cfg.search_window
    runs = estimator._pair_runs(local, remote, max(-window, span_lo), min(window + 1, span_hi))
    shifted = estimator._pair_diffs(local, remote, runs, 0, int(runs.ends[-1]), span_lo)
    return np.repeat(local, runs.counts), shifted


def _fit_inputs_and_searches(monkeypatch, local, remote, cfg):
    """cross_correlate's outcome, the pairs its member fit was given, and its pair searches."""
    fits, searches = [], []
    member_line, pair_runs = estimator._member_line, estimator._pair_runs
    with monkeypatch.context() as m:
        m.setattr(estimator, "_member_line", lambda x, d, *rest: fits.append((x, d)) or member_line(x, d, *rest))
        m.setattr(estimator, "_pair_runs", lambda *args: searches.append(args[2:]) or pair_runs(*args))
        outcome = _outcome(local, remote, cfg)
    return outcome, fits, len(searches)


def _assert_span_from_enumeration(monkeypatch, local, remote, cfg):
    """The enumeration route takes the span's pairs from the window's and matches the span search."""
    hist = coarse_histogram(local, remote, cfg)
    assert hist.offsets is not None and estimator._bounded_peak(local, remote, cfg) is None
    bin_lo = estimator._window_bin_range(hist.origin, cfg)[0]
    assert np.array_equal(np.sort(hist.offsets).astype(np.int64) + bin_lo, np.repeat(hist.bins, hist.counts))
    outcome, fits, searches = _fit_inputs_and_searches(monkeypatch, local, remote, cfg)
    assert searches == 1
    times, shifted = _span_search(local, remote, cfg, int(hist.bins[np.argmax(hist.counts)]))
    (x, d), *_ = fits
    assert np.array_equal(x, (times - local[0]).astype(np.float64))
    assert np.array_equal(d, shifted.astype(np.float64))
    # without offsets the span is searched: the one search left, as the window's comes precomputed
    dropped = hist._replace(offsets=None)
    with monkeypatch.context() as m:
        m.setattr(estimator, "coarse_histogram", lambda *args: dropped)
        assert _fit_inputs_and_searches(m, local, remote, cfg)[::2] == (outcome, 1)
    return outcome


def _edge_peaked_streams(offset, window, seed):
    # 200 pairs at offset, background, and pairs just past both window edges
    rng = np.random.default_rng(seed)
    local, remote = _peaked_streams(rng, 200, offset, 200, 10**10, jitter=3 * 10**4)
    outside = np.concatenate((local[:40] - window - 1, local[40:80] + window + 1, local[80:120] - window - 5000))
    return local, np.sort(np.concatenate((remote, outside)))


@pytest.mark.parametrize("edge", [-1, 1])
@pytest.mark.parametrize("inset", [0, 1, 3])
def test_span_from_enumeration_at_window_edges(monkeypatch, edge, inset):
    # peaks in the window's first and last refine_span_bins bins clip the span at +-W
    cfg = CorrelationConfig(search_window=10**8, coarse_bin=10**5, fine_bin=100)
    offset = edge * (cfg.search_window - inset * cfg.coarse_bin - 4 * 10**4)
    local, remote = _edge_peaked_streams(offset, cfg.search_window, seed=20 + inset)
    result, _, _ = _assert_span_from_enumeration(monkeypatch, local, remote, cfg)
    assert abs(result.peak_offset - offset) < 10**4
    assert np.abs(result.members.diffs).max() <= cfg.search_window


def test_span_from_enumeration_beyond_uint32_bin_range(monkeypatch):
    # 1 fs bins over +-3e9 fs: 64-bit offsets, the peak's more than 2**32 above the first bin
    cfg = CorrelationConfig(search_window=3 * 10**9, coarse_bin=1, fine_bin=1, significance_sigma=3.0)
    rng = np.random.default_rng(33)
    local = np.sort(rng.integers(0, 10**12, 300)).astype(np.int64)
    remote = np.sort(np.concatenate((local + 2 * 10**9 + rng.integers(0, 2, 300), local[::3] - 10**9)))
    assert coarse_histogram(local, remote, cfg).offsets.dtype == np.uint64
    result, _, _ = _assert_span_from_enumeration(monkeypatch, local, remote, cfg)
    assert abs(result.peak_offset - 2 * 10**9) <= 1


def test_span_from_enumeration_common_shift(monkeypatch):
    cfg = CorrelationConfig(search_window=10**8, coarse_bin=10**5, fine_bin=100)
    local, remote = _edge_peaked_streams(3 * 10**7, cfg.search_window, seed=30)
    result, times, diffs = _assert_span_from_enumeration(monkeypatch, local, remote, cfg)
    shifted = _assert_span_from_enumeration(monkeypatch, local + 2**40, remote + 2**40, cfg)
    assert shifted[0] == result
    assert shifted[1] == [t + 2**40 for t in times] and shifted[2] == diffs


def test_span_search_when_window_takes_several_chunks(monkeypatch):
    # offsets of a multi-chunk window are not kept, so the span is searched again
    cfg = CorrelationConfig(search_window=10**8, coarse_bin=10**5, fine_bin=100)
    local, remote = _edge_peaked_streams(-5 * 10**7, cfg.search_window, seed=31)
    single = _assert_span_from_enumeration(monkeypatch, local, remote, cfg)
    monkeypatch.setattr(estimator, "_CHUNK_PAIRS", 300)
    monkeypatch.setattr(estimator, "_BLOCK_PAIRS", 64)
    assert coarse_histogram(local, remote, cfg).offsets is None
    outcome, _, searches = _fit_inputs_and_searches(monkeypatch, local, remote, cfg)
    assert outcome == single and searches == 2


def _visit_order(monkeypatch):
    visited = []
    counts = estimator._superbin_counts

    def record(local_ts, remote_ts, origin, superbin, *rest):
        visited.append(superbin)
        return counts(local_ts, remote_ts, origin, superbin, *rest)

    monkeypatch.setattr(estimator, "_superbin_counts", record)
    return visited


@pytest.mark.parametrize("seed", [0, 3, 4])
def test_bounded_search_tie_goes_to_smaller_offset(monkeypatch, seed):
    # the same tags shifted by -40 us and by +40 us give two identical
    # patterns 8000 coarse bins apart, so their peaks tie. Three pairs of a
    # far tag raise the upper peak's superbin bound, and with these seeds it
    # is visited first; the lower bin must still win, and a one-superbin
    # budget falls back.
    cfg = CorrelationConfig(search_window=10**8, coarse_bin=10**4, fine_bin=100, significance_sigma=3.0)
    rng = np.random.default_rng(seed)
    tags = np.sort(rng.integers(0, 2 * 10**7, 40)).astype(np.int64)
    far = 10**10
    local = np.append(tags, far)
    beside = far + 4 * 10**7 + 10**4 * np.arange(1, 4)
    remote = np.sort(np.concatenate((tags - 4 * 10**7, tags + 4 * 10**7, beside)))
    _force_bounded(monkeypatch)
    visited = _visit_order(monkeypatch)
    peak_bin, count = _assert_routes_agree(monkeypatch, local, remote, cfg)
    bins, counts, origin = _brute_histogram(local, remote, cfg)
    assert origin == -4 * 10**7 and counts[bins == 0] == counts[bins == 8000] == count
    assert peak_bin == 0 and visited[0] == 2000 and 0 in visited  # superbin 2000 holds bin 8000
    assert cross_correlate(local, remote, cfg).peak_offset < 0
    _force_bounded(monkeypatch, budget=1)
    _assert_routes_agree(monkeypatch, local, remote, cfg, bounded=False)


def test_bounded_search_continues_on_equal_bound(monkeypatch):
    # one-bin superbins over lattice tags: no pair splits across folded
    # superbins, so the bound of the -40 us peak equals its count exactly.
    # One extra tag's pair beside the +40 us peak makes that peak the first
    # visit; the -40 us peak's bound then only equals the best count, and
    # it must still be visited to win the tie.
    cfg = CorrelationConfig(search_window=10**8, coarse_bin=10**4, fine_bin=100, significance_sigma=3.0)
    _force_bounded(monkeypatch, superbin_bins=1)
    tags = np.arange(40, dtype=np.int64) * 10 * cfg.coarse_bin
    remote = np.sort(np.concatenate((tags - 4 * 10**7, tags + 4 * 10**7, [4 * 10**7 + cfg.coarse_bin])))
    visited = _visit_order(monkeypatch)
    assert _assert_routes_agree(monkeypatch, tags, remote, cfg) == (0, 40)
    assert visited[0] == 8000


def test_bounded_search_pair_budget_falls_back(monkeypatch):
    # a window whose peak holds all its pairs: visiting it would enumerate
    # more than an eighth of them, so the window is enumerated instead
    cfg = CorrelationConfig(search_window=10**8, coarse_bin=10**5, fine_bin=100)
    local = np.arange(1, 41, dtype=np.int64) * 10**9
    _force_bounded(monkeypatch)
    _assert_routes_agree(monkeypatch, local, local + 12345, cfg, bounded=False)


@pytest.mark.parametrize("below,above", [(30, 30), (29, 30), (30, 29)])
def test_bounded_search_peak_straddling_superbin_edge(monkeypatch, below, above):
    # the peak's pairs sit in coarse bin 39, the last of superbin 9, and in
    # bin 40, the first of superbin 10; with the accidental pairs counted,
    # the brute-force histogram decides which wins
    cfg = CorrelationConfig(search_window=10**8, coarse_bin=10**4, fine_bin=100, significance_sigma=3.0)
    _force_bounded(monkeypatch, superbin_bins=4)
    rng = np.random.default_rng(below * 100 + above)
    origin = 12345
    edge = origin + 40 * cfg.coarse_bin
    tags = np.sort(rng.integers(0, 2 * 10**7, below + above)).astype(np.int64)
    remote = tags + np.repeat([edge - 1, edge], [below, above])
    local, remote = _anchored(tags, np.sort(remote), origin)
    peak_bin, count = _assert_routes_agree(monkeypatch, local, remote, cfg)
    assert peak_bin in (39, 40) and count >= max(below, above)


def test_bounded_search_superbins_clipped_at_window(monkeypatch):
    # the superbins holding -W and +W reach past the window, and pairs just
    # outside it share the edge coarse bins: those pairs must not count
    window = 10**8
    cfg = CorrelationConfig(search_window=window, coarse_bin=10**4, fine_bin=100, significance_sigma=3.0)
    _force_bounded(monkeypatch, superbin_bins=4)
    rng = np.random.default_rng(47)
    tags = np.sort(rng.integers(0, 2 * 10**7, 60)).astype(np.int64)
    diffs = np.repeat([window, window + 1, -window, -window - 1], [10, 12, 14, 16])
    origin = 12345  # bins of -W - 1 and -W, and of W and W + 1, coincide
    local, remote = _anchored(tags, np.sort(tags[:52] + diffs), origin)
    bins, counts, _ = _brute_histogram(local, remote, cfg)
    edge_bins = [(d - origin) // cfg.coarse_bin for d in (-window, window)]
    assert edge_bins == [(d - origin) // cfg.coarse_bin for d in (-window - 1, window + 1)]
    peak_bin, count = _assert_routes_agree(monkeypatch, local, remote, cfg)
    assert peak_bin == edge_bins[0] and count < 14 + 16
    assert int(counts[bins == edge_bins[1]][0]) < 10 + 12


def test_bounded_search_common_shift(monkeypatch):
    # shifting both streams by 2**40 fs relabels nothing: same peak, same result
    cfg = CorrelationConfig(search_window=10**8, coarse_bin=10**4, fine_bin=100)
    _force_bounded(monkeypatch)
    local, remote = _peaked_streams(np.random.default_rng(43), 60, 4 * 10**7 + 777, 40, 5 * 10**7, 10**4)
    peak = _assert_routes_agree(monkeypatch, local, remote, cfg)
    assert _assert_routes_agree(monkeypatch, local + 2**40, remote + 2**40, cfg) == peak
    assert cross_correlate(local + 2**40, remote + 2**40, cfg) == cross_correlate(local, remote, cfg)


# The coarse-to-fine search. With floor superbins of 2 coarse bins and a
# probe fold of at most 256 or 2048 superbins, 100-tag streams end the
# search at every level: at the probe's width, at a coarser width than the
# floor, at the floor, or in enumeration.


def _fold_widths(monkeypatch):
    widths = []
    bounds = estimator._superbin_bounds
    monkeypatch.setattr(estimator, "_superbin_bounds", lambda *args: widths.append(args[4]) or bounds(*args))
    return widths


def _search_end(widths, found):
    if found is None:
        return "enumeration"
    if widths[-1] == estimator._SUPERBIN_BINS:
        return "floor"
    return "probe" if len(widths) == 1 else "coarser"


def test_coarse_to_fine_search_matches_brute_force(monkeypatch):
    # the 4e8 fs streams reach past the window, so folds of 5-smooth
    # lengths alias out-of-window pairs onto its superbins
    rng = np.random.default_rng(1)
    cfg = CorrelationConfig(search_window=10**8, coarse_bin=10**3, fine_bin=10, significance_sigma=3.0)
    widths, ends = _fold_widths(monkeypatch), []
    for trial in range(40):
        probe_superbins, budget = int(rng.choice([256, 2048])), int(rng.choice([2, 64, 64]))
        n_peak, span = int(rng.choice([4, 20, 50, 60])), int(rng.choice([10**8, 4 * 10**8]))
        offset = int(rng.integers(-cfg.search_window // 2, cfg.search_window // 2))
        local, remote = _peaked_streams(rng, n_peak, offset, 100 - n_peak, span, jitter=300)
        _force_bounded(monkeypatch, superbin_bins=2, budget=budget)
        floor_alone = _bounded(local, remote, cfg)
        monkeypatch.setattr(estimator, "_PROBE_SUPERBINS", probe_superbins)
        widths.clear()
        peak = _bounded(local, remote, cfg)
        ends.append(_search_end(widths, peak))
        # the probe never gives up where the floor alone succeeds
        assert peak == floor_alone or floor_alone is None
        _assert_routes_agree(monkeypatch, local, remote, cfg, bounded=peak is not None)
    assert all(ends.count(end) >= 4 for end in ("probe", "coarser", "floor", "enumeration")), ends


@pytest.mark.parametrize("seed", [1, 4])
def test_coarse_to_fine_tie_across_levels(monkeypatch, seed):
    # Two identical peaks 80000 coarse bins apart, as in the fixed-resolution
    # tie test; 20 pairs of a far tag beside the upper peak make its superbin
    # the probe's visit. The probe's count ties the lower peak's, which a
    # finer level must still visit, and the lower bin wins. The accidentals
    # crowd around the peaks, so the coarser level runs out of pairs; the
    # floor level, skipping what the coarser visits enumerated, then finishes
    # with the result of the floor alone.
    cfg = CorrelationConfig(search_window=10**8, coarse_bin=10**3, fine_bin=10, significance_sigma=3.0)
    rng = np.random.default_rng(seed)
    tags = np.sort(rng.integers(0, 2 * 10**7, 40)).astype(np.int64)
    far = 10**10
    local = np.append(tags, far)
    beside = far + 4 * 10**7 + 3 * 10**3 * np.arange(1, 21)
    remote = np.sort(np.concatenate((tags - 4 * 10**7, tags + 4 * 10**7, beside)))
    _force_bounded(monkeypatch, superbin_bins=2)
    floor_alone = _bounded(local, remote, cfg)
    monkeypatch.setattr(estimator, "_PROBE_SUPERBINS", 256)
    widths, visited = _fold_widths(monkeypatch), []
    counts = estimator._superbin_counts

    def record(local_ts, remote_ts, origin, superbin, bins, *rest):
        found = counts(local_ts, remote_ts, origin, superbin, bins, *rest)
        visited.append((bins, superbin, found))
        return found

    monkeypatch.setattr(estimator, "_superbin_counts", record)
    assert _assert_routes_agree(monkeypatch, local, remote, cfg) == floor_alone == (0, 40)
    assert widths[:3] == [1024, 451, 2]
    probe_bins, probe_superbin, probe_counts = visited[0]
    assert (probe_bins, probe_superbin) == (1024, 78)  # superbin 78 holds bin 80000
    assert probe_counts[80000 - 78 * 1024] == probe_counts.max() == 40
    assert any(bins < probe_bins and superbin * bins <= 0 < (superbin + 1) * bins for bins, superbin, _ in visited)


def test_level_superbin_half_covered_by_a_probe_visit(monkeypatch):
    # Two 40-pair peaks tie at coarse bins 79850 and 80000, and 20 pairs of a
    # far tag make probe superbin 78 (bins 79872 .. 80895) the probe's visit,
    # which finds the upper peak. The level's width, 436, and the probe's,
    # 1024, do not divide each other: level superbin 183 (bins 79788 ..
    # 80223) holds both peaks but that visit covers it only in part, so the
    # level must still visit it for the lower bin to win the tie.
    cfg = CorrelationConfig(search_window=10**8, coarse_bin=10**3, fine_bin=10, significance_sigma=3.0)
    rng = np.random.default_rng(2)
    tags = np.sort(rng.integers(0, 2 * 10**8, 40)).astype(np.int64)
    origin, far = 500, 10**10
    beside = far + origin + cfg.coarse_bin * (80100 + 30 * np.arange(1, 21))
    peaks = [tags + origin + cfg.coarse_bin * peak_bin for peak_bin in (79850, 80000)]
    local, remote = _anchored(np.append(tags, far), np.sort(np.concatenate((*peaks, beside))), origin)
    _force_bounded(monkeypatch, superbin_bins=2)
    monkeypatch.setattr(estimator, "_PROBE_SUPERBINS", 256)
    widths, visited = _fold_widths(monkeypatch), _visit_order(monkeypatch)
    assert _assert_routes_agree(monkeypatch, local, remote, cfg) == (79850, 40)
    assert widths[:2] == [1024, 436] and estimator._SUPERBIN_BINS not in widths
    assert visited[:2] == [78, 183]


def test_sparse_wide_sessions_fold_once_after_the_probe(monkeypatch):
    # paper_100pairs.json over 1-4 ms in its +-2 ms window, both directions:
    # the probe's count lets one fold at a width coarser than the floor
    # finish, so at most one of these 24 correlations folds at the floor
    # (9 did when the level width was a power of two), and each finds the
    # peak of the floor-only search
    config = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "paper_100pairs.json")
    cfg = build_correlation(config["correlation"])
    widths, floor_folds = _fold_widths(monkeypatch), 0
    for k in range(12):
        clocks = {"a": {}, "b": {"initial_offset_fs": (k - 6) * 8 * 10**10}}  # within +-0.5 ms
        spec, model_a, model_b = build_session({**config, "duration_s": 1e-3 + 3e-3 * k / 11, "clocks": clocks})
        clock_a = ClockState(model_a, rng_stream=(k, "clock", "a"))
        clock_b = ClockState(model_b, rng_stream=(k, "clock", "b"))
        streams = run_session(spec, clock_a, clock_b, (k, "session"))
        for pair in ((streams.local_a, streams.remote_ab), (streams.local_b, streams.remote_ba)):
            local, remote = (stream.timestamps for stream in pair)
            widths.clear()
            found = estimator._bounded_peak(local, remote, cfg)
            assert found is not None and widths[0] > estimator._SUPERBIN_BINS == 128
            floor_folds += widths.count(estimator._SUPERBIN_BINS)
            with monkeypatch.context() as m:
                m.setattr(estimator, "_PROBE_SUPERBINS", estimator._MAX_SUPERBINS)  # no probe: the floor alone
                widths.clear()
                assert estimator._bounded_peak(local, remote, cfg) == found
                assert widths == [estimator._SUPERBIN_BINS]
    assert floor_folds <= 1
    # and the last one, 4 ms from B to A, gives the enumeration's result
    bounded = cross_correlate(local, remote, cfg)
    monkeypatch.setattr(estimator, "_MAX_SUPERBINS", 0)
    assert cross_correlate(local, remote, cfg) == bounded


@pytest.mark.parametrize(
    "rate_local,rate_remote,session,window",
    [
        (5e5, 2.75e5, 2 * 10**12, 2 * 10**12),  # sparse, the window as long as the session
        (4e7, 2e7, 5 * 10**10, 5 * 10**10),  # dense, the window as long as the session
        (4e6, 2e6, 2 * 10**13, 2 * 10**8),  # dense, a narrow window
    ],
)
def test_independent_streams_have_no_peak(rate_local, rate_remote, session, window):
    # Poisson streams with no common pairs. With the window as long as the
    # session, accidental pairs are twice as dense at the window's centre as
    # on average, so a background sigma that ignored this spread would pass
    # the dense case's accidental maxima as peaks.
    cfg = CorrelationConfig(search_window=window, coarse_bin=10**6, fine_bin=10**5)
    for seed in range(8):
        rng = np.random.default_rng([seed, 99])
        local, remote = (
            np.sort(rng.integers(0, session, rng.poisson(rate * session / 1e15))).astype(np.int64)
            for rate in (rate_local, rate_remote)
        )
        with pytest.raises(NoPeakError):
            cross_correlate(local, remote, cfg)


@pytest.mark.parametrize("window,spread", [(6 * 10**10, 575.87), (3 * 10**10, 178.37), (10**10, 0.0)])
def test_background_spread_matches_histogram_variance(window, spread):
    # A trapezoid of accidental pairs: the window holds all of it and
    # empty bins around it, cuts its slopes, or sees only its flat top. The
    # variance of the window's counts over all its bins is their Poisson
    # variance, the mean, plus the spread of the expected counts.
    rng = np.random.default_rng(5)
    local = np.sort(rng.integers(0, 5 * 10**10, 2000)).astype(np.int64)
    remote = np.sort(rng.integers(10**10, 4 * 10**10, 1500)).astype(np.int64)
    cfg = CorrelationConfig(search_window=window, coarse_bin=10**6, fine_bin=10**5)
    assert estimator._background_spread(local, remote, cfg) == pytest.approx(spread, abs=0.01)
    counts = coarse_histogram(local, remote, cfg).counts
    n_bins = 2 * window // cfg.coarse_bin + 1
    mean = counts.sum() / n_bins
    excess = float(np.dot(counts, counts)) / n_bins - mean**2 - mean
    assert excess == pytest.approx(spread, rel=0.03, abs=0.3)
