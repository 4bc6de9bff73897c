"""Offset, flight-time, and frequency recovery from timetag streams.

The correlator looks at pairwise differences (remote - local) inside a
search window. Both streams are sorted, so the in-window partners of each
local tag form one run of remote tags, found by binary search: cost scales
with the number of in-window pairs, never len(local)*len(remote).

Each correlation enumerates the window's pairs once. They are made in
cache-sized int64 blocks, reduced to coarse-bin offsets from the window's
first bin, and sorted as 32-bit integers (64-bit only when the window spans
more than 2**32 bins); runs of equal offsets give the sparse coarse
histogram, whose peak bin is the coarse estimate. The fine stage then
enumerates only the peak span's pairs (+-refine_span_bins coarse bins),
each with its local time t, and fits the line d = a + b*(t - t_mean) by
least squares over an iterated member window: seeded with the coarse peak
bin, each pass keeps the pairs within max(3 sigma, fine_bin) of the line,
until the member set stops changing. Every output comes from that one
member set: the offset is the exact integer-rounded mean member difference
(the line at t_mean), the width is the residual sigma, and b the drift.

Binning is anchored at the difference of the two first tags and local
times at the first local tag, not at zero, so shifting one stream or both
by any amount relabels bins but never moves a pair across a bin edge or
changes its residual: the offset shifts by exactly that amount.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .photonics import TagStream
from .timebase import _round_div

__all__ = [
    "CorrelationConfig",
    "CorrelationResult",
    "PeakMembers",
    "TwoWayResult",
    "FrequencyFit",
    "EstimationError",
    "NoPeakError",
    "EmptyOverlapError",
    "InsufficientBlocksError",
    "UnphysicalFlightTimeError",
    "cross_correlate",
    "coarse_histogram",
    "two_way_offset",
    "frequency_track",
    "estimate_two_way",
]

_CHUNK_PAIRS = 1 << 22  # pairs binned per sort: at most 16 MB of 32-bit bin offsets
_BLOCK_PAIRS = 1 << 15  # pairs materialized at once: 256 KB int64 arrays stay in cache
_WINDOW_SIGMAS = 3.0  # member window half-width, in residual sigmas of the member line
_MAX_WINDOW_PASSES = 50  # the member set settles within a few passes; this bounds a cycle


class EstimationError(Exception):
    """Base for recoverable estimation failures."""


class NoPeakError(EstimationError):
    """No histogram bin cleared the significance threshold."""

    def __init__(self, message: str, significance: float = float("nan")):
        super().__init__(message)
        self.significance = significance


class EmptyOverlapError(EstimationError):
    """No pairwise differences fell inside the search window."""


class InsufficientBlocksError(EstimationError):
    """Fewer than two blocks hold peak members in both directions."""


class UnphysicalFlightTimeError(EstimationError):
    """Two-way combination produced a negative flight time (swapped inputs?)."""


@dataclass(frozen=True)
class CorrelationConfig:
    search_window: int = 10**13  # fs, max |candidate offset| (10 ms)
    coarse_bin: int = 10**6  # fs (1 ns)
    fine_bin: int = 1000  # fs (1 ps)
    refine_span_bins: int = 3  # fine stage covers coarse peak +- this many coarse bins
    significance_sigma: float = 6.0
    block_count: int = 1  # for frequency tracking

    def __post_init__(self):
        if not 1 <= self.fine_bin <= self.coarse_bin <= self.search_window:
            raise ValueError("need 1 <= fine_bin <= coarse_bin <= search_window")
        if self.refine_span_bins < 1:
            raise ValueError("refine_span_bins must be >= 1")
        if not self.significance_sigma > 0:
            raise ValueError("significance_sigma must be > 0")
        if self.block_count < 1:
            raise ValueError("block_count must be >= 1")


class PeakMembers(NamedTuple):
    """The peak's member pairs, local-major, and the slope of their line."""

    local_times: np.ndarray  # fs, int64, non-decreasing
    diffs: np.ndarray  # fs, int64, remote - local
    slope: float  # least-squares d(diff)/d(local time) over the members


@dataclass(frozen=True)
class CorrelationResult:
    peak_offset: int  # fs, integer-rounded mean member difference (remote - local)
    peak_counts: int  # counts in the winning coarse bin (the significance test)
    background_mean: float
    background_sigma: float
    significance: float
    peak_width_fs: float  # residual sigma of the members about their line
    histogram_summary: dict = field(default_factory=dict)  # region_total: member count
    members: PeakMembers | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class TwoWayResult:
    clock_offset: int  # fs, theta = (d_AB - d_BA)/2, halving rounded toward zero
    flight_time: int  # fs, T_f = (d_AB + d_BA)/2, same rounding
    offset_uncertainty: int  # fs, 1-sigma
    forward: CorrelationResult  # d_AB
    backward: CorrelationResult  # d_BA
    frequency: FrequencyFit | None = None  # member-line fit, when block_count >= 2


@dataclass(frozen=True)
class FrequencyFit:
    fractional_frequency: float  # half-difference of the two member-line slopes
    offset_at_epoch: int  # fs, theta of the two member lines at A's local time 0
    residual_rms: int  # fs, RMS of the block offsets about that line
    block_offsets: list  # (block midpoint in A's local time fs, two-way theta of its members fs)


def _timestamps(stream) -> np.ndarray:
    ts = stream.timestamps if isinstance(stream, TagStream) else np.asarray(stream)
    return np.ascontiguousarray(ts, dtype=np.int64)


def _halve_toward_zero(value: int) -> int:
    return value // 2 if value >= 0 else -((-value) // 2)


class _PairRuns(NamedTuple):
    """Pairs numbered local-major, remote-ascending.

    Local tag t owns pairs ends[t] - counts[t] .. ends[t] - 1, and pair p of
    it is remote[base[t] + p]; ends[-1] is the number of pairs.
    """

    base: np.ndarray
    counts: np.ndarray
    ends: np.ndarray


def _pair_runs(local: np.ndarray, remote: np.ndarray, lo_off: int, hi_off: int) -> _PairRuns:
    """The pairs whose difference d = remote - local lies in [lo_off, hi_off)."""
    first = np.searchsorted(remote, local + lo_off, side="left")
    counts = np.searchsorted(remote, local + hi_off, side="left") - first
    np.maximum(counts, 0, out=counts)
    ends = np.cumsum(counts)
    return _PairRuns(first - (ends - counts), counts, ends)


def _pair_diffs(
    local: np.ndarray, remote: np.ndarray, runs: _PairRuns, start: int, stop: int, offset: int
) -> np.ndarray:
    """Differences minus offset of pairs start .. stop-1, as a fresh int64 array."""
    base, counts, ends = runs
    i = int(np.searchsorted(ends, start, side="right"))
    j = int(np.searchsorted(ends, stop - 1, side="right")) + 1
    per_tag = np.minimum(ends[i:j], stop) - np.maximum(ends[i:j] - counts[i:j], start)
    idx = np.repeat(base[i:j], per_tag)
    diffs = np.arange(start, stop, dtype=np.int64)
    idx += diffs
    np.take(remote, idx, out=diffs)
    diffs -= np.repeat(local[i:j] + offset, per_tag)
    return diffs


def _window_bin_range(origin: int, cfg: CorrelationConfig) -> tuple[int, int]:
    """First and last coarse bin index the search window can populate."""
    bin_lo = (-cfg.search_window - origin) // cfg.coarse_bin
    bin_hi = (cfg.search_window - origin) // cfg.coarse_bin
    return bin_lo, bin_hi


def coarse_histogram(local, remote, cfg: CorrelationConfig) -> tuple[np.ndarray, np.ndarray, int]:
    """Sparse coarse histogram of in-window differences.

    Returns (occupied bin indices, counts, origin). Bin i covers differences
    d with floor((d - origin)/coarse_bin) == i; origin is remote[0]-local[0].
    Bin indices are ascending int64.
    """
    local_ts, remote_ts = _timestamps(local), _timestamps(remote)
    if len(local_ts) == 0 or len(remote_ts) == 0:
        raise EmptyOverlapError("cannot correlate an empty stream")
    origin = int(remote_ts[0]) - int(local_ts[0])
    bin_lo, bin_hi = _window_bin_range(origin, cfg)
    # Offsets from the window's first bin lie in [0, n_bins), so they sort
    # as 32-bit integers whenever the window allows it.
    offset_dtype = np.uint32 if bin_hi - bin_lo < 2**32 else np.int64
    shift = origin + bin_lo * cfg.coarse_bin
    runs = _pair_runs(local_ts, remote_ts, -cfg.search_window, cfg.search_window + 1)
    total = int(runs.ends[-1])
    if total == 0:
        raise EmptyOverlapError("no pairwise differences inside the search window")
    bins_parts, counts_parts = [], []
    for chunk_start in range(0, total, _CHUNK_PAIRS):
        chunk_stop = min(chunk_start + _CHUNK_PAIRS, total)
        rel = np.empty(chunk_stop - chunk_start, dtype=offset_dtype)
        for start in range(chunk_start, chunk_stop, _BLOCK_PAIRS):
            stop = min(start + _BLOCK_PAIRS, chunk_stop)
            diffs = _pair_diffs(local_ts, remote_ts, runs, start, stop, shift)
            out = rel[start - chunk_start : stop - chunk_start]
            np.floor_divide(diffs, cfg.coarse_bin, out=out, casting="unsafe")
        rel.sort()
        change = np.empty(len(rel) + 1, dtype=bool)
        change[0] = change[-1] = True
        np.not_equal(rel[1:], rel[:-1], out=change[1:-1])
        edges = np.flatnonzero(change)
        counts_parts.append(np.diff(edges))
        bins = edges[:-1]  # reuse the int64 buffer for the run values
        bins[...] = rel[bins]
        bins_parts.append(bins)
    if len(bins_parts) == 1:
        bins, counts = bins_parts[0], counts_parts[0]
    else:
        bins = np.concatenate(bins_parts)
        counts = np.concatenate(counts_parts)
        order = np.argsort(bins)  # counts are summed per bin, so any order will do
        bins, counts = bins[order], counts[order]
        starts = np.flatnonzero(np.concatenate(([True], bins[1:] != bins[:-1])))
        bins, counts = bins[starts], np.add.reduceat(counts, starts)
    bins += bin_lo
    return bins, counts, origin


def _member_line(x: np.ndarray, d: np.ndarray, keep: np.ndarray, floor: int):
    """Iterate the member window from the seed mask keep until it settles.

    Each pass fits the least-squares line d = a + b*(x - x_mean) to the
    members and keeps the pairs within max(3 sigma, floor) of it, sigma
    being the members' RMS residual. Returns the members with the slope and
    sigma of their own line.
    """
    for passes in range(1, _MAX_WINDOW_PASSES + 1):
        xk, dk = x[keep], d[keep]
        x_mean, d_mean = xk.mean(), dk.mean()
        xc = xk - x_mean
        sxx = float(np.dot(xc, xc))
        slope = float(np.dot(xc, dk - d_mean)) / sxx if sxx > 0 else 0.0
        residuals = d - d_mean - slope * (x - x_mean)
        sigma = math.sqrt(float(np.mean(residuals[keep] ** 2)))
        inside = np.abs(residuals) <= max(_WINDOW_SIGMAS * sigma, floor)
        if passes == _MAX_WINDOW_PASSES or np.array_equal(inside, keep):
            return keep, slope, sigma
        keep = inside


def cross_correlate(local, remote, cfg: CorrelationConfig | None = None) -> CorrelationResult:
    """Locate the coincidence peak of (remote - local) differences.

    Raises NoPeakError when the best coarse bin is not significant against
    the off-peak background, and EmptyOverlapError when the window holds no
    pairs at all.
    """
    cfg = cfg or CorrelationConfig()
    local_ts, remote_ts = _timestamps(local), _timestamps(remote)
    bins, counts, origin = coarse_histogram(local_ts, remote_ts, cfg)

    i_max = int(np.argmax(counts))  # first max: ties break toward smallest offset
    peak_bin = int(bins[i_max])
    peak_counts = int(counts[i_max])

    # Background over every coarse bin the window could populate, including
    # empty ones, excluding the peak neighborhood. Its sums are the totals
    # less the excluded slice of the sorted bins, taken as exact integers.
    bin_lo, bin_hi = _window_bin_range(origin, cfg)
    n_bins = bin_hi - bin_lo + 1
    excl_lo = max(peak_bin - cfg.refine_span_bins, bin_lo)
    excl_hi = min(peak_bin + cfg.refine_span_bins, bin_hi)
    n_bg_bins = n_bins - (excl_hi - excl_lo + 1)
    if n_bg_bins <= 0:
        bg_mean, bg_sigma = 0.0, 1.0
    else:
        i, j = np.searchsorted(bins, (excl_lo, excl_hi + 1), side="left")
        excluded = counts[i:j]
        bg_sum = float(int(counts.sum()) - int(excluded.sum()))
        bg_sumsq = float(int(np.dot(counts, counts)) - int(np.dot(excluded, excluded)))
        bg_mean = bg_sum / n_bg_bins
        variance = max(bg_sumsq / n_bg_bins - bg_mean**2, 0.0)
        # Sparse histograms can have a deceptively small sample variance;
        # floor at the Poisson value and at one count so that isolated
        # accidental coincidences never register as significant.
        bg_sigma = max(math.sqrt(variance), math.sqrt(bg_mean), 1.0)
    significance = (peak_counts - bg_mean) / bg_sigma
    if significance < cfg.significance_sigma:
        raise NoPeakError(
            f"best bin significance {significance:.2f} below "
            f"threshold {cfg.significance_sigma}",
            significance=significance,
        )

    # The peak span's pairs, each with its local time, in the window's order.
    span_lo = origin + (peak_bin - cfg.refine_span_bins) * cfg.coarse_bin
    span = (2 * cfg.refine_span_bins + 1) * cfg.coarse_bin
    window = cfg.search_window
    runs = _pair_runs(local_ts, remote_ts, max(-window, span_lo), min(window + 1, span_lo + span))
    shifted = _pair_diffs(local_ts, remote_ts, runs, 0, int(runs.ends[-1]), span_lo)
    times = np.repeat(local_ts, runs.counts)
    seed = shifted // cfg.coarse_bin == cfg.refine_span_bins  # the coarse peak bin's pairs
    x = (times - local_ts[0]).astype(np.float64)
    keep, slope, sigma = _member_line(x, shifted.astype(np.float64), seed, cfg.fine_bin)
    diffs = shifted[keep]
    peak_offset = span_lo + _round_div(int(diffs.sum()), len(diffs))
    diffs += span_lo
    return CorrelationResult(
        peak_offset=peak_offset,
        peak_counts=peak_counts,
        background_mean=bg_mean,
        background_sigma=bg_sigma,
        significance=significance,
        peak_width_fs=sigma,
        histogram_summary={
            "coarse_bin_fs": cfg.coarse_bin,
            "fine_bin_fs": cfg.fine_bin,
            "span_fs": span,
            "region_total": len(diffs),
        },
        members=PeakMembers(times[keep], diffs, slope),
    )


def two_way_offset(d_ab: CorrelationResult, d_ba: CorrelationResult) -> TwoWayResult:
    """Combine the two one-way peaks into clock offset and flight time.

    theta = (d_AB - d_BA)/2 and T_f = (d_AB + d_BA)/2; both halvings round
    toward zero so the algebra is exactly invertible up to that documented
    rounding. The 1-sigma uncertainty combines each direction's residual
    sigma over the square root of its member count.
    """
    theta = _halve_toward_zero(d_ab.peak_offset - d_ba.peak_offset)
    flight = _halve_toward_zero(d_ab.peak_offset + d_ba.peak_offset)
    if flight < 0:
        raise UnphysicalFlightTimeError(
            f"flight time {flight} fs is negative; are the directions swapped?"
        )
    u_ab = d_ab.peak_width_fs / math.sqrt(d_ab.histogram_summary["region_total"])
    u_ba = d_ba.peak_width_fs / math.sqrt(d_ba.histogram_summary["region_total"])
    uncertainty = int(round(0.5 * math.hypot(u_ab, u_ba)))
    return TwoWayResult(
        clock_offset=theta,
        flight_time=flight,
        offset_uncertainty=uncertainty,
        forward=d_ab,
        backward=d_ba,
    )


def estimate_two_way(
    local_a, remote_ab, local_b, remote_ba, cfg: CorrelationConfig | None = None
) -> TwoWayResult:
    """Two-way offset and flight time from a session's four streams.

    Each direction is correlated once over the whole window. With
    cfg.block_count >= 2 the result also carries a frequency fit from the
    two directions' member lines, with per-block two-way offsets of the
    same members; no further correlation runs.
    """
    cfg = cfg or CorrelationConfig()
    la, rb = _timestamps(local_a), _timestamps(remote_ab)
    lb, ra = _timestamps(local_b), _timestamps(remote_ba)
    result = two_way_offset(cross_correlate(la, rb, cfg), cross_correlate(lb, ra, cfg))
    if cfg.block_count < 2:
        return result
    fit = _fit_frequency(result, int(la[0]), int(la[-1]) + 1, cfg.block_count)
    return replace(result, frequency=fit)


def frequency_track(local_a, remote_ab, local_b, remote_ba, cfg: CorrelationConfig) -> FrequencyFit:
    """Fractional frequency and offset at epoch: estimate_two_way's member-line fit."""
    if cfg.block_count < 2:
        raise ValueError("frequency tracking needs block_count >= 2")
    return estimate_two_way(local_a, remote_ab, local_b, remote_ba, cfg).frequency


def _block_means(result: CorrelationResult, edges: list[int]) -> list[int | None]:
    """Integer-rounded mean member difference per block [edges[k], edges[k+1]); None if empty."""
    members = result.members
    cuts = np.searchsorted(members.local_times, np.array(edges, dtype=np.int64))
    # sums of differences from the peak offset stay small, so they are exact
    sums = np.concatenate(([0], np.cumsum(members.diffs - result.peak_offset)))[cuts].tolist()
    cuts = cuts.tolist()
    return [
        result.peak_offset + _round_div(s1 - s0, n1 - n0) if n1 > n0 else None
        for n0, n1, s0, s1 in zip(cuts, cuts[1:], sums, sums[1:])
    ]


def _fit_frequency(two_way: TwoWayResult, t0: int, t1: int, block_count: int) -> FrequencyFit:
    """Frequency fit from the two directions' member lines d = peak_offset + slope*(t - t_mean).

    theta(t) is the half-difference of A's line at A's local time t and B's
    at B's local time t + theta (the whole-window offset). Clock A's span
    [t0, t1) is cut into block_count equal blocks, B's at the same blocks
    shifted by theta; each block with members in both directions gives the
    two-way offset of its members.
    """
    fwd, bwd, theta = two_way.forward, two_way.backward, two_way.clock_offset
    edges = [t0 + round(k * (t1 - t0) / block_count) for k in range(block_count + 1)]
    means = zip(_block_means(fwd, edges), _block_means(bwd, [e + theta for e in edges]))
    block_offsets = [
        ((e0 + e1) // 2, _halve_toward_zero(m_ab - m_ba))
        for e0, e1, (m_ab, m_ba) in zip(edges, edges[1:], means)
        if m_ab is not None and m_ba is not None
    ]
    if len(block_offsets) < 2:
        raise InsufficientBlocksError(
            f"only {len(block_offsets)} of {block_count} blocks hold peak members in both directions"
        )

    ab, ba = fwd.members, bwd.members  # mean local times from t0 (A) and t0 + theta (B)
    t_ab = float(np.mean(ab.local_times - t0))
    t_ba = float(np.mean(ba.local_times - (t0 + theta)))
    rate = (ab.slope - ba.slope) / 2
    theta_t0 = (fwd.peak_offset - ab.slope * t_ab - bwd.peak_offset + ba.slope * t_ba) / 2
    residuals = [offset - theta_t0 - rate * (mid - t0) for mid, offset in block_offsets]
    return FrequencyFit(
        fractional_frequency=rate,
        offset_at_epoch=round(theta_t0 - rate * t0),
        residual_rms=round(math.sqrt(sum(r * r for r in residuals) / len(residuals))),
        block_offsets=block_offsets,
    )
