"""Offset, flight-time, and frequency recovery from timetag streams.

The correlator looks at pairwise differences (remote - local) inside a
search window. Both streams are sorted, so the in-window partners of each
local tag form one run of remote tags, found by binary search: cost scales
with the number of in-window pairs, never len(local)*len(remote). The
enumeration route below searches the window once per correlation.

The coarse estimate is the first coarse bin holding the most pairs, found
exactly by one of two routes that give the same bin and count:
- A bounded search, for windows with many pairs per tag. Both streams are
  folded onto N superbins of _SUPERBIN_BINS coarse bins, and one FFT gives
  an upper bound on each superbin's pairs. Superbins are enumerated in
  descending bound order until the bound falls below the best count, so a
  sparse window as long as the session enumerates one or two superbins.
- The enumeration of every window pair, when the window holds too few
  pairs to repay the FFTs, when N would be large, or when the bounds are
  too loose for the visit budget. The pairs are made in cache-sized int64
  blocks, reduced to coarse-bin offsets from the window's first bin, and
  sorted as 32-bit integers (64-bit only when the window spans more than
  2**32 bins); runs of equal offsets give the sparse coarse histogram
  (coarse_histogram).

The background is every window bin, empty ones included, except the
peak's +-refine_span_bins coarse bins (the peak span). Its mean is the
window's pairs outside the span over those bins. Its sigma is
sqrt(mean + spread), floored at one count, where spread is the variance
across the window of the accidental counts that constant tag rates would
give; a window as long as the session makes it large. The significance is
(peak count - mean) / sigma.

The fine stage then takes only the peak span's pairs, each with its local
time t. The enumeration route picks them out of the window's pairs by their
coarse-bin offsets, kept when the window fits one sort, and rebuilds their
exact differences from the window's runs; the bounded route, and a window
of several sorts, search the span instead. The fine stage fits the line
d = a + b*(t - t_mean) by least squares over an iterated member window:
seeded with the coarse peak bin, each pass keeps the pairs within
max(3 sigma, fine_bin) of the line, until the member set stops changing.
Every output comes from that one member set: the offset is the exact
integer-rounded mean member difference (the line at t_mean), the width is
the residual sigma, and b the drift.

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
from .timebase import INT64_LIMIT, _round_div

__all__ = [
    "CoarseHistogram",
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

_CHUNK_PAIRS = 1 << 22  # pairs per sort: 16 MB of 32-bit bin offsets, 32 MB when one sort keeps them
_BLOCK_PAIRS = 1 << 15  # pairs materialized at once: 256 KB int64 arrays stay in cache
_WINDOW_SIGMAS = 3.0  # member window half-width, in residual sigmas of the member line
_MAX_WINDOW_PASSES = 50  # the member set settles within a few passes; this bounds a cycle
_SUPERBIN_BINS = 128  # coarse bins per superbin of the bounded peak search
_MAX_SUPERBINS = 1 << 20  # larger folds cost more in FFTs than they save
_VISIT_BUDGET = 64  # most superbins the bounded search enumerates
# The bounded search costs about as much as enumerating _PAIRS_PER_BOUND
# pairs per fold bin and per tag, plus a fixed cost that only windows of at
# least _MIN_BOUND_PAIRS pairs repay.
_PAIRS_PER_BOUND = 2
_MIN_BOUND_PAIRS = 1 << 16


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


class CoarseHistogram(NamedTuple):
    """Sparse coarse histogram of a window's pairs, with the pairs themselves.

    Bin i covers differences d with floor((d - origin)/coarse_bin) == i;
    origin is remote[0] - local[0]. offsets holds each window pair's bin
    minus the window's first bin, numbered as in runs, or None when the
    window took more than one _CHUNK_PAIRS chunk and they were not kept.
    """

    bins: np.ndarray  # occupied bin indices, ascending int64
    counts: np.ndarray  # pairs per occupied bin
    origin: int
    offsets: np.ndarray | None
    runs: _PairRuns


def coarse_histogram(local, remote, cfg: CorrelationConfig) -> CoarseHistogram:
    """Sparse coarse histogram of in-window differences (see CoarseHistogram)."""
    local_ts, remote_ts = _timestamps(local), _timestamps(remote)
    if len(local_ts) == 0 or len(remote_ts) == 0:
        raise EmptyOverlapError("cannot correlate an empty stream")
    origin = int(remote_ts[0]) - int(local_ts[0])
    bin_lo, bin_hi = _window_bin_range(origin, cfg)
    # Offsets from the window's first bin lie in [0, n_bins), so they sort
    # as 32-bit integers whenever the window allows it.
    offset_dtype = np.uint32 if bin_hi - bin_lo < 2**32 else np.uint64
    shift = origin + bin_lo * cfg.coarse_bin
    runs = _pair_runs(local_ts, remote_ts, -cfg.search_window, cfg.search_window + 1)
    total = int(runs.ends[-1])
    if total == 0:
        raise EmptyOverlapError("no pairwise differences inside the search window")
    bins_parts, counts_parts, offsets = [], [], None
    for chunk_start in range(0, total, _CHUNK_PAIRS):
        chunk_stop = min(chunk_start + _CHUNK_PAIRS, total)
        rel = np.empty(chunk_stop - chunk_start, dtype=offset_dtype)
        for start in range(chunk_start, chunk_stop, _BLOCK_PAIRS):
            stop = min(start + _BLOCK_PAIRS, chunk_stop)
            diffs = _pair_diffs(local_ts, remote_ts, runs, start, stop, shift)
            out = rel[start - chunk_start : stop - chunk_start]
            np.floor_divide(diffs, cfg.coarse_bin, out=out, casting="unsafe")
        if total <= _CHUNK_PAIRS:  # one chunk: keep the offsets in pair order for the peak span
            offsets, rel = rel, np.sort(rel)
        else:
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
    return CoarseHistogram(bins, counts, origin, offsets, runs)


def _superbin_counts(
    local_ts: np.ndarray, remote_ts: np.ndarray, origin: int, superbin: int, cfg: CorrelationConfig
) -> np.ndarray:
    """Exact counts of the _SUPERBIN_BINS coarse bins of one superbin, clipped to the window."""
    width = _SUPERBIN_BINS * cfg.coarse_bin
    lo = origin + superbin * width  # the superbin's first difference
    start, stop = max(-cfg.search_window, lo), min(cfg.search_window + 1, lo + width)
    runs = _pair_runs(local_ts, remote_ts, start, stop)
    diffs = _pair_diffs(local_ts, remote_ts, runs, 0, int(runs.ends[-1]), start)
    diffs += start - lo
    return np.bincount(diffs // cfg.coarse_bin, minlength=_SUPERBIN_BINS)


def _bounded_peak(
    local_ts: np.ndarray, remote_ts: np.ndarray, cfg: CorrelationConfig
) -> tuple[int, int, int] | None:
    """The first coarse bin with the most window pairs, its count, and the window's pairs.

    A branch and bound over superbins. Superbin j groups coarse bins j*M ..
    j*M + M - 1 (M = _SUPERBIN_BINS), so a pair's superbin is
    floor((d - origin) / S) with S = M*coarse_bin. Folding each stream by
    floor((t - t[0]) / S) mod N, one cyclic cross-correlation by FFT counts
    the tag pairs c[k] whose folded superbins differ by k. A pair of
    superbin j differs by j or j + 1, so superbin j holds at most
    c[j] + c[j+1] pairs; aliased pairs only add to that bound. Superbins are
    enumerated exactly in descending bound order until the bound falls
    below the best count (a tie is still visited, so the smallest bin wins
    it). Returns None, and the caller enumerates the whole window instead,
    when N would exceed _MAX_SUPERBINS, when the window's pairs cannot repay
    the FFTs, or when the visits would exceed _VISIT_BUDGET superbins or an
    eighth of the window's pairs.
    """
    if len(local_ts) == 0 or len(remote_ts) == 0:
        return None
    origin = int(remote_ts[0]) - int(local_ts[0])
    width = _SUPERBIN_BINS * cfg.coarse_bin
    # superbins of the differences the streams can form inside the window
    d_lo = max(-cfg.search_window, int(remote_ts[0]) - int(local_ts[-1]))
    d_hi = min(cfg.search_window, int(remote_ts[-1]) - int(local_ts[0]))
    sb_lo, sb_hi = (d_lo - origin) // width, (d_hi - origin) // width
    n_superbins = sb_hi - sb_lo + 1
    n = 1 << n_superbins.bit_length()  # > n_superbins, so no window superbin aliases another
    spans = int(local_ts[-1]) - int(local_ts[0]), int(remote_ts[-1]) - int(remote_ts[0])
    if n > _MAX_SUPERBINS or width > cfg.search_window or max(spans) >= INT64_LIMIT:
        return None
    # Uniform streams would hold about this many window pairs. The estimate
    # keeps windows with few pairs per tag off the binary searches below, so
    # they are searched once, by coarse_histogram.
    needed = max(_MIN_BOUND_PAIRS, _PAIRS_PER_BOUND * (n + len(local_ts) + len(remote_ts)))
    if len(local_ts) * len(remote_ts) * min(1.0, (2 * cfg.search_window + 1) / (max(spans) + 1)) < needed:
        return None
    total = int(_pair_runs(local_ts, remote_ts, -cfg.search_window, cfg.search_window + 1).ends[-1])
    if total < needed:
        return None
    fold_l = np.bincount((local_ts - local_ts[0]) // width & (n - 1), minlength=n)
    fold_r = np.bincount((remote_ts - remote_ts[0]) // width & (n - 1), minlength=n)
    cyclic = np.fft.irfft(np.conj(np.fft.rfft(fold_l)) * np.fft.rfft(fold_r), n)
    # FFT round-off stays far below this margin, so c never undercounts
    margin = 0.5 + 1e-13 * n.bit_length() * math.sqrt(float(fold_l @ fold_l) * float(fold_r @ fold_r))
    c = np.take(np.floor(cyclic + margin).astype(np.int64), np.arange(sb_lo, sb_hi + 2), mode="wrap")
    bounds = c[:-1] + c[1:]

    # The visits may enumerate at most an eighth of the window's pairs.
    best_bin, best_count, budget = 0, 0, total // 8
    for _ in range(_VISIT_BUDGET):
        k = int(np.argmax(bounds))
        if bounds[k] < best_count:
            return best_bin, best_count, total
        budget -= int(bounds[k])
        if budget < 0:
            return None
        bounds[k] = -1  # visited
        counts = _superbin_counts(local_ts, remote_ts, origin, sb_lo + k, cfg)
        i = int(np.argmax(counts))
        bin_ = (sb_lo + k) * _SUPERBIN_BINS + i
        if counts[i] > best_count or (counts[i] == best_count and bin_ < best_bin):
            best_bin, best_count = bin_, int(counts[i])
    return (best_bin, best_count, total) if bounds.max() < best_count else None


def _background_spread(local_ts: np.ndarray, remote_ts: np.ndarray, cfg: CorrelationConfig) -> float:
    """Variance across the window of the accidental counts per coarse bin expected at constant tag rates.

    Tags spread evenly over each stream's span make the pair density, in
    the difference d, a trapezoid; its counts per coarse bin are linear on
    each of three pieces, so their mean and mean square over the window
    are exact sums of piece integrals.
    """
    a = int(local_ts[-1]) - int(local_ts[0]) + 1
    b = int(remote_ts[-1]) - int(remote_ts[0]) + 1
    d0 = int(remote_ts[0]) - int(local_ts[0]) - a  # the smallest difference
    top = len(local_ts) * len(remote_ts) * cfg.coarse_bin / max(a, b)  # counts per bin on the flat top
    knots = ((d0, 0.0), (d0 + min(a, b), top), (d0 + max(a, b), top), (d0 + a + b, 0.0))
    lo, hi = -cfg.search_window, cfg.search_window + 1
    s1 = s2 = 0.0
    for (x0, y0), (x1, y1) in zip(knots, knots[1:]):
        u, v = max(x0, lo), min(x1, hi)
        if u < v:
            yu = y0 + (y1 - y0) * ((u - x0) / (x1 - x0))
            yv = y0 + (y1 - y0) * ((v - x0) / (x1 - x0))
            s1 += (v - u) * (yu + yv) / 2
            s2 += (v - u) * (yu * yu + yu * yv + yv * yv) / 3
    n = hi - lo
    return max(s2 / n - (s1 / n) ** 2, 0.0)


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
    found, hist = _bounded_peak(local_ts, remote_ts, cfg), None
    if found is None:
        hist = coarse_histogram(local_ts, remote_ts, cfg)
        i_max = int(np.argmax(hist.counts))  # first max: ties break toward smallest offset
        found = int(hist.bins[i_max]), int(hist.counts[i_max]), int(hist.counts.sum())
    peak_bin, peak_counts, total = found
    origin = int(remote_ts[0]) - int(local_ts[0])
    bin_lo, bin_hi = _window_bin_range(origin, cfg)
    excl_lo = max(peak_bin - cfg.refine_span_bins, bin_lo)
    excl_hi = min(peak_bin + cfg.refine_span_bins, bin_hi)

    # The peak span's pairs, each with its local time, in the window's order.
    # They are exactly the pairs of the coarse bins the background excludes.
    span_lo = origin + (peak_bin - cfg.refine_span_bins) * cfg.coarse_bin
    span = (2 * cfg.refine_span_bins + 1) * cfg.coarse_bin
    if hist is not None and hist.offsets is not None:
        # Taken from the window's enumeration. The unsigned offsets relative
        # to the span's first bin wrap past the last for the pairs below it.
        pairs = np.flatnonzero(hist.offsets - (excl_lo - bin_lo) <= excl_hi - excl_lo)
        tags = np.searchsorted(hist.runs.ends, pairs, side="right")
        times = local_ts[tags]
        shifted = remote_ts[hist.runs.base[tags] + pairs] - (times + span_lo)
    else:
        window = cfg.search_window
        runs = _pair_runs(local_ts, remote_ts, max(-window, span_lo), min(window + 1, span_lo + span))
        shifted = _pair_diffs(local_ts, remote_ts, runs, 0, int(runs.ends[-1]), span_lo)
        times = np.repeat(local_ts, runs.counts)

    # Background over every coarse bin the window could populate, including
    # empty ones, excluding the peak span. Its sigma adds the spread of the
    # expected accidentals to the Poisson variance, and is floored at one
    # count so that isolated accidental coincidences never register as
    # significant.
    n_bg_bins = (bin_hi - bin_lo + 1) - (excl_hi - excl_lo + 1)
    if n_bg_bins > 0:
        bg_mean = (total - len(shifted)) / n_bg_bins
        bg_sigma = max(math.sqrt(bg_mean + _background_spread(local_ts, remote_ts, cfg)), 1.0)
    else:
        bg_mean, bg_sigma = 0.0, 1.0
    significance = (peak_counts - bg_mean) / bg_sigma
    if significance < cfg.significance_sigma:
        raise NoPeakError(
            f"best bin significance {significance:.2f} below "
            f"threshold {cfg.significance_sigma}",
            significance=significance,
        )

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
