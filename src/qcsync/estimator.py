"""Offset, flight-time, and frequency recovery from timetag streams.

The correlator looks at pairwise differences (remote - local) inside a
search window. Both streams are sorted, so the in-window partners of each
local tag form one run of remote tags, found by binary search: cost scales
with the number of in-window pairs, never len(local)*len(remote). The
enumeration route below searches the window once per correlation. A window
that holds every pair the streams can form, as when a session's span plus
its offset stays inside the window, is never searched: coarse_histogram
makes its offsets by rows of local tags, each block of rows one broadcast
subtraction from the remote stream, and pair p is local tag p // R with
remote tag p % R, R the remote stream's length.

The coarse estimate is the first coarse bin holding the most pairs, found
exactly by one of two window routes that give the same bin and count:
- A bounded search, for windows with many pairs per tag. Both streams are
  folded onto N superbins of M coarse bins, N the smallest 5-smooth integer
  above the window's superbin count (for folds coarser than the floor,
  above the longer stream's span in superbins plus two when that is
  shorter), and one FFT gives an upper bound on each superbin's pairs.
  Superbins are enumerated in descending bound order until the bound falls
  below the best count. A wide window is probed first: a fold of at most
  _PROBE_SUPERBINS superbins, whose top superbins are enumerated while
  each raises the real peak count B, until B lets a level coarser than the
  floor clear. The main fold then takes the widest M, in coarse bins,
  whose expected accidental bound stays below B; the search falls back to
  the floor, M = _SUPERBIN_BINS, when a probe visit leaves B where it was
  or those bounds do not clear. A sparse window as long as the session so
  enumerates a few superbins and makes one FFT fold after the probe's,
  sized to the peak it has to find.
- The enumeration of every window pair, when the window holds too few
  pairs to repay the FFTs, when N would be large, or when the bounds are
  too loose for the visit budget. The pairs are made in cache-sized int64
  blocks (whole rows of local tags when the window holds every pair),
  reduced to coarse-bin offsets from the first bin a window pair can fill,
  and sorted as 32-bit integers (64-bit only when the window spans more
  than 2**32 bins); runs of equal offsets give the sparse coarse histogram
  (coarse_histogram). A window of one chunk whose pairs can fill no more
  bins than it has pairs counts its offsets by bin instead of sorting them.

A correlation given a predicted difference, as estimate_two_way gives the
B->A one from the link's round trip (d_BA = T_AB + T_BA - d_AB, where the
clock offset cancels), first enumerates only the coarse bins within
refine_span_bins + _RETURN_SLACK_BINS of it, as one visit. That applies to
a window that holds every pair or takes the bounded search, whose pair
count is known without enumerating them; a window enumerated by runs is
searched whole at once, since counting its pairs costs what the region
saves. The region's first largest bin is the window's whenever the
window's lies in the region, and everything after the peak is computed
over the window as on the other routes, so the result is then the same.
A region holding no pair, a region peak within refine_span_bins of the
region's edge, and one that fails the significance test send the search
to the whole window.

The background is every window bin, empty ones included, except the
peak's +-refine_span_bins coarse bins (the peak span; a span reaching past
every window bin is clipped to that reach). Its mean is the
window's pairs outside the span over those bins. Its sigma is
sqrt(mean + spread), floored at one count, where spread is the variance
across the window of the accidental counts that constant tag rates would
give; a window as long as the session makes it large. The significance is
(peak count - mean) / sigma.

The fine stage then takes only the peak span's pairs, each with its local
time t. The enumeration route picks them out of the window's pairs by their
coarse-bin offsets, kept when the window fits one sort, and rebuilds their
exact differences from the window's runs, or by index arithmetic when the
window holds every pair. The bounded route picks them the same way out of
the superbin visit that set the peak, when that superbin holds the whole
span. A span reaching past that superbin, and a window of several sorts,
is searched instead. The fine stage fits the line d = a + b*(t - t_mean)
by least squares over an iterated member window: seeded with the coarse
peak bin, each pass keeps the pairs within max(3 sigma, fine_bin) of the
line, until the member set stops changing.
Every output comes from that one member set: the offset is the exact
integer-rounded mean member difference (the line at t_mean), the width is
the residual sigma, and b the drift.

Binning is anchored at the difference of the two first tags and local
times at the first local tag, not at zero, so shifting one stream or both
by any amount relabels bins but never moves a pair across a bin edge or
changes its residual: the offset shifts by exactly that amount.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .fields import ConfigError, check_fields, param
from .photonics import TagStream
from .timebase import INT64_LIMIT, _round_div

__all__ = [
    "CoarseHistogram",
    "CorrelationConfig",
    "BLOCK_COUNT_LIMIT",
    "CorrelationResult",
    "PeakMembers",
    "TwoWayResult",
    "FrequencyFit",
    "EstimationError",
    "NoPeakError",
    "EmptyOverlapError",
    "UnphysicalFlightTimeError",
    "cross_correlate",
    "coarse_histogram",
    "two_way_offset",
    "frequency_track",
    "estimate_two_way",
]

BLOCK_COUNT_LIMIT = 10**6  # most diagnostic blocks of the frequency fit, as many as net report epochs
_CHUNK_PAIRS = 1 << 22  # pairs per sort: 16 MB of 32-bit bin offsets, 32 MB when one sort keeps them
_BLOCK_PAIRS = 1 << 15  # pairs materialized at once: 256 KB int64 arrays stay in cache
_WINDOW_SIGMAS = 3.0  # member window half-width, in residual sigmas of the member line
_MAX_WINDOW_PASSES = 50  # the member set settles within a few passes; this bounds a cycle
_SUPERBIN_BINS = 128  # coarse bins per superbin at the bounded search's finest level, its floor
_MAX_SUPERBINS = 1 << 20  # larger folds cost more in FFTs than they save
_VISIT_BUDGET = 64  # most superbins one level of the bounded search enumerates
_PROBE_SUPERBINS = 1 << 11  # most superbins of the probe fold; windows with no more at the floor are not probed
_BOUND_SIGMAS = 5.0  # Poisson sigmas the expected accidental bound of a coarse level keeps below the probe's count
_RETURN_SLACK_BINS = 64  # coarse bins beyond the peak span that a predicted search covers on each side
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


class UnphysicalFlightTimeError(EstimationError):
    """Two-way combination produced a negative flight time (swapped inputs?)."""


@dataclass(frozen=True)
class CorrelationConfig:
    search_window: int = param(10**13, unit="_fs", ge=1)  # max |candidate offset| (10 ms)
    coarse_bin: int = param(10**6, unit="_fs", ge=1)  # 1 ns
    fine_bin: int = param(1000, unit="_fs", ge=1)  # 1 ps
    refine_span_bins: int = param(3, ge=1)  # fine stage covers coarse peak +- this many coarse bins
    significance_sigma: float = param(6.0, gt=0)
    block_count: int = param(1, ge=1, le=BLOCK_COUNT_LIMIT)  # diagnostic block offsets of the frequency fit

    def __post_init__(self):
        check_fields(self)
        if not self.fine_bin <= self.coarse_bin <= self.search_window:
            raise ConfigError("need fine_bin_fs <= coarse_bin_fs <= search_window_fs")


class PeakMembers(NamedTuple):
    """The peak's member pairs, local-major, and their least-squares line."""

    local_times: np.ndarray  # fs, int64, non-decreasing
    diffs: np.ndarray  # fs, int64, remote - local
    slope: float  # least-squares d(diff)/d(local time) over the members
    time_mean: float  # fs, mean member local time, where the line is at peak_offset
    sxx: float  # fs^2, sum of squared member local times about time_mean


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
    clock_offset: int  # fs, theta = (d_AB - d_BA)/2 at epoch_fs, halving rounded toward zero
    flight_time: int  # fs, T_f = (d_AB + d_BA)/2 at epoch_fs, same rounding
    offset_uncertainty: int  # fs, 1-sigma of clock_offset
    epoch_fs: int  # A's local time both member lines are read at: the midpoint of A's tags
    forward: CorrelationResult  # d_AB
    backward: CorrelationResult  # d_BA
    frequency: FrequencyFit  # rate of the same member lines


@dataclass(frozen=True)
class FrequencyFit:
    fractional_frequency: float  # half-difference of the two member-line slopes
    fractional_frequency_uncertainty: float  # 1-sigma, from the two slopes' standard errors
    offset_at_epoch: int  # fs, theta along that rate back to A's local time 0
    residual_rms: int  # fs, RMS of the block offsets about the line; 0 without block offsets
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
    """The pairs whose difference d = remote - local lies in [lo_off, hi_off).

    Each run is found by binary search. Offsets are clamped to the
    differences the streams can form, and each local tag t to where
    t + offset lies in [remote[0], remote[-1] + 1], so no sum wraps.
    coarse_histogram does not search a window that holds every pair.
    """
    l0, l1, r0, r1 = int(local[0]), int(local[-1]), int(remote[0]), int(remote[-1])

    def first_at_or_after(off: int) -> np.ndarray:
        off = min(max(off, r0 - l1), r1 + 1 - l0)
        t = np.minimum(np.maximum(local, max(l0, r0 - off)), min(l1, r1 + 1 - off))
        return np.searchsorted(remote, t + off, side="left")

    first = first_at_or_after(lo_off)
    counts = first_at_or_after(hi_off) - first
    np.maximum(counts, 0, out=counts)
    ends = np.cumsum(counts)
    return _PairRuns(first - (ends - counts), counts, ends)


def _pair_diffs(
    local: np.ndarray, remote: np.ndarray, runs: _PairRuns, start: int, stop: int, offset: int
) -> np.ndarray:
    """Differences minus offset of pairs start .. stop-1, as a fresh int64 array.

    Each pair's remote tag is gathered by index.
    """
    base, counts, ends = runs
    i = int(np.searchsorted(ends, start, side="right"))
    j = int(np.searchsorted(ends, stop - 1, side="right")) + 1
    per_tag = np.minimum(ends[i:j], stop) - np.maximum(ends[i:j] - counts[i:j], start)
    idx = np.repeat(base[i:j], per_tag)
    idx += np.arange(start, stop, dtype=np.int64)
    diffs = remote[idx]
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
    minus first_bin (the first bin a window pair can fill), numbered as in
    runs, or None when the window took more than one chunk. runs is None when
    the window holds every pair the streams can form: pair p is then local
    tag p // R with remote tag p % R, R = len(remote), and the window holds
    len(local) * R pairs.
    """

    bins: np.ndarray  # occupied bin indices, ascending int64
    counts: np.ndarray  # pairs per occupied bin
    origin: int
    offsets: np.ndarray | None
    runs: _PairRuns | None
    first_bin: int


def _runs_of_equal(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct value of a sorted array, as int64, and how many times it occurs."""
    change = np.empty(len(values) + 1, dtype=bool)
    change[0] = change[-1] = True
    np.not_equal(values[1:], values[:-1], out=change[1:-1])
    edges = np.flatnonzero(change)
    counts = edges[1:] - edges[:-1]
    bins = edges[:-1]  # reuse the int64 buffer for the run values
    bins[...] = values[bins]
    return bins, counts


def coarse_histogram(local, remote, cfg: CorrelationConfig) -> CoarseHistogram:
    """Sparse coarse histogram of in-window differences (see CoarseHistogram).

    A window that holds every pair is not searched: each block of whole rows
    of local tags is one broadcast subtraction from the remote stream,
    written as coarse-bin offsets straight into the chunk's array. A chunk
    is sorted and read as runs of equal offsets, except that a window of one
    chunk with no more bins than pairs counts its offsets by bin.
    """
    local_ts, remote_ts = _timestamps(local), _timestamps(remote)
    if len(local_ts) == 0 or len(remote_ts) == 0:
        raise EmptyOverlapError("cannot correlate an empty stream")
    origin = int(remote_ts[0]) - int(local_ts[0])
    bin_lo, bin_hi = _window_bin_range(origin, cfg)
    # Offsets count from the first bin a window pair can fill, so the shift
    # stays in int64 for any window; they sort as 32-bit integers when it allows.
    bin_lo = max(bin_lo, (int(local_ts[0]) - int(local_ts[-1])) // cfg.coarse_bin)
    offset_dtype = np.uint32 if bin_hi - bin_lo < 2**32 else np.uint64
    shift = origin + bin_lo * cfg.coarse_bin
    n, window = len(remote_ts), cfg.search_window
    d_max = int(remote_ts[-1]) - int(local_ts[0])  # the largest difference the streams can form
    top = (min(window, d_max) - shift) // cfg.coarse_bin + 1  # one past the last bin a window pair can fill
    if _holds_every_pair(local_ts, remote_ts, cfg):
        # Sorts and blocks take whole rows: at least one, each no longer than its remote stream.
        runs, total = None, len(local_ts) * n
        chunk_pairs, block_pairs = max(_CHUNK_PAIRS // n, 1) * n, max(_BLOCK_PAIRS // n, 1) * n
    else:
        runs = _pair_runs(local_ts, remote_ts, -window, window + 1)
        total = int(runs.ends[-1])
        if total == 0:
            raise EmptyOverlapError("no pairwise differences inside the search window")
        chunk_pairs, block_pairs = _CHUNK_PAIRS, _BLOCK_PAIRS
    bins_parts, counts_parts, offsets = [], [], None
    for chunk_start in range(0, total, chunk_pairs):
        chunk_stop = min(chunk_start + chunk_pairs, total)
        rel = np.empty(chunk_stop - chunk_start, dtype=offset_dtype)
        for start in range(chunk_start, chunk_stop, block_pairs):
            stop = min(start + block_pairs, chunk_stop)
            out = rel[start - chunk_start : stop - chunk_start]
            if runs is None:
                diffs = remote_ts - (local_ts[start // n : stop // n, None] + shift)
                out = out.reshape(diffs.shape)
            else:
                diffs = _pair_diffs(local_ts, remote_ts, runs, start, stop, shift)
            np.floor_divide(diffs, cfg.coarse_bin, out=out, casting="unsafe")
        if total > chunk_pairs:
            rel.sort()
            bins, counts = _runs_of_equal(rel)
        elif top <= total:  # one chunk with no more bins than pairs: count them, no sort
            offsets, dense = rel, np.bincount(rel.astype(np.intp), minlength=top)
            bins = np.flatnonzero(dense != 0)  # nonzero of a mask is several times faster than of counts
            counts = dense[bins]
        else:  # one sort: keep the offsets in pair order for the peak span
            offsets = rel
            bins, counts = _runs_of_equal(np.sort(rel))
        bins_parts.append(bins)
        counts_parts.append(counts)
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
    return CoarseHistogram(bins, counts, origin, offsets, runs, bin_lo)


def _smooth_lengths(limit: int) -> list[int]:
    """Every 5-smooth integer up to limit, ascending: FFT lengths with no prime factor above 5."""
    lengths = [1]
    for p in (2, 3, 5):
        lengths = [m * p**e for m in lengths for e in range(limit.bit_length()) if m * p**e <= limit]
    return sorted(lengths)


# A power of two lies above _MAX_SUPERBINS and within twice it, so the table
# holds the length of every fold the bounded search may make.
_FOLD_LENGTHS = _smooth_lengths(2 * _MAX_SUPERBINS)


def _fold_length(n: int) -> int:
    """The smallest 5-smooth integer above n; past the table, n + 1, longer than any fold may be."""
    i = bisect.bisect_right(_FOLD_LENGTHS, n)
    return _FOLD_LENGTHS[i] if i < len(_FOLD_LENGTHS) else n + 1


def _superbin_bounds(
    local_ts: np.ndarray, remote_ts: np.ndarray, d_lo: int, d_hi: int, bins: int, cfg: CorrelationConfig
) -> tuple[int, np.ndarray]:
    """The superbin of difference d_lo and an upper bound on the pairs of each superbin up to d_hi's.

    Superbins hold bins coarse bins each (see _bounded_peak). The fold has
    the smallest 5-smooth length above the range's superbin count, so that
    no superbin of the range aliases another; a fold coarser than the floor,
    whose bounds keep a density margin, needs only a length above the
    longer stream's span in superbins plus two, when that is shorter.
    """
    width = bins * cfg.coarse_bin
    origin = int(remote_ts[0]) - int(local_ts[0])
    sb_lo, sb_hi = (d_lo - origin) // width, (d_hi - origin) // width
    cells = sb_hi - sb_lo + 1
    if bins > _SUPERBIN_BINS:
        longer = max(int(local_ts[-1]) - int(local_ts[0]), int(remote_ts[-1]) - int(remote_ts[0]))
        cells = min(cells, longer // width + 2)
    n = _fold_length(cells)
    fold_l = np.bincount((local_ts - local_ts[0]) // width % n, minlength=n)
    fold_r = np.bincount((remote_ts - remote_ts[0]) // width % n, minlength=n)
    cyclic = np.fft.irfft(np.conj(np.fft.rfft(fold_l)) * np.fft.rfft(fold_r), n)
    # FFT round-off stays far below this margin, so c never undercounts
    margin = 0.5 + 1e-13 * n.bit_length() * math.sqrt(float(fold_l @ fold_l) * float(fold_r @ fold_r))
    c = np.take(np.floor(cyclic + margin).astype(np.int64), np.arange(sb_lo, sb_hi + 2), mode="wrap")
    return sb_lo, c[:-1] + c[1:]


class _Visit(NamedTuple):
    """The window pairs of a run of coarse bins, as _bin_counts enumerated them.

    offsets holds each pair's coarse bin minus first_bin, numbered as in
    runs, like CoarseHistogram's; counts holds the pairs of each of the
    run's coarse bins.
    """

    first_bin: int
    counts: np.ndarray
    offsets: np.ndarray  # uint64
    runs: _PairRuns


def _bin_counts(
    local_ts: np.ndarray,
    remote_ts: np.ndarray,
    origin: int,
    first_bin: int,
    bins: int,
    limit: int,
    cfg: CorrelationConfig,
) -> _Visit | None:
    """Exact counts of coarse bins first_bin .. first_bin + bins - 1, clipped to the window.

    They come with the bins' pairs and their runs (see _Visit). None,
    before any pair is made, when the bins hold more than limit pairs.
    """
    lo = origin + first_bin * cfg.coarse_bin  # the first bin's first difference
    start, stop = max(-cfg.search_window, lo), min(cfg.search_window + 1, lo + bins * cfg.coarse_bin)
    runs = _pair_runs(local_ts, remote_ts, start, stop)
    if runs.ends[-1] > limit:
        return None
    offsets = _pair_diffs(local_ts, remote_ts, runs, 0, int(runs.ends[-1]), start)
    offsets += start - lo
    offsets //= cfg.coarse_bin
    return _Visit(first_bin, np.bincount(offsets, minlength=bins), offsets.view(np.uint64), runs)


def _superbin_counts(
    local_ts: np.ndarray,
    remote_ts: np.ndarray,
    origin: int,
    superbin: int,
    bins: int,
    limit: int,
    cfg: CorrelationConfig,
) -> _Visit | None:
    """_bin_counts of one superbin of bins coarse bins."""
    return _bin_counts(local_ts, remote_ts, origin, superbin * bins, bins, limit, cfg)


def _bounded_total(local_ts: np.ndarray, remote_ts: np.ndarray, cfg: CorrelationConfig) -> int:
    """The window's pair count when the bounded search may repay its FFTs, else 0.

    0 sends the window to the enumeration (see _bounded_peak), when the
    floor fold would exceed _MAX_SUPERBINS or the window's pairs, estimated
    and then counted, are too few.
    """
    if len(local_ts) * len(remote_ts) < _MIN_BOUND_PAIRS:  # too few pairs in any window, or none
        return 0
    origin = int(remote_ts[0]) - int(local_ts[0])
    # the differences the streams can form inside the window
    d_lo = max(-cfg.search_window, int(remote_ts[0]) - int(local_ts[-1]))
    d_hi = min(cfg.search_window, int(remote_ts[-1]) - int(local_ts[0]))
    width = _SUPERBIN_BINS * cfg.coarse_bin
    n = _fold_length((d_hi - origin) // width - (d_lo - origin) // width + 1)
    spans = int(local_ts[-1]) - int(local_ts[0]), int(remote_ts[-1]) - int(remote_ts[0])
    if n > _MAX_SUPERBINS or width > cfg.search_window or max(spans) >= INT64_LIMIT:
        return 0
    # Uniform streams would hold about this many window pairs. The estimate
    # keeps windows with few pairs per tag off the binary searches below, so
    # they are searched at most once, by coarse_histogram.
    needed = max(_MIN_BOUND_PAIRS, _PAIRS_PER_BOUND * (n + len(local_ts) + len(remote_ts)))
    if len(local_ts) * len(remote_ts) * min(1.0, (2 * cfg.search_window + 1) / (max(spans) + 1)) < needed:
        return 0
    total = int(_pair_runs(local_ts, remote_ts, -cfg.search_window, cfg.search_window + 1).ends[-1])
    return total if total >= needed else 0


def _bounded_peak(
    local_ts: np.ndarray, remote_ts: np.ndarray, cfg: CorrelationConfig, total: int | None = None
) -> tuple[int, int, int, _Visit] | None:
    """The first coarse bin with the most window pairs, its count, the window's pairs, and the bin's visit.

    A branch and bound over superbins. Superbin j of width M groups coarse
    bins j*M .. j*M + M - 1, so a pair's superbin is floor((d - origin) / S)
    with S = M*coarse_bin. Folding each stream by floor((t - t[0]) / S) mod N,
    one cyclic cross-correlation by FFT counts the tag pairs c[k] whose
    folded superbins differ by k. A pair of superbin j differs by j or
    j + 1, so superbin j holds at most c[j] + c[j+1] pairs; aliased pairs
    only add to that bound, for any N. At the floor, N is the smallest
    5-smooth integer above the window's superbin count. Coarser folds take
    the smallest above the longer stream's span in superbins plus two when
    that is shorter (_superbin_bounds): two differences that alias are then
    at least that span apart, so at most one lies on the flat top of the
    constant-rate trapezoid (_accidentals), and together they expect no more
    than the top, which prices those levels below. A level enumerates
    superbins exactly in descending bound order until the bound falls below
    the best count (a tie is still visited, so the smallest bin wins it),
    skipping those whose coarse bins an earlier level's visit covers whole:
    widths need not divide one another, so a superbin that visit covers only
    in part is still visited. A visit spends the pairs it enumerates, and
    the one that set the best bin is returned with it, so that the caller
    can take the peak span's pairs from it.

    The floor level has M = _SUPERBIN_BINS. When its fold would exceed
    _PROBE_SUPERBINS superbins, a probe fold of at most that many, at the
    floor width times a power of two, is made first. Its superbins are
    enumerated in descending bound order, each visit raising the best count
    B, which is exact, until B lets a level coarser than the floor clear:
    one whose width M has an expected accidental bound
    2*M*a + _BOUND_SIGMAS*sqrt(2*M*a) below B. The search then runs at the
    widest such integer M up to the probe's width, solved in closed form,
    reusing the probe's bounds at its width; when the probe's own bounds
    clear first, the search ends there. a is the accidentals per
    coarse bin: the flat top of the constant-rate trapezoid
    (_accidentals), or the fold's mean when the streams reach past the
    window and the fold aliases their pairs onto it. The probe and that
    level share one budget of visits and pairs. A probe visit that leaves B
    where it was ends the probe: the peak found so far is too small for any
    coarser level, and further probe visits would only spend pairs. Then,
    or when the level's bounds do not clear within the budget, the floor
    level runs with a budget of its own, so the probe never gives up where
    the floor alone succeeds.

    total is the window's pair count as _bounded_total gives it, counted
    here when not given. Returns None, and the caller enumerates the whole
    window instead, when that count is 0 or when the floor level's visits
    would exceed _VISIT_BUDGET superbins or an eighth of the window's pairs.
    """
    if total is None:
        total = _bounded_total(local_ts, remote_ts, cfg)
    if not total:
        return None
    origin = int(remote_ts[0]) - int(local_ts[0])
    # the differences the streams can form inside the window
    d_lo = max(-cfg.search_window, int(remote_ts[0]) - int(local_ts[-1]))
    d_hi = min(cfg.search_window, int(remote_ts[-1]) - int(local_ts[0]))

    def superbins(bins: int) -> int:
        width = bins * cfg.coarse_bin
        return (d_hi - origin) // width - (d_lo - origin) // width + 1

    best = [0, 0, None]  # the first coarse bin with the most pairs in the visited superbins, its count and visit
    visited = []  # (width in coarse bins, superbin) of each enumerated superbin

    def fold(bins: int) -> tuple[int, np.ndarray]:
        """The fold's first superbin and bounds at bins, -1 where an earlier visit covers a superbin whole."""
        sb_lo, bounds = _superbin_bounds(local_ts, remote_ts, d_lo, d_hi, bins, cfg)
        # Widths need not divide one another, so a visit of coarse bins
        # j*b .. (j+1)*b - 1 skips only the superbins it covers whole.
        for b, j in visited:
            bounds[max(-(-j * b // bins) - sb_lo, 0) : max((j + 1) * b // bins - sb_lo, 0)] = -1
        return sb_lo, bounds

    def search(bins: int, pairs: int, visits: int, density: float | None = None) -> bool:
        """Whether every bound of the fold at bins clears the best count within the visits and pairs given.

        Given the accidentals per coarse bin, density, the fold is a probe,
        which hands what is left of both to the level its count clears.
        """
        sb_lo, bounds = fold(bins)
        while True:
            k = int(np.argmax(bounds))
            if bounds[k] < best[1]:
                return True
            visit = _superbin_counts(local_ts, remote_ts, origin, sb_lo + k, bins, pairs, cfg) if visits else None
            if visit is None:
                return False
            counts = visit.counts
            bounds[k] = -1
            pairs, visits = pairs - int(counts.sum()), visits - 1
            visited.append((bins, sb_lo + k))
            i = int(np.argmax(counts))
            raised, bin_ = counts[i] > best[1], (sb_lo + k) * bins + i
            if raised or (counts[i] == best[1] and bin_ < best[0]):
                best[:] = bin_, int(counts[i]), visit
            if density is not None:
                if not raised:
                    return False
                # 2*M*a + s*sqrt(2*M*a) < B exactly when sqrt(2*M*a) < x, the positive root of x*x + s*x = B
                x = (math.sqrt(_BOUND_SIGMAS**2 + 4 * best[1]) - _BOUND_SIGMAS) / 2
                level = min(bins, math.ceil(x * x / (2 * density)) - 1)
                if level == bins:  # the probe's own bounds are the level's
                    density = None
                elif level > _SUPERBIN_BINS:
                    # The level runs in this loop: a recursive call would make search a reference
                    # cycle, holding the best visit until the cycle collector ran.
                    bins, density = level, None
                    sb_lo, bounds = fold(bins)

    # The visits of a level may enumerate at most an eighth of the window's pairs.
    probe = _SUPERBIN_BINS
    while superbins(probe) > _PROBE_SUPERBINS:
        probe *= 2
    if probe > _SUPERBIN_BINS:
        window_bins = (d_hi - d_lo) // cfg.coarse_bin + 1
        density = max(_accidentals(local_ts, remote_ts, cfg)[1][1], len(local_ts) * len(remote_ts) / window_bins)
        if search(probe, total // 8, _VISIT_BUDGET, density):
            return best[0], best[1], total, best[2]
    return (best[0], best[1], total, best[2]) if search(_SUPERBIN_BINS, total // 8, _VISIT_BUDGET) else None


def _accidentals(local_ts: np.ndarray, remote_ts: np.ndarray, cfg: CorrelationConfig) -> tuple:
    """Knots (difference, pairs per coarse bin) of the accidental pair density at constant tag rates.

    Tags spread evenly over each stream's span make that density, in the
    difference d, a trapezoid; knot 1 starts its flat top.
    """
    a = int(local_ts[-1]) - int(local_ts[0]) + 1
    b = int(remote_ts[-1]) - int(remote_ts[0]) + 1
    d0 = int(remote_ts[0]) - int(local_ts[0]) - a  # the smallest difference
    top = len(local_ts) * len(remote_ts) * cfg.coarse_bin / max(a, b)  # counts per bin on the flat top
    return (d0, 0.0), (d0 + min(a, b), top), (d0 + max(a, b), top), (d0 + a + b, 0.0)


def _background_spread(local_ts: np.ndarray, remote_ts: np.ndarray, cfg: CorrelationConfig) -> float:
    """Variance across the window of the accidental counts per coarse bin expected at constant tag rates.

    The counts per bin are linear on each of the three pieces of the
    trapezoid (_accidentals), so their mean and mean square over the window
    are exact sums of piece integrals.
    """
    knots = _accidentals(local_ts, remote_ts, cfg)
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
    being the members' RMS residual. Returns the members with the slope,
    sigma, x_mean and Sxx of their own line.
    """
    for passes in range(1, _MAX_WINDOW_PASSES + 1):
        xk, dk = x[keep], d[keep]
        n = len(xk)
        x_mean, d_mean = xk.sum() / n, dk.sum() / n  # what np.mean computes, without its overhead
        xc = xk - x_mean
        # sums, not BLAS dot products, whose rounding follows the BLAS thread count
        sxx = float((xc * xc).sum())
        slope = float((xc * (dk - d_mean)).sum()) / sxx if sxx > 0 else 0.0
        residuals = d - d_mean - slope * (x - x_mean)
        rk = residuals[keep]
        sigma = math.sqrt(float((rk * rk).sum() / n))
        inside = np.abs(residuals) <= max(_WINDOW_SIGMAS * sigma, floor)
        if passes == _MAX_WINDOW_PASSES or (inside == keep).all():
            return keep, slope, sigma, float(x_mean), sxx
        keep = inside


def _holds_every_pair(local_ts: np.ndarray, remote_ts: np.ndarray, cfg: CorrelationConfig) -> bool:
    """Whether every difference the (non-empty) streams can form lies inside the window."""
    window = cfg.search_window
    return -window <= int(remote_ts[0]) - int(local_ts[-1]) and int(remote_ts[-1]) - int(local_ts[0]) <= window


def _region_peak(
    local_ts: np.ndarray, remote_ts: np.ndarray, predicted: int, total: int, cfg: CorrelationConfig
) -> tuple[int, int, int, _Visit] | None:
    """The first coarse bin with the most pairs near a predicted difference, its count, total and visit.

    The region is the coarse bins within refine_span_bins +
    _RETURN_SLACK_BINS of predicted's bin, clipped to the window, enumerated
    as one visit; total is the window's pair count, passed through. None,
    and the caller searches the window, when the region holds no pair or
    its peak lies within refine_span_bins of the region's edge.
    """
    origin = int(remote_ts[0]) - int(local_ts[0])
    bin_lo, bin_hi = _window_bin_range(origin, cfg)
    reach, centre = cfg.refine_span_bins, (predicted - origin) // cfg.coarse_bin
    first = max(centre - reach - _RETURN_SLACK_BINS, bin_lo)
    bins = min(centre + reach + _RETURN_SLACK_BINS, bin_hi) + 1 - first
    if bins < 2 * reach + 3:  # no bin lies more than reach bins inside the region, or it misses the window
        return None
    visit = _bin_counts(local_ts, remote_ts, origin, first, bins, total, cfg)
    i = int(np.argmax(visit.counts))
    if visit.counts[i] == 0 or not reach < i < bins - 1 - reach:
        return None
    return first + i, int(visit.counts[i]), total, visit


def cross_correlate(
    local, remote, cfg: CorrelationConfig | None = None, predicted: int | None = None
) -> CorrelationResult:
    """Locate the coincidence peak of (remote - local) differences.

    Given predicted, the difference (fs) where the peak is expected, a window
    that holds every pair or takes the bounded search is first searched only
    near it (_region_peak). A region peak that is not significant, or that
    _region_peak declines, sends the search to the whole window; a window
    enumerated by runs is searched whole at once. Raises NoPeakError when
    the best coarse bin is not significant against the off-peak background,
    and EmptyOverlapError when the window holds no pairs at all.
    """
    cfg = cfg or CorrelationConfig()
    local_ts, remote_ts = _timestamps(local), _timestamps(remote)
    total = None  # the window's pairs as _bounded_total counts them, once counted
    if predicted is not None and len(local_ts) and len(remote_ts):
        if _holds_every_pair(local_ts, remote_ts, cfg):
            region_total = len(local_ts) * len(remote_ts)
        else:
            region_total = total = _bounded_total(local_ts, remote_ts, cfg)
        found = _region_peak(local_ts, remote_ts, int(predicted), region_total, cfg) if region_total else None
        if found is not None:
            try:
                return _peak_result(local_ts, remote_ts, cfg, *found)
            except NoPeakError:
                pass
    found = _bounded_peak(local_ts, remote_ts, cfg, total)
    if found is None:
        hist = coarse_histogram(local_ts, remote_ts, cfg)
        i_max = int(np.argmax(hist.counts))  # first max: ties break toward smallest offset
        total = len(local_ts) * len(remote_ts) if hist.runs is None else int(hist.runs.ends[-1])
        found = int(hist.bins[i_max]), int(hist.counts[i_max]), total, hist
    return _peak_result(local_ts, remote_ts, cfg, *found)


def _peak_result(
    local_ts: np.ndarray,
    remote_ts: np.ndarray,
    cfg: CorrelationConfig,
    peak_bin: int,
    peak_counts: int,
    total: int,
    enumerated: _Visit | CoarseHistogram,
) -> CorrelationResult:
    """cross_correlate's result from the coarse peak, the window's pair count and the pairs that found the peak.

    The peak span's pairs are taken from enumerated when it lists them all:
    a visit covering the span, or a histogram that kept its offsets.
    """
    origin = int(remote_ts[0]) - int(local_ts[0])
    bin_lo, bin_hi = _window_bin_range(origin, cfg)
    # A span reaching past every window bin from any peak is clipped to that reach.
    reach = min(cfg.refine_span_bins, bin_hi - bin_lo)
    excl_lo = max(peak_bin - reach, bin_lo)
    excl_hi = min(peak_bin + reach, bin_hi)

    # The peak span's pairs, each with its local time, in the window's order.
    # They are exactly the pairs of the coarse bins the background excludes.
    span_lo = origin + (peak_bin - reach) * cfg.coarse_bin
    span = (2 * reach + 1) * cfg.coarse_bin
    if isinstance(enumerated, _Visit):  # when it covers the span
        covers = enumerated.first_bin <= excl_lo and excl_hi < enumerated.first_bin + len(enumerated.counts)
        listed = enumerated if covers else None
    else:  # when the window took one sort
        listed = enumerated if enumerated.offsets is not None else None
    if listed is not None:
        # Taken from the pairs already enumerated. The unsigned offsets relative
        # to the span's first bin wrap past the last for the pairs below it.
        first = max(excl_lo, listed.first_bin)
        pairs = np.flatnonzero(listed.offsets - (first - listed.first_bin) <= excl_hi - first)
        if listed.runs is None:  # every pair: pair p is local tag p // R with remote tag p % R
            tags, partners = np.divmod(pairs, len(remote_ts))
        else:
            tags = np.searchsorted(listed.runs.ends, pairs, side="right")
            partners = listed.runs.base[tags] + pairs
        times = local_ts[tags]
        shifted = remote_ts[partners] - (times + span_lo)
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

    seed = shifted // cfg.coarse_bin == reach  # the coarse peak bin's pairs
    x = (times - local_ts[0]).astype(np.float64)
    keep, slope, sigma, x_mean, sxx = _member_line(x, shifted.astype(np.float64), seed, cfg.fine_bin)
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
        members=PeakMembers(times[keep], diffs, slope, int(local_ts[0]) + x_mean, sxx),
    )


def _line_at(result: CorrelationResult, t: int) -> tuple[int, float, float]:
    """The member line d = peak_offset + slope*(t - t_mean) at local time t, rounded, and 1-sigmas.

    Its own, sigma*sqrt(1/n + (t - t_mean)^2/Sxx), and the slope's, sigma/sqrt(Sxx) (inf if Sxx = 0)."""
    members, sigma, n = result.members, result.peak_width_fs, result.histogram_summary["region_total"]
    dt = t - members.time_mean
    reading = result.peak_offset + round(members.slope * dt)
    if members.sxx == 0:
        return reading, sigma / math.sqrt(n), math.inf
    return reading, sigma * math.sqrt(1 / n + dt * dt / members.sxx), sigma / math.sqrt(members.sxx)


def _round_half_even(num: int, den: int) -> int:
    """num/den rounded to the nearest integer, halves to even as round() does, exactly at any size. den > 0."""
    q, r = divmod(num, den)
    return q + (2 * r > den or (2 * r == den and q % 2 == 1))


def two_way_offset(
    d_ab: CorrelationResult, d_ba: CorrelationResult, a_span: tuple[int, int], block_count: int
) -> TwoWayResult:
    """Clock offset, flight time and rate from the two directions' member lines.

    A's line is read at t_e, the midpoint of a_span (A's first and last tag),
    B's at B's local time t_e + theta_m, theta_m being half the difference of
    the peak offsets; theta and T_f are half the difference and sum of the
    readings, rounded toward zero. block_count equal blocks of A's span (B's
    shifted by theta_m), their edges rounded in integers so the last one is
    t1 + 1 at any span, give the two-way offsets of their members.
    """
    t0, t1 = a_span
    epoch = (t0 + t1) // 2
    theta_m = _halve_toward_zero(d_ab.peak_offset - d_ba.peak_offset)
    at_ab, u_ab, s_ab = _line_at(d_ab, epoch)
    at_ba, u_ba, s_ba = _line_at(d_ba, epoch + theta_m)
    theta = _halve_toward_zero(at_ab - at_ba)
    flight = _halve_toward_zero(at_ab + at_ba)
    if flight < 0:
        raise UnphysicalFlightTimeError(f"flight time {flight} fs is negative; are the directions swapped?")
    rate = (d_ab.members.slope - d_ba.members.slope) / 2
    edges = [t0 + _round_half_even(k * (t1 + 1 - t0), block_count) for k in range(block_count + 1)]
    means = zip(_block_means(d_ab, edges), _block_means(d_ba, [e + theta_m for e in edges]))
    block_offsets = [
        ((e0 + e1) // 2, _halve_toward_zero(m_ab - m_ba))
        for e0, e1, (m_ab, m_ba) in zip(edges, edges[1:], means)
        if m_ab is not None and m_ba is not None
    ]
    residuals = [offset - theta - rate * (mid - epoch) for mid, offset in block_offsets]
    return TwoWayResult(
        clock_offset=theta,
        flight_time=flight,
        offset_uncertainty=round(0.5 * math.hypot(u_ab, u_ba)),
        epoch_fs=epoch,
        forward=d_ab,
        backward=d_ba,
        frequency=FrequencyFit(
            fractional_frequency=rate,
            fractional_frequency_uncertainty=0.5 * math.hypot(s_ab, s_ba),
            offset_at_epoch=theta - round(rate * epoch),
            residual_rms=round(math.sqrt(sum(r * r for r in residuals) / max(len(residuals), 1))),
            block_offsets=block_offsets,
        ),
    )


def estimate_two_way(
    local_a, remote_ab, local_b, remote_ba, cfg: CorrelationConfig | None = None, round_trip: int | None = None
) -> TwoWayResult:
    """Two-way offset, flight time and rate: each direction correlated once, then two_way_offset.

    Given round_trip, the link's T_AB + T_BA in fs, the B->A peak is
    searched first at round_trip - d_AB, where the round trip puts it
    whatever the clock offset (see cross_correlate's predicted).
    """
    cfg = cfg or CorrelationConfig()
    la = _timestamps(local_a)
    d_ab = cross_correlate(la, remote_ab, cfg)
    d_ba = cross_correlate(local_b, remote_ba, cfg, None if round_trip is None else round_trip - d_ab.peak_offset)
    return two_way_offset(d_ab, d_ba, (int(la[0]), int(la[-1])), cfg.block_count)


def frequency_track(local_a, remote_ab, local_b, remote_ba, cfg: CorrelationConfig) -> FrequencyFit:
    """Fractional frequency and offset at epoch: estimate_two_way's member-line fit.

    No library code calls it; it stays because bench/spans.py traces it and
    bench/workloads.py NetMonteCarlo rebinds netsync.frequency_track, both by name.
    """
    return estimate_two_way(local_a, remote_ab, local_b, remote_ba, cfg).frequency


def _block_means(result: CorrelationResult, edges: list[int]) -> list[int | None]:
    """Integer-rounded mean member difference per block [edges[k], edges[k+1]); None if empty.

    An edge past the int64 range cuts before every member (below it) or after
    every member (above it).
    """
    members = result.members
    top = INT64_LIMIT - 1
    cuts = np.searchsorted(members.local_times, np.array([min(max(e, -INT64_LIMIT), top) for e in edges], np.int64))
    cuts[[e > top for e in edges]] = len(members.local_times)
    # sums of differences from the peak offset stay small, so they are exact
    sums = np.concatenate(([0], np.cumsum(members.diffs - result.peak_offset)))[cuts].tolist()
    cuts = cuts.tolist()
    return [
        result.peak_offset + _round_div(s1 - s0, n1 - n0) if n1 > n0 else None
        for n0, n1, s0, s1 in zip(cuts, cuts[1:], sums, sums[1:])
    ]
