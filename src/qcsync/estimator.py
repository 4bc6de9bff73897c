"""Offset, flight-time, and frequency recovery from timetag streams.

The correlator looks at pairwise differences (remote - local) inside a
search window, which _window_reach alone reads from the config. Both streams
are sorted, so the in-window partners of each local tag form one run of
remote tags, found by binary search: cost scales with the number of
in-window pairs, never len(local)*len(remote). Every listing numbers its
pairs by such runs (_PairRuns). The enumeration route below searches the
window once per correlation. A window that holds every pair the streams can
form, as when a session's span plus its offset stays inside the window, is
never searched: its runs are whole rows, local tag t owning pairs t*R ..
t*R + R - 1, R the remote stream's length.

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
  too loose for the visit budget.

One lister (_list_bins) makes every listing: a superbin visit, a region, a
peak span and the whole window (coarse_histogram) each list the window
pairs of a run of coarse bins, by coarse-bin offset from the first bin a
pair can fill. The pairs are made in cache-sized int64 blocks (whole rows
of local tags when the bins cover a window that holds every pair) and
written into one array of 32-bit integers (64-bit only when the bins a
pair can fill number more than 2**32). A listing with no more bins than
pairs counts its offsets by bin, a slice of at least _SLICE_PAIRS pairs at
a time; any other sorts a copy, whose runs of equal offsets give the
sparse coarse histogram (CoarseListing).

A correlation given a predicted difference first enumerates only the
coarse bins within refine_span_bins + _RETURN_SLACK_BINS of it, as one
visit. estimate_two_way predicts the B->A difference from the link's round
trip (d_BA = T_AB + T_BA - d_AB, where the clock offset cancels) and,
given the clock offset theta_pred that a network sync predicts, the A->B
one as (T_AB + T_BA) // 2 + theta_pred. The region search applies to a
window that holds every pair or takes the bounded search, whose pair
count is known without enumerating them; a window enumerated by runs is
searched whole at once, since counting its pairs costs what the region
saves. The region's first largest bin is the window's whenever the
window's lies in the region, and everything after the peak is computed
over the window as on the other routes, so the result is then the same.
A region holding no pair, a region peak within refine_span_bins of the
region's edge, and one that fails the significance test send the search
to the whole window.

The peak is tested against the accidentals of constant tag rates, which
expect at most lambda pairs in a coarse bin (_accidentals). A peak of
k > lambda pairs has the global false-alarm probability p = min(B *
P(X >= k), 1/2), X Poisson of mean lambda and B the coarse bins from the
smallest to the largest difference the streams form in the window: the
union bound of Gross & Vitells, Eur. Phys. J. C 70, 525 (2010). Any other
peak has p = 1/2. The significance is the z whose normal upper tail is p,
found in log space, so that it stays finite when p underflows.

The fine stage then takes only the peak span's pairs, each with its local
time t, from the listing that found the peak, scanning its offsets in
slices; when a visit misses part of the span (a peak near its superbin's
edge), one listing of the span's bins lists them instead. Either way the
pairs' exact differences are rebuilt from the listing's runs. The fine
stage fits the line d = a + b*(t - t_mean) by least squares over an
iterated member window: seeded with the coarse peak bin, each pass keeps
the pairs within max(3 sigma, fine_bin) of the line, until the member set
stops changing. Every output comes from that one member set: the offset
is the exact integer-rounded mean member difference (the line at t_mean),
the width is the residual sigma, and b the drift.

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
    "CoarseListing",
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
_BLOCK_PAIRS = 1 << 15  # pairs materialized at once: 256 KB int64 arrays stay in cache
_SLICE_PAIRS = 1 << 22  # listed offsets counted or scanned at once, so no temporary grows with a long session
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
_LOG_HALF = math.log(0.5)  # the global false-alarm probability of a peak no fuller than its accidentals
_SQRT_2PI = math.sqrt(2 * math.pi)


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
    background_mean: float  # lambda, the accidentals expected in the fullest coarse bin at constant tag rates
    background_sigma: float  # sqrt(lambda), their Poisson sigma
    significance: float  # normal sigmas of the peak's global false-alarm probability (>= 0, finite)
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
    ends = counts.cumsum()
    return _PairRuns(first - (ends - counts), counts, ends)


def _pair_diffs(
    local: np.ndarray, remote: np.ndarray, runs: _PairRuns, start: int, stop: int, offset: int
) -> np.ndarray:
    """Differences minus offset of pairs start .. stop-1, as a fresh int64 array.

    Each pair's remote tag is gathered by index.
    """
    base, counts, ends = runs
    i = int(ends.searchsorted(start, side="right"))
    j = int(ends.searchsorted(stop - 1, side="right")) + 1
    per_tag = np.minimum(ends[i:j], stop) - np.maximum(ends[i:j] - counts[i:j], start)
    idx = np.repeat(base[i:j], per_tag)
    idx += np.arange(start, stop, dtype=np.int64)
    diffs = remote[idx]
    diffs -= np.repeat(local[i:j] + offset, per_tag)
    return diffs


class _Reach(NamedTuple):
    """The search window as two streams see it.

    The window's differences are start .. stop - 1, in coarse bins bin_lo ..
    bin_hi; lo <= hi are the smallest and largest difference the streams can
    form inside it, and every_pair whether it holds every difference they can
    form. Coarse bins and superbins count from origin, the two first tags'
    difference.
    """

    origin: int
    start: int
    stop: int
    bin_lo: int
    bin_hi: int
    lo: int
    hi: int
    every_pair: bool

    def cells(self, width: int) -> tuple[int, int]:
        """The cells of width fs, counted from origin, that lo and hi fall in."""
        return (self.lo - self.origin) // width, (self.hi - self.origin) // width


def _window_reach(local_ts: np.ndarray, remote_ts: np.ndarray, cfg: CorrelationConfig) -> _Reach:
    """The window [-search_window, search_window] as the streams see it: the one reader of search_window.

    Raises EmptyOverlapError when the streams can form no difference inside
    it, before any difference is made: streams about 2^63 fs apart form
    differences past int64.
    """
    if len(local_ts) == 0 or len(remote_ts) == 0:
        raise EmptyOverlapError("cannot correlate an empty stream")
    r0, l0, window = int(remote_ts[0]), int(local_ts[0]), cfg.search_window
    origin, lo, hi = r0 - l0, r0 - int(local_ts[-1]), int(remote_ts[-1]) - l0
    if lo > window or hi < -window:
        raise EmptyOverlapError("no pairwise differences inside the search window")
    bin_lo, bin_hi = (-window - origin) // cfg.coarse_bin, (window - origin) // cfg.coarse_bin
    every_pair = -window <= lo and hi <= window
    return _Reach(origin, -window, window + 1, bin_lo, bin_hi, max(-window, lo), min(window, hi), every_pair)


class CoarseListing(NamedTuple):
    """The window pairs of a run of coarse bins, with their sparse histogram.

    Bin i covers differences d with floor((d - origin)/coarse_bin) == i;
    origin is remote[0] - local[0]. The run is first_bin .. last_bin, the
    bins asked for clipped to those a window pair can fill. offsets holds
    each pair's bin minus first_bin, numbered as in runs. When the bins
    cover a window that holds every pair the streams can form, runs numbers
    them by rows, unsearched: local tag t owns pairs t*R .. t*R + R - 1,
    R = len(remote).
    """

    bins: np.ndarray  # occupied bin indices, ascending int64
    counts: np.ndarray  # pairs per occupied bin
    origin: int
    first_bin: int
    last_bin: int
    offsets: np.ndarray
    runs: _PairRuns

    def peak(self) -> tuple[int, int]:
        """The first bin holding the most pairs and its count; first_bin and 0 when no bin holds one."""
        if len(self.counts) == 0:
            return self.first_bin, 0
        i = int(self.counts.argmax())
        return int(self.bins[i]), int(self.counts[i])


def _runs_of_equal(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct value of a sorted array, as int64, and how many times it occurs."""
    change = np.empty(len(values) + 1, dtype=bool)
    change[0] = change[-1] = True
    np.not_equal(values[1:], values[:-1], out=change[1:-1])
    edges = change.nonzero()[0]
    counts = edges[1:] - edges[:-1]
    bins = edges[:-1]  # reuse the int64 buffer for the run values
    bins[...] = values[bins]
    return bins, counts


def _list_bins(
    local_ts: np.ndarray,
    remote_ts: np.ndarray,
    reach: _Reach,
    first_bin: int,
    bins: int,
    cfg: CorrelationConfig,
    limit: int | None = None,
) -> CoarseListing | None:
    """The listing of the window pairs of coarse bins first_bin .. first_bin + bins - 1.

    None, before any pair is made, when they number more than limit. Every
    pair's coarse-bin offset is written, block by block, into one array of
    32-bit integers, 64-bit only when more than 2**32 of the bins can hold
    a pair. Bins that cover a window holding every pair are not searched:
    each block of whole rows of local tags is one broadcast subtraction from
    the remote stream. A listing with no more bins than pairs counts its
    offsets by bin, in slices; any other sorts a copy of them and reads its
    runs of equal offsets.
    """
    reach_lo, reach_hi = reach.cells(cfg.coarse_bin)
    first, last = max(first_bin, reach_lo), min(first_bin + bins - 1, reach_hi)
    n, rows = len(remote_ts), reach.every_pair and (first, last) == (reach_lo, reach_hi)
    if rows:
        # Pairs are numbered by rows, tag t owning t*n .. t*n + n - 1, and blocks
        # take whole rows: at least one, each no longer than its remote stream.
        ends = np.arange(n, (len(local_ts) + 1) * n, n, dtype=np.int64)
        runs = _PairRuns(n - ends, np.full(len(local_ts), n, dtype=np.int64), ends)
        block_pairs = max(_BLOCK_PAIRS // n, 1) * n
    else:
        lo = reach.origin + first_bin * cfg.coarse_bin  # the first bin's first difference
        runs = _pair_runs(local_ts, remote_ts, max(reach.start, lo), min(reach.stop, lo + bins * cfg.coarse_bin))
        block_pairs = _BLOCK_PAIRS
    total = int(runs.ends[-1])
    if limit is not None and total > limit:
        return None
    # Offsets count from the first bin a pair can fill, so the shift stays in int64 for any window.
    shift, top = reach.origin + first * cfg.coarse_bin, last - first + 1
    offsets = np.empty(total, dtype=np.uint32 if last - first < 2**32 else np.uint64)
    for start in range(0, total, block_pairs):
        stop = min(start + block_pairs, total)
        out = offsets[start:stop]
        if rows:
            diffs = remote_ts - (local_ts[start // n : stop // n, None] + shift)
            out = out.reshape(diffs.shape)
        else:
            diffs = _pair_diffs(local_ts, remote_ts, runs, start, stop, shift)
        np.floor_divide(diffs, cfg.coarse_bin, out=out, casting="unsafe")
    if total and top <= total:
        # A slice is no shorter than the bins, so its dense count costs no more than
        # its int64 copy, and a listing of one slice makes one bincount.
        step = max(_SLICE_PAIRS, top)
        dense = np.bincount(offsets[:step].astype(np.intp), minlength=top)
        for start in range(step, total, step):
            dense += np.bincount(offsets[start : start + step].astype(np.intp), minlength=top)
        occupied = (dense != 0).nonzero()[0]  # nonzero of a mask is several times faster than of counts
        counts = dense[occupied]
    else:  # sort a copy: the offsets stay in pair order for the peak span
        occupied, counts = _runs_of_equal(np.sort(offsets))
    occupied += first
    return CoarseListing(occupied, counts, reach.origin, first, last, offsets, runs)


def coarse_histogram(local, remote, cfg: CorrelationConfig) -> CoarseListing:
    """The listing of every window pair, whose bins and counts are the window's sparse coarse histogram.

    Raises EmptyOverlapError when the window holds no pair.
    """
    local_ts, remote_ts = _timestamps(local), _timestamps(remote)
    reach = _window_reach(local_ts, remote_ts, cfg)
    listed = _list_bins(local_ts, remote_ts, reach, reach.bin_lo, reach.bin_hi + 1 - reach.bin_lo, cfg)
    if len(listed.offsets) == 0:
        raise EmptyOverlapError("no pairwise differences inside the search window")
    return listed


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
    local_ts: np.ndarray, remote_ts: np.ndarray, sb_lo: int, sb_hi: int, bins: int, cfg: CorrelationConfig
) -> np.ndarray:
    """An upper bound on the pairs of each superbin sb_lo .. sb_hi.

    Superbins hold bins coarse bins each (see _bounded_peak). The fold has
    the smallest 5-smooth length above the range's superbin count, so that
    no superbin of the range aliases another; a fold coarser than the floor,
    whose bounds keep a density margin, needs only a length above the
    longer stream's span in superbins plus two, when that is shorter.
    """
    width = bins * cfg.coarse_bin
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
    return c[:-1] + c[1:]


def _bounded_total(local_ts: np.ndarray, remote_ts: np.ndarray, cfg: CorrelationConfig) -> int:
    """The window's pair count when the bounded search may repay its FFTs, else 0.

    0 sends the window to the enumeration (see _bounded_peak), when the
    floor fold would exceed _MAX_SUPERBINS or the window's pairs, estimated
    and then counted, are too few.
    """
    if len(local_ts) * len(remote_ts) < _MIN_BOUND_PAIRS:  # too few pairs in any window, or none
        return 0
    reach, width = _window_reach(local_ts, remote_ts, cfg), _SUPERBIN_BINS * cfg.coarse_bin
    sb_lo, sb_hi = reach.cells(width)
    n = _fold_length(sb_hi - sb_lo + 1)
    spans = int(local_ts[-1]) - int(local_ts[0]), int(remote_ts[-1]) - int(remote_ts[0])
    if n > _MAX_SUPERBINS or width >= reach.stop or max(spans) >= INT64_LIMIT:
        return 0
    # Uniform streams would hold about this many window pairs. The estimate
    # keeps windows with few pairs per tag off the binary searches below, so
    # they are searched at most once, by coarse_histogram.
    needed = max(_MIN_BOUND_PAIRS, _PAIRS_PER_BOUND * (n + len(local_ts) + len(remote_ts)))
    if len(local_ts) * len(remote_ts) * min(1.0, (reach.stop - reach.start) / (max(spans) + 1)) < needed:
        return 0
    total = int(_pair_runs(local_ts, remote_ts, reach.start, reach.stop).ends[-1])
    return total if total >= needed else 0


def _bounded_peak(
    local_ts: np.ndarray, remote_ts: np.ndarray, cfg: CorrelationConfig, total: int | None = None
) -> tuple[int, int, CoarseListing] | None:
    """The first coarse bin with the most window pairs, its count and the bin's visit.

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
    reach = _window_reach(local_ts, remote_ts, cfg)

    def superbins(bins: int) -> int:
        sb_lo, sb_hi = reach.cells(bins * cfg.coarse_bin)
        return sb_hi - sb_lo + 1

    best = [0, 0, None]  # the first coarse bin with the most pairs in the visited superbins, its count and visit
    visited = []  # (width in coarse bins, superbin) of each enumerated superbin

    def fold(bins: int) -> tuple[int, np.ndarray]:
        """The fold's first superbin and bounds at bins, -1 where an earlier visit covers a superbin whole."""
        sb_lo, sb_hi = reach.cells(bins * cfg.coarse_bin)
        bounds = _superbin_bounds(local_ts, remote_ts, sb_lo, sb_hi, bins, cfg)
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
            visit = _list_bins(local_ts, remote_ts, reach, (sb_lo + k) * bins, bins, cfg, pairs) if visits else None
            if visit is None:
                return False
            bounds[k] = -1
            pairs, visits = pairs - len(visit.offsets), visits - 1
            visited.append((bins, sb_lo + k))
            bin_, count = visit.peak()
            raised = count > best[1]
            if raised or (count == best[1] and bin_ < best[0]):
                best[:] = bin_, count, visit
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
        window_bins = (reach.hi - reach.lo) // cfg.coarse_bin + 1
        density = max(_accidentals(local_ts, remote_ts, cfg), len(local_ts) * len(remote_ts) / window_bins)
        if search(probe, total // 8, _VISIT_BUDGET, density):
            return tuple(best)
    return tuple(best) if search(_SUPERBIN_BINS, total // 8, _VISIT_BUDGET) else None


def _accidentals(local_ts: np.ndarray, remote_ts: np.ndarray, cfg: CorrelationConfig) -> float:
    """lambda, the accidental pairs expected in the fullest coarse bin at constant tag rates.

    Tags spread evenly over each stream's span make it the flat top of a trapezoid in the difference,
    n_l*n_r*coarse_bin / max(span_l + 1, span_r + 1), and no bin holds more than n_l*n_r.
    """
    pairs = len(local_ts) * len(remote_ts)
    spans = int(local_ts[-1]) - int(local_ts[0]) + 1, int(remote_ts[-1]) - int(remote_ts[0]) + 1
    return min(pairs * cfg.coarse_bin / max(spans), float(pairs))


def _log_poisson_tail(k: int, lam: float) -> float:
    """ln P(X >= k), X Poisson of mean lam < k, by the series lam**k e**-lam / k! * sum_n lam**n / ((k+1)...(k+n))."""
    term, total, n = 1.0, 1.0, k
    while term > total * 1e-17:  # terms fall by lam/n < 1 each, until the next no longer changes the sum
        n += 1
        term *= lam / n
        total += term
    return k * math.log(lam) - lam - math.lgamma(k + 1) + math.log(total)


def _gaussian_sigmas(log_p: float) -> float:
    """The z >= 0 whose normal upper tail Q(z) is e**log_p, for log_p <= ln(1/2), and 0 above it.

    Newton's method on ln Q from z = sqrt(-2*log_p), where ln Q is below
    log_p: ln Q is concave, so no step passes the root, and a p that
    underflows a double still has its finite z. Past z = 37, where Q nears
    the smallest normal double, ln Q is its asymptotic series, within 1e-12.
    """
    if log_p >= _LOG_HALF:
        return 0.0
    z = math.sqrt(-2 * log_p)
    for _ in range(64):  # it settles within a few steps; this bounds a cycle at round-off
        if z < 37:
            log_q = math.log(0.5 * math.erfc(z / math.sqrt(2)))
        else:  # phi(z)/z * (1 - 1/z^2 + 3/z^4 - 15/z^6 + 105/z^8)
            w = 1 / (z * z)
            log_q = -0.5 * z * z - math.log(z * _SQRT_2PI) + math.log1p(-w * (1 - 3 * w * (1 - 5 * w * (1 - 7 * w))))
        step = (log_q - log_p) * math.exp(log_q + 0.5 * z * z) * _SQRT_2PI  # Newton: (ln Q)' = -phi/Q
        z += step
        if abs(step) <= 1e-14 * z:
            break
    return z


def _member_line(x: np.ndarray, d: np.ndarray, keep: np.ndarray, floor: int):
    """Iterate the member window from the seed mask keep until it settles.

    Each pass fits the least-squares line d = a + b*(x - x_mean) to the
    members and keeps the pairs within max(3 sigma, floor) of it, sigma
    being the members' RMS residual. Returns the members with the slope,
    sigma, x_mean and Sxx of their own line.
    """
    # np.add.reduce is what ndarray.sum calls, without its wrapper: the same pairwise sums.
    # Sums, not BLAS dot products, whose rounding follows the BLAS thread count.
    total = np.add.reduce
    for passes in range(1, _MAX_WINDOW_PASSES + 1):
        xk, dk = x[keep], d[keep]
        n = len(xk)
        x_mean, d_mean = total(xk) / n, total(dk) / n  # what np.mean computes, without its overhead
        xc = xk - x_mean
        sxx = float(total(xc * xc))
        slope = float(total(xc * (dk - d_mean))) / sxx if sxx > 0 else 0.0
        residuals = d - d_mean - slope * (x - x_mean)
        rk = residuals[keep]
        sigma = math.sqrt(float(total(rk * rk) / n))
        inside = np.abs(residuals) <= max(_WINDOW_SIGMAS * sigma, floor)
        if passes == _MAX_WINDOW_PASSES or not (inside != keep).any():
            return keep, slope, sigma, float(x_mean), sxx
        keep = inside


def _region_peak(
    local_ts: np.ndarray, remote_ts: np.ndarray, reach: _Reach, predicted: int, cfg: CorrelationConfig
) -> tuple[int, int, CoarseListing] | None:
    """The first coarse bin with the most pairs near a predicted difference, its count and listing.

    The region is the coarse bins within refine_span_bins +
    _RETURN_SLACK_BINS of predicted's bin, clipped to the window, enumerated
    as one visit. None, and the caller searches the window, when the region
    holds no pair or its peak lies within refine_span_bins of the region's
    edge.
    """
    half, centre = cfg.refine_span_bins, (predicted - reach.origin) // cfg.coarse_bin
    first = max(centre - half - _RETURN_SLACK_BINS, reach.bin_lo)
    bins = min(centre + half + _RETURN_SLACK_BINS, reach.bin_hi) + 1 - first
    if bins < 2 * half + 3:  # no bin lies more than half bins inside the region, or it misses the window
        return None
    visit = _list_bins(local_ts, remote_ts, reach, first, bins, cfg)
    peak_bin, count = visit.peak()
    if count == 0 or not half < peak_bin - first < bins - 1 - half:
        return None
    return peak_bin, count, visit


def cross_correlate(
    local, remote, cfg: CorrelationConfig | None = None, predicted: int | None = None
) -> CorrelationResult:
    """Locate the coincidence peak of (remote - local) differences.

    Given predicted, the difference (fs) where the peak is expected, a window
    that holds every pair or takes the bounded search is first searched only
    near it (_region_peak). A region peak that is not significant, or that
    _region_peak declines, sends the search to the whole window; a window
    enumerated by runs is searched whole at once. Raises NoPeakError when
    the best coarse bin is not significant against the accidentals of
    constant tag rates, and EmptyOverlapError when the window holds no pairs
    at all.
    """
    cfg = cfg or CorrelationConfig()
    local_ts, remote_ts = _timestamps(local), _timestamps(remote)
    reach = _window_reach(local_ts, remote_ts, cfg)
    # the window's pairs as _bounded_total counts them, once counted
    total = None if predicted is None or reach.every_pair else _bounded_total(local_ts, remote_ts, cfg)
    if predicted is not None and (reach.every_pair or total):
        found = _region_peak(local_ts, remote_ts, reach, int(predicted), cfg)
        if found is not None:
            try:
                return _peak_result(local_ts, remote_ts, cfg, reach, *found)
            except NoPeakError:
                pass
    found = _bounded_peak(local_ts, remote_ts, cfg, total)
    if found is None:
        listed = coarse_histogram(local_ts, remote_ts, cfg)
        found = *listed.peak(), listed
    return _peak_result(local_ts, remote_ts, cfg, reach, *found)


def _peak_result(
    local_ts: np.ndarray,
    remote_ts: np.ndarray,
    cfg: CorrelationConfig,
    reach: _Reach,
    peak_bin: int,
    peak_counts: int,
    listed: CoarseListing,
) -> CorrelationResult:
    """cross_correlate's result from the coarse peak and the listing that found it.

    Raises NoPeakError when the peak's significance (see the module docstring)
    is below significance_sigma. The peak span's pairs come from that listing
    when it lists them all, else from _list_bins over the span's bins.
    """
    # The bins a pair can fill, from the smallest to the largest difference the streams form in the window.
    first, last = reach.cells(cfg.coarse_bin)
    accidentals, log_p = _accidentals(local_ts, remote_ts, cfg), _LOG_HALF
    if peak_counts > accidentals:
        log_p = min(math.log(last - first + 1) + _log_poisson_tail(peak_counts, accidentals), _LOG_HALF)
    significance = _gaussian_sigmas(log_p)
    if significance < cfg.significance_sigma:
        message = f"best bin significance {significance:.2f} below threshold {cfg.significance_sigma}"
        raise NoPeakError(message, significance=significance)

    # A span reaching past every window bin from any peak is clipped to that reach.
    half = min(cfg.refine_span_bins, reach.bin_hi - reach.bin_lo)
    span_first, span_last = max(peak_bin - half, reach.bin_lo), min(peak_bin + half, reach.bin_hi)

    # The peak span's pairs, each with its local time, in the window's order.
    # They lie in those of its bins first .. last that the window's differences reach.
    first, last = max(span_first, first), min(span_last, last)
    if not (listed.first_bin <= first and last <= listed.last_bin):
        listed = _list_bins(local_ts, remote_ts, reach, span_first, span_last + 1 - span_first, cfg)
    # Selected in slices, so no temporary grows with the listing. The unsigned
    # offsets relative to the span's first bin wrap past the last for the pairs below it.
    offsets, lo, step = listed.offsets, first - listed.first_bin, _SLICE_PAIRS
    pairs = np.concatenate(
        [(offsets[s : s + step] - lo <= last - first).nonzero()[0] + s for s in range(0, len(offsets), step)]
    )
    tags = listed.runs.ends.searchsorted(pairs, side="right")
    partners = listed.runs.base[tags] + pairs
    times = local_ts[tags]
    span_lo = reach.origin + (peak_bin - half) * cfg.coarse_bin
    shifted = remote_ts[partners] - (times + span_lo)

    seed = shifted // cfg.coarse_bin == half  # the coarse peak bin's pairs
    x = (times - local_ts[0]).astype(np.float64)
    keep, slope, sigma, x_mean, sxx = _member_line(x, shifted.astype(np.float64), seed, cfg.fine_bin)
    diffs = shifted[keep]
    peak_offset = span_lo + _round_div(int(diffs.sum()), len(diffs))
    diffs += span_lo
    return CorrelationResult(
        peak_offset=peak_offset,
        peak_counts=peak_counts,
        background_mean=accidentals,
        background_sigma=math.sqrt(accidentals),
        significance=significance,
        peak_width_fs=sigma,
        histogram_summary={
            "coarse_bin_fs": cfg.coarse_bin,
            "fine_bin_fs": cfg.fine_bin,
            "span_fs": (2 * half + 1) * cfg.coarse_bin,
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
    local_a,
    remote_ab,
    local_b,
    remote_ba,
    cfg: CorrelationConfig | None = None,
    round_trip: int | None = None,
    predicted_offset: int | None = None,
) -> TwoWayResult:
    """Two-way offset, flight time and rate: each direction correlated once, then two_way_offset.

    Given round_trip, the link's T_AB + T_BA in fs, the B->A peak is
    searched first at round_trip - d_AB, where the round trip puts it
    whatever the clock offset (see cross_correlate's predicted). Given
    predicted_offset too, the clock offset (fs) that the A->B peak is
    expected to show, that peak is searched first at round_trip // 2 +
    predicted_offset.
    """
    cfg = cfg or CorrelationConfig()
    la = _timestamps(local_a)
    forward = None if round_trip is None or predicted_offset is None else round_trip // 2 + predicted_offset
    d_ab = cross_correlate(la, remote_ab, cfg, forward)
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
    times, top = members.local_times, INT64_LIMIT - 1
    cuts = times.searchsorted(np.array([min(max(e, -INT64_LIMIT), top) for e in edges], np.int64))
    if past := [k for k, e in enumerate(edges) if e > top]:
        cuts[past] = len(times)
    # sums of differences from the peak offset stay small, so they are exact
    sums = np.concatenate(([0], (members.diffs - result.peak_offset).cumsum()))[cuts].tolist()
    cuts = cuts.tolist()
    return [
        result.peak_offset + _round_div(s1 - s0, n1 - n0) if n1 > n0 else None
        for n0, n1, s0, s1 in zip(cuts, cuts[1:], sums, sums[1:])
    ]
