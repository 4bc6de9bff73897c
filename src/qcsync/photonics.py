"""SPDC pair generation and the detector/time-tagger chain.

Pair births form a homogeneous Poisson process. Each birth splits into a
local and a remote photon whose times get independent Gaussian spreads of
sigma_pair/sqrt(2), so the observable pair difference has std sigma_pair.
Detection applies, in order: efficiency thinning, Gaussian timing jitter,
dark-count injection, non-paralyzable dead-time filtering, conversion to the
detector clock's local frame, and quantization to the tagger resolution.

Every function here draws from a generator its caller passes in, in a fixed
order: births take their count and then their times, the split one shift
per arm and birth, and ``detect`` its thinning, its jitter, its dark count
and dark times, then the clock's readout noise. A step with nothing to draw
(unit efficiency, no jitter, no dark rate, an empty array, a noiseless clock)
leaves the generator untouched, so it does not move the steps after it.

The dead-time filter is array code: events that follow their predecessor by
at least the dead time start clusters and are always accepted, and the
accepted chain inside every cluster is followed with one searchsorted step
per link across all clusters at once.

Streams are held as sorted int64 femtosecond arrays, which bounds usable
true and local times to about +-2.5 hours from the epoch; an arrival or a
reading beyond that raises ``TimeRangeError``. The exact clock mapping and
its range checks live in timebase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import ConfigError, check_fields, param
from .timebase import (
    FS_PER_SECOND,
    INT64_LIMIT,
    ClockState,
    TimeRangeError,
    _checked_shift,
    _past_tag_range,
    local_times,
)

__all__ = [
    "PairSource",
    "Detector",
    "TimeTagger",
    "TagStream",
    "generate_pair_births",
    "split_pairs",
    "detect",
    "MAX_EXPECTED_EVENTS",
    "PAIR_CORRELATION_SIGMA_LIMIT",
]

MAX_EXPECTED_EVENTS = 10**9  # resource guard on Poisson generation
PAIR_CORRELATION_SIGMA_LIMIT = 10**6  # fs, largest pair_correlation_sigma (1 ns)


@dataclass(frozen=True)
class PairSource:
    """Entangled-pair source: rate, pair correlation width, heralding."""

    pair_rate: float = param(unit="_hz", gt=0)  # pairs per second
    # std of the pair time difference
    pair_correlation_sigma: int = param(50, unit="_fs", ge=0, le=PAIR_CORRELATION_SIGMA_LIMIT)
    heralding_efficiency_local: float = param(1.0, ge=0, le=1)

    __post_init__ = check_fields


@dataclass(frozen=True)
class Detector:
    """Single-photon detector: efficiency, jitter, dark counts, dead time."""

    efficiency: float = param(1.0, ge=0, le=1)
    jitter_sigma: int = param(0, unit="_fs", ge=0, le=FS_PER_SECOND)
    dark_rate: float = param(0.0, unit="_hz", ge=0)  # counts per second
    dead_time: int = param(0, unit="_fs", ge=0)

    __post_init__ = check_fields


@dataclass(frozen=True)
class TimeTagger:
    """Time-tagging back end: quantization resolution and optional range."""

    resolution: int = param(1000, unit="_fs", ge=1, lt=INT64_LIMIT)
    range_limit: int | None = param(None, unit="_fs", gt=0)  # drop tags with |local time| beyond this

    __post_init__ = check_fields


@dataclass(frozen=True)
class TagStream:
    """Sorted detection timestamps on one channel, in that channel's clock frame.

    Constructing a stream checks its timestamps: int64, strictly increasing
    and multiples of resolution_fs. Streams read from tag files and built
    from user arrays take that check. ``detect`` builds its stream through
    ``_unchecked``, which skips it: its own steps sort, quantize and dedupe the
    readings, and it raises TimeRangeError before quantization could wrap.
    """

    channel_id: str
    timestamps: np.ndarray  # int64 fs, strictly increasing
    frame: str = ""
    resolution_fs: int = 1
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.int64)
        object.__setattr__(self, "timestamps", ts)
        if not 1 <= self.resolution_fs < INT64_LIMIT:
            raise ValueError("resolution_fs must be in [1, 2^63)")
        if (ts[1:] <= ts[:-1]).any():  # compare neighbours: np.diff can wrap in int64
            raise ValueError(f"channel {self.channel_id}: timestamps must be strictly sorted")
        if len(ts) and (ts % self.resolution_fs != 0).any():
            raise ValueError(
                f"channel {self.channel_id}: timestamps not quantized to {self.resolution_fs} fs"
            )

    @classmethod
    def _unchecked(cls, channel_id: str, timestamps: np.ndarray, frame: str, resolution_fs: int, metadata: dict):
        """A stream whose int64 timestamps its maker has sorted, deduped and quantized: not checked again."""
        stream = object.__new__(cls)
        stream.__dict__.update(
            channel_id=channel_id, timestamps=timestamps, frame=frame, resolution_fs=resolution_fs, metadata=metadata
        )
        return stream

    def __len__(self) -> int:
        return len(self.timestamps)


def _poisson_times(rate_per_s: float, horizon_fs: int, rng: np.random.Generator) -> np.ndarray:
    """Sorted event times of a homogeneous Poisson process on [0, horizon).

    Draws the count, then the times, from rng, and nothing where no event
    can occur.
    """
    if horizon_fs < 0:
        raise ValueError("horizon must be >= 0")
    expected = float(rate_per_s * horizon_fs) / FS_PER_SECOND  # a float product for int rates too
    if expected > MAX_EXPECTED_EVENTS:
        raise ConfigError(f"expected event count {expected:.3g} exceeds {MAX_EXPECTED_EVENTS}")
    if horizon_fs == 0 or rate_per_s == 0.0:
        return np.empty(0, dtype=np.int64)
    count = rng.poisson(expected)
    # Conditioned on the count, event times are iid uniform over the horizon
    # (order-statistics construction of the Poisson process).
    times = rng.uniform(0.0, float(horizon_fs), count)
    times.sort()
    out = times.astype(np.int64)
    return out[out < horizon_fs]


def generate_pair_births(source: PairSource, horizon: int, rng: np.random.Generator) -> np.ndarray:
    """Pair birth times (true time, int64 fs) over [0, horizon)."""
    return _poisson_times(source.pair_rate, horizon, rng)


def split_pairs(
    births: np.ndarray, source: PairSource, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Local and remote photon emission times for each birth.

    Each arm gets an independent Gaussian(0, sigma_pair/sqrt(2)) shift, so
    local - remote has std sigma_pair. Outputs are index-aligned with
    ``births`` (not re-sorted).
    """
    births = np.asarray(births, dtype=np.int64)
    if source.pair_correlation_sigma == 0 or len(births) == 0:
        return births.copy(), births.copy()
    arm_sigma = source.pair_correlation_sigma / np.sqrt(2.0)
    shifts = rng.normal(0.0, arm_sigma, (2, len(births))).round().astype(np.int64)
    return births + shifts[0], births + shifts[1]


def _dead_time_filter(times: np.ndarray, dead_time: int) -> np.ndarray:
    """Non-paralyzable dead time: an accepted event blocks the next dead_time fs.

    An event at least dead_time after its predecessor starts a cluster and is
    always accepted. Inside a cluster the next accepted event is the first at
    or after (accepted + dead_time); the chains of all clusters are followed
    together, one searchsorted step per link. Gaps and sums are taken on the
    uint64 view of the times, where they are exact: a gap is below 2^64, and
    a chain is only extended while accepted + dead_time is at most the last
    time, so that sum fits in int64.
    """
    if dead_time == 0 or len(times) < 2:
        return times
    if dead_time > int(times[-1]) - int(times[0]):  # the first event blocks all others
        return times[:1]
    u, d = times.view(np.uint64), np.uint64(dead_time)
    keep = np.concatenate(([True], u[1:] - u[:-1] >= d))  # cluster starts
    if keep.all():
        return times
    starts = np.flatnonzero(keep)
    ends = np.append(starts[1:], len(times))  # one past each cluster's last event
    chained = ends - starts > 1  # a lone event has nothing to chase
    fronts, ends = starts[chained], ends[chained]
    while len(fronts):
        reachable = u[-1] - u[fronts] >= d  # else accepted + dead_time is past the last time
        fronts, ends = fronts[reachable], ends[reachable]
        fronts = np.searchsorted(times, (u[fronts] + d).view(np.int64))
        inside = fronts < ends
        fronts, ends = fronts[inside], ends[inside]
        keep[fronts] = True
    return times[keep]


def detect(
    photon_arrivals_true: np.ndarray,
    detector: Detector,
    clock: ClockState,
    tagger: TimeTagger,
    horizon: int,
    rng: np.random.Generator,
    *,
    window_start: int = 0,
    channel_id: str = "",
    frame: str = "",
    metadata: dict | None = None,
) -> TagStream:
    """Turn true-time photon arrivals into a local-frame timetag stream.

    Chain: efficiency thinning, Gaussian jitter, dark counts uniform over
    [window_start, window_start + horizon), merge and sort, non-paralyzable
    dead-time filter (in true time), clock conversion, quantization (floor
    to resolution), and a final dedupe because a tagger cannot emit two
    identical stamps. Thinning, jitter, the darks and the clock's readout
    noise draw from rng in that order.
    """
    arrivals = np.asarray(photon_arrivals_true, dtype=np.int64)
    if (arrivals[1:] < arrivals[:-1]).any():
        raise ValueError("photon arrivals must be sorted")

    if detector.efficiency < 1.0:
        arrivals = arrivals[rng.random(len(arrivals)) < detector.efficiency]
    reordered = False  # whether jitter or darks made arrivals a fresh array out of order
    if detector.jitter_sigma > 0 and len(arrivals):
        jitter = rng.normal(0.0, detector.jitter_sigma, len(arrivals)).round().astype(np.int64)
        arrivals, reordered = _checked_shift(arrivals, jitter), True

    darks = _poisson_times(detector.dark_rate, horizon, rng)
    if len(darks):
        arrivals, reordered = np.concatenate((arrivals, _checked_shift(darks, window_start))), True
    if reordered:
        arrivals.sort(kind="stable")
    merged = _dead_time_filter(arrivals, detector.dead_time)

    local = local_times(clock, merged, rng=rng)
    local.sort(kind="stable")  # clock noise can reorder near-simultaneous events
    resolution = tagger.resolution
    # Flooring moves a reading down by less than one resolution, so only the
    # first, smallest one can fall below int64, where the product would wrap.
    if len(local) and int(local[0]) // resolution * resolution < -INT64_LIMIT:
        raise TimeRangeError(_past_tag_range(f"clock reading {int(local[0])} fs floors to a {resolution} fs tag"))
    quantized = (local // resolution) * resolution
    if tagger.range_limit is not None:
        # Both bounds, not np.abs, which wraps -2^63 to itself.
        quantized = quantized[(-tagger.range_limit <= quantized) & (quantized <= tagger.range_limit)]
    if len(quantized) > 1:  # sorted, so equal stamps are neighbours
        quantized = quantized[np.concatenate(([True], quantized[1:] != quantized[:-1]))]
    return TagStream._unchecked(channel_id, quantized, frame, resolution, dict(metadata or {}))
