"""SPDC pair generation and the detector/time-tagger chain.

Pair births form a homogeneous Poisson process. Each birth splits into a
local and a remote photon whose times get independent Gaussian spreads of
sigma_pair/sqrt(2), so the observable pair difference has std sigma_pair.
Detection applies, in order: efficiency thinning, Gaussian timing jitter,
dark-count injection, non-paralyzable dead-time filtering, conversion to the
detector clock's local frame, and quantization to the tagger resolution.

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

from .seeding import SeedSpec, spawn_rng
from .timebase import FS_PER_SECOND, INT64_LIMIT, ClockState, _checked_shift, local_times

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

    pair_rate: float  # pairs per second
    pair_correlation_sigma: int = 50  # fs, std of the pair time difference
    heralding_efficiency_local: float = 1.0

    def __post_init__(self):
        if not self.pair_rate > 0:
            raise ValueError("pair_rate must be > 0")
        if not 0 <= self.pair_correlation_sigma <= PAIR_CORRELATION_SIGMA_LIMIT:
            raise ValueError(f"pair_correlation_sigma must be within [0, {PAIR_CORRELATION_SIGMA_LIMIT}] fs")
        if not 0.0 <= self.heralding_efficiency_local <= 1.0:
            raise ValueError("heralding_efficiency_local must be in [0, 1]")


@dataclass(frozen=True)
class Detector:
    """Single-photon detector: efficiency, jitter, dark counts, dead time."""

    efficiency: float = 1.0
    jitter_sigma: int = 0  # fs
    dark_rate: float = 0.0  # counts per second
    dead_time: int = 0  # fs

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("efficiency must be in [0, 1]")
        if not 0 <= self.jitter_sigma <= FS_PER_SECOND:
            raise ValueError("jitter_sigma must be in [0, 10^15] fs")
        if self.dark_rate < 0:
            raise ValueError("dark_rate must be >= 0")
        if self.dead_time < 0:
            raise ValueError("dead_time must be >= 0")


@dataclass(frozen=True)
class TimeTagger:
    """Time-tagging back end: quantization resolution and optional range."""

    resolution: int = 1000  # fs
    range_limit: int | None = None  # drop tags with |local time| beyond this

    def __post_init__(self):
        if not 1 <= self.resolution < INT64_LIMIT:
            raise ValueError("resolution must be in [1, 2^63) fs")
        if self.range_limit is not None and self.range_limit <= 0:
            raise ValueError("range_limit must be positive when set")


@dataclass(frozen=True)
class TagStream:
    """Sorted detection timestamps on one channel, in that channel's clock frame."""

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
        if np.any(ts[1:] <= ts[:-1]):  # compare neighbours: np.diff can wrap in int64
            raise ValueError(f"channel {self.channel_id}: timestamps must be strictly sorted")
        if len(ts) and np.any(ts % self.resolution_fs != 0):
            raise ValueError(
                f"channel {self.channel_id}: timestamps not quantized to {self.resolution_fs} fs"
            )

    def __len__(self) -> int:
        return len(self.timestamps)


def _poisson_times(rate_per_s: float, horizon_fs: int, seed: SeedSpec, stream: str) -> np.ndarray:
    """Sorted event times of a homogeneous Poisson process on [0, horizon).

    The generator of the named sub-stream of seed is derived only when an
    event can occur.
    """
    if horizon_fs < 0:
        raise ValueError("horizon must be >= 0")
    expected = float(rate_per_s * horizon_fs) / FS_PER_SECOND  # a float product for int rates too
    if expected > MAX_EXPECTED_EVENTS:
        raise ValueError(f"expected event count {expected:.3g} exceeds {MAX_EXPECTED_EVENTS}")
    if horizon_fs == 0 or rate_per_s == 0.0:
        return np.empty(0, dtype=np.int64)
    rng = spawn_rng(seed, stream)
    count = rng.poisson(expected)
    # Conditioned on the count, event times are iid uniform over the horizon
    # (order-statistics construction of the Poisson process).
    times = rng.uniform(0.0, float(horizon_fs), count)
    times.sort()
    out = times.astype(np.int64)
    return out[out < horizon_fs]


def generate_pair_births(source: PairSource, horizon: int, seed: SeedSpec) -> np.ndarray:
    """Pair birth times (true time, int64 fs) over [0, horizon)."""
    return _poisson_times(source.pair_rate, horizon, seed, "pair-births")


def split_pairs(
    births: np.ndarray, source: PairSource, seed: SeedSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Local and remote photon emission times for each birth.

    Each arm gets an independent Gaussian(0, sigma_pair/sqrt(2)) shift, so
    local - remote has std sigma_pair. Outputs are index-aligned with
    ``births`` (not re-sorted).
    """
    births = np.asarray(births, dtype=np.int64)
    if source.pair_correlation_sigma == 0 or len(births) == 0:
        return births.copy(), births.copy()
    rng = spawn_rng(seed, "pair-split")
    arm_sigma = source.pair_correlation_sigma / np.sqrt(2.0)
    shifts = np.round(rng.normal(0.0, arm_sigma, (2, len(births)))).astype(np.int64)
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
    seed: SeedSpec,
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
    identical stamps.
    """
    arrivals = np.asarray(photon_arrivals_true, dtype=np.int64)
    if np.any(arrivals[1:] < arrivals[:-1]):
        raise ValueError("photon arrivals must be sorted")

    if detector.efficiency < 1.0:
        thin_rng = spawn_rng(seed, "detect-thin")
        arrivals = arrivals[thin_rng.random(len(arrivals)) < detector.efficiency]
    if detector.jitter_sigma > 0 and len(arrivals):
        jitter_rng = spawn_rng(seed, "detect-jitter")
        jitter = np.round(jitter_rng.normal(0.0, detector.jitter_sigma, len(arrivals))).astype(np.int64)
        arrivals = _checked_shift(arrivals, jitter)

    darks = _poisson_times(detector.dark_rate, horizon, seed, "detect-dark")
    merged = np.concatenate((arrivals, _checked_shift(darks, window_start)))
    merged.sort(kind="stable")
    merged = _dead_time_filter(merged, detector.dead_time)

    readout_rng = spawn_rng(seed, "detect-readout") if clock.model.white_phase_sigma_fs > 0 else None
    local = local_times(clock, merged, rng=readout_rng)
    local.sort(kind="stable")  # clock noise can reorder near-simultaneous events
    quantized = (local // tagger.resolution) * tagger.resolution
    if tagger.range_limit is not None:
        quantized = quantized[np.abs(quantized) <= tagger.range_limit]
    if len(quantized) > 1:  # sorted, so equal stamps are neighbours
        quantized = quantized[np.concatenate(([True], quantized[1:] != quantized[:-1]))]

    return TagStream(
        channel_id=channel_id,
        timestamps=quantized,
        frame=frame,
        resolution_fs=tagger.resolution,
        metadata=dict(metadata or {}),
    )
