"""One complete two-node acquisition: both sources, both links, four streams.

Node A and node B each run a pair source, detect one photon of every pair
locally, and send the twin across the link. Cross-correlating each remote
stream against the matching local stream gives the two one-way differences
d_AB (A's pairs, detected remotely at B) and d_BA; their two-way
combination yields the clock offset theta = local_B - local_A and the
flight time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimator import CorrelationConfig, TwoWayResult, estimate_two_way
from .fields import check_fields, param
from .linkmodel import Direction, LinkModel, NotVisibleError, propagate, time_of_flight
from .photonics import Detector, PairSource, TagStream, TimeTagger, detect, generate_pair_births, split_pairs
from .seeding import SeedSpec, seed_path, spawn_rng
from .timebase import FS_PER_SECOND, INT64_LIMIT, ClockState, TimeRangeError, local_time

__all__ = [
    "NodeInstruments",
    "SessionSpec",
    "SessionTruth",
    "SessionStreams",
    "run_session",
    "estimate_session",
]


@dataclass(frozen=True)
class NodeInstruments:
    source: PairSource
    detector: Detector
    tagger: TimeTagger


@dataclass(frozen=True)
class SessionSpec:
    duration: int = param(ge=1)  # fs, acquisition window length
    instruments_a: NodeInstruments
    instruments_b: NodeInstruments
    link: LinkModel
    start_time: int = 0  # true time of window start

    __post_init__ = check_fields


@dataclass(frozen=True)
class SessionTruth:
    """Noiseless ground truth at the acquisition midpoint, for error reporting."""

    theta_fs: int  # local_B - local_A, readout noise excluded
    flight_ab_fs: int
    flight_ba_fs: int
    midpoint_fs: int
    births_a: int
    births_b: int


@dataclass(frozen=True)
class SessionStreams:
    local_a: TagStream  # A's pairs, local detection, clock A frame
    remote_ab: TagStream  # A's pairs, remote detection at B, clock B frame
    local_b: TagStream
    remote_ba: TagStream
    truth: SessionTruth
    # fs, the link model's flight_ab + flight_ba at the midpoint: the
    # ephemeris, independent of both clocks (the clock offset and any
    # nonreciprocity_bias cancel in it), as an operator would know it.
    # estimate_session uses it only to place the B->A peak search.
    round_trip_fs: int


# Per direction: the channel and frame of the local stream, then of the remote one.
_ARM_NAMES = {
    Direction.A_TO_B: ("a_local", "a", "b_from_a", "b"),
    Direction.B_TO_A: ("b_local", "b", "a_from_b", "a"),
}


def _one_source_arm(
    spec: SessionSpec,
    direction: Direction,
    births: np.ndarray,
    clock_local: ClockState,
    clock_remote: ClockState,
    seed: SeedSpec,
    metadata: dict,
) -> tuple[TagStream, TagStream]:
    """The local and remote streams of the pairs born at the sending end of direction."""
    local, remote = spec.instruments_a, spec.instruments_b
    if direction is Direction.B_TO_A:
        local, remote = remote, local
    link, window_start, duration, source = spec.link, spec.start_time, spec.duration, local.source
    local_arm, remote_arm = split_pairs(births, source, seed_path(seed) + ("split",))
    if source.heralding_efficiency_local < 1.0:
        herald_rng = spawn_rng(seed, "herald")
        local_arm = local_arm[herald_rng.random(len(local_arm)) < source.heralding_efficiency_local]
    local_arm = np.sort(local_arm, kind="stable")
    remote_arm = np.sort(remote_arm, kind="stable")

    channel_local, frame_local, channel_remote, frame_remote = _ARM_NAMES[direction]
    local_stream = detect(
        local_arm,
        local.detector,
        clock_local,
        local.tagger,
        duration,
        seed_path(seed) + ("det-local",),
        window_start=window_start,
        channel_id=channel_local,
        frame=frame_local,
        metadata=metadata,
    )
    arrivals = propagate(remote_arm, link, direction, seed_path(seed) + ("link",))
    # The remote acquisition gate covers the arrival band, one flight time
    # after the emission window; with the link occluded the gate position is
    # moot (no signal), so fall back to the emission window.
    try:
        remote_gate = window_start + time_of_flight(link, window_start, direction)
    except NotVisibleError:
        remote_gate = window_start
    remote_stream = detect(
        arrivals,
        remote.detector,
        clock_remote,
        remote.tagger,
        duration,
        seed_path(seed) + ("det-remote",),
        window_start=remote_gate,
        channel_id=channel_remote,
        frame=frame_remote,
        metadata=metadata,
    )
    return local_stream, remote_stream


def run_session(
    spec: SessionSpec,
    clock_a: ClockState,
    clock_b: ClockState,
    seed: SeedSpec,
    metadata: dict | None = None,
) -> SessionStreams:
    """Simulate the four timetag streams of one acquisition window.

    Raises TimeRangeError when the window ends past the int64 range of tag
    arrays, 2^63 fs (about 9223 s) of true time.
    """
    metadata = dict(metadata or {})
    start, duration = spec.start_time, spec.duration
    if start + duration >= INT64_LIMIT:
        raise TimeRangeError(
            f"session window ends at {(start + duration) / FS_PER_SECOND:.0f} s, past the "
            f"int64 femtosecond range of tag arrays (2^63 fs, about {INT64_LIMIT // FS_PER_SECOND} s)"
        )

    births_a = generate_pair_births(spec.instruments_a.source, duration, seed_path(seed) + ("births-a",))
    births_b = generate_pair_births(spec.instruments_b.source, duration, seed_path(seed) + ("births-b",))
    births_a = births_a + start
    births_b = births_b + start

    local_a, remote_ab = _one_source_arm(
        spec, Direction.A_TO_B, births_a, clock_a, clock_b, seed_path(seed) + ("arm-a",), metadata
    )
    local_b, remote_ba = _one_source_arm(
        spec, Direction.B_TO_A, births_b, clock_b, clock_a, seed_path(seed) + ("arm-b",), metadata
    )

    midpoint = start + duration // 2
    theta_true = local_time(clock_b, midpoint) - local_time(clock_a, midpoint)
    truth = SessionTruth(
        theta_fs=theta_true,
        flight_ab_fs=time_of_flight(spec.link, midpoint, Direction.A_TO_B),
        flight_ba_fs=time_of_flight(spec.link, midpoint, Direction.B_TO_A),
        midpoint_fs=midpoint,
        births_a=len(births_a),
        births_b=len(births_b),
    )
    return SessionStreams(
        local_a=local_a,
        remote_ab=remote_ab,
        local_b=local_b,
        remote_ba=remote_ba,
        truth=truth,
        round_trip_fs=truth.flight_ab_fs + truth.flight_ba_fs,
    )


def estimate_session(streams: SessionStreams, cfg: CorrelationConfig | None = None) -> TwoWayResult:
    """Full two-way estimate from a session's four streams, the return search placed by its round trip.

    See estimate_two_way.
    """
    return estimate_two_way(
        streams.local_a, streams.remote_ab, streams.local_b, streams.remote_ba, cfg, streams.round_trip_fs
    )
