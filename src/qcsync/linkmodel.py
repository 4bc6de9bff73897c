"""Space-ground optical channel: geometry, delays, loss, and rate offsets.

Geometry is either a fixed point-to-point range or a circular Keplerian
orbit over a rotating spherical Earth, evaluated in an Earth-centered
inertial frame. Flight times solve the light-time equation (receiver
position at arrival) and optionally add the Shapiro delay. Deliberate
non-reciprocity is a constant signed bias split across the two directions.
The physical constants (c, the Earth's GM, radius and rotation rate) are
module constants in SI units.

Convention: direction A_TO_B points from the ground-side endpoint to the
space-side endpoint (for the static variant the two endpoints are symmetric
interchangeable points).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fields import check_fields, param
from .seeding import SeedSpec, spawn_rng
from .timebase import FS_PER_SECOND, INT64_LIMIT, TimeRangeError, _checked_shift

__all__ = [
    "SPEED_OF_LIGHT",
    "GM_EARTH",
    "EARTH_RADIUS",
    "EARTH_ROTATION_RATE",
    "GroundStation",
    "StaticRange",
    "CircularOrbit",
    "ALTITUDE_LIMIT",
    "GeometryScenario",
    "LinkModel",
    "Direction",
    "GeometryError",
    "NotVisibleError",
    "LightTimeConvergenceError",
    "orbital_period",
    "relativistic_rate_offset",
    "time_of_flight",
    "propagate",
    "visibility_windows",
]


SPEED_OF_LIGHT = 299792458.0  # m/s
GM_EARTH = 3.986004418e14  # m^3/s^2
EARTH_RADIUS = 6371000.0  # m
EARTH_ROTATION_RATE = 7.2921159e-5  # rad/s
# m, the distance light covers in 2^63 fs: no flight from an orbit this high
# fits int64, and far higher ones overflow the orbit's float mean motion
ALTITUDE_LIMIT = SPEED_OF_LIGHT * INT64_LIMIT / FS_PER_SECOND


class GeometryError(ValueError):
    """Geometry variant does not support the requested operation."""


class NotVisibleError(RuntimeError):
    """Satellite below the elevation mask at the requested time."""


class LightTimeConvergenceError(RuntimeError):
    """Light-time iteration failed to converge within the iteration budget."""


@dataclass(frozen=True)
class GroundStation:
    lat: float = param(0.0, unit="_rad")
    lon: float = param(0.0, unit="_rad")
    alt: float = param(0.0, unit="_m", gt=-EARTH_RADIUS)  # above the Earth's centre

    __post_init__ = check_fields


@dataclass(frozen=True)
class StaticRange:
    """Fixed separation between the two endpoints."""

    range_m: float = param(gt=0)

    __post_init__ = check_fields


@dataclass(frozen=True)
class CircularOrbit:
    """Circular Keplerian orbit plus the ground station it talks to."""

    altitude: float = param(unit="_m", gt=100_000, lt=ALTITUDE_LIMIT)  # above earth_radius
    inclination: float = param(0.0, unit="_rad")
    raan: float = param(0.0, unit="_rad")
    phase0: float = param(0.0, unit="_rad")  # argument of latitude at t=0
    ground_station: GroundStation = GroundStation()
    elevation_mask: float = param(math.radians(10.0), unit="_rad", ge=0, lt=math.pi / 2)

    __post_init__ = check_fields


GeometryScenario = StaticRange | CircularOrbit


class Direction(enum.Enum):
    A_TO_B = "AtoB"  # ground-side -> space-side
    B_TO_A = "BtoA"

    @property
    def bias_sign(self) -> int:
        return 1 if self is Direction.A_TO_B else -1


@dataclass(frozen=True)
class LinkModel:
    geometry: GeometryScenario
    transmittance: float = param(1.0, gt=0, le=1)
    channel_jitter_sigma: int = param(0, unit="_fs", ge=0, le=FS_PER_SECOND)
    nonreciprocity_bias: int = param(0, unit="_fs")  # A->B minus B->A flight-time asymmetry
    include_shapiro: bool = False

    __post_init__ = check_fields


def _station_positions(gs: GroundStation, t_s: np.ndarray) -> np.ndarray:
    r = EARTH_RADIUS + gs.alt
    phi = gs.lon + EARTH_ROTATION_RATE * t_s
    cos_lat = math.cos(gs.lat)
    return r * np.stack(
        (cos_lat * np.cos(phi), cos_lat * np.sin(phi), np.full_like(phi, math.sin(gs.lat))),
        axis=-1,
    )


def _satellite_positions(orbit: CircularOrbit, t_s: np.ndarray) -> np.ndarray:
    a = EARTH_RADIUS + orbit.altitude
    n = math.sqrt(GM_EARTH / a**3)
    u = orbit.phase0 + n * t_s
    cu, su = np.cos(u), np.sin(u)
    ci, si = math.cos(orbit.inclination), math.sin(orbit.inclination)
    co, so = math.cos(orbit.raan), math.sin(orbit.raan)
    x = a * (co * cu - so * ci * su)
    y = a * (so * cu + co * ci * su)
    z = a * (si * su)
    return np.stack((x, y, z), axis=-1)


class _Geometry(NamedTuple):
    """The geometry at an array of true times; a static range has scalar fields."""

    range_m: np.ndarray
    elevation: np.ndarray  # rad; pi/2 for the static variant
    visible: np.ndarray
    r_station_m: np.ndarray
    r_sat_m: np.ndarray
    station: np.ndarray | None  # (..., 3) ECI positions; None for the static variant
    sat: np.ndarray | None


def _geometry_at(geometry: GeometryScenario, t_s: np.ndarray) -> _Geometry:
    """Range, elevation, visibility, endpoint radii and positions at true times t_s (s).

    A static range is the same at every time: its fields are scalars that
    broadcast against t_s, so it builds no per-time arrays. It has no endpoint
    radii of its own; a vertical path from the surface keeps the Shapiro term
    defined and direction-symmetric.
    """
    if isinstance(geometry, StaticRange):
        r1, r = EARTH_RADIUS, geometry.range_m
        return _Geometry(r, math.pi / 2, np.True_, r1, r1 + r, None, None)
    station = _station_positions(geometry.ground_station, t_s)
    sat = _satellite_positions(geometry, t_s)
    los = sat - station
    range_m = np.linalg.norm(los, axis=-1)
    r_station = np.linalg.norm(station, axis=-1)
    sin_el = np.sum(station / r_station[..., None] * los, axis=-1) / range_m
    elevation = np.arcsin(np.clip(sin_el, -1.0, 1.0))
    visible = elevation >= geometry.elevation_mask
    return _Geometry(range_m, elevation, visible, r_station, np.linalg.norm(sat, axis=-1), station, sat)


def orbital_period(geometry: CircularOrbit) -> float:
    """Keplerian period 2*pi*sqrt(a^3/GM) in seconds."""
    if not isinstance(geometry, CircularOrbit):
        raise GeometryError("orbital_period requires the circular-orbit variant")
    a = EARTH_RADIUS + geometry.altitude
    return 2.0 * math.pi * math.sqrt(a**3 / GM_EARTH)


def _shapiro_fs(r1, r2, straight_range):
    """General-relativistic extra delay (2GM/c^3)ln((r1+r2+R)/(r1+r2-R)), in fs, for scalars or arrays.

    A float, because the quantity is sub-fs-resolvable; callers round once
    when composing it into an integer flight time.
    """
    factor = 2.0 * GM_EARTH / SPEED_OF_LIGHT**3 * FS_PER_SECOND
    return factor * np.log((r1 + r2 + straight_range) / (r1 + r2 - straight_range))


def relativistic_rate_offset(geometry: CircularOrbit) -> float:
    """Fractional rate of the satellite clock relative to a ground clock.

    y = GM/c^2 (1/R_ground - 1/r_sat) - v^2/(2 c^2) with v the circular
    orbital speed; positive means the satellite clock runs fast (potential
    term beats time dilation, as for MEO and above).
    """
    if not isinstance(geometry, CircularOrbit):
        raise GeometryError("relativistic_rate_offset requires the circular-orbit variant")
    r_sat = EARTH_RADIUS + geometry.altitude
    r_ground = EARTH_RADIUS + geometry.ground_station.alt
    gm_c2 = GM_EARTH / SPEED_OF_LIGHT**2
    potential = gm_c2 * (1.0 / r_ground - 1.0 / r_sat)
    velocity = gm_c2 / (2.0 * r_sat)  # v^2/(2c^2) for circular speed v = sqrt(GM/r)
    return potential - velocity


def _light_time_flights_s(
    orbit: CircularOrbit, geo: _Geometry, emit_t_s: np.ndarray, direction: Direction
) -> np.ndarray:
    """Flight times in seconds solving the light-time equation per photon.

    geo holds both endpoints at emit time; only the receiver is evaluated again,
    at each estimate of the arrival time.
    """
    if direction is Direction.A_TO_B:
        emitter = geo.station

        def receiver_at(t_s):
            return _satellite_positions(orbit, t_s)

    else:
        emitter = geo.sat

        def receiver_at(t_s):
            return _station_positions(orbit.ground_station, t_s)

    tau = geo.range_m / SPEED_OF_LIGHT
    for _ in range(5):
        new_tau = np.linalg.norm(receiver_at(emit_t_s + tau) - emitter, axis=-1) / SPEED_OF_LIGHT
        step = np.max(np.abs(new_tau - tau)) if len(tau) else 0.0
        tau = new_tau
        if step < 1e-15:
            return tau
    raise LightTimeConvergenceError("light-time iteration exceeded 5 iterations")


def _flight_times_fs(link: LinkModel, emit_fs: np.ndarray, direction: Direction) -> tuple[np.ndarray, np.ndarray]:
    """Integer flight times and the emit-time visibility mask, broadcast against emit_fs.

    emit_fs is int64, or float64 for a grid that reaches past 2^63 fs; emit
    seconds are emit_fs / FS_PER_SECOND. A static range has one flight for
    every photon (``_static_flight_fs``), so both results are scalars and no
    per-photon array is built.
    """
    geometry = link.geometry
    if isinstance(geometry, StaticRange):
        return _static_flight_fs(link, direction), np.True_
    emit_t_s = emit_fs / FS_PER_SECOND
    geo = _geometry_at(geometry, emit_t_s)
    flights_s = _light_time_flights_s(geometry, geo, emit_t_s, direction)
    total_fs = flights_s * FS_PER_SECOND + direction.bias_sign * link.nonreciprocity_bias / 2.0
    if link.include_shapiro:
        total_fs = total_fs + _shapiro_fs(geo.r_station_m, geo.r_sat_m, geo.range_m)
    return _rounded_fs(total_fs), geo.visible


@functools.lru_cache(maxsize=256)
def _static_flight_fs(link: LinkModel, direction: Direction) -> np.int64:
    """The flight time of a static range, computed once per link and direction."""
    geo = _geometry_at(link.geometry, 0.0)
    total_fs = geo.range_m / SPEED_OF_LIGHT * FS_PER_SECOND
    if link.include_shapiro:
        total_fs += _shapiro_fs(geo.r_station_m, geo.r_sat_m, geo.range_m)
    return _rounded_fs(total_fs + direction.bias_sign * link.nonreciprocity_bias / 2.0)


def _rounded_fs(total_fs):
    if not (np.abs(total_fs) < INT64_LIMIT).all():
        raise TimeRangeError("flight time outside the int64 femtosecond range (|t| < 2^63 fs)")
    return np.rint(total_fs).astype(np.int64)


def time_of_flight(link: LinkModel, true_emit_time: int, direction: Direction) -> int:
    """One-way flight time in integer fs for a photon emitted at true_emit_time."""
    flights, visible = _flight_times_fs(link, np.array([true_emit_time], dtype=np.int64), direction)
    if not visible.item():
        raise NotVisibleError(f"link not visible at emit time {true_emit_time} fs")
    return flights.item()


def propagate(stream_true: np.ndarray, link: LinkModel, direction: Direction, seed: SeedSpec) -> np.ndarray:
    """Send photons across the link: loss, flight-time shift, channel jitter.

    Photons emitted while the link is occluded are dropped. Output is the
    sorted true arrival times at the far end.
    """
    photons = np.asarray(stream_true, dtype=np.int64)
    if np.any(photons[1:] < photons[:-1]):  # compare neighbours: np.diff can wrap in int64
        raise ValueError("input stream must be sorted")
    if link.transmittance < 1.0:
        rng = spawn_rng(seed, "link-thin")
        photons = photons[rng.random(len(photons)) < link.transmittance]
    flights, visible = _flight_times_fs(link, photons, direction)
    if np.ndim(visible):  # a static range is always visible
        photons, flights = photons[visible], flights[visible]
    shifts = [flights]
    if link.channel_jitter_sigma > 0 and len(photons):
        rng = spawn_rng(seed, "link-jitter")
        shifts.append(np.round(rng.normal(0.0, link.channel_jitter_sigma, len(photons))).astype(np.int64))
    arrived = _checked_shift(photons, *shifts)
    arrived.sort(kind="stable")
    return arrived


def visibility_windows(geometry: GeometryScenario, start_fs: int, end_fs: int, step_fs: int) -> list[dict]:
    """Contiguous visible intervals on a sampling grid, with peak elevation.

    The grid runs from start_fs in steps of step_fs up to end_fs and is
    evaluated in float seconds, so it may reach past 2^63 fs. Each entry
    reports start_s and end_s, the first and the last visible grid sample of
    the window, and max_elevation_deg. A static range is visible throughout:
    one window from start_fs to end_fs.
    """
    if step_fs <= 0:
        raise ValueError("step_fs must be positive")
    if end_fs < start_fs:
        raise ValueError("end_fs must be >= start_fs")
    count = (end_fs - start_fs) // step_fs + 1
    t_s = (start_fs + step_fs * np.arange(count, dtype=np.float64)) / FS_PER_SECOND
    geo = _geometry_at(geometry, t_s)
    if np.ndim(geo.visible) == 0:  # a static range: the same at every time
        peak = float(np.degrees(geo.elevation))
        start_s, end_s = start_fs / FS_PER_SECOND, end_fs / FS_PER_SECOND
        return [{"start_s": start_s, "end_s": end_s, "max_elevation_deg": peak}]
    # window starts and one-past-ends, alternating
    edges = np.flatnonzero(np.diff(geo.visible, prepend=False, append=False))
    # Each reduction runs from a window's start to the next edge; past a last
    # window's end it meets only samples below the mask, which cannot raise its peak.
    peaks = np.degrees(np.maximum.reduceat(geo.elevation, edges[:-1])[::2]) if len(edges) else ()
    return [
        {"start_s": float(t_s[i]), "end_s": float(t_s[j - 1]), "max_elevation_deg": float(peak)}
        for i, j, peak in zip(edges[::2], edges[1::2], peaks)
    ]
