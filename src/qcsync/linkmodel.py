"""Space-ground optical channel: geometry, delays, loss, and rate offsets.

Geometry is either a fixed point-to-point range or a circular Keplerian
orbit over a rotating spherical Earth, evaluated in an Earth-centered
inertial frame. Flight times solve the light-time equation (receiver
position at arrival) and optionally add the Shapiro delay. Deliberate
non-reciprocity is a constant signed bias split across the two directions.
The physical constants (c, the Earth's GM, radius and rotation rate) are
module constants in SI units.

Orbit geometry (endpoint positions, their distance and sin(elevation)) is
written once over a number module: numpy evaluates it for an array of times
(visibility windows, the sample grid of `qcsync relativity`), math for one
time in Python floats. An orbit flight is one scalar solve at one emit time
(`_knot`): the light-time iteration to convergence, the bias half and the
Shapiro term. `time_of_flight` rounds that solve. `propagate` defines each
photon's flight as the rounded value of a piecewise quadratic through such
solves at knots half a piece apart, each piece at most
`_Motion.longest_span_s` long (about 1.19 ms on a 550 km LEO link), so that
its truncation stays below `_TRUNCATION_FS`. A photon whose flight lies
within about 1e-3 fs of a half-fs, plus the solves' float noise (up to about
0.005 fs over leo_demo's first pass, 0.04 fs over its second), may therefore
round 1 fs away from `time_of_flight` at its emit time. Visibility is sin(elevation) >=
math.sin(mask); `propagate` takes it from the knots where each clears the
mask by a margin, from each photon otherwise.

Convention: direction A_TO_B points from the ground-side endpoint to the
space-side endpoint (for the static variant the two endpoints are symmetric
interchangeable points).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

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
    # above the Earth's centre, and below the orbit altitude bound: a station
    # higher than light covers in 2^63 fs has no flight that fits int64
    alt: float = param(0.0, unit="_m", gt=-EARTH_RADIUS, lt=ALTITUDE_LIMIT)

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


@functools.lru_cache(maxsize=256)
def _positions(orbit: CircularOrbit, m) -> tuple[Callable, Callable]:
    """orbit's station and satellite ECI positions (m) as (x, y, z), each a function of true time t_s (s) in m."""
    cos, sin = m.cos, m.sin
    gs = orbit.ground_station
    r, cos_lat = EARTH_RADIUS + gs.alt, math.cos(gs.lat)
    z_station = r * math.sin(gs.lat)
    a = EARTH_RADIUS + orbit.altitude
    n = math.sqrt(GM_EARTH / a**3)
    ci, si = math.cos(orbit.inclination), math.sin(orbit.inclination)
    co, so = math.cos(orbit.raan), math.sin(orbit.raan)
    so_ci, co_ci = so * ci, co * ci

    def station_at(t_s):
        phi = gs.lon + EARTH_ROTATION_RATE * t_s
        return r * (cos_lat * cos(phi)), r * (cos_lat * sin(phi)), z_station

    def sat_at(t_s):
        u = orbit.phase0 + n * t_s
        cu, su = cos(u), sin(u)
        return a * (co * cu - so_ci * su), a * (so * cu + co_ci * su), a * (si * su)

    return station_at, sat_at


_ORIGIN = (0.0, 0.0, 0.0)


def _distance(p, q, m):
    """|p - q|, summed (dx² + dy²) + dz²."""
    dx, dy, dz = p[0] - q[0], p[1] - q[1], p[2] - q[2]
    return m.sqrt(dx * dx + dy * dy + dz * dz)


def _sin_elevation(station, sat, range_m, m):
    """sin(elevation) of sat seen from station: the line of sight on the station's vertical, over range_m."""
    r_station = _distance(station, _ORIGIN, m)
    (gx, gy, gz), (sx, sy, sz) = station, sat
    return (gx / r_station * (sx - gx) + gy / r_station * (sy - gy) + gz / r_station * (sz - gz)) / range_m


def _visible(orbit: CircularOrbit, sin_el):
    """Whether the satellite clears the mask; floats and arrays meet the same math.sin bound."""
    return sin_el >= math.sin(orbit.elevation_mask)


class _Geometry(NamedTuple):
    """The geometry at an array of true times; a static range has scalar fields."""

    range_m: np.ndarray
    elevation: np.ndarray  # rad; pi/2 for the static variant
    visible: np.ndarray
    r_station_m: np.ndarray
    r_sat_m: np.ndarray


def _geometry_at(geometry: GeometryScenario, t_s: np.ndarray) -> _Geometry:
    """Range, elevation, visibility and endpoint radii at true times t_s (s).

    A static range is the same at every time: its fields are scalars that
    broadcast against t_s, so it builds no per-time arrays. It has no endpoint
    radii of its own; a vertical path from the surface keeps the Shapiro term
    defined and direction-symmetric.
    """
    if isinstance(geometry, StaticRange):
        r1, r = EARTH_RADIUS, geometry.range_m
        return _Geometry(r, math.pi / 2, np.True_, r1, r1 + r)
    station_at, sat_at = _positions(geometry, np)
    station, sat = station_at(t_s), sat_at(t_s)
    range_m = _distance(sat, station, np)
    # a zero range has no elevation: NaN, not visible, without 0/0's warning
    sin_el = _sin_elevation(station, sat, np.where(range_m > 0, range_m, np.nan), np)
    elevation = np.arcsin(np.clip(sin_el, -1.0, 1.0))
    r_station, r_sat = _distance(station, _ORIGIN, np), _distance(sat, _ORIGIN, np)
    return _Geometry(range_m, elevation, _visible(geometry, sin_el), r_station, r_sat)


def orbital_period(geometry: CircularOrbit) -> float:
    """Keplerian period 2*pi*sqrt(a^3/GM) in seconds."""
    if not isinstance(geometry, CircularOrbit):
        raise GeometryError("orbital_period requires the circular-orbit variant")
    a = EARTH_RADIUS + geometry.altitude
    return 2.0 * math.pi * math.sqrt(a**3 / GM_EARTH)


def _shapiro_fs(r1, r2, straight_range, m=np):
    """General-relativistic extra delay (2GM/c^3)ln((r1+r2+R)/(r1+r2-R)), in fs, with number module m's log.

    A float, because the quantity is sub-fs-resolvable; callers round once
    when composing it into an integer flight time.
    """
    factor = 2.0 * GM_EARTH / SPEED_OF_LIGHT**3 * FS_PER_SECOND
    return factor * m.log((r1 + r2 + straight_range) / (r1 + r2 - straight_range))


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


# The light-time iteration updates the receiver at most this many times and
# stops at the first update that changes the flight by less than the tolerance (s).
_LIGHT_TIME_ITERATIONS = 5
_LIGHT_TIME_TOLERANCE_S = 1e-15


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


# fs: the truncation of a knot piece's quadratic stays below this
_TRUNCATION_FS = 1e-3


def _emit_seconds(emit_fs: int) -> float:
    # the integer rounds to a float first, as in emit_fs / FS_PER_SECOND on an int64 array
    return float(emit_fs) / FS_PER_SECOND


def _knot(link: LinkModel, t_s: float, direction: Direction) -> tuple[float, float]:
    """An orbit link's flight at emit time t_s (s), as float fs, and sin(elevation) there.

    The flight is the light-time solve in Python floats: the receiver is
    evaluated again at each estimate of the arrival time, at most
    _LIGHT_TIME_ITERATIONS times, until an update moves the flight by less
    than _LIGHT_TIME_TOLERANCE_S. It carries this direction's half of the
    bias and, if the link includes it, the Shapiro term at emit time. The
    sine is NaN, not visible, where the endpoints coincide.
    """
    station_at, sat_at = _positions(link.geometry, math)
    station, sat = station_at(t_s), sat_at(t_s)
    emitter, receiver_at = (station, sat_at) if direction is Direction.A_TO_B else (sat, station_at)
    range_m = _distance(sat, station, math)
    tau = range_m / SPEED_OF_LIGHT
    for _ in range(_LIGHT_TIME_ITERATIONS):
        tau, previous = _distance(receiver_at(t_s + tau), emitter, math) / SPEED_OF_LIGHT, tau
        if abs(tau - previous) < _LIGHT_TIME_TOLERANCE_S:
            break
    else:
        raise LightTimeConvergenceError(f"light-time iteration exceeded {_LIGHT_TIME_ITERATIONS} iterations")
    total = tau * FS_PER_SECOND + direction.bias_sign * link.nonreciprocity_bias / 2.0
    if link.include_shapiro:
        total += _shapiro_fs(_distance(station, _ORIGIN, math), _distance(sat, _ORIGIN, math), range_m, math)
    return total, _sin_elevation(station, sat, range_m, math) if range_m > 0 else math.nan


def time_of_flight(link: LinkModel, true_emit_time: int, direction: Direction) -> int:
    """One-way flight time in integer fs for a photon emitted at true_emit_time.

    An orbit link rounds one scalar solve (``_knot``) and compares
    sin(elevation) with the mask. ``propagate`` may give a photon emitted at
    the same time a flight 1 fs away, where the flight lies within about
    1e-3 fs of a half-fs plus the solves' float noise.
    """
    if isinstance(link.geometry, StaticRange):
        return int(_static_flight_fs(link, direction))
    total, sin_el = _knot(link, _emit_seconds(true_emit_time), direction)
    flight = int(_rounded_fs(total))
    if not _visible(link.geometry, sin_el):
        raise NotVisibleError(f"link not visible at emit time {true_emit_time} fs")
    return flight


class _Motion(NamedTuple):
    longest_span_s: float  # the longest knot piece whose truncation stays below _TRUNCATION_FS
    elevation_rate: float  # rad/s, at least |d elevation / dt|, and so at least |d sin(elevation) / dt|
    sine_noise: float  # at least the float noise of sin(elevation) at any int64 emit time


@functools.lru_cache(maxsize=256)
def _motion(orbit: CircularOrbit) -> _Motion | None:
    """Bounds from the endpoints' two circular motions; None where they may meet.

    The endpoints move on circles of radius a and at most r, at rates n and
    w, so the k-th derivative of their separation vector is at most
    V_k = a n^k + r w^k, and the range rho never falls below |a - r|. The
    third derivative of rho is at most V_3 + 6 V_1 V_2 / rho + 6 V_1^3 / rho^2.
    The light-time flight follows rho / c; the bound is doubled for the
    flight's arrival-time argument. A quadratic through knots h/2 apart
    misses a function by at most its third derivative times h^3 / (72 sqrt 3).
    The line of sight turns at most at V_1 / rho, and the local vertical at w.
    A position's float noise grows with the angle its endpoint has turned
    through, largest at the end of the int64 range; over rho it bounds the
    sine's, here with a factor 8 to spare.
    """
    gs = orbit.ground_station
    a, r = EARTH_RADIUS + orbit.altitude, EARTH_RADIUS + gs.alt
    rho = abs(a - r)
    if rho == 0:
        return None
    n, w = math.sqrt(GM_EARTH / a**3), EARTH_ROTATION_RATE
    v1, v2, v3 = (a * n**k + r * w**k for k in (1, 2, 3))
    third_fs = 2 * (v3 + 6 * v1 * v2 / rho + 6 * v1**3 / rho**2) / SPEED_OF_LIGHT * FS_PER_SECOND
    t = INT64_LIMIT / FS_PER_SECOND
    turned_m = a * (1 + abs(orbit.phase0) + n * t) + r * (1 + abs(gs.lon) + w * t)
    return _Motion((_TRUNCATION_FS * 72 * math.sqrt(3) / third_fs) ** (1 / 3), v1 / rho + w, 2.0**-50 * turned_m / rho)


def _orbit_flights_fs(link: LinkModel, emit_fs: np.ndarray, direction: Direction):
    """Flights and visibility of sorted int64 emit times on an orbit link, from knots.

    The span from the first to the last emit time is cut into the fewest
    even pieces no longer than _Motion.longest_span_s. Each piece has knots
    at its ends and its middle, and a photon's flight is the rounded
    quadratic through its piece's three. Each photon is its own knot where
    the endpoints may meet (no truncation bound), where the span holds no
    three distinct knots, or where there would be as many knots as photons.
    Visibility comes from the knots where each sin(elevation) clears the
    mask's by the elevation rate times a quarter piece, the furthest a
    photon lies from its nearest knot, plus float noise; otherwise from
    each photon's ``_geometry_at``.
    """
    orbit, count = link.geometry, len(emit_fs)
    motion = _motion(orbit)
    span = int(emit_fs[-1]) - int(emit_fs[0]) if count else 0
    pieces = math.ceil(span / FS_PER_SECOND / motion.longest_span_s) if motion else count
    if span < 2 or 2 * pieces + 1 >= count:
        totals, sins = np.array([_knot(link, _emit_seconds(t), direction) for t in emit_fs.tolist()]).reshape(-1, 2).T
        return _rounded_fs(totals), _visible(orbit, sins)

    first = int(emit_fs[0])
    knots_fs = [first + span * k // (2 * pieces) for k in range(2 * pieces + 1)]
    knots_s = [_emit_seconds(k) for k in knots_fs]
    totals, sins = np.array([_knot(link, t_s, direction) for t_s in knots_s]).T
    flights = np.empty(count)
    cuts = [0, *np.searchsorted(emit_fs, knots_fs[2:-1:2]).tolist(), count]
    for piece, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        # The piece's quadratic in Newton form, over fs since its first knot's
        # integer time. Each knot sits at the time its float seconds stand for
        # exactly, up to about 2 ps from its integer time late in the int64 range.
        start, knots = knots_fs[2 * piece], slice(2 * piece, 2 * piece + 3)
        x0, x1, x2 = (float(Fraction(t_s) * FS_PER_SECOND - start) for t_s in knots_s[knots])
        f0, f1, f2 = totals[knots].tolist()
        d1 = (f1 - f0) / (x1 - x0)
        c2 = ((f2 - f0) / (x2 - x0) - d1) / (x2 - x1)
        x = (emit_fs[lo:hi] - start).astype(np.float64)
        flights[lo:hi] = f0 + (x - x0) * (d1 + (x - x1) * c2)

    sin_mask = math.sin(orbit.elevation_mask)
    margin = motion.elevation_rate * span / FS_PER_SECOND / pieces / 4 + motion.sine_noise
    if sins.min() >= sin_mask + margin:
        visible = np.True_
    elif sins.max() < sin_mask - margin:
        visible = np.zeros(count, dtype=bool)
    else:
        visible = _geometry_at(orbit, emit_fs / FS_PER_SECOND).visible
    return _rounded_fs(flights), visible


def propagate(stream_true: np.ndarray, link: LinkModel, direction: Direction, seed: SeedSpec) -> np.ndarray:
    """Send photons across the link: loss, flight-time shift, channel jitter.

    Photons emitted while the link is occluded are dropped. Output is the
    sorted true arrival times at the far end. Orbit flights come from knots
    (``_orbit_flights_fs``): a photon's flight may differ by 1 fs from
    ``time_of_flight`` at its emit time, where it lies within about 1e-3 fs
    of a half-fs plus the solves' float noise.
    """
    photons = np.asarray(stream_true, dtype=np.int64)
    if np.any(photons[1:] < photons[:-1]):  # compare neighbours: np.diff can wrap in int64
        raise ValueError("input stream must be sorted")
    if link.transmittance < 1.0:
        rng = spawn_rng(seed, "link-thin")
        photons = photons[rng.random(len(photons)) < link.transmittance]
    if isinstance(link.geometry, StaticRange):
        flights, visible = _static_flight_fs(link, direction), np.True_
    else:
        flights, visible = _orbit_flights_fs(link, photons, direction)
    if np.ndim(visible):  # a scalar np.True_: every photon is visible
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
