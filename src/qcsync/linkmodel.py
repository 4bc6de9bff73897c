"""Space-ground optical channel: geometry, delays, loss, and rate offsets.

Geometry is either a fixed point-to-point range or a circular Keplerian
orbit over a rotating spherical Earth, evaluated in an Earth-centered
inertial frame. Flight times solve the light-time equation (receiver
position at arrival) and optionally add the Shapiro delay. Deliberate
non-reciprocity is a constant signed bias split across the two directions.
The physical constants (c, the Earth's GM, radius and rotation rate) are
module constants in SI units.

Orbit geometry (endpoint positions, their distance, sin(elevation) and the
light-time update) is written once over a number module: numpy evaluates it
for an array of times, math for one time in Python floats. Both make the same
IEEE operations in the same order, and they give the same bits where numpy's
float64 sin and cos are math's. numpy may send them to SIMD kernels by CPU
and build, so each process compares them once on fixed angles
(`_scalar_solve_is_exact`) and keeps the array solve everywhere if any
differs. Visibility is sin(elevation) >= math.sin(mask) on both.

The array solve serves grids (`qcsync relativity`, visibility windows),
Shapiro links (numpy's log is its own SIMD code), coincident endpoints, the
int64 edge and what the knots decline. `time_of_flight` solves one time in
floats. `propagate` solves three knots, the first, middle and last emit time
of a span up to about a millisecond on a LEO link, and takes each photon's
flight from the quadratic through them. The truncation bound, from the third
derivative of the range, sets the longest span. The rounding bound, a
multiple of one evaluation's float noise measured on LEO to GEO orbits,
marks the photons whose interpolated flight lies near a half-fs: those are
solved exactly, at the array solve's iteration count, and the rest rounded.
Visibility comes from the knots where each clears the mask by the rate bound
over the span plus float noise, from each photon otherwise.

Convention: direction A_TO_B points from the ground-side endpoint to the
space-side endpoint (for the static variant the two endpoints are symmetric
interchangeable points).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
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


@functools.cache
def _scalar_solve_is_exact() -> bool:
    """Whether numpy's float64 sin and cos give the bits of math's on this host.

    The geometry's other operations are arithmetic and sqrt, correctly rounded
    in both. The two are compared on 1024 fixed angles as one long array, and
    on the first 64 as one-element arrays. It is a check, not a proof.
    """
    angles = np.random.default_rng(0).uniform(-100.0, 100.0, 1024)
    return all(
        np.array_equal(ours(chunk), [theirs(u) for u in chunk.tolist()])
        for ours, theirs in ((np.sin, math.sin), (np.cos, math.cos))
        for chunk in (angles, *angles[:64, None])
    )


class _Geometry(NamedTuple):
    """The geometry at an array of true times; a static range has scalar fields."""

    range_m: np.ndarray
    elevation: np.ndarray  # rad; pi/2 for the static variant
    visible: np.ndarray
    r_station_m: np.ndarray
    r_sat_m: np.ndarray
    station: tuple | None  # ECI (x, y, z) positions; None for the static variant
    sat: tuple | None


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
    station_at, sat_at = _positions(geometry, np)
    station, sat = station_at(t_s), sat_at(t_s)
    range_m = _distance(sat, station, np)
    # a zero range has no elevation: NaN, not visible, without 0/0's warning
    sin_el = _sin_elevation(station, sat, np.where(range_m > 0, range_m, np.nan), np)
    elevation = np.arcsin(np.clip(sin_el, -1.0, 1.0))
    r_station, r_sat = _distance(station, _ORIGIN, np), _distance(sat, _ORIGIN, np)
    return _Geometry(range_m, elevation, _visible(geometry, sin_el), r_station, r_sat, station, sat)


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


# The light-time iteration updates the receiver at most this many times and
# stops at the first update whose largest change is below the tolerance (s).
_LIGHT_TIME_ITERATIONS = 5
_LIGHT_TIME_TOLERANCE_S = 1e-15


def _light_time_update(positions, station, sat, t_s, direction: Direction, m):
    """The next flight estimate (s) from tau: the emitter at t_s to the receiver at t_s + tau, over c."""
    station_at, sat_at = positions
    emitter, receiver_at = (station, sat_at) if direction is Direction.A_TO_B else (sat, station_at)

    def next_flight_s(tau):
        return _distance(receiver_at(t_s + tau), emitter, m) / SPEED_OF_LIGHT

    return next_flight_s


def _light_time_flights_s(orbit: CircularOrbit, geo: _Geometry, emit_t_s: np.ndarray, direction: Direction):
    """Flight times in seconds solving the light-time equation per photon: the array solve.

    geo holds both endpoints at emit time; only the receiver is evaluated again,
    at each estimate of the arrival time.
    """
    next_flight_s = _light_time_update(_positions(orbit, np), geo.station, geo.sat, emit_t_s, direction, np)
    tau = geo.range_m / SPEED_OF_LIGHT
    for _ in range(_LIGHT_TIME_ITERATIONS):
        new_tau = next_flight_s(tau)
        step = np.max(np.abs(new_tau - tau)) if len(tau) else 0.0
        tau = new_tau
        if step < _LIGHT_TIME_TOLERANCE_S:
            return tau
    raise LightTimeConvergenceError(f"light-time iteration exceeded {_LIGHT_TIME_ITERATIONS} iterations")


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
    total_fs = _total_fs(link, flights_s, direction)
    if link.include_shapiro:
        total_fs = total_fs + _shapiro_fs(geo.r_station_m, geo.r_sat_m, geo.range_m)
    return _rounded_fs(total_fs), geo.visible


def _total_fs(link: LinkModel, flight_s, direction: Direction):
    """Flight seconds as float fs, plus this direction's half of the bias."""
    return flight_s * FS_PER_SECOND + direction.bias_sign * link.nonreciprocity_bias / 2.0


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


# The rounding bound, in multiples of _noise_fs: a flight further than this
# from a half-fs rounds the same way however it is solved. One evaluation's
# noise was measured at up to 0.8 noise scales (RMS 0.2) on LEO to GEO orbits
# against an 80-bit solve. A quadratic through three even knots carries at
# most 1.25 times their noise, so an interpolated flight strays from the array
# solve's by at most 2.25 times one evaluation's; 3.5 leaves room for 1.5
# noise scales each. The bound is measured on five orbits, not proven; over
# seeded leo_demo sessions the interpolation stays within half of it
# (tests/test_linkmodel.py).
_NOISE_MARGIN = 3.5
# fs: the truncation of the three-knot quadratic over its longest span stays below this
_TRUNCATION_FS = 1e-3
# The knots serve where at most this share of photons, those within the bound
# of a half-fs, is expected to take the exact solve: at about 4 us each, more
# would cost more than the array solve's 0.4 us per photon.
_EXACT_SHARE_LIMIT = 0.1


def _scalar_equation(positions, t_s: float, direction: Direction):
    """The endpoints at emit time t_s (s) in Python floats, their range and the light-time update."""
    station, sat = positions[0](t_s), positions[1](t_s)
    next_flight_s = _light_time_update(positions, station, sat, t_s, direction, math)
    return station, sat, _distance(sat, station, math), next_flight_s


def _emit_seconds(emit_fs: int) -> float:
    # as the array path divides int64 times: the integer rounds to a float first
    return float(emit_fs) / FS_PER_SECOND


def _noise_fs(orbit: CircularOrbit, t_s: float, total_fs: float) -> float:
    """The float noise scale (fs) of one flight evaluation at emit time t_s.

    Each rounding moves the result by at most 2^-53 of the magnitude it
    rounds. The largest magnitudes are the endpoint radii, turned through
    their angles (the orbit's argument of latitude and the station's
    longitude, with the roundings of rate * t and of t itself), over c, and
    the total itself. This sums them once, times 2^-53.
    """
    gs, t = orbit.ground_station, abs(t_s)
    a, r = EARTH_RADIUS + orbit.altitude, EARTH_RADIUS + gs.alt
    n = math.sqrt(GM_EARTH / a**3)
    turned_m = a * (1 + abs(orbit.phase0) + 3 * n * t) + r * (1 + abs(gs.lon) + 3 * EARTH_ROTATION_RATE * t)
    return 2.0**-53 * (turned_m / SPEED_OF_LIGHT * FS_PER_SECOND + 4 * abs(total_fs))


def _near_half(total_fs, rounded, bound_fs):
    """Whether a total lies within bound_fs of a half-fs, where its rounding is at stake."""
    return abs(abs(total_fs - rounded) - 0.5) <= bound_fs


def time_of_flight(link: LinkModel, true_emit_time: int, direction: Direction) -> int:
    """One-way flight time in integer fs for a photon emitted at true_emit_time.

    An orbit link solves the one emit time in Python floats, with the array
    solve's iteration limit and errors, and compares sin(elevation) with the
    mask as the array does. Where the endpoints coincide or the total nears
    the int64 range, the array solve decides, as it does for static and
    Shapiro links and on a host where the scalar solve is not exact.
    """
    orbit = link.geometry
    if (
        isinstance(orbit, CircularOrbit)
        and not link.include_shapiro
        and abs(true_emit_time) < INT64_LIMIT
        and _scalar_solve_is_exact()
    ):
        station, sat, range_m, next_flight_s = _scalar_equation(
            _positions(orbit, math), _emit_seconds(true_emit_time), direction
        )
        tau = range_m / SPEED_OF_LIGHT
        for _ in range(_LIGHT_TIME_ITERATIONS):
            tau, previous = next_flight_s(tau), tau
            if abs(tau - previous) < _LIGHT_TIME_TOLERANCE_S:
                break
        else:
            raise LightTimeConvergenceError(f"light-time iteration exceeded {_LIGHT_TIME_ITERATIONS} iterations")
        total = _total_fs(link, tau, direction)
        if range_m > 0 and abs(total) < INT64_LIMIT / 2:
            if not _visible(orbit, _sin_elevation(station, sat, range_m, math)):
                raise NotVisibleError(f"link not visible at emit time {true_emit_time} fs")
            return round(total)
    flights, visible = _flight_times_fs(link, np.array([true_emit_time], dtype=np.int64), direction)
    if not visible.item():
        raise NotVisibleError(f"link not visible at emit time {true_emit_time} fs")
    return flights.item()


class _Motion(NamedTuple):
    longest_span_s: float  # the longest knot span whose truncation stays below _TRUNCATION_FS
    elevation_rate: float  # rad/s, at least |d elevation / dt|, and so at least |d sin(elevation) / dt|
    least_range_m: float


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
    """
    a, r = EARTH_RADIUS + orbit.altitude, EARTH_RADIUS + orbit.ground_station.alt
    rho = abs(a - r)
    if rho == 0:
        return None
    n, w = math.sqrt(GM_EARTH / a**3), EARTH_ROTATION_RATE
    v1, v2, v3 = (a * n**k + r * w**k for k in (1, 2, 3))
    third_fs = 2 * (v3 + 6 * v1 * v2 / rho + 6 * v1**3 / rho**2) / SPEED_OF_LIGHT * FS_PER_SECOND
    return _Motion((_TRUNCATION_FS * 72 * math.sqrt(3) / third_fs) ** (1 / 3), v1 / rho + w, rho)


def _knot_flights_fs(link: LinkModel, emit_fs: np.ndarray, direction: Direction):
    """Flights and visibility of sorted int64 emit times, from scalar solves at three knots.

    Returns None where the array solve must decide, and for a span longer
    than _Motion.longest_span_s. The knots are the first, middle and last
    emit times. Each photon's flight is the quadratic through them:
    - further than _NOISE_MARGIN noise scales plus the truncation from a
      half-fs, it is rounded;
    - otherwise that photon is solved exactly, at the array solve's
      iteration count.

    The knots are solved in lockstep, as the array solves its photons. The
    array stops at the first iteration in which every photon's step is below
    the tolerance. An end knot still stepping past it in each earlier
    iteration shows that the array needs as many. A step scales with a
    power of the range rate over c, which moves little between knots, so
    knot steps below half the tolerance show that every photon's is below
    it. Visibility comes from the knots where each sin(elevation) clears
    the mask's by the elevation rate times a quarter span, the furthest a
    photon lies from its nearest knot, plus its float noise; otherwise from
    each photon, as the array path does.
    """
    orbit = link.geometry
    if not isinstance(orbit, CircularOrbit) or link.include_shapiro or not len(emit_fs):
        return None
    motion = _motion(orbit)
    first, last = int(emit_fs[0]), int(emit_fs[-1])
    span_s = (last - first) / FS_PER_SECOND
    if motion is None or span_s > motion.longest_span_s or last - first < 2 or not _scalar_solve_is_exact():
        return None  # too long a span, or no three distinct knots
    knots_fs = [first, first + (last - first) // 2, last]
    knots_s = [_emit_seconds(k) for k in knots_fs]
    positions = _positions(orbit, math)
    equations = [_scalar_equation(positions, t_s, direction) for t_s in knots_s]
    taus = [range_m / SPEED_OF_LIGHT for _, _, range_m, _ in equations]
    for iterations in range(1, _LIGHT_TIME_ITERATIONS + 1):
        new_taus = [next_flight_s(tau) for (*_, next_flight_s), tau in zip(equations, taus)]
        steps = [abs(new - tau) for new, tau in zip(new_taus, taus)]
        taus = new_taus
        if max(steps) < _LIGHT_TIME_TOLERANCE_S:
            break
        if max(steps[0], steps[-1]) < _LIGHT_TIME_TOLERANCE_S:
            return None  # only a knot between photons holds the iteration open
    else:
        return None  # the array solve raises, or takes every iteration
    if max(steps) > _LIGHT_TIME_TOLERANCE_S / 2:
        return None
    totals = [_total_fs(link, tau, direction) for tau in taus]
    largest = max(map(abs, totals))
    if largest >= INT64_LIMIT / 2:
        return None  # the array solve checks the int64 range
    noise = _noise_fs(orbit, max(knots_s, key=abs), largest)  # it grows with |t| and |total|
    bound = _NOISE_MARGIN * noise + _TRUNCATION_FS * (span_s / motion.longest_span_s) ** 3
    if 2 * bound > _EXACT_SHARE_LIMIT:
        return None

    sins = [_sin_elevation(station, sat, range_m, math) for station, sat, range_m, _ in equations]
    sin_mask = math.sin(orbit.elevation_mask)
    # a sine errs by about its line of sight's float noise over the range; the
    # rounding bound, as metres over the least range, covers that
    margin = motion.elevation_rate * span_s / 4 + bound / FS_PER_SECOND * SPEED_OF_LIGHT / motion.least_range_m
    if min(sins) >= sin_mask + margin:
        visible = np.True_
    elif max(sins) < sin_mask - margin:
        visible = np.zeros(len(emit_fs), dtype=bool)
    else:
        visible = _geometry_at(orbit, emit_fs / FS_PER_SECOND).visible

    # the quadratic in Newton form, over fs since the first knot
    (f0, f1, f2), x1, x2 = totals, float(knots_fs[1] - first), float(last - first)
    d1 = (f1 - f0) / x1
    c2 = ((f2 - f0) / x2 - d1) / (x2 - x1)
    x = (emit_fs - first).astype(np.float64)
    flights = f0 + x * (d1 + (x - x1) * c2)
    rounded = np.rint(flights)
    exact = np.flatnonzero(_near_half(flights, rounded, bound)).tolist()
    flights = rounded.astype(np.int64)
    for i in exact:
        _, _, range_m, next_flight_s = _scalar_equation(positions, _emit_seconds(int(emit_fs[i])), direction)
        tau = range_m / SPEED_OF_LIGHT
        for _ in range(iterations):
            tau = next_flight_s(tau)
        flights[i] = round(_total_fs(link, tau, direction))
    return flights, visible


def propagate(stream_true: np.ndarray, link: LinkModel, direction: Direction, seed: SeedSpec) -> np.ndarray:
    """Send photons across the link: loss, flight-time shift, channel jitter.

    Photons emitted while the link is occluded are dropped. Output is the
    sorted true arrival times at the far end. Orbit flights come from knots
    (``_knot_flights_fs``) where they can, from the array solve otherwise;
    the two give the same integers.
    """
    photons = np.asarray(stream_true, dtype=np.int64)
    if np.any(photons[1:] < photons[:-1]):  # compare neighbours: np.diff can wrap in int64
        raise ValueError("input stream must be sorted")
    if link.transmittance < 1.0:
        rng = spawn_rng(seed, "link-thin")
        photons = photons[rng.random(len(photons)) < link.transmittance]
    flights, visible = _knot_flights_fs(link, photons, direction) or _flight_times_fs(link, photons, direction)
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
