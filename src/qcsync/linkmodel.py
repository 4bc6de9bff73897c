"""Space-ground optical channel: geometry, delays, loss, and rate offsets.

Geometry is either a fixed point-to-point range or a circular Keplerian
orbit over a rotating spherical Earth, evaluated in an Earth-centered
inertial frame. Flight times solve the light-time equation (receiver
position at arrival) and optionally add the Shapiro delay. Deliberate
non-reciprocity is a constant signed bias split across the two directions.

Convention: direction A_TO_B points from the ground-side endpoint to the
space-side endpoint (for the static variant the two endpoints are symmetric
interchangeable points).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .seeding import SeedSpec, spawn_rng
from .timebase import FS_PER_SECOND

__all__ = [
    "PhysicalConstants",
    "DEFAULT_CONSTANTS",
    "GroundStation",
    "StaticRange",
    "CircularOrbit",
    "GeometryScenario",
    "LinkModel",
    "Direction",
    "GeometryError",
    "NotVisibleError",
    "DegenerateGeometryError",
    "LightTimeConvergenceError",
    "GeometrySample",
    "sample_geometry",
    "slant_range",
    "orbital_period",
    "shapiro_delay",
    "relativistic_rate_offset",
    "time_of_flight",
    "propagate",
    "visibility_windows",
]


@dataclass(frozen=True)
class PhysicalConstants:
    """Standard constants; override only through an explicit argument, never config."""

    c: float = 299792458.0  # m/s
    gm_earth: float = 3.986004418e14  # m^3/s^2
    earth_radius: float = 6371000.0  # m
    earth_rotation_rate: float = 7.2921159e-5  # rad/s


DEFAULT_CONSTANTS = PhysicalConstants()


class GeometryError(ValueError):
    """Geometry variant does not support the requested operation."""


class NotVisibleError(RuntimeError):
    """Satellite below the elevation mask at the requested time."""


class DegenerateGeometryError(ValueError):
    """Endpoint radii and straight range violate the triangle condition."""


class LightTimeConvergenceError(RuntimeError):
    """Light-time iteration failed to converge within the iteration budget."""


@dataclass(frozen=True)
class GroundStation:
    lat: float = 0.0  # rad
    lon: float = 0.0  # rad
    alt: float = 0.0  # m


@dataclass(frozen=True)
class StaticRange:
    """Fixed separation between the two endpoints."""

    range_m: float

    def __post_init__(self):
        if not self.range_m > 0:
            raise ValueError("range_m must be > 0")


@dataclass(frozen=True)
class CircularOrbit:
    """Circular Keplerian orbit plus the ground station it talks to."""

    altitude: float  # m above earth_radius
    inclination: float = 0.0  # rad
    raan: float = 0.0  # rad
    phase0: float = 0.0  # rad, argument of latitude at t=0
    ground_station: GroundStation = GroundStation()
    elevation_mask: float = math.radians(10.0)

    def __post_init__(self):
        if not self.altitude > 100e3:
            raise ValueError("orbit altitude must exceed 100 km")
        if not 0.0 <= self.elevation_mask < math.pi / 2:
            raise ValueError("elevation_mask must be in [0, pi/2)")


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
    transmittance: float = 1.0
    channel_jitter_sigma: int = 0  # fs
    nonreciprocity_bias: int = 0  # fs, A->B minus B->A flight-time asymmetry
    include_shapiro: bool = False

    def __post_init__(self):
        if not 0.0 < self.transmittance <= 1.0:
            raise ValueError("transmittance must be in (0, 1]")
        if self.channel_jitter_sigma < 0:
            raise ValueError("channel_jitter_sigma must be >= 0")


@dataclass(frozen=True)
class GeometrySample:
    range_m: float
    elevation: float  # rad; pi/2 for the static variant
    visible: bool
    r_station_m: float
    r_sat_m: float


def _station_positions(
    gs: GroundStation, t_s: np.ndarray, constants: PhysicalConstants
) -> np.ndarray:
    r = constants.earth_radius + gs.alt
    phi = gs.lon + constants.earth_rotation_rate * t_s
    cos_lat = math.cos(gs.lat)
    return r * np.stack(
        (cos_lat * np.cos(phi), cos_lat * np.sin(phi), np.full_like(phi, math.sin(gs.lat))),
        axis=-1,
    )


def _satellite_positions(
    orbit: CircularOrbit, t_s: np.ndarray, constants: PhysicalConstants
) -> np.ndarray:
    a = constants.earth_radius + orbit.altitude
    n = math.sqrt(constants.gm_earth / a**3)
    u = orbit.phase0 + n * t_s
    cu, su = np.cos(u), np.sin(u)
    ci, si = math.cos(orbit.inclination), math.sin(orbit.inclination)
    co, so = math.cos(orbit.raan), math.sin(orbit.raan)
    x = a * (co * cu - so * ci * su)
    y = a * (so * cu + co * ci * su)
    z = a * (si * su)
    return np.stack((x, y, z), axis=-1)


def _elevations(station: np.ndarray, sat: np.ndarray) -> np.ndarray:
    los = sat - station
    rng = np.linalg.norm(los, axis=-1)
    up = station / np.linalg.norm(station, axis=-1, keepdims=True)
    sin_el = np.sum(up * los, axis=-1) / rng
    return np.arcsin(np.clip(sin_el, -1.0, 1.0))


def sample_geometry(
    geometry: GeometryScenario,
    true_time: int,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> GeometrySample:
    """Range, elevation, and visibility at one instant (never raises on occlusion)."""
    if isinstance(geometry, StaticRange):
        r1 = constants.earth_radius
        return GeometrySample(
            range_m=geometry.range_m,
            elevation=math.pi / 2,
            visible=True,
            r_station_m=r1,
            r_sat_m=r1 + geometry.range_m,
        )
    t = np.array([true_time / FS_PER_SECOND])
    station = _station_positions(geometry.ground_station, t, constants)
    sat = _satellite_positions(geometry, t, constants)
    elevation = float(_elevations(station, sat)[0])
    return GeometrySample(
        range_m=float(np.linalg.norm(sat[0] - station[0])),
        elevation=elevation,
        visible=elevation >= geometry.elevation_mask,
        r_station_m=float(np.linalg.norm(station[0])),
        r_sat_m=float(np.linalg.norm(sat[0])),
    )


def slant_range(
    geometry: GeometryScenario,
    true_time: int,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> float:
    """Instantaneous separation in meters; raises NotVisibleError below the mask."""
    sample = sample_geometry(geometry, true_time, constants)
    if not sample.visible:
        raise NotVisibleError(
            f"satellite at elevation {math.degrees(sample.elevation):.2f} deg "
            f"is below the mask at t={true_time} fs"
        )
    return sample.range_m


def orbital_period(
    geometry: CircularOrbit, constants: PhysicalConstants = DEFAULT_CONSTANTS
) -> float:
    """Keplerian period 2*pi*sqrt(a^3/GM) in seconds."""
    if not isinstance(geometry, CircularOrbit):
        raise GeometryError("orbital_period requires the circular-orbit variant")
    a = constants.earth_radius + geometry.altitude
    return 2.0 * math.pi * math.sqrt(a**3 / constants.gm_earth)


def shapiro_delay(
    r1: float,
    r2: float,
    straight_range: float,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> float:
    """General-relativistic extra delay (2GM/c^3)ln((r1+r2+R)/(r1+r2-R)), in fs.

    Returned as a float because the quantity is sub-fs-resolvable; callers
    round once when composing it into an integer flight time.
    """
    if r1 <= 0 or r2 <= 0:
        raise DegenerateGeometryError("endpoint radii must be positive")
    if straight_range < 0:
        raise DegenerateGeometryError("straight_range must be >= 0")
    denominator = r1 + r2 - straight_range
    if denominator <= 0:
        raise DegenerateGeometryError("need r1 + r2 > straight_range")
    factor = 2.0 * constants.gm_earth / constants.c**3
    return factor * math.log((r1 + r2 + straight_range) / denominator) * FS_PER_SECOND


def relativistic_rate_offset(
    geometry: CircularOrbit, constants: PhysicalConstants = DEFAULT_CONSTANTS
) -> float:
    """Fractional rate of the satellite clock relative to a ground clock.

    y = GM/c^2 (1/R_ground - 1/r_sat) - v^2/(2 c^2) with v the circular
    orbital speed; positive means the satellite clock runs fast (potential
    term beats time dilation, as for MEO and above).
    """
    if not isinstance(geometry, CircularOrbit):
        raise GeometryError("relativistic_rate_offset requires the circular-orbit variant")
    r_sat = constants.earth_radius + geometry.altitude
    r_ground = constants.earth_radius + geometry.ground_station.alt
    gm_c2 = constants.gm_earth / constants.c**2
    potential = gm_c2 * (1.0 / r_ground - 1.0 / r_sat)
    velocity = gm_c2 / (2.0 * r_sat)  # v^2/(2c^2) for circular speed v = sqrt(GM/r)
    return potential - velocity


def _light_time_flights_s(
    orbit: CircularOrbit,
    emit_t_s: np.ndarray,
    direction: Direction,
    constants: PhysicalConstants,
) -> np.ndarray:
    """Flight times in seconds solving the light-time equation per photon."""
    if direction is Direction.A_TO_B:
        emitter = _station_positions(orbit.ground_station, emit_t_s, constants)

        def receiver_at(t_s):
            return _satellite_positions(orbit, t_s, constants)

    else:
        emitter = _satellite_positions(orbit, emit_t_s, constants)

        def receiver_at(t_s):
            return _station_positions(orbit.ground_station, t_s, constants)

    tau = np.linalg.norm(receiver_at(emit_t_s) - emitter, axis=-1) / constants.c
    for _ in range(5):
        new_tau = np.linalg.norm(receiver_at(emit_t_s + tau) - emitter, axis=-1) / constants.c
        step = np.max(np.abs(new_tau - tau)) if len(tau) else 0.0
        tau = new_tau
        if step < 1e-15:
            return tau
    raise LightTimeConvergenceError("light-time iteration exceeded 5 iterations")


def _flight_times_fs(
    link: LinkModel,
    emit_times_fs: np.ndarray,
    direction: Direction,
    constants: PhysicalConstants,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-photon integer flight times and a visibility mask (emit-time check)."""
    emit_times_fs = np.asarray(emit_times_fs, dtype=np.int64)
    geometry = link.geometry
    bias = direction.bias_sign * link.nonreciprocity_bias / 2.0
    if isinstance(geometry, StaticRange):
        flight_s = geometry.range_m / constants.c
        extra = 0.0
        if link.include_shapiro:
            # Static variant lacks endpoint radii; assume a vertical path from
            # the surface so the correction is defined and direction-symmetric.
            extra = shapiro_delay(
                constants.earth_radius,
                constants.earth_radius + geometry.range_m,
                geometry.range_m,
                constants,
            )
        flight_fs = round(flight_s * FS_PER_SECOND + extra + bias)
        return (
            np.full(len(emit_times_fs), flight_fs, dtype=np.int64),
            np.ones(len(emit_times_fs), dtype=bool),
        )

    emit_t_s = emit_times_fs / FS_PER_SECOND
    station = _station_positions(geometry.ground_station, emit_t_s, constants)
    sat = _satellite_positions(geometry, emit_t_s, constants)
    visible = _elevations(station, sat) >= geometry.elevation_mask
    flights_s = _light_time_flights_s(geometry, emit_t_s, direction, constants)
    total_fs = flights_s * FS_PER_SECOND + bias
    if link.include_shapiro:
        ranges = np.linalg.norm(sat - station, axis=-1)
        r1 = np.linalg.norm(station, axis=-1)
        r2 = np.linalg.norm(sat, axis=-1)
        factor = 2.0 * constants.gm_earth / constants.c**3 * FS_PER_SECOND
        total_fs = total_fs + factor * np.log((r1 + r2 + ranges) / (r1 + r2 - ranges))
    return np.round(total_fs).astype(np.int64), visible


def time_of_flight(
    link: LinkModel,
    true_emit_time: int,
    direction: Direction,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> int:
    """One-way flight time in integer fs for a photon emitted at true_emit_time."""
    flights, visible = _flight_times_fs(
        link, np.array([true_emit_time], dtype=np.int64), direction, constants
    )
    if not visible[0]:
        raise NotVisibleError(f"link not visible at emit time {true_emit_time} fs")
    return int(flights[0])


def propagate(
    stream_true: np.ndarray,
    link: LinkModel,
    direction: Direction,
    seed: SeedSpec,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> np.ndarray:
    """Send photons across the link: loss, flight-time shift, channel jitter.

    Photons emitted while the link is occluded are dropped. Output is the
    sorted true arrival times at the far end.
    """
    photons = np.asarray(stream_true, dtype=np.int64)
    if len(photons) > 1 and np.any(np.diff(photons) < 0):
        raise ValueError("input stream must be sorted")
    if link.transmittance < 1.0:
        rng = spawn_rng(seed, "link-thin")
        photons = photons[rng.random(len(photons)) < link.transmittance]
    flights, visible = _flight_times_fs(link, photons, direction, constants)
    arrived = photons[visible] + flights[visible]
    if link.channel_jitter_sigma > 0 and len(arrived):
        rng = spawn_rng(seed, "link-jitter")
        arrived = arrived + np.round(
            rng.normal(0.0, link.channel_jitter_sigma, len(arrived))
        ).astype(np.int64)
    arrived.sort(kind="stable")
    return arrived


def visibility_windows(
    geometry: GeometryScenario,
    start_fs: int,
    end_fs: int,
    step_fs: int,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> list[dict]:
    """Contiguous visible intervals on a sampling grid, with peak elevation.

    Window edges are resolved to the grid step; each entry reports
    start_s, end_s (exclusive grid edge), and max_elevation_deg.
    """
    if step_fs <= 0:
        raise ValueError("step_fs must be positive")
    if end_fs < start_fs:
        raise ValueError("end_fs must be >= start_fs")
    # arange length via float division loses the inclusive endpoint at
    # femtosecond magnitudes; build the grid from an exact integer count
    count = (end_fs - start_fs) // step_fs + 1
    times = start_fs + step_fs * np.arange(count, dtype=np.int64)
    if isinstance(geometry, StaticRange):
        return [
            {
                "start_s": start_fs / FS_PER_SECOND,
                "end_s": end_fs / FS_PER_SECOND,
                "max_elevation_deg": 90.0,
            }
        ]
    t_s = times / FS_PER_SECOND
    station = _station_positions(geometry.ground_station, t_s, constants)
    sat = _satellite_positions(geometry, t_s, constants)
    elevations = _elevations(station, sat)
    visible = elevations >= geometry.elevation_mask
    windows = []
    i = 0
    while i < len(times):
        if visible[i]:
            j = i
            while j + 1 < len(times) and visible[j + 1]:
                j += 1
            windows.append(
                {
                    "start_s": float(times[i] / FS_PER_SECOND),
                    "end_s": float(times[j] / FS_PER_SECOND),
                    "max_elevation_deg": float(np.degrees(np.max(elevations[i : j + 1]))),
                }
            )
            i = j + 1
        else:
            i += 1
    return windows
