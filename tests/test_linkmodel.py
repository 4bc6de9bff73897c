"""Geometry, light time, relativistic corrections, and channel effects."""

from __future__ import annotations

import math

import numpy as np
import pytest

from qcsync import linkmodel
from qcsync.linkmodel import (
    DEFAULT_CONSTANTS,
    CircularOrbit,
    _geometry_at,
    _satellite_positions,
    _shapiro_fs,
    _station_positions,
    Direction,
    GeometryError,
    GroundStation,
    LinkModel,
    NotVisibleError,
    StaticRange,
    orbital_period,
    propagate,
    relativistic_rate_offset,
    time_of_flight,
    visibility_windows,
)
from qcsync.timebase import INT64_LIMIT, TimeRangeError

FS = 10**15
C = DEFAULT_CONSTANTS.c
GM = DEFAULT_CONSTANTS.gm_earth
R_E = DEFAULT_CONSTANTS.earth_radius


def _overhead_orbit(altitude=550e3):
    # station on the equator, equatorial orbit culminating near t = 0
    return CircularOrbit(altitude=altitude, ground_station=GroundStation(lat=0.0, lon=0.0))


def test_static_flight_time_exact():
    link = LinkModel(geometry=StaticRange(range_m=299.792458))
    assert time_of_flight(link, 0, Direction.A_TO_B) == 10**9
    assert time_of_flight(link, 10**18, Direction.B_TO_A) == 10**9


def test_nonreciprocity_bias_split_between_directions():
    link = LinkModel(geometry=StaticRange(range_m=299.792458), nonreciprocity_bias=2000)
    ab = time_of_flight(link, 0, Direction.A_TO_B)
    ba = time_of_flight(link, 0, Direction.B_TO_A)
    assert ab - ba == 2000
    assert ab + ba == 2 * 10**9


def test_static_flight_is_computed_once_per_link_and_direction(monkeypatch):
    linkmodel._static_flight_fs.cache_clear()
    geometry_at, calls = linkmodel._geometry_at, []
    monkeypatch.setattr(linkmodel, "_geometry_at", lambda *args: calls.append(args) or geometry_at(*args))
    link = LinkModel(geometry=StaticRange(range_m=299.792458), nonreciprocity_bias=2000, include_shapiro=True)
    flights = {d: {time_of_flight(link, t, d) for t in (0, 10**15, -(10**15))} for d in Direction}
    arrivals = propagate(np.array([0, 10**12], dtype=np.int64), link, Direction.B_TO_A, seed=1)
    assert len(calls) == 2  # one per direction
    (ab,), (ba,) = flights[Direction.A_TO_B], flights[Direction.B_TO_A]
    assert ab - ba == 2000
    assert arrivals.tolist() == [ba, 10**12 + ba]


def test_orbital_period_closed_form():
    orbit = _overhead_orbit(550e3)
    a = R_E + 550e3
    assert orbital_period(orbit) == pytest.approx(2 * math.pi * math.sqrt(a**3 / GM), rel=1e-12)
    with pytest.raises(GeometryError):
        orbital_period(StaticRange(range_m=1.0))


def test_shapiro_delay_oracle():
    rng = np.random.default_rng(17)
    factor = 2.0 * GM / C**3
    for _ in range(20):
        r1 = float(rng.uniform(R_E, R_E + 1e6))
        r2 = float(rng.uniform(R_E + 2e5, R_E + 4e7))
        rmax = r1 + r2 - 1.0
        rr = float(rng.uniform(abs(r2 - r1) + 1.0, min(rmax, r2 + r1 - 1.0)))
        expected = factor * math.log((r1 + r2 + rr) / (r1 + r2 - rr)) * FS
        assert _shapiro_fs(r1, r2, rr, DEFAULT_CONSTANTS) == pytest.approx(expected, abs=1e-3)


def test_relativistic_rate_gps_and_leo_magnitudes():
    gps = CircularOrbit(altitude=20200e3, ground_station=GroundStation(lat=0, lon=0))
    leo = CircularOrbit(altitude=550e3, ground_station=GroundStation(lat=0, lon=0))
    assert relativistic_rate_offset(gps) == pytest.approx(4.457e-10, rel=0.01)
    assert relativistic_rate_offset(leo) == pytest.approx(-2.65e-10, rel=0.02)


def test_overhead_pass_symmetric_elevation():
    orbit = _overhead_orbit()
    zenith = _geometry_at(orbit, 0.0, DEFAULT_CONSTANTS)
    assert zenith.elevation == pytest.approx(math.pi / 2, abs=1e-4)
    assert zenith.range_m == pytest.approx(550e3, rel=1e-6)
    before = _geometry_at(orbit, -20.0, DEFAULT_CONSTANTS)
    after = _geometry_at(orbit, 20.0, DEFAULT_CONSTANTS)
    assert before.elevation == pytest.approx(after.elevation, abs=2e-4)


def test_below_mask_is_not_visible():
    orbit = _overhead_orbit()
    quarter = int(orbital_period(orbit) * FS / 4)
    far_side = _geometry_at(orbit, 2 * quarter / FS, DEFAULT_CONSTANTS)  # antipodal: far side of the orbit
    assert not far_side.visible
    assert far_side.range_m > 2 * R_E
    with pytest.raises(NotVisibleError):
        time_of_flight(LinkModel(geometry=orbit), 2 * quarter, Direction.A_TO_B)
    zenith = _geometry_at(orbit, 0.0, DEFAULT_CONSTANTS)
    assert zenith.visible
    assert zenith.range_m == pytest.approx(550e3, rel=1e-6)


def test_light_time_includes_receiver_motion():
    # At zenith the range is minimal, so flight time is close to range/c, but
    # the receiver moves during the flight; both one-way flights must exceed
    # the instantaneous vacuum value and differ between directions off-zenith.
    orbit = _overhead_orbit()
    link = LinkModel(geometry=orbit)
    t = -15 * FS  # approaching
    ab = time_of_flight(link, t, Direction.A_TO_B)
    ba = time_of_flight(link, t, Direction.B_TO_A)
    instantaneous = _geometry_at(orbit, t / FS, DEFAULT_CONSTANTS).range_m / C * FS
    assert ab != ba
    # approaching satellite: A->B flight is shorter than the frozen-geometry value
    assert ab < instantaneous < ba + 5000


def test_flight_times_satisfy_light_time_equation():
    # c * T must equal the distance from the emitter at t to the receiver at
    # t + T, for both directions and across the pass.
    orbit = _overhead_orbit()
    link = LinkModel(geometry=orbit)
    for t in (-20 * FS, -3 * FS, 0, 11 * FS):
        for direction in (Direction.A_TO_B, Direction.B_TO_A):
            flight = time_of_flight(link, t, direction)
            t_arr = np.array([t / FS])
            t_rx = np.array([(t + flight) / FS])
            station = _station_positions(orbit.ground_station, t_arr, DEFAULT_CONSTANTS)[0]
            station_rx = _station_positions(orbit.ground_station, t_rx, DEFAULT_CONSTANTS)[0]
            sat = _satellite_positions(orbit, t_arr, DEFAULT_CONSTANTS)[0]
            sat_rx = _satellite_positions(orbit, t_rx, DEFAULT_CONSTANTS)[0]
            if direction is Direction.A_TO_B:
                dist = np.linalg.norm(sat_rx - station)
            else:
                dist = np.linalg.norm(station_rx - sat)
            assert dist / C * FS == pytest.approx(flight, abs=2.0)


def test_shapiro_included_when_enabled():
    orbit = _overhead_orbit(20200e3)
    plain = LinkModel(geometry=orbit)
    with_gr = LinkModel(geometry=orbit, include_shapiro=True)
    delta = time_of_flight(with_gr, 0, Direction.A_TO_B) - time_of_flight(
        plain, 0, Direction.A_TO_B
    )
    geo = _geometry_at(orbit, 0.0, DEFAULT_CONSTANTS)
    expected = _shapiro_fs(geo.r_station_m, geo.r_sat_m, geo.range_m, DEFAULT_CONSTANTS)
    assert delta == pytest.approx(expected, abs=1.0)
    assert 10**4 <= delta <= 10**5  # tens of picoseconds for ground-to-MEO


def test_propagate_shifts_thins_and_jitters():
    link = LinkModel(geometry=StaticRange(range_m=299792.458), transmittance=0.5)
    photons = np.arange(0, 2 * 10**9, 10**5, dtype=np.int64)
    out = propagate(photons, link, Direction.A_TO_B, (21,))
    assert len(out) == pytest.approx(0.5 * len(photons), rel=0.1)
    flight = time_of_flight(link, 0, Direction.A_TO_B)
    assert np.all(np.isin(out - flight, photons))
    jl = LinkModel(geometry=StaticRange(range_m=299792.458), channel_jitter_sigma=400)
    out_j = propagate(photons, jl, Direction.A_TO_B, (22,))
    assert np.std((out_j - photons - flight).astype(np.float64)) == pytest.approx(400, rel=0.1)


def test_propagate_drops_occluded_photons():
    orbit = _overhead_orbit()
    link = LinkModel(geometry=orbit)
    period_fs = int(orbital_period(orbit) * FS)
    visible_t = np.array([0, 10 * FS], dtype=np.int64)
    hidden_t = visible_t + period_fs // 2
    photons = np.sort(np.concatenate((visible_t, hidden_t)))
    out = propagate(photons, link, Direction.A_TO_B, (23,))
    assert len(out) == 2


def test_propagate_requires_sorted_input():
    link = LinkModel(geometry=StaticRange(range_m=1.0))
    with pytest.raises(ValueError):
        propagate(np.array([5, 1], dtype=np.int64), link, Direction.A_TO_B, (24,))
    # neighbours are compared, so a difference that wraps int64 is not misread
    with pytest.raises(ValueError, match="sorted"):
        propagate(np.array([7 * 10**18, -7 * 10**18], dtype=np.int64), link, Direction.A_TO_B, (24,))
    wide = np.array([-7 * 10**18, 7 * 10**18], dtype=np.int64)
    flight = time_of_flight(link, 0, Direction.A_TO_B)
    assert propagate(wide, link, Direction.A_TO_B, (24,)).tolist() == (wide + flight).tolist()


@pytest.mark.parametrize("jitter", [0, 400])
def test_propagate_raises_where_arrivals_would_wrap_int64(jitter):
    link = LinkModel(geometry=StaticRange(range_m=299792.458), channel_jitter_sigma=jitter)
    flight = time_of_flight(link, 0, Direction.A_TO_B)  # 1 ms
    last = INT64_LIMIT - 1 - flight - 10**5  # room for any jitter this seed draws
    fits = np.array([0, last], dtype=np.int64)
    assert propagate(fits, link, Direction.A_TO_B, (25,))[-1] >= last
    with pytest.raises(TimeRangeError):
        propagate(np.array([0, last + 10**6], dtype=np.int64), link, Direction.A_TO_B, (25,))
    # an equatorial orbit overhead at the last int64 femtosecond
    t_last = (INT64_LIMIT - 1) / FS
    mean_motion = 2 * math.pi / orbital_period(_overhead_orbit())
    phase0 = (DEFAULT_CONSTANTS.earth_rotation_rate - mean_motion) * t_last
    overhead = LinkModel(geometry=CircularOrbit(altitude=550e3, phase0=phase0), channel_jitter_sigma=jitter)
    assert _geometry_at(overhead.geometry, t_last, DEFAULT_CONSTANTS).elevation > math.radians(89)
    with pytest.raises(TimeRangeError):
        propagate(np.array([0, INT64_LIMIT - 10**6], dtype=np.int64), overhead, Direction.B_TO_A, (25,))


def test_flight_time_outside_int64_raises():
    far = [StaticRange(range_m=1e30), CircularOrbit(altitude=1e25)]
    for geometry in far:
        with pytest.raises(TimeRangeError):
            time_of_flight(LinkModel(geometry=geometry), 0, Direction.A_TO_B)


def test_visibility_windows_cover_overhead_pass():
    orbit = _overhead_orbit()
    period_fs = int(orbital_period(orbit) * FS)
    windows = visibility_windows(orbit, -period_fs // 2, period_fs // 2, FS)
    assert len(windows) == 1
    (w,) = windows
    assert w["max_elevation_deg"] == pytest.approx(90.0, abs=0.1)
    # pass length for a 550 km overhead pass above a 10 degree mask: minutes
    assert 300 < w["end_s"] - w["start_s"] < 900


def _leo_demo_edge_orbit():
    return CircularOrbit(altitude=550e3, phase0=-0.015354, ground_station=GroundStation(lat=0.0, lon=0.0))


def test_visibility_windows_past_int64_femtoseconds():
    # 20000 s is past 2^63 fs (about 9223 s), where an int64 grid wraps
    horizon_s = 20000
    windows = visibility_windows(_leo_demo_edge_orbit(), 0, horizon_s * FS, FS)
    assert len(windows) == 4
    starts = [w["start_s"] for w in windows]
    assert starts == sorted(starts)
    assert all(0 <= w["start_s"] <= w["end_s"] <= horizon_s for w in windows)
    assert windows[0]["start_s"] == 0.0  # the pass under way at t = 0
    # an equatorial prograde pass repeats at the synodic period 1/(1/T - 1/T_earth)
    sidereal_day = 2 * math.pi / DEFAULT_CONSTANTS.earth_rotation_rate
    synodic = 1 / (1 / orbital_period(_leo_demo_edge_orbit()) - 1 / sidereal_day)
    centres = [(w["start_s"] + w["end_s"]) / 2 for w in windows[1:]]  # the first pass is cut at t = 0
    assert np.diff(centres) == pytest.approx(synodic, abs=2.0)
    assert synodic == pytest.approx(6139, abs=10)
    static = visibility_windows(StaticRange(range_m=1.0), 0, horizon_s * FS, 7 * FS)
    assert static == [{"start_s": 0.0, "end_s": horizon_s, "max_elevation_deg": 90.0}]


def test_visibility_windows_match_per_sample_geometry():
    orbit = _leo_demo_edge_orbit()
    step = 10 * FS
    # the grid ends in the middle of the third pass
    windows = visibility_windows(orbit, -1000 * FS, 12300 * FS, step)
    grid = range(-1000 * FS, 12300 * FS + 1, step)
    samples = [(t / FS, _geometry_at(orbit, t / FS, DEFAULT_CONSTANTS)) for t in grid]
    expected, run = [], []
    for t_s, geo in samples + [(None, None)]:
        if geo is not None and geo.visible:
            run.append((t_s, geo.elevation))
        elif run:
            expected.append((run[0][0], run[-1][0], math.degrees(max(e for _, e in run))))
            run = []
    got = [(w["start_s"], w["end_s"], w["max_elevation_deg"]) for w in windows]
    assert len(got) == len(expected) == 3
    assert got[-1][1] == 12300.0
    assert np.array(got) == pytest.approx(np.array(expected), rel=1e-12)
    assert visibility_windows(orbit, 3000 * FS, 4000 * FS, step) == []  # between passes


def test_geometry_validation():
    with pytest.raises(ValueError):
        StaticRange(range_m=0.0)
    with pytest.raises(ValueError):
        CircularOrbit(altitude=50e3, ground_station=GroundStation(lat=0, lon=0))
    with pytest.raises(ValueError):
        LinkModel(geometry=StaticRange(range_m=1.0), transmittance=0.0)
