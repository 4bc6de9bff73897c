"""Geometry, light time, relativistic corrections, and channel effects."""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from qcsync import linkmodel
from qcsync.linkmodel import (
    ALTITUDE_LIMIT,
    EARTH_RADIUS,
    EARTH_ROTATION_RATE,
    GM_EARTH,
    SPEED_OF_LIGHT,
    CircularOrbit,
    _geometry_at,
    _positions,
    _shapiro_fs,
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
from qcsync.scenario import build_topology
from qcsync.session import run_session
from qcsync.timebase import INT64_LIMIT, ClockModel, ClockState, TimeRangeError

FS = 10**15
C = SPEED_OF_LIGHT
GM = GM_EARTH
R_E = EARTH_RADIUS


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
        assert _shapiro_fs(r1, r2, rr) == pytest.approx(expected, abs=1e-3)


def test_relativistic_rate_gps_and_leo_magnitudes():
    gps = CircularOrbit(altitude=20200e3, ground_station=GroundStation(lat=0, lon=0))
    leo = CircularOrbit(altitude=550e3, ground_station=GroundStation(lat=0, lon=0))
    assert relativistic_rate_offset(gps) == pytest.approx(4.457e-10, rel=0.01)
    assert relativistic_rate_offset(leo) == pytest.approx(-2.65e-10, rel=0.02)


def test_overhead_pass_symmetric_elevation():
    orbit = _overhead_orbit()
    zenith = _geometry_at(orbit, 0.0)
    assert zenith.elevation == pytest.approx(math.pi / 2, abs=1e-4)
    assert zenith.range_m == pytest.approx(550e3, rel=1e-6)
    before = _geometry_at(orbit, -20.0)
    after = _geometry_at(orbit, 20.0)
    assert before.elevation == pytest.approx(after.elevation, abs=2e-4)


def test_below_mask_is_not_visible():
    orbit = _overhead_orbit()
    quarter = int(orbital_period(orbit) * FS / 4)
    far_side = _geometry_at(orbit, 2 * quarter / FS)  # antipodal: far side of the orbit
    assert not far_side.visible
    assert far_side.range_m > 2 * R_E
    with pytest.raises(NotVisibleError):
        time_of_flight(LinkModel(geometry=orbit), 2 * quarter, Direction.A_TO_B)
    zenith = _geometry_at(orbit, 0.0)
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
    instantaneous = _geometry_at(orbit, t / FS).range_m / C * FS
    assert ab != ba
    # approaching satellite: A->B flight is shorter than the frozen-geometry value
    assert ab < instantaneous < ba + 5000


def test_flight_times_satisfy_light_time_equation():
    # c * T must equal the distance from the emitter at t to the receiver at
    # t + T, for both directions and across the pass.
    orbit = _overhead_orbit()
    link = LinkModel(geometry=orbit)
    station_at, sat_at = _positions(orbit, math)
    for t in (-20 * FS, -3 * FS, 0, 11 * FS):
        for direction in (Direction.A_TO_B, Direction.B_TO_A):
            flight = time_of_flight(link, t, direction)
            t_s, t_rx = t / FS, (t + flight) / FS
            station, station_rx = np.array(station_at(t_s)), np.array(station_at(t_rx))
            sat, sat_rx = np.array(sat_at(t_s)), np.array(sat_at(t_rx))
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
    geo = _geometry_at(orbit, 0.0)
    expected = _shapiro_fs(geo.r_station_m, geo.r_sat_m, geo.range_m)
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
    phase0 = (EARTH_ROTATION_RATE - mean_motion) * t_last
    overhead = LinkModel(geometry=CircularOrbit(altitude=550e3, phase0=phase0), channel_jitter_sigma=jitter)
    assert _geometry_at(overhead.geometry, t_last).elevation > math.radians(89)
    with pytest.raises(TimeRangeError):
        propagate(np.array([0, INT64_LIMIT - 10**6], dtype=np.int64), overhead, Direction.B_TO_A, (25,))
    # 20 us sessions of 200 photons, on knots, ending 3 ms and 1 ms before the
    # edge: their arrivals, about 1.8 ms later, fit and do not
    rng = np.random.default_rng(38)
    for end, fits in ((INT64_LIMIT - 3 * 10**12, True), (INT64_LIMIT - 10**12, False)):
        emit = np.sort(rng.integers(end - 2 * 10**10, end, 200))
        for direction in Direction:
            if fits:
                assert len(propagate(emit, overhead, direction, (39,))) == 200
            else:
                with pytest.raises(TimeRangeError):
                    propagate(emit, overhead, direction, (39,))


def test_flight_time_outside_int64_raises():
    # an orbit just below the altitude bound, seen 69 degrees from overhead, is farther than c * 2^63 fs
    edge = CircularOrbit(altitude=ALTITUDE_LIMIT - 1e6, ground_station=GroundStation(lat=0.0, lon=1.2))
    far = [StaticRange(range_m=1e30), edge]
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
    sidereal_day = 2 * math.pi / EARTH_ROTATION_RATE
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
    samples = [(t / FS, _geometry_at(orbit, t / FS)) for t in grid]
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
    # a**3 in the mean motion overflowed above about 5.6e102 m
    for altitude in (ALTITUDE_LIMIT, 1e120, 1e300, math.inf, math.nan):
        with pytest.raises(ValueError, match="altitude_m must be in \\(100000, 2.7651e\\+12\\)"):
            CircularOrbit(altitude=altitude)
    overhead = LinkModel(geometry=CircularOrbit(altitude=ALTITUDE_LIMIT - 1e6))
    assert time_of_flight(overhead, 0, Direction.A_TO_B) < INT64_LIMIT
    with pytest.raises(ValueError):
        LinkModel(geometry=StaticRange(range_m=1.0), transmittance=0.0)


def _mask_crossing(orbit, lo, hi):
    """The first integer fs in (lo, hi] whose visibility differs from lo's, by bisection."""
    rising = not _geometry_at(orbit, lo / FS).visible
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if bool(_geometry_at(orbit, mid / FS).visible) != rising else (lo, mid)
    return hi


def test_visibility_at_the_elevation_mask():
    # At leo_demo's rise and set, and within 1000 fs of them, time_of_flight
    # raises NotVisibleError exactly where its solve's sin(elevation) is below
    # sin(mask); 1000 fs away the sine is clear of float noise, and the grid
    # geometry agrees.
    orbit = _leo_demo_edge_orbit()
    link = LinkModel(geometry=orbit)
    sin_mask = math.sin(orbit.elevation_mask)
    rise, set_ = _mask_crossing(orbit, -300 * FS, 0), _mask_crossing(orbit, 200 * FS, 300 * FS)
    for crossing in (rise, set_):
        seen = set()
        for t in (crossing + d for d in (0, 1, -1, 10, -10, 1000, -1000)):
            for direction in Direction:
                visible = linkmodel._knot(link, linkmodel._emit_seconds(t), direction)[1] >= sin_mask
                seen.add(visible)
                if abs(t - crossing) == 1000:
                    expected = (t > crossing) == (crossing == rise)  # after the rise, before the set
                    assert visible == bool(_geometry_at(orbit, t / FS).visible) == expected
                if visible:
                    assert time_of_flight(link, t, direction) > 0
                else:
                    with pytest.raises(NotVisibleError):
                        time_of_flight(link, t, direction)
        assert seen == {True, False}
    # 1 ms sessions of 5000 photons before, across and after the set: the
    # knots keep all or none of them, and across it each photon's geometry decides
    rng = np.random.default_rng(36)
    cases = ((set_ - 10**13, (5000, 5000)), (set_ - 5 * 10**11, (1, 4999)), (set_ + 10**13, (0, 0)))
    for start, (least, most) in cases:
        emit = np.sort(rng.integers(start, start + 10**12, 5000))
        visible = _geometry_at(orbit, emit / FS).visible
        assert least <= visible.sum() <= most
        for direction in Direction:
            assert len(propagate(emit, link, direction, (37,))) == visible.sum()


def test_coincident_endpoints_are_not_visible():
    # station and satellite both at (R + 550 km, 0, 0) at t = 0: a zero range
    # has no elevation, and reads not visible without dividing by it (pytest
    # turns numpy's 0/0 warning into an error)
    link = LinkModel(geometry=CircularOrbit(altitude=550e3, ground_station=GroundStation(alt=550e3)))
    assert _geometry_at(link.geometry, np.array([0.0])).range_m[0] == 0
    for direction in Direction:
        with pytest.raises(NotVisibleError):
            time_of_flight(link, 0, direction)
        assert len(propagate(np.array([0]), link, direction, (44,))) == 0
        # where the endpoints may meet, each photon is its own knot; on one
        # sphere the satellite never rises above the station's horizon
        emit = np.array([0, 10**12, 2 * 10**12, 3 * 10**12])
        flights, visible = linkmodel._orbit_flights_fs(link, emit, direction)
        assert not visible.any()
        solves = [linkmodel._knot(link, linkmodel._emit_seconds(t), direction) for t in emit.tolist()]
        assert flights.tolist() == [round(total) for total, _ in solves]


def test_a_few_photons_are_each_their_own_knot():
    # one photon, photons too close for three distinct knots, and no more
    # photons than the knots of their span: each photon's flight is its own
    # solve, as time_of_flight gives it
    link = LinkModel(geometry=_leo_demo_edge_orbit(), nonreciprocity_bias=3)
    t = 10**15
    for emit in ([t], [t, t], [t, t + 1], [t, t + 1, t + 1, t + 1], [t, t + 2, t + 4], [t, 2 * t, 2 * t + 1, 3 * t]):
        for direction in Direction:
            expected = sorted(e + time_of_flight(link, e, direction) for e in emit)
            assert propagate(np.array(emit), link, direction, (41,)).tolist() == expected


def _longdouble_flights_fs(link, emit_fs, direction):
    """The light-time equation solved per photon in np.longdouble (80-bit on x86): the reference for the knots.

    The same circular orbit, rotating station, bias half and Shapiro term as
    linkmodel, with every constant and angle taken to 64-bit mantissas and
    the emit times exact.
    """
    ld = np.longdouble
    orbit, gs = link.geometry, link.geometry.ground_station
    t = np.asarray(emit_fs).astype(ld) / ld(FS)
    a, r, c = ld(R_E) + ld(orbit.altitude), ld(R_E) + ld(gs.alt), ld(C)
    n = np.sqrt(ld(GM) / a**3)
    lat, inc, raan = ld(gs.lat), ld(orbit.inclination), ld(orbit.raan)

    def station_at(t):
        phi = ld(gs.lon) + ld(EARTH_ROTATION_RATE) * t
        return np.stack([r * np.cos(lat) * np.cos(phi), r * np.cos(lat) * np.sin(phi), r * np.sin(lat) + 0 * t])

    def sat_at(t):
        cu, su = np.cos(ld(orbit.phase0) + n * t), np.sin(ld(orbit.phase0) + n * t)
        co, so, ci = np.cos(raan), np.sin(raan), np.cos(inc)
        return np.stack([a * (co * cu - so * ci * su), a * (so * cu + co * ci * su), a * np.sin(inc) * su])

    station, sat = station_at(t), sat_at(t)
    emitter, receiver_at = (station, sat_at) if direction is Direction.A_TO_B else (sat, station_at)
    range_m = np.sqrt(((sat - station) ** 2).sum(axis=0))
    tau = range_m / c
    for _ in range(6):  # a contraction by about v/c per step: far below 1e-19 s after six
        tau = np.sqrt(((receiver_at(t + tau) - emitter) ** 2).sum(axis=0)) / c
    total = tau * FS + ld(direction.bias_sign * link.nonreciprocity_bias) / 2
    if link.include_shapiro:
        r1, r2 = np.sqrt((station**2).sum(axis=0)), np.sqrt((sat**2).sum(axis=0))
        total += 2 * ld(GM) / c**3 * FS * np.log((r1 + r2 + range_m) / (r1 + r2 - range_m))
    return total


def test_orbit_flights_lie_within_0_55_fs_of_an_80_bit_solve(monkeypatch):
    # Seeded leo_demo-edge sessions of 20 us, 1 ms and 0.5 s, each arm about
    # 4000 photons, in both passes and both directions, with an odd bias and
    # with and without the Shapiro term. Every knotted flight, and the
    # midpoint flights time_of_flight gives the session's truth, lies within
    # half a fs of rounding plus 0.05 fs of float noise of the reference; the
    # noise grows with the emit time, to about 0.04 fs in the second pass.
    # 0.5 s spans about 420 knot pieces.
    knotted, solve = [], linkmodel._orbit_flights_fs

    def recorded(link, emit, direction):
        flights, visible = solve(link, emit, direction)
        knotted.append((emit, direction, flights))
        return flights, visible

    monkeypatch.setattr(linkmodel, "_orbit_flights_fs", recorded)
    leo = json.loads((Path(__file__).parent.parent / "scenarios" / "leo_demo.json").read_text())
    session = build_topology(leo["topology"])[0].edges[0].session
    rng = np.random.default_rng(45)
    for first_s, last_s in ((0, 270), (5899, 6408)):
        for duration_s in (2e-5, 1e-3, 0.5):
            for shapiro in (False, True):
                a, b = (
                    dataclasses.replace(arm, source=dataclasses.replace(arm.source, pair_rate=4000 / duration_s))
                    for arm in (session.instruments_a, session.instruments_b)
                )
                start = int(rng.integers(first_s * FS, (last_s - duration_s) * FS))
                link = dataclasses.replace(session.link, nonreciprocity_bias=3, include_shapiro=shapiro)
                spec = dataclasses.replace(
                    session, duration=int(duration_s * FS), start_time=start, link=link,
                    instruments_a=a, instruments_b=b,
                )
                knotted.clear()
                truth = run_session(spec, ClockState(ClockModel()), ClockState(ClockModel()), (46, start)).truth
                assert [(d, len(emit) > 3000) for emit, d, _ in knotted] == [(d, True) for d in Direction]
                for emit, direction, flights in knotted:
                    assert np.abs(flights - _longdouble_flights_fs(link, emit, direction)).max() <= 0.55
                midpoint = np.array([truth.midpoint_fs])
                for direction, flight in zip(Direction, (truth.flight_ab_fs, truth.flight_ba_fs)):
                    assert abs(flight - _longdouble_flights_fs(link, midpoint, direction)[0]) <= 0.55


def _inclined_meo_orbit():
    return CircularOrbit(
        altitude=20200e3, inclination=math.radians(55), raan=0.4, phase0=1.1,
        ground_station=GroundStation(lat=0.8, lon=0.3, alt=1500.0),
    )


def _geo_orbit():
    # equatorial, over the station's meridian: visible at every time
    return CircularOrbit(altitude=35786e3)


_ORBITS = {"leo_demo-edge": _leo_demo_edge_orbit, "inclined-meo": _inclined_meo_orbit, "geo": _geo_orbit}


@pytest.mark.parametrize("direction", list(Direction))
@pytest.mark.parametrize("orbit_name", list(_ORBITS))
def test_a_knot_piece_truncates_below_the_bound(orbit_name, direction):
    # The quadratic through 80-bit solves at a longest_span_s piece's ends and
    # middle misses the 80-bit flight inside the piece by less than
    # _TRUNCATION_FS, for pieces spread over the int64 range, Shapiro term included.
    link = LinkModel(geometry=_ORBITS[orbit_name](), include_shapiro=True)
    h = int(linkmodel._motion(link.geometry).longest_span_s * FS)
    ld = np.longdouble
    for t0 in np.linspace(-9.2 * 10**18, 9.2 * 10**18 - 2 * h, 9).astype(np.int64).tolist():
        knots = np.array([t0, t0 + h // 2, t0 + h])
        f0, f1, f2 = _longdouble_flights_fs(link, knots, direction)
        x0, x1, x2 = (knots - t0).astype(ld)
        d1 = (f1 - f0) / (x1 - x0)
        c2 = ((f2 - f0) / (x2 - x0) - d1) / (x2 - x1)
        inside = np.arange(t0, t0 + h, h // 200)
        x = (inside - t0).astype(ld)
        quadratic = f0 + (x - x0) * (d1 + (x - x1) * c2)
        assert np.abs(quadratic - _longdouble_flights_fs(link, inside, direction)).max() < linkmodel._TRUNCATION_FS


def test_motion_has_no_bound_where_the_endpoints_may_meet():
    assert linkmodel._motion(CircularOrbit(altitude=550e3, ground_station=GroundStation(alt=550e3))) is None
    # a 550 km LEO link's pieces are about 1.19 ms; slower geometry allows longer ones
    spans = [linkmodel._motion(_ORBITS[name]()).longest_span_s for name in _ORBITS]
    assert spans[0] == pytest.approx(1.19e-3, rel=0.01)
    assert spans == sorted(spans)


@pytest.mark.parametrize("direction", list(Direction))
def test_light_time_iteration_limit_raises(monkeypatch, direction):
    # One receiver update cannot converge on a LEO link (the receiver moves
    # tens of metres in a flight), so time_of_flight and both of propagate's
    # paths, one photon and knots, raise; a static range has no iteration.
    link = LinkModel(geometry=_leo_demo_edge_orbit())
    emit = np.sort(np.random.default_rng(47).integers(0, 10**12, 4000))
    assert time_of_flight(link, 0, direction) > 0
    monkeypatch.setattr(linkmodel, "_LIGHT_TIME_ITERATIONS", 1)
    with pytest.raises(linkmodel.LightTimeConvergenceError, match="exceeded 1 iterations"):
        time_of_flight(link, 0, direction)
    for photons in (emit[:1], emit):
        with pytest.raises(linkmodel.LightTimeConvergenceError):
            propagate(photons, link, direction, (48,))
    assert time_of_flight(LinkModel(geometry=StaticRange(range_m=299.792458)), 0, direction) == 10**9


_TOF_CASES = {
    # name: (orbit, include_shapiro, emit-time ranges in s)
    "leo_demo-edge": (_leo_demo_edge_orbit, False, ((0, 270), (5899, 6408))),
    "leo_demo-edge-shapiro": (_leo_demo_edge_orbit, True, ((0, 270), (5899, 6408))),
    "geo": (_geo_orbit, True, ((-9223, 9223),)),
}


@pytest.mark.parametrize("case", list(_TOF_CASES))
def test_time_of_flight_lies_within_0_55_fs_of_an_80_bit_solve(case):
    # Seeded visible emit times, a GEO link's across the whole int64 range:
    # each flight lies within half a fs of rounding plus float noise of the
    # reference, including the emit time's rounding to float seconds.
    make_orbit, shapiro, ranges = _TOF_CASES[case]
    link = LinkModel(geometry=make_orbit(), include_shapiro=shapiro, nonreciprocity_bias=3)
    rng = np.random.default_rng(49)
    for first_s, last_s in ranges:
        emit = rng.integers(first_s * FS, last_s * FS, 150)
        assert _geometry_at(link.geometry, emit / FS).visible.all()
        for direction in Direction:
            flights = [time_of_flight(link, t, direction) for t in emit.tolist()]
            assert np.abs(flights - _longdouble_flights_fs(link, emit, direction)).max() <= 0.55


@pytest.mark.parametrize("direction", list(Direction))
def test_orbit_flights_at_the_int64_edge_lie_within_0_55_fs_of_an_80_bit_solve(direction):
    # Sessions of 20 us, 1 ms and 0.5 s, about 4000 photons each, ending 3 ms
    # before the last int64 fs on an orbit overhead there, where the emit
    # times' float seconds are coarsest: the knotted flights keep the bound.
    t_last = (INT64_LIMIT - 1) / FS
    mean_motion = 2 * math.pi / orbital_period(_overhead_orbit())
    phase0 = (EARTH_ROTATION_RATE - mean_motion) * t_last
    link = LinkModel(geometry=CircularOrbit(altitude=550e3, phase0=phase0), nonreciprocity_bias=3)
    end = INT64_LIMIT - 3 * 10**12
    rng = np.random.default_rng(50)
    for duration_fs in (2 * 10**10, 10**12, 5 * 10**14):
        emit = np.sort(rng.integers(end - duration_fs, end, 4000))
        flights, visible = linkmodel._orbit_flights_fs(link, emit, direction)
        assert visible is np.True_  # from the knots, so the knots were solved
        assert np.abs(flights - _longdouble_flights_fs(link, emit, direction)).max() <= 0.55
