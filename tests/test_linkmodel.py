"""Geometry, light time, relativistic corrections, and channel effects."""

from __future__ import annotations

import math

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
from qcsync.timebase import INT64_LIMIT, TimeRangeError

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


# The scalar solve, and with it the knots, is off on a host whose numpy sin or
# cos differ from math's; the tests that count its use need it on.
scalar_solve_on = pytest.mark.skipif(
    not linkmodel._scalar_solve_is_exact(), reason="numpy's sin or cos differ from math's on this host"
)


def _lockstep_flights(link, emit_fs, direction):
    """Scalar solves of each emit time, stopped together as the array solve stops its photons."""
    positions = _positions(link.geometry, math)
    equations = [linkmodel._scalar_equation(positions, float(t) / FS, direction) for t in emit_fs.tolist()]
    taus = [range_m / C for _, _, range_m, _ in equations]
    for _ in range(5):
        new_taus = [next_flight_s(tau) for (*_, next_flight_s), tau in zip(equations, taus)]
        steps, taus = [abs(new - tau) for new, tau in zip(new_taus, taus)], new_taus
        if max(steps) < 1e-15:
            break
    return np.array([round(linkmodel._total_fs(link, tau, direction)) for tau in taus])


@scalar_solve_on
@pytest.mark.parametrize("direction", list(Direction))
def test_scalar_light_time_matches_the_array_solve(direction):
    # 5000 seeded emit times a direction over leo_demo's pass (0-270 s); an
    # odd bias puts the half-fs on the other side of each integer
    link = LinkModel(geometry=_leo_demo_edge_orbit(), nonreciprocity_bias=3)
    emit = np.sort(np.random.default_rng(31).integers(0, 270 * FS, 5000))
    flights, _ = linkmodel._flight_times_fs(link, emit, direction)
    assert np.array_equal(_lockstep_flights(link, emit, direction), flights)
    for t in emit.tolist():
        (alone,), _ = linkmodel._flight_times_fs(link, np.array([t]), direction)
        assert _lockstep_flights(link, np.array([t]), direction)[0] == alone == time_of_flight(link, t, direction)


def _mask_crossing(orbit, lo, hi):
    """The first integer fs in (lo, hi] whose visibility differs from lo's, by bisection."""
    rising = not _geometry_at(orbit, lo / FS).visible
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if bool(_geometry_at(orbit, mid / FS).visible) != rising else (lo, mid)
    return hi


@scalar_solve_on
def test_time_of_flight_at_the_mask_needs_no_array_solve(monkeypatch):
    # sin(elevation) is the same float on both paths and meets the same
    # sin(mask), so at leo_demo's rise and set, and within 1000 fs of them,
    # the scalar solve decides visibility as the array does
    orbit = _leo_demo_edge_orbit()
    link = LinkModel(geometry=orbit)
    solve, calls = linkmodel._light_time_flights_s, []
    monkeypatch.setattr(linkmodel, "_light_time_flights_s", lambda *args: calls.append(args) or solve(*args))
    for crossing in (_mask_crossing(orbit, -300 * FS, 0), _mask_crossing(orbit, 200 * FS, 300 * FS)):
        seen = set()
        for t in (crossing + d for d in (0, 1, -1, 10, -10, 1000, -1000)):
            for direction in Direction:
                (flight,), (visible,) = linkmodel._flight_times_fs(link, np.array([t]), direction)
                seen.add(bool(visible))
                calls.clear()
                if visible:
                    assert time_of_flight(link, t, direction) == flight
                else:
                    with pytest.raises(NotVisibleError):
                        time_of_flight(link, t, direction)
                assert calls == []
        assert seen == {True, False}


def test_shapiro_links_keep_the_array_solve(monkeypatch):
    # numpy's log is not the C library's, so no scalar Shapiro term is exact
    link = LinkModel(geometry=_leo_demo_edge_orbit(), include_shapiro=True)
    emit = np.sort(np.random.default_rng(32).integers(0, 2 * 10**10, 200))
    assert linkmodel._knot_flights_fs(link, emit, Direction.A_TO_B) is None
    solve, calls = linkmodel._light_time_flights_s, []
    monkeypatch.setattr(linkmodel, "_light_time_flights_s", lambda *args: calls.append(args) or solve(*args))
    time_of_flight(link, 0, Direction.A_TO_B)
    propagate(emit, link, Direction.B_TO_A, (33,))
    assert len(calls) == 2


def test_a_host_whose_numpy_differs_keeps_the_array_solve(monkeypatch):
    monkeypatch.setattr(linkmodel, "_scalar_solve_is_exact", lambda: False)
    solve, calls = linkmodel._light_time_flights_s, []
    monkeypatch.setattr(linkmodel, "_light_time_flights_s", lambda *args: calls.append(args) or solve(*args))
    link = LinkModel(geometry=_leo_demo_edge_orbit())
    emit = np.sort(np.random.default_rng(42).integers(0, 2 * 10**10, 200))
    assert linkmodel._knot_flights_fs(link, emit, Direction.A_TO_B) is None
    time_of_flight(link, 0, Direction.A_TO_B)
    propagate(emit, link, Direction.B_TO_A, (43,))
    assert len(calls) == 2


def test_coincident_endpoints_are_not_visible():
    # station and satellite both at (R + 550 km, 0, 0) at t = 0: a zero range
    # has no elevation, and the array solve calls it not visible without
    # dividing by it (pytest turns numpy's 0/0 warning into an error)
    link = LinkModel(geometry=CircularOrbit(altitude=550e3, ground_station=GroundStation(alt=550e3)))
    assert _geometry_at(link.geometry, np.array([0.0])).range_m[0] == 0
    for direction in Direction:
        with pytest.raises(NotVisibleError):
            time_of_flight(link, 0, direction)
        assert len(propagate(np.array([0]), link, direction, (44,))) == 0


class _ExactCounter:
    """Counts the photons whose interpolated flight lay near a half-fs, and keeps each filter's inputs."""

    def __init__(self, monkeypatch):
        self.exact, self.filtered = 0, []
        near_half = linkmodel._near_half

        def counted(total, rounded, bound):
            near = near_half(total, rounded, bound)
            if isinstance(total, np.ndarray):
                self.exact += int(near.sum())
                self.filtered.append((total, bound))
            return near

        monkeypatch.setattr(linkmodel, "_near_half", counted)


def _array_propagate(monkeypatch, *args):
    with monkeypatch.context() as m:
        m.setattr(linkmodel, "_knot_flights_fs", lambda *_: None)
        return propagate(*args)


def _both_propagates(monkeypatch, emit, link, direction, seed):
    """propagate through the knots, and through the array solve alone; each result or error."""
    results = []
    for run in (propagate, lambda *args: _array_propagate(monkeypatch, *args)):
        try:
            results.append(run(emit, link, direction, seed))
        except TimeRangeError as exc:
            results.append(type(exc))
    return results


@scalar_solve_on
@pytest.mark.parametrize("duration_s, photons, on_knots", [(2e-5, 200, True), (1e-3, 5000, True), (0.1, 20000, False)])
def test_orbit_propagate_matches_the_array_solve(monkeypatch, duration_s, photons, on_knots):
    # seeded sessions over leo_demo's pass, with loss and channel jitter; a
    # span past _Motion.longest_span_s (about 1.19 ms here) keeps the array solve
    counter = _ExactCounter(monkeypatch)
    link = LinkModel(geometry=_leo_demo_edge_orbit(), transmittance=0.9, channel_jitter_sigma=400)
    rng = np.random.default_rng(34)
    taken = sent = 0
    for start in rng.integers(0, 260 * FS, 4).tolist():
        emit = np.sort(rng.integers(start, start + int(duration_s * FS), photons))
        for direction in Direction:
            knotted, array = _both_propagates(monkeypatch, emit, link, direction, (35, start))
            assert np.array_equal(knotted, array)
            taken, sent = taken + len(counter.filtered), sent + len(emit)
            counter.filtered.clear()
    assert taken == (8 if on_knots else 0)
    # the photons within the bound of a half-fs, about 5 %, were solved exactly
    assert 0.02 * sent < counter.exact < 0.1 * sent if on_knots else counter.exact == 0


def test_orbit_propagate_matches_on_a_few_photons(monkeypatch):
    # one photon, or photons too close for three distinct knots, keep the array solve
    link = LinkModel(geometry=_leo_demo_edge_orbit())
    for emit in ([10**15], [10**15, 10**15], [10**15, 10**15 + 1], [10**15, 10**15 + 2, 10**15 + 4]):
        emit = np.array(emit, dtype=np.int64)
        for direction in Direction:
            knotted, array = _both_propagates(monkeypatch, emit, link, direction, (41,))
            assert np.array_equal(knotted, array) and len(knotted) == len(emit)


@scalar_solve_on
def test_orbit_propagate_matches_across_the_elevation_mask(monkeypatch):
    orbit = _leo_demo_edge_orbit()
    hi = _mask_crossing(orbit, 200 * FS, 300 * FS)  # leo_demo's pass sets below the mask in between
    counter = _ExactCounter(monkeypatch)
    link = LinkModel(geometry=orbit)
    rng = np.random.default_rng(36)
    for start in (hi - 5 * 10**11, hi - 10**13, hi + 10**13):  # straddling, before, after
        emit = np.sort(rng.integers(start, start + 10**12, 5000))
        for direction in Direction:
            knotted, array = _both_propagates(monkeypatch, emit, link, direction, (37,))
            assert np.array_equal(knotted, array)
            if start == hi - 5 * 10**11:
                assert 0 < len(knotted) < len(emit)
            else:
                assert len(knotted) == (len(emit) if start < hi else 0)
    assert len(counter.filtered) == 6
    assert counter.exact > 0


@scalar_solve_on
@pytest.mark.parametrize("share_limit", [None, 2.0])
def test_orbit_propagate_matches_at_the_int64_edge(monkeypatch, share_limit):
    # the overhead orbit of test_propagate_raises_where_arrivals_would_wrap_int64.
    # Rounding noise grows with the time: this late, the knots would send most
    # photons to the exact solve, so they leave the session to the array solve.
    # With the share limit lifted they take it, and must still match.
    if share_limit:
        monkeypatch.setattr(linkmodel, "_EXACT_SHARE_LIMIT", share_limit)
    counter = _ExactCounter(monkeypatch)
    t_last = (INT64_LIMIT - 1) / FS
    mean_motion = 2 * math.pi / orbital_period(_overhead_orbit())
    link = LinkModel(geometry=CircularOrbit(altitude=550e3, phase0=(EARTH_ROTATION_RATE - mean_motion) * t_last))
    rng = np.random.default_rng(38)
    for end, fits in ((INT64_LIMIT - 3 * 10**12, True), (INT64_LIMIT - 10**12, False)):
        emit = np.sort(rng.integers(end - 2 * 10**10, end, 200))
        for direction in Direction:
            knotted, array = _both_propagates(monkeypatch, emit, link, direction, (39,))
            if fits:
                assert np.array_equal(knotted, array) and len(knotted) == len(emit)
            else:
                assert knotted is array is TimeRangeError
    assert len(counter.filtered) == (4 if share_limit else 0)
    assert (counter.exact > 4 * 200 / 2) == bool(share_limit)


@scalar_solve_on
def test_interpolated_flights_stay_within_half_the_rounding_bound(monkeypatch):
    # the bound's margin: over seeded leo_demo sessions, the interpolated flight
    # lies within half of it from the array solve's unrounded flight
    counter = _ExactCounter(monkeypatch)
    orbit = _leo_demo_edge_orbit()
    link = LinkModel(geometry=orbit)
    rng = np.random.default_rng(40)
    declined = 0
    for start in rng.integers(0, 270 * FS, 100).tolist():
        emit = np.sort(rng.integers(start, start + 2 * 10**10, 200))
        emit_s = emit / FS
        geo = _geometry_at(orbit, emit_s)
        for direction in Direction:
            if linkmodel._knot_flights_fs(link, emit, direction) is None:
                declined += 1  # near closest approach the iteration count may be in doubt
                continue
            ((interpolated, bound),) = counter.filtered
            counter.filtered.clear()
            flights_s = linkmodel._light_time_flights_s(orbit, geo, emit_s, direction)
            unrounded = linkmodel._total_fs(link, flights_s, direction)
            assert np.abs(interpolated - unrounded).max() <= bound / 2
    assert declined <= 10
