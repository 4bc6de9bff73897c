"""End-to-end acceptance checks, one test per release criterion."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from qcsync.bellauth import (
    AUTHENTIC,
    AuthPolicy,
    ChshSettings,
    EntanglementModel,
    authenticate,
    chsh_value,
    simulate_coincidences,
)
from qcsync.estimator import (
    CorrelationConfig,
    coarse_histogram,
    cross_correlate,
    frequency_track,
)
from qcsync.linkmodel import DEFAULT_CONSTANTS, LinkModel, StaticRange, _shapiro_fs
from qcsync.netsync import (
    ROLE_REFERENCE,
    Node,
    SyncEdge,
    Topology,
    gps_baseline_comparison,
    run_network,
)
from qcsync.photonics import Detector, PairSource, TimeTagger
from qcsync.scenario import build_topology, load_scenario
from qcsync.session import NodeInstruments, SessionSpec, estimate_session, run_session
from qcsync.timebase import ClockModel, ClockState

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# 299.792458 m of straight line is exactly 1e9 fs of light travel
RANGE_1US_M = 299.792458
FLIGHT_1US_FS = 10**9


def _instruments(rate, *, sigma_pair=0, eff=1.0, jitter=0, darks=0.0, resolution=1000):
    return NodeInstruments(
        source=PairSource(pair_rate=rate, pair_correlation_sigma=sigma_pair),
        detector=Detector(efficiency=eff, jitter_sigma=jitter, dark_rate=darks),
        tagger=TimeTagger(resolution=resolution),
    )


def _run(seed, *, duration, instruments, link, clock_b_model):
    spec = SessionSpec(
        duration=duration, instruments_a=instruments, instruments_b=instruments, link=link
    )
    clock_a = ClockState(ClockModel(), rng_stream=(seed, "clock", "a"))
    clock_b = ClockState(clock_b_model, rng_stream=(seed, "clock", "b"))
    return run_session(spec, clock_a, clock_b, (seed, "session"))


def _rms(values) -> float:
    return float(np.sqrt(np.mean(np.square(np.asarray(values, dtype=np.float64)))))


def _chain_topology(jitter=20_000):
    instruments = _instruments(2e7, jitter=jitter)
    link = LinkModel(geometry=StaticRange(range_m=3000.0))
    cfg = CorrelationConfig(search_window=10**11, coarse_bin=10**6, fine_bin=2 * 10**5)

    def edge(up, down):
        return SyncEdge(
            upstream=up,
            downstream=down,
            link=link,
            correlation=cfg,
            interval_s=0.01,
            duration_fs=10**10,
            instruments_up=instruments,
            instruments_down=instruments,
        )

    return Topology(
        nodes=(
            Node("ref", ClockModel(), role=ROLE_REFERENCE),
            Node("n1", ClockModel(initial_offset_fs=3 * 10**6)),
            Node("n2", ClockModel(initial_offset_fs=-2 * 10**6)),
        ),
        edges=(edge("ref", "n1"), edge("n1", "n2")),
    )


def test_c01_hundred_pairs_against_1khz_darks():
    # ~100 detected true pairs per direction against 1 kHz dark rates must
    # still pin the correct coarse peak in >= 99% of 200 trials, in < 10 s.
    link = LinkModel(geometry=StaticRange(range_m=RANGE_1US_M * 1000), transmittance=0.5)
    flight = FLIGHT_1US_FS * 1000
    instruments = _instruments(
        1e4, sigma_pair=500, eff=0.45, jitter=50_000, darks=1000.0
    )
    cfg = CorrelationConfig(search_window=2 * 10**12, coarse_bin=10**6, fine_bin=2 * 10**5)
    theta0 = 5 * 10**8
    started = time.monotonic()
    hits = 0
    pair_counts = []
    for seed in range(200):
        streams = _run(
            seed,
            duration=10**14,
            instruments=instruments,
            link=link,
            clock_b_model=ClockModel(initial_offset_fs=theta0),
        )
        d_ab = cross_correlate(streams.local_a, streams.remote_ab, cfg)
        d_ba = cross_correlate(streams.local_b, streams.remote_ba, cfg)
        pair_counts.append((d_ab.peak_counts + d_ba.peak_counts) / 2)
        ok_ab = abs(d_ab.peak_offset - (flight + theta0)) <= cfg.coarse_bin
        ok_ba = abs(d_ba.peak_offset - (flight - theta0)) <= cfg.coarse_bin
        hits += int(ok_ab and ok_ba)
    elapsed = time.monotonic() - started
    assert np.mean(pair_counts) == pytest.approx(100, rel=0.25)
    assert hits / 200 >= 0.99
    assert elapsed < 10.0


def test_c02_two_way_precision_vs_pair_count():
    # 50 ps per-detector jitter: RMSE <= 10 ps at 1e3 pairs, <= 3 ps at 1e4
    # pairs, 200 trials each, < 60 s total.
    link = LinkModel(geometry=StaticRange(range_m=RANGE_1US_M))
    cfg = CorrelationConfig(search_window=2 * 10**9, coarse_bin=10**6, fine_bin=2 * 10**5)
    theta0 = 5 * 10**6
    started = time.monotonic()
    for rate, rmse_bound_fs in ((1e6, 10_000), (1e7, 3_000)):
        instruments = _instruments(rate, jitter=50_000)
        errors = []
        for seed in range(200):
            streams = _run(
                seed,
                duration=10**12,
                instruments=instruments,
                link=link,
                clock_b_model=ClockModel(initial_offset_fs=theta0),
            )
            result = estimate_session(streams, cfg)
            errors.append(result.clock_offset - theta0)
        assert _rms(errors) <= rmse_bound_fs
    assert time.monotonic() - started < 60.0


def test_c02_reported_uncertainty_matches_error_at_every_fine_bin():
    # c02's 1e6 pairs/s setup over 100 seeds: the fine bin only floors the
    # member window, so error / reported uncertainty has an RMS near 1 and
    # the error does not grow as the fine bin shrinks
    link = LinkModel(geometry=StaticRange(range_m=RANGE_1US_M))
    instruments = _instruments(1e6, jitter=50_000)
    theta0 = 5 * 10**6
    errors = {fine_bin: [] for fine_bin in (1000, 10_000, 200_000)}
    pulls = {fine_bin: [] for fine_bin in errors}
    for seed in range(100):
        streams = _run(
            seed,
            duration=10**12,
            instruments=instruments,
            link=link,
            clock_b_model=ClockModel(initial_offset_fs=theta0),
        )
        for fine_bin in errors:
            cfg = CorrelationConfig(search_window=2 * 10**9, coarse_bin=10**6, fine_bin=fine_bin)
            result = estimate_session(streams, cfg)
            errors[fine_bin].append(result.clock_offset - theta0)
            pulls[fine_bin].append(errors[fine_bin][-1] / result.offset_uncertainty)
    for fine_bin in errors:
        assert 0.8 <= _rms(pulls[fine_bin]) <= 1.25, fine_bin
    assert _rms(errors[1000]) <= 1.2 * _rms(errors[200_000])


def test_c03_nonreciprocity_bias_surfaces_as_half():
    # injected one-way asymmetry b in {0.2, 2, 2000} ps biases the offset by
    # exactly b/2 in noiseless runs (within one fine bin)
    cfg = CorrelationConfig(search_window=2 * 10**9, coarse_bin=10**6, fine_bin=1000)
    for bias_fs in (200, 2_000, 2_000_000):
        link = LinkModel(
            geometry=StaticRange(range_m=RANGE_1US_M), nonreciprocity_bias=bias_fs
        )
        streams = _run(
            17,
            duration=10**12,
            instruments=_instruments(1e6, resolution=1),
            link=link,
            clock_b_model=ClockModel(initial_offset_fs=10**6),
        )
        result = estimate_session(streams, cfg)
        error = result.clock_offset - 10**6
        assert abs(error - bias_fs // 2) <= cfg.fine_bin
        assert result.flight_time == FLIGHT_1US_FS


def test_c04_noiseless_pipeline_recovers_exactly():
    # all noise off: theta and flight time recovered to <= 1 fs
    link = LinkModel(geometry=StaticRange(range_m=RANGE_1US_M))
    cfg = CorrelationConfig(search_window=2 * 10**9, coarse_bin=10**6, fine_bin=1000)
    for seed in range(5):
        streams = _run(
            seed,
            duration=10**12,
            instruments=_instruments(1e6, resolution=1),
            link=link,
            clock_b_model=ClockModel(initial_offset_fs=10**6),
        )
        result = estimate_session(streams, cfg)
        assert abs(result.clock_offset - 10**6) <= 1
        assert abs(result.flight_time - FLIGHT_1US_FS) <= 1
        assert result.offset_uncertainty == 0


def test_c05_histogram_matches_all_pairs_brute_force():
    rng = np.random.default_rng(1234)
    cfg = CorrelationConfig(search_window=10**8, coarse_bin=10**5, fine_bin=100)
    for _ in range(50):
        n, m = int(rng.integers(1, 201)), int(rng.integers(1, 201))
        local = np.sort(rng.integers(0, 10**9, n)).astype(np.int64)
        remote = np.sort(rng.integers(0, 10**9, m)).astype(np.int64)
        bins, counts, origin = coarse_histogram(local, remote, cfg)[:3]
        diffs = (remote[None, :] - local[:, None]).ravel()
        diffs = diffs[np.abs(diffs) <= cfg.search_window]
        want_bins, want_counts = np.unique(
            (diffs - origin) // cfg.coarse_bin, return_counts=True
        )
        assert np.array_equal(bins, want_bins)
        assert np.array_equal(counts, want_counts)


def test_c06_frequency_recovery_noiseless_and_jittered():
    link = LinkModel(geometry=StaticRange(range_m=RANGE_1US_M))
    y = 1e-9
    clock_b = ClockModel(initial_offset_fs=10**6, fractional_frequency=y)
    clean_cfg = CorrelationConfig(
        search_window=2 * 10**9, coarse_bin=10**6, fine_bin=1000, block_count=10
    )
    noisy_cfg = CorrelationConfig(
        search_window=2 * 10**9, coarse_bin=10**6, fine_bin=2 * 10**5, block_count=10
    )
    for seed in range(5):
        clean = _run(
            seed,
            duration=10**12,
            instruments=_instruments(1e7, resolution=1),
            link=link,
            clock_b_model=clock_b,
        )
        fit = frequency_track(
            clean.local_a, clean.remote_ab, clean.local_b, clean.remote_ba, clean_cfg
        )
        assert fit.fractional_frequency == pytest.approx(y, abs=1e-11)

        # the slope standard error scales as block noise / span, so the
        # jittered case needs a long acquisition: 0.2 s at 5e4 pairs/s keeps
        # 1e4 pairs while shrinking the 1.6 ps block noise to 9e-12 of slope
        noisy = _run(
            seed + 100,
            duration=2 * 10**14,
            instruments=_instruments(5e4, jitter=50_000),
            link=link,
            clock_b_model=clock_b,
        )
        fit = frequency_track(
            noisy.local_a, noisy.remote_ab, noisy.local_b, noisy.remote_ba, noisy_cfg
        )
        assert fit.fractional_frequency == pytest.approx(y, abs=5e-11)


def test_c07_shapiro_closed_form_and_meo_magnitude():
    constants = DEFAULT_CONSTANTS
    rng = np.random.default_rng(77)
    factor = 2.0 * constants.gm_earth / constants.c**3
    for _ in range(20):
        r1 = constants.earth_radius * (1.0 + rng.random())
        r2 = r1 + rng.uniform(1e5, 4e7)
        straight = rng.uniform(abs(r2 - r1) + 1.0, 0.999 * (r1 + r2))
        want_fs = factor * math.log((r1 + r2 + straight) / (r1 + r2 - straight)) * 10**15
        assert abs(_shapiro_fs(r1, r2, straight, constants) - want_fs) < 1e-3
    # vertical ground-to-MEO pass: tens of picoseconds
    meo = _shapiro_fs(constants.earth_radius, constants.earth_radius + 20_200_000.0, 20_200_000.0, constants)
    assert 10**4 <= meo <= 10**5


def test_c08_chsh_scaling_and_false_authentication_rate():
    for index, visibility in enumerate((1.0, 0.9, 1 / math.sqrt(2), 0.5)):
        counts = simulate_coincidences(
            EntanglementModel(visibility), ChshSettings(), 10**4, (5, "grid", index)
        )
        est = chsh_value(counts)
        assert est.S == pytest.approx(
            2 * math.sqrt(2) * visibility, abs=4 * est.standard_error
        )
    # an intercept-resend attacker caps S at the classical bound; the assay
    # must essentially never authenticate it
    policy = AuthPolicy()
    cap = EntanglementModel(1 / math.sqrt(2))
    false_auth = sum(
        authenticate(
            chsh_value(simulate_coincidences(cap, ChshSettings(), 10**4, (seed, "auth"))),
            policy,
        )
        == AUTHENTIC
        for seed in range(1000)
    )
    assert false_auth / 1000 < 0.01


def test_c09_strata_rms_scaling_failover_and_isolation():
    # stratum-k RMS error grows as sqrt(k) when every link contributes an
    # independent error of the same size
    last_n1, last_n2 = [], []
    for seed in range(200):
        report = run_network(_chain_topology(), horizon=5 * 10**13, seed=seed)
        last_n1.append(report.errors_fs["n1"][-1])
        last_n2.append(report.errors_fs["n2"][-1])
    ratio = _rms(last_n2) / _rms(last_n1)
    assert math.sqrt(2) * 0.8 <= ratio <= math.sqrt(2) * 1.2

    # a failed relay with a configured backup is bridged within one interval
    instruments = _instruments(2e7, jitter=20_000)
    link = LinkModel(geometry=StaticRange(range_m=3000.0))
    cfg = CorrelationConfig(search_window=10**11, coarse_bin=10**6, fine_bin=2 * 10**5)

    def edge(up, down):
        return SyncEdge(
            upstream=up,
            downstream=down,
            link=link,
            correlation=cfg,
            interval_s=0.01,
            duration_fs=10**10,
            instruments_up=instruments,
            instruments_down=instruments,
        )

    topology = Topology(
        nodes=(
            Node("ref", ClockModel(), role=ROLE_REFERENCE),
            Node("relay", ClockModel(initial_offset_fs=10**6)),
            Node("leaf", ClockModel(initial_offset_fs=4 * 10**6)),
        ),
        edges=(edge("ref", "relay"), edge("relay", "leaf"), edge("ref", "leaf")),
        failover_rules={"leaf": ["relay", "ref"]},
    )
    failed = dataclasses.replace(topology, failures=(("relay", 15 * 10**12),))
    report = run_network(failed, horizon=4 * 10**13, seed=9)
    assert report.strata == {"ref": 0, "relay": None, "leaf": 1}
    leaf_events = [e for e in report.events if e["downstream"] == "leaf"]
    applied_after = [
        e for e in leaf_events if e["t_s"] > 0.015 and e["outcome"] == "applied"
    ]
    assert applied_after and all(e["upstream"] == "ref" for e in applied_after)
    assert min(e["t_s"] for e in applied_after) <= 0.015 + 0.01
    assert abs(report.errors_fs["leaf"][-1]) < 2 * 10**5

    # killing a leaf must leave every other node's series bit-identical
    base = _chain_topology()
    a = run_network(base, horizon=4 * 10**13, seed=5)
    b = run_network(dataclasses.replace(base, failures=(("n2", 2 * 10**13),)), horizon=4 * 10**13, seed=5)
    assert b.strata == {"ref": 0, "n1": 1, "n2": None}
    assert a.errors_fs["n1"] == b.errors_fs["n1"]
    assert a.errors_fs["ref"] == b.errors_fs["ref"]


def test_c10_leo_demo_meets_published_baselines():
    config = load_scenario(SCENARIOS / "leo_demo.json")
    topology, horizon_fs, report_interval_fs = build_topology(config["topology"])
    report = run_network(topology, horizon_fs, config["seed"], report_interval_fs)
    overall = gps_baseline_comparison(report)["overall"]
    assert overall["within_10ps"] >= 0.90
    assert overall["within_0.7ns"] == 1.0
    assert overall["within_20ns"] == 1.0


def _pipeline_digest() -> str:
    digest = hashlib.sha256()
    streams = _run(
        31,
        duration=10**12,
        instruments=_instruments(1e6, sigma_pair=500, jitter=20_000, darks=500.0),
        link=LinkModel(geometry=StaticRange(range_m=RANGE_1US_M), transmittance=0.8),
        clock_b_model=ClockModel(initial_offset_fs=3 * 10**6, fractional_frequency=2e-10),
    )
    for stream in (streams.local_a, streams.remote_ab, streams.local_b, streams.remote_ba):
        digest.update(stream.timestamps.tobytes())
    result = estimate_session(
        streams,
        CorrelationConfig(search_window=2 * 10**9, coarse_bin=10**6, fine_bin=2 * 10**5),
    )
    digest.update(
        repr((result.clock_offset, result.flight_time, result.offset_uncertainty)).encode()
    )
    report = run_network(_chain_topology(), horizon=3 * 10**13, seed=7)
    digest.update(json.dumps(report.to_dict(), sort_keys=True).encode())
    counts = simulate_coincidences(EntanglementModel(0.9), ChshSettings(), 5000, (9, "bell"))
    digest.update(counts.tobytes())
    return digest.hexdigest()


def test_c11_fixed_seeds_are_bit_reproducible():
    assert _pipeline_digest() == _pipeline_digest()


def test_c12_offset_and_rate_pulls_with_drifting_clocks():
    # 40 sessions of 20 ms at 1e7 pairs/s, each clock with its own rate,
    # white phase noise and random-walk frequency, |delta y| in [1e-8, 3e-8]:
    # the offset read at the stated epoch and the rate of the member lines
    # both have an error / reported uncertainty RMS near 1. Reading theta at
    # the members' mean times instead gave an offset pull RMS of 1.5 to 2.
    instruments = NodeInstruments(
        source=PairSource(pair_rate=1e7, pair_correlation_sigma=500),
        detector=Detector(efficiency=0.45, jitter_sigma=50_000, dark_rate=1e3, dead_time=25_000_000),
        tagger=TimeTagger(resolution=1000),
    )
    link = LinkModel(geometry=StaticRange(range_m=30.0), transmittance=0.5)
    spec = SessionSpec(duration=2 * 10**13, instruments_a=instruments, instruments_b=instruments, link=link)
    cfg = CorrelationConfig(search_window=2 * 10**8, coarse_bin=10**6, block_count=8)
    rng = np.random.default_rng(101)

    def clock(offset, y):
        return ClockModel(
            initial_offset_fs=offset,
            fractional_frequency=y,
            white_phase_sigma_fs=float(rng.uniform(1000, 10000)),
            random_walk_freq_coeff=float(rng.uniform(1e-13, 1e-12)),
        )

    offset_pulls, rate_pulls = [], []
    for i in range(40):
        y_a = float(rng.uniform(-1e-8, 1e-8))
        y_b = y_a + float(rng.choice([-1.0, 1.0]) * rng.uniform(1e-8, 3e-8))
        model_a, model_b = clock(0, y_a), clock(int(rng.integers(-5 * 10**7, 5 * 10**7 + 1)), y_b)
        clock_a = ClockState(model_a, rng_stream=(i, "clock", "a"))
        clock_b = ClockState(model_b, rng_stream=(i, "clock", "b"))
        streams = run_session(spec, clock_a, clock_b, (i, "session"))
        result = estimate_session(streams, cfg)
        fit = result.frequency
        offset_pulls.append((result.clock_offset - streams.truth.theta_fs) / result.offset_uncertainty)
        rate_pulls.append((fit.fractional_frequency - (y_b - y_a)) / fit.fractional_frequency_uncertainty)
    assert 0.8 <= _rms(offset_pulls) <= 1.25
    assert 0.8 <= _rms(rate_pulls) <= 1.25
