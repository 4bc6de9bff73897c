"""Pinned sha256 of seeded pipeline outputs: a refactor must not move a bit.

numpy promises no stable ``Generator`` streams across releases, so each pin
is keyed by the numpy version it was taken with; other versions skip. The
digests cover only fields and files whose layout is part of the public
interface, so they hold across internal rewrites.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from qcsync.cli import main
from qcsync.estimator import CorrelationConfig
from qcsync.linkmodel import LinkModel, StaticRange
from qcsync.netsync import run_network
from qcsync.photonics import Detector, PairSource, TimeTagger
from qcsync.scenario import build_topology
from qcsync.session import NodeInstruments, SessionSpec, estimate_session, run_session
from qcsync.timebase import ClockModel, ClockState

GOLDEN = {
    "2.4.6": {
        "session": "744730a5fb7749e1fe5a75d2a85919496d6379f41cc817d86669fddbad5b5e5d",
        "cli": "aab1e97e589ed2647f283cf5ee4fe8356586f8f17e30c013a77aa7b578e3033a",
        "network": "a7ee9c3a04d72848f53e512b708df368a76de95f4fcc97105856a40c1b261cd2",
        "relativity": "3e2936db4541678f26eb759d25da17d5b986ed4606e90d435d4691f90891f552",
        "network_orbit": "ed92992f2159005e9edbddeb0e392a541819a676f546c14f4852eb5d514aee2a",
    },
}

pytestmark = pytest.mark.skipif(
    np.__version__ not in GOLDEN, reason=f"no golden digests pinned for numpy {np.__version__}"
)


def _sha(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=lambda o: o.item())
    return hashlib.sha256(text.encode()).hexdigest()


def _correlation(result) -> dict:
    payload = dataclasses.asdict(result)
    del payload["members"]  # per-pair arrays; region_total counts them
    return payload


def test_golden_session_and_frequency_track():
    instruments = NodeInstruments(
        source=PairSource(pair_rate=5e6, pair_correlation_sigma=500),
        detector=Detector(efficiency=0.8, jitter_sigma=5000, dark_rate=1e3),
        tagger=TimeTagger(resolution=100),
    )
    spec = SessionSpec(
        duration=2 * 10**12,
        instruments_a=instruments,
        instruments_b=instruments,
        link=LinkModel(geometry=StaticRange(range_m=3000.0), transmittance=0.7),
    )
    clock_a = ClockState(ClockModel(fractional_frequency=2e-9), rng_stream=(5, "clock", "a"))
    clock_b = ClockState(
        ClockModel(initial_offset_fs=7 * 10**8, fractional_frequency=-3e-8, white_phase_sigma_fs=2000),
        rng_stream=(5, "clock", "b"),
    )
    streams = run_session(spec, clock_a, clock_b, (5, "session"))
    cfg = CorrelationConfig(search_window=10**11, coarse_bin=10**6, fine_bin=10**5, block_count=4)
    result = estimate_session(streams, cfg)
    payload = {
        "two_way": [result.clock_offset, result.flight_time, result.offset_uncertainty, result.epoch_fs],
        "forward": _correlation(result.forward),
        "backward": _correlation(result.backward),
        "frequency": dataclasses.asdict(result.frequency),
    }
    assert _sha(payload) == GOLDEN[np.__version__]["session"]


def test_golden_cli_simulate_and_estimate(tmp_path, capsys):
    config = {
        "seed": 17,
        "duration_s": 0.002,
        "clocks": {
            "a": {"fractional_frequency": 1e-9, "white_phase_sigma_fs": 3000},
            "b": {"initial_offset_fs": 4 * 10**7, "fractional_frequency": 4e-8, "white_phase_sigma_fs": 3000},
        },
        "sources": {s: {"pair_rate_hz": 5e6, "pair_correlation_sigma_fs": 500} for s in ("a", "b")},
        "detectors": {s: {"efficiency": 0.7, "jitter_sigma_fs": 10000, "dark_rate_hz": 1000} for s in ("a", "b")},
        "tagger": {"resolution_fs": 100},
        "link": {"geometry": {"variant": "static_range", "range_m": 30.0}, "transmittance": 0.5},
        "correlation": {"search_window_fs": 2 * 10**8, "coarse_bin_fs": 10**6, "fine_bin_fs": 10**4, "block_count": 8},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    sim_dir, est_dir = tmp_path / "sim", tmp_path / "est"
    assert main(["simulate", "--config", str(config_path), "--out", str(sim_dir)]) == 0
    tags = [str(sim_dir / f"{n}.tags") for n in ("a_local", "b_from_a", "b_local", "a_from_b")]
    assert main(["estimate", *tags, "--config", str(config_path), "--out", str(est_dir)]) == 0
    capsys.readouterr()
    payload = [(sim_dir / "twoway_result.json").read_text(), (est_dir / "estimate_result.json").read_text()]
    assert _sha(payload) == GOLDEN[np.__version__]["cli"]


def test_golden_network_with_tracked_edge():
    quiet = {"pair_rate_hz": 2e7, "pair_correlation_sigma_fs": 0}

    def edge(up, down, tracked):
        session = {
            "duration_s": 1e-5,
            "source_up": {"pair_rate_hz": 1e7},
            "source_down": {"pair_rate_hz": 1e7},
            "detector_up": {"jitter_sigma_fs": 20000},
            "detector_down": {"jitter_sigma_fs": 20000},
            "tagger": {"resolution_fs": 1000},
        }
        correlation = {"search_window_fs": 10**11, "coarse_bin_fs": 10**6, "fine_bin_fs": 2 * 10**5}
        out = {
            "upstream": up,
            "downstream": down,
            "interval_s": 0.01,
            "link": {"geometry": {"variant": "static_range", "range_m": 2000.0}},
            "session": session,
            "correlation": correlation,
        }
        if tracked:
            session.update(source_up=quiet, source_down=quiet, detector_up={}, detector_down={}, tagger={"resolution_fs": 1})
            correlation.update(fine_bin_fs=1000, block_count=4)
            out["track_frequency"] = True
        return out

    section = {
        "horizon_s": 0.03,
        "report_interval_s": 0.01,
        "nodes": [
            {"id": "ref", "role": "reference", "clock": {}},
            {"id": "g1", "clock": {"initial_offset_fs": 3 * 10**9, "fractional_frequency": 4e-10}},
            {"id": "g2", "clock": {"initial_offset_fs": -10**9, "fractional_frequency": -7e-10}},
        ],
        "edges": [edge("ref", "g1", True), edge("g1", "g2", False)],
    }
    topology, horizon, report_interval = build_topology(section)
    report = run_network(topology, horizon, 23, report_interval)
    assert sum(report.edge_successes) == sum(report.edge_attempts) > 0
    assert _sha(report.to_dict()) == GOLDEN[np.__version__]["network"]


def test_golden_relativity_orbit_link(tmp_path, capsys):
    leo = json.loads((Path(__file__).parent.parent / "scenarios" / "leo_demo.json").read_text())
    link = dict(leo["topology"]["edges"][0]["link"], include_shapiro=True)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"seed": 1, "link": link}))
    assert main(["relativity", "--config", str(config_path), "--out", str(tmp_path), "--format", "csv"]) == 0
    capsys.readouterr()
    payload = [(tmp_path / name).read_text() for name in ("relativity_report.json", "relativity_samples.csv")]
    assert _sha(payload) == GOLDEN[np.__version__]["relativity"]


def test_golden_network_on_an_orbit_edge(tmp_path, capsys):
    # leo_demo's one edge is a circular orbit, so this covers the orbit flight
    # solves and the ephemeris correction of every applied sync; the pin is
    # the sha256 of the report file's bytes, as ``sha256sum`` prints it
    leo = Path(__file__).parent.parent / "scenarios" / "leo_demo.json"
    assert main(["net", "--config", str(leo), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256((tmp_path / "network_report.json").read_bytes()).hexdigest()
    assert digest == GOLDEN[np.__version__]["network_orbit"]
