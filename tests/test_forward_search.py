"""The A->B peak search placed by the network controller's predicted offsets, and its fallbacks."""

from __future__ import annotations

import copy
import json
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from qcsync import estimator, netsync, session
from qcsync.estimator import EstimationError
from qcsync.scenario import build_topology
from qcsync.timebase import apply_correction
from test_golden import tracked_network_section
from test_return_search import _ground_edge as _ground_config
from test_return_search import _members, _session

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
STEP_FS = 10**9  # 1 us


@cache
def _leo_demo() -> dict:
    return json.loads((SCENARIOS / "leo_demo.json").read_text())


def _ground_edge(up: str, down: str, range_m: float, tracked: bool, interval_s: float = 0.01) -> dict:
    """net_montecarlo's static ground edge: 10 us at 1e7 pairs/s in a +-100 us window, noiseless when tracked."""
    edge = {
        "upstream": up,
        "downstream": down,
        "interval_s": interval_s,
        "link": {"geometry": {"variant": "static_range", "range_m": range_m}},
        "session": {
            "duration_s": 1e-5,
            "source_up": {"pair_rate_hz": 1e7},
            "source_down": {"pair_rate_hz": 1e7},
            "detector_up": {"jitter_sigma_fs": 20000},
            "detector_down": {"jitter_sigma_fs": 20000},
            "tagger": {"resolution_fs": 1000},
        },
        "correlation": {"search_window_fs": 10**11, "coarse_bin_fs": 10**6, "fine_bin_fs": 2 * 10**5},
    }
    if tracked:
        quiet = {"pair_rate_hz": 2e7, "pair_correlation_sigma_fs": 0}
        edge["session"].update(
            source_up=quiet, source_down=quiet, detector_up={}, detector_down={}, tagger={"resolution_fs": 1}
        )
        edge["correlation"].update(fine_bin_fs=1000, block_count=4)
        edge["track_frequency"] = True
    return edge


def _random_edge(rng, up: str, down: str) -> dict:
    return _ground_edge(up, down, float(rng.uniform(500.0, 10000.0)), bool(rng.random() < 0.25))


def _net_section(k: int) -> dict:
    """A net_montecarlo-shaped topology: 3-7 nodes in a random tree, backups with failover,
    a relay failing at mid-horizon and a LEO edge in some, over 30 ms."""
    rng = np.random.default_rng([31, k])
    nodes = [{"id": "ref", "role": "reference", "clock": {}}]
    edges, failover = [], {}
    for j in range(1, 3 + k % 5):
        node = f"g{j}"
        clock = {
            "initial_offset_fs": int(rng.integers(-2 * 10**10, 2 * 10**10 + 1)),
            "fractional_frequency": float(rng.uniform(-1e-9, 1e-9)),
        }
        nodes.append({"id": node, "clock": clock})
        parents = ["ref"] + [f"g{i}" for i in range(1, j)]
        up = parents[int(rng.integers(len(parents)))]
        edges.append(_random_edge(rng, up, node))
        if len(parents) > 1 and rng.random() < 0.4:
            backup = [p for p in parents if p != up][int(rng.integers(len(parents) - 1))]
            edges.append(_random_edge(rng, backup, node))
            failover[node] = [up, backup]
    if k % 3 == 0:
        clock = {"initial_offset_fs": int(rng.integers(-10**9, 10**9 + 1)), "fractional_frequency": 1e-12}
        nodes.append({"id": "sat", "role": "satellite", "clock": clock})
        leo = copy.deepcopy(_leo_demo()["topology"]["edges"][0])
        for side in ("source_up", "source_down"):
            leo["session"][side]["pair_rate_hz"] = 1e7
        leo.update(upstream="ref", downstream="sat", interval_s=0.01)
        edges.append(leo)
    section = {"horizon_s": 0.03, "report_interval_s": 0.01, "nodes": nodes, "edges": edges, "failover": failover}
    relays = sorted({e["upstream"] for e in edges} - {"ref"})
    if relays and k % 2 == 0:
        section["failures"] = [{"node": relays[int(rng.integers(len(relays)))], "at_s": 0.015}]
    return section


def _tracked_seconds() -> dict:
    """The golden tracked-edge network synced once a second, g1 running 1e-7 fast.

    The rate fix it steers by moves g1's clock by about 100 ns a second
    after the sync, 100 coarse bins, so its prediction must count it.
    """
    section = tracked_network_section()
    section.update(horizon_s=3.5, report_interval_s=1)
    for edge in section["edges"]:
        edge["interval_s"] = 1
    section["nodes"][1]["clock"]["fractional_frequency"] = 1e-7
    return section


def _networks():
    """(name, topology section, seed): leo_demo, the golden tracked-edge network at two
    intervals and 36 net_montecarlo shapes."""
    yield "leo_demo", _leo_demo()["topology"], _leo_demo()["seed"]
    yield "golden_tracked", tracked_network_section(), 23
    yield "tracked_seconds", _tracked_seconds(), 23
    for k in range(36):
        yield f"net{k}", _net_section(k), 1000 + k


def _refuse(*args, **kwargs):
    raise AssertionError("a predicted sync searched the whole window")


def _observe(monkeypatch, predict: bool = True) -> list:
    """Each sync's predicted offset as run_network passes it to estimate_session.

    With predict False the offset is dropped before the estimate, as without
    predicted offsets. Given one, neither direction may search the whole
    window, and both region searches must find their peak.
    """
    offsets, estimate, region_peak = [], session.estimate_session, estimator._region_peak

    def observed(streams, cfg, predicted_offset):
        offsets.append(predicted_offset)
        if predicted_offset is None or not predict:
            return estimate(streams, cfg)
        found = []
        with monkeypatch.context() as m:
            m.setattr(estimator, "_bounded_peak", _refuse)
            m.setattr(estimator, "coarse_histogram", _refuse)
            m.setattr(estimator, "_region_peak", lambda *args: found.append(region_peak(*args)) or found[-1])
            result = estimate(streams, cfg, predicted_offset)
        assert len(found) == 2 and None not in found
        return result

    monkeypatch.setattr(netsync, "estimate_session", observed)
    return offsets


def _run(section: dict, seed: int):
    topology, horizon, report_interval = build_topology(section)
    return netsync.run_network(topology, horizon, seed, report_interval)


def _predicted_syncs(report) -> list[bool]:
    """Which applied syncs have two predicted ends, rebuilt from the event log alone."""
    known = {n for n in report.node_ids if report.roles[n] == netsync.ROLE_REFERENCE}
    flags = []
    for e in report.events:
        if e["outcome"] == "applied":
            flags.append(e["upstream"] in known and e["downstream"] in known)
            (known.add if e["upstream"] in known else known.discard)(e["downstream"])
    return flags


def test_predicted_offsets_give_the_unpredicted_report(monkeypatch):
    # Every report equals the one without predicted offsets, and every sync
    # whose two ends have a prediction finds both peaks in their regions.
    predicted_syncs = syncs = 0
    for name, section, seed in _networks():
        with monkeypatch.context() as m:
            _observe(m, predict=False)
            whole = _run(section, seed)
        with monkeypatch.context() as m:
            offsets = _observe(m)
            report = _run(section, seed)
        assert report.to_dict() == whole.to_dict(), name
        assert sum(report.edge_successes) == sum(report.edge_attempts) > 0, name
        assert [o is not None for o in offsets] == _predicted_syncs(report), name
        predicted_syncs += sum(o is not None for o in offsets)
        syncs += len(offsets)
    assert syncs > 300 and predicted_syncs > syncs // 3


@pytest.mark.parametrize("sign", [-1, 1])
def test_offset_off_by_ten_regions_gives_the_unpredicted_result(monkeypatch, sign):
    streams, cfg = _session(_ground_config(3000.0), 7 * 10**9, 0.0, 5)
    whole = session.estimate_session(streams, cfg)
    half_width = (cfg.refine_span_bins + estimator._RETURN_SLACK_BINS) * cfg.coarse_bin
    offset = whole.clock_offset + sign * 10 * half_width
    regions, windows = [], []
    region_peak, bounded_peak = estimator._region_peak, estimator._bounded_peak
    monkeypatch.setattr(estimator, "_region_peak", lambda *args: regions.append(args[3]) or region_peak(*args))
    monkeypatch.setattr(estimator, "_bounded_peak", lambda *args: windows.append(len(regions)) or bounded_peak(*args))
    result = session.estimate_session(streams, cfg, offset)
    assert result == whole and _members(result) == _members(whole)
    # the forward region once, then the forward window, then the return region
    assert regions == [streams.round_trip_fs // 2 + offset, streams.round_trip_fs - whole.forward.peak_offset]
    assert windows == [1]


def _ground_section(edges: list[tuple], horizon_s: float, **extra) -> dict:
    """A reference and ground nodes on untracked 3 km ground edges (up, down, interval_s), in that edge order."""
    ids = sorted({down for _, down, _ in edges})
    nodes = [{"id": "ref", "role": "reference", "clock": {}}]
    for j, node in enumerate(ids, 1):
        nodes.append({"id": node, "clock": {"initial_offset_fs": (-2) ** j * 10**9, "fractional_frequency": 3e-10 * j}})
    edges = [_ground_edge(up, down, 3000.0, False, interval_s) for up, down, interval_s in edges]
    return {"horizon_s": horizon_s, "report_interval_s": 0.01, "nodes": nodes, "edges": edges, **extra}


def test_unknown_clock_step_applies_the_unpredicted_fix(monkeypatch):
    # From 15 ms on, every session sees n1's clock 1 us ahead of the state the
    # controller steers: its first sync after that searches the predicted
    # region, then the window, and applies the fix the window gives.
    run_session = session.run_session

    def stepped(spec, clock_a, clock_b, seed, *args, **kwargs):
        if spec.start_time >= 15 * 10**12:
            clock_a, clock_b = (
                apply_correction(c, -STEP_FS) if c.rng_stream[2] == "n1" else c for c in (clock_a, clock_b)
            )
        return run_session(spec, clock_a, clock_b, seed, *args, **kwargs)

    monkeypatch.setattr(netsync, "run_session", stepped)
    section = _ground_section([("ref", "n1", 0.01), ("n1", "n2", 0.01)], 0.04)
    with monkeypatch.context() as m:
        _observe(m, predict=False)
        whole = _run(section, 7)
    windows, bounded_peak = [], estimator._bounded_peak
    offsets, estimate = [], session.estimate_session

    def observed(streams, cfg, predicted_offset):
        offsets.append(predicted_offset)
        with monkeypatch.context() as m:
            m.setattr(estimator, "_bounded_peak", lambda *args: windows.append(len(offsets)) or bounded_peak(*args))
            return estimate(streams, cfg, predicted_offset)

    monkeypatch.setattr(netsync, "estimate_session", observed)
    report = _run(section, 7)
    assert report.to_dict() == whole.to_dict()
    fixes = [e["offset_fix_fs"] for e in report.events if e["edge"] == 0]
    assert abs(fixes[1] - STEP_FS) < 10**7  # the step and 10 ms of drift, removed by the sync at 20 ms
    # syncs at 10, 20 and 30 ms on each edge: the first two unpredicted, and
    # of the predicted ones only the first after the step left its region
    assert [o is not None for o in offsets] == [False, False, True, True, True, True]
    assert windows == [1, 2, 3]


def test_node_synced_under_an_unpredicted_upstream_loses_its_prediction(monkeypatch):
    # n2 syncs under n1 at 10 ms. n1 fails at 15 ms, so at 20 and 30 ms n2
    # syncs under its backup n3, which syncs with the reference only at
    # 30 ms, after n2. At 40 ms n2 syncs under a predicted n3 but has no
    # prediction of its own, and at 50 ms both ends are predicted again.
    edges = [("ref", "n1", 0.01), ("n1", "n2", 0.01), ("n3", "n2", 0.01), ("ref", "n3", 0.03)]
    section = _ground_section(edges, 0.06, failover={"n2": ["n1", "n3"]}, failures=[{"node": "n1", "at_s": 0.015}])
    offsets = _observe(monkeypatch)
    report = _run(section, 9)
    syncs = [(e["t_s"], e["upstream"], e["downstream"]) for e in report.events if e["outcome"] == "applied"]
    assert syncs == [
        (0.01, "ref", "n1"),
        (0.01, "n1", "n2"),
        (0.02, "n3", "n2"),
        (0.03, "n3", "n2"),
        (0.03, "ref", "n3"),
        (0.04, "n3", "n2"),
        (0.05, "n3", "n2"),
    ]
    assert [o is not None for o in offsets] == [False] * 6 + [True]


def test_failed_sync_leaves_the_predictions(monkeypatch):
    # leo_demo's orbit edge over 6 s: each predicted offset carries the last
    # sync's flight asymmetry, so it moves from sync to sync; a forced
    # failure of the third sync leaves the fourth the third's prediction.
    section = {**_leo_demo()["topology"], "horizon_s": 6}
    seed = _leo_demo()["seed"]
    first = _observe(monkeypatch)
    _run(section, seed)
    offsets = list(first)
    assert None not in offsets[1:] and len(set(offsets[1:])) == len(offsets) - 1
    estimate, seen = netsync.estimate_session, []

    def failing(streams, cfg, predicted_offset):
        seen.append(predicted_offset)
        if len(seen) == 3:
            raise EstimationError("forced")
        return estimate(streams, cfg, predicted_offset)

    monkeypatch.setattr(netsync, "estimate_session", failing)
    report = _run(section, seed)
    assert report.events[2]["outcome"] == "failed: forced"
    assert seen[:3] == offsets[:3] and seen[3] == offsets[2] != offsets[3]
