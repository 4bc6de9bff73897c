"""Hierarchical network synchronization: scheduling, failover, error budgets."""

from __future__ import annotations

import dataclasses

import pytest

from qcsync.estimator import CorrelationConfig
from qcsync.linkmodel import LinkModel, StaticRange
from qcsync.netsync import (
    ROLE_GROUND,
    ROLE_REFERENCE,
    NetworkReport,
    Node,
    SyncEdge,
    Topology,
    TopologyError,
    gps_baseline_comparison,
    inject_failure,
    run_network,
)
from qcsync.photonics import Detector, PairSource, TimeTagger
from qcsync.session import NodeInstruments
from qcsync.timebase import ClockModel

FS = 10**15

INSTRUMENTS = NodeInstruments(
    source=PairSource(pair_rate=2e7, pair_correlation_sigma=500),
    detector=Detector(efficiency=0.9, jitter_sigma=20000),
    tagger=TimeTagger(resolution=1000),
)
# 3 km of range is about 1e10 fs of flight; the window must cover it
LINK = LinkModel(geometry=StaticRange(range_m=3000.0), transmittance=0.9)
CORR = CorrelationConfig(
    search_window=10**11, coarse_bin=10**6, fine_bin=2 * 10**5, refine_span_bins=3
)


def _edge(up, down, interval_s=0.01, link=LINK, track_frequency=False):
    return SyncEdge(
        upstream=up,
        downstream=down,
        link=link,
        correlation=CORR,
        interval_s=interval_s,
        duration_fs=10**10,  # 10 us acquisition
        instruments_up=INSTRUMENTS,
        instruments_down=INSTRUMENTS,
        track_frequency=track_frequency,
    )


def _chain(offsets=(0, 3 * 10**6, -2 * 10**6), **kw):
    nodes = (
        Node("ref", ClockModel(), role=ROLE_REFERENCE),
        Node("n1", ClockModel(initial_offset_fs=offsets[1])),
        Node("n2", ClockModel(initial_offset_fs=offsets[2])),
    )
    edges = (_edge("ref", "n1"), _edge("n1", "n2"))
    return Topology(nodes=nodes, edges=edges, **kw)


def test_two_node_noiseless_sync_is_exact():
    instruments = NodeInstruments(
        source=PairSource(pair_rate=2e7, pair_correlation_sigma=0),
        detector=Detector(),
        tagger=TimeTagger(resolution=1),
    )
    edge = SyncEdge(
        upstream="ref",
        downstream="n1",
        link=LinkModel(geometry=StaticRange(range_m=3000.0)),
        correlation=CorrelationConfig(search_window=10**11, coarse_bin=10**6, fine_bin=1000),
        interval_s=0.01,
        duration_fs=10**10,
        instruments_up=instruments,
        instruments_down=instruments,
    )
    topology = Topology(
        nodes=(
            Node("ref", ClockModel(), role=ROLE_REFERENCE),
            Node("n1", ClockModel(initial_offset_fs=5 * 10**6)),
        ),
        edges=(edge,),
    )
    report = run_network(topology, horizon=5 * 10**13, seed=11)
    # epochs fall between syncs; the first epoch precedes the first sync
    assert report.errors_fs["n1"][0] == 5 * 10**6
    assert all(v == 0 for v in report.errors_fs["n1"][1:])
    assert all(v == 0 for v in report.errors_fs["ref"])
    assert report.edge_successes[0] == report.edge_attempts[0] > 0


def test_chain_converges_and_strata_assigned():
    report = run_network(_chain(), horizon=5 * 10**13, seed=3)
    assert report.strata == {"ref": 0, "n1": 1, "n2": 2}
    assert abs(report.errors_fs["n1"][-1]) < 10**5
    assert abs(report.errors_fs["n2"][-1]) < 2 * 10**5
    assert set(report.summary["rms_error_fs_per_stratum"]) == {"0", "1", "2"}


def test_report_serializes(tmp_path):
    report = run_network(_chain(), horizon=2 * 10**13, seed=3)
    data = report.to_dict()
    assert data["node_ids"] == ["ref", "n1", "n2"]
    assert len(data["epochs_s"]) == len(data["errors_fs"]["n1"])
    comparison = gps_baseline_comparison(report)
    assert set(comparison["overall"]) == {"within_10ps", "within_0.7ns", "within_20ns"}
    assert comparison["overall"]["within_20ns"] >= comparison["overall"]["within_10ps"]
    assert comparison["per_node"]["ref"]["within_10ps"] == 1.0


def test_determinism_same_seed():
    a = run_network(_chain(), horizon=3 * 10**13, seed=17)
    b = run_network(_chain(), horizon=3 * 10**13, seed=17)
    c = run_network(_chain(), horizon=3 * 10**13, seed=18)
    assert a.errors_fs == b.errors_fs
    assert a.events == b.events
    assert c.errors_fs != a.errors_fs


def test_leaf_failure_leaves_other_nodes_bit_identical():
    base = _chain(
        offsets=(0, 3 * 10**6, -2 * 10**6),
    )
    with_failure = inject_failure(base, "n2", 2 * 10**13)
    a = run_network(base, horizon=4 * 10**13, seed=5)
    b = run_network(with_failure, horizon=4 * 10**13, seed=5)
    # n1 never sees n2's failure: identical randomness, identical series
    assert a.errors_fs["n1"] == b.errors_fs["n1"]
    assert a.errors_fs["ref"] == b.errors_fs["ref"]
    assert a.errors_fs["n2"] != b.errors_fs["n2"]
    outcomes = [e["outcome"] for e in b.events if e["downstream"] == "n2"]
    assert "downstream-down" in outcomes


def test_holdover_when_parent_dies_without_failover():
    base = _chain()
    dead_parent = inject_failure(base, "n1", 15 * 10**12)
    report = run_network(dead_parent, horizon=4 * 10**13, seed=5)
    outcomes = [e["outcome"] for e in report.events if e["downstream"] == "n2"]
    assert "holdover" in outcomes
    # n2 keeps its last correction; stratum becomes unreachable
    assert report.strata["n2"] is None
    assert report.strata["n1"] is None


def test_failover_reparents_within_one_interval():
    nodes = (
        Node("ref", ClockModel(), role=ROLE_REFERENCE),
        Node("relay", ClockModel(initial_offset_fs=10**6)),
        Node("leaf", ClockModel(initial_offset_fs=4 * 10**6)),
    )
    edges = (
        _edge("ref", "relay"),
        _edge("relay", "leaf"),
        _edge("ref", "leaf"),
    )
    topology = Topology(
        nodes=nodes,
        edges=edges,
        failover_rules={"leaf": ["relay", "ref"]},
        failures=(("relay", 15 * 10**12),),
    )
    report = run_network(topology, horizon=4 * 10**13, seed=9)
    leaf_events = [e for e in report.events if e["downstream"] == "leaf"]
    before = [e for e in leaf_events if e["t_s"] < 0.015]
    after = [e for e in leaf_events if e["t_s"] > 0.015]
    assert {e["outcome"] for e in before if e["upstream"] == "relay"} == {"applied"}
    assert {e["outcome"] for e in before if e["upstream"] == "ref"} == {"standby"}
    assert {e["outcome"] for e in after if e["upstream"] == "ref"} == {"applied"}
    # leaf stays synced through the failure: within one interval of slack
    assert report.strata["leaf"] == 1
    assert abs(report.errors_fs["leaf"][-1]) < 2 * 10**5


def test_rate_steering_with_frequency_track():
    nodes = (
        Node("ref", ClockModel(), role=ROLE_REFERENCE),
        Node("n1", ClockModel(initial_offset_fs=10**6, fractional_frequency=5e-9)),
    )
    instruments = NodeInstruments(
        source=PairSource(pair_rate=2e7, pair_correlation_sigma=0),
        detector=Detector(),
        tagger=TimeTagger(resolution=1),
    )
    corr = CorrelationConfig(
        search_window=10**11,
        coarse_bin=10**6,
        fine_bin=1000,
        block_count=4,
    )
    edge = SyncEdge(
        upstream="ref",
        downstream="n1",
        link=LinkModel(geometry=StaticRange(range_m=3000.0)),
        correlation=corr,
        interval_s=0.01,
        duration_fs=10**11,
        instruments_up=instruments,
        instruments_down=instruments,
        track_frequency=True,
    )
    topology = Topology(nodes=nodes, edges=(edge,))
    report = run_network(topology, horizon=5 * 10**13, seed=21)
    rate_fixes = [e["rate_fix"] for e in report.events if e.get("outcome") == "applied"]
    # the first fix measures and removes the configured drift; later fixes
    # see an already-steered clock
    assert rate_fixes[0] == pytest.approx(5e-9, rel=0.1)
    assert all(abs(f) < 1e-9 for f in rate_fixes[1:])
    # free-running drift would ramp 5e4 fs per interval; steering holds the
    # late epochs well under that
    assert abs(report.errors_fs["n1"][-1]) < 10**4


def test_tracked_edge_without_blocks_rejected():
    # the rate fit needs at least two blocks; offset-only would be silent
    with pytest.raises(ValueError, match="block_count"):
        _edge("ref", "n1", track_frequency=True)


def test_untracked_edge_with_blocks_rejected():
    # blocks would buy a frequency fit that the sync never applies
    blocks = dataclasses.replace(CORR, block_count=4)
    with pytest.raises(ValueError, match="track_frequency"):
        dataclasses.replace(_edge("ref", "n1"), correlation=blocks)
    tracked = dataclasses.replace(_edge("ref", "n1"), correlation=blocks, track_frequency=True)
    assert tracked.track_frequency and tracked.correlation.block_count == 4


def test_topology_validation():
    ref = Node("ref", ClockModel(), role=ROLE_REFERENCE)
    a, b = Node("a", ClockModel()), Node("b", ClockModel())
    with pytest.raises(TopologyError, match="duplicate"):
        Topology(nodes=(ref, Node("ref", ClockModel())), edges=())
    with pytest.raises(TopologyError, match="unknown node"):
        Topology(nodes=(ref,), edges=(_edge("ref", "ghost"),))
    with pytest.raises(TopologyError, match="self-loop"):
        Topology(nodes=(ref,), edges=(_edge("ref", "ref"),))
    with pytest.raises(TopologyError, match="reference"):
        Topology(nodes=(a,), edges=())
    with pytest.raises(TopologyError, match="cycle"):
        Topology(nodes=(ref, a, b), edges=(_edge("ref", "a"), _edge("a", "b"), _edge("b", "a")))
    with pytest.raises(TopologyError, match="no parent"):
        Topology(nodes=(ref, a), edges=())
    with pytest.raises(TopologyError, match="failover"):
        Topology(
            nodes=(ref, a),
            edges=(_edge("ref", "a"),),
            failover_rules={"a": ["b"]},
        )


def test_cannot_fail_only_reference():
    topology = _chain()
    with pytest.raises(TopologyError, match="only reference"):
        inject_failure(topology, "ref", 10**12)
    assert inject_failure(topology, "n1", 10**12).failures == (("n1", 10**12),)


def test_node_role_validation():
    with pytest.raises(ValueError, match="role"):
        Node("x", ClockModel(), role="router")
    assert Node("x", ClockModel()).role == ROLE_GROUND


def test_horizon_must_cover_one_interval():
    with pytest.raises(ValueError, match="horizon"):
        run_network(_chain(), horizon=10**12, seed=1)
