"""Hierarchical network synchronization: scheduling, failover, error budgets."""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from qcsync import linkmodel, netsync
from qcsync.estimator import CorrelationConfig, _halve_toward_zero
from qcsync.fields import ConfigError
from qcsync.linkmodel import Direction, LinkModel, StaticRange, time_of_flight
from qcsync.netsync import (
    ROLE_GROUND,
    ROLE_REFERENCE,
    NetworkReport,
    Node,
    SyncEdge,
    Topology,
    TopologyError,
    gps_baseline_comparison,
    run_network,
)
from qcsync.photonics import Detector, PairSource, TimeTagger
from qcsync.scenario import build_topology
from qcsync.session import NodeInstruments, SessionSpec
from qcsync.timebase import ClockModel, ClockState

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


def _edge(up, down, link=LINK, track_frequency=False):
    return SyncEdge(
        upstream=up,
        downstream=down,
        # 10 us acquisition
        session=SessionSpec(duration=10**10, instruments_a=INSTRUMENTS, instruments_b=INSTRUMENTS, link=link),
        correlation=CORR,
        interval_fs=10**13,
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
    link = LinkModel(geometry=StaticRange(range_m=3000.0))
    edge = SyncEdge(
        upstream="ref",
        downstream="n1",
        session=SessionSpec(duration=10**10, instruments_a=instruments, instruments_b=instruments, link=link),
        correlation=CorrelationConfig(search_window=10**11, coarse_bin=10**6, fine_bin=1000),
        interval_fs=10**13,
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
    with_failure = dataclasses.replace(base, failures=(("n2", 2 * 10**13),))
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
    dead_parent = dataclasses.replace(base, failures=(("n1", 15 * 10**12),))
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
    assert topology.parent_edges("leaf") == [1, 2]
    assert dataclasses.replace(topology, failover_rules={"leaf": ["ref"]}).parent_edges("leaf") == [2, 1]
    report = run_network(topology, horizon=4 * 10**13, seed=9)
    leaf_events = [e for e in report.events if e["downstream"] == "leaf"]
    before = [e for e in leaf_events if e["t_s"] < 0.015]
    after = [e for e in leaf_events if e["t_s"] > 0.015]
    assert {e["outcome"] for e in before if e["upstream"] == "relay"} == {"applied"}
    assert {e["outcome"] for e in before if e["upstream"] == "ref"} == {"standby"}
    assert {e["outcome"] for e in after if e["upstream"] == "ref"} == {"applied"}
    # leaf stays synced through the failure: within one interval of slack
    assert report.strata["leaf"] == 1
    assert report.strata == {"ref": 0, "relay": None, "leaf": 1}
    assert abs(report.errors_fs["leaf"][-1]) < 2 * 10**5


def test_errors_follow_the_first_live_reference():
    # ref runs fast by 1e-7 and fails at 0.015 s; n1 fails over to the ideal
    # ref2. From that epoch on, errors are taken against ref2: its own are
    # 0, and n1's stay near 0 rather than following the dead ref's drift
    # (about -5.5 ns by 0.055 s).
    nodes = (
        Node("ref", ClockModel(fractional_frequency=1e-7), role=ROLE_REFERENCE),
        Node("ref2", ClockModel(), role=ROLE_REFERENCE),
        Node("n1", ClockModel(initial_offset_fs=2 * 10**6)),
    )
    topology = Topology(
        nodes=nodes,
        edges=(_edge("ref", "n1"), _edge("ref2", "n1")),
        failover_rules={"n1": ["ref", "ref2"]},
        failures=(("ref", 15 * 10**12),),
    )
    report = run_network(topology, horizon=6 * 10**13, seed=3)
    assert report.epochs_fs[1] == 15 * 10**12
    assert report.errors_fs["ref2"][0] != 0  # before the failure, ref is the reference
    assert set(report.errors_fs["ref2"][1:]) == {0}
    assert {e["outcome"] for e in report.events if e["upstream"] == "ref2" and e["t_s"] > 0.015} == {"applied"}
    assert max(abs(v) for v in report.errors_fs["n1"][2:]) < 2 * 10**5


def test_failure_at_a_sync_instant_takes_effect_at_that_sync():
    # syncs run at 0.01 s and 0.02 s on both edges; a node is down from its failure time on
    at = 2 * 10**13
    leaf_down = run_network(_chain(failures=(("n2", at),)), horizon=3 * 10**13, seed=5)
    parent_down = run_network(_chain(failures=(("n1", at),)), horizon=3 * 10**13, seed=5)

    def outcomes(report, node):
        return [e["outcome"] for e in report.events if e["downstream"] == node]

    assert outcomes(leaf_down, "n1") == ["applied", "applied"]
    assert outcomes(leaf_down, "n2") == ["applied", "downstream-down"]
    assert outcomes(parent_down, "n1") == ["applied", "downstream-down"]
    assert outcomes(parent_down, "n2") == ["applied", "holdover"]


def test_deep_chain_builds_from_config():
    # a 1500-node chain once overflowed the recursion of the cycle check
    edge = {
        "interval_s": 5,
        "link": {"geometry": {"variant": "static_range", "range_m": 3000.0}},
        "session": {"duration_s": 1e-5, "source_up": {"pair_rate_hz": 1e7}, "source_down": {"pair_rate_hz": 1e7}},
        "correlation": {"search_window_fs": 10**11, "coarse_bin_fs": 10**6, "fine_bin_fs": 2 * 10**5},
    }
    ids = [f"n{i}" for i in range(1500)]
    section = {
        "horizon_s": 6,
        "nodes": [{"id": ids[0], "role": "reference", "clock": {}}] + [{"id": i, "clock": {}} for i in ids[1:]],
        "edges": [dict(edge, upstream=up, downstream=down) for up, down in zip(ids, ids[1:])],
    }
    topology, horizon, _ = build_topology(section)
    assert len(topology.edges) == 1499 and horizon == 6 * FS
    assert topology.parent_edges(ids[-1]) == [1498]


def _tracked_topology(block_count):
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
        block_count=block_count,
    )
    link = LinkModel(geometry=StaticRange(range_m=3000.0))
    edge = SyncEdge(
        upstream="ref",
        downstream="n1",
        session=SessionSpec(duration=10**11, instruments_a=instruments, instruments_b=instruments, link=link),
        correlation=corr,
        interval_fs=10**13,
        track_frequency=True,
    )
    return Topology(nodes=nodes, edges=(edge,))


def test_rate_steering_with_frequency_track():
    report = run_network(_tracked_topology(4), horizon=5 * 10**13, seed=21)
    rate_fixes = [e["rate_fix"] for e in report.events if e.get("outcome") == "applied"]
    # the first fix measures and removes the configured drift; later fixes
    # see an already-steered clock
    assert rate_fixes[0] == pytest.approx(5e-9, rel=0.1)
    assert all(abs(f) < 1e-9 for f in rate_fixes[1:])
    # free-running drift would ramp 5e4 fs per interval; steering holds the
    # late epochs well under that
    assert abs(report.errors_fs["n1"][-1]) < 10**4


def test_tracked_edge_steers_alike_at_any_block_count():
    # the rate and the offset come from the member lines; the blocks are diagnostics
    one = run_network(_tracked_topology(1), horizon=3 * 10**13, seed=21)
    four = run_network(_tracked_topology(4), horizon=3 * 10**13, seed=21)
    assert sum(one.edge_successes) == 2
    assert one.to_dict() == four.to_dict()


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
    # the cycle closes through each node's second parent edge, in either edge order
    edges = (_edge("ref", "a"), _edge("ref", "b"), _edge("a", "b"), _edge("b", "a"))
    for ordered in (edges, edges[::-1]):
        with pytest.raises(TopologyError, match="cycle"):
            Topology(nodes=(ref, a, b), edges=ordered)
    with pytest.raises(TopologyError, match="no parent"):
        Topology(nodes=(ref, a), edges=())
    with pytest.raises(TopologyError, match="failover"):
        Topology(
            nodes=(ref, a),
            edges=(_edge("ref", "a"),),
            failover_rules={"a": ["b"]},
        )
    with pytest.raises(TopologyError, match="failover rule for unknown node ghost"):
        Topology(nodes=(ref, a), edges=(_edge("ref", "a"),), failover_rules={"ghost": ["ref"]})


def test_cannot_fail_only_reference():
    topology = _chain()
    with pytest.raises(TopologyError, match="reference node must never fail"):
        dataclasses.replace(topology, failures=(("ref", 10**12),))
    assert dataclasses.replace(topology, failures=(("n1", 10**12),)).failures == (("n1", 10**12),)
    # with a second reference, either may fail, but not both
    ref2 = Node("ref2", ClockModel(), role=ROLE_REFERENCE)
    two_refs = Topology(nodes=topology.nodes + (ref2,), edges=topology.edges, failures=(("ref", 10**12),))
    assert run_network(two_refs, horizon=2 * 10**13, seed=1).strata == {"ref": None, "n1": None, "n2": None, "ref2": 0}
    with pytest.raises(TopologyError, match="reference node must never fail"):
        dataclasses.replace(two_refs, failures=(("ref", 10**12), ("ref2", 2 * 10**12)))


def _strata_by_search(topology, dead):
    """Breadth-first hop count from the live reference nodes, level by level over every edge."""
    strata = {n.id: None for n in topology.nodes}
    frontier = {n.id for n in topology.nodes if n.role == ROLE_REFERENCE and n.id not in dead}
    level = 0
    while frontier:
        for node_id in frontier:
            strata[node_id] = level
        level += 1
        frontier = {
            e.downstream
            for e in topology.edges
            if e.upstream in frontier and e.downstream not in dead and strata[e.downstream] is None
        }
    return strata


def test_strata_match_breadth_first_search():
    rng = random.Random(7)
    for _ in range(200):
        size = rng.randint(2, 9)
        ids = [f"n{i}" for i in range(size)]
        refs = set(ids[: rng.randint(1, 2)])
        nodes = tuple(Node(i, ClockModel(), role=ROLE_REFERENCE if i in refs else ROLE_GROUND) for i in ids)
        # every edge points from a lower index to a higher one, so there is no cycle
        edges = [_edge(rng.choice(ids[:k]), ids[k]) for k in range(1, size) if ids[k] not in refs]
        edges += [_edge(ids[a], ids[b]) for a in range(size) for b in range(a + 1, size) if rng.random() < 0.2]
        rng.shuffle(edges)
        topology = Topology(nodes=nodes, edges=tuple(edges))
        dead = {i for i in ids if rng.random() < 0.3}
        assert netsync._strata(topology, dead) == _strata_by_search(topology, dead)


def test_each_sync_runs_one_session_and_one_estimate(monkeypatch):
    # bench/workloads.py NetMonteCarlo rebinds these netsync globals to count
    # tags and record one estimate per attempted sync, tracked edges included
    calls = {"run_session": 0, "estimate_session": 0}
    for name, original in [(name, getattr(netsync, name)) for name in calls]:

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(netsync, name, counted)

    def frequency_track(*args, **kwargs):
        raise AssertionError("run_network called frequency_track")

    monkeypatch.setattr(netsync, "frequency_track", frequency_track)
    nodes = _chain().nodes
    edges = (_edge("ref", "n1", track_frequency=True), _edge("n1", "n2"))
    topology = Topology(nodes=nodes, edges=edges, failures=(("n2", 2 * 10**13),))
    report = run_network(topology, horizon=3 * 10**13, seed=4)
    assert report.edge_attempts == (2, 1)
    assert calls == {"run_session": 3, "estimate_session": 3}


def _leo_demo_topology(**overrides):
    leo = json.loads((Path(__file__).parent.parent / "scenarios" / "leo_demo.json").read_text())
    return build_topology({**leo["topology"], **overrides})


def test_each_orbit_sync_solves_the_midpoint_flights_once(monkeypatch):
    # per applied sync: the two remote gates and the two truth flights, each
    # one scalar light-time solve; the ephemeris correction reads the truth
    # flights instead of solving again. Each 20 us arm's photons take their
    # flights from one knot piece, three solves, not one solve per photon.
    calls, solves = [], []

    def counted(*args, **kwargs):
        calls.append(args)
        return time_of_flight(*args, **kwargs)

    qcsync_modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "qcsync"]
    for module in qcsync_modules:
        if getattr(module, "time_of_flight", None) is time_of_flight:
            monkeypatch.setattr(module, "time_of_flight", counted)
    knot = linkmodel._knot
    monkeypatch.setattr(linkmodel, "_knot", lambda *args: solves.append(args) or knot(*args))
    topology, horizon, report_interval = _leo_demo_topology(horizon_s=3)
    report = run_network(topology, horizon, 2026, report_interval)
    applied = sum(report.edge_successes)
    assert applied == sum(report.edge_attempts) == 2
    assert len(calls) == 4 * applied
    assert len(solves) == (4 + 2 * 3) * applied


def _correction(edge, t):
    """What _measure subtracts from the estimate at true time t."""
    clocks = {edge.upstream: ClockState(ClockModel()), edge.downstream: ClockState(ClockModel())}
    offset_fix, rate_fix, _ = netsync._measure(edge, clocks, t, (9, "oracle", t), None)
    assert rate_fix == 0.0
    return -offset_fix


def test_ephemeris_correction_matches_a_bias_free_solve(monkeypatch):
    # The correction once came from a second midpoint solve on a copy of the
    # link with the bias removed. Reading the session's truth flights instead
    # gives the same value at even b; at odd b the b/2 split rounds in each
    # direction, which may move it by 1 fs.
    monkeypatch.setattr(
        netsync, "estimate_session", lambda streams, cfg, predicted_offset: SimpleNamespace(clock_offset=0)
    )
    (edge,) = _leo_demo_topology()[0].edges
    known = dataclasses.replace(edge.session.link, nonreciprocity_bias=0)
    rng = random.Random(21)
    solved = {}
    for t in (rng.randrange(0, 270 * FS) for _ in range(50)):  # leo_demo's pass is visible over 0-270 s
        mid = t + edge.session.duration // 2
        t_ab, t_ba = (time_of_flight(known, mid, d) for d in (Direction.A_TO_B, Direction.B_TO_A))
        solved[t] = _halve_toward_zero(t_ab - t_ba)
        assert abs(solved[t]) > 1000  # a moving endpoint: nanoseconds apart
    for bias in (0, 2, 2000, 1, -5, 2001):
        link = dataclasses.replace(edge.session.link, nonreciprocity_bias=bias)
        biased = dataclasses.replace(edge, session=dataclasses.replace(edge.session, link=link))
        for t, want in solved.items():
            assert abs(_correction(biased, t) - want) <= bias % 2, (bias, t)
        static = _edge("ref", "n1", link=dataclasses.replace(LINK, nonreciprocity_bias=bias))
        assert _correction(static, 10**12) == 0


def _two_node_section(interval_s):
    """A config topology section: a reference and one child on a 3 km static link, synced every interval_s."""
    edge = {
        "upstream": "ref",
        "downstream": "n1",
        "interval_s": interval_s,
        "link": {"geometry": {"variant": "static_range", "range_m": 3000.0}},
        "session": {"duration_s": 1e-5, "source_up": {"pair_rate_hz": 1e7}, "source_down": {"pair_rate_hz": 1e7}},
    }
    return {"horizon_s": 1, "nodes": [{"id": "ref", "role": "reference"}, {"id": "n1"}], "edges": [edge]}


def test_edge_interval_must_be_at_least_one_fs():
    (edge,) = build_topology(_two_node_section(1e-15))[0].edges
    assert edge.interval_fs == 1
    for interval_s in (1e-20, 0.0, -1.0, 1e300, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="topology.edges\\[\\].interval_s"):
            build_topology(_two_node_section(interval_s))


def test_library_edge_interval_must_be_at_least_one_fs():
    with pytest.raises(ConfigError, match="interval_fs must be in \\[1, inf\\), got 0"):
        SyncEdge("ref", "n1", _edge("ref", "n1").session, CORR, interval_fs=0)


def test_failure_of_unknown_node_rejected():
    topology = _chain()
    with pytest.raises(TopologyError, match="nosuch"):
        Topology(nodes=topology.nodes, edges=topology.edges, failures=(("nosuch", 10**12),))


def test_node_role_validation():
    with pytest.raises(ValueError, match="role"):
        Node("x", ClockModel(), role="router")
    assert Node("x", ClockModel()).role == ROLE_GROUND


def test_horizon_must_cover_one_interval():
    with pytest.raises(ValueError, match="horizon"):
        run_network(_chain(), horizon=10**12, seed=1)


def test_report_epochs_bounded_before_the_first_event(monkeypatch):
    monkeypatch.setattr(netsync, "run_session", lambda *args: pytest.fail("a sync ran"))
    # epochs fall at 5e6, 1.5e7, ... fs: 10^6 of them up to 10^13 fs, and one more at the horizon
    with pytest.raises(ValueError, match="1000001 report epochs"):
        run_network(_chain(), horizon=10**13 + 5 * 10**6, seed=1, report_interval_fs=10**7)


def test_report_interval_must_be_positive(monkeypatch):
    monkeypatch.setattr(netsync, "run_session", lambda *args: pytest.fail("a sync ran"))
    with pytest.raises(ConfigError, match="report_interval_fs must be positive"):
        run_network(_chain(), horizon=2 * 10**13, seed=1, report_interval_fs=0)


def test_syncs_bounded_before_the_first_event(monkeypatch):
    # a 1 fs interval over a 3 s horizon scheduled 3e15 syncs, and the run did not end
    monkeypatch.setattr(netsync, "run_session", lambda *args: pytest.fail("a sync ran"))
    # each edge syncs every 10^13 fs up to the horizon less its 10^10 fs session:
    # 500001 times, so the bound holds for each edge alone but not for the two together
    horizon = 500001 * 10**13 + 10**10
    with pytest.raises(ValueError, match="schedule 1000002 syncs over the horizon, more than 10\\^6"):
        run_network(_chain(), horizon=horizon, seed=1, report_interval_fs=horizon)
