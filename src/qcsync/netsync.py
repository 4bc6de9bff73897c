"""NTP-like hierarchical time distribution built from pairwise sync links.

A topology is a set of clocked nodes and directed sync edges (upstream to
downstream). A discrete-event loop walks one lazily merged stream of events
in (time, kind, index) order: node failures, each edge's scheduled syncs and
the report epochs. A horizon at or past 2^63 fs, the int64 range of tag
arrays, raises TimeRangeError before the first event. Each sync runs one
photon acquisition and one two-way estimate on its edge and steps the
downstream clock by the measured offset (optionally also steering its rate
by the measured fractional frequency). The applied offset has the orbit
model's half flight asymmetry (T_AB - T_BA)/2 removed, read from the
session's own midpoint flights; a configured nonreciprocity_bias_fs stays in
the error as b/2. Every sync derives its randomness from (master seed, edge
index, event index), so removing one node's events never perturbs any other
node's randomness, and single events can be replayed in isolation.

A node failure is an event at its instant, ordered before the syncs at the
same time: the node is down from then on, and the strata are recomputed
once as shortest hop distance from the live reference set. At least one
reference node never fails, and the report epochs measure every node
against the first reference, in topology order, still live. A sync whose
downstream node is down logs downstream-down; otherwise the downstream's
first candidate parent (in its failover preference order) that has a
stratum is the active one, so orphaned children fall back at their own next
scheduled sync, and with no such parent the sync logs holdover.
"""

from __future__ import annotations

import graphlib
import heapq
import math
from dataclasses import dataclass, field

# frequency_track is bound here but not called: bench/workloads.py rebinds it by name
from .estimator import CorrelationConfig, EstimationError, _halve_toward_zero, frequency_track  # noqa: F401
from .linkmodel import DEFAULT_CONSTANTS, LinkModel, NotVisibleError, PhysicalConstants
from .session import NodeInstruments, SessionSpec, estimate_session, run_session
from .timebase import FS_PER_SECOND, INT64_LIMIT, ClockModel, ClockState, TimeRangeError, apply_correction, local_time

__all__ = [
    "Node",
    "SyncEdge",
    "Topology",
    "NetworkReport",
    "TopologyError",
    "run_network",
    "gps_baseline_comparison",
    "BOUND_QCS_FS",
    "BOUND_MICIUS_FS",
    "BOUND_GPS_FS",
    "ROLE_REFERENCE",
    "ROLE_SATELLITE",
    "ROLE_GROUND",
]

BOUND_QCS_FS = 10_000  # 10 ps, entangled-pair demo target
BOUND_MICIUS_FS = 700_000  # 0.7 ns, Micius average sync error
BOUND_GPS_FS = 20_000_000  # 20 ns, lower edge of the GPS accuracy band

ROLE_REFERENCE = "reference"
ROLE_SATELLITE = "satellite"
ROLE_GROUND = "ground"


class TopologyError(ValueError):
    """Topology fails a structural invariant."""


@dataclass(frozen=True)
class Node:
    id: str
    clock_model: ClockModel
    role: str = ROLE_GROUND

    def __post_init__(self):
        if self.role not in (ROLE_REFERENCE, ROLE_SATELLITE, ROLE_GROUND):
            raise ValueError(f"unknown role {self.role!r}")


@dataclass(frozen=True)
class SyncEdge:
    upstream: str
    downstream: str
    link: LinkModel
    correlation: CorrelationConfig
    interval_s: float
    duration_fs: int  # acquisition window per sync
    instruments_up: NodeInstruments
    instruments_down: NodeInstruments
    track_frequency: bool = False  # steer rate too

    def __post_init__(self):
        interval = self.interval_s * FS_PER_SECOND
        if not (math.isfinite(interval) and round(interval) >= 1):
            raise ValueError(f"interval_s must be finite and at least 1 fs, got {self.interval_s}")
        if self.duration_fs <= 0:
            raise ValueError("duration_fs must be positive")

    @property
    def interval_fs(self) -> int:
        return round(self.interval_s * FS_PER_SECOND)


@dataclass(frozen=True)
class Topology:
    nodes: tuple[Node, ...]
    edges: tuple[SyncEdge, ...]
    failover_rules: dict = field(default_factory=dict)  # node id -> ordered upstream ids
    failures: tuple = ()  # (node id, fail_at_fs) pairs
    # built once from the fields above: node id -> parent edge indices in
    # preference order, and every node id in an upstream-first order
    _parents: dict = field(init=False, repr=False, compare=False)
    _order: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "failures", tuple(self.failures))
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise TopologyError("duplicate node ids")
        incoming: dict[str, list[int]] = {node_id: [] for node_id in ids}
        for i, e in enumerate(self.edges):
            if e.upstream not in incoming or e.downstream not in incoming:
                raise TopologyError(f"edge {e.upstream}->{e.downstream} references unknown node")
            if e.upstream == e.downstream:
                raise TopologyError("self-loop edge")
            incoming[e.downstream].append(i)
        refs = {n.id for n in self.nodes if n.role == ROLE_REFERENCE}
        if not refs:
            raise TopologyError("topology needs at least one reference node")
        sorter = graphlib.TopologicalSorter(
            {node_id: [self.edges[i].upstream for i in edges] for node_id, edges in incoming.items()}
        )
        try:
            object.__setattr__(self, "_order", tuple(sorter.static_order()))
        except graphlib.CycleError:
            raise TopologyError("sync edges form a cycle") from None
        for n in self.nodes:
            if n.role != ROLE_REFERENCE and not incoming[n.id]:
                raise TopologyError(f"node {n.id} has no parent edge")
        for node_id, _ in self.failures:
            if node_id not in incoming:
                raise TopologyError(f"failure of unknown node {node_id}")
        if refs <= {node_id for node_id, _ in self.failures}:
            raise TopologyError("at least one reference node must never fail")
        for node_id, parents in self.failover_rules.items():
            if node_id not in incoming:
                raise TopologyError(f"failover rule for unknown node {node_id}")
            by_upstream = {self.edges[i].upstream: i for i in incoming[node_id]}
            for p in parents:
                if p not in by_upstream:
                    raise TopologyError(f"failover parent {p} of {node_id} has no edge")
            preferred = [by_upstream[p] for p in parents]
            incoming[node_id] = preferred + [i for i in incoming[node_id] if i not in preferred]
        object.__setattr__(self, "_parents", {node_id: tuple(edges) for node_id, edges in incoming.items()})

    def parent_edges(self, node_id: str) -> list[int]:
        """Indices of this node's candidate parent edges, in preference order."""
        return list(self._parents[node_id])


@dataclass(frozen=True)
class NetworkReport:
    node_ids: tuple
    roles: dict
    strata: dict  # final stratum per node (None = unreachable)
    epochs_fs: tuple
    errors_fs: dict  # node id -> tuple of ints, offset vs the first live reference at each epoch
    edge_attempts: tuple
    edge_successes: tuple
    events: tuple  # per-event dicts
    summary: dict

    def to_dict(self) -> dict:
        return {
            "node_ids": list(self.node_ids),
            "roles": dict(self.roles),
            "strata": dict(self.strata),
            "epochs_s": [t / FS_PER_SECOND for t in self.epochs_fs],
            "errors_fs": {k: list(v) for k, v in self.errors_fs.items()},
            "edge_attempts": list(self.edge_attempts),
            "edge_successes": list(self.edge_successes),
            "events": [dict(e) for e in self.events],
            "summary": self.summary,
        }


def _strata(topology: Topology, dead: set) -> dict:
    """Shortest-hop stratum from live reference nodes over edges into live nodes.

    One pass in topological order, so every parent's stratum is final before
    its children read it: 0 for a live reference, None for a dead node, and
    otherwise 1 + the smallest parent stratum (None with no reachable parent).
    """
    refs = {n.id for n in topology.nodes if n.role == ROLE_REFERENCE}
    strata: dict = {}
    for node_id in topology._order:
        if node_id in dead:
            strata[node_id] = None
        elif node_id in refs:
            strata[node_id] = 0
        else:
            hops = (strata[topology.edges[i].upstream] for i in topology._parents[node_id])
            strata[node_id] = min((h + 1 for h in hops if h is not None), default=None)
    return {n.id: strata[n.id] for n in topology.nodes}


def _stream(times: range, kind: int, index: int):
    """Events (t, kind, index, occurrence) at the given times, produced lazily."""
    return ((t, kind, index, k) for k, t in enumerate(times))


def _measure(edge: SyncEdge, clocks: dict, t: int, event_seed: tuple, constants: PhysicalConstants):
    """Run one acquisition on the edge at true time t: (offset fix fs, rate fix).

    A two-way estimate cancels the flight time only on a reciprocal link, and
    a moving endpoint breaks reciprocity by about T_f * rdot / c (nanoseconds
    for LEO). So the offset fix has the orbit model's half flight asymmetry
    (T_AB - T_BA)/2 removed, read from the session's own midpoint flights
    (0 on a static range). A configured nonreciprocity_bias stays in the
    error as b/2.
    """
    spec = SessionSpec(
        duration=edge.duration_fs,
        instruments_a=edge.instruments_up,
        instruments_b=edge.instruments_down,
        link=edge.link,
        start_time=t,
    )
    streams = run_session(spec, clocks[edge.upstream], clocks[edge.downstream], event_seed, constants)
    result = estimate_session(streams, edge.correlation)
    # The configured nonreciprocity_bias is left out because it stands for
    # asymmetry the operator does not know about. The truth flights are the
    # ephemeris solve plus the bias split, so any future linkmodel term that
    # the controller cannot know must also be subtracted here.
    truth = streams.truth
    asymmetry = _halve_toward_zero(truth.flight_ab_fs - truth.flight_ba_fs - edge.link.nonreciprocity_bias)
    if edge.track_frequency:
        return result.frequency.offset_at_epoch - asymmetry, result.frequency.fractional_frequency
    return result.clock_offset - asymmetry, 0.0


def run_network(
    topology: Topology,
    horizon: int,
    seed: int,
    report_interval_fs: int | None = None,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> NetworkReport:
    """Discrete-event simulation of the whole sync hierarchy.

    Events run in (true time, kind, index) order: failures, then syncs by
    edge index, then error-series samples. The samples fall between sync
    times (half a report interval off the grid) so an epoch always reflects
    a consistent post-correction state. A horizon at or past 2^63 fs raises
    TimeRangeError, and more than 10^6 report epochs ValueError, before the
    first event.
    """
    if horizon >= INT64_LIMIT:
        raise TimeRangeError(
            f"horizon {horizon / FS_PER_SECOND:g} s is past the int64 femtosecond range of "
            f"tag arrays (2^63 fs, about {INT64_LIMIT // FS_PER_SECOND} s)"
        )
    min_interval = min((e.interval_fs for e in topology.edges), default=horizon)
    if horizon < min_interval:
        raise ValueError("horizon must cover at least one schedule interval")
    if report_interval_fs is None:
        report_interval_fs = min_interval
    if report_interval_fs <= 0:
        raise ValueError("report_interval_fs must be positive")
    epochs = range(report_interval_fs // 2, horizon + 1, report_interval_fs)
    if len(epochs) > 10**6:
        raise ValueError(f"report interval {report_interval_fs} fs gives {len(epochs)} report epochs, more than 10^6")

    references = [n.id for n in topology.nodes if n.role == ROLE_REFERENCE]
    reference_id = references[0]
    clocks: dict[str, ClockState] = {
        n.id: ClockState(n.clock_model, rng_stream=(seed, "clock", n.id)) for n in topology.nodes
    }

    # kind 0 = node failure, 1 = sync (ordered by edge index), 2 = report sample;
    # a failure comes first at its instant, so a node is down at t == fail_at
    failures = sorted((t, 0, i, 0) for i, (_, t) in enumerate(topology.failures) if t <= horizon)
    syncs = [
        _stream(range(e.interval_fs, horizon - e.duration_fs + 1, e.interval_fs), 1, edge_idx)
        for edge_idx, e in enumerate(topology.edges)
    ]

    dead: set[str] = set()
    strata = _strata(topology, dead)
    errors: dict[str, list[int]] = {n.id: [] for n in topology.nodes}
    attempts = [0] * len(topology.edges)
    successes = [0] * len(topology.edges)
    event_log: list[dict] = []

    for t, kind, index, occurrence in heapq.merge(failures, *syncs, _stream(epochs, 2, 0)):
        if kind == 0:
            dead.add(topology.failures[index][0])
            strata = _strata(topology, dead)
            reference_id = next(r for r in references if r not in dead)
            continue
        if kind == 2:
            ref_reading = local_time(clocks[reference_id], t)
            for n in topology.nodes:
                errors[n.id].append(local_time(clocks[n.id], t) - ref_reading)
            continue

        edge = topology.edges[index]
        record = {
            "edge": index,
            "event": occurrence,
            "t_s": t / FS_PER_SECOND,
            "upstream": edge.upstream,
            "downstream": edge.downstream,
        }
        parents = (c for c in topology.parent_edges(edge.downstream) if strata[topology.edges[c].upstream] is not None)
        if edge.downstream in dead:
            record["outcome"] = "downstream-down"
        elif (parent := next(parents, None)) is None:
            record["outcome"] = "holdover"
        elif parent != index:
            record["outcome"] = "standby"
        else:
            attempts[index] += 1
            event_seed = (seed, "edge", index, "event", occurrence)
            try:
                offset_fix, rate_fix = _measure(edge, clocks, t, event_seed, constants)
            except (EstimationError, NotVisibleError) as exc:
                record["outcome"] = f"failed: {exc}"
            else:
                clocks[edge.downstream] = apply_correction(clocks[edge.downstream], offset_fix, rate_fix)
                successes[index] += 1
                record.update(outcome="applied", offset_fix_fs=offset_fix, rate_fix=rate_fix)
        event_log.append(record)

    by_stratum: dict[int, list[int]] = {}
    for n in topology.nodes:
        stratum = strata[n.id]
        if stratum is None:
            continue
        by_stratum.setdefault(stratum, []).extend(errors[n.id])
    summary = {
        "max_abs_error_fs": max(
            (abs(v) for series in errors.values() for v in series), default=0
        ),
        "rms_error_fs_per_stratum": {
            str(s): math.sqrt(sum(v * v for v in vals) / len(vals)) if vals else 0.0
            for s, vals in sorted(by_stratum.items())
        },
    }
    return NetworkReport(
        node_ids=tuple(n.id for n in topology.nodes),
        roles={n.id: n.role for n in topology.nodes},
        strata=strata,
        epochs_fs=tuple(epochs),
        errors_fs={k: tuple(v) for k, v in errors.items()},
        edge_attempts=tuple(attempts),
        edge_successes=tuple(successes),
        events=tuple(event_log),
        summary=summary,
    )


def gps_baseline_comparison(report: NetworkReport) -> dict:
    """Fraction of epochs within the QCS 10 ps / Micius 0.7 ns / GPS 20 ns bounds.

    The overall row aggregates non-reference nodes only, so the reference
    clock's trivially zero error does not inflate the result.
    """
    if not report.epochs_fs:
        raise ValueError("report has no epochs")
    bounds = {
        "within_10ps": BOUND_QCS_FS,
        "within_0.7ns": BOUND_MICIUS_FS,
        "within_20ns": BOUND_GPS_FS,
    }

    def fractions(values) -> dict:
        return {name: sum(1 for v in values if abs(v) <= limit) / len(values) for name, limit in bounds.items()}

    per_node = {node_id: fractions(report.errors_fs[node_id]) for node_id in report.node_ids}
    non_reference = [
        node_id for node_id in report.node_ids if report.roles[node_id] != ROLE_REFERENCE
    ]
    overall_pool = non_reference or list(report.node_ids)
    overall = fractions([v for node_id in overall_pool for v in report.errors_fs[node_id]])
    return {
        "bounds_fs": dict(bounds),
        "per_node": per_node,
        "overall": overall,
    }
