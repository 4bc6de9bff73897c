"""NTP-like hierarchical time distribution built from pairwise sync links.

A topology is a set of clocked nodes and directed sync edges (upstream to
downstream). A discrete-event loop walks scheduled sync events in (time,
edge index) order; each event runs a full photon acquisition plus two-way
estimation on that edge and steps the downstream clock by the measured
offset (optionally also steering its rate). Every event derives its
randomness from (master seed, edge index, event index), so removing one
node's events never perturbs any other node's randomness, and single events
can be replayed in isolation.

Node failures disable a node's edges from the failure time onward; orphaned
children fall back to the next live parent in their preference order at
that edge's own next scheduled sync, and strata are recomputed as shortest
hop distance from the live reference set.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from .estimator import CorrelationConfig, EstimationError, _halve_toward_zero, frequency_track
from .linkmodel import (
    DEFAULT_CONSTANTS,
    Direction,
    LinkModel,
    NotVisibleError,
    PhysicalConstants,
    time_of_flight,
)
from .session import NodeInstruments, SessionSpec, estimate_session, run_session
from .timebase import FS_PER_SECOND, ClockModel, ClockState, apply_correction, local_time

__all__ = [
    "Node",
    "SyncEdge",
    "Topology",
    "NetworkReport",
    "TopologyError",
    "run_network",
    "inject_failure",
    "gps_baseline_comparison",
    "BOUND_QCS_FS",
    "BOUND_MICIUS_FS",
    "BOUND_GPS_FS",
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
    track_frequency: bool = False  # steer rate too; needs correlation.block_count >= 2

    def __post_init__(self):
        if not self.interval_s > 0:
            raise ValueError("interval_s must be positive")
        if self.duration_fs <= 0:
            raise ValueError("duration_fs must be positive")
        if self.track_frequency != (self.correlation.block_count >= 2):
            raise ValueError(
                f"track_frequency={self.track_frequency} disagrees with block_count="
                f"{self.correlation.block_count}: a rate fit needs block_count >= 2, "
                "an offset-only sync block_count 1"
            )

    @property
    def interval_fs(self) -> int:
        return round(self.interval_s * FS_PER_SECOND)


@dataclass(frozen=True)
class Topology:
    nodes: tuple[Node, ...]
    edges: tuple[SyncEdge, ...]
    failover_rules: dict = field(default_factory=dict)  # node id -> ordered upstream ids
    failures: tuple = ()  # (node id, fail_at_fs) pairs

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "failures", tuple(self.failures))
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise TopologyError("duplicate node ids")
        known = set(ids)
        for e in self.edges:
            if e.upstream not in known or e.downstream not in known:
                raise TopologyError(f"edge {e.upstream}->{e.downstream} references unknown node")
            if e.upstream == e.downstream:
                raise TopologyError("self-loop edge")
        refs = [n for n in self.nodes if n.role == ROLE_REFERENCE]
        if not refs:
            raise TopologyError("topology needs at least one reference node")
        self._validate_acyclic()
        for n in self.nodes:
            if n.role != ROLE_REFERENCE and not self.parent_edges(n.id):
                raise TopologyError(f"node {n.id} has no parent edge")
        for node_id, parents in self.failover_rules.items():
            if node_id not in known:
                raise TopologyError(f"failover rule for unknown node {node_id}")
            available = {e.upstream for e in self.edges if e.downstream == node_id}
            for p in parents:
                if p not in available:
                    raise TopologyError(f"failover parent {p} of {node_id} has no edge")

    def _validate_acyclic(self):
        order, seen = [], {}
        adjacency = {}
        for e in self.edges:
            adjacency.setdefault(e.upstream, []).append(e.downstream)

        def visit(node):
            state = seen.get(node, 0)
            if state == 1:
                raise TopologyError("sync edges form a cycle")
            if state == 2:
                return
            seen[node] = 1
            for child in adjacency.get(node, ()):
                visit(child)
            seen[node] = 2
            order.append(node)

        for n in self.nodes:
            visit(n.id)

    def node(self, node_id: str) -> Node:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise KeyError(node_id)

    def parent_edges(self, node_id: str) -> list[int]:
        """Indices of this node's candidate parent edges, in preference order."""
        incoming = [i for i, e in enumerate(self.edges) if e.downstream == node_id]
        rule = self.failover_rules.get(node_id)
        if not rule:
            return incoming
        by_upstream = {self.edges[i].upstream: i for i in incoming}
        ordered = [by_upstream[p] for p in rule if p in by_upstream]
        ordered += [i for i in incoming if i not in ordered]
        return ordered


def inject_failure(topology: Topology, node_id: str, fail_at: int) -> Topology:
    """Return a topology where node_id dies at true time fail_at (fs)."""
    node = topology.node(node_id)
    if node.role == ROLE_REFERENCE:
        refs = [n for n in topology.nodes if n.role == ROLE_REFERENCE]
        if len(refs) == 1:
            raise TopologyError("cannot fail the only reference node")
    return Topology(
        nodes=topology.nodes,
        edges=topology.edges,
        failover_rules=dict(topology.failover_rules),
        failures=topology.failures + ((node_id, int(fail_at)),),
    )


@dataclass(frozen=True)
class NetworkReport:
    node_ids: tuple
    roles: dict
    strata: dict  # final stratum per node (None = unreachable)
    epochs_fs: tuple
    errors_fs: dict  # node id -> tuple of ints, offset vs reference at each epoch
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


def _alive_fn(failures):
    fail_at = {}
    for node_id, t in failures:
        fail_at[node_id] = min(t, fail_at.get(node_id, t))

    def alive(node_id: str, t: int) -> bool:
        return node_id not in fail_at or t < fail_at[node_id]

    return alive


def _strata_at(topology: Topology, alive, t: int) -> dict:
    """Shortest-hop stratum from live reference nodes over live edges."""
    strata = {n.id: None for n in topology.nodes}
    frontier = [n.id for n in topology.nodes if n.role == ROLE_REFERENCE and alive(n.id, t)]
    for node_id in frontier:
        strata[node_id] = 0
    level = 0
    while frontier:
        level += 1
        next_frontier = []
        for e in topology.edges:
            if e.upstream in frontier and alive(e.downstream, t) and strata[e.downstream] is None:
                strata[e.downstream] = level
                next_frontier.append(e.downstream)
        frontier = next_frontier
    return strata


def _ephemeris_asymmetry_fs(link: LinkModel, t_mid: int, constants: PhysicalConstants) -> int:
    """Predicted two-way asymmetry (T_AB - T_BA)/2 from the known geometry.

    A moving endpoint breaks flight-time reciprocity by about T_f * rdot / c
    (nanoseconds for LEO), so the controller subtracts the asymmetry the
    orbit model predicts. The configured nonreciprocity_bias is deliberately
    excluded: it stands for asymmetry the operator does not know about, and
    must surface in the error budget as b/2.
    """
    known = dataclasses.replace(link, nonreciprocity_bias=0)
    try:
        t_ab = time_of_flight(known, t_mid, Direction.A_TO_B, constants)
        t_ba = time_of_flight(known, t_mid, Direction.B_TO_A, constants)
    except NotVisibleError:
        return 0
    return _halve_toward_zero(t_ab - t_ba)


def run_network(
    topology: Topology,
    horizon: int,
    seed: int,
    report_interval_fs: int | None = None,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> NetworkReport:
    """Discrete-event simulation of the whole sync hierarchy.

    Sync events are ordered by (true time, edge index); error-series samples
    fall between sync times (half a report interval off the grid) so an
    epoch always reflects a consistent post-correction state.
    """
    min_interval = min((e.interval_fs for e in topology.edges), default=horizon)
    if horizon < min_interval:
        raise ValueError("horizon must cover at least one schedule interval")
    if report_interval_fs is None:
        report_interval_fs = min_interval
    if report_interval_fs <= 0:
        raise ValueError("report_interval_fs must be positive")

    alive = _alive_fn(topology.failures)
    reference_id = next(n.id for n in topology.nodes if n.role == ROLE_REFERENCE)
    clocks: dict[str, ClockState] = {
        n.id: ClockState(n.clock_model, rng_stream=(seed, "clock", n.id)) for n in topology.nodes
    }
    preference = {n.id: topology.parent_edges(n.id) for n in topology.nodes}

    # kind 0 = sync (ordered by edge index), kind 1 = report sample
    events: list[tuple[int, int, int, int]] = []
    for edge_idx, edge in enumerate(topology.edges):
        k = 0
        t = edge.interval_fs
        while t + edge.duration_fs <= horizon:
            events.append((t, 0, edge_idx, k))
            k += 1
            t += edge.interval_fs
    epochs = []
    t = report_interval_fs // 2
    while t <= horizon:
        epochs.append(t)
        events.append((t, 1, 0, len(epochs) - 1))
        t += report_interval_fs
    events.sort()

    errors: dict[str, list[int]] = {n.id: [] for n in topology.nodes}
    attempts = [0] * len(topology.edges)
    successes = [0] * len(topology.edges)
    event_log: list[dict] = []

    for t, kind, edge_idx, occurrence in events:
        if kind == 1:
            ref_reading = local_time(clocks[reference_id], t, readout_noise=False)
            for n in topology.nodes:
                reading = local_time(clocks[n.id], t, readout_noise=False)
                errors[n.id].append(reading - ref_reading)
            continue

        edge = topology.edges[edge_idx]
        record = {
            "edge": edge_idx,
            "event": occurrence,
            "t_s": t / FS_PER_SECOND,
            "upstream": edge.upstream,
            "downstream": edge.downstream,
        }
        if not alive(edge.downstream, t):
            record["outcome"] = "downstream-down"
            event_log.append(record)
            continue
        strata_now = _strata_at(topology, alive, t)
        active_edge = None
        for candidate in preference[edge.downstream]:
            upstream = topology.edges[candidate].upstream
            if alive(upstream, t) and strata_now[upstream] is not None:
                active_edge = candidate
                break
        if active_edge is None:
            record["outcome"] = "holdover"
            event_log.append(record)
            continue
        if active_edge != edge_idx:
            record["outcome"] = "standby"
            event_log.append(record)
            continue

        attempts[edge_idx] += 1
        spec = SessionSpec(
            duration=edge.duration_fs,
            instruments_a=edge.instruments_up,
            instruments_b=edge.instruments_down,
            link=edge.link,
            start_time=t,
        )
        event_seed = (seed, "edge", edge_idx, "event", occurrence)
        try:
            streams = run_session(
                spec, clocks[edge.upstream], clocks[edge.downstream], event_seed, constants
            )
            if edge.track_frequency:
                fit = frequency_track(
                    streams.local_a,
                    streams.remote_ab,
                    streams.local_b,
                    streams.remote_ba,
                    edge.correlation,
                )
                offset_fix, rate_fix = fit.offset_at_epoch, fit.fractional_frequency
            else:
                result = estimate_session(streams, edge.correlation)
                offset_fix, rate_fix = result.clock_offset, 0.0
        except (EstimationError, NotVisibleError) as exc:
            record["outcome"] = f"failed: {exc}"
            event_log.append(record)
            continue

        offset_fix -= _ephemeris_asymmetry_fs(edge.link, t + edge.duration_fs // 2, constants)
        clocks[edge.downstream] = apply_correction(clocks[edge.downstream], offset_fix, rate_fix)
        successes[edge_idx] += 1
        record["outcome"] = "applied"
        record["offset_fix_fs"] = offset_fix
        record["rate_fix"] = rate_fix
        event_log.append(record)

    final_strata = _strata_at(topology, alive, horizon)
    by_stratum: dict[int, list[int]] = {}
    for n in topology.nodes:
        stratum = final_strata[n.id]
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
        strata=final_strata,
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
    per_node = {}
    for node_id in report.node_ids:
        series = report.errors_fs[node_id]
        per_node[node_id] = {
            name: sum(1 for v in series if abs(v) <= limit) / len(series)
            for name, limit in bounds.items()
        }
    non_reference = [
        node_id for node_id in report.node_ids if report.roles[node_id] != ROLE_REFERENCE
    ]
    overall_pool = non_reference or list(report.node_ids)
    overall = {}
    for name, limit in bounds.items():
        values = [v for node_id in overall_pool for v in report.errors_fs[node_id]]
        overall[name] = sum(1 for v in values if abs(v) <= limit) / len(values)
    return {
        "bounds_fs": {name: limit for name, limit in bounds.items()},
        "per_node": per_node,
        "overall": overall,
    }
