"""The benchmark's three workloads.

Every input is generated from the workload seed and the op index, so op i
of a given seed is the same in every run, traced or not. The shipped
scenarios are loaded as templates; the program only ever sees the
generated configs and objects.

Each workload provides ``setup()`` (load and validate templates, validate a
generated config, build shared objects), ``make_op(i)`` (generate inputs,
untimed), ``run_op(op)`` (the timed call into the public API) and
``check(op, raw)`` (ground-truth checks, untimed) returning an ``OpResult``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import qcsync.cli as cli
import qcsync.estimator as estimator
import qcsync.linkmodel as linkmodel
import qcsync.netsync as netsync
import qcsync.scenario as scenario
import qcsync.session as session
import qcsync.timebase as timebase

FS_PER_SECOND = 10**15
WARMUP_OP = 1 << 30  # op index of the untimed warm-up op, outside any run's range


@dataclass
class OpResult:
    attempted: int  # ops (acquire_wide, cli_dense) or sync attempts (net_montecarlo)
    failed: int
    tags: int  # detected tags in the four streams of every session
    syncs: int  # two-way sync attempts
    errors_fs: list = field(default_factory=list)  # estimated minus true theta
    pulls: list = field(default_factory=list)  # error / reported uncertainty
    freq_errors: list = field(default_factory=list)  # fitted minus configured fractional frequency
    failures: list = field(default_factory=list)  # one short reason per failure
    digest: bytes = b""


def _op_rng(seed: int, key: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, key, i])


def _even(seed: int, key: int, i: int, step: float) -> float:
    """Point i of a seed-shifted Weyl sequence in [0, 1).

    Consecutive ops cover [0, 1) evenly, so the mix of op sizes, and the
    median op time with it, hardly depends on the seed or on how many ops a
    run completes.
    """
    shift = np.random.default_rng([seed, key, int(step * 1e6)]).random()
    return (shift + i * step) % 1.0


GOLDEN = (5**0.5 - 1) / 2
SILVER = 2**0.5 - 1


class AcquireWide:
    """Sparse two-node acquisitions with a ±2 ms search window (paper_100pairs regime)."""

    name = "acquire_wide"
    key = 1
    min_ops = 100

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.seed, self.root = seed, root

    def setup(self) -> None:
        self.template = scenario.load_scenario(self.root / "scenarios" / "paper_100pairs.json")
        scenario.validate_scenario(self._config(self.make_params(WARMUP_OP)))
        t = self.template
        tagger = scenario.build_tagger(t["tagger"])
        self.instruments = {
            side: session.NodeInstruments(
                scenario.build_source(t["sources"][side]),
                scenario.build_detector(t["detectors"][side]),
                tagger,
            )
            for side in ("a", "b")
        }
        self.link = scenario.build_link(t["link"])
        self.cfg = scenario.build_correlation(t["correlation"])

    def make_params(self, i: int) -> dict:
        rng = _op_rng(self.seed, self.key, i)
        return {
            "master": int(rng.integers(2**62)),
            "duration_s": 1e-3 + 3e-3 * _even(self.seed, self.key, i, GOLDEN),
            "theta_fs": int(rng.integers(-5 * 10**11, 5 * 10**11 + 1)),
        }

    def _config(self, params: dict) -> dict:
        config = json.loads(json.dumps(self.template))
        config["seed"] = params["master"]
        config["duration_s"] = params["duration_s"]
        config["clocks"] = {"a": {}, "b": {"initial_offset_fs": params["theta_fs"]}}
        return config

    def make_op(self, i: int) -> dict:
        params = self.make_params(i)
        config = self._config(params)
        spec = session.SessionSpec(
            duration=round(config["duration_s"] * FS_PER_SECOND),
            instruments_a=self.instruments["a"],
            instruments_b=self.instruments["b"],
            link=self.link,
        )
        models = {s: scenario.build_clock_model(config["clocks"][s]) for s in ("a", "b")}
        return {"i": i, "master": params["master"], "spec": spec, "models": models}

    def run_op(self, op: dict):
        master = op["master"]
        clock_a = timebase.ClockState(op["models"]["a"], rng_stream=(master, "clock", "a"))
        clock_b = timebase.ClockState(op["models"]["b"], rng_stream=(master, "clock", "b"))
        streams = session.run_session(op["spec"], clock_a, clock_b, (master, "session"))
        try:
            return streams, session.estimate_session(streams, self.cfg)
        except estimator.EstimationError as exc:
            return streams, exc

    def check(self, op: dict, raw) -> OpResult:
        streams, result = raw
        lengths = [len(s) for s in (streams.local_a, streams.remote_ab, streams.local_b, streams.remote_ba)]
        out = OpResult(attempted=1, failed=0, tags=sum(lengths), syncs=1)
        if isinstance(result, Exception):
            out.failed, out.failures = 1, [type(result).__name__]
            out.digest = repr((op["i"], lengths, type(result).__name__)).encode()
            return out
        error = result.clock_offset - streams.truth.theta_fs
        if abs(error) > self.cfg.coarse_bin:
            out.failed, out.failures = 1, ["wrong peak"]
        out.errors_fs = [error]
        out.pulls = [error / max(result.offset_uncertainty, 1)]
        out.digest = repr(
            (op["i"], lengths, result.clock_offset, result.flight_time, result.offset_uncertainty, streams.truth)
        ).encode()
        return out

    def close(self) -> None:
        pass


class CliDense:
    """In-process CLI round trips on dense streams with drifting clocks."""

    name = "cli_dense"
    key = 2
    min_ops = 5
    # Largest accepted |fitted - configured| fractional frequency difference.
    # The configured difference is drawn with magnitude in [1e-8, 3e-8], so
    # a fit that misses the drift fails. Fit errors up to 3.8e-9 were seen
    # over 20 runs; the largest of a run is reported as "freq_error_max".
    freq_tolerance = 8e-9
    tag_names = ("a_local", "b_from_a", "b_local", "a_from_b")

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.seed, self.root, self.workdir = seed, root, workdir

    def setup(self) -> None:
        self.template = scenario.load_scenario(self.root / "scenarios" / "paper_100pairs.json")
        scenario.validate_scenario(self._config(WARMUP_OP))

    def _config(self, i: int) -> dict:
        rng = _op_rng(self.seed, self.key, i)
        y_a = float(rng.uniform(-1e-8, 1e-8))
        y_b = y_a + float(rng.choice([-1.0, 1.0]) * rng.uniform(1e-8, 3e-8))

        def clock(offset: int, y: float) -> dict:
            return {
                "initial_offset_fs": offset,
                "fractional_frequency": y,
                "white_phase_sigma_fs": float(rng.uniform(1000, 10000)),
                "random_walk_freq_coeff": float(rng.uniform(1e-13, 1e-12)),
            }

        t = self.template
        return {
            "seed": int(rng.integers(2**62)),
            "duration_s": 0.02,
            "clocks": {"a": clock(0, y_a), "b": clock(int(rng.integers(-5 * 10**7, 5 * 10**7 + 1)), y_b)},
            "sources": {s: dict(t["sources"][s], pair_rate_hz=1e7) for s in ("a", "b")},
            "detectors": t["detectors"],
            "tagger": t["tagger"],
            "link": {"geometry": {"variant": "static_range", "range_m": 30.0}, "transmittance": 0.5},
            "correlation": {"search_window_fs": 2 * 10**8, "coarse_bin_fs": 10**6, "block_count": 8},
        }

    def make_op(self, i: int) -> dict:
        config = self._config(i)
        op_dir = self.workdir / f"op{i}"
        op_dir.mkdir(parents=True, exist_ok=True)
        config_path = op_dir / "config.json"
        config_path.write_text(json.dumps(config, sort_keys=True))
        return {"i": i, "config": config, "dir": op_dir, "config_path": config_path}

    def run_op(self, op: dict):
        sim_out, est_out = io.StringIO(), io.StringIO()
        config, out = str(op["config_path"]), str(op["dir"])
        with contextlib.redirect_stdout(sim_out):
            rc_sim = cli.main(["simulate", "--config", config, "--out", out])
        rc_est = None
        if rc_sim == 0:
            files = [str(op["dir"] / f"{n}.tags") for n in self.tag_names]
            with contextlib.redirect_stdout(est_out):
                rc_est = cli.main(["estimate", *files, "--config", config])
        return rc_sim, rc_est, est_out.getvalue()

    def check(self, op: dict, raw) -> OpResult:
        rc_sim, rc_est, est_text = raw
        out = OpResult(attempted=1, failed=0, tags=0, syncs=1)
        digest = hashlib.sha256(repr((op["i"], rc_sim, rc_est)).encode())
        try:
            if rc_sim != 0 or rc_est != 0:
                out.failures.append(f"exit codes simulate={rc_sim} estimate={rc_est}")
                return out
            sim_text = (op["dir"] / "twoway_result.json").read_text()
            digest.update(sim_text.encode())
            digest.update(est_text.encode())
            for name in self.tag_names:
                data = (op["dir"] / f"{name}.tags").read_bytes()
                digest.update(data)
                out.tags += sum(1 for line in data.splitlines() if not line.startswith(b"#"))
            sim, est = json.loads(sim_text), json.loads(est_text)
            keys = ("clock_offset", "flight_time", "offset_uncertainty", "frequency")
            if any(sim[k] != est[k] for k in keys):
                out.failures.append("estimate differs from simulate")
            error = sim["clock_offset"] - sim["truth"]["theta_fs"]
            if abs(error) > op["config"]["correlation"]["coarse_bin_fs"]:
                out.failures.append("wrong peak")
            clocks = op["config"]["clocks"]
            delta_y = clocks["b"]["fractional_frequency"] - clocks["a"]["fractional_frequency"]
            out.freq_errors = [sim["frequency"]["fractional_frequency"] - delta_y]
            if abs(out.freq_errors[0]) > self.freq_tolerance:
                out.failures.append("frequency fit outside tolerance")
            out.errors_fs = [error]
            out.pulls = [error / max(sim["offset_uncertainty"], 1)]
            return out
        finally:
            out.failed = 1 if out.failures else 0
            out.digest = digest.digest()
            shutil.rmtree(op["dir"], ignore_errors=True)

    def close(self) -> None:
        pass


class NetMonteCarlo:
    """Many small seeded network runs: static ground edges, some LEO, tracking and failover."""

    name = "net_montecarlo"
    key = 3
    min_ops = 100
    horizon_s = 0.03
    interval_s = 0.01
    coarse_bin_fs = 10**6  # every edge's, leo_demo's included
    observed = ("run_session", "estimate_session", "frequency_track")

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.seed, self.root = seed, root
        self.tags, self.estimates, self._truth = 0, [], None
        # NetworkReport keeps neither tag counts nor per-sync estimates, so
        # pass-throughs on netsync's bindings record them. They look up the
        # library functions at call time, so a tracer installed later still
        # sees those calls.
        self._originals = {name: getattr(netsync, name) for name in self.observed}

        def run_session(*args, **kwargs):
            streams = session.run_session(*args, **kwargs)
            self.tags += sum(len(s) for s in (streams.local_a, streams.remote_ab, streams.local_b, streams.remote_ba))
            self._truth = streams.truth
            return streams

        def estimate_session(*args, **kwargs):
            result = session.estimate_session(*args, **kwargs)
            self.estimates.append((self._truth, result.clock_offset))
            return result

        def frequency_track(*args, **kwargs):
            fit = estimator.frequency_track(*args, **kwargs)
            # the least-squares line passes through the mean of the block offsets
            thetas = [theta for _, theta in fit.block_offsets]
            self.estimates.append((self._truth, sum(thetas) / len(thetas)))
            return fit

        for fn in (run_session, estimate_session, frequency_track):
            setattr(netsync, fn.__name__, fn)

    def close(self) -> None:
        for name, fn in self._originals.items():
            setattr(netsync, name, fn)

    def setup(self) -> None:
        leo = scenario.load_scenario(self.root / "scenarios" / "leo_demo.json")
        self.leo_edge = leo["topology"]["edges"][0]
        section, master = self._section(WARMUP_OP)
        scenario.validate_scenario({"seed": master, "topology": section})

    def _ground_edge(self, rng, up: str, down: str) -> dict:
        edge = {
            "upstream": up,
            "downstream": down,
            "interval_s": self.interval_s,
            "link": {"geometry": {"variant": "static_range", "range_m": float(rng.uniform(500.0, 10000.0))}},
            "session": {
                "duration_s": 1e-5,
                "source_up": {"pair_rate_hz": 1e7},
                "source_down": {"pair_rate_hz": 1e7},
                "detector_up": {"jitter_sigma_fs": 20000},
                "detector_down": {"jitter_sigma_fs": 20000},
                "tagger": {"resolution_fs": 1000},
            },
            "correlation": {"search_window_fs": 10**11, "coarse_bin_fs": self.coarse_bin_fs, "fine_bin_fs": 2 * 10**5},
        }
        if rng.random() < 0.25:
            # A rate fitted over 10 us of jittered tags would steer the clock
            # nanoseconds off, so tracked edges get noiseless instruments.
            quiet = {"pair_rate_hz": 2e7, "pair_correlation_sigma_fs": 0}
            edge["session"].update(
                source_up=quiet, source_down=quiet, detector_up={}, detector_down={}, tagger={"resolution_fs": 1}
            )
            edge["correlation"].update(fine_bin_fs=1000, block_count=4)
            edge["track_frequency"] = True
        return edge

    def _section(self, i: int) -> tuple[dict, int]:
        rng = _op_rng(self.seed, self.key, i)
        master = int(rng.integers(2**62))
        nodes = [{"id": "ref", "role": "reference", "clock": {}}]
        edges, failover = [], {}
        for j in range(1, 3 + int(5 * _even(self.seed, self.key, i, GOLDEN))):
            node = f"g{j}"
            nodes.append(
                {
                    "id": node,
                    "role": "ground",
                    "clock": {
                        "initial_offset_fs": int(rng.integers(-2 * 10**10, 2 * 10**10 + 1)),
                        "fractional_frequency": float(rng.uniform(-1e-9, 1e-9)),
                    },
                }
            )
            parents = ["ref"] + [f"g{k}" for k in range(1, j)]
            up = parents[int(rng.integers(len(parents)))]
            edges.append(self._ground_edge(rng, up, node))
            if len(parents) > 1 and rng.random() < 0.3:
                backup = [p for p in parents if p != up][int(rng.integers(len(parents) - 1))]
                edges.append(self._ground_edge(rng, backup, node))
                failover[node] = [up, backup]
        if _even(self.seed, self.key, i, SILVER) < 0.3:
            nodes.append(
                {
                    "id": "sat",
                    "role": "satellite",
                    "clock": {
                        "initial_offset_fs": int(rng.integers(-10**9, 10**9 + 1)),
                        "fractional_frequency": 1e-12,
                    },
                }
            )
            leo = json.loads(json.dumps(self.leo_edge))
            for side in ("source_up", "source_down"):
                leo["session"][side]["pair_rate_hz"] = 1e7
            leo.update(upstream="ref", downstream="sat", interval_s=self.interval_s)
            edges.append(leo)
        section = {
            "horizon_s": self.horizon_s,
            "report_interval_s": self.interval_s,
            "nodes": nodes,
            "edges": edges,
            "failover": failover,
            "failures": [],
        }
        relays = sorted({e["upstream"] for e in edges} - {"ref"})
        if relays and rng.random() < 0.3:
            section["failures"] = [{"node": relays[int(rng.integers(len(relays)))], "at_s": self.horizon_s / 2}]
        return section, master

    def make_op(self, i: int) -> dict:
        section, master = self._section(i)
        topology, horizon, report_interval = scenario.build_topology(section)
        fail_at = {f["node"]: round(f["at_s"] * FS_PER_SECOND) for f in section["failures"]}
        return {
            "i": i,
            "master": master,
            "topology": topology,
            "horizon": horizon,
            "report_interval": report_interval,
            "fail_at": fail_at,
        }

    def run_op(self, op: dict):
        self.tags, self.estimates = 0, []
        try:
            report = netsync.run_network(op["topology"], op["horizon"], op["master"], op["report_interval"])
        except (estimator.EstimationError, linkmodel.NotVisibleError, linkmodel.LightTimeConvergenceError) as exc:
            report = exc
        return report, self.tags, self.estimates

    def check(self, op: dict, raw) -> OpResult:
        report, tags, estimates = raw
        if isinstance(report, Exception):
            return OpResult(
                attempted=1, failed=1, tags=tags, syncs=0, failures=[type(report).__name__],
                digest=repr((op["i"], type(report).__name__)).encode(),
            )
        attempts, applied = sum(report.edge_attempts), sum(report.edge_successes)
        out = OpResult(attempted=attempts, failed=0, tags=tags, syncs=attempts)
        out.failures = [e["outcome"] for e in report.events if e["outcome"].startswith("failed")]
        if attempts != applied + len(out.failures) or len(estimates) != applied:
            out.failures.append("report counts disagree")
        # Each two-way estimate is theta + (T_AB - T_BA)/2 for the session's truth.
        for truth, theta in estimates:
            asymmetry = truth.flight_ab_fs - truth.flight_ba_fs
            if abs(theta - truth.theta_fs - asymmetry / 2) > self.coarse_bin_fs:
                out.failures.append("wrong peak")
        first_applied = {}
        for event in report.events:
            if event["outcome"] == "applied":
                first_applied.setdefault(event["downstream"], round(event["t_s"] * FS_PER_SECOND))
        for node, t0 in first_applied.items():
            t1 = op["fail_at"].get(node, op["horizon"] + 1)
            out.errors_fs += [e for t, e in zip(report.epochs_fs, report.errors_fs[node]) if t0 < t < t1]
        out.failed = len(out.failures)
        out.digest = json.dumps(report.to_dict(), sort_keys=True).encode()
        return out


WORKLOADS = {w.name: w for w in (AcquireWide, CliDense, NetMonteCarlo)}
