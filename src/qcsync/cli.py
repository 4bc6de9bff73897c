"""Command-line entry point: simulate, estimate, relativity, bell, net.

Exit codes: 0 success, 2 configuration error, 3 estimation/simulation
failure (no significant peak, link not visible, insufficient data, out of
memory), 4 file I/O or parse error. All artifact files are written
atomically and JSON output is key-sorted so fixed seeds give byte-identical
files.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bellauth import authenticate, chsh_value, simulate_coincidences
from .estimator import EstimationError, TwoWayResult, estimate_two_way
from .linkmodel import (
    Direction,
    LightTimeConvergenceError,
    NotVisibleError,
    StaticRange,
    _geometry_at,
    _shapiro_fs,
    orbital_period,
    relativistic_rate_offset,
    time_of_flight,
    visibility_windows,
)
from .netsync import gps_baseline_comparison, run_network
from .scenario import (
    ConfigError,
    _fs,
    build_bell,
    build_correlation,
    build_link,
    build_session,
    build_topology,
    load_scenario,
    require_sections,
)
from .session import estimate_session, run_session
from .tagfiles import TagFileError, atomic_write_text, read_timetag_file, write_timetag_file
from .timebase import FS_PER_SECOND, ClockState, TimeRangeError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ESTIMATION = 3
EXIT_IO = 4

_ESTIMATION_ERRORS = (EstimationError, NotVisibleError, LightTimeConvergenceError)
_CONFIG_ERRORS = (ConfigError, TimeRangeError)


def _stable_json(payload) -> str:
    return json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n"


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value) if np.isfinite(value) else None  # JSON has no inf or nan
    return value


def _two_way_dict(result: TwoWayResult) -> dict:
    payload = dataclasses.asdict(result)
    for side in ("forward", "backward"):
        del payload[side]["members"]  # per-pair arrays; region_total counts them
    return payload


def _scenario_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True).encode()
    return hashlib.sha256(canonical).hexdigest()[:16]


def _out_dir(args, config: dict) -> Path:
    if args.out:
        return Path(args.out)
    return Path((config.get("output") or {}).get("dir", "."))


def _load_config(args) -> dict:
    if not args.config:
        raise ConfigError("this command requires --config PATH")
    config = load_scenario(args.config)
    if args.seed is not None:
        config["seed"] = args.seed
    return config


def cmd_simulate(args) -> int:
    config = _load_config(args)
    spec, model_a, model_b = build_session(config)
    cfg = build_correlation(config.get("correlation"))  # before any file is written
    seed = config["seed"]
    clock_a = ClockState(model_a, rng_stream=(seed, "clock", "a"))
    clock_b = ClockState(model_b, rng_stream=(seed, "clock", "b"))
    metadata = {"scenario": _scenario_hash(config)}
    streams = run_session(spec, clock_a, clock_b, (seed, "session"), metadata=metadata)

    out_dir = _out_dir(args, config)
    files = {
        "a_local": out_dir / "a_local.tags",
        "b_from_a": out_dir / "b_from_a.tags",
        "b_local": out_dir / "b_local.tags",
        "a_from_b": out_dir / "a_from_b.tags",
    }
    write_timetag_file(files["a_local"], streams.local_a)
    write_timetag_file(files["b_from_a"], streams.remote_ab)
    write_timetag_file(files["b_local"], streams.local_b)
    write_timetag_file(files["a_from_b"], streams.remote_ba)
    for path in files.values():
        read_timetag_file(path)  # zero exit promises artifacts that validate

    result = estimate_session(streams, cfg)
    payload = _two_way_dict(result)
    payload["truth"] = dataclasses.asdict(streams.truth)
    # basenames keep the artifact byte-identical across output directories
    payload["files"] = {k: v.name for k, v in files.items()}
    atomic_write_text(out_dir / "twoway_result.json", _stable_json(payload))
    print(
        f"theta_fs={result.clock_offset} flight_fs={result.flight_time} "
        f"uncertainty_fs={result.offset_uncertainty}"
    )
    return EXIT_OK


def cmd_estimate(args) -> int:
    streams = [read_timetag_file(p) for p in args.tagfiles]
    config = load_scenario(args.config) if args.config else {}
    cfg = build_correlation(config.get("correlation"))
    text = _stable_json(_two_way_dict(estimate_two_way(*streams, cfg)))
    sys.stdout.write(text)
    if args.out:
        atomic_write_text(Path(args.out) / "estimate_result.json", text)
    return EXIT_OK


def cmd_relativity(args) -> int:
    config = _load_config(args)
    require_sections(config, "link")
    link = build_link(config["link"])
    geometry = link.geometry
    rel_cfg = config.get("relativity") or {}
    if isinstance(geometry, StaticRange):
        default_horizon = 1.0
    else:
        default_horizon = orbital_period(geometry)
    horizon_s = rel_cfg.get("horizon_s", default_horizon)
    n_samples = rel_cfg.get("samples", 100)
    horizon_fs = _fs(horizon_s, "relativity.horizon_s")
    step_fs = max(horizon_fs // (n_samples - 1), 1)

    # a float grid: an int64 one would wrap past 2^63 fs (about 2.56 h)
    t_fs = np.array([float(min(i * step_fs, horizon_fs)) for i in range(n_samples)])
    t_s = t_fs / FS_PER_SECOND
    geo = _geometry_at(geometry, t_s)
    visible = np.broadcast_to(geo.visible, t_s.shape)
    # a grid time is an integral float, so its int is the same time
    flights = [
        [time_of_flight(link, int(t), direction) if v else None for t, v in zip(t_fs.tolist(), visible.tolist())]
        for direction in Direction
    ]
    shapiro = _shapiro_fs(geo.r_station_m, geo.r_sat_m, geo.range_m)
    columns = np.broadcast_arrays(t_s, geo.range_m, np.degrees(geo.elevation), visible, *flights, shapiro)
    keys = ("t_s", "range_m", "elevation_deg", "visible", "flight_ab_fs", "flight_ba_fs", "shapiro_fs")
    samples = [dict(zip(keys, row)) for row in zip(*(c.tolist() for c in columns))]

    payload = {
        "samples": samples,
        "visibility_windows": visibility_windows(geometry, 0, horizon_fs, step_fs),
    }
    if isinstance(geometry, StaticRange):
        payload["orbital_period_s"] = None
        payload["rate_offset"] = None
    else:
        payload["orbital_period_s"] = orbital_period(geometry)
        payload["rate_offset"] = relativistic_rate_offset(geometry)

    out_dir = _out_dir(args, config)
    if args.format == "csv":
        header = "t_s,range_m,elevation_deg,visible,flight_ab_fs,flight_ba_fs,shapiro_fs"
        rows = [
            f"{s['t_s']},{s['range_m']},{s['elevation_deg']},{int(s['visible'])},"
            f"{'' if s['flight_ab_fs'] is None else s['flight_ab_fs']},"
            f"{'' if s['flight_ba_fs'] is None else s['flight_ba_fs']},{s['shapiro_fs']}"
            for s in samples
        ]
        atomic_write_text(out_dir / "relativity_samples.csv", "\n".join([header] + rows) + "\n")
    text = _stable_json(payload)
    atomic_write_text(out_dir / "relativity_report.json", text)
    sys.stdout.write(text)
    return EXIT_OK


def cmd_bell(args) -> int:
    config = _load_config(args)
    require_sections(config, "bell")
    model, settings, pairs, policy = build_bell(config["bell"])
    counts = simulate_coincidences(model, settings, pairs, (config["seed"], "bell"))
    estimate = chsh_value(counts)
    decision = authenticate(estimate, policy)
    payload = {
        "S": estimate.S,
        "standard_error": estimate.standard_error,
        "counts_per_setting": estimate.counts_per_setting,
        "decision": decision,
        "policy": dataclasses.asdict(policy),
        "visibility": model.visibility,
        "pairs_per_setting": pairs,
    }
    text = _stable_json(payload)
    sys.stdout.write(text)
    out_dir = _out_dir(args, config)
    atomic_write_text(out_dir / "bell_report.json", text)
    return EXIT_OK


def cmd_net(args) -> int:
    config = _load_config(args)
    require_sections(config, "topology")
    topology, horizon_fs, report_interval_fs = build_topology(config["topology"])
    report = run_network(topology, horizon_fs, config["seed"], report_interval_fs)
    payload = report.to_dict()
    payload["baseline"] = gps_baseline_comparison(report)
    out_dir = _out_dir(args, config)
    atomic_write_text(out_dir / "network_report.json", _stable_json(payload))
    for node_id in report.node_ids:
        rows = ["epoch_s,error_fs"] + [
            f"{t / FS_PER_SECOND},{err}"
            for t, err in zip(report.epochs_fs, report.errors_fs[node_id])
        ]
        atomic_write_text(out_dir / f"node_{node_id}.csv", "\n".join(rows) + "\n")
    worst = payload["summary"]["max_abs_error_fs"]
    print(f"nodes={len(report.node_ids)} epochs={len(report.epochs_fs)} max_abs_error_fs={worst}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcsync",
        description="Entangled-photon clock synchronization simulator and estimator",
    )
    parser.add_argument("--version", action="version", version=f"qcsync {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="scenario config JSON path", required=False)
        p.add_argument("--seed", type=int, help="override the config master seed")
        p.add_argument("--out", help="output directory (default: config output.dir or .)")

    p = sub.add_parser("simulate", help="run one two-node session end to end")
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="two-way estimation on recorded timetag files")
    p.add_argument(
        "tagfiles",
        nargs=4,
        metavar=("A_LOCAL", "B_FROM_A", "B_LOCAL", "A_FROM_B"),
        help="four timetag files: A local, A's pairs at B, B local, B's pairs at A",
    )
    add_common(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("relativity", help="geometry, flight time, and rate report")
    add_common(p)
    p.add_argument("--format", choices=["json", "csv"], default="json", help="csv adds relativity_samples.csv")
    p.set_defaults(func=cmd_relativity)

    p = sub.add_parser("bell", help="CHSH simulation and authentication decision")
    add_common(p)
    p.set_defaults(func=cmd_bell)

    p = sub.add_parser("net", help="hierarchical network synchronization simulation")
    add_common(p)
    p.set_defaults(func=cmd_net)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _ESTIMATION_ERRORS as exc:
        print(f"estimation failed: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except (TagFileError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # a session too large for the host; its arrays are freed by now
        detail = str(exc) or "no detail"
        print(f"simulation failed: out of memory ({detail}); shorten the session or lower its rates", file=sys.stderr)
        return EXIT_ESTIMATION


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
