"""Scenario configuration: strict JSON schema plus typed-object builders.

Configs are validated before any simulation runs: unknown keys are
rejected everywhere and a master seed is mandatory, because reproducibility
is part of the toolkit's contract. Builders translate validated sections
into the dataclasses of the physical modules.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import jsonschema

from .bellauth import AuthPolicy, ChshSettings, EntanglementModel
from .estimator import CorrelationConfig
from .linkmodel import CircularOrbit, GroundStation, LinkModel, StaticRange
from .netsync import Node, SyncEdge, Topology
from .photonics import PAIR_CORRELATION_SIGMA_LIMIT, Detector, PairSource, TimeTagger
from .session import NodeInstruments, SessionSpec
from .timebase import FS_PER_SECOND, INT64_LIMIT, RANDOM_WALK_COEFF_LIMIT, ClockModel

__all__ = ["ConfigError", "load_scenario", "validate_scenario", "SCENARIO_SCHEMA"]


class ConfigError(ValueError):
    """Scenario config rejected; message names the failing schema path."""


_CLOCK = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "initial_offset_fs": {"type": "integer"},
        "fractional_frequency": {"type": "number"},
        "frequency_drift": {"type": "number"},
        "white_phase_sigma_fs": {"type": "number", "minimum": 0, "maximum": FS_PER_SECOND},
        "random_walk_freq_coeff": {"type": "number", "minimum": 0, "maximum": RANDOM_WALK_COEFF_LIMIT},
    },
}

_SOURCE = {
    "type": "object",
    "additionalProperties": False,
    "required": ["pair_rate_hz"],
    "properties": {
        "pair_rate_hz": {"type": "number", "exclusiveMinimum": 0},
        "pair_correlation_sigma_fs": {"type": "integer", "minimum": 0, "maximum": PAIR_CORRELATION_SIGMA_LIMIT},
        "heralding_efficiency_local": {"type": "number", "minimum": 0, "maximum": 1},
    },
}

_DETECTOR = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "efficiency": {"type": "number", "minimum": 0, "maximum": 1},
        "jitter_sigma_fs": {"type": "integer", "minimum": 0, "maximum": FS_PER_SECOND},
        "dark_rate_hz": {"type": "number", "minimum": 0},
        "dead_time_fs": {"type": "integer", "minimum": 0},
    },
}

_TAGGER = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "resolution_fs": {"type": "integer", "minimum": 1, "maximum": INT64_LIMIT - 1},
        "range_limit_fs": {"type": ["integer", "null"], "exclusiveMinimum": 0},
    },
}

_GROUND_STATION = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "lat_rad": {"type": "number"},
        "lon_rad": {"type": "number"},
        "alt_m": {"type": "number"},
    },
}

_GEOMETRY = {
    "oneOf": [
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["variant", "range_m"],
            "properties": {
                "variant": {"const": "static_range"},
                "range_m": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["variant", "altitude_m"],
            "properties": {
                "variant": {"const": "circular_orbit"},
                "altitude_m": {"type": "number", "exclusiveMinimum": 100000},
                "inclination_rad": {"type": "number"},
                "raan_rad": {"type": "number"},
                "phase0_rad": {"type": "number"},
                "ground_station": _GROUND_STATION,
                "elevation_mask_rad": {"type": "number", "minimum": 0},
            },
        },
    ]
}

_LINK = {
    "type": "object",
    "additionalProperties": False,
    "required": ["geometry"],
    "properties": {
        "geometry": _GEOMETRY,
        "transmittance": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "channel_jitter_sigma_fs": {"type": "integer", "minimum": 0, "maximum": FS_PER_SECOND},
        "nonreciprocity_bias_fs": {"type": "integer"},
        "include_shapiro": {"type": "boolean"},
    },
}

_CORRELATION = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "search_window_fs": {"type": "integer", "minimum": 1},
        "coarse_bin_fs": {"type": "integer", "minimum": 1},
        "fine_bin_fs": {"type": "integer", "minimum": 1},
        "refine_span_bins": {"type": "integer", "minimum": 1},
        "significance_sigma": {"type": "number", "exclusiveMinimum": 0},
        "block_count": {"type": "integer", "minimum": 1},
    },
}

_BELL = {
    "type": "object",
    "additionalProperties": False,
    "required": ["visibility", "pairs_per_setting"],
    "properties": {
        "visibility": {"type": "number", "minimum": 0, "maximum": 1},
        "pairs_per_setting": {"type": "integer", "minimum": 1, "maximum": INT64_LIMIT - 1},
        "settings": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "a_rad": {"type": "number"},
                "a_prime_rad": {"type": "number"},
                "b_rad": {"type": "number"},
                "b_prime_rad": {"type": "number"},
            },
        },
        "policy": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "s_threshold": {"type": "number"},
                "min_pairs_per_setting": {"type": "integer", "minimum": 1},
                "confidence_sigma": {"type": "number", "exclusiveMinimum": 0},
            },
        },
    },
}

_EDGE_SESSION = {
    "type": "object",
    "additionalProperties": False,
    "required": ["duration_s", "source_up", "source_down"],
    "properties": {
        "duration_s": {"type": "number", "exclusiveMinimum": 0},
        "source_up": _SOURCE,
        "source_down": _SOURCE,
        "detector_up": _DETECTOR,
        "detector_down": _DETECTOR,
        "tagger": _TAGGER,
    },
}

_TOPOLOGY = {
    "type": "object",
    "additionalProperties": False,
    "required": ["horizon_s", "nodes", "edges"],
    "properties": {
        "horizon_s": {"type": "number", "exclusiveMinimum": 0},
        "report_interval_s": {"type": "number", "exclusiveMinimum": 0},
        "nodes": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["id"],
                "properties": {
                    "id": {"type": "string", "minLength": 1},
                    "role": {"enum": ["reference", "satellite", "ground"]},
                    "clock": _CLOCK,
                },
            },
        },
        "edges": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["upstream", "downstream", "link", "interval_s", "session"],
                "properties": {
                    "upstream": {"type": "string"},
                    "downstream": {"type": "string"},
                    "link": _LINK,
                    "correlation": _CORRELATION,
                    "interval_s": {"type": "number", "exclusiveMinimum": 0},
                    "session": _EDGE_SESSION,
                    "track_frequency": {"type": "boolean"},
                },
            },
        },
        "failover": {
            "type": "object",
            "additionalProperties": {"type": "array", "items": {"type": "string"}},
        },
        "failures": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["node", "at_s"],
                "properties": {
                    "node": {"type": "string"},
                    "at_s": {"type": "number", "minimum": 0},
                },
            },
        },
    },
}

SCENARIO_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["seed"],
    "properties": {
        "seed": {"type": "integer"},
        "description": {"type": "string"},
        "duration_s": {"type": "number", "exclusiveMinimum": 0},
        "clocks": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"a": _CLOCK, "b": _CLOCK},
        },
        "sources": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"a": _SOURCE, "b": _SOURCE},
        },
        "detectors": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"a": _DETECTOR, "b": _DETECTOR},
        },
        "tagger": _TAGGER,
        "link": _LINK,
        "correlation": _CORRELATION,
        "bell": _BELL,
        "topology": _TOPOLOGY,
        "relativity": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "horizon_s": {"type": "number", "exclusiveMinimum": 0},
                "samples": {"type": "integer", "minimum": 2, "maximum": 100000},
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"dir": {"type": "string"}},
        },
    },
}


# What jsonschema.validate does per call, with the validator built once and
# without the check of SCENARIO_SCHEMA against its metaschema: the schema is a
# constant, so tests/test_scenario.py checks it, and no process pays the
# check's 0.1 s at import.
_VALIDATOR = jsonschema.validators.validator_for(SCENARIO_SCHEMA)(SCENARIO_SCHEMA)


def _integers_as_int(value, schema: dict):
    """value with each integral float that schema types as an integer made a Python int.

    JSON Schema counts 1000.0 as an integer, but the builders need int
    arithmetic: a float tagger resolution, say, would be written to tag-file
    headers as "1000.0", which the reader rejects.
    """
    types = schema.get("type", ())
    integer = "integer" in ([types] if isinstance(types, str) else types)
    if integer and isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, dict):
        properties = dict(schema.get("properties", {}))
        for variant in schema.get("oneOf", ()):
            properties.update(variant.get("properties", {}))
        return {key: _integers_as_int(item, properties.get(key, {})) for key, item in value.items()}
    if isinstance(value, list):
        return [_integers_as_int(item, schema.get("items", {})) for item in value]
    return value


def validate_scenario(config: dict) -> dict:
    """The config, validated, with its integer-typed values as Python ints."""
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(config))
    if error is not None:
        path = "$" + "".join(
            f"[{p!r}]" if isinstance(p, str) else f"[{p}]" for p in error.absolute_path
        )
        raise ConfigError(f"config invalid at {path}: {error.message}") from error
    return _integers_as_int(config, SCENARIO_SCHEMA)


def load_scenario(path: str | Path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    return validate_scenario(config)


def _fs(seconds: float, key: str) -> int:
    """A config value in seconds as whole femtoseconds; ConfigError naming key past the float range."""
    fs = seconds * FS_PER_SECOND
    if not math.isfinite(fs):
        raise ConfigError(f"{key} = {seconds} s is outside the float range in femtoseconds")
    return round(fs)


_UNIT_SUFFIXES = ("_fs", "_hz", "_m", "_rad")


def _field(key: str, fields: set[str]) -> str:
    """The field a config key sets: its own name, else its name without the unit suffix."""
    stems = [key.removesuffix(suffix) for suffix in _UNIT_SUFFIXES if key.endswith(suffix)]
    return next((name for name in (key, *stems) if name in fields), key)


def _build(cls, section: dict | None, **nested):
    """cls from a config section, each key setting the field _field names.

    An omitted key keeps the field's default. nested gives the built value of
    each field whose key holds a subsection, or that no key of the section sets.
    """
    fields = {f.name for f in dataclasses.fields(cls)}
    return cls(**({_field(key, fields): value for key, value in (section or {}).items()} | nested))


def _without(section: dict, key: str) -> dict:
    return {k: v for k, v in section.items() if k != key}


def require_sections(config: dict, *keys: str) -> None:
    missing = [k for k in keys if k not in config]
    if missing:
        raise ConfigError(f"config is missing required section(s) for this command: {missing}")


def build_clock_model(section: dict | None) -> ClockModel:
    return _build(ClockModel, section)


def build_source(section: dict) -> PairSource:
    return _build(PairSource, section)


def build_detector(section: dict | None) -> Detector:
    return _build(Detector, section)


def build_tagger(section: dict | None) -> TimeTagger:
    return _build(TimeTagger, section)


def build_geometry(section: dict):
    if section["variant"] == "static_range":
        return _build(StaticRange, _without(section, "variant"))
    ground_station = _build(GroundStation, section.get("ground_station"))
    return _build(CircularOrbit, _without(section, "variant"), ground_station=ground_station)


def build_link(section: dict) -> LinkModel:
    return _build(LinkModel, section, geometry=build_geometry(section["geometry"]))


def build_correlation(section: dict | None) -> CorrelationConfig:
    return _build(CorrelationConfig, section)


def build_bell(section: dict):
    settings = _build(ChshSettings, section.get("settings"))
    policy = _build(AuthPolicy, section.get("policy"))
    model = EntanglementModel(visibility=section["visibility"])
    return model, settings, section["pairs_per_setting"], policy


def _build_instruments(source: dict, detector: dict | None, tagger: dict | None) -> NodeInstruments:
    return NodeInstruments(build_source(source), build_detector(detector), build_tagger(tagger))


def build_session(config: dict) -> tuple[SessionSpec, ClockModel, ClockModel]:
    """The two-node session of a simulate config: its spec and the clock models of A and B."""
    require_sections(config, "duration_s", "clocks", "sources", "link")
    clocks, sources, detectors = config["clocks"], config["sources"], config.get("detectors") or {}
    for side in ("a", "b"):
        if side not in clocks or side not in sources:
            raise ConfigError(f"simulate needs clocks.{side} and sources.{side}")
    spec = SessionSpec(
        duration=_fs(config["duration_s"], "duration_s"),
        instruments_a=_build_instruments(sources["a"], detectors.get("a"), config.get("tagger")),
        instruments_b=_build_instruments(sources["b"], detectors.get("b"), config.get("tagger")),
        link=build_link(config["link"]),
    )
    return spec, build_clock_model(clocks["a"]), build_clock_model(clocks["b"])


def _build_edge(section: dict) -> SyncEdge:
    session = section["session"]
    instruments = {
        side: _build_instruments(
            session[f"source_{side}"], session.get(f"detector_{side}"), session.get("tagger")
        )
        for side in ("up", "down")
    }
    return _build(
        SyncEdge,
        _without(section, "session"),
        link=build_link(section["link"]),
        correlation=build_correlation(section.get("correlation")),
        duration_fs=_fs(session["duration_s"], "topology.edges[].session.duration_s"),
        instruments_up=instruments["up"],
        instruments_down=instruments["down"],
    )


def build_topology(section: dict) -> tuple[Topology, int, int | None]:
    """Build (topology, horizon_fs, report_interval_fs) from the config section."""
    nodes = tuple(
        _build(Node, _without(n, "clock"), clock_model=build_clock_model(n.get("clock")))
        for n in section["nodes"]
    )
    edges = tuple(_build_edge(e) for e in section["edges"])
    topology = Topology(
        nodes=nodes,
        edges=edges,
        failover_rules=dict(section.get("failover") or {}),
        failures=tuple(
            (f["node"], _fs(f["at_s"], "topology.failures[].at_s")) for f in section.get("failures") or ()
        ),
    )
    horizon_fs = _fs(section["horizon_s"], "topology.horizon_s")
    interval = section.get("report_interval_s")
    return topology, horizon_fs, _fs(interval, "topology.report_interval_s") if interval is not None else None
