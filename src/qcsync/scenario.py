"""Scenario configuration: strict JSON schema plus typed-object builders.

Configs are validated before any simulation runs: unknown keys are
rejected everywhere and a master seed is mandatory, because reproducibility
is part of the toolkit's contract. Builders translate validated sections
into the dataclasses of the physical modules, and the schema's leaf sections
are built from those dataclasses' field declarations (qcsync.fields): each
key's type, bounds and unit suffix are written once, on the field.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import jsonschema

from .bellauth import AuthPolicy, ChshSettings, EntanglementModel
from .estimator import CorrelationConfig
from .fields import ConfigError, bounds_error, config_key, finite
from .linkmodel import CircularOrbit, GroundStation, LinkModel, StaticRange
from .netsync import Node, SyncEdge, Topology
from .photonics import Detector, PairSource, TimeTagger
from .session import NodeInstruments, SessionSpec
from .timebase import FS_PER_SECOND, INT64_LIMIT, ClockModel

__all__ = ["load_scenario", "validate_scenario", "SCENARIO_SCHEMA"]


_JSON_TYPES = {"int": "integer", "float": "number", "bool": "boolean", "int | None": ["integer", "null"]}
_JSON_BOUNDS = {"ge": "minimum", "gt": "exclusiveMinimum", "le": "maximum", "lt": "exclusiveMaximum"}


def _property(field: dataclasses.Field) -> dict:
    bounds = {_JSON_BOUNDS[op]: bound for op, bound in field.metadata.get("bounds", {}).items()}
    return {"type": _JSON_TYPES[field.type], **bounds}


def _section(cls, **nested) -> dict:
    """The schema of the config section that builds cls, from its fields.

    Each field is a property keyed by config_key, typed by its annotation and
    bounded as declared; a field with no default is required. nested gives
    the schema of each field whose key holds a subsection.
    """
    fields = dataclasses.fields(cls)
    required = [config_key(f) for f in fields if f.default is dataclasses.MISSING]
    return {
        "type": "object",
        "additionalProperties": False,
        **({"required": required} if required else {}),
        "properties": {config_key(f): nested[f.name] if f.name in nested else _property(f) for f in fields},
    }


def _variant(name: str, cls, **nested) -> dict:
    """The section of cls, tagged by a required "variant": name."""
    section = _section(cls, **nested)
    return section | {
        "required": ["variant", *section["required"]],
        "properties": {"variant": {"const": name}, **section["properties"]},
    }


_CLOCK = _section(ClockModel)
_SOURCE = _section(PairSource)
_DETECTOR = _section(Detector)
_TAGGER = _section(TimeTagger)
_GEOMETRY = {
    "oneOf": [
        _variant("static_range", StaticRange),
        _variant("circular_orbit", CircularOrbit, ground_station=_section(GroundStation)),
    ]
}
_LINK = _section(LinkModel, geometry=_GEOMETRY)
_CORRELATION = _section(CorrelationConfig)

_BELL = {
    "type": "object",
    "additionalProperties": False,
    "required": ["visibility", "pairs_per_setting"],
    "properties": {
        **_section(EntanglementModel)["properties"],
        "pairs_per_setting": {"type": "integer", "minimum": 1, "maximum": INT64_LIMIT - 1},
        "settings": _section(ChshSettings),
        "policy": _section(AuthPolicy),
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


def _checked_numbers(value, schema: dict, key: str):
    """value, found at key, with each integral float that schema types as an integer made a Python int.

    JSON Schema counts 1000.0 as an integer, but the builders need int
    arithmetic: a float tagger resolution, say, would be written to tag-file
    headers as "1000.0", which the reader rejects. A number that is not a
    finite float raises ConfigError naming its key: JSON parsing takes NaN,
    Infinity and integers past the float range, and NaN passes every bound.
    """
    types = schema.get("type", ())
    types = [types] if isinstance(types, str) else types
    if "number" in types and not finite(value):
        raise bounds_error(key, {op: schema[word] for op, word in _JSON_BOUNDS.items() if word in schema}, value)
    if "integer" in types and isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, dict):
        properties = dict(schema.get("properties", {}))
        for variant in schema.get("oneOf", ()):
            properties.update(variant.get("properties", {}))
        return {name: _checked_numbers(item, properties.get(name, {}), name) for name, item in value.items()}
    if isinstance(value, list):
        return [_checked_numbers(item, schema.get("items", {}), key) for item in value]
    return value


def validate_scenario(config: dict) -> dict:
    """The config, validated, with its integer-typed values as Python ints; ConfigError if it fails."""
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(config))
    if error is not None:
        path = "$" + "".join(
            f"[{p!r}]" if isinstance(p, str) else f"[{p}]" for p in error.absolute_path
        )
        raise ConfigError(f"config invalid at {path}: {error.message}") from error
    return _checked_numbers(config, SCENARIO_SCHEMA, "$")


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


def _span_fs(seconds: float, key: str) -> int:
    """A session duration, sync or report interval in whole femtoseconds; ConfigError naming key below 1 fs."""
    fs = _fs(seconds, key)
    if fs < 1:
        raise ConfigError(f"{key} must be at least 1 fs, got {seconds} s")
    return fs


def _build(cls, section: dict | None, **nested):
    """cls from a config section, each key setting the field whose config_key it is.

    An omitted key keeps the field's default. nested gives the built value of
    each field whose key holds a subsection, or that no key of the section sets.
    """
    fields = {config_key(f): f.name for f in dataclasses.fields(cls)}
    return cls(**({fields[key]: value for key, value in (section or {}).items()} | nested))


def _without(section: dict, *keys: str) -> dict:
    return {k: v for k, v in section.items() if k not in keys}


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


def _session(section: dict, link: dict, sides: list, prefix: str = "") -> SessionSpec:
    """section's session from 0 fs, sides holding A's then B's (source, detector); prefix leads its keys."""
    tagger = build_tagger(section.get("tagger"))
    a, b = (NodeInstruments(build_source(source), build_detector(detector), tagger) for source, detector in sides)
    duration = _span_fs(section["duration_s"], prefix + "duration_s")
    return SessionSpec(duration=duration, instruments_a=a, instruments_b=b, link=build_link(link))


def build_session(config: dict) -> tuple[SessionSpec, ClockModel, ClockModel]:
    """The two-node session of a simulate config: its spec and the clock models of A and B."""
    require_sections(config, "duration_s", "clocks", "sources", "link")
    clocks, sources, detectors = config["clocks"], config["sources"], config.get("detectors") or {}
    for side in ("a", "b"):
        if side not in clocks or side not in sources:
            raise ConfigError(f"simulate needs clocks.{side} and sources.{side}")
    spec = _session(config, config["link"], [(sources[side], detectors.get(side)) for side in ("a", "b")])
    return spec, build_clock_model(clocks["a"]), build_clock_model(clocks["b"])


def _build_edge(section: dict) -> SyncEdge:
    session = section["session"]
    sides = [(session[f"source_{side}"], session.get(f"detector_{side}")) for side in ("up", "down")]
    return _build(
        SyncEdge,
        _without(section, "link", "session", "interval_s"),
        session=_session(session, section["link"], sides, "topology.edges[].session."),
        correlation=build_correlation(section.get("correlation")),
        interval_fs=_span_fs(section["interval_s"], "topology.edges[].interval_s"),
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
    return topology, horizon_fs, _span_fs(interval, "topology.report_interval_s") if interval is not None else None
