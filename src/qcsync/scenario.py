"""Scenario configuration: strict JSON schema plus typed-object builders.

Configs are validated before any simulation runs: unknown keys are
rejected everywhere and a master seed is mandatory, because reproducibility
is part of the toolkit's contract. Builders translate validated sections
into the dataclasses of the physical modules.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import jsonschema

from .bellauth import AuthPolicy, ChshSettings, EntanglementModel
from .estimator import CorrelationConfig
from .linkmodel import CircularOrbit, GroundStation, LinkModel, StaticRange
from .netsync import Node, SyncEdge, Topology
from .photonics import Detector, PairSource, TimeTagger
from .session import NodeInstruments
from .timebase import FS_PER_SECOND, INT64_LIMIT, ClockModel

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
        "white_phase_sigma_fs": {"type": "number", "minimum": 0},
        "random_walk_freq_coeff": {"type": "number", "minimum": 0},
    },
}

_SOURCE = {
    "type": "object",
    "additionalProperties": False,
    "required": ["pair_rate_hz"],
    "properties": {
        "pair_rate_hz": {"type": "number", "exclusiveMinimum": 0},
        "pair_correlation_sigma_fs": {"type": "integer", "minimum": 0, "maximum": 10**6},
        "heralding_efficiency_local": {"type": "number", "minimum": 0, "maximum": 1},
    },
}

_DETECTOR = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "efficiency": {"type": "number", "minimum": 0, "maximum": 1},
        "jitter_sigma_fs": {"type": "integer", "minimum": 0},
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
        "channel_jitter_sigma_fs": {"type": "integer", "minimum": 0},
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
        "pairs_per_setting": {"type": "integer", "minimum": 1},
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
                "samples": {"type": "integer", "minimum": 2},
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"dir": {"type": "string"}},
        },
    },
}


# What jsonschema.validate does per call, with the schema check and the
# validator built once.
_VALIDATOR_CLASS = jsonschema.validators.validator_for(SCENARIO_SCHEMA)
_VALIDATOR_CLASS.check_schema(SCENARIO_SCHEMA)
_VALIDATOR = _VALIDATOR_CLASS(SCENARIO_SCHEMA)


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


def _fs(seconds: float) -> int:
    return round(seconds * FS_PER_SECOND)


def build_clock_model(section: dict | None) -> ClockModel:
    section = section or {}
    return ClockModel(
        initial_offset_fs=section.get("initial_offset_fs", 0),
        fractional_frequency=section.get("fractional_frequency", 0.0),
        frequency_drift=section.get("frequency_drift", 0.0),
        white_phase_sigma_fs=section.get("white_phase_sigma_fs", 0.0),
        random_walk_freq_coeff=section.get("random_walk_freq_coeff", 0.0),
    )


def build_source(section: dict) -> PairSource:
    return PairSource(
        pair_rate=section["pair_rate_hz"],
        pair_correlation_sigma=section.get("pair_correlation_sigma_fs", 50),
        heralding_efficiency_local=section.get("heralding_efficiency_local", 1.0),
    )


def build_detector(section: dict | None) -> Detector:
    section = section or {}
    return Detector(
        efficiency=section.get("efficiency", 1.0),
        jitter_sigma=section.get("jitter_sigma_fs", 0),
        dark_rate=section.get("dark_rate_hz", 0.0),
        dead_time=section.get("dead_time_fs", 0),
    )


def build_tagger(section: dict | None) -> TimeTagger:
    section = section or {}
    return TimeTagger(
        resolution=section.get("resolution_fs", 1000),
        range_limit=section.get("range_limit_fs"),
    )


def build_geometry(section: dict):
    if section["variant"] == "static_range":
        return StaticRange(range_m=section["range_m"])
    gs = section.get("ground_station") or {}
    kwargs = {
        "altitude": section["altitude_m"],
        "inclination": section.get("inclination_rad", 0.0),
        "raan": section.get("raan_rad", 0.0),
        "phase0": section.get("phase0_rad", 0.0),
        "ground_station": GroundStation(
            lat=gs.get("lat_rad", 0.0), lon=gs.get("lon_rad", 0.0), alt=gs.get("alt_m", 0.0)
        ),
    }
    if "elevation_mask_rad" in section:
        kwargs["elevation_mask"] = section["elevation_mask_rad"]
    return CircularOrbit(**kwargs)


def build_link(section: dict) -> LinkModel:
    return LinkModel(
        geometry=build_geometry(section["geometry"]),
        transmittance=section.get("transmittance", 1.0),
        channel_jitter_sigma=section.get("channel_jitter_sigma_fs", 0),
        nonreciprocity_bias=section.get("nonreciprocity_bias_fs", 0),
        include_shapiro=section.get("include_shapiro", False),
    )


def build_correlation(section: dict | None) -> CorrelationConfig:
    section = section or {}
    return CorrelationConfig(
        search_window=section.get("search_window_fs", 10**13),
        coarse_bin=section.get("coarse_bin_fs", 10**6),
        fine_bin=section.get("fine_bin_fs", 1000),
        refine_span_bins=section.get("refine_span_bins", 3),
        significance_sigma=section.get("significance_sigma", 6.0),
        block_count=section.get("block_count", 1),
    )


def build_bell(section: dict):
    settings_cfg = section.get("settings") or {}
    settings = ChshSettings(
        a=settings_cfg.get("a_rad", 0.0),
        a_prime=settings_cfg.get("a_prime_rad", math.pi / 4),
        b=settings_cfg.get("b_rad", math.pi / 8),
        b_prime=settings_cfg.get("b_prime_rad", 3 * math.pi / 8),
    )
    policy_cfg = section.get("policy") or {}
    policy = AuthPolicy(
        s_threshold=policy_cfg.get("s_threshold", 2.0),
        min_pairs_per_setting=policy_cfg.get("min_pairs_per_setting", 20),
        confidence_sigma=policy_cfg.get("confidence_sigma", 3.0),
    )
    model = EntanglementModel(visibility=section["visibility"])
    return model, settings, section["pairs_per_setting"], policy


def _build_instruments(session: dict, side: str) -> NodeInstruments:
    return NodeInstruments(
        source=build_source(session[f"source_{side}"]),
        detector=build_detector(session.get(f"detector_{side}")),
        tagger=build_tagger(session.get("tagger")),
    )


def build_topology(section: dict) -> tuple[Topology, int, int | None]:
    """Build (topology, horizon_fs, report_interval_fs) from the config section."""
    nodes = tuple(
        Node(
            id=n["id"],
            clock_model=build_clock_model(n.get("clock")),
            role=n.get("role", "ground"),
        )
        for n in section["nodes"]
    )
    edges = tuple(
        SyncEdge(
            upstream=e["upstream"],
            downstream=e["downstream"],
            link=build_link(e["link"]),
            correlation=build_correlation(e.get("correlation")),
            interval_s=e["interval_s"],
            duration_fs=_fs(e["session"]["duration_s"]),
            instruments_up=_build_instruments(e["session"], "up"),
            instruments_down=_build_instruments(e["session"], "down"),
            track_frequency=e.get("track_frequency", False),
        )
        for e in section["edges"]
    )
    topology = Topology(
        nodes=nodes,
        edges=edges,
        failover_rules=dict(section.get("failover") or {}),
        failures=tuple((f["node"], _fs(f["at_s"])) for f in section.get("failures") or ()),
    )
    horizon_fs = _fs(section["horizon_s"])
    interval = section.get("report_interval_s")
    return topology, horizon_fs, _fs(interval) if interval is not None else None
