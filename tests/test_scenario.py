"""Config sections map one to one onto the fields of the dataclasses they build."""

from __future__ import annotations

import copy
import dataclasses
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import qcsync
from qcsync.bellauth import AuthPolicy, ChshSettings
from qcsync.estimator import CorrelationConfig
from qcsync.linkmodel import CircularOrbit, GroundStation, LinkModel, StaticRange
from qcsync.photonics import Detector, PairSource, TimeTagger
from qcsync.fields import ConfigError
from qcsync.scenario import (
    SCENARIO_SCHEMA,
    build_bell,
    build_clock_model,
    build_correlation,
    build_detector,
    build_geometry,
    build_link,
    build_source,
    build_tagger,
    load_scenario,
    validate_scenario,
)
from qcsync.timebase import ClockModel

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

_TOP = SCENARIO_SCHEMA["properties"]
_GEOMETRY = _TOP["link"]["properties"]["geometry"]["oneOf"]
_STATIC = {"variant": "static_range", "range_m": 1.0}


def _ground_station(section):
    orbit = build_geometry({"variant": "circular_orbit", "altitude_m": 5e5, "ground_station": section})
    return orbit.ground_station


def _bell(section, part):
    return build_bell({"visibility": 1.0, "pairs_per_setting": 1, part: section})


# name: (schema, builder, section with only the required keys, what it builds,
#        every key set to a value its field does not take in the base)
_SECTIONS = {
    "clock": (
        _TOP["clocks"]["properties"]["a"],
        build_clock_model,
        {},
        ClockModel(),
        {
            "initial_offset_fs": 7,
            "fractional_frequency": 1e-9,
            "frequency_drift": 1e-12,
            "white_phase_sigma_fs": 3.0,
            "random_walk_freq_coeff": 1e-13,
        },
    ),
    "source": (
        _TOP["sources"]["properties"]["a"],
        build_source,
        {"pair_rate_hz": 1e6},
        PairSource(pair_rate=1e6),
        {"pair_rate_hz": 2e6, "pair_correlation_sigma_fs": 70, "heralding_efficiency_local": 0.5},
    ),
    "detector": (
        _TOP["detectors"]["properties"]["a"],
        build_detector,
        {},
        Detector(),
        {"efficiency": 0.5, "jitter_sigma_fs": 10, "dark_rate_hz": 100.0, "dead_time_fs": 1000},
    ),
    "tagger": (
        _TOP["tagger"],
        build_tagger,
        {},
        TimeTagger(),
        {"resolution_fs": 2, "range_limit_fs": 10**15},
    ),
    "static_range": (
        _GEOMETRY[0],
        build_geometry,
        _STATIC,
        StaticRange(range_m=1.0),
        {"variant": "static_range", "range_m": 2.0},
    ),
    "circular_orbit": (
        _GEOMETRY[1],
        build_geometry,
        {"variant": "circular_orbit", "altitude_m": 5e5},
        CircularOrbit(altitude=5e5),
        {
            "variant": "circular_orbit",
            "altitude_m": 6e5,
            "inclination_rad": 0.9,
            "raan_rad": 0.1,
            "phase0_rad": 0.2,
            "ground_station": {"lat_rad": 0.3},
            "elevation_mask_rad": 0.1,
        },
    ),
    "ground_station": (
        _GEOMETRY[1]["properties"]["ground_station"],
        _ground_station,
        {},
        GroundStation(),
        {"lat_rad": 0.3, "lon_rad": 0.4, "alt_m": 5.0},
    ),
    "link": (
        _TOP["link"],
        build_link,
        {"geometry": _STATIC},
        LinkModel(geometry=StaticRange(range_m=1.0)),
        {
            "geometry": {"variant": "static_range", "range_m": 2.0},
            "transmittance": 0.5,
            "channel_jitter_sigma_fs": 5,
            "nonreciprocity_bias_fs": 3,
            "include_shapiro": True,
        },
    ),
    "correlation": (
        _TOP["correlation"],
        build_correlation,
        {},
        CorrelationConfig(),
        {
            "search_window_fs": 10**12,
            "coarse_bin_fs": 10**5,
            "fine_bin_fs": 100,
            "refine_span_bins": 4,
            "significance_sigma": 5.0,
            "block_count": 2,
        },
    ),
    "bell_settings": (
        _TOP["bell"]["properties"]["settings"],
        lambda section: _bell(section, "settings")[1],
        {},
        ChshSettings(),
        {"a_rad": 0.1, "a_prime_rad": 0.2, "b_rad": 0.3, "b_prime_rad": 0.4},
    ),
    "bell_policy": (
        _TOP["bell"]["properties"]["policy"],
        lambda section: _bell(section, "policy")[3],
        {},
        AuthPolicy(),
        {"s_threshold": 2.5, "min_pairs_per_setting": 5, "confidence_sigma": 2.0},
    ),
}


def _changed_fields(built, base) -> list[str]:
    return [f.name for f in dataclasses.fields(built) if getattr(built, f.name) != getattr(base, f.name)]


@pytest.mark.parametrize("name", sorted(_SECTIONS))
def test_every_key_sets_exactly_one_field_and_every_field_has_a_key(name):
    schema, build, base, default, full = _SECTIONS[name]
    keys = set(schema["properties"]) - {"variant"}
    assert set(full) - {"variant"} == keys, "the table must set every key of the section"
    jsonschema.validate(full, schema)
    assert build(base) == default  # an omitted key keeps the dataclass default

    fields_by_key = {}
    for key in keys:
        changed = _changed_fields(build(base | {key: full[key]}), default)
        assert len(changed) == 1, (key, changed)
        fields_by_key[key] = changed[0]
    all_fields = {f.name for f in dataclasses.fields(default)}
    assert sorted(fields_by_key.values()) == sorted(all_fields)
    assert set(_changed_fields(build(full), default)) == all_fields


def test_scenario_schema_is_valid_against_its_metaschema():
    jsonschema.validators.validator_for(SCENARIO_SCHEMA).check_schema(SCENARIO_SCHEMA)


# Imports jsonschema, makes check_schema of the scenario schema's validator
# class record its calls, then imports qcsync.
_IMPORT_PROBE = """
import importlib, json, sys
import jsonschema
cls = getattr(importlib.import_module(sys.argv[1]), sys.argv[2])
calls = []
cls.check_schema = classmethod(lambda cls, schema, *args, **kwargs: calls.append(cls.__name__))
import qcsync.scenario
assert type(qcsync.scenario._VALIDATOR) is cls
print(json.dumps(calls))
"""


def test_import_makes_no_metaschema_check():
    # the check above costs about 0.1 s, which every qcsync process would pay
    cls = jsonschema.validators.validator_for(SCENARIO_SCHEMA)
    src = str(Path(qcsync.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-c", _IMPORT_PROBE, cls.__module__, cls.__qualname__]
    probe = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert probe.returncode == 0, probe.stderr
    assert json.loads(probe.stdout) == []


def test_package_exports_the_union_of_module_exports():
    # every library module declares __all__; the CLI and its __main__ are entry points
    names = [m.name for m in pkgutil.iter_modules(qcsync.__path__) if m.name not in ("cli", "__main__")]
    modules = [importlib.import_module(f"qcsync.{name}") for name in names]
    assert qcsync.__all__ == sorted({name for module in modules for name in module.__all__})
    for module in modules:
        for name in module.__all__:
            assert getattr(qcsync, name) is getattr(module, name)


_ORBIT = {"variant": "circular_orbit", "altitude_m": 5e5}
_BELL = {"visibility": 1.0, "pairs_per_setting": 1}

# section: (a config that holds it, the path to it in that config, what
# builds its dataclass from that config without validating it)
_HOSTS = {
    "clock": ({"clocks": {"a": {}}}, ("clocks", "a"), lambda c: build_clock_model(c["clocks"]["a"])),
    "source": ({"sources": {"a": {"pair_rate_hz": 1e6}}}, ("sources", "a"), lambda c: build_source(c["sources"]["a"])),
    "detector": ({"detectors": {"a": {}}}, ("detectors", "a"), lambda c: build_detector(c["detectors"]["a"])),
    "tagger": ({"tagger": {}}, ("tagger",), lambda c: build_tagger(c["tagger"])),
    "static_range": ({"link": {"geometry": _STATIC}}, ("link", "geometry"), lambda c: build_link(c["link"])),
    "circular_orbit": ({"link": {"geometry": _ORBIT}}, ("link", "geometry"), lambda c: build_link(c["link"])),
    "ground_station": (
        {"link": {"geometry": _ORBIT | {"ground_station": {}}}},
        ("link", "geometry", "ground_station"),
        lambda c: build_link(c["link"]),
    ),
    "link": ({"link": {"geometry": _STATIC}}, ("link",), lambda c: build_link(c["link"])),
    "correlation": ({"correlation": {}}, ("correlation",), lambda c: build_correlation(c["correlation"])),
    "bell": ({"bell": _BELL}, ("bell",), lambda c: build_bell(c["bell"])),
    "bell_settings": ({"bell": _BELL | {"settings": {}}}, ("bell", "settings"), lambda c: build_bell(c["bell"])),
    "bell_policy": ({"bell": _BELL | {"policy": {}}}, ("bell", "policy"), lambda c: build_bell(c["bell"])),
}


def _below(x):
    return math.nextafter(x, -math.inf)


def _above(x):
    return math.nextafter(x, math.inf)


_TINY = _above(0.0)
_ALTITUDE_LIMIT = 299792458.0 * 2**63 / 10**15  # m, light's path in 2^63 fs
_S_MAX = 2 * math.sqrt(2)

# (section, key, value, accepted): each bound a config key has, with one
# float step or one integer past it and, where it admits one, inside it
_BOUNDARY = [
    ("clock", "fractional_frequency", -1e-3, False),
    ("clock", "fractional_frequency", _above(-1e-3), True),
    ("clock", "fractional_frequency", _below(1e-3), True),
    ("clock", "fractional_frequency", 1e-3, False),
    ("clock", "white_phase_sigma_fs", -_TINY, False),
    ("clock", "white_phase_sigma_fs", 0.0, True),
    ("clock", "white_phase_sigma_fs", 1e15, True),
    ("clock", "white_phase_sigma_fs", _above(1e15), False),
    ("clock", "random_walk_freq_coeff", -_TINY, False),
    ("clock", "random_walk_freq_coeff", 0.0, True),
    ("clock", "random_walk_freq_coeff", 1e-3, True),
    ("clock", "random_walk_freq_coeff", _above(1e-3), False),
    ("source", "pair_rate_hz", 0.0, False),
    ("source", "pair_rate_hz", _TINY, True),
    ("source", "pair_correlation_sigma_fs", -1, False),
    ("source", "pair_correlation_sigma_fs", 0, True),
    ("source", "pair_correlation_sigma_fs", 10**6, True),
    ("source", "pair_correlation_sigma_fs", 10**6 + 1, False),
    ("source", "heralding_efficiency_local", -_TINY, False),
    ("source", "heralding_efficiency_local", 0.0, True),
    ("source", "heralding_efficiency_local", 1.0, True),
    ("source", "heralding_efficiency_local", _above(1.0), False),
    ("detector", "efficiency", -_TINY, False),
    ("detector", "efficiency", 0.0, True),
    ("detector", "efficiency", 1.0, True),
    ("detector", "efficiency", _above(1.0), False),
    ("detector", "jitter_sigma_fs", -1, False),
    ("detector", "jitter_sigma_fs", 0, True),
    ("detector", "jitter_sigma_fs", 10**15, True),
    ("detector", "jitter_sigma_fs", 10**15 + 1, False),
    ("detector", "dark_rate_hz", -_TINY, False),
    ("detector", "dark_rate_hz", 0.0, True),
    ("detector", "dead_time_fs", -1, False),
    ("detector", "dead_time_fs", 0, True),
    ("tagger", "resolution_fs", 0, False),
    ("tagger", "resolution_fs", 1, True),
    ("tagger", "resolution_fs", 2**63 - 1, True),
    ("tagger", "resolution_fs", 2**63, False),
    ("tagger", "range_limit_fs", 0, False),
    ("tagger", "range_limit_fs", 1, True),
    ("tagger", "range_limit_fs", None, True),
    ("static_range", "range_m", 0.0, False),
    ("static_range", "range_m", _TINY, True),
    ("circular_orbit", "altitude_m", 1e5, False),
    ("circular_orbit", "altitude_m", _above(1e5), True),
    ("circular_orbit", "altitude_m", _below(_ALTITUDE_LIMIT), True),
    ("circular_orbit", "altitude_m", _ALTITUDE_LIMIT, False),
    ("circular_orbit", "elevation_mask_rad", -_TINY, False),
    ("circular_orbit", "elevation_mask_rad", 0.0, True),
    ("circular_orbit", "elevation_mask_rad", _below(math.pi / 2), True),
    ("circular_orbit", "elevation_mask_rad", math.pi / 2, False),
    ("ground_station", "alt_m", -6371000.0, False),
    ("ground_station", "alt_m", _above(-6371000.0), True),
    ("ground_station", "alt_m", _below(_ALTITUDE_LIMIT), True),
    ("ground_station", "alt_m", _ALTITUDE_LIMIT, False),
    ("link", "transmittance", 0.0, False),
    ("link", "transmittance", _TINY, True),
    ("link", "transmittance", 1.0, True),
    ("link", "transmittance", _above(1.0), False),
    ("link", "channel_jitter_sigma_fs", -1, False),
    ("link", "channel_jitter_sigma_fs", 0, True),
    ("link", "channel_jitter_sigma_fs", 10**15, True),
    ("link", "channel_jitter_sigma_fs", 10**15 + 1, False),
    ("correlation", "search_window_fs", 0, False),
    ("correlation", "coarse_bin_fs", 0, False),
    ("correlation", "fine_bin_fs", 0, False),
    ("correlation", "fine_bin_fs", 1, True),
    ("correlation", "refine_span_bins", 0, False),
    ("correlation", "refine_span_bins", 1, True),
    ("correlation", "significance_sigma", 0.0, False),
    ("correlation", "significance_sigma", _TINY, True),
    ("correlation", "block_count", 0, False),
    ("correlation", "block_count", 1, True),
    ("correlation", "block_count", 10**6, True),
    ("correlation", "block_count", 10**6 + 1, False),
    ("bell", "visibility", -_TINY, False),
    ("bell", "visibility", 0.0, True),
    ("bell", "visibility", 1.0, True),
    ("bell", "visibility", _above(1.0), False),
    ("bell_policy", "s_threshold", _below(2.0), False),
    ("bell_policy", "s_threshold", 2.0, True),
    ("bell_policy", "s_threshold", _S_MAX, True),
    ("bell_policy", "s_threshold", _above(_S_MAX), False),
    ("bell_policy", "min_pairs_per_setting", 0, False),
    ("bell_policy", "min_pairs_per_setting", 1, True),
    ("bell_policy", "confidence_sigma", 0.0, False),
    ("bell_policy", "confidence_sigma", _TINY, True),
]


def _config_with(section: str, key: str, value) -> tuple[dict, object]:
    """A config whose section sets key to value, and what builds that section's dataclass."""
    host, path, build = _HOSTS[section]
    config = {"seed": 1, **copy.deepcopy(host)}
    parent = config
    for name in path:
        parent = parent[name]
    parent[key] = value
    return config, build


def _accepts(call) -> bool:
    try:
        call()
    except ValueError:
        return False
    return True


@pytest.mark.parametrize(
    "section, key, value, accepted", _BOUNDARY, ids=[f"{s}.{k}={v!r}" for s, k, v, _ in _BOUNDARY]
)
def test_schema_and_dataclass_agree_at_each_bound(section, key, value, accepted):
    config, build = _config_with(section, key, value)
    assert _accepts(lambda: validate_scenario(config)) == accepted
    assert _accepts(lambda: build(config)) == accepted


# every float key; the schema cannot say finite, so the dataclass check does
_FLOAT_KEYS = [
    ("clock", "fractional_frequency"),
    ("clock", "frequency_drift"),
    ("clock", "white_phase_sigma_fs"),
    ("clock", "random_walk_freq_coeff"),
    ("source", "pair_rate_hz"),
    ("source", "heralding_efficiency_local"),
    ("detector", "efficiency"),
    ("detector", "dark_rate_hz"),
    ("static_range", "range_m"),
    ("circular_orbit", "altitude_m"),
    ("circular_orbit", "inclination_rad"),
    ("circular_orbit", "raan_rad"),
    ("circular_orbit", "phase0_rad"),
    ("circular_orbit", "elevation_mask_rad"),
    ("ground_station", "lat_rad"),
    ("ground_station", "lon_rad"),
    ("ground_station", "alt_m"),
    ("link", "transmittance"),
    ("correlation", "significance_sigma"),
    ("bell", "visibility"),
    ("bell_settings", "a_rad"),
    ("bell_settings", "a_prime_rad"),
    ("bell_settings", "b_rad"),
    ("bell_settings", "b_prime_rad"),
    ("bell_policy", "s_threshold"),
    ("bell_policy", "confidence_sigma"),
]


@pytest.mark.parametrize("section, key", _FLOAT_KEYS, ids=[f"{s}.{k}" for s, k in _FLOAT_KEYS])
def test_dataclasses_reject_non_finite_floats_naming_the_key(section, key):
    for value in (math.nan, math.inf, -math.inf, 10**400):
        config, build = _config_with(section, key, value)
        with pytest.raises(ConfigError, match=f"^{key} must be in "):
            build(config)


def test_float_keys_cover_every_number_property():
    assert {key for section, key in _FLOAT_KEYS} == {
        key
        for schema, *_ in _SECTIONS.values()
        for key, prop in schema["properties"].items()
        if prop.get("type") == "number"
    } | {"visibility"}


_NON_FINITE_CONFIGS = [
    ({"correlation": {"significance_sigma": math.nan}}, "significance_sigma must be in (0, inf), got nan"),
    ({"duration_s": math.inf}, "duration_s must be in (0, inf), got inf"),
    ({"link": {"geometry": _STATIC, "transmittance": math.nan}}, "transmittance must be in (0, 1], got nan"),
    (
        {"link": {"geometry": _ORBIT | {"inclination_rad": -math.inf}}},
        "inclination_rad must be in (-inf, inf), got -inf",
    ),
    ({"clocks": {"a": {"frequency_drift": math.inf}}}, "frequency_drift must be in (-inf, inf), got inf"),
    # an integer past the float range overflowed seconds * 10^15 in a traceback
    ({"duration_s": 10**400}, f"duration_s must be in (0, inf), got {10**400}"),
    # below a schema bound: the schema's message, with the path
    ({"duration_s": -math.inf}, "config invalid at $['duration_s']: -inf is less than or equal to the minimum of 0"),
]


@pytest.mark.parametrize(
    "section, message", _NON_FINITE_CONFIGS, ids=[message.split(" ")[0] for _, message in _NON_FINITE_CONFIGS]
)
def test_validation_rejects_non_finite_numbers_naming_the_key(section, message):
    # NaN passes every schema bound and an infinity every bound on its other
    # side, so these passed validation and only a builder rejected them
    with pytest.raises(ConfigError) as raised:
        validate_scenario({"seed": 1, **section})
    assert str(raised.value) == message


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.name)
def test_shipped_scenarios_validate(path):
    assert load_scenario(path)["seed"] is not None
