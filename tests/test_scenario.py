"""Config sections map one to one onto the fields of the dataclasses they build."""

from __future__ import annotations

import dataclasses

import jsonschema
import pytest

from qcsync.bellauth import AuthPolicy, ChshSettings
from qcsync.estimator import CorrelationConfig
from qcsync.linkmodel import CircularOrbit, GroundStation, LinkModel, StaticRange
from qcsync.photonics import Detector, PairSource, TimeTagger
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
)
from qcsync.timebase import ClockModel

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
