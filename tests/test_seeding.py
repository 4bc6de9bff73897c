"""Deterministic RNG derivation, and the one generator per source arm a session draws from."""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from qcsync import seeding, session, timebase
from qcsync.linkmodel import LinkModel, StaticRange
from qcsync.photonics import Detector, PairSource, TimeTagger
from qcsync.scenario import build_session, build_topology, load_scenario
from qcsync.seeding import derive_rng, spawn_rng, stable_token
from qcsync.session import NodeInstruments, SessionSpec
from qcsync.timebase import ClockModel, ClockState

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

PATHS = [
    (0,),
    (1, 0),
    (2**32 - 1, 2**32),
    (2**64 - 1, 2**64, 2**70 + 5),
    (-1, -(2**32), 7),
    (101, "node", 3, "edge"),
    (5, "", "clöck-α", "時計", 0),
]


@pytest.mark.parametrize("path", PATHS)
def test_derive_rng_matches_seed_sequence_of_stable_tokens(path):
    # twice: the second call reads each element's words from the cache
    for _ in range(2):
        want = np.random.default_rng(np.random.SeedSequence([stable_token(p) for p in path]))
        got = derive_rng(*path)
        assert np.array_equal(got.integers(0, 2**63, 16), want.integers(0, 2**63, 16))


def test_spawn_rng_is_derive_rng_of_the_path():
    assert np.array_equal(spawn_rng((3, "a"), 4).random(8), derive_rng(3, "a", 4).random(8))
    assert np.array_equal(spawn_rng(9).random(8), derive_rng(9).random(8))


def test_bool_path_element_rejected():
    derive_rng(1, 1)  # 1 is cached; True must not share its entry
    for _ in range(2):
        with pytest.raises(TypeError):
            derive_rng(1, True)
        with pytest.raises(TypeError):
            derive_rng(False)


def _paper_spec(duration_s):
    """paper_100pairs.json over duration_s with offset-only clocks, as acquire_wide runs it."""
    config = load_scenario(SCENARIOS / "paper_100pairs.json")
    clocks = {"a": {}, "b": {"initial_offset_fs": 3 * 10**11}}
    return build_session({**config, "duration_s": duration_s, "clocks": clocks})


def _ground_edge_spec():
    """A net_montecarlo ground edge, 10 us at 1e7 pairs/s; its downstream clock has a random walk."""
    section = {
        "horizon_s": 0.03,
        "nodes": [
            {"id": "ref", "role": "reference", "clock": {}},
            {"id": "g1", "clock": {"initial_offset_fs": 10**9, "random_walk_freq_coeff": 1e-12}},
        ],
        "edges": [
            {
                "upstream": "ref",
                "downstream": "g1",
                "interval_s": 0.01,
                "link": {"geometry": {"variant": "static_range", "range_m": 2000.0}},
                "session": {
                    "duration_s": 1e-5,
                    "source_up": {"pair_rate_hz": 1e7},
                    "source_down": {"pair_rate_hz": 1e7},
                    "detector_up": {"jitter_sigma_fs": 20000},
                    "detector_down": {"jitter_sigma_fs": 20000},
                    "tagger": {"resolution_fs": 1000},
                },
                "correlation": {"search_window_fs": 10**11, "coarse_bin_fs": 10**6, "fine_bin_fs": 2 * 10**5},
            }
        ],
    }
    topology = build_topology(section)[0]
    spec = dataclasses.replace(topology.edges[0].session, start_time=10**13)
    return spec, topology.nodes[0].clock_model, topology.nodes[1].clock_model


@pytest.mark.parametrize(
    "make_spec,random_walks", [(lambda: _paper_spec(2e-3), 0), (_ground_edge_spec, 1)], ids=["paper", "ground_edge"]
)
def test_a_session_derives_one_generator_per_arm(monkeypatch, make_spec, random_walks):
    # every generator comes from derive_rng: the two arms' and one per
    # random-walk clock, made when the clock is built
    spec, model_a, model_b = make_spec()
    derived, spawned, made = [], [], []
    derive, spawn, default_rng = seeding.derive_rng, seeding.spawn_rng, np.random.default_rng
    spy = lambda *path: derived.append(path) or derive(*path)  # noqa: E731
    monkeypatch.setattr(seeding, "derive_rng", spy)
    monkeypatch.setattr(timebase, "derive_rng", spy)
    monkeypatch.setattr(session, "spawn_rng", lambda seed, *suffix: spawned.append(suffix) or spawn(seed, *suffix))
    monkeypatch.setattr(np.random, "default_rng", lambda *args: made.append(args) or default_rng(*args))
    clock_a = ClockState(model_a, rng_stream=(11, "clock", "a"))
    clock_b = ClockState(model_b, rng_stream=(11, "clock", "b"))
    streams = session.run_session(spec, clock_a, clock_b, (11, "session"))
    assert min(len(s) for s in (streams.local_a, streams.remote_ab, streams.local_b, streams.remote_ba)) > 0
    assert spawned == [("arm-a",), ("arm-b",)]
    walks = [(0, "clock-rw", 11, "clock", "b")] * random_walks
    assert derived == [*walks, (11, "session", "arm-a"), (11, "session", "arm-b")]
    assert len(made) == len(derived)


def _noisy_session(instruments_b=None):
    """Every draw of both arms on: split, heralding, thinning, jitter, darks, loss, channel jitter, clock noise."""
    source = PairSource(2e7, pair_correlation_sigma=500, heralding_efficiency_local=0.9)
    detector = Detector(efficiency=0.7, jitter_sigma=30_000, dark_rate=2e6, dead_time=10**6)
    instruments = NodeInstruments(source, detector, TimeTagger(resolution=1000))
    link = LinkModel(StaticRange(3000.0), transmittance=0.6, channel_jitter_sigma=10_000)
    spec = SessionSpec(
        duration=4 * 10**10, instruments_a=instruments, instruments_b=instruments_b or instruments, link=link
    )
    noise = dict(white_phase_sigma_fs=2000.0, random_walk_freq_coeff=1e-9)
    clock_a = ClockState(ClockModel(**noise), rng_stream=(3, "clock", "a"))
    clock_b = ClockState(ClockModel(initial_offset_fs=4 * 10**9, **noise), rng_stream=(3, "clock", "b"))
    return session.run_session(spec, clock_a, clock_b, (3, "session")), instruments


def _timestamps(streams):
    return [s.timestamps for s in (streams.local_a, streams.remote_ab, streams.local_b, streams.remote_ba)]


def test_the_arms_draw_independently():
    base, instruments = _noisy_session()
    again, _ = _noisy_session()
    assert all(np.array_equal(x, y) for x, y in zip(_timestamps(base), _timestamps(again)))
    # B's source at twice the rate and half the heralding moves every draw of
    # B's arm and none of A's
    source_b = dataclasses.replace(instruments.source, pair_rate=4e7, heralding_efficiency_local=0.5)
    changed, _ = _noisy_session(dataclasses.replace(instruments, source=source_b))
    assert np.array_equal(changed.local_a.timestamps, base.local_a.timestamps)
    assert np.array_equal(changed.remote_ab.timestamps, base.remote_ab.timestamps)
    assert changed.truth.births_a == base.truth.births_a and changed.truth.births_b > 1.5 * base.truth.births_b
    assert not np.array_equal(changed.remote_ba.timestamps[:50], base.remote_ba.timestamps[:50])
