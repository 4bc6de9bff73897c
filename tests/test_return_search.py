"""The B->A peak search placed by the link's round trip, and its fallbacks to the whole window."""

from __future__ import annotations

import copy
from dataclasses import replace
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from qcsync import estimator
from qcsync.estimator import CorrelationConfig, cross_correlate, estimate_two_way
from qcsync.scenario import build_correlation, build_session, load_scenario
from qcsync.session import estimate_session, run_session
from qcsync.timebase import ClockState

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SLACK_FS = (estimator._RETURN_SLACK_BINS + 3) * 10**6  # the region's half-width at every shape's coarse bin


def _session(config: dict, theta_fs: int, frequency: float, master: int, start_time: int = 0):
    """The streams and correlation config of a simulate-style config, B's clock at theta_fs and frequency."""
    clocks = {"a": {}, "b": {"initial_offset_fs": theta_fs, "fractional_frequency": frequency}}
    spec, model_a, model_b = build_session({**config, "clocks": clocks})
    clock_a = ClockState(model_a, rng_stream=(master, "clock", "a"))
    clock_b = ClockState(model_b, rng_stream=(master, "clock", "b"))
    streams = run_session(replace(spec, start_time=start_time), clock_a, clock_b, (master, "session"))
    return streams, build_correlation(config["correlation"])


@cache
def _scenario(name: str) -> dict:
    return load_scenario(SCENARIOS / name)


def _paper(duration_s: float) -> dict:
    return {**copy.deepcopy(_scenario("paper_100pairs.json")), "duration_s": duration_s}


def _edge_config(edge: dict) -> dict:
    """A sync edge's session, link and correlation as a simulate config."""
    session = edge["session"]
    return {
        "duration_s": session["duration_s"],
        "sources": {"a": session["source_up"], "b": session["source_down"]},
        "detectors": {"a": session.get("detector_up"), "b": session.get("detector_down")},
        "tagger": session.get("tagger"),
        "link": edge["link"],
        "correlation": edge.get("correlation"),
    }


def _ground_edge(range_m: float) -> dict:
    """net_montecarlo's static ground edge: 10 us sessions at 1e7 pairs/s in a +-100 us window."""
    return _edge_config(
        {
            "link": {"geometry": {"variant": "static_range", "range_m": range_m}},
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
    )


def _leo_edge() -> dict:
    """leo_demo's sync edge at 1e7 pairs/s, as net_montecarlo runs it."""
    edge = copy.deepcopy(_scenario("leo_demo.json")["topology"]["edges"][0])
    for side in ("source_up", "source_down"):
        edge["session"][side]["pair_rate_hz"] = 1e7
    return _edge_config(edge)


def _sessions():
    """300 seeded sessions: 120 of paper_100pairs over 1-4 ms, 120 ground edges and 60 leo_demo edges."""
    rng = np.random.default_rng(30)
    for k in range(120):
        config = _paper(float(rng.uniform(1e-3, 4e-3)))
        yield _session(config, int(rng.integers(-5 * 10**11, 5 * 10**11)), 0.0, k)
    for k in range(120):
        config = _ground_edge(float(rng.uniform(500.0, 10000.0)))
        yield _session(config, int(rng.integers(-2 * 10**10, 2 * 10**10)), float(rng.uniform(-1e-9, 1e-9)), 1000 + k)
    leo = _leo_edge()
    for k in range(60):
        start = int(rng.integers(0, 30 * 10**15))
        yield _session(leo, int(rng.integers(-10**9, 10**9)), 1e-12, 2000 + k, start_time=start)


def _members(result):
    return [(c.members.local_times.tolist(), c.members.diffs.tolist()) for c in (result.forward, result.backward)]


def _predicted_calls(monkeypatch):
    """The predictions cross_correlate is given; given one, the whole window must not be searched."""
    calls, correlate = [], estimator.cross_correlate

    def refuse(*args, **kwargs):
        raise AssertionError("the predicted search fell back to the window")

    def traced(local, remote, cfg=None, predicted=None):
        if predicted is None:
            return correlate(local, remote, cfg)
        calls.append(predicted)
        with monkeypatch.context() as m:
            m.setattr(estimator, "_bounded_peak", refuse)
            m.setattr(estimator, "coarse_histogram", refuse)
            return correlate(local, remote, cfg, predicted)

    monkeypatch.setattr(estimator, "cross_correlate", traced)
    return calls


def test_round_trip_search_gives_the_window_result(monkeypatch):
    # Each session's B->A peak is found in the region its round trip
    # predicts, with no fallback, and every field of both directions, the
    # background, significance and members included, equals the result of
    # searching the whole window.
    calls, n = _predicted_calls(monkeypatch), 0
    for streams, cfg in _sessions():
        predicted = estimate_session(streams, cfg)
        assert len(calls) == n + 1
        n += 1
        whole = estimate_two_way(streams.local_a, streams.remote_ab, streams.local_b, streams.remote_ba, cfg)
        assert predicted == whole  # every field but the members, which compare apart
        assert _members(predicted) == _members(whole)
    assert n == 300


def _outcome(local, remote, cfg, predicted=None):
    try:
        result = cross_correlate(local, remote, cfg, predicted)
    except estimator.NoPeakError as err:
        return "no peak", err.significance
    return result, result.members.local_times.tolist(), result.members.diffs.tolist()


def _backward(duration_s=2e-3, master=3):
    """A paper_100pairs session's B->A streams, its config and the predicted B->A difference."""
    streams, cfg = _session(_paper(duration_s), 2 * 10**11, 0.0, master)
    forward = cross_correlate(streams.local_a, streams.remote_ab, cfg)
    local, remote = streams.local_b.timestamps, streams.remote_ba.timestamps
    return local, remote, cfg, streams.round_trip_fs - forward.peak_offset


def test_round_trip_off_by_ten_slacks_gives_the_window_result(monkeypatch):
    local, remote, cfg, predicted = _backward()
    want = _outcome(local, remote, cfg)
    # the region is searched once, then the window
    for error in (-10 * SLACK_FS, 10 * SLACK_FS):
        regions, region_peak = [], estimator._region_peak
        with monkeypatch.context() as m:
            m.setattr(estimator, "_region_peak", lambda *args: regions.append(args[2]) or region_peak(*args))
            assert _outcome(local, remote, cfg, predicted + error) == want
        assert regions == [predicted + error]


def test_region_peak_at_its_edge_searches_the_window():
    # predictions that put the window's peak bin 0 to refine_span_bins bins
    # inside the region's first or last bin
    local, remote, cfg, _ = _backward()
    want = _outcome(local, remote, cfg)
    hist = estimator.coarse_histogram(local, remote, cfg)
    peak_bin, origin = int(hist.bins[np.argmax(hist.counts)]), hist.origin
    total = estimator._bounded_total(local, remote, cfg)
    half = cfg.refine_span_bins + estimator._RETURN_SLACK_BINS
    for inset in range(cfg.refine_span_bins + 1):
        for centre in (peak_bin - inset + half, peak_bin + inset - half):
            predicted = origin + centre * cfg.coarse_bin
            assert estimator._region_peak(local, remote, predicted, total, cfg) is None
            assert _outcome(local, remote, cfg, predicted) == want
    # one bin further in, the region finds the peak
    predicted = origin + (peak_bin - cfg.refine_span_bins - 1 + half) * cfg.coarse_bin
    assert estimator._region_peak(local, remote, predicted, total, cfg)[:3] == (peak_bin, want[0].peak_counts, total)


@pytest.mark.parametrize("predicted", [-2 * 10**13, 2 * 10**13, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**70])
def test_prediction_outside_the_window_searches_the_window(predicted):
    local, remote, cfg, _ = _backward()
    total = estimator._bounded_total(local, remote, cfg)
    assert total and estimator._region_peak(local, remote, predicted, total, cfg) is None
    assert _outcome(local, remote, cfg, predicted) == _outcome(local, remote, cfg)


def test_region_holding_no_pair_searches_the_window():
    # 61 local tags and a 60-pair peak at 3e7 fs, in a +-1e8 fs window that
    # holds every pair; no pair lies within the region around -3e7 fs
    cfg = CorrelationConfig(search_window=10**8, coarse_bin=10**5, fine_bin=100)
    rng = np.random.default_rng(43)
    local = np.sort(np.concatenate(([0, 4 * 10**7], rng.integers(0, 4 * 10**7, 59)))).astype(np.int64)
    remote = np.sort(local[:60] + 3 * 10**7 + rng.integers(-10**4, 10**4, 60))
    assert estimator._holds_every_pair(local, remote, cfg)
    empty = 3 * 10**7 - 6 * 10**7
    assert estimator._region_peak(local, remote, empty, len(local) * len(remote), cfg) is None
    assert _outcome(local, remote, cfg, empty) == _outcome(local, remote, cfg)
    # and the prediction at the peak finds it in the region
    found = estimator._region_peak(local, remote, 3 * 10**7, len(local) * len(remote), cfg)
    assert found is not None and _outcome(local, remote, cfg, 3 * 10**7) == _outcome(local, remote, cfg)


def test_region_peak_without_significance_searches_the_window(monkeypatch):
    # a raised threshold rejects the region's peak: the window is searched
    # and raises NoPeakError with the same significance
    local, remote, cfg, predicted = _backward()
    strict = replace(cfg, significance_sigma=1e6)
    searched = []
    bounded = estimator._bounded_peak
    monkeypatch.setattr(estimator, "_bounded_peak", lambda *args: searched.append(1) or bounded(*args))
    outcome = _outcome(local, remote, strict, predicted)
    assert outcome[0] == "no peak" and searched == [1]
    assert outcome == _outcome(local, remote, strict)


def test_dense_window_keeps_its_pair_searches(monkeypatch):
    # cli_dense's shape: paper_100pairs over 20 ms at 1e7 pairs/s on a 30 m
    # link, +-200 ns window. Its windows are enumerated by runs, so the
    # prediction changes no pair search.
    config = _paper(0.02)
    for side in ("a", "b"):
        config["sources"][side]["pair_rate_hz"] = 1e7
    config["link"] = {"geometry": {"variant": "static_range", "range_m": 30.0}, "transmittance": 0.5}
    config["correlation"] = {**config["correlation"], "search_window_fs": 2 * 10**8, "block_count": 8}
    streams, cfg = _session(config, 5 * 10**7, 2e-8, 5)
    searches, pair_runs = [], estimator._pair_runs
    monkeypatch.setattr(estimator, "_pair_runs", lambda *args: searches.append(args[2:]) or pair_runs(*args))
    predicted = estimate_session(streams, cfg)
    with_prediction, searches[:] = list(searches), []
    whole = estimate_two_way(streams.local_a, streams.remote_ab, streams.local_b, streams.remote_ba, cfg)
    assert with_prediction == searches and len(searches) >= 2
    assert predicted == whole and _members(predicted) == _members(whole)


def test_return_search_makes_no_fold(monkeypatch):
    # One paper_100pairs session: A->B (correlation 0) takes the bounded
    # search; B->A (correlation 1) folds nothing and enumerates one region.
    streams, cfg = _session(_paper(3e-3), -3 * 10**11, 0.0, 11)
    folds, enumerations, calls = [], [], []
    bounds, counts, correlate = estimator._superbin_bounds, estimator._bin_counts, estimator.cross_correlate
    monkeypatch.setattr(estimator, "_superbin_bounds", lambda *args: folds.append(calls[-1]) or bounds(*args))
    monkeypatch.setattr(estimator, "_bin_counts", lambda *args: enumerations.append(calls[-1]) or counts(*args))
    monkeypatch.setattr(estimator, "cross_correlate", lambda *args: calls.append(len(calls)) or correlate(*args))
    estimate_session(streams, cfg)
    assert calls == [0, 1]
    assert folds.count(0) >= 1 and folds.count(1) == 0
    assert enumerations.count(1) == 1
