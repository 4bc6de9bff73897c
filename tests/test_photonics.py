"""Pair generation, detector chain, and timetag stream invariants."""

from __future__ import annotations

import numpy as np
import pytest

from qcsync import photonics
from qcsync.photonics import (
    Detector,
    PairSource,
    TagStream,
    TimeTagger,
    detect,
    generate_pair_births,
    split_pairs,
)
from qcsync.timebase import INT64_LIMIT, ClockModel, ClockState, TimeRangeError

FS = 10**15


def _ideal_clock(seed=1):
    return ClockState(ClockModel(), rng_stream=seed)


def test_pair_birth_rate_matches_poisson_mean():
    source = PairSource(pair_rate=1e6)
    horizon = 10**13  # 10 ms -> expect 10^4
    counts = [len(generate_pair_births(source, horizon, (3, k))) for k in range(30)]
    assert np.mean(counts) == pytest.approx(1e4, rel=0.02)
    # count variance is Poisson-like, not constant
    assert np.std(counts) > 30


def test_pair_births_sorted_within_horizon_and_deterministic():
    source = PairSource(pair_rate=5e5)
    births = generate_pair_births(source, 10**12, (8, "x"))
    again = generate_pair_births(source, 10**12, (8, "x"))
    assert np.array_equal(births, again)
    assert np.all(np.diff(births) >= 0)
    assert births.dtype == np.int64
    if len(births):
        assert 0 <= births[0] and births[-1] < 10**12


def test_split_pairs_difference_sigma():
    source = PairSource(pair_rate=1e6, pair_correlation_sigma=200)
    births = np.arange(0, 10**6, dtype=np.int64) * 10**6
    local, remote = split_pairs(births[:20000], source, (4,))
    diffs = (local - remote).astype(np.float64)
    assert np.std(diffs) == pytest.approx(200.0, rel=0.05)
    assert np.mean(diffs) == pytest.approx(0.0, abs=5.0)


def test_split_pairs_zero_sigma_identity():
    source = PairSource(pair_rate=1e3, pair_correlation_sigma=0)
    births = np.array([10, 20, 30], dtype=np.int64)
    local, remote = split_pairs(births, source, (1,))
    assert np.array_equal(local, births) and np.array_equal(remote, births)
    local, remote = split_pairs(np.array([42], dtype=np.int64), source, (1,))
    assert local.tolist() == [42] and remote.tolist() == [42]


def test_detector_efficiency_thins_stream():
    det = Detector(efficiency=0.25)
    arrivals = np.arange(0, 4 * 10**10, 10**6, dtype=np.int64)
    stream = detect(arrivals, det, _ideal_clock(), TimeTagger(resolution=1), 4 * 10**10, (5,))
    assert len(stream) == pytest.approx(0.25 * len(arrivals), rel=0.05)


def test_dead_time_enforced_non_paralyzable():
    det = Detector(dead_time=10**6)
    arrivals = np.array([0, 4 * 10**5, 9 * 10**5, 10**6, 3 * 10**6], dtype=np.int64)
    stream = detect(arrivals, det, _ideal_clock(), TimeTagger(resolution=1), 10**7, (6,))
    assert stream.timestamps.tolist() == [0, 10**6, 3 * 10**6]


def _greedy_dead_time(times, dead_time):
    kept = []
    for t in times.tolist():
        if not kept or t - kept[-1] >= dead_time:
            kept.append(t)
    return kept


def test_dead_time_filter_matches_greedy_on_clustered_streams():
    rng = np.random.default_rng(31)
    dead_time = 10**6
    longest_chain = 0
    for rate_times_dead in (0.05, 0.5, 3.0, 30.0):
        n = 3000
        gaps = rng.exponential(dead_time / rate_times_dead, n).astype(np.int64)
        times = np.cumsum(gaps)  # repeats (zero gaps) included
        times[rng.random(n) < 0.1] -= dead_time // 2
        times.sort()
        want = _greedy_dead_time(times, dead_time)
        assert photonics._dead_time_filter(times, dead_time).tolist() == want
        kept = np.isin(times, want)
        cluster_id = np.cumsum(np.concatenate(([True], np.diff(times) >= dead_time)))
        longest_chain = max(longest_chain, np.bincount(cluster_id[kept]).max())
    assert longest_chain >= 3
    lattice = np.repeat(np.arange(40, dtype=np.int64) * (dead_time // 2), 2)  # exact ties
    assert photonics._dead_time_filter(lattice, dead_time).tolist() == _greedy_dead_time(
        lattice, dead_time
    )
    untouched = np.array([0, dead_time, 3 * dead_time], dtype=np.int64)
    assert photonics._dead_time_filter(untouched, dead_time) is untouched


@pytest.mark.parametrize(
    "times, dead_time",
    [
        ([0, 5, 10], 2**63),
        ([0, 5, 10], 2**70),
        ([-(2**62), -(2**62) + 5, 2**62, 2**62 + 3, 2**63 - 10], 2**63 - 20),
        ([-(2**63), -5, 0, 2**63 - 1], 2**63),
        ([-(2**63), 2**63 - 2, 2**63 - 1], 2**64 - 2),
        ([0, 1, 2**63 - 3, 2**63 - 2, 2**63 - 1], 2),
    ],
)
def test_dead_time_filter_exact_near_int64_limits(times, dead_time):
    times = np.array(times, dtype=np.int64)
    assert photonics._dead_time_filter(times, dead_time).tolist() == _greedy_dead_time(
        times, dead_time
    )


def test_detect_accepts_dead_time_beyond_int64():
    arrivals = np.array([0, 10**6, 3 * 10**6], dtype=np.int64)
    det = Detector(dead_time=2**63)
    stream = detect(arrivals, det, _ideal_clock(), TimeTagger(resolution=1), 10**7, (6,))
    assert stream.timestamps.tolist() == [0]


def test_dark_counts_cover_acquisition_window():
    det = Detector(dark_rate=1e6)
    window_start = 5 * 10**12
    stream = detect(
        np.empty(0, dtype=np.int64),
        det,
        _ideal_clock(),
        TimeTagger(resolution=1),
        10**12,
        (7,),
        window_start=window_start,
    )
    assert len(stream) == pytest.approx(1000, rel=0.2)
    assert stream.timestamps[0] >= window_start
    assert stream.timestamps[-1] < window_start + 10**12


def test_jitter_broadens_arrivals():
    det = Detector(jitter_sigma=500)
    arrivals = np.full(5000, 10**10, dtype=np.int64) + np.arange(5000) * 10**6
    stream = detect(arrivals, det, _ideal_clock(), TimeTagger(resolution=1), 10**11, (8,))
    residuals = stream.timestamps - arrivals[: len(stream)]
    assert np.std(residuals.astype(np.float64)) == pytest.approx(500.0, rel=0.1)


def test_quantization_floors_to_resolution():
    tagger = TimeTagger(resolution=1000)
    arrivals = np.array([1499, 2999, 3500], dtype=np.int64)
    stream = detect(arrivals, Detector(), _ideal_clock(), tagger, 10**6, (9,))
    assert stream.timestamps.tolist() == [1000, 2000, 3000]
    assert stream.resolution_fs == 1000


def test_duplicate_tags_removed():
    tagger = TimeTagger(resolution=1000)
    arrivals = np.array([1100, 1200, 1300], dtype=np.int64)  # one tick after flooring
    stream = detect(arrivals, Detector(), _ideal_clock(), tagger, 10**6, (10,))
    assert stream.timestamps.tolist() == [1000]


def test_range_limit_drops_out_of_range_tags():
    tagger = TimeTagger(resolution=1, range_limit=10**6)
    arrivals = np.array([10, 10**6, 10**6 + 1], dtype=np.int64)
    stream = detect(arrivals, Detector(), _ideal_clock(), tagger, 10**7, (11,))
    assert stream.timestamps.tolist() == [10, 10**6]


def test_detect_converts_to_local_frame():
    clock = ClockState(ClockModel(initial_offset_fs=777), rng_stream=12)
    arrivals = np.array([1000, 2000], dtype=np.int64)
    stream = detect(arrivals, Detector(), clock, TimeTagger(resolution=1), 10**6, (12,))
    assert stream.timestamps.tolist() == [1777, 2777]


def test_detect_raises_where_jitter_or_darks_would_wrap_int64():
    top = INT64_LIMIT - 100 + np.arange(50, dtype=np.int64)
    with pytest.raises(TimeRangeError):
        detect(top, Detector(jitter_sigma=10**6), _ideal_clock(), TimeTagger(resolution=1), 10, (14,))
    darks = Detector(dark_rate=1e12)  # about 1000 darks in the 1 ns horizon
    last_fit = INT64_LIMIT - 1 - 10**6
    none, tagger = np.empty(0, dtype=np.int64), TimeTagger(resolution=1)
    stream = detect(none, darks, _ideal_clock(), tagger, 10**6, (15,), window_start=last_fit)
    assert len(stream) > 900 and stream.timestamps[0] >= last_fit
    with pytest.raises(TimeRangeError):
        detect(none, darks, _ideal_clock(), tagger, 10**6, (15,), window_start=last_fit + 10**6)


def test_detect_unsorted_input_rejected():
    with pytest.raises(ValueError):
        detect(
            np.array([5, 1], dtype=np.int64),
            Detector(),
            _ideal_clock(),
            TimeTagger(resolution=1),
            10,
            (13,),
        )


def test_tagstream_validation():
    with pytest.raises(ValueError):
        TagStream(channel_id="c", timestamps=np.array([2, 1], dtype=np.int64))
    with pytest.raises(ValueError):
        TagStream(channel_id="c", timestamps=np.array([1, 1], dtype=np.int64))
    with pytest.raises(ValueError):
        TagStream(channel_id="c", timestamps=np.array([1500], dtype=np.int64), resolution_fs=1000)
    with pytest.raises(ValueError, match="2\\^63"):
        TagStream(channel_id="c", timestamps=np.array([0], dtype=np.int64), resolution_fs=2**63)
    assert TagStream("c", np.array([0], dtype=np.int64), resolution_fs=2**63 - 1).resolution_fs == 2**63 - 1


def test_tagstream_rejects_decrease_whose_difference_wraps_int64():
    with pytest.raises(ValueError, match="strictly sorted"):
        TagStream("x", [6 * 10**18, -6 * 10**18])


def test_parameter_validation():
    with pytest.raises(ValueError):
        PairSource(pair_rate=0.0)
    with pytest.raises(ValueError):
        Detector(efficiency=1.5)
    with pytest.raises(ValueError):
        Detector(dead_time=-1)
    with pytest.raises(ValueError):
        TimeTagger(resolution=0)
    with pytest.raises(ValueError):
        TimeTagger(resolution=2**63)


def test_detect_deterministic_per_seed():
    det = Detector(efficiency=0.8, jitter_sigma=300, dark_rate=1e4, dead_time=10**5)
    arrivals = np.sort(np.random.default_rng(0).integers(0, 10**12, 5000)).astype(np.int64)
    kwargs = dict(channel_id="ch", frame="f")
    one = detect(arrivals, det, _ideal_clock(3), TimeTagger(), 10**12, (14, "s"), **kwargs)
    two = detect(arrivals, det, _ideal_clock(3), TimeTagger(), 10**12, (14, "s"), **kwargs)
    other = detect(arrivals, det, _ideal_clock(3), TimeTagger(), 10**12, (15, "s"), **kwargs)
    assert np.array_equal(one.timestamps, two.timestamps)
    assert not np.array_equal(one.timestamps, other.timestamps)
