"""Femtosecond-resolution time arithmetic and imperfect clock models.

All times are signed integers counting femtoseconds from the scenario epoch,
inside the int64 range of tag arrays, |t| < 2^63 fs (about 2.56 hours). A
true time or a clock reading outside that range raises ``TimeRangeError``
instead of wrapping.

A clock maps true time t to its local reading

    local(t) = t + theta0 + y*t + d*t^2/2 + x_rw(t) + white_noise - corrections

where the rate terms are evaluated in exact rational arithmetic (the float
parameters are converted to exact binary fractions once) and rounded to the
nearest femtosecond, halves away from zero, so results are bit-reproducible.
Random-walk frequency noise x_rw is realized as a piecewise-linear frequency
process on a fixed 1 ms grid, integrated exactly per segment. ``local_time``
is the noise-free reading at one true time (all but the white phase noise);
``local_times`` reads an int64 tag array with the same results and adds
white phase noise, fresh per tag, when it is given a generator.

A rate term round(y * t) over a tag array starts from the float product
p = float(t) * y, which lies within |y * t| * 2^-52 of the exact value. Where
p is more than |p| * 2^-50 from the nearest half-integer, rounding p gives the
exact term; the few other tags, and every tag with |p| >= 2^49, are evaluated
exactly in Python integers (a filter with an exact fallback, as in Shewchuk's
adaptive-precision predicates, 1997). The drift term d*t^2/2 has a denominator
that is not a power of two; a clock with d != 0 is evaluated per tag in Python
integers, as are arrays whose readings could come near the int64 limits, where
that loop range-checks each reading exactly.

Note on granularity: the noiseless mapping is non-decreasing at single-fs
granularity (a slope slightly below one can map adjacent ticks to the same
output) and strictly increasing for samples spaced wider than 1/|y| fs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .seeding import derive_rng

__all__ = [
    "FS_PER_SECOND",
    "INT64_LIMIT",
    "RANDOM_WALK_COEFF_LIMIT",
    "TimeRangeError",
    "ClockModel",
    "ClockState",
    "local_time",
    "local_times",
    "apply_correction",
]

FS_PER_SECOND = 10**15
_FREQUENCY_LIMIT = 1e-3  # |fractional_frequency| of a clock stays below this
# Largest random_walk_freq_coeff, 1/sqrt(s): a walk that strong wanders as far
# in a second as the largest fractional frequency a clock may have.
RANDOM_WALK_COEFF_LIMIT = _FREQUENCY_LIMIT

_RW_GRID_FS = 10**12  # 1 ms random-walk grid
_RW_CHUNK = 4096
_BLOCK = 1 << 15  # tags per float pass, which bounds the temporaries of a long array
INT64_LIMIT = 2**63  # times, readings, resolutions and session ends stay below this many fs
_INT64_MESSAGE = "clock reading outside the int64 femtosecond range (|t| < 2^63 fs) of tag arrays"
_PHASE_MESSAGE = "random-walk clock phase outside the int64 femtosecond range (|t| < 2^63 fs) of tag arrays"
_TRUE_TIME_MESSAGE = "true time outside the int64 femtosecond range (|t| < 2^63 fs) of tag arrays"


class TimeRangeError(OverflowError):
    """A time or clock reading left the int64 femtosecond range (|t| < 2^63 fs)."""


def _in_int64(value: int) -> bool:
    return -INT64_LIMIT <= value < INT64_LIMIT


def _round_div(num: int, den: int) -> int:
    """Round num/den to the nearest integer, halves away from zero. den > 0."""
    if num >= 0:
        return (2 * num + den) // (2 * den)
    return -((2 * -num + den) // (2 * den))


class _ExactRate:
    """Exact rational multiplier for a float rate: term(t) = round(rate * t), halves away from zero."""

    __slots__ = ("num", "den", "_float")

    def __init__(self, rate: float, per_fs_scale: int = 1):
        frac = Fraction(rate) / per_fs_scale
        self.num = frac.numerator
        self.den = frac.denominator
        # ``terms`` multiplies by the rate as a float, so it needs one that is exact
        self._float = float(rate) if per_fs_scale == 1 and float(rate) == rate else None

    def __call__(self, t: int) -> int:
        if self.num == 0:
            return 0
        return _round_div(self.num * t, self.den)

    @property
    def has_array_form(self) -> bool:
        return self._float is not None

    def bound(self, span: int) -> int:
        """An upper bound on |term(t)| for |t| <= span."""
        return abs(self.num) * span // self.den + 1

    def terms(self, t: np.ndarray) -> np.ndarray:
        """``term`` over an int64 array, exactly, in blocks of _BLOCK values.

        Needs ``has_array_form``. The float product p = float(t) * rate is
        within |p| * 2^-52 (and a little more) of the exact product, counting
        both roundings, so rounding p is exact wherever p lies more than
        |p| * 2^-50 from a half-integer. That filter passes no tie and no
        |p| >= 2^49; those tags take ``__call__``, and their floats are never
        cast. Raises TimeRangeError when a term leaves int64.
        """
        out = np.empty(len(t), dtype=np.int64)
        for start in range(0, len(t), _BLOCK):
            block = t[start : start + _BLOCK]
            p = block * self._float
            rounded = np.rint(p)
            unsure = np.flatnonzero(np.abs(p - rounded) >= 0.5 - np.abs(p) * 2.0**-50)
            rounded[unsure] = 0.0  # a rejected float may lie past int64: it is never cast
            out[start : start + _BLOCK] = rounded
            for i in unsure.tolist():
                term = self(int(block[i]))
                if not _in_int64(term):
                    raise TimeRangeError("clock rate term outside the int64 femtosecond range")
                out[start + i] = term
        return out


@dataclass(frozen=True)
class ClockModel:
    """Quadratic-plus-noise local oscillator parameters.

    initial_offset_fs      theta0, constant offset in fs
    fractional_frequency   y, dimensionless (local runs fast for y > 0)
    frequency_drift        d, fractional frequency change per second
    white_phase_sigma_fs   per-readout Gaussian jitter, fs
    random_walk_freq_coeff random-walk frequency strength, 1/sqrt(second)
    """

    initial_offset_fs: int = 0
    fractional_frequency: float = 0.0
    frequency_drift: float = 0.0
    white_phase_sigma_fs: float = 0.0
    random_walk_freq_coeff: float = 0.0

    def __post_init__(self):
        if not abs(self.fractional_frequency) < _FREQUENCY_LIMIT:
            raise ValueError(f"|fractional_frequency| must be < {_FREQUENCY_LIMIT}, got {self.fractional_frequency}")
        if not 0 <= self.white_phase_sigma_fs <= FS_PER_SECOND:
            raise ValueError("white_phase_sigma_fs must be in [0, 10^15] fs")
        if not 0 <= self.random_walk_freq_coeff <= RANDOM_WALK_COEFF_LIMIT:
            raise ValueError(f"random_walk_freq_coeff must be in [0, {RANDOM_WALK_COEFF_LIMIT}] /sqrt(s)")
        for name in ("fractional_frequency", "frequency_drift"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


class _RandomWalkPhase:
    """Random-walk frequency noise on a fixed grid, integrated to phase.

    The fractional-frequency walk y_j is drawn lazily in fixed-size chunks
    from a dedicated generator, so the realized process depends only on the
    clock's seed path, not on query order. Phase is the exact integral of
    the piecewise-linear interpolant. Defined as zero for t <= 0.
    """

    def __init__(self, coeff: float, rng: np.random.Generator):
        self._rng = rng
        self._step_sigma = coeff * math.sqrt(_RW_GRID_FS / FS_PER_SECOND)
        self._y = np.zeros(1)
        self._phase = np.zeros(1)  # cumulative phase at grid nodes, fs (float)

    def _extend_to(self, node: int) -> None:
        # The chunks are joined once per call, so a far first reading costs
        # time linear in the horizon.
        ys, phases = [self._y], [self._phase]
        length = len(self._y)
        while length <= node + 1:
            steps = self._rng.normal(0.0, self._step_sigma, _RW_CHUNK)
            y_new = ys[-1][-1] + np.cumsum(steps)
            y_pairs = np.concatenate(([ys[-1][-1]], y_new))
            seg = 0.5 * (y_pairs[:-1] + y_pairs[1:]) * _RW_GRID_FS
            phases.append(phases[-1][-1] + np.cumsum(seg))
            ys.append(y_new)
            length += _RW_CHUNK
        if len(ys) > 1:
            self._y = np.concatenate(ys)
            self._phase = np.concatenate(phases)

    def phases_at(self, t: np.ndarray) -> np.ndarray:
        if len(t) == 0:
            return np.zeros(len(t), dtype=np.int64)
        t = np.asarray(t, dtype=np.int64)
        # through node 1 at least: a walk read only at t <= 0 still indexes node + 1
        self._extend_to(max(int(t.max()) // _RW_GRID_FS, 0))
        node = np.maximum(t // _RW_GRID_FS, 0)
        # tau is finite but meaningless for t <= 0; those phases are zeroed below
        tau = (t - node * _RW_GRID_FS).astype(np.float64)
        y0 = self._y[node]
        slope = (self._y[node + 1] - y0) / _RW_GRID_FS
        phase = self._phase[node] + y0 * tau + 0.5 * slope * tau * tau
        phase = np.where(t > 0, np.round(phase), 0.0)
        if not np.abs(phase).max() < INT64_LIMIT:
            raise TimeRangeError(_PHASE_MESSAGE)
        return phase.astype(np.int64)


class ClockState:
    """A clock model plus accumulated sync corrections and its random-walk phase.

    Corrections are functional: ``apply_correction`` returns a new state and
    the random walk is shared, so a corrected clock is the same physical
    oscillator steered by a different amount.
    """

    __slots__ = (
        "model",
        "accumulated_correction_fs",
        "accumulated_rate_correction",
        "rng_stream",
        "_random_walk",
        "_y_rate",
        "_drift_rate",
        "_corr_rate",
    )

    def __init__(
        self,
        model: ClockModel,
        rng_stream: int | str | tuple = 0,
        accumulated_correction_fs: int = 0,
        accumulated_rate_correction: float = 0.0,
        _random_walk: _RandomWalkPhase | None = None,
    ):
        self.model = model
        self.accumulated_correction_fs = accumulated_correction_fs
        self.accumulated_rate_correction = accumulated_rate_correction
        self.rng_stream = rng_stream
        if _random_walk is None and model.random_walk_freq_coeff > 0:
            path = rng_stream if isinstance(rng_stream, tuple) else (rng_stream,)
            _random_walk = _RandomWalkPhase(model.random_walk_freq_coeff, derive_rng(0, "clock-rw", *path))
        self._random_walk = _random_walk  # None for a clock without random walk
        self._y_rate = _ExactRate(model.fractional_frequency)
        # d * t^2 / 2 with t in fs and d per second: d / (2 * FS_PER_SECOND) per fs^2
        self._drift_rate = _ExactRate(model.frequency_drift, 2 * FS_PER_SECOND)
        self._corr_rate = _ExactRate(accumulated_rate_correction)

    def deterministic_local(self, true_time: int) -> int:
        """Noise-free local reading without the random walk, as an unbounded Python int."""
        return (
            true_time
            + self.model.initial_offset_fs
            - self.accumulated_correction_fs
            + self._y_rate(true_time)
            + self._drift_rate(true_time * true_time)
            - self._corr_rate(true_time)
        )


def local_time(state: ClockState, true_time: int) -> int:
    """Noise-free local clock reading at a true time.

    The reading includes the random-walk frequency noise, a reproducible
    function of t that is part of the clock's state, but no white phase
    noise; it is the truth that errors are reported against. Raises
    TimeRangeError when the true time or the reading leaves int64.
    """
    if not _in_int64(true_time):
        raise TimeRangeError(_TRUE_TIME_MESSAGE)
    local = state.deterministic_local(true_time)
    if state.model.random_walk_freq_coeff:
        local += int(state._random_walk.phases_at(np.array([true_time], dtype=np.int64))[0])
    if not _in_int64(local):
        raise TimeRangeError(_INT64_MESSAGE)
    return local


def local_times(
    state: ClockState, true_times: np.ndarray, *, rng: np.random.Generator | None = None
) -> np.ndarray:
    """``local_time`` over an int64 array of true times, plus white phase noise drawn from rng if given.

    Raises TimeRangeError when a reading leaves the int64 range of tag arrays.
    """
    t = np.asarray(true_times, dtype=np.int64)
    if len(t) == 0:
        return t.copy()
    base = int(state.model.initial_offset_fs - state.accumulated_correction_fs)
    y, r = state._y_rate, state._corr_rate
    span = max(-int(t.min()), int(t.max()))
    if (
        state.model.frequency_drift == 0.0
        and y.has_array_form
        and r.has_array_form
        and span + abs(base) + y.bound(span) + r.bound(span) < INT64_LIMIT
    ):
        # every partial sum stays below the bound, so int64 arithmetic is exact
        local = t + base
        if y.num:
            local += y.terms(t)
        if r.num:
            local -= r.terms(t)
    else:
        # The drift term's denominator is not a power of two, and readings near
        # the int64 limits need an exact range check: Python-int evaluation.
        try:
            readings = [state.deterministic_local(ti) for ti in t.tolist()]
            local = np.array(readings, dtype=np.int64)
        except OverflowError:
            raise TimeRangeError(_INT64_MESSAGE) from None
    if state.model.random_walk_freq_coeff:
        local = _checked_add(local, state._random_walk.phases_at(t))
    sigma = state.model.white_phase_sigma_fs
    if rng is not None and sigma > 0:
        local = _checked_add(local, np.round(rng.normal(0.0, sigma, len(t))).astype(np.int64))
    return local


def _checked_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    total = a + b  # wraps on overflow, which flips the sign against both operands
    if np.any((a ^ total) & (b ^ total) < 0):
        raise TimeRangeError(_INT64_MESSAGE)
    return total


def _checked_shift(times: np.ndarray, *shifts) -> np.ndarray:
    """Sorted int64 times plus each shift (a scalar or a same-length array), in order.

    Raises TimeRangeError unless every sum stays inside int64. The sums are
    bounded by the ends of times and the extremes of the shifts, so the check
    builds no per-element temporaries; a wrapped partial sum cancels once the
    final sum is in range.
    """
    if len(times):
        low, high = int(times[0]), int(times[-1])
        for s in shifts:
            s_low, s_high = (s.min(), s.max()) if isinstance(s, np.ndarray) else (s, s)
            low, high = low + int(s_low), high + int(s_high)
        if low < -INT64_LIMIT or high >= INT64_LIMIT:
            raise TimeRangeError(_TRUE_TIME_MESSAGE)
    return sum(shifts, times)


def apply_correction(state: ClockState, offset_fix_fs: int, rate_fix: float = 0.0) -> ClockState:
    """Steer the clock: subsequent readings shift by -offset_fix and rate by -rate_fix.

    Corrections compose additively. The rate correction is referenced to the
    scenario epoch (t = 0); a controller applying a rate fix at time t_m and
    wanting zero offset there should reduce its offset fix by rate_fix * t_m.
    """
    if not math.isfinite(rate_fix):
        raise ValueError("rate_fix must be finite")
    if not _in_int64(int(offset_fix_fs)):
        raise TimeRangeError(f"offset fix {offset_fix_fs} fs outside the int64 femtosecond range")
    return ClockState(
        state.model,
        rng_stream=state.rng_stream,
        accumulated_correction_fs=state.accumulated_correction_fs + int(offset_fix_fs),
        accumulated_rate_correction=state.accumulated_rate_correction + rate_fix,
        _random_walk=state._random_walk,
    )
