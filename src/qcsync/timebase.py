"""Femtosecond-resolution time arithmetic and imperfect clock models.

All times are signed Python integers counting femtoseconds from the scenario
epoch (aliases ``TimeStamp`` / ``Duration``). Python integers are exact, so
the only failure mode is exceeding the supported 128-bit range, which raises
``TimeRangeError`` instead of wrapping.

A clock maps true time t to its local reading

    local(t) = t + theta0 + y*t + d*t^2/2 + x_rw(t) + white_noise - corrections

where the rate terms are evaluated in exact rational arithmetic (the float
parameters are converted to exact binary fractions once) and rounded to the
nearest femtosecond, halves away from zero, so results are bit-reproducible
and the noiseless mapping inverts to within 1 fs. Random-walk frequency noise
x_rw is realized as a piecewise-linear frequency process on a fixed 1 ms grid,
integrated exactly per segment; white phase noise is fresh per readout.

``local_times`` maps int64 tag arrays with the same results as the scalar
``local_time``. A float rate is num / 2^k with |num| < 2^64, so its term
round(num * t / 2^k) is computed exactly in 64-bit limb arithmetic, block by
block. The drift term d*t^2/2 has a denominator that is not a power of two;
a clock with d != 0 is evaluated per tag in Python integers, as are arrays
whose readings could come near the int64 limits, where that loop range-checks
each reading exactly. A reading outside int64 raises ``TimeRangeError``.

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
    "TimeStamp",
    "Duration",
    "FS_PER_SECOND",
    "TIMESTAMP_RANGE",
    "INT64_LIMIT",
    "TimeRangeError",
    "NonMonotonicClockError",
    "ClockModel",
    "ClockState",
    "local_time",
    "local_times",
    "true_time_of_local",
    "apply_correction",
    "check_time_range",
]

TimeStamp = int  # femtoseconds since scenario epoch
Duration = int  # femtoseconds

FS_PER_SECOND = 10**15
TIMESTAMP_RANGE = 2**127  # |value| must stay strictly below this

_RW_GRID_FS = 10**12  # 1 ms random-walk grid
_RW_CHUNK = 4096
_LOW32 = 0xFFFFFFFF
_BLOCK = 1 << 15  # tags per limb pass; one pass over 250k tags ran 2.5x slower (2-core Xeon)
INT64_LIMIT = 2**63  # tag arrays, and so resolutions and session ends, stay below this many fs
_INT64_MESSAGE = "clock reading outside the int64 femtosecond range (|t| < 2^63 fs) of tag arrays"


class TimeRangeError(OverflowError):
    """A time left its range: +-2^127 fs for scalar times, int64 for tag arrays."""


class NonMonotonicClockError(ValueError):
    """The clock model is not invertible over the requested range."""


def check_time_range(value: int) -> int:
    if not -TIMESTAMP_RANGE < value < TIMESTAMP_RANGE:
        raise TimeRangeError(f"time value {value} fs outside the +-2^127 fs range")
    return value


def _round_div(num: int, den: int) -> int:
    """Round num/den to the nearest integer, halves away from zero. den > 0."""
    if num >= 0:
        return (2 * num + den) // (2 * den)
    return -((2 * -num + den) // (2 * den))


class _ExactRate:
    """Exact rational multiplier for a float rate: term(t) = round(rate * t)."""

    __slots__ = ("num", "den", "_shift")

    def __init__(self, rate: float, per_fs_scale: int = 1):
        frac = Fraction(rate) / per_fs_scale
        self.num = frac.numerator
        self.den = frac.denominator
        # Fraction(float) has a power-of-two denominator 2^k; ``terms`` needs
        # that and |num| < 2^64, which every float rate below 2^64 meets.
        shift = self.den.bit_length() - 1
        self._shift = shift if self.den == 1 << shift and abs(self.num) < 1 << 64 else None

    def __call__(self, t: int) -> int:
        if self.num == 0:
            return 0
        return _round_div(self.num * t, self.den)

    @property
    def has_array_form(self) -> bool:
        return self._shift is not None

    def bound(self, span: int) -> int:
        """An upper bound on |term(t)| for |t| <= span."""
        return abs(self.num) * span // self.den + 1

    def terms(self, t: np.ndarray) -> np.ndarray:
        """``term`` over an int64 array, exactly, in blocks of _BLOCK values.

        Needs ``has_array_form``. |num * t| < 2^127, so the product of the
        magnitudes is held in two uint64 limbs built from 32-bit halves;
        rounding half away from zero is a carried add of 2^(k-1) and a right
        shift by k, and the sign is restored last. Raises TimeRangeError when
        a term leaves int64.
        """
        out = np.zeros(len(t), dtype=np.int64)
        if self.num == 0 or self._shift >= 128:  # |num * t| / 2^k < 1/2
            return out
        mag = abs(self.num)
        n0, n1 = np.uint64(mag & _LOW32), np.uint64(mag >> 32)
        for start in range(0, len(t), _BLOCK):
            out[start : start + _BLOCK] = _scaled_block(
                t[start : start + _BLOCK], n0, n1, self._shift, self.num < 0
            )
        return out


def _scaled_block(t: np.ndarray, n0, n1, shift: int, negative_rate: bool) -> np.ndarray:
    """round((n1 * 2^32 + n0) * t / 2^shift), halves away from zero; shift < 128."""
    negative = (t < 0) != negative_rate
    u = np.abs(t).view(np.uint64)  # |t|, also for -2^63, whose abs wraps to itself
    t0, t1 = u & _LOW32, u >> 32
    p00, p01, p10, p11 = t0 * n0, t0 * n1, t1 * n0, t1 * n1
    col1 = (p00 >> 32) + (p01 & _LOW32) + (p10 & _LOW32)
    col2 = (p01 >> 32) + (p10 >> 32) + (p11 & _LOW32) + (col1 >> 32)
    lo = (col1 << 32) | (p00 & _LOW32)
    hi = (col2 & _LOW32) | (((p11 >> 32) + (col2 >> 32)) << 32)
    if 0 < shift <= 64:
        rounded = lo + np.uint64(1 << (shift - 1))
        hi += rounded < lo
        lo = rounded
    elif shift > 64:
        hi += np.uint64(1 << (shift - 65))
    if shift == 0:
        q_lo, q_hi = lo, hi
    elif shift < 64:
        q_lo, q_hi = (lo >> shift) | (hi << (64 - shift)), hi >> shift
    else:
        q_lo, q_hi = hi >> (shift - 64), np.zeros_like(hi)
    if np.any(q_hi) or np.any(q_lo > np.uint64(INT64_LIMIT - 1) + negative):
        raise TimeRangeError("clock rate term outside the int64 femtosecond range")
    q = q_lo.view(np.int64)
    np.negative(q, out=q, where=negative)  # -(2^63) wraps to itself, as it should
    return q


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
        if not abs(self.fractional_frequency) < 1e-3:
            raise ValueError(
                f"|fractional_frequency| must be < 1e-3, got {self.fractional_frequency}"
            )
        for name in ("white_phase_sigma_fs", "random_walk_freq_coeff"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
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
        self._coeff = coeff
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

    def phase_at(self, t: int) -> int:
        if self._coeff == 0.0 or t <= 0:
            return 0
        node = t // _RW_GRID_FS
        self._extend_to(int(node))
        tau = t - node * _RW_GRID_FS
        y0 = self._y[node]
        slope = (self._y[node + 1] - y0) / _RW_GRID_FS
        phase = self._phase[node] + y0 * tau + 0.5 * slope * tau * tau
        return int(round(phase))

    def phases_at(self, t: np.ndarray) -> np.ndarray:
        if self._coeff == 0.0 or len(t) == 0:
            return np.zeros(len(t), dtype=np.int64)
        t = np.asarray(t, dtype=np.int64)
        tmax = int(t.max())
        if tmax > 0:
            self._extend_to(int(tmax // _RW_GRID_FS))
        node = np.maximum(t // _RW_GRID_FS, 0)
        # tau is finite but meaningless for t <= 0; those phases are zeroed below
        tau = (t - node * _RW_GRID_FS).astype(np.float64)
        y0 = self._y[node]
        slope = (self._y[node + 1] - y0) / _RW_GRID_FS
        phase = self._phase[node] + y0 * tau + 0.5 * slope * tau * tau
        return np.where(t > 0, np.round(phase), 0.0).astype(np.int64)


class _ClockNoise:
    """Noise streams shared by a clock and all its corrected descendants."""

    def __init__(self, model: ClockModel, rng_stream):
        path = rng_stream if isinstance(rng_stream, tuple) else (rng_stream,)
        self.white_rng = derive_rng(0, "clock-white", *path)
        self.random_walk = _RandomWalkPhase(
            model.random_walk_freq_coeff, derive_rng(0, "clock-rw", *path)
        )


class ClockState:
    """A clock model plus accumulated sync corrections and its noise streams.

    Corrections are functional: ``apply_correction`` returns a new state and
    the noise realization is shared, so a corrected clock is the same
    physical oscillator steered by a different amount.
    """

    __slots__ = (
        "model",
        "accumulated_correction_fs",
        "accumulated_rate_correction",
        "rng_stream",
        "_noise",
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
        _noise: _ClockNoise | None = None,
    ):
        self.model = model
        self.accumulated_correction_fs = accumulated_correction_fs
        self.accumulated_rate_correction = accumulated_rate_correction
        self.rng_stream = rng_stream
        self._noise = _noise if _noise is not None else _ClockNoise(model, rng_stream)
        self._y_rate = _ExactRate(model.fractional_frequency)
        # d * t^2 / 2 with t in fs and d per second: d / (2 * FS_PER_SECOND) per fs^2
        self._drift_rate = _ExactRate(model.frequency_drift, 2 * FS_PER_SECOND)
        self._corr_rate = _ExactRate(accumulated_rate_correction)

    def deterministic_local(self, true_time: int) -> int:
        """Noise-free part of the local-time mapping (used for inversion)."""
        local = (
            true_time
            + self.model.initial_offset_fs
            - self.accumulated_correction_fs
            + self._y_rate(true_time)
            + self._drift_rate(true_time * true_time)
            - self._corr_rate(true_time)
        )
        return check_time_range(local)

    def _ideal_local(self, true_time: int) -> int:
        return check_time_range(
            self.deterministic_local(true_time) + self._noise.random_walk.phase_at(true_time)
        )


def local_time(
    state: ClockState,
    true_time: int,
    *,
    rng: np.random.Generator | None = None,
    readout_noise: bool = True,
) -> int:
    """Local clock reading at a true time.

    White phase noise (readout jitter) is drawn from ``rng`` or the clock's
    own stream; pass ``readout_noise=False`` for the noise-free reading used
    in error reporting. Random-walk frequency noise is part of the clock's
    state and is always included (it is a reproducible function of t).
    """
    check_time_range(true_time)
    local = state._ideal_local(true_time)
    sigma = state.model.white_phase_sigma_fs
    if readout_noise and sigma > 0:
        gen = rng if rng is not None else state._noise.white_rng
        local += int(round(gen.normal(0.0, sigma)))
    return check_time_range(local)


def local_times(
    state: ClockState,
    true_times: np.ndarray,
    *,
    rng: np.random.Generator | None = None,
    readout_noise: bool = True,
) -> np.ndarray:
    """Vectorized ``local_time`` over an int64 array of true times.

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
        local = _checked_add(local, state._noise.random_walk.phases_at(t))
    sigma = state.model.white_phase_sigma_fs
    if readout_noise and sigma > 0:
        gen = rng if rng is not None else state._noise.white_rng
        local = _checked_add(local, np.round(gen.normal(0.0, sigma, len(t))).astype(np.int64))
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
            raise TimeRangeError("true time outside the int64 femtosecond range (|t| < 2^63 fs) of tag arrays")
    return sum(shifts, times)


def true_time_of_local(state: ClockState, local: int) -> int:
    """Invert the noiseless mapping; round-trip error is at most 1 fs.

    Noise terms (white phase and random walk) are excluded, matching the
    analysis use case of mapping recorded tags back to true time.
    """
    check_time_range(local)
    m = state.model
    slope_min = 1.0 + m.fractional_frequency - state.accumulated_rate_correction
    if slope_min <= 0.5:
        raise NonMonotonicClockError("clock rate too far from nominal to invert")
    t = local - m.initial_offset_fs + state.accumulated_correction_fs
    for _ in range(64):
        err = state.deterministic_local(t) - local
        if err == 0:
            return t
        if abs(err) <= 1:
            neighbor = t - err
            if abs(state.deterministic_local(neighbor) - local) < abs(err):
                return neighbor
            return t
        t -= err
    deriv = 1.0 + m.fractional_frequency + m.frequency_drift * (t / FS_PER_SECOND)
    if deriv <= 0:
        raise NonMonotonicClockError("clock mapping not monotone at requested time")
    raise NonMonotonicClockError("inversion did not converge")


def apply_correction(state: ClockState, offset_fix_fs: int, rate_fix: float = 0.0) -> ClockState:
    """Steer the clock: subsequent readings shift by -offset_fix and rate by -rate_fix.

    Corrections compose additively. The rate correction is referenced to the
    scenario epoch (t = 0); a controller applying a rate fix at time t_m and
    wanting zero offset there should reduce its offset fix by rate_fix * t_m.
    """
    if not math.isfinite(rate_fix):
        raise ValueError("rate_fix must be finite")
    check_time_range(int(offset_fix_fs))
    return ClockState(
        state.model,
        rng_stream=state.rng_stream,
        accumulated_correction_fs=state.accumulated_correction_fs + int(offset_fix_fs),
        accumulated_rate_correction=state.accumulated_rate_correction + rate_fix,
        _noise=state._noise,
    )
