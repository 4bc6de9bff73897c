"""Polarization-entanglement CHSH test and link authentication.

The two-photon state is summarized by a single visibility V scaling the
singlet correlation E(a, b) = -V cos 2(a - b); V covers both ordinary mixing
and adversarial substitution (an intercept-resend attack caps the effective
visibility at 1/sqrt(2), below the CHSH violation threshold). The CHSH
combination is signed so that a perfect state at the default analyzer
angles yields S = +2*sqrt(2); S = 2*sqrt(2)*V in general.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seeding import SeedSpec, spawn_rng
from .timebase import INT64_LIMIT

__all__ = [
    "EntanglementModel",
    "ChshSettings",
    "ChshEstimate",
    "AuthPolicy",
    "OUTCOME_ORDER",
    "AUTHENTIC",
    "REJECTED",
    "INCONCLUSIVE",
    "INTERCEPT_RESEND_VISIBILITY_CAP",
    "simulate_coincidences",
    "chsh_value",
    "authenticate",
]

AUTHENTIC = "authentic"
REJECTED = "rejected"
INCONCLUSIVE = "inconclusive"

# Best effective visibility an intercept-resend adversary can fake.
INTERCEPT_RESEND_VISIBILITY_CAP = 1.0 / math.sqrt(2.0)

# Outcome-pair column order of every 4x4 counts table.
OUTCOME_ORDER = ((1, 1), (1, -1), (-1, 1), (-1, -1))


@dataclass(frozen=True)
class EntanglementModel:
    visibility: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError("visibility must be in [0, 1]")

    def correlation(self, a: float, b: float) -> float:
        return -self.visibility * math.cos(2.0 * (a - b))


@dataclass(frozen=True)
class ChshSettings:
    a: float = 0.0
    a_prime: float = math.pi / 4
    b: float = math.pi / 8
    b_prime: float = 3 * math.pi / 8

    def __post_init__(self):
        for name in ("a", "a_prime", "b", "b_prime"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"angle {name} must be finite")

    @property
    def setting_pairs(self) -> tuple[tuple[float, float], ...]:
        """Row order of every counts table: (a,b), (a,b'), (a',b), (a',b')."""
        return (
            (self.a, self.b),
            (self.a, self.b_prime),
            (self.a_prime, self.b),
            (self.a_prime, self.b_prime),
        )


@dataclass(frozen=True)
class AuthPolicy:
    s_threshold: float = 2.0
    min_pairs_per_setting: int = 20
    confidence_sigma: float = 3.0

    def __post_init__(self):
        if not 2.0 <= self.s_threshold <= 2.0 * math.sqrt(2.0):
            raise ValueError("s_threshold must be within [2, 2*sqrt(2)]")
        if self.min_pairs_per_setting < 1:
            raise ValueError("min_pairs_per_setting must be >= 1")
        if not self.confidence_sigma > 0:
            raise ValueError("confidence_sigma must be > 0")


@dataclass(frozen=True)
class ChshEstimate:
    S: float
    standard_error: float
    counts_per_setting: np.ndarray  # shape (4, 4): setting pair x outcome pair


def simulate_coincidences(
    model: EntanglementModel,
    settings: ChshSettings,
    pairs_per_setting: int,
    seed: SeedSpec,
) -> np.ndarray:
    """Coincidence counts for the four fixed setting blocks.

    Each row is a multinomial draw over the outcome pairs with
    P(x, y | a, b) = (1 + x*y*E(a, b)) / 4, so marginals are unbiased.
    """
    if not 0 < pairs_per_setting < INT64_LIMIT:
        raise ValueError("pairs_per_setting must be in [1, 2^63 - 1]")
    rng = spawn_rng(seed, "chsh-coincidences")
    counts = np.zeros((4, 4), dtype=np.int64)
    for row, (a, b) in enumerate(settings.setting_pairs):
        correlation = model.correlation(a, b)
        probs = [(1.0 + x * y * correlation) / 4.0 for x, y in OUTCOME_ORDER]
        counts[row] = rng.multinomial(pairs_per_setting, probs)
    return counts


def chsh_value(counts: np.ndarray) -> ChshEstimate:
    """CHSH statistic from a 4x4 counts table.

    The combination is S = E(a,b') - E(a,b) - E(a',b) - E(a',b'), the signing
    that reaches +2*sqrt(2) for the singlet convention at the default angles.
    The standard error propagates per-setting binomial variances with a 1/N
    floor so it stays positive even for saturated correlators.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.shape != (4, 4):
        raise ValueError("counts table must have shape (4, 4)")
    totals = counts.sum(axis=1)
    if np.any(totals < 1):
        raise ValueError("every setting pair needs at least one count")
    signs = np.array([x * y for x, y in OUTCOME_ORDER], dtype=np.float64)
    correlators = (counts * signs).sum(axis=1) / totals
    s_value = correlators[1] - correlators[0] - correlators[2] - correlators[3]
    variances = np.maximum(1.0 - correlators**2, 1.0 / totals) / totals
    return ChshEstimate(
        S=float(s_value),
        standard_error=float(np.sqrt(variances.sum())),
        counts_per_setting=counts,
    )


def authenticate(estimate: ChshEstimate, policy: AuthPolicy) -> str:
    """Decide authentic / rejected / inconclusive for one link assay.

    Too few pairs in any setting is always inconclusive; otherwise the
    decision needs the whole confidence interval on one side of the
    threshold.
    """
    totals = estimate.counts_per_setting.sum(axis=1)
    if np.any(totals < policy.min_pairs_per_setting):
        return INCONCLUSIVE
    margin = policy.confidence_sigma * estimate.standard_error
    if estimate.S - margin > policy.s_threshold:
        return AUTHENTIC
    if estimate.S + margin < policy.s_threshold:
        return REJECTED
    return INCONCLUSIVE
