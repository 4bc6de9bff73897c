"""Deterministic RNG derivation.

Every stochastic component draws from a generator derived from the master
seed plus a structured path (node id, edge id, event index, ...), so any
single event can be reproduced in isolation and unrelated events stay
bit-independent of each other.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["stable_token", "derive_rng", "derive_seed_sequence", "seed_path", "spawn_rng"]

SeedSpec = int | str | tuple


def seed_path(seed: SeedSpec) -> tuple:
    """Normalize a seed spec (bare value or path tuple) to a path tuple."""
    if isinstance(seed, tuple):
        if not seed:
            raise ValueError("seed path must be non-empty")
        return seed
    return (seed,)


def spawn_rng(seed: SeedSpec, *suffix: int | str) -> np.random.Generator:
    """Generator for a sub-stream of ``seed`` named by ``suffix`` elements."""
    return derive_rng(*seed_path(seed), *suffix)


def stable_token(value: int | str) -> int:
    """Map a path element to a stable 64-bit integer (strings are hashed)."""
    if isinstance(value, bool):
        raise TypeError("bool is not a valid seed path element")
    if isinstance(value, int):
        return value & 0xFFFFFFFFFFFFFFFF
    digest = hashlib.sha256(value.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def derive_seed_sequence(master_seed: int, *path: int | str) -> np.random.SeedSequence:
    entropy = [stable_token(master_seed)] + [stable_token(p) for p in path]
    return np.random.SeedSequence(entropy)


def derive_rng(master_seed: int, *path: int | str) -> np.random.Generator:
    """Generator keyed by (master_seed, *path); identical inputs give identical streams."""
    return np.random.default_rng(derive_seed_sequence(master_seed, *path))
