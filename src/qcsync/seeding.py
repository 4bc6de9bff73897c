"""Deterministic RNG derivation.

Every stochastic component draws from a generator derived from the master
seed plus a structured path (node id, edge id, event index, ...), so any
single event can be reproduced in isolation and unrelated events stay
bit-independent of each other.
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=4096, typed=True)  # typed: True must not hit the entry for 1
def _token_words(value: int | str) -> tuple[int, ...]:
    """stable_token(value) as SeedSequence splits an int: its little-endian 32-bit words, 0 as (0,)."""
    token = stable_token(value)
    return (token,) if token < 2**32 else (token & 0xFFFFFFFF, token >> 32)


def derive_seed_sequence(master_seed: int, *path: int | str) -> np.random.SeedSequence:
    """SeedSequence of the path's stable tokens, passed as the uint32 words numpy would split them into."""
    words = [w for p in (master_seed, *path) for w in _token_words(p)]
    return np.random.SeedSequence(np.array(words, dtype=np.uint32))


def derive_rng(master_seed: int, *path: int | str) -> np.random.Generator:
    """Generator keyed by (master_seed, *path); identical inputs give identical streams."""
    return np.random.default_rng(derive_seed_sequence(master_seed, *path))
