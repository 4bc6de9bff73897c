"""Deterministic RNG derivation."""

from __future__ import annotations

import numpy as np
import pytest

from qcsync.seeding import derive_rng, spawn_rng, stable_token

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
