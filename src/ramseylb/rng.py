"""Seed derivation and pair-keyed coin flips.

Randomness is never drawn from a shared sequential stream.  Child seeds
come from a keyed hash of (parent seed, labels), and single coin flips
are a pure function of (seed, identity string).  Because of this,
colorings commute with taking vertex subsets, and search attempts can
run in any order or in parallel without changing any result.
"""

from __future__ import annotations

import functools
import hashlib
import random

from .errors import ParameterError

_SEED_LIMIT = 1 << 64


def _checked(seed: int) -> int:
    """The seed itself, when it is an int in [0, 2^64); seeds are never
    reduced, so distinct seeds never share a stream."""
    if not isinstance(seed, int):
        raise ParameterError(f"seed {seed!r} is not an integer")
    if not 0 <= seed < _SEED_LIMIT:
        raise ParameterError(f"seed {seed} outside [0, 2^64)")
    return seed


def _seed_bytes(seed: int) -> bytes:
    return _checked(seed).to_bytes(8, "big")


def derive_seed(seed: int, *labels: object) -> int:
    """Stable 64-bit child seed for (seed, labels)."""
    h = hashlib.blake2b(digest_size=8, person=b"rlb-seed")
    h.update(_seed_bytes(seed))
    for label in labels:
        h.update(str(label).encode())
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "big")


# A coloring build or a Monte Carlo trial flips all its coins under one
# seed, so the keyed state is made once per seed and copied per coin.
# The cache holds a few states, never one per seed seen.
@functools.lru_cache(maxsize=4)
def _coin_state(seed: int):
    return hashlib.blake2b(digest_size=1, key=_seed_bytes(seed), person=b"rlb-coin")


def pair_coin(seed: int, identity: str) -> int:
    """Unbiased bit fully determined by (seed, identity)."""
    # The seed is checked before the cache is asked, which would take a
    # float equal to a cached int for that int.
    h = _coin_state(_checked(seed)).copy()
    h.update(identity.encode())
    return h.digest()[0] & 1


def make_rng(seed: int) -> random.Random:
    """Mersenne Twister instance seeded from a 64-bit value."""
    return random.Random(_checked(seed))
