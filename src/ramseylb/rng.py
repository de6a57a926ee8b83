"""Seed derivation and pair-keyed coin flips.

Randomness is never drawn from a shared sequential stream.  Child seeds
come from a keyed hash of (parent seed, labels), and single coin flips
are a pure function of (seed, identity string).  Because of this,
colorings commute with taking vertex subsets, and search attempts can
run in any order or in parallel without changing any result.
"""

from __future__ import annotations

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


# The last seed object pair_coin was given, once it passed _checked, and
# its keyed state.  A coloring build or a Monte Carlo trial flips all its
# coins under one seed object, so the state is keyed once and copied per
# coin; a call with any other seed, even an equal int, keys a new state.
# One tuple, read and replaced whole, so no thread can pair a seed with
# another seed's state.
_last_coin: tuple[object, object] = (object(), None)


def pair_coin(seed: int, identity: str) -> int:
    """Unbiased bit fully determined by (seed, identity)."""
    global _last_coin
    last, state = _last_coin
    if seed is not last:
        state = hashlib.blake2b(digest_size=1, key=_seed_bytes(seed), person=b"rlb-coin")
        _last_coin = (seed, state)
    h = state.copy()
    h.update(identity.encode())
    return h.digest()[0] & 1


def make_rng(seed: int) -> random.Random:
    """Mersenne Twister instance seeded from a 64-bit value."""
    return random.Random(_checked(seed))
