"""The ground set of self-orthogonal vectors: enumeration and sampling."""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from random import Random
from typing import Iterator

from .errors import CapacityError, DimensionError, ParameterError, ResourceCapError, _require_ints
from .field import FieldVector, PrimeModulus, is_isotropic

DEFAULT_ENUM_CAP = 10**6


@dataclass(frozen=True)
class IsotropicSet:
    """An ordered, duplicate-free collection of self-orthogonal vectors."""

    modulus: PrimeModulus
    dimension: int
    vectors: tuple[FieldVector, ...]

    def __post_init__(self) -> None:
        """One pass per vector, modulus and dimension, then the
        self-product (kept on the vector); then duplicates, by the size
        of the set of coordinate tuples."""
        q, dimension = self.modulus.q, self.dimension
        for v in self.vectors:
            if v.modulus.q != q or len(v.coords) != dimension:
                raise DimensionError("vector does not match the set's modulus or dimension")
            if not is_isotropic(v):
                raise ParameterError(f"vector is not self-orthogonal: {v.coords}")
        if len({v.coords for v in self.vectors}) != len(self.vectors):
            seen: set[tuple[int, ...]] = set()
            for v in self.vectors:
                if v.coords in seen:
                    raise ParameterError(f"duplicate vector: {v.coords}")
                seen.add(v.coords)

    def __len__(self) -> int:
        return len(self.vectors)


def _check_enumeration_cap(q: int, t: int, cap: int = DEFAULT_ENUM_CAP) -> None:
    """Raise ResourceCapError when F_q^t has more than cap vectors.  Callers
    run this before q's primality test, whose trial division takes time
    growing as sqrt(q), and leave a q that is not an int above 1 to
    PrimeModulus.  q^t >= 2^t is over the cap once t passes the cap's bit
    length; the power is then not computed, and no message writes it out."""
    if type(t) is not int or type(cap) is not int:
        raise ParameterError(f"dimension t={t!r} and enumeration cap {cap!r} must be ints")
    if t < 1:
        raise ParameterError("dimension t must be positive")
    if cap < 1:
        raise ParameterError(f"enumeration cap {cap} must be positive")
    if type(q) is int and q > 1 and (t > cap.bit_length() or q**t > cap):
        raise ResourceCapError(f"q^t = {q}^{t} exceeds enumeration cap {cap}")


def _isotropic_count(q: int, t: int) -> int:
    """|V|, the number of self-orthogonal vectors of F_q^t, the zero vector
    included, for a prime q and t >= 1, without enumerating them:
    2^(t-1) for q = 2, where x^2 = x; q^(t-1) for odd q and odd t; and
    q^(t-1) + (q-1) q^(t/2-1) eta((-1)^(t/2)) for odd q and even t, eta
    the quadratic character of F_q, so eta(-1) = 1 exactly when q = 1
    mod 4 (Lidl and Niederreiter, Finite Fields, section 6.2)."""
    if q == 2:
        return 2 ** (t - 1)
    if t % 2:
        return q ** (t - 1)
    eta = 1 if t % 4 == 0 or q % 4 == 1 else -1
    return q ** (t - 1) + eta * (q - 1) * q ** (t // 2 - 1)


def _isotropic_coords(q: int, t: int) -> Iterator[tuple[int, ...]]:
    """The coordinate tuples of the self-orthogonal vectors of F_q^t, in
    lexicographic order, for callers that have checked q and t."""
    return (c for c in itertools.product(range(q), repeat=t) if sum(map(operator.mul, c, c)) % q == 0)


def enumerate_isotropic(modulus: PrimeModulus, t: int, cap: int = DEFAULT_ENUM_CAP) -> IsotropicSet:
    """All vectors of F_q^t orthogonal to themselves, in lexicographic order."""
    _check_enumeration_cap(modulus.q, t, cap)
    vectors = tuple(FieldVector(modulus, coords) for coords in _isotropic_coords(modulus.q, t))
    return IsotropicSet(modulus, t, vectors)


def sample_distinct(ground: IsotropicSet, n: int, rng: Random) -> list[FieldVector]:
    """Uniformly random n-subset of the ground set, in sampling order."""
    _require_ints(n=n)
    if n < 0:
        raise ParameterError("sample size must be non-negative")
    if n > len(ground):
        raise CapacityError(f"requested {n} distinct vectors from a set of {len(ground)}")
    return rng.sample(ground.vectors, n)


def _float_threshold(p) -> float:
    """The float f with x < f exactly when x < p, for every float x.

    float(p) is a nearest float to p, so no float lies strictly between
    the two: f is float(p), or, when float(p) rounded p down, the next
    float up.  A float p is its own threshold.
    """
    f = float(p)
    if f < p:
        f = math.nextafter(f, 1)
    return f


def bernoulli_subset(ground: IsotropicSet, p, rng: Random) -> list[FieldVector]:
    """Retain each vector independently with probability p.

    One ``rng.random()`` per vector, kept when it is below p, compared
    exactly through one float threshold (see _float_threshold), so a
    Fraction p costs one float comparison per draw, not one Fraction per
    draw.
    """
    if not 0 <= p <= 1:
        raise ParameterError(f"probability {p} outside [0, 1]")
    f = _float_threshold(p)
    return [v for v in ground.vectors if rng.random() < f]
