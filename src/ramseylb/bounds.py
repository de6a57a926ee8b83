"""Exact evaluation of the lower-bound families.

Every bound is an exact integer: products of prime powers with rational
exponents are floored once, at the outermost level, via integer k-th
roots.  Tables therefore stay honest lower bounds even when exponents
are not integral.  The lower-order slack term defaults to 0, which is
the conservative choice.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .errors import ParameterError, ResourceCapError, _require_ints
from .field import is_prime

SlackLike = Union[int, float, str, Fraction]

# The most bits of the power that floor_power_product roots, and so of a
# bound's value.  A root of a random power of this size took at most
# 0.03 s on a 2-core VM, at root indices from 2 to 65,536, while the
# tables of the package's tests and benchmark need a few hundred bits.
# It also keeps the colors of a `bounds` table, whose baseline power
# grows with them, small enough for the primality test of colors - 1.
MAX_RADICAND_BITS = 2**16

TAG_CLASSICAL_2COLOR = "classical-2color"
TAG_CLASSICAL_3COLOR = "classical-3color"
TAG_LEFMANN_COMPOSITE = "lefmann-composite"
TAG_FIELD_DIRECT = "field-direct"
TAG_NEW_COMPOSITE = "new-composite"


def as_slack(value: SlackLike) -> Fraction:
    """Exact rational slack; floats are read through their decimal repr."""
    try:
        return Fraction(repr(value) if isinstance(value, float) else value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"slack {value!r} is not a finite rational") from exc


def _root_overestimate(n: int, k: int) -> int:
    """An integer x0 > n^(1/k), for n >= 2 and k >= 2, from the top 64
    bits of n by float.

    With s the bits below those 64 and top = n >> s, log2 n < L =
    log2(top + 1) + s.  Computed in floats, each of the operations below
    errs by at most 2^-52 relative, and log2 of a 64-bit integer by at
    most 2^-46, so e = (L / k)(1 + 2^-40) + 2^-20 exceeds L / k by more
    than 2^-21.  With e = w + f, w its integer part, m = int(2^(f + 52)) + 1
    exceeds 2^(f + 52)(1 - 2^-47), so x0 = ((m << w) >> 52) + 1 >
    2^(e - 2^-46) > 2^(L / k) > n^(1/k).  x0 is within about a factor
    1 + 2^-20 of n^(1/k), plus one, so Newton's steps start near their
    quadratic phase; from 2^ceil(bits/k), a factor-2 overestimate, they
    would first shrink it by only about 1 - 1/k a step.
    """
    shift = max(n.bit_length() - 64, 0)
    e = (math.log2((n >> shift) + 1) + shift) / k * (1 + 2.0**-40) + 2.0**-20
    whole = int(e)
    return ((int(2.0 ** (e - whole + 52)) + 1 << whole) >> 52) + 1


def integer_root(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 0, k >= 1, computed exactly.

    The integer Newton steps y = ((k-1)x + n // x^(k-1)) // k, from
    x0 > n^(1/k) (see _root_overestimate), stop exactly at
    r = floor(n^(1/k)):
    - y is the floor of the mean of k - 1 copies of x and n / x^(k-1),
      which by AM-GM is at least n^(1/k), so y >= r from every x;
    - from x > r, x^k > n, so n / x^(k-1) < x and y < x.
    The iterates therefore fall strictly while above r, never below it,
    and the first step that does not fall is the one from r.
    """
    _require_ints(n=n, k=k)
    if k < 1:
        raise ParameterError("root index must be positive")
    if n < 0:
        raise ParameterError("radicand must be non-negative")
    if k == 1 or n < 2:
        return n
    x = _root_overestimate(n, k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def floor_power_product(factors: Iterable[tuple[int, Fraction]]) -> int:
    """floor of a product of integer bases raised to rational exponents.

    With d the exponents' common denominator, the d-th root is taken of
    the product of the powers b^(e d) with e > 0, at most 2^bits with
    bits the sum of e d ceil(log2 b); the result is at most 2^(bits / d).
    When bits exceeds MAX_RADICAND_BITS, ResourceCapError is raised
    before any power is formed.
    """
    fs = [(int(b), Fraction(e)) for b, e in factors]
    for b, _ in fs:
        if b < 1:
            raise ParameterError("bases must be positive")
    d = 1
    for _, e in fs:
        d = math.lcm(d, e.denominator)
    bits = sum(int(e * d) * (b - 1).bit_length() for b, e in fs if e > 0)
    if bits > MAX_RADICAND_BITS:
        raise ResourceCapError(f"bound needs a {bits}-bit power, above the cap of {MAX_RADICAND_BITS} bits")
    num = 1
    den = 1
    for b, e in fs:
        k = int(e * d)
        if k >= 0:
            num *= b**k
        else:
            den *= b ** (-k)
    # For an integer m, m^d <= num/den exactly when m^d <= num // den.
    return integer_root(num // den, d)


@dataclass(frozen=True)
class BoundRecord:
    """One evaluated lower bound: exact integer value plus its log2."""

    t: int
    colors: int
    tag: str
    value: int
    log2_value: float


def _record(t: int, colors: int, tag: str, factors: list[tuple[int, Fraction]]) -> BoundRecord:
    value = max(1, floor_power_product(factors))
    return BoundRecord(t, colors, tag, value, math.log2(value))


def baseline_bound(t: int, colors: int) -> BoundRecord:
    """Classical bound for the given color count, composed per colors mod 3."""
    _require_ints(t=t, colors=colors)
    if t < 1:
        raise ParameterError("t must be positive")
    if colors < 2:
        raise ParameterError("need at least two colors")
    k, rem = divmod(colors, 3)
    half_t = Fraction(t, 2)
    if rem == 0:
        factors = [(3, k * half_t)]
        tag = TAG_CLASSICAL_3COLOR if colors == 3 else TAG_LEFMANN_COMPOSITE
    elif rem == 1:
        factors = [(2, Fraction(t)), (3, (k - 1) * half_t)]
        tag = TAG_LEFMANN_COMPOSITE
    else:
        factors = [(2, half_t), (3, k * half_t)]
        tag = TAG_CLASSICAL_2COLOR if colors == 2 else TAG_LEFMANN_COMPOSITE
    return _record(t, colors, tag, factors)


def new_bound(t: int, colors: int, slack: SlackLike = 0) -> BoundRecord:
    """Improved bound family; slack stands in for the lower-order term."""
    _require_ints(t=t, colors=colors)
    if t < 1:
        raise ParameterError("t must be positive")
    if colors < 3:
        raise ParameterError("the improved family starts at three colors")
    s = as_slack(slack)
    k, rem = divmod(colors, 3)
    eighth = Fraction(t, 8)
    if rem == 0:
        factors = [(2, 7 * k * eighth + s)]
    elif rem == 1:
        factors = [(2, 7 * (k - 1) * eighth + Fraction(t, 2)), (3, 3 * eighth + s)]
    else:
        factors = [(2, 7 * k * eighth + Fraction(t, 2) + s)]
    tag = TAG_FIELD_DIRECT if colors in (3, 4) else TAG_NEW_COMPOSITE
    return _record(t, colors, tag, factors)


def field_bound(t: int, q: int, slack: SlackLike = 0) -> BoundRecord:
    """Direct bound 2^(t/2) q^(3t/8 + slack) for q+1 colors, q prime."""
    _require_ints(t=t, q=q)
    if not is_prime(q):
        raise ParameterError(f"{q} is not prime")
    if t < 1:
        raise ParameterError("t must be positive")
    s = as_slack(slack)
    factors = [(2, Fraction(t, 2)), (q, Fraction(3 * t, 8) + s)]
    return _record(t, q + 1, TAG_FIELD_DIRECT, factors)


def growth_rate(record: BoundRecord) -> float:
    """Per-t growth factor value^(1/t)."""
    if record.t < 1:
        raise ParameterError("growth rate needs t >= 1")
    exponent = record.log2_value / record.t
    if exponent >= sys.float_info.max_exp:
        raise ResourceCapError(f"growth rate 2^{exponent:.6f} exceeds the float range")
    return 2.0**exponent
