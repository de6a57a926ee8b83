"""Arithmetic over prime fields F_q: vectors, dot products, elimination.

Field elements are canonical integers in [0, q); every operation reduces
eagerly so equality and text serialization are bit-exact.  Rank and
determinant come from one forward elimination on Python integers, which
stays exact for every prime modulus.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import DimensionError, FormatError, ParameterError, ResourceCapError, _require_ints

# The primes up to 41.  The strong probable-prime test to all of them as
# bases is exact below MAX_PRIME_TEST, psi_13 (Sorenson and Webster,
# "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017);
# is_prime raises ResourceCapError for an n at or above it that none of
# them divides.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_PRIME_TEST = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Whether n is prime: trial division by _BASES, then Miller-Rabin to
    each of them, at most 13 modular powers of n - 1."""
    _require_ints(n=n)
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    if n >= MAX_PRIME_TEST:
        raise ResourceCapError(f"{n} is past the primality test's cap {MAX_PRIME_TEST}")
    # n - 1 = d 2^s with d odd
    m = n - 1
    s = (m & -m).bit_length() - 1
    d = m >> s
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeModulus:
    """A prime modulus q; composite values are rejected at construction."""

    q: int

    def __post_init__(self) -> None:
        _require_ints(q=self.q)
        if not is_prime(self.q):
            raise ParameterError(f"modulus must be prime, got {self.q}")


def _text_modulus(q: int) -> PrimeModulus:
    """The modulus a vector line names; a composite q, or one past
    MAX_PRIME_TEST, is a FormatError."""
    try:
        return PrimeModulus(q)
    except ParameterError as exc:
        raise FormatError(f"vector line has non-prime modulus {q}") from exc
    except ResourceCapError as exc:
        raise FormatError(f"vector line has modulus {q} past the primality test's cap") from exc


@dataclass(frozen=True)
class FieldVector:
    """A vector over F_q with coordinates reduced into [0, q).

    Its self-product <v, v> in F_q, the attribute ``self_product``, is
    computed at construction, as every vector is read by it when it
    enters an IsotropicSet.  Its text form is computed on the first call
    of text_form and kept in the instance dict, so a ground set of
    262,144 vectors holds no text it never renders.  Both are plain
    instance attributes, pickled with the vector, so a vector shared
    across builds pays for them once; neither takes part in equality,
    hashing or the repr.
    """

    modulus: PrimeModulus
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        coords = self.coords
        if len(coords) == 0:
            raise DimensionError("vector must have at least one coordinate")
        if operator.countOf(map(type, coords), int) != len(coords):
            raise ParameterError(f"coordinates must be int: {coords!r}")
        q = self.modulus.q
        # Written to the instance dict, past the frozen __setattr__.
        attrs = self.__dict__
        attrs["coords"] = reduced = tuple(map(q.__rmod__, coords))
        attrs["self_product"] = sum(map(operator.mul, reduced, reduced)) % q

    @property
    def q(self) -> int:
        return self.modulus.q

    def __len__(self) -> int:
        return len(self.coords)

    def text_form(self) -> str:
        """``q t c1 ... ct``, the serialization used inside file formats."""
        attrs = self.__dict__
        text = attrs.get("_text")
        if text is None:
            text = attrs["_text"] = f"{self.modulus.q} {len(self.coords)} " + " ".join(map(str, self.coords))
        return text

    @classmethod
    def from_text(cls, line: str, modulus: PrimeModulus | None = None) -> "FieldVector":
        """The vector a ``q t c1 ... ct`` line names.  A modulus given for
        the line's q spares q another primality test."""
        if not isinstance(line, str):
            raise FormatError(f"vector line must be a str, not {type(line).__name__}")
        parts = line.split()
        if len(parts) < 3:
            raise FormatError(f"vector line needs q, t and coordinates: {line!r}")
        try:
            q, t = int(parts[0]), int(parts[1])
            coords = tuple(map(int, parts[2:]))
        except ValueError as exc:
            raise FormatError(f"non-integer token in vector line: {line!r}") from exc
        if len(coords) != t:
            raise FormatError(f"vector line declares t={t} but has {len(coords)} coordinates")
        if modulus is None or modulus.q != q:
            modulus = _text_modulus(q)
        if min(coords) < 0 or max(coords) >= q:
            raise FormatError(f"vector coordinate outside [0, {q}): {line!r}")
        return cls(modulus, coords)


def _check_compatible(u: FieldVector, v: FieldVector) -> None:
    if u.modulus != v.modulus or len(u) != len(v):
        raise DimensionError("vectors differ in modulus or length")


def dot(u: FieldVector, v: FieldVector) -> int:
    """Scalar product of u and v in F_q."""
    _check_compatible(u, v)
    return sum(a * b for a, b in zip(u.coords, v.coords)) % u.q


def _scalar_products(coords: Sequence[Sequence[int]], q: int) -> Iterator[bytes | list[int]]:
    """Row i < len(coords) - 1: <c_i, c_j> mod q for j > i, from one big-int
    product by Kronecker substitution (D. Harvey, "Faster polynomial
    multiplication via multipoint Kronecker substitution", J. Symbolic
    Comput. 2009).  The c_i are equal-length tuples over [0, q), of length t.

    A digit is w bytes, B = 256^w > t(q-1)^2.  Row i packs c_i as x_i =
    sum_k c_ik B^k, and Y_i holds c_j reversed in slot j - i - 1 of S = 2t - 1
    digits.  A digit of x_i Y_i sums at most t products below (q-1)^2, so
    none carries, and digit S(j - i - 1) + t - 1 is <c_i, c_j>.  A row is
    bytes when w = 1, reduced mod q by one translate, else a list.
    """
    t = len(coords[0]) if coords else 1
    s, w = 2 * t - 1, ((t * (q - 1) ** 2).bit_length() + 7) // 8
    pack = bytes if w == 1 else lambda v: b"".join(c.to_bytes(w, "little") for c in v)
    mod_q = (bytes(range(q)) * 256)[:256] if w == 1 else None
    y = int.from_bytes(b"".join(pack(v[::-1]) + bytes(w * (t - 1)) for v in coords), "little")
    for i, v in enumerate(coords[:-1]):
        y >>= 8 * w * s
        prod = int.from_bytes(pack(v), "little") * y
        row = prod.to_bytes(w * s * (len(coords) - 1 - i), "little")
        if w == 1:
            yield row[t - 1 :: s].translate(mod_q)
        else:
            yield [int.from_bytes(row[k : k + w], "little") % q
                   for k in range(w * (t - 1), len(row), w * s)]


def is_isotropic(v: FieldVector) -> bool:
    """True iff v is orthogonal to itself."""
    return v.self_product == 0


def _eliminate(rows: Sequence[Sequence[int]], q: int) -> tuple[int, int | None]:
    """Forward elimination over F_q with row swaps, on Python ints.

    Returns the rank and, for a square matrix, the determinant (None
    otherwise).  Python ints never overflow, so any prime q is exact.
    """
    m = [[x % q for x in row] for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    det = 1
    r = 0
    for c in range(n_cols):
        sel = next((i for i in range(r, n_rows) if m[i][c]), None)
        if sel is None:
            det = 0
            continue
        if sel != r:
            m[r], m[sel] = m[sel], m[r]
            det = -det
        piv = m[r][c]
        det = det * piv % q
        inv = pow(piv, q - 2, q)
        for i in range(r + 1, n_rows):
            if m[i][c]:
                f = m[i][c] * inv % q
                m[i] = [(a - f * b) % q for a, b in zip(m[i], m[r])]
        r += 1
        if r == n_rows:
            break
    return r, (det % q if n_rows == n_cols else None)


def rank(vectors: Sequence[FieldVector]) -> int:
    """Rank over F_q by elimination; 0 for the empty list."""
    vs = list(vectors)
    if not vs:
        return 0
    first = vs[0]
    for v in vs[1:]:
        _check_compatible(first, v)
    return _eliminate([v.coords for v in vs], first.q)[0]
