import itertools
import math
from fractions import Fraction

import pytest

from ramseylb.errors import CapacityError, DimensionError, ParameterError, ResourceCapError
from ramseylb.field import FieldVector, PrimeModulus, is_isotropic, is_prime
from ramseylb.isotropic import (
    IsotropicSet,
    _isotropic_coords,
    _isotropic_count,
    bernoulli_subset,
    enumerate_isotropic,
    sample_distinct,
)
from ramseylb.rng import make_rng

M2, M3, M5 = PrimeModulus(2), PrimeModulus(3), PrimeModulus(5)


def brute_count(q, t):
    """Oracle: count solutions of sum of squares = 0 by raw iteration."""
    count = 0
    for x in range(q**t):
        coords = []
        v = x
        for _ in range(t):
            coords.append(v % q)
            v //= q
        if sum(c * c for c in coords) % q == 0:
            count += 1
    return count


def test_enumerate_q2_t3_exact_members():
    vs = enumerate_isotropic(M2, 3)
    assert [v.coords for v in vs.vectors] == [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]


def test_enumerate_q2_t1_only_zero():
    vs = enumerate_isotropic(M2, 1)
    assert [v.coords for v in vs.vectors] == [(0,)]


def test_enumerate_q3_t4_count_33():
    vs = enumerate_isotropic(M3, 4)
    assert len(vs) == 33
    assert brute_count(3, 4) == 33


def test_enumerate_lexicographic_and_clean():
    vs = enumerate_isotropic(M3, 3)
    coords = [v.coords for v in vs.vectors]
    assert coords == sorted(coords)
    assert len(set(coords)) == len(coords)
    assert all(is_isotropic(v) for v in vs.vectors)


def test_isotropic_coords_match_the_filter_over_all_tuples():
    """The listing completed by square roots mod q, against every tuple of
    F_q^t kept when its sum of squares is 0 mod q: the same tuples in the
    same order, for q^t <= 2 * 10^5."""
    for q in (2, 3, 5, 7, 11, 13):
        for t in range(1, 8):
            if q**t > 2 * 10**5:
                break
            kept = [c for c in itertools.product(range(q), repeat=t) if sum(x * x for x in c) % q == 0]
            assert list(_isotropic_coords(q, t)) == kept, (q, t)
    assert list(_isotropic_coords(999983, 1)) == [(0,)]


@pytest.mark.parametrize("q,t", [(2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5), (5, 3), (5, 4)])
def test_cardinality_bounds(q, t):
    vs = enumerate_isotropic(PrimeModulus(q), t)
    count = len(vs)
    assert count == brute_count(q, t)
    assert count * q * q >= q**t
    assert count <= q**t


def test_isotropic_count_matches_the_enumeration():
    """The closed form of |V| against the enumeration, for every prime
    q < 40 and 1 <= t <= 11 with q^t <= 5 * 10^4, both parities of t and
    both classes of q mod 4 included."""
    checked = set()
    for q in (q for q in range(2, 40) if is_prime(q)):
        for t in range(1, 12):
            if q**t > 5 * 10**4:
                break
            assert _isotropic_count(q, t) == len(enumerate_isotropic(PrimeModulus(q), t)), (q, t)
            checked.add((q % 4, t % 4))
    assert {(1, 2), (3, 2), (1, 0), (3, 0), (1, 1), (3, 3)} <= checked


def test_enumerate_cap_guard():
    with pytest.raises(ResourceCapError):
        enumerate_isotropic(M2, 25, cap=10**6)


def test_isotropic_set_validation():
    with pytest.raises(ParameterError):
        IsotropicSet(M3, 4, (FieldVector(M3, (1, 0, 0, 0)),))
    v = FieldVector(M3, (0, 0, 0, 0))
    with pytest.raises(ParameterError):
        IsotropicSet(M3, 4, (v, v))


def test_sample_distinct_properties():
    vs = enumerate_isotropic(M3, 4)
    picked = sample_distinct(vs, 10, make_rng(9))
    assert len(picked) == 10
    assert len({v.coords for v in picked}) == 10
    assert picked == sample_distinct(vs, 10, make_rng(9))
    with pytest.raises(CapacityError):
        sample_distinct(vs, 34, make_rng(9))
    with pytest.raises(ParameterError, match="^sample size must be non-negative$"):
        sample_distinct(vs, -1, make_rng(9))


def test_bernoulli_subset_edges_and_determinism():
    vs = enumerate_isotropic(M2, 4)
    assert bernoulli_subset(vs, 0, make_rng(4)) == []
    assert bernoulli_subset(vs, 1, make_rng(4)) == list(vs.vectors)
    a = bernoulli_subset(vs, 0.5, make_rng(4))
    b = bernoulli_subset(vs, 0.5, make_rng(4))
    assert a == b
    for bad in (-0.1, 1.1):
        with pytest.raises(ParameterError):
            bernoulli_subset(vs, bad, make_rng(4))


def reference_bernoulli_subset(ground, p, rng):
    """The direct comparison of each draw with p that the threshold replaced."""
    return [v for v in ground.vectors if rng.random() < p]


@pytest.mark.parametrize("q, t", [(3, 4), (2, 7)])
def test_bernoulli_subset_matches_float_comparison(q, t):
    vs = enumerate_isotropic(PrimeModulus(q), t)
    for p in (0, 0.3, 1 / 3, 0.5, Fraction(1, 2), Fraction(2, 3), 1):
        for seed in (0, 1, 2**64 - 1):
            got, ref = make_rng(seed), make_rng(seed)
            for _ in range(3):
                assert bernoulli_subset(vs, p, got) == reference_bernoulli_subset(vs, p, ref)
            # one draw per vector, so the stream stays in step
            assert got.random() == ref.random()


class _Draws:
    """Stands in for a generator, returning the given floats in turn."""

    def __init__(self, xs):
        self.xs = iter(xs)

    def random(self):
        return next(self.xs)


def test_bernoulli_subset_is_exact_next_to_float_p():
    vs = enumerate_isotropic(M2, 3)  # 4 vectors
    tiny = Fraction(1, 10**30)
    for p in (0.3, 1 / 3, Fraction(1, 3), Fraction(1, 10), Fraction(1, 2), Fraction(2, 3), tiny, 1 - tiny):
        f = float(p)
        draws = [math.nextafter(f, 0), f, math.nextafter(f, 1), 0.0]
        got = bernoulli_subset(vs, p, _Draws(draws))
        assert got == reference_bernoulli_subset(vs, p, _Draws(draws)), p
    # float(1/3) lies below 1/3 and float(1/10) above 1/10
    assert len(bernoulli_subset(vs, Fraction(1, 3), _Draws([1 / 3] * 4))) == 4
    assert bernoulli_subset(vs, Fraction(1, 10), _Draws([0.1] * 4)) == []


def test_bernoulli_subset_keeps_roughly_half():
    vs = enumerate_isotropic(M2, 6)  # 32 vectors
    total = sum(len(bernoulli_subset(vs, 0.5, make_rng(500 + k))) for k in range(200))
    mean = total / 200
    se = math.sqrt(32 * 0.25 / 200)
    assert abs(mean - 16) <= 5 * se


def test_isotropic_set_names_the_first_duplicate():
    a, b, c = enumerate_isotropic(M3, 4).vectors[1:4]
    for vectors, first in [((a, b, a, b), a), ((a, b, b, a), b), ((c, a, b, c, a), c)]:
        with pytest.raises(ParameterError) as info:
            IsotropicSet(M3, 4, vectors)
        assert str(info.value) == f"duplicate vector: {first.coords}"
    # checked vectors keep their self-product, so a second set over the same
    # vectors checks modulus, dimension and duplicates again, not them
    IsotropicSet(M3, 4, (a, b, c))
    with pytest.raises(DimensionError):
        IsotropicSet(M5, 4, (a, b))
    with pytest.raises(DimensionError):
        IsotropicSet(M3, 3, (a,))
    bad = FieldVector(M3, (1, 0, 0, 0))
    assert not is_isotropic(bad)
    with pytest.raises(ParameterError, match="^vector is not self-orthogonal: "):
        IsotropicSet(M3, 4, (a, bad))
