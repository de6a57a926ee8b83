import math
import random
import time
from fractions import Fraction

import pytest

from ramseylb.bounds import (
    MAX_RADICAND_BITS,
    TAG_CLASSICAL_2COLOR,
    TAG_CLASSICAL_3COLOR,
    TAG_FIELD_DIRECT,
    TAG_LEFMANN_COMPOSITE,
    TAG_NEW_COMPOSITE,
    _root_overestimate,
    as_slack,
    baseline_bound,
    field_bound,
    floor_power_product,
    growth_rate,
    integer_root,
    new_bound,
)
from ramseylb.errors import ParameterError, ResourceCapError


# ---------------------------------------------------------------------------
# exact arithmetic helpers
# ---------------------------------------------------------------------------

def test_integer_root_exhaustive_small():
    for n in range(1001):
        for k in range(1, 6):
            r = integer_root(n, k)
            assert r**k <= n < (r + 1) ** k


def test_integer_root_of_an_index_past_the_radicand_bits_is_one():
    """n < 2^k gives 1 at once; a root index of 10^40 used to run Newton
    steps from 2, forming 2^(10^40 - 1)."""
    assert integer_root(10, 10**40) == 1
    assert integer_root(2**64 - 1, 64) == 1
    assert integer_root(2**64, 64) == 2


def test_integer_root_big():
    n = 12345678901234567890123456789
    r = integer_root(n**7, 7)
    assert r == n


def test_integer_root_brackets_random_and_near_perfect_powers():
    """x^k <= n < (x+1)^k on random radicands up to 2,000 bits, and on
    perfect k-th powers and their neighbours, where a Newton step that
    stops one early or one late shows."""
    rng = random.Random(16)
    for _ in range(200_000):
        k = rng.randint(1, 12)
        bits = rng.randint(1, 2000)
        if rng.random() < 0.5:
            n = rng.getrandbits(bits)
        else:
            n = max(0, rng.getrandbits(max(1, bits // k)) ** k + rng.randint(-1, 1))
        x = integer_root(n, k)
        assert x**k <= n < (x + 1) ** k, (n, k, x)


def test_integer_root_at_large_root_indices():
    """x^k <= n < (x+1)^k on random radicands up to 2^16 bits at root
    indices up to 65,536; Newton starts above the root, within a factor
    1 + 2^-19 of it plus two."""
    rng = random.Random(22)
    for _ in range(300):
        n = rng.getrandbits(rng.randint(2, MAX_RADICAND_BITS)) | 2
        k = rng.choice([rng.randint(2, 64), rng.randint(2, 1 << 16)])
        x = integer_root(n, k)
        assert x**k <= n < (x + 1) ** k, (n.bit_length(), k)
        start = _root_overestimate(n, k)
        assert start**k > n
        assert (start - 2) << 19 <= (x + 1) * ((1 << 19) + 1)
    # Newton from 2^ceil(bits/k) took 0.16 s for each of these on a 2-core VM
    n = rng.getrandbits(MAX_RADICAND_BITS)
    for k in (1000, 3000):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            integer_root(n, k)
            times.append(time.perf_counter() - start)
        assert min(times) < 0.05, k


def test_floor_power_product_values():
    assert floor_power_product([(2, Fraction(7))]) == 128
    assert floor_power_product([(2, Fraction(1, 2))]) == 1
    assert floor_power_product([(2, Fraction(3, 2))]) == 2  # floor 2.828
    assert floor_power_product([(2, Fraction(57, 8))]) == 139  # floor 2^7.125
    assert floor_power_product([(2, Fraction(2)), (3, Fraction(3, 2))]) == 20
    assert floor_power_product([(2, Fraction(-1))]) == 0  # floor 1/2
    assert floor_power_product([(3, Fraction(2)), (2, Fraction(-3, 2))]) == 3  # floor 9/2.83


@pytest.mark.parametrize("base", [2.5, True, 2.0, Fraction(2), "2", None])
def test_floor_power_product_refuses_a_base_that_is_not_an_int(base):
    # int(b) once read 2.5 as 2 and True as 1
    with pytest.raises(ParameterError, match="must be an int"):
        floor_power_product([(base, Fraction(1))])


def test_floor_power_product_refuses_a_power_over_the_cap_before_forming_it():
    cap = MAX_RADICAND_BITS
    assert floor_power_product([(2, Fraction(cap))]) == 2**cap
    assert floor_power_product([(4, Fraction(cap, 2)), (3, Fraction(-1))]) == 2**cap // 3
    # 2^(cap/2 + 1/2) roots a (cap + 1)-bit power, and 3^cap one of 2 cap bits
    for fs in ([(2, Fraction(cap + 1))], [(2, Fraction(cap + 1, 2))], [(3, Fraction(cap))],
               [(2, Fraction(cap, 2)), (3, Fraction(cap, 4) + 1)],
               [(3, Fraction(10**16))], [(2, Fraction(7, 2) + Fraction(1, 10**100))]):
        start = time.perf_counter()
        with pytest.raises(ResourceCapError):
            floor_power_product(fs)
        assert time.perf_counter() - start < 0.1, fs
    # the tables stay within it: the baseline and new families at 9 colors
    # and t = 1000, the direct bound at q = 7
    assert baseline_bound(1000, 9).value == 3**1500
    assert new_bound(1000, 9).value == 2**2625
    assert field_bound(1000, 7).value == 2**500 * 7**375


def test_floor_power_product_with_negative_exponents_brackets_the_value():
    """With den the product of the negative-exponent powers, the floor m
    of (num/den)^(1/d) satisfies m^d den <= num < (m+1)^d den."""
    rng = random.Random(5)
    for _ in range(2000):
        fs = [
            (rng.randint(1, 40), Fraction(rng.randint(-12, 12), rng.randint(1, 9)))
            for _ in range(rng.randint(1, 4))
        ]
        if all(e >= 0 for _, e in fs):
            fs.append((rng.randint(2, 40), -Fraction(rng.randint(1, 12), rng.randint(1, 9))))
        d = math.lcm(*(e.denominator for _, e in fs))
        num = den = 1
        for b, e in fs:
            k = int(e * d)
            if k >= 0:
                num *= b**k
            else:
                den *= b ** (-k)
        m = floor_power_product(fs)
        assert m**d * den <= num < (m + 1) ** d * den, fs


def test_as_slack_decimal_semantics():
    assert as_slack(0) == 0
    assert as_slack("1/8") == Fraction(1, 8)
    assert as_slack(0.125) == Fraction(1, 8)
    assert as_slack(0.1) == Fraction(1, 10)


# ---------------------------------------------------------------------------
# bound families, t = 8 (all exponents integral)
# ---------------------------------------------------------------------------

def test_baseline_values_t8():
    expected = {2: 2**4, 3: 3**4, 4: 2**8, 5: 2**4 * 3**4, 6: 3**8, 7: 2**8 * 3**4}
    for colors, value in expected.items():
        rec = baseline_bound(8, colors)
        assert rec.value == value
        assert abs(rec.log2_value - math.log2(value)) < 1e-6


def test_baseline_tags():
    assert baseline_bound(8, 2).tag == TAG_CLASSICAL_2COLOR
    assert baseline_bound(8, 3).tag == TAG_CLASSICAL_3COLOR
    for colors in (4, 5, 6, 7):
        assert baseline_bound(8, colors).tag == TAG_LEFMANN_COMPOSITE


def test_new_values_t8():
    expected = {3: 2**7, 4: 2**4 * 3**3, 5: 2**11, 6: 2**14, 7: 2**11 * 3**3, 8: 2**18}
    for colors, value in expected.items():
        rec = new_bound(8, colors)
        assert rec.value == value


def test_new_tags_and_domain():
    assert new_bound(8, 3).tag == TAG_FIELD_DIRECT
    assert new_bound(8, 4).tag == TAG_FIELD_DIRECT
    assert new_bound(8, 5).tag == TAG_NEW_COMPOSITE
    with pytest.raises(ParameterError):
        new_bound(8, 2)


def test_field_bound_matches_new_family_small_primes():
    for t in (8, 16, 24):
        assert field_bound(t, 2).value == new_bound(t, 3).value
        assert field_bound(t, 3).value == new_bound(t, 4).value
    rec = field_bound(8, 5)
    assert rec.colors == 6
    assert rec.value == 2**4 * 5**3
    with pytest.raises(ParameterError):
        field_bound(8, 4)


def test_slack_shifts_value():
    assert new_bound(8, 3, "1/8").value == 139  # floor 2^7.125
    assert new_bound(8, 3, "-1").value == 2**6


def test_growth_rates_match_reported_digits():
    assert abs(growth_rate(new_bound(8, 3)) - 1.834) < 5e-4
    assert abs(growth_rate(new_bound(8, 4)) - 2.135) < 5e-4
    assert abs(growth_rate(baseline_bound(8, 3)) - math.sqrt(3)) < 2e-2
    assert abs(growth_rate(baseline_bound(8, 4)) - 2.0) < 1e-9


# ---------------------------------------------------------------------------
# family-level invariants
# ---------------------------------------------------------------------------

def test_product_identity_for_multiple_of_three_splits():
    # value(l1 + l2) = value(l1) * value(l2) whenever one factor count is 0 mod 3
    for t in (8, 16):
        for l1 in (3, 6):
            for l2 in (3, 4, 5, 6, 7, 8):
                combined = new_bound(t, l1 + l2).value
                assert combined == new_bound(t, l1).value * new_bound(t, l2).value


def test_new_dominates_baseline_from_reported_crossover():
    # the new bound is at least the baseline from t = 4 on
    for colors in range(3, 10):
        for t in range(4, 97):
            assert new_bound(t, colors).value >= baseline_bound(t, colors).value


def test_log2_consistency_grid():
    for t in range(1, 30):
        for colors in range(2, 9):
            rec = baseline_bound(t, colors)
            assert abs(rec.log2_value - math.log2(rec.value)) < 1e-6
            if colors >= 3:
                rec = new_bound(t, colors)
                assert abs(rec.log2_value - math.log2(rec.value)) < 1e-6


def test_flooring_applied_once_at_outermost_level():
    # floor(2^(t/2)) * floor(3^(t/2)) underestimates the joint floor for odd t
    rec = baseline_bound(5, 5)  # 2^2.5 * 3^2.5 = 88.18
    assert rec.value == 88
    separate = floor_power_product([(2, Fraction(5, 2))]) * floor_power_product(
        [(3, Fraction(5, 2))]
    )
    assert separate == 75


def test_domain_validation():
    with pytest.raises(ParameterError):
        baseline_bound(0, 3)
    with pytest.raises(ParameterError):
        baseline_bound(8, 1)
    with pytest.raises(ParameterError):
        integer_root(-1, 2)
    with pytest.raises(ParameterError):
        integer_root(4, 0)
