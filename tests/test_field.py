import itertools
import pickle
import random
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF, Matrix
from sympy.polys.matrices import DomainMatrix

from ramseylb import field as field_module
from ramseylb.errors import DimensionError, FormatError, ParameterError
from ramseylb.field import (
    FieldVector,
    PrimeModulus,
    _eliminate,
    _scalar_products,
    dot,
    is_isotropic,
    is_prime,
    rank,
)

M2, M3, M5, M7 = (PrimeModulus(q) for q in (2, 3, 5, 7))


def fv(modulus, *coords):
    return FieldVector(modulus, tuple(coords))


# ---------------------------------------------------------------------------
# primality / modulus construction
# ---------------------------------------------------------------------------

def test_prime_modulus_accepts_primes():
    for q in (2, 3, 5, 7, 11, 97):
        assert PrimeModulus(q).q == q


# A float or a bool is not a modulus either; 3.0 once printed vectors as "3.0 3 1.0 1.0 1.0".
@pytest.mark.parametrize("bad", [0, 1, 4, 6, 9, 15, 91, 3.0, True, 5.0])
def test_prime_modulus_rejects_composites(bad):
    with pytest.raises(ParameterError):
        PrimeModulus(bad)


def test_is_prime_small_range():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------

def test_coordinates_reduced_eagerly():
    v = fv(M3, 4, -1, 9, 5)
    assert v.coords == (1, 2, 0, 2)


@pytest.mark.parametrize("coords", [(1.7, 1, 2, 0), (True, 1, 2, 0), (1, 1, 2, "0")])
def test_non_int_coordinates_rejected(coords):
    with pytest.raises(ParameterError):
        FieldVector(M3, coords)


def test_empty_vector_rejected():
    with pytest.raises(DimensionError):
        FieldVector(M3, ())


def test_text_form_roundtrip():
    v = fv(M7, 1, 6, 0, 3)
    assert v.text_form() == "7 4 1 6 0 3"
    assert FieldVector.from_text(v.text_form()) == v


def test_text_form_and_self_product_are_kept_on_the_vector_and_pickled_with_it():
    v = fv(M7, 1, 6, 0, 3)
    assert v.text_form() == f"{v.q} {len(v)} " + " ".join(str(c) for c in v.coords)
    assert v.self_product == dot(v, v) == 4
    assert v.text_form() is v.text_form()
    w = pickle.loads(pickle.dumps(v))
    assert w == v and hash(w) == hash(v)
    assert vars(w)["_text"] == v.text_form() and vars(w)["self_product"] == 4
    assert w.text_form() == "7 4 1 6 0 3"
    # a memo is no part of equality, hashing or the repr
    assert fv(M7, 1, 6, 0, 3) == w and repr(fv(M7, 1, 6, 0, 3)) == repr(w)


def reference_vector(q, coords):
    """A vector's reduced coordinates, self-product and text form, by
    generator expressions."""
    reduced = tuple(c % q for c in coords)
    return reduced, sum(c * c for c in reduced) % q, f"{q} {len(reduced)} " + " ".join(str(c) for c in reduced)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_field_vectors_match_the_generator_reference(data):
    """Coordinates of any sign and size; a pickled vector keeps its
    values whether or not its text was read; a bool, float or str among
    the coordinates is refused with the message naming them all."""
    q = data.draw(st.sampled_from([2, 3, 5, 7, 257]))
    coords = tuple(data.draw(st.lists(st.integers(), min_size=1, max_size=12)))
    reduced, product, text = reference_vector(q, coords)
    v = FieldVector(PrimeModulus(q), coords)
    assert v.coords == reduced and v.self_product == product
    fresh = pickle.loads(pickle.dumps(v))
    assert v.text_form() == text
    for w in (fresh, pickle.loads(pickle.dumps(v))):
        assert w == v and w.coords == reduced and w.self_product == product and w.text_form() == text
    bad = data.draw(st.sampled_from([True, False, 1.0, -2.5, "1"]))
    spoiled = list(coords)
    spoiled.insert(data.draw(st.integers(0, len(coords))), bad)
    with pytest.raises(ParameterError) as exc:
        FieldVector(PrimeModulus(q), tuple(spoiled))
    assert str(exc.value) == f"coordinates must be int: {tuple(spoiled)!r}"


def test_from_text_tests_its_modulus_for_primality_once(monkeypatch):
    tested = []

    def spy(n):
        tested.append(n)
        return is_prime(n)

    monkeypatch.setattr(field_module, "is_prime", spy)
    assert FieldVector.from_text("7 4 1 6 0 3") == fv(M7, 1, 6, 0, 3)
    assert tested == [7]
    tested.clear()
    with pytest.raises(FormatError, match="^vector line has non-prime modulus 9$"):
        FieldVector.from_text("9 2 1 1")
    assert tested == [9]


@pytest.mark.parametrize("line, message", [
    ("", "vector line needs q, t and coordinates: ''"),
    ("7 1", "vector line needs q, t and coordinates: '7 1'"),
    ("7 2 1 x", "non-integer token in vector line: '7 2 1 x'"),
    ("7 3 1 6", "vector line declares t=3 but has 2 coordinates"),
    ("7 2 1 7", "vector coordinate outside [0, 7): '7 2 1 7'"),
    ("7 2 -1 0", "vector coordinate outside [0, 7): '7 2 -1 0'"),
    ("7 3 0 8 1", "vector coordinate outside [0, 7): '7 3 0 8 1'"),
    ("7 3 6 0 -100", "vector coordinate outside [0, 7): '7 3 6 0 -100'"),
    ("7 2 1 1.0", "non-integer token in vector line: '7 2 1 1.0'"),
    ("7 x 1 1", "non-integer token in vector line: '7 x 1 1'"),
    ("7 3 1 6 0 3", "vector line declares t=3 but has 4 coordinates"),
])
def test_from_text_rejects_malformed_lines(line, message):
    with pytest.raises(FormatError) as exc:
        FieldVector.from_text(line)
    assert str(exc.value) == message


def test_dot_examples():
    # zero vector
    assert dot(fv(M3, 0, 0, 0, 0), fv(M3, 1, 2, 1, 0)) == 0
    # 1*1 + 1*2 = 3 = 0 mod 3
    assert dot(fv(M3, 1, 1, 1, 0), fv(M3, 1, 2, 0, 0)) == 0
    assert dot(fv(M2, 1, 1, 0), fv(M2, 1, 0, 1)) == 1


def test_dot_dimension_errors():
    with pytest.raises(DimensionError):
        dot(fv(M3, 1, 2), fv(M3, 1, 2, 0))
    with pytest.raises(DimensionError):
        dot(fv(M3, 1, 2), fv(M5, 1, 2))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_dot_symmetric_and_bilinear(data):
    q = data.draw(st.sampled_from([2, 3, 5, 7]))
    t = data.draw(st.integers(min_value=1, max_value=5))
    modulus = PrimeModulus(q)
    coords = st.tuples(*[st.integers(0, q - 1)] * t)
    u = FieldVector(modulus, data.draw(coords))
    v = FieldVector(modulus, data.draw(coords))
    w = FieldVector(modulus, data.draw(coords))
    assert dot(u, v) == dot(v, u)
    u_plus_w = FieldVector(modulus, tuple(a + b for a, b in zip(u.coords, w.coords)))
    assert dot(u_plus_w, v) == (dot(u, v) + dot(w, v)) % q


def test_is_isotropic_examples():
    assert is_isotropic(fv(M5, 0, 0, 0))
    assert is_isotropic(fv(M2, 1, 1, 0))
    assert not is_isotropic(fv(M3, 1, 0, 0, 0))


# ---------------------------------------------------------------------------
# the scalar-product kernel
# ---------------------------------------------------------------------------

def pairwise_products(coords, q):
    """The per-pair loop the kernel replaced, row i holding j > i."""
    return [[sum(map(mul, x, y)) % q for y in coords[i + 1 :]] for i, x in enumerate(coords[:-1])]


BIG_PRIME = 2**32 + 15


@pytest.mark.parametrize("q, t", [
    (2, 1), (3, 1), (5, 1), (11, 1), (257, 1), (BIG_PRIME, 1),
    (2, 255),  # t(q-1)^2 = 255, the largest one-byte digit
    (17, 1),  # t(q-1)^2 = 256, the smallest two-byte digit
    (2, 9), (3, 4), (5, 4), (3, 63), (3, 64), (11, 2), (11, 3), (257, 6), (BIG_PRIME, 3),
])
@pytest.mark.parametrize("n", [2, 3, 50])
def test_scalar_products_match_the_pairwise_loop(q, t, n):
    assert is_prime(q)
    w = next(w for w in itertools.count(1) if 256**w > t * (q - 1) ** 2)
    rng = random.Random(q * 1000 + t * 10 + n)
    # Two all-(q-1) vectors give the largest digit the layout must hold.
    coords = [(q - 1,) * t] * 2 + [tuple(rng.randrange(q) for _ in range(t)) for _ in range(n - 2)]
    rows = list(_scalar_products(coords, q))
    assert all(isinstance(row, bytes) == (w == 1) for row in rows)
    assert [list(row) for row in rows] == pairwise_products(coords, q)
    assert rows[0][0] == t * (q - 1) ** 2 % q


def test_scalar_products_of_fewer_than_two_vectors():
    assert list(_scalar_products([], 3)) == []
    assert list(_scalar_products([(1, 2)], 3)) == []


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------

def span_size(vectors):
    """Oracle: |span| = q^rank, by enumerating all linear combinations."""
    q = vectors[0].q
    seen = set()
    for coeffs in itertools.product(range(q), repeat=len(vectors)):
        acc = tuple(coeffs[0] * a % q for a in vectors[0].coords)
        for c, v in zip(coeffs[1:], vectors[1:]):
            acc = tuple((a + c * b) % q for a, b in zip(acc, v.coords))
        seen.add(acc)
    size = len(seen)
    r = 0
    while q**r < size:
        r += 1
    assert q**r == size
    return r


def test_rank_empty():
    assert rank([]) == 0


def test_rank_duplicate_rows():
    assert rank([fv(M2, 1, 1, 0), fv(M2, 1, 1, 0)]) == 1


def test_rank_matches_span_oracle():
    vs = [fv(M3, 1, 1, 1, 0), fv(M3, 0, 1, 2, 0), fv(M3, 1, 2, 0, 0)]
    assert rank(vs) == 2
    assert span_size(vs) == 2


def test_rank_invariant_under_permutation_and_scaling():
    rng = random.Random(5)
    for q in (2, 3, 5):
        modulus = PrimeModulus(q)
        for _ in range(10):
            vs = [
                FieldVector(modulus, tuple(rng.randrange(q) for _ in range(4)))
                for _ in range(rng.randrange(1, 5))
            ]
            r = rank(vs)
            shuffled = vs[:]
            rng.shuffle(shuffled)
            assert rank(shuffled) == r
            scaled = []
            for v in vs:
                c = rng.randrange(1, q)
                scaled.append(FieldVector(modulus, tuple(c * a % q for a in v.coords)))
            assert rank(scaled) == r


def test_rank_mixed_dimensions_error():
    with pytest.raises(DimensionError):
        rank([fv(M3, 1, 2, 0), fv(M3, 1, 2)])


# ---------------------------------------------------------------------------
# elimination, against sympy
# ---------------------------------------------------------------------------

# Small primes, plus one on each side of q^2 = 2^63: above it, products
# of two entries overflow a 64-bit integer type.
ORACLE_PRIMES = (2, 3, 5, 7, 2147483659, 4294967311)


def test_det_mod_hand_values():
    assert _eliminate([[1, 2], [3, 4]], 5)[1] == 3  # det -2
    assert _eliminate([[2]], 7)[1] == 2
    assert _eliminate([[1, 1], [1, 1]], 3)[1] == 0


def test_det_mod_requires_square():
    # a non-square matrix has a rank but no determinant
    assert _eliminate([[1, 2, 3], [4, 5, 6]], 7) == (2, None)
    assert _eliminate([[1, 2], [3, 4], [5, 6]], 7) == (2, None)


def test_row_echelon_pivot_count_matches_rank():
    mat = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert _eliminate(mat, 7)[0] == 2
    assert rank([fv(M7, *row) for row in mat]) == 2


@pytest.mark.parametrize("q", ORACLE_PRIMES)
def test_elimination_matches_sympy(q):
    rng = random.Random(q)
    for trial in range(60):
        n_rows, n_cols = rng.randrange(1, 6), rng.randrange(1, 6)
        if trial % 2:
            n_cols = n_rows
        # low-rank products as well as random matrices, so rank and
        # determinant both see their degenerate cases
        if trial % 3 == 0:
            k = rng.randrange(1, min(n_rows, n_cols) + 1)
            left = [[rng.randrange(q) for _ in range(k)] for _ in range(n_rows)]
            right = [[rng.randrange(q) for _ in range(n_cols)] for _ in range(k)]
            mat = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
        else:
            mat = [[rng.randrange(q) for _ in range(n_cols)] for _ in range(n_rows)]
        r, det = _eliminate(mat, q)
        assert r == DomainMatrix.from_list(mat, GF(q)).rank()
        if n_rows == n_cols:
            assert det == Matrix(mat).det() % q
        else:
            assert det is None
