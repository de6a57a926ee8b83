import math

import pytest

from ramseylb.coloring import (
    ConstructionParams,
    EdgeColoring,
    build_field_coloring,
    build_paley,
    build_two_color,
    field_provenance,
    pair_identity,
)
from ramseylb.errors import CapacityError, DimensionError, FormatError, ParameterError
from ramseylb.field import FieldVector, PrimeModulus, dot
from ramseylb.isotropic import enumerate_isotropic, sample_distinct
from ramseylb.rng import derive_seed, make_rng, pair_coin

M2, M3, M5 = PrimeModulus(2), PrimeModulus(3), PrimeModulus(5)


def fv(modulus, *coords):
    return FieldVector(modulus, tuple(coords))


def edges(col):
    """(i, j, color) of every edge i < j, read from the rows."""
    for i, row in enumerate(col.rows):
        for j, c in enumerate(row, i + 1):
            yield i, j, c


# ---------------------------------------------------------------------------
# the color of one pair: the construction on two vertices
# ---------------------------------------------------------------------------

def pair_color(u, v, seed):
    params = ConstructionParams(u.modulus, len(u), seed, n=2)
    return build_field_coloring(params, [u, v]).rows[0][0]


def test_nonzero_product_color_is_seed_independent():
    u = fv(M3, 1, 1, 1, 0)  # self product 0
    v = fv(M3, 0, 1, 1, 1)
    assert dot(u, v) == 2
    for seed in range(50):
        assert pair_color(u, v, seed) == 2


def test_unit_product_example():
    u = fv(M2, 1, 1, 0, 0, 0)
    v = fv(M2, 1, 0, 1, 0, 0)
    assert pair_color(u, v, 3) == 1


def test_zero_product_coin_colors_and_frequency():
    u = fv(M2, 0, 1, 1, 0, 0)
    v = fv(M2, 0, 0, 0, 1, 1)
    assert dot(u, v) == 0
    seen = [pair_color(u, v, seed) for seed in range(10_000)]
    assert set(seen) <= {2, 3}
    freq = seen.count(2) / len(seen)
    se = math.sqrt(0.25 / len(seen))
    assert abs(freq - 0.5) <= 5 * se


def test_two_vertex_build_rejects_duplicate_and_anisotropic():
    u = fv(M3, 1, 1, 1, 0)
    with pytest.raises(ParameterError):
        pair_color(u, u, 0)
    with pytest.raises(ParameterError):
        pair_color(u, fv(M3, 1, 0, 0, 0), 0)


def test_pair_identity_is_order_free():
    u = fv(M3, 1, 1, 1, 0)
    v = fv(M3, 0, 1, 1, 1)
    assert pair_identity(u, v) == pair_identity(v, u)


# ---------------------------------------------------------------------------
# the (q+1)-color construction
# ---------------------------------------------------------------------------

def test_field_coloring_color_rule_on_full_ground_set():
    vs = enumerate_isotropic(M2, 5).vectors  # 16 vectors
    params = ConstructionParams(M2, 5, seed=11, n=len(vs))
    col = build_field_coloring(params, vs)
    assert col.num_colors == 3
    for i, j, c in edges(col):
        d = dot(vs[i], vs[j])
        if d != 0:
            assert c == d
        else:
            assert c in (2, 3)


def test_field_coloring_deterministic():
    vs = enumerate_isotropic(M3, 4).vectors[:12]
    params = ConstructionParams(M3, 4, seed=21, n=12)
    assert build_field_coloring(params, vs).to_text() == build_field_coloring(params, vs).to_text()


def test_field_provenance_reads_what_the_build_writes():
    vs = enumerate_isotropic(M3, 4).vectors[:12]
    col = build_field_coloring(ConstructionParams(M3, 4, seed=2**64 - 1, n=12), vs)
    assert field_provenance(col) == (3, 4, 12, 2**64 - 1)
    assert field_provenance(EdgeColoring.from_text(col.to_text())) == (3, 4, 12, 2**64 - 1)
    # an induced coloring keeps the line, but not the n it names
    assert field_provenance(col.induced(range(5))) is None
    assert field_provenance(build_paley(13)) is None
    assert field_provenance(EdgeColoring(2, 4, ((1,),))) is None


def test_field_coloring_restriction_consistency():
    vs = enumerate_isotropic(M2, 5).vectors
    params = ConstructionParams(M2, 5, seed=33, n=len(vs))
    full = build_field_coloring(params, vs)
    subset = [1, 4, 7, 8, 12, 15]
    direct = build_field_coloring(
        ConstructionParams(M2, 5, seed=33, n=len(subset)), [vs[i] for i in subset]
    )
    assert full.induced(subset) == direct


def reference_build(params, vertices):
    """The per-pair build the pair loop replaced: one dot, one
    pair_identity and, on a zero product, one pair_coin per pair."""
    q = params.modulus.q
    rows = tuple(
        tuple(
            dot(u, v) or q + pair_coin(params.seed, pair_identity(u, v))
            for v in vertices[i + 1 :]
        )
        for i, u in enumerate(vertices[:-1])
    )
    prov = (f"field-coloring q={q} t={params.t} n={params.n} seed={params.seed}",)
    return EdgeColoring(params.n, q + 1, rows, prov)


@pytest.mark.parametrize("q, t, n", [(2, 5, 16), (3, 4, 33), (5, 4, 145), (2, 9, 200)])
def test_field_coloring_matches_per_pair_reference(q, t, n):
    ground = enumerate_isotropic(PrimeModulus(q), t)
    for seed in (1, 2, 2**64 - 1):
        verts = sample_distinct(ground, n, make_rng(derive_seed(seed, "sample")))
        params = ConstructionParams(ground.modulus, t, seed, n)
        got = build_field_coloring(params, verts).to_text().splitlines()
        assert got == reference_build(params, verts).to_text().splitlines()


def reference_bitsets(col, color):
    adj = [0] * col.n
    for i, j, c in edges(col):
        if c == color:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


@pytest.mark.parametrize("q, t, n", [(3, 4, 33), (5, 4, 145)])
def test_color_class_bitsets_match_pairs_reference(q, t, n):
    ground = enumerate_isotropic(PrimeModulus(q), t)
    verts = sample_distinct(ground, n, make_rng(derive_seed(7, "sample")))
    col = build_field_coloring(ConstructionParams(ground.modulus, t, 7, n), verts)
    for color in range(1, q + 2):
        assert col.color_class_bitsets(color) == reference_bitsets(col, color)

def test_construction_params_validation():
    with pytest.raises(ParameterError):
        ConstructionParams(M2, 4, seed=0, n=4)  # t = 0 mod q
    with pytest.raises(ParameterError):
        ConstructionParams(M3, 4, seed=0, n=1)


def test_field_coloring_input_validation():
    vs = list(enumerate_isotropic(M3, 4).vectors[:5])
    params = ConstructionParams(M3, 4, seed=0, n=5)
    with pytest.raises(ParameterError):
        build_field_coloring(params, vs[:4])
    # the per-vertex checks here are the only ones the pair loop relies on:
    # another dimension or modulus is a DimensionError, checked first
    for bad in (fv(M3, 0, 0, 0), fv(M3, 1, 0, 0), fv(M5, 0, 0, 0, 0)):
        with pytest.raises(DimensionError):
            build_field_coloring(params, vs[:4] + [bad])
    # a duplicate or a non-self-orthogonal vertex is a ParameterError of
    # its own, not a DimensionError
    for bad in (vs[0], fv(M3, 1, 0, 0, 0)):
        with pytest.raises(ParameterError) as info:
            build_field_coloring(params, vs[:4] + [bad])
        assert not isinstance(info.value, DimensionError)


# ---------------------------------------------------------------------------
# two-color construction
# ---------------------------------------------------------------------------

def reference_binary_vectors(length, n, seed):
    """The n distinct vectors of F_2^length that build_two_color draws:
    rejection-sampled from its seeded stream, in first-draw order."""
    rng = make_rng(derive_seed(seed, "binary-vertices"))
    chosen = []
    while len(chosen) < n:
        v = fv(M2, *(rng.randrange(2) for _ in range(length)))
        if v not in chosen:
            chosen.append(v)
    return chosen


def test_two_color_rule_matches_dot():
    col = build_two_color(4, 40, seed=5)
    verts = reference_binary_vectors(8, 40, seed=5)
    for i, j, c in edges(col):
        assert c == (1 if dot(verts[i], verts[j]) == 0 else 2)


def test_two_color_not_isotropy_filtered():
    # with a fixed seed some sampled vectors have odd weight
    verts = reference_binary_vectors(8, 40, seed=5)
    assert any(sum(v.coords) % 2 == 1 for v in verts)


def test_two_color_determinism_and_symmetry():
    a = build_two_color(4, 40, seed=6)
    b = build_two_color(4, 40, seed=6)
    assert a.to_text() == b.to_text()
    # the rule reads a pair the same way in either order
    verts = reference_binary_vectors(8, 40, seed=6)
    for i, j, c in edges(a):
        assert c == (1 if dot(verts[j], verts[i]) == 0 else 2)


def test_two_color_capacity():
    with pytest.raises(CapacityError):
        build_two_color(1, 5, seed=0)  # 2^2 = 4 < 5
    assert build_two_color(1, 4, seed=0).n == 4
    with pytest.raises(ParameterError):
        build_two_color(0, 5, seed=0)
    with pytest.raises(ParameterError):
        build_two_color(3, 1, seed=0)


# ---------------------------------------------------------------------------
# quadratic-residue coloring
# ---------------------------------------------------------------------------

def test_paley_5_is_the_pentagon():
    col = build_paley(5)
    cycle = {frozenset(((i, (i + 1) % 5))) for i in range(5)}
    for i, j, c in edges(col):
        assert c == (1 if frozenset((i, j)) in cycle else 2)


def test_paley_13_is_6_regular():
    col = build_paley(13)
    adj = col.color_class_bitsets(1)
    assert all(a.bit_count() == 6 for a in adj)


def test_paley_rejects_3_mod_4_and_composites():
    with pytest.raises(ParameterError):
        build_paley(7)
    with pytest.raises(ParameterError):
        build_paley(15)


# ---------------------------------------------------------------------------
# EdgeColoring container + file format
# ---------------------------------------------------------------------------

def test_coloring_accessor_and_validation():
    col = EdgeColoring(3, 2, ((1, 2), (2,)))
    assert list(edges(col)) == [(0, 1, 1), (0, 2, 2), (1, 2, 2)]
    with pytest.raises(ParameterError):
        EdgeColoring(3, 2, ((1, 3), (2,)))  # color out of range
    with pytest.raises(ParameterError):
        EdgeColoring(3, 2, ((1,), (2,)))  # bad row length


def test_file_format_roundtrip():
    col = build_paley(13)
    text = col.to_text()
    parsed = EdgeColoring.from_text(text)
    assert parsed == col
    assert parsed.to_text() == text


def test_file_format_rejects_malformed():
    good = build_paley(5).to_text()
    cases = [
        "bogus\n" + good,
        good.replace("n=5 colors=2", "n=5colors=2"),
        good.replace("n=5", "n=6"),  # wrong data line count
        good[:-3] + "9\n",  # out-of-range color
        good + "1 1\n",  # trailing junk
    ]
    for text in cases:
        with pytest.raises(FormatError):
            EdgeColoring.from_text(text)


def test_file_format_names_the_bad_data_line():
    good = build_paley(5).to_text().splitlines()
    head = len(good) - 4  # magic, header and provenance before 4 data lines
    for k in range(1, 5):
        for row, message in (("1 x", f"non-integer color on data line {k}"),
                             ("1.5", f"non-integer color on data line {k}"),
                             ("", f"row {k - 1} has 0 colors, expected {5 - k}"),
                             ("  ", f"row {k - 1} has 0 colors, expected {5 - k}")):
            lines = list(good)
            lines[head + k - 1] = row
            with pytest.raises(FormatError) as exc:
                EdgeColoring.from_text("\n".join(lines) + "\n")
            assert str(exc.value) == message, (k, row)


def test_induced_validation():
    col = build_paley(5)
    with pytest.raises(ParameterError):
        col.induced([])
    with pytest.raises(ParameterError):
        col.induced([0, 0, 1])
    for bad in ([0, -1], [-1, 2], [5, 0], [0, 1, 99], [7]):
        with pytest.raises(ParameterError):
            col.induced(bad)
