import dataclasses
import math
import random
import re

import pytest

from ramseylb import coloring as coloring_module
from ramseylb.coloring import (
    ConstructionParams,
    EdgeColoring,
    build_field_coloring,
    build_paley,
    build_two_color,
    field_provenance,
    pair_identity,
)
from ramseylb.compose import blowup_product
from ramseylb.errors import CapacityError, DimensionError, FormatError, ParameterError, ResourceCapError
from ramseylb.field import FieldVector, PrimeModulus, _scalar_products, dot
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


# The last two have t(q - 1)^2 >= 256, so their product rows are lists, not bytes.
@pytest.mark.parametrize(
    "q, t, n", [(2, 5, 16), (3, 4, 33), (5, 4, 145), (2, 9, 200), (11, 3, 60), (13, 2, 25)]
)
def test_field_coloring_matches_per_pair_reference(q, t, n):
    ground = enumerate_isotropic(PrimeModulus(q), t)
    rows = _scalar_products([v.coords for v in ground.vectors[:2]], q)
    assert isinstance(next(rows), list) == (t * (q - 1) ** 2 >= 256)
    for seed in (1, 2, 2**64 - 1):
        verts = sample_distinct(ground, n, make_rng(derive_seed(seed, "sample")))
        params = ConstructionParams(ground.modulus, t, seed, n)
        got = build_field_coloring(params, verts).to_text().splitlines()
        assert got == reference_build(params, verts).to_text().splitlines()


def test_build_flips_one_coin_per_zero_product(monkeypatch):
    calls = []

    def counted(seed, identity):
        calls.append(identity)
        return pair_coin(seed, identity)

    monkeypatch.setattr(coloring_module, "pair_coin", counted)
    for q, t, n in [(3, 4, 33), (5, 4, 145), (2, 9, 200)]:
        ground = enumerate_isotropic(PrimeModulus(q), t)
        verts = sample_distinct(ground, n, make_rng(derive_seed(q, "sample")))
        calls.clear()
        build_field_coloring(ConstructionParams(ground.modulus, t, 5, n), verts)
        zeros = [pair_identity(u, v) for i, u in enumerate(verts) for v in verts[i + 1 :] if dot(u, v) == 0]
        assert 0 < len(zeros) < math.comb(n, 2)
        assert calls == zeros


def reference_bitsets(col, color):
    adj = [0] * col.n
    for i, j, c in edges(col):
        if c == color:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


def sampled_field_coloring(q, t, n):
    ground = enumerate_isotropic(PrimeModulus(q), t)
    verts = sample_distinct(ground, n, make_rng(derive_seed(7, "sample")))
    return build_field_coloring(ConstructionParams(ground.modulus, t, 7, n), verts)


def random_coloring(n, num_colors, seed):
    rng = random.Random(seed)
    rows = tuple(tuple(rng.randint(1, num_colors) for _ in range(n - 1 - i)) for i in range(n - 1))
    return EdgeColoring(n, num_colors, rows)


# Up to 255 colors the classes are read from a byte matrix; a larger
# palette, here 300 colors of which many are past 255, takes the
# per-pair loop.
BITSET_CASES = {
    "3-4-33": lambda: sampled_field_coloring(3, 4, 33),
    "5-4-145": lambda: sampled_field_coloring(5, 4, 145),
    "2-9-200": lambda: sampled_field_coloring(2, 9, 200),
    "n1": lambda: EdgeColoring(1, 3, ()),
    "n2": lambda: EdgeColoring(2, 3, ((2,),)),
    "paley13": lambda: build_paley(13),
    "paley13-squared": lambda: blowup_product(build_paley(13), build_paley(13)),
    "two-color-4-40-5": lambda: build_two_color(4, 40, 5),
    "random-300-colors": lambda: random_coloring(60, 300, 1),
}


@pytest.mark.parametrize("case", list(BITSET_CASES))
def test_color_class_bitsets_match_pairs_reference(case):
    col = BITSET_CASES[case]()
    if col.num_colors > 255:
        assert any(c > 255 for row in col.rows for c in row)
    for color in range(1, col.num_colors + 1):
        adj = col.color_class_bitsets(color)
        assert adj == reference_bitsets(col, color)
        # each call returns a list of its own
        adj[0] ^= 1
        assert col.color_class_bitsets(color) == reference_bitsets(col, color)


@pytest.mark.parametrize("col", [build_paley(5), random_coloring(5, 300, 2)], ids=["bytes", "loop"])
def test_color_class_bitsets_reject_colors_outside_the_palette(col):
    # these used to return an empty class
    for color in (0, -1, col.num_colors + 1):
        with pytest.raises(ParameterError, match=rf"color {color} outside \[1, {col.num_colors}\]"):
            col.color_class_bitsets(color)


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
    # So do vertices whose self-product is already kept: a (5,4) vector and
    # a duplicate, both first checked inside a valid set, and a vector that
    # is not self-orthogonal, read before the build.
    other = enumerate_isotropic(M5, 4).vectors[1]
    anisotropic = fv(M3, 1, 0, 0, 0)
    assert anisotropic.self_product != 0
    with pytest.raises(DimensionError):
        build_field_coloring(params, vs[:4] + [other])
    for bad in (vs[1], anisotropic):
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
    # n against 2^(2t) by bit length, on both sides of the power
    with pytest.raises(CapacityError):
        build_two_color(2, 17, seed=0)
    assert build_two_color(2, 16, seed=0).n == 16
    cap = coloring_module.MAX_TWO_COLOR_LENGTH
    for t in (cap // 2 + 1, 10**20):
        with pytest.raises(ResourceCapError, match=f"exceeds the cap {cap}$"):
            build_two_color(t, 4, seed=0)


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
    # n, num_colors and every color must be exactly int
    for args in [(3.0, 2, ((1, 2), (2,))), (3, 2.0, ((1, 2), (2,))), (True, 2, ()),
                 (3, 2, ((1, 1.0), (2,))), (3, 2, ((True, 2), (2,))), (3, 2, ((1, 2), ("2",)))]:
        with pytest.raises(ParameterError):
            EdgeColoring(*args)
    # Each fault is the one a walk pair by pair meets first: a bad color in
    # the middle of a long row, before a later row's bad length or color.
    n = 300
    rows = [[1 + (i + j) % 4 for j in range(n - 1 - i)] for i in range(n - 1)]
    rows[-1] = []
    rows[-2][0] = 0
    for bad, message in [(5, "color 5 outside [1, 4]"), (0, "color 0 outside [1, 4]"),
                         (True, "color True is not an int"), (1.0, "color 1.0 is not an int"),
                         (-1, "color -1 outside [1, 4]"), (256, "color 256 outside [1, 4]")]:
        rows[7][150] = bad
        with pytest.raises(ParameterError) as info:
            EdgeColoring(n, 4, tuple(map(tuple, rows)))
        assert str(info.value) == message
    rows[7][150] = 2
    with pytest.raises(ParameterError, match="^color 0 outside"):
        EdgeColoring(n, 4, tuple(map(tuple, rows)))
    rows[-2][0] = 3
    with pytest.raises(ParameterError, match="^row 298 has 0 colors, expected 1$"):
        EdgeColoring(n, 4, tuple(map(tuple, rows)))
    # a palette above 255 colors holds colors that no byte does
    assert EdgeColoring(3, 300, ((300, 256), (1,))).rows == ((300, 256), (1,))
    with pytest.raises(ParameterError, match=r"^color 301 outside \[1, 300\]$"):
        EdgeColoring(3, 300, ((300, 256), (301,)))


def canonical(col):
    """Whether the rows are in the one form EdgeColoring keeps: a tuple of
    bytes up to 255 colors, a tuple of int tuples above."""
    if type(col.rows) is not tuple:
        return False
    if col.num_colors <= 255:
        return all(type(row) is bytes for row in col.rows)
    return all(type(row) is tuple and all(type(c) is int for c in row) for row in col.rows)


@pytest.mark.parametrize("k", [4, 300])
def test_equal_colorings_compare_and_hash_equal_whatever_their_rows_came_in(k):
    rows = [[1, 2, 4, 3], [2, 2, 1], [4, 1], [3]]
    made = [
        EdgeColoring(5, k, tuple(map(tuple, rows))),
        EdgeColoring(5, k, rows),
        EdgeColoring(5, k, [bytes(row) for row in rows]),
        EdgeColoring(5, k, tuple(bytearray(row) for row in rows)),
        EdgeColoring(5, k, tuple(map(tuple, rows)), ("a provenance line",)),
    ]
    first = made[0]
    for col in made:
        assert canonical(col)
        assert col == first and hash(col) == hash(first)
        assert col.to_text().replace("# a provenance line\n", "") == first.to_text()
    assert len(set(made)) == 1
    assert EdgeColoring(3, 4, ((1, 2), (1,))) == EdgeColoring(3, 4, [[1, 2], [1]])
    assert EdgeColoring(3, 4, ((1, 2), (1,))) != EdgeColoring(3, 4, ((1, 2), (2,)))


def test_every_producer_emits_canonical_rows(monkeypatch):
    ground = enumerate_isotropic(PrimeModulus(257), 2)
    wide = build_field_coloring(ConstructionParams(ground.modulus, 2, 3, 12), ground.vectors[:12])
    assert wide.num_colors == 258
    paley = build_paley(13)
    # Whether the rows each constructor call is handed are already bytes.
    handed = []
    byte_rows = coloring_module._byte_rows

    def spy(rows, n, k):
        handed.append(all(type(row) is bytes for row in rows))
        return byte_rows(rows, n, k)

    monkeypatch.setattr(coloring_module, "_byte_rows", spy)
    makers = {
        "field": lambda: sampled_field_coloring(3, 4, 33),
        "field-2-9": lambda: sampled_field_coloring(2, 9, 60),
        "field-258-colors": lambda: wide,
        "two-color": lambda: build_two_color(4, 40, 5),
        "two-color-list-products": lambda: build_two_color(128, 12, 5),
        "paley": lambda: build_paley(13),
        "digit-codec": lambda: EdgeColoring.from_text(paley.to_text()),
        "general-text": lambda: EdgeColoring.from_text(sampled_field_coloring(11, 3, 30).to_text()),
        "general-text-258-colors": lambda: EdgeColoring.from_text(wide.to_text()),
        "induced": lambda: paley.induced([5, 0, 3, 12]),
        "induced-258-colors": lambda: wide.induced(range(11, 0, -2)),
        "blowup": lambda: blowup_product(paley, build_paley(5)),
        "blowup-258-colors": lambda: blowup_product(wide, paley),
        "replace": lambda: dataclasses.replace(paley, rows=[list(row) for row in paley.rows]),
        "replace-258-colors": lambda: dataclasses.replace(wide, rows=list(wide.rows)),
    }
    # The package's own producers skip the constructor's per-color type scan.
    in_bytes = {"field", "field-2-9", "two-color", "two-color-list-products", "paley", "digit-codec",
                "induced", "blowup"}
    made = {}
    for name, make in makers.items():
        handed.clear()
        made[name] = col = make()
        assert canonical(col), name
        if name in in_bytes:
            assert handed[-1:] == [True], name
    assert made["digit-codec"] == made["replace"] == paley
    assert made["general-text-258-colors"] == made["replace-258-colors"] == wide


_BAD_ROWS = [
    # (the colors of row 2 of n = 6, k, the message)
    ((1, 0, 2), 4, "color 0 outside [1, 4]"),
    ((1, 5, 2), 4, "color 5 outside [1, 4]"),
    ((1, 2), 4, "row 2 has 2 colors, expected 3"),
    ((0, 255, 1), 255, "color 0 outside [1, 255]"),
]


@pytest.mark.parametrize("bad,k,message", _BAD_ROWS + [
    ((1, True, 2), 4, "color True is not an int"),
    ((1, 1.0, 2), 4, "color 1.0 is not an int"),
    ((1, 256, 2), 255, "color 256 outside [1, 255]"),
])
def test_bad_tuple_rows_keep_their_messages(bad, k, message):
    rows = [(1,) * (5 - i) for i in range(5)]
    rows[2] = bad
    # a later fault is not the one reported
    rows[4] = ()
    with pytest.raises(ParameterError) as info:
        EdgeColoring(6, k, tuple(rows))
    assert str(info.value) == message


@pytest.mark.parametrize("bad,k,message", _BAD_ROWS)
def test_bad_bytes_rows_keep_their_messages(bad, k, message):
    rows = [bytes([1]) * (5 - i) for i in range(5)]
    rows[2] = bytes(bad)
    # a later fault is not the one reported
    rows[4] = b""
    with pytest.raises(ParameterError) as info:
        EdgeColoring(6, k, tuple(rows))
    assert str(info.value) == message


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
        good.replace("n=5", "n=" + "5" * 5000),  # more digits than int() reads
        "ramsey-coloring 1\n",  # the magic line alone
        "ramsey-coloring 1",
    ]
    for text in cases:
        with pytest.raises(FormatError):
            EdgeColoring.from_text(text)
    # Not text at all: None used to raise AttributeError.
    for text in (None, good.encode(), 5):
        with pytest.raises(FormatError, match="^coloring text must be a str"):
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


def test_file_format_spells_integers_one_way():
    good = build_paley(5).to_text()
    assert EdgeColoring.from_text(good.replace("1 2 2 1\n", "1  2\t2 1 \n")) == build_paley(5)
    header, data = "n=5 colors=2", "1 2 2 1\n"
    edits = [(header, "n=05 colors=2"), (header, "n=5 colors=02"), (header, "n=+5 colors=2"),
             (header, "n=5 colors=\u0662"), (header, "n=05 colors=02"), (data, "+1 2 2 1\n"),
             (data, "1 02 2 1\n"), (data, "1 2 0_2 1\n"), (data, "1 2 2 \u0661\n"), (data, "+1 02 2 1\n")]
    for old, new in edits:
        bad = good.replace(old, new)
        assert bad != good
        with pytest.raises(FormatError) as exc:
            EdgeColoring.from_text(bad)
        if old == data:
            assert str(exc.value) == "non-canonical integer on data line 1"
    vs = enumerate_isotropic(M3, 4).vectors[:12]
    col = build_field_coloring(ConstructionParams(M3, 4, seed=7, n=12), vs)
    assert field_provenance(col) == (3, 4, 12, 7)
    for line in ("field-coloring q=03 t=4 n=12 seed=7", "field-coloring q=3 t=4 n=12 seed=07",
                 "field-coloring q=3 t=+4 n=12 seed=7", "field-coloring q=3 t=4 n=1_2 seed=7",
                 "field-coloring q=3 t=4 n=12 seed=" + "7" * 5000):
        assert field_provenance(EdgeColoring(col.n, col.num_colors, col.rows, (line,))) is None


def general_to_text(col):
    """The coloring file as str() and " ".join() write it, color by color."""
    lines = [coloring_module.FORMAT_MAGIC, f"n={col.n} colors={col.num_colors}"]
    lines += [f"# {note}" for note in col.provenance]
    lines += [" ".join(str(c) for c in row) for row in col.rows]
    return "\n".join(lines) + "\n"


def parse_outcome(text):
    """The coloring's rows, or the exact message of the FormatError."""
    try:
        return EdgeColoring.from_text(text).rows
    except FormatError as exc:
        return str(exc)


def test_digit_codec_agrees_with_the_general_path(monkeypatch):
    rng = random.Random(21)
    # Respellings the general parse accepts, then edits it refuses.
    blanks = [
        lambda line: line.replace(" ", "  ", 1),
        lambda line: line.replace(" ", "\t", 1),
        lambda line: " " + line,
        lambda line: line + " ",
    ]
    faults = [
        lambda line: "0 " + line,
        lambda line: line[:-1] + "0",
        lambda line: "10 " + line[2:],
        lambda line: "+" + line,
        lambda line: "0" + line,
        lambda line: "\u0661 " + line,
        lambda line: "x " + line[2:],
        lambda line: line[2:],  # one color short
        lambda line: line + " 1",  # one color long
    ]
    cases = []
    for k in range(1, 13):
        for n in (1, 2, 3, 7, 12):
            rows = tuple(tuple(rng.randint(1, k) for _ in range(n - 1 - i)) for i in range(n - 1))
            col = EdgeColoring(n, k, rows, (f"palette {k}",))
            text = col.to_text()
            assert text == general_to_text(col)
            # Parsed rows are bytes: every palette here has at most 12 colors.
            rows = tuple(map(bytes, rows))
            cases.append((text, rows))
            if n < 3:
                continue
            for edit in blanks + faults:
                lines = text.split("\n")
                at = rng.randrange(3, len(lines) - 1)
                lines[at] = edit(lines[at])
                # Some faults are colors 10 and 11 that a wider palette holds.
                expected = rows if edit in blanks else None if k > 9 else str
                cases.append(("\n".join(lines), expected))
    fast = [parse_outcome(text) for text, _ in cases]
    # The general parse alone: no line is read as digits.
    monkeypatch.setattr(coloring_module, "_DIGIT_ROW", re.compile(r"(?!)"))
    assert fast == [parse_outcome(text) for text, _ in cases]
    for outcome, (_, expected) in zip(fast, cases):
        if expected is str:
            assert isinstance(outcome, str)
        elif expected is not None:
            assert outcome == expected


def test_induced_validation():
    col = build_paley(5)
    with pytest.raises(ParameterError):
        col.induced([])
    with pytest.raises(ParameterError):
        col.induced([0, 0, 1])
    for bad in ([0, -1], [-1, 2], [5, 0], [0, 1, 99], [7]):
        with pytest.raises(ParameterError):
            col.induced(bad)
