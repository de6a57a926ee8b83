import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseylb.cli import _construct_sample
from ramseylb.cliques import (
    PotentialClique,
    _degeneracy_order,
    _k_cliques,
    _max_clique_mask,
    _orthogonal_tuples,
    clique_gram_det,
    enumerate_potential_cliques,
    max_monochromatic_clique,
    monochromatic_cliques,
    rank_count_bound,
)
from ramseylb.coloring import ConstructionParams, EdgeColoring, build_field_coloring, build_paley
from ramseylb.errors import ParameterError, ResourceCapError
from ramseylb.field import PrimeModulus, dot, rank
from ramseylb.isotropic import DEFAULT_ENUM_CAP, IsotropicSet, enumerate_isotropic

M2, M3, M5 = PrimeModulus(2), PrimeModulus(3), PrimeModulus(5)


def edge_color(col, i, j):
    """Color of the edge {i, j}, read from the rows."""
    i, j = min(i, j), max(i, j)
    return col.rows[i][j - i - 1]


def brute_max_clique(col, color):
    """Oracle: exhaustive subset check, feasible up to n ~ 12."""
    n = col.n
    for size in range(n, 1, -1):
        for sub in itertools.combinations(range(n), size):
            if all(edge_color(col, a, b) == color for a, b in itertools.combinations(sub, 2)):
                return size
    return 1


def random_coloring(rng, n, num_colors):
    rows = tuple(
        tuple(rng.randrange(1, num_colors + 1) for _ in range(n - 1 - i)) for i in range(n - 1)
    )
    return EdgeColoring(n, num_colors, rows)


# ---------------------------------------------------------------------------
# exact search
# ---------------------------------------------------------------------------

def test_search_agrees_with_brute_force_up_to_12_vertices():
    rng = random.Random(20)
    for _ in range(25):
        n = rng.randrange(2, 13)
        ell = rng.choice([1, 2, 3])
        col = random_coloring(rng, n, ell)
        for color in range(1, ell + 1):
            w = max_monochromatic_clique(col, color)
            assert w.size == brute_max_clique(col, color)
            for a, b in itertools.combinations(w.vertices, 2):
                assert edge_color(col, a, b) == color


def test_unused_color_gives_single_vertex():
    col = EdgeColoring(4, 3, ((1, 1, 1), (1, 1), (1,)))
    w = max_monochromatic_clique(col, 3)
    assert w.size == 1


def test_pentagon_coloring_has_no_triangle_either_color():
    col = build_paley(5)  # cycle edges color 1, chords color 2
    assert max_monochromatic_clique(col, 1).size == 2
    assert max_monochromatic_clique(col, 2).size == 2


def test_search_is_deterministic():
    col = build_paley(13)
    a = max_monochromatic_clique(col, 1)
    b = max_monochromatic_clique(col, 1)
    assert a == b


def test_search_color_range_validated():
    col = build_paley(5)
    with pytest.raises(ParameterError):
        max_monochromatic_clique(col, 3)


def test_search_node_cap():
    rows = tuple(tuple(1 for _ in range(9 - i)) for i in range(9))  # K_10, one color
    col = EdgeColoring(10, 1, rows)
    with pytest.raises(ResourceCapError):
        max_monochromatic_clique(col, 1, cap=2)


def reference_max_clique_mask(adj, cap):
    """The search with vertex-by-vertex first-fit coloring and a sort by
    class, as the class-at-a-time coloring replaced it.  Returns the
    clique mask and the number of search nodes."""
    n = len(adj)
    if n == 0:
        return 0, 0
    best_size = 0
    best_mask = 0
    visited = 0

    def expand(size, mask, cand):
        nonlocal best_size, best_mask, visited
        visited += 1
        if visited > cap:
            raise ResourceCapError(f"clique search exceeded {cap} nodes")
        classes = []
        seq = []
        m = cand
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            for ci in range(len(classes)):
                if not adj[v] & classes[ci]:
                    classes[ci] |= low
                    seq.append((v, ci + 1))
                    break
            else:
                classes.append(low)
                seq.append((v, len(classes)))
        seq.sort(key=lambda vc: vc[1])
        remaining = cand
        for v, bound in reversed(seq):
            if size + bound <= best_size:
                return
            vbit = 1 << v
            new_cand = remaining & adj[v]
            if new_cand:
                expand(size + 1, mask | vbit, new_cand)
            elif size + 1 > best_size:
                best_size = size + 1
                best_mask = mask | vbit
            remaining &= ~vbit

    expand(0, 0, (1 << n) - 1)
    return best_mask, visited


def random_bitset_graph(rng, n, density):
    adj = [0] * n
    for a, b in itertools.combinations(range(n), 2):
        if rng.random() < density:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    return adj


def test_search_matches_first_fit_reference_and_cap_boundary():
    rng = random.Random(44)
    for _ in range(150):
        n = rng.randrange(0, 61)
        adj = random_bitset_graph(rng, n, rng.choice([0.0, 0.1, 0.3, 0.5, 0.7, 0.8, 0.85, 0.9, 0.95, 1.0]))
        mask, nodes = reference_max_clique_mask(adj, 10**7)
        assert _max_clique_mask(adj, 10**7) == mask
        assert _max_clique_mask(adj, nodes) == mask
        if nodes:
            with pytest.raises(ResourceCapError):
                _max_clique_mask(adj, nodes - 1)
            # Stopping at the clique number keeps the witness.
            assert _max_clique_mask(adj, nodes, mask.bit_count()) == mask


def reference_degeneracy_order(adj, n):
    """The peeling order as a min over all alive vertices per step, which
    the bucket queue replaced."""
    deg = [adj[v].bit_count() for v in range(n)]
    alive = [True] * n
    order = []
    for _ in range(n):
        v = min((u for u in range(n) if alive[u]), key=lambda u: (deg[u], u))
        alive[v] = False
        order.append(v)
        m = adj[v]
        while m:
            low = m & -m
            u = low.bit_length() - 1
            if alive[u]:
                deg[u] -= 1
            m ^= low
    return order


def test_degeneracy_order_matches_min_scan_reference():
    rng = random.Random(45)
    for _ in range(200):
        n = rng.randrange(0, 81)
        adj = random_bitset_graph(rng, n, rng.choice([0.0, 0.05, 0.2, 0.5, 0.8, 0.95, 1.0, rng.random()]))
        assert _degeneracy_order(adj, n) == reference_degeneracy_order(adj, n)

@st.composite
def colorings(draw):
    n = draw(st.integers(1, 24))
    num_colors = draw(st.integers(2, 4))
    rows = tuple(
        tuple(draw(st.lists(st.integers(1, num_colors), min_size=n - 1 - i, max_size=n - 1 - i)))
        for i in range(n - 1)
    )
    return EdgeColoring(n, num_colors, rows)


@settings(max_examples=80, deadline=None)
@given(colorings())
def test_search_agrees_with_networkx_clique_number(col):
    for color in range(1, col.num_colors + 1):
        g = nx.Graph()
        g.add_nodes_from(range(col.n))
        g.add_edges_from(
            (i, j) for i, row in enumerate(col.rows) for j, c in enumerate(row, i + 1) if c == color
        )
        w = max_monochromatic_clique(col, color)
        assert w.size == max(len(c) for c in nx.find_cliques(g))
        assert all(edge_color(col, a, b) == color for a, b in itertools.combinations(w.vertices, 2))


def test_monochromatic_cliques_match_subset_listing():
    # the whole (3, 4) ground set carries 4-cliques in every color
    ground = enumerate_isotropic(M3, 4).vectors
    col = build_field_coloring(ConstructionParams(M3, 4, 7, len(ground)), ground)
    listed = monochromatic_cliques(col, 4)
    expected = []
    for color in range(1, 5):
        for sub in itertools.combinations(range(col.n), 4):
            if all(edge_color(col, a, b) == color for a, b in itertools.combinations(sub, 2)):
                expected.append((color, sub))
    assert [(w.color, w.vertices) for w in listed] == expected
    with pytest.raises(ResourceCapError):
        monochromatic_cliques(col, 4, cap=10)


# ---------------------------------------------------------------------------
# Gram determinant of an i-clique
# ---------------------------------------------------------------------------

def closed_form_det(i, s, q):
    # eigenvalues over the integers: i(s-1) once, -i with multiplicity s-1
    return (s - 1) * (-1) ** (s - 1) * i**s % q


def test_gram_det_examples():
    assert clique_gram_det(1, 1, M5) == 0  # 1x1 zero matrix
    assert clique_gram_det(1, 3, M5) == 2
    assert clique_gram_det(2, 4, M3) == 0  # 4 = 1 mod 3


def test_gram_det_matches_closed_form_spot():
    for q in (2, 3, 5, 7):
        modulus = PrimeModulus(q)
        for i in range(1, q):
            for s in (1, 2, 3, 7, 12):
                got = clique_gram_det(i, s, modulus)
                assert got == closed_form_det(i, s, q)
                assert (got == 0) == (s % q == 1)


def test_gram_det_rejects_zero_color():
    with pytest.raises(ParameterError):
        clique_gram_det(0, 3, M5)
    with pytest.raises(ParameterError):
        clique_gram_det(3, 3, M3)


# ---------------------------------------------------------------------------
# potential cliques
# ---------------------------------------------------------------------------

def brute_potential_cliques(ground, t):
    vecs = ground.vectors
    out = []
    for sub in itertools.combinations(range(len(vecs)), t):
        if all(dot(vecs[a], vecs[b]) == 0 for a, b in itertools.combinations(sub, 2)):
            out.append(tuple(vecs[k] for k in sub))
    return out


def test_potential_cliques_q2_t4_frozen():
    ground = enumerate_isotropic(M2, 4)
    cliques = enumerate_potential_cliques(ground, 4)
    got = {tuple(v.coords for v in c.vectors) for c in cliques}
    expected = {
        ((0, 0, 0, 0), (0, 0, 1, 1), (1, 1, 0, 0), (1, 1, 1, 1)),
        ((0, 0, 0, 0), (0, 1, 0, 1), (1, 0, 1, 0), (1, 1, 1, 1)),
        ((0, 0, 0, 0), (0, 1, 1, 0), (1, 0, 0, 1), (1, 1, 1, 1)),
    }
    assert got == expected
    assert all(c.rank == 2 for c in cliques)


def test_potential_cliques_match_brute_force_q3_t4():
    ground = enumerate_isotropic(M3, 4)
    cliques = enumerate_potential_cliques(ground, 4)
    brute = brute_potential_cliques(ground, 4)
    assert len(cliques) == len(brute) == 1008
    assert {tuple(v.coords for v in c.vectors) for c in cliques} == {
        tuple(v.coords for v in b) for b in brute
    }



def reference_potential_cliques(ground, t):
    """The enumeration that took every product with dot, which the product
    table replaced."""
    vecs = ground.vectors
    m = len(vecs)
    orth = [0] * m
    for a in range(m):
        for b in range(a + 1, m):
            if dot(vecs[a], vecs[b]) == 0:
                orth[a] |= 1 << b
                orth[b] |= 1 << a
    found = []
    for ids in _k_cliques(orth, t, 10**7, "reference"):
        vs = tuple(vecs[k] for k in ids)
        found.append(PotentialClique(vs, rank(vs), tuple(tuple(dot(x, y) for y in vs) for x in vs)))
    return found


@pytest.mark.parametrize(
    "q, t",
    [(3, 4), (3, 5), (2, 7), (5, 3), (2, 4), (2, 6), (5, 2), (7, 3), (11, 3), (13, 2), (3, 1)],
)
def test_potential_cliques_match_dot_reference(q, t):
    ground = enumerate_isotropic(PrimeModulus(q), t)
    got = enumerate_potential_cliques(ground, t)
    assert got
    assert got == reference_potential_cliques(ground, t)


@pytest.mark.parametrize("q, d, s", [(2, 4, 1), (2, 4, 2), (2, 4, 3), (3, 4, 2), (3, 4, 3)])
def test_potential_cliques_of_size_other_than_the_dimension(q, d, s):
    """Ranks reach min(s, d // 2), not s // 2, when s differs from d."""
    ground = enumerate_isotropic(PrimeModulus(q), d)
    got = enumerate_potential_cliques(ground, s)
    assert got == reference_potential_cliques(ground, s)
    assert max(c.rank for c in got) == min(s, d // 2)


def test_potential_clique_ranks_at_q5_t4_match_elimination():
    """(5,4) mixes ranks 1 and 2; each rank is checked against rank()."""
    ground = enumerate_isotropic(M5, 4)
    cliques = enumerate_potential_cliques(ground, 4)
    by_rank = {r: [c for c in cliques if c.rank == r] for r in (1, 2)}
    assert len(by_rank[1]) == 180 and len(by_rank[2]) == 151440
    assert all(rank(c.vectors) == 1 for c in by_rank[1])
    assert all(rank(c.vectors) == 2 for c in by_rank[2][::97])


@pytest.mark.parametrize("s", [2, 3, 4])
def test_potential_cliques_of_a_ground_set_without_zero(s):
    """A hand-built set without the zero vector, so the empty prefix's
    span holds no ground vector."""
    full = enumerate_isotropic(M3, 4)
    ground = IsotropicSet(M3, 4, full.vectors[1:])
    got = enumerate_potential_cliques(ground, s)
    assert got
    assert got == reference_potential_cliques(ground, s)


def test_potential_clique_structure():
    ground = enumerate_isotropic(M3, 4)
    for c in enumerate_potential_cliques(ground, 4):
        assert c.rank <= 2
        assert all(all(x == 0 for x in row) for row in c.gram)
        assert rank(c.vectors) == c.rank


def test_potential_cliques_of_part_of_the_ground_set():
    """Any isotropic set is enumerated, here the first 10 of 33 vectors."""
    full = enumerate_isotropic(M3, 4)
    partial = IsotropicSet(M3, 4, full.vectors[:10])
    assert enumerate_potential_cliques(partial, 4) == reference_potential_cliques(partial, 4)


@pytest.mark.parametrize("q, t, size", [(3, 4, None), (3, 5, None), (2, 7, None), (5, 3, None), (3, 4, 10)])
def test_orthogonal_tuples_are_the_potential_cliques_indices(q, t, size):
    """The rank-free listing that the estimators read is the enumeration's
    index tuples, in its order; size 10 takes the first 10 vectors."""
    ground = enumerate_isotropic(PrimeModulus(q), t)
    if size is not None:
        ground = IsotropicSet(ground.modulus, t, ground.vectors[:size])
    index = {v.coords: i for i, v in enumerate(ground.vectors)}
    expected = [
        tuple(index[v.coords] for v in c.vectors) for c in enumerate_potential_cliques(ground, t)
    ]
    assert expected
    assert _orthogonal_tuples(ground, t, 10**7) == expected


def test_potential_cliques_node_cap():
    ground = enumerate_isotropic(M3, 4)
    with pytest.raises(ResourceCapError):
        enumerate_potential_cliques(ground, 4, cap=5)


# ---------------------------------------------------------------------------
# counting bounds
# ---------------------------------------------------------------------------

def test_rank_count_bound_examples():
    assert rank_count_bound(2, 4, 0) == 1
    assert rank_count_bound(2, 4, 2) == 2**11
    assert rank_count_bound(3, 4, 1) == 3**7


def test_rank_count_bound_validation():
    with pytest.raises(ParameterError):
        rank_count_bound(4, 4, 1)
    with pytest.raises(ParameterError):
        rank_count_bound(3, 4, 5)


def ordered_rank_r_count(cliques, r):
    """Ordered tuples whose set has rank r with the first r entries independent."""
    total = 0
    for c in cliques:
        if c.rank != r:
            continue
        for perm in itertools.permutations(c.vectors):
            if rank(perm[:r]) == r:
                total += 1
    return total


def test_ordered_counts_below_bounds_q2_t4():
    ground = enumerate_isotropic(M2, 4)
    cliques = enumerate_potential_cliques(ground, 4)
    for r in (1, 2):
        assert ordered_rank_r_count(cliques, r) <= rank_count_bound(2, 4, r)


# ---------------------------------------------------------------------------
# color-class bound on constructed colorings
# ---------------------------------------------------------------------------

def test_nonzero_color_cliques_never_exceed_t():
    """The Gram bound that verify stops at: on the whole ground set, the
    plain search finds no clique above t in any color below q."""
    for q, t in [(2, 3), (2, 5), (2, 7), (2, 9), (3, 4), (3, 5), (5, 3), (5, 4), (7, 3),
                 (7, 4), (11, 3), (13, 2), (13, 3)]:
        modulus = PrimeModulus(q)
        ground = enumerate_isotropic(modulus, t)
        params = ConstructionParams(modulus, t, seed=77, n=len(ground))
        col = build_field_coloring(params, ground.vectors)
        for i in range(1, q):
            w = max_monochromatic_clique(col, i)
            assert w.size <= t
            # rank equals size when size != 1 mod q
            if w.size % q != 1:
                assert rank([ground.vectors[k] for k in w.vertices]) == w.size


def construct_coloring(q, t, n, seed):
    """The coloring the construct subcommand writes for these arguments."""
    return build_field_coloring(*_construct_sample(q, t, n, seed, DEFAULT_ENUM_CAP))


def test_search_stopped_at_t_returns_the_full_search_witness():
    reached = 0
    for q, t, n, seed in [(3, 4, 33, 1), (3, 4, 33, 271828), (2, 7, 60, 1), (3, 5, 60, 2),
                          (5, 4, 145, 1), (7, 3, 30, 4), (11, 3, 40, 3), (2, 9, 200, 1)]:
        col = construct_coloring(q, t, n, seed)
        for c in range(1, q):
            w = max_monochromatic_clique(col, c, upper=t)
            assert w == max_monochromatic_clique(col, c)
            reached += w.size == t
    assert reached >= 8


def test_stopped_search_fits_under_a_cap_the_full_search_exceeds():
    col = construct_coloring(2, 9, 200, 1)
    for cap in range(1, 100):
        try:
            w = max_monochromatic_clique(col, 1, cap=cap, upper=9)
            break
        except ResourceCapError:
            pass
    else:
        pytest.fail("the search stopped at t = 9 needs 100 nodes or more")
    assert w.size == 9
    with pytest.raises(ResourceCapError):
        max_monochromatic_clique(col, 1, cap=cap)


def test_search_upper_bound_validated():
    with pytest.raises(ParameterError):
        max_monochromatic_clique(build_paley(5), 1, upper=0)
