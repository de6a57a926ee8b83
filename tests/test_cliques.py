import itertools
import random
import signal
from dataclasses import replace

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from ramseylb import cliques, coloring, moment
from ramseylb.bounds import integer_root
from ramseylb.cliques import (
    DEFAULT_NODE_CAP,
    MAX_GRAM_SIZE,
    PotentialClique,
    _degeneracy_order,
    _gram_bound,
    _has_clique,
    _k_cliques,
    _max_clique_mask,
    _orthogonal_tuples,
    _relabel,
    clique_gram_det,
    enumerate_potential_cliques,
    max_monochromatic_clique,
    rank_count_bound,
)
from ramseylb.coloring import (
    ConstructionParams,
    EdgeColoring,
    _construct_sample,
    build_field_coloring,
    build_paley,
    build_two_color,
)
from ramseylb.compose import blowup_product
from ramseylb.errors import ParameterError, ResourceCapError
from ramseylb.field import FieldVector, PrimeModulus, dot, is_prime, rank
from ramseylb.isotropic import DEFAULT_ENUM_CAP, IsotropicSet, enumerate_isotropic, sample_distinct
from ramseylb.rng import make_rng

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


def reference_bbmc_mask(adj, upper=None):
    """The class-at-a-time search before the false-twin cut: its clique
    mask and its number of search nodes."""
    n = len(adj)
    if n == 0:
        return 0, 0
    stop = n + 1 if upper is None else upper
    best_size = best_mask = visited = 0
    non_adj = [0] + [~a for a in adj]

    class Reached(Exception):
        pass

    def expand(size, mask, cand):
        nonlocal best_size, best_mask, visited
        visited += 1
        floor = max(best_size - size, 0)
        classes = []
        uncolored = cand
        k = 0
        while uncolored:
            k += 1
            members = 0
            m = uncolored
            while m:
                low = m & -m
                members |= low
                m &= non_adj[low.bit_length()]
                m ^= low
            uncolored ^= members
            if k > floor:
                classes.append(members)
        remaining = cand
        bound = k
        for members in reversed(classes):
            while members:
                if size + bound <= best_size:
                    return
                v = members.bit_length() - 1
                vbit = 1 << v
                members ^= vbit
                new_cand = remaining & adj[v]
                if new_cand:
                    expand(size + 1, mask | vbit, new_cand)
                elif size + 1 > best_size:
                    best_size = size + 1
                    best_mask = mask | vbit
                    if best_size >= stop:
                        raise Reached
                remaining ^= vbit
            bound -= 1

    try:
        expand(0, 0, (1 << n) - 1)
    except Reached:
        pass
    return best_mask, visited


def search_nodes(adj, most, upper=None):
    """The fewest nodes _max_clique_mask succeeds within, at most ``most``;
    it raises the cap error one below."""
    lo, hi = 1, most
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            _max_clique_mask(adj, mid, upper)
            hi = mid
        except ResourceCapError:
            lo = mid + 1
    if lo > 1:
        with pytest.raises(ResourceCapError):
            _max_clique_mask(adj, lo - 1, upper)
    return lo


def with_false_twins(rng, adj, copies):
    """adj with ``copies`` new vertices, each given the neighbourhood of a
    random existing vertex, so a false twin of it."""
    adj = list(adj)
    for _ in range(copies):
        src, v = rng.randrange(len(adj)), len(adj)
        adj.append(adj[src])
        m = adj[src]
        while m:
            low = m & -m
            adj[low.bit_length() - 1] |= 1 << v
            m ^= low
    return adj


def smallest_last(adj):
    return _relabel(adj, _degeneracy_order(adj, len(adj)))


def test_false_twin_cut_keeps_the_witness_and_never_adds_nodes():
    """The same mask as the search before the cut, with and without a
    stop at the clique number, and never more nodes: on graphs with
    planted false twins, the color classes of blow-up products, and the
    kept colorings of (3,4) witnesses at n = 14."""
    rng = random.Random(24)
    cases = [with_false_twins(rng, random_bitset_graph(rng, rng.randrange(1, 45), rng.random()),
                              rng.randrange(1, 12)) for _ in range(150)]
    for _ in range(30):
        product = blowup_product(random_coloring(rng, rng.randrange(2, 10), rng.randrange(1, 4)),
                                 random_coloring(rng, rng.randrange(2, 10), rng.randrange(1, 4)))
        cases += [smallest_last(product.color_class_bitsets(c)) for c in range(1, product.num_colors + 1)]
    for seed in range(1, 41):
        kept = moment.find_witness(3, 4, 14, 200, seed).coloring
        cases += [smallest_last(kept.color_class_bitsets(c)) for c in range(1, 5)]
    assert len(cases) > 150 + 160
    fewer = 0
    for adj in cases:
        mask, nodes = reference_bbmc_mask(adj)
        assert _max_clique_mask(adj, nodes) == mask
        assert _max_clique_mask(adj, nodes, mask.bit_count() or None) == mask
        fewer += search_nodes(adj, nodes) < nodes
        if mask:
            assert search_nodes(adj, nodes, mask.bit_count()) <= reference_bbmc_mask(adj, mask.bit_count())[1]
    assert fewer >= 25


def test_false_twin_cut_on_the_paley_product():
    """The outer colors of Paley(13) x Paley(13) join whole copies, so each
    copy's 13 vertices are false twins there."""
    paley = build_paley(13)
    product = blowup_product(paley, paley)
    for color, before, after in ((1, 54, 6), (2, 392, 8)):
        adj = smallest_last(product.color_class_bitsets(color))
        mask, nodes = reference_bbmc_mask(adj)
        assert nodes == before
        assert _max_clique_mask(adj, after) == mask
        assert search_nodes(adj, nodes) == after


def test_false_twins_are_cut_from_the_root():
    """Twins are found before the first node, so a search of a few nodes
    cuts too: vertices 3 and 4 both have the neighbours 0 and 2."""
    adj = [0b11000, 0b00100, 0b11010, 0b00101, 0b00101]
    mask, nodes = reference_bbmc_mask(adj)
    assert nodes == 3
    assert _max_clique_mask(adj, 2) == mask
    assert search_nodes(adj, nodes) == 2


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


def spread_degree_graph(rng, n):
    """A dense block joined to a sparse remainder, so that degrees spread
    from near 0 to near n and a peel moves neighbours across many levels."""
    block = rng.randrange(n // 4, n // 2)
    adj = [0] * n
    for a, b in itertools.combinations(range(n), 2):
        density = 0.9 if b < block else 0.3 if a < block else 0.03
        if rng.random() < density:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    perm = list(range(n))
    rng.shuffle(perm)
    return reference_relabel(adj, perm)


def test_degeneracy_order_matches_min_scan_reference():
    rng = random.Random(45)
    for _ in range(200):
        n = rng.randrange(0, 81)
        adj = random_bitset_graph(rng, n, rng.choice([0.0, 0.05, 0.2, 0.5, 0.8, 0.95, 1.0, rng.random()]))
        assert _degeneracy_order(adj, n) == reference_degeneracy_order(adj, n)
    for n in (150, 181, 220):
        adj = spread_degree_graph(rng, n)
        degrees = [a.bit_count() for a in adj]
        assert min(degrees) < n // 10 and max(degrees) > n // 2
        assert _degeneracy_order(adj, n) == reference_degeneracy_order(adj, n)


def reference_relabel(adj, order):
    """Vertex order[i] renamed i, one edge at a time: the loop _relabel replaced."""
    n = len(order)
    pos = [0] * n
    for idx, v in enumerate(order):
        pos[v] = idx
    radj = [0] * n
    for v in range(n):
        m = adj[v]
        acc = 0
        while m:
            low = m & -m
            acc |= 1 << pos[low.bit_length() - 1]
            m ^= low
        radj[pos[v]] = acc
    return radj


def test_relabel_matches_per_edge_reference():
    rng = random.Random(46)
    for density in (0.0, 0.05, 0.5, 0.95, 1.0):
        for n in (0, 1, 2, 3, 17, 64, 65, 150, 220):
            adj = random_bitset_graph(rng, n, density)
            perm = list(range(n))
            rng.shuffle(perm)
            for order in (perm, _degeneracy_order(adj, n)):
                assert _relabel(adj, order) == reference_relabel(adj, order), (density, n)


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


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_clique_number_does_not_depend_on_the_vertex_order(data):
    """certify stores the size that _max_clique_mask finds in the class's
    own order, verify the one it finds after the peeling order and the
    relabel; a random renaming gives the same size, and so does networkx."""
    n = data.draw(st.integers(0, 40), label="n")
    density = data.draw(st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]), label="density")
    adj = random_bitset_graph(random.Random(data.draw(st.integers(0, 2**32), label="seed")), n, density)
    perm = data.draw(st.permutations(range(n)), label="perm")
    size = _max_clique_mask(adj, DEFAULT_NODE_CAP).bit_count()
    for order in (perm, _degeneracy_order(adj, n)):
        assert _max_clique_mask(_relabel(adj, order), DEFAULT_NODE_CAP).bit_count() == size
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from((a, b) for a in range(n) for b in range(a + 1, n) if adj[a] >> b & 1)
    assert size == (nx.max_weight_clique(g, weight=None)[1] if n else 0)


def test_monochromatic_cliques_match_subset_listing():
    # the whole (3, 4) ground set carries 4-cliques in every color
    ground = enumerate_isotropic(M3, 4).vectors
    col = build_field_coloring(ConstructionParams(M3, 4, 7, len(ground)), ground)
    listed = [(color, verts) for color in range(1, 5)
              for verts in _k_cliques(col.color_class_bitsets(color), 4, DEFAULT_NODE_CAP, "x")]
    expected = []
    for color in range(1, 5):
        for sub in itertools.combinations(range(col.n), 4):
            if all(edge_color(col, a, b) == color for a, b in itertools.combinations(sub, 2)):
                expected.append((color, sub))
    assert listed == expected
    with pytest.raises(ResourceCapError):
        _k_cliques(col.color_class_bitsets(1), 4, 10, "x")


def reference_k_cliques(adj, k):
    """The listing that called every child, dead ends and k-cliques
    included, one node each: its k-cliques and its node count."""
    found, nodes = [], 0

    def rec(chosen, cand):
        nonlocal nodes
        nodes += 1
        if len(chosen) == k:
            found.append(tuple(chosen))
            return
        need = k - len(chosen)
        while cand:
            if cand.bit_count() < need:
                return
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            chosen.append(v)
            rec(chosen, cand & adj[v])
            chosen.pop()

    rec([], (1 << len(adj)) - 1)
    return found, nodes


def witness_attempt_classes():
    """The color classes of attempt 1 of seeds 1-5 of a (3,4) witness
    request at n = 14 and 20, as _run_attempt colors them."""
    ground = moment._witness_ground(3, 4)
    for n, seed in itertools.product((14, 20), range(1, 6)):
        sk = moment.attempt_seed(seed, 1)
        m = min(len(ground), 2 * n)
        col = build_field_coloring(ConstructionParams(M3, 4, sk, m), sample_distinct(ground, m, make_rng(sk)))
        yield from (col.color_class_bitsets(c) for c in range(1, 5))


def orthogonality_graph(q, t):
    vecs = enumerate_isotropic(PrimeModulus(q), t).vectors
    orth = [0] * len(vecs)
    for a, b in itertools.combinations(range(len(vecs)), 2):
        if dot(vecs[a], vecs[b]) == 0:
            orth[a] |= 1 << b
            orth[b] |= 1 << a
    return orth


def test_k_cliques_match_the_listing_that_called_every_child():
    """The same k-cliques in the same order, and the same smallest cap
    that succeeds: the node count, with every dead end and k-clique
    still counted once though neither is called."""
    rng = random.Random(22)
    cases = [(random_bitset_graph(rng, rng.randrange(31), rng.random()), rng.randrange(1, 7)) for _ in range(300)]
    cases += [(adj, 4) for adj in witness_attempt_classes()]
    cases += [(orthogonality_graph(q, t), t) for q, t in ((3, 4), (3, 5), (2, 7))]
    for adj, k in cases:
        found, nodes = reference_k_cliques(adj, k)
        assert _k_cliques(adj, k, nodes, "x") == found
        if nodes > 1:
            with pytest.raises(ResourceCapError, match=f"x exceeded {nodes - 1} nodes"):
                _k_cliques(adj, k, nodes - 1, "x")
        assert _has_clique(adj, k, DEFAULT_NODE_CAP) == bool(found)
        if not found and nodes > 1:
            # with no k-clique to stop at, the existence check walks the
            # listing's whole tree
            assert not _has_clique(adj, k, nodes)
            with pytest.raises(ResourceCapError):
                _has_clique(adj, k, nodes - 1)


def test_clique_existence_check_is_capped():
    # the largest orthogonal sets of (3,4) are its 2-dimensional totally
    # isotropic subspaces, 9 vectors each
    adj = orthogonality_graph(3, 4)
    assert _has_clique(adj, 9, DEFAULT_NODE_CAP) and not _has_clique(adj, 10, DEFAULT_NODE_CAP)
    with pytest.raises(ResourceCapError, match="clique existence check exceeded 100 nodes"):
        _has_clique(adj, 10, 100)
    assert _has_clique([], 1, 1) is False and _has_clique([0], 1, 1) is True


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
    return [PotentialClique(tuple(vecs[k] for k in ids)) for ids in _k_cliques(orth, t, 10**7, "reference")]


@pytest.mark.parametrize(
    "q, t",
    [(3, 4), (3, 5), (2, 7), (5, 3), (2, 4), (2, 6), (5, 2), (7, 3), (11, 3), (13, 2), (3, 1)],
)
def test_potential_cliques_match_dot_reference(q, t):
    """Vectors and order against the dot reference; every rank against
    sympy's elimination over GF(q)."""
    ground = enumerate_isotropic(PrimeModulus(q), t)
    got = enumerate_potential_cliques(ground, t)
    assert got
    assert got == reference_potential_cliques(ground, t)
    for c in got:
        assert c.rank == DomainMatrix.from_list([list(v.coords) for v in c.vectors], GF(q)).rank()


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


def test_potential_clique_gram_shows_a_nonzero_product():
    """The Gram matrix is computed from the vectors, not assumed zero:
    two self-orthogonal vectors with product 2."""
    pair = PotentialClique((FieldVector(M3, (1, 1, 1, 0)), FieldVector(M3, (1, 0, 1, 1))))
    assert pair.gram == ((0, 2), (2, 0))


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


@pytest.mark.parametrize("cap", [0, -5])
def test_listing_caps_below_one_are_parameter_errors(cap):
    """_k_cliques checks the cap for its public caller; it used to raise
    ResourceCapError ("exceeded -5 nodes").  The maximum search checks
    its own."""
    ground = enumerate_isotropic(M3, 4)
    with pytest.raises(ParameterError, match=f"node cap {cap} must be positive"):
        enumerate_potential_cliques(ground, 4, cap=cap)
    with pytest.raises(ParameterError, match=f"node cap {cap} must be positive"):
        max_monochromatic_clique(build_paley(5), 1, cap=cap)


@pytest.mark.parametrize("size", [0, -1])
def test_listing_sizes_below_one_are_parameter_errors(size):
    """_k_cliques checks the size for its public caller, before the cap."""
    ground = enumerate_isotropic(M3, 4)
    with pytest.raises(ParameterError, match="clique size must be positive"):
        enumerate_potential_cliques(ground, size, cap=0)


# ---------------------------------------------------------------------------
# counting bounds
# ---------------------------------------------------------------------------

def test_rank_count_bound_examples():
    assert rank_count_bound(2, 4, 0) == 1
    assert rank_count_bound(2, 4, 2) == 2**11
    assert rank_count_bound(3, 4, 1) == 3**7


def test_sizes_past_their_caps_are_resource_cap_errors():
    """The Gram matrix is held to MAX_GRAM_SIZE rows, and the counting
    bound's power to MAX_RADICAND_BITS bits, the cap of the bound
    families: q = 2 has 2 bits, so 2^32767 is answered and 2^32769 is not."""
    assert clique_gram_det(1, MAX_GRAM_SIZE, M3) == (MAX_GRAM_SIZE - 1) * (-1) ** (MAX_GRAM_SIZE - 1) % 3
    with pytest.raises(ResourceCapError):
        clique_gram_det(1, MAX_GRAM_SIZE + 1, M3)
    assert rank_count_bound(2, 16384, 1) == 2**32767
    with pytest.raises(ResourceCapError):
        rank_count_bound(2, 16385, 1)


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


def test_gram_bound_is_each_deterministic_class_clique_number():
    """verify's stop for color i, t - 1 when i^t (-1)^(t-1) (t - 1) is a
    non-square mod q and t otherwise, equals the clique number that
    networkx finds in each color below q on the whole ground set."""
    bounds = set()
    for q, t in [(3, 4), (3, 5), (5, 2), (5, 3), (5, 4), (7, 3), (11, 3), (13, 2)]:
        modulus = PrimeModulus(q)
        ground = enumerate_isotropic(modulus, t).vectors
        col = build_field_coloring(ConstructionParams(modulus, t, seed=1, n=len(ground)), ground)
        for i in range(1, q):
            g = nx.Graph()
            g.add_nodes_from(range(col.n))
            g.add_edges_from((a, b) for a, row in enumerate(col.rows) for b, c in enumerate(row, a + 1) if c == i)
            bound = _gram_bound(q, t, i)
            assert max(map(len, nx.find_cliques(g))) == bound, (q, t, i)
            bounds.add(t - bound)
    assert bounds == {0, 1}


def construct_coloring(q, t, n, seed):
    """The coloring the construct subcommand writes for these arguments."""
    params, coords = _construct_sample(q, t, n, seed, DEFAULT_ENUM_CAP)
    return build_field_coloring(params, [FieldVector(params.modulus, c) for c in coords])


def test_search_stopped_at_t_returns_the_full_search_witness():
    """A construct coloring stops each color below q at its Gram bound and
    returns the witness of the same coloring with its provenance dropped,
    which the full search finds.  Where that bound is t - 1, the looser
    stop at t returns the full search's clique too."""
    reached = sharpened = 0
    for q, t, n, seed in [(3, 4, 33, 1), (3, 4, 33, 271828), (2, 7, 60, 1), (3, 5, 60, 2),
                          (5, 4, 145, 1), (7, 3, 30, 4), (11, 3, 40, 3), (2, 9, 200, 1)]:
        col = construct_coloring(q, t, n, seed)
        plain = replace(col, provenance=())
        assert col._gram_stop == (q, t) and plain._gram_stop is None
        for c in range(1, q):
            w = max_monochromatic_clique(col, c)
            assert w == max_monochromatic_clique(plain, c)
            if _gram_bound(q, t, c) == t - 1:
                adj = col.color_class_bitsets(c)
                adj = _relabel(adj, _degeneracy_order(adj, n))
                assert _max_clique_mask(adj, DEFAULT_NODE_CAP, t) == _max_clique_mask(adj, DEFAULT_NODE_CAP)
            reached += w.size == t
            sharpened += w.size == _gram_bound(q, t, c) == t - 1
    assert reached >= 8 and sharpened >= 8


def test_stopped_search_fits_under_a_cap_the_full_search_exceeds():
    col = construct_coloring(2, 9, 200, 1)
    for cap in range(1, 100):
        try:
            w = max_monochromatic_clique(col, 1, cap=cap)
            break
        except ResourceCapError:
            pass
    else:
        pytest.fail("the search stopped at t = 9 needs 100 nodes or more")
    assert w.size == 9
    with pytest.raises(ResourceCapError):
        max_monochromatic_clique(replace(col, provenance=()), 1, cap=cap)


def test_library_search_of_a_construct_coloring_stops_at_its_gram_bound():
    """The stop is the library's, not the command's: under a cap of 100
    the construct coloring of (2,9,200), seed 1, gives color 1's 9-clique,
    and the same rows without their provenance exceed the cap."""
    col = construct_coloring(2, 9, 200, 1)
    w = max_monochromatic_clique(col, 1, cap=100)
    assert w.size == 9
    with pytest.raises(ResourceCapError):
        max_monochromatic_clique(replace(col, provenance=()), 1, cap=100)


def test_products_are_checked_once_per_coloring(monkeypatch):
    """One trust check serves every search of a coloring object, over all
    q + 1 colors; an equal coloring read back from its text is checked again."""
    calls = []
    real = coloring._products_match
    monkeypatch.setattr(coloring, "_products_match", lambda col, *args: calls.append(args) or real(col, *args))
    col = construct_coloring(5, 4, 145, 1)
    for c in range(1, 7):
        max_monochromatic_clique(col, c)
    assert calls == [(5, 4, 145, 1)]
    again = EdgeColoring.from_text(col.to_text())
    for c in (6, 1):
        max_monochromatic_clique(again, c)
    assert calls == [(5, 4, 145, 1)] * 2


def test_colorings_construct_did_not_draw_are_searched_in_full(monkeypatch):
    """No stop on a certificate's coloring (certify's draw is not
    construct's), an induced one, a blow-up product, a two-color or
    Paley coloring, or a construct coloring with one deterministic edge
    recolored: every search runs without a bound, and its witness is
    the one found on the same rows with no provenance."""
    uppers = []
    real = cliques._max_clique_mask
    monkeypatch.setattr(cliques, "_max_clique_mask", lambda adj, cap, upper=None: uppers.append(upper) or real(adj, cap))
    col = construct_coloring(3, 4, 33, 1)
    rows = [list(r) for r in col.rows]
    rows[0][rows[0].index(1)] = 2
    cert = moment.find_witness(3, 4, 14, 200, 1)
    assert isinstance(cert, moment.WitnessCertificate)
    cases = {
        "certificate": cert.coloring,
        "induced": col.induced(range(20)),
        "blowup": blowup_product(build_paley(5), col.induced(range(6))),
        "two-color": build_two_color(4, 30, 1),
        "paley": build_paley(13),
        "recolored": EdgeColoring(col.n, col.num_colors, tuple(map(bytes, rows)), col.provenance),
    }
    assert cert.coloring.provenance[0].startswith("field-coloring q=3 t=4 n=14 seed=")
    for name, other in cases.items():
        assert other._gram_stop is None, name
        plain = replace(other, provenance=())
        for c in range(1, other.num_colors + 1):
            assert max_monochromatic_clique(other, c) == max_monochromatic_clique(plain, c), (name, c)
    assert uppers and set(uppers) == {None}
    max_monochromatic_clique(col, 1)
    assert uppers[-1] == 4


_PALEY_5 = build_paley(5)
_PALEY_13 = build_paley(13)


def _within_a_second(call):
    """call() under a one-second alarm, so a call that never returns
    fails with TimeoutError instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError("no answer within a second")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1)
    try:
        return call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("call", [
    lambda: integer_root(16.0, 2),
    lambda: integer_root(16, 2.0),
    lambda: rank_count_bound(3, 4.0, 2),
    lambda: clique_gram_det(1, 3.0, PrimeModulus(3)),
    lambda: max_monochromatic_clique(_PALEY_5, 1.0),
    lambda: _PALEY_5.induced([0.0, 1]),
    lambda: enumerate_potential_cliques(enumerate_isotropic(PrimeModulus(3), 4), 4.0),
    lambda: _PALEY_5.color_class_bitsets(True),
    lambda: max_monochromatic_clique(_PALEY_13, 1, cap=1e7),
    lambda: max_monochromatic_clique(_PALEY_13, 1, cap=None),
    lambda: enumerate_potential_cliques(enumerate_isotropic(PrimeModulus(3), 4), 4, cap=1e7),
    lambda: enumerate_potential_cliques(enumerate_isotropic(PrimeModulus(3), 4), 4, cap=None),
    lambda: is_prime(2.0),
    lambda: is_prime(float("nan")),
    lambda: _within_a_second(lambda: is_prime(float("inf"))),
], ids=["root-n", "root-k", "rank-count-t", "gram-det-s", "max-clique-color", "induced-index",
        "potential-t", "bitsets-color", "max-clique-cap-float", "max-clique-cap-none", "potential-cap-float", "potential-cap-none",
        "prime-float", "prime-nan", "prime-inf"])
def test_an_argument_that_is_not_an_int_is_a_parameter_error(call):
    """These used to escape as AttributeError or TypeError, or to return:
    4.0 for a root, 177147.0 for a count, 1008 cliques for t = 4.0 or for
    a cap of 1e7, color 1's class for True, a witness for a cap of 1e7,
    and True for is_prime(2.0) and for a NaN.  is_prime of an infinity
    never returned."""
    with pytest.raises(ParameterError, match="must be an int"):
        call()
