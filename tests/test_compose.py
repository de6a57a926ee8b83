import random

from ramseylb.cliques import max_monochromatic_clique
from ramseylb.coloring import EdgeColoring, build_paley
from ramseylb.compose import blowup_product


def single_color_complete(n, color=1, num_colors=1):
    rows = tuple(tuple(color for _ in range(n - 1 - i)) for i in range(n - 1))
    return EdgeColoring(n, num_colors, rows)


def random_coloring(rng, n, num_colors):
    rows = tuple(
        tuple(rng.randrange(1, num_colors + 1) for _ in range(n - 1 - i)) for i in range(n - 1)
    )
    return EdgeColoring(n, num_colors, rows)


def edge_color(col, i, j):
    """Color of the edge {i, j}, read from the rows."""
    i, j = min(i, j), max(i, j)
    return col.rows[i][j - i - 1]


def reference_blowup_color(outer, inner, x, y):
    """Color of {x, y} in the product, read through the symmetric
    accessor per pair: the outer color across copies, the shifted inner
    color inside one."""
    a, b = divmod(x, inner.n)
    a2, b2 = divmod(y, inner.n)
    if a != a2:
        return edge_color(outer, a, a2)
    return outer.num_colors + edge_color(inner, b, b2)


def test_k2_times_k2_is_matching_plus_crossings():
    k2 = single_color_complete(2)
    prod = blowup_product(k2, k2)
    assert prod.n == 4
    assert prod.num_colors == 2
    # blocks {0,1} and {2,3} carry the shifted inner color
    assert edge_color(prod, 0, 1) == 2
    assert edge_color(prod, 2, 3) == 2
    for i, j in ((0, 2), (0, 3), (1, 2), (1, 3)):
        assert edge_color(prod, i, j) == 1


def test_blowup_matches_edge_by_edge_reference():
    rng = random.Random(12)
    factors = [(build_paley(5), build_paley(13)), (build_paley(13), build_paley(5))]
    for _ in range(20):
        n1, n2 = rng.sample(range(1, 9), 2)
        factors.append(
            (random_coloring(rng, n1, rng.choice([1, 2, 3])), random_coloring(rng, n2, rng.choice([1, 2])))
        )
    # every pair of orders in {1, 2, 5}, equal ones and single vertices included
    for n1 in (1, 2, 5):
        for n2 in (1, 2, 5):
            for k1, k2 in ((1, 1), (3, 2), (12, 300)):
                factors.append((random_coloring(rng, n1, k1), random_coloring(rng, n2, k2)))
    for outer, inner in factors:
        prod = blowup_product(outer, inner)
        assert prod.n == outer.n * inner.n
        assert prod.num_colors == outer.num_colors + inner.num_colors
        for x, row in enumerate(prod.rows):
            for y, c in enumerate(row, x + 1):
                assert c == reference_blowup_color(outer, inner, x, y)


def test_edge_counts_3_by_2():
    prod = blowup_product(single_color_complete(3), single_color_complete(2))
    inner_edges = sum(row.count(2) for row in prod.rows)
    outer_edges = sum(row.count(1) for row in prod.rows)
    assert inner_edges == 3  # n1 * C(n2, 2)
    assert outer_edges == 12  # C(n1, 2) * n2^2


def test_pentagon_squared_avoids_triangles_everywhere():
    c5 = build_paley(5)
    prod = blowup_product(c5, c5)
    assert prod.n == 25
    assert prod.num_colors == 4
    for color in range(1, 5):
        assert max_monochromatic_clique(prod, color).size == 2


def test_per_color_clique_preservation_random():
    rng = random.Random(99)
    for _ in range(6):
        c1 = random_coloring(rng, rng.randrange(2, 7), rng.choice([1, 2, 3]))
        c2 = random_coloring(rng, rng.randrange(2, 7), rng.choice([1, 2]))
        prod = blowup_product(c1, c2)
        for color in range(1, c1.num_colors + 1):
            assert (
                max_monochromatic_clique(prod, color).size
                == max_monochromatic_clique(c1, color).size
            )
        for color in range(1, c2.num_colors + 1):
            assert (
                max_monochromatic_clique(prod, c1.num_colors + color).size
                == max_monochromatic_clique(c2, color).size
            )


def test_associativity_up_to_relabeling():
    rng = random.Random(31)
    a = random_coloring(rng, 3, 2)
    b = random_coloring(rng, 2, 2)
    c = random_coloring(rng, 3, 1)
    left = blowup_product(blowup_product(a, b), c)
    right = blowup_product(a, blowup_product(b, c))
    assert left.n == right.n
    assert left.num_colors == right.num_colors
    sizes_left = sorted(
        max_monochromatic_clique(left, col).size for col in range(1, left.num_colors + 1)
    )
    sizes_right = sorted(
        max_monochromatic_clique(right, col).size for col in range(1, right.num_colors + 1)
    )
    assert sizes_left == sizes_right


def test_mono_freedom_is_preserved():
    # neither factor has a mono K_3; neither does the product, by exact search
    c5 = build_paley(5)
    prod = blowup_product(c5, c5)
    assert all(
        max_monochromatic_clique(prod, color).size < 3 for color in range(1, prod.num_colors + 1)
    )
