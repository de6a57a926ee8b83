"""Blow-up products of complete-graph colorings with disjoint palettes."""

from __future__ import annotations

import itertools

from .coloring import EdgeColoring, _check_pairs, _row_type


def blowup_product(outer: EdgeColoring, inner: EdgeColoring) -> EdgeColoring:
    """Replace each vertex of ``outer`` by a copy of ``inner``.

    Vertex (a, b) maps to index a * inner.n + b (row-major).  Edges
    between different copies keep the outer color; edges inside one copy
    take the inner color shifted past the outer palette.  Outer-color
    clique sizes are preserved exactly, and so are inner-color ones.
    """
    n1, n2 = outer.n, inner.n
    _check_pairs(n1 * n2)
    shift = outer.num_colors
    # Row (a, b) is inner row b, shifted, then outer row a with each color
    # repeated n2 times, for the later vertices of copy a and of copies past
    # a.  The last vertex of a copy, and of the product, has an empty part.
    frozen = _row_type(shift + inner.num_colors)
    shifted = [frozen(map(shift.__add__, row)) for row in inner.rows] + [frozen()]
    repeated = [frozen(itertools.chain.from_iterable(zip(*[row] * n2))) for row in outer.rows] + [frozen()]
    rows = tuple(b + a for a in repeated for b in shifted)[:-1]
    note = (
        f"blowup outer(n={n1} colors={outer.num_colors}) "
        f"inner(n={n2} colors={inner.num_colors})"
    )
    return EdgeColoring(n1 * n2, outer.num_colors + inner.num_colors, rows, (note,))
