"""Blow-up products of complete-graph colorings with disjoint palettes."""

from __future__ import annotations

from .coloring import EdgeColoring


def blowup_product(outer: EdgeColoring, inner: EdgeColoring) -> EdgeColoring:
    """Replace each vertex of ``outer`` by a copy of ``inner``.

    Vertex (a, b) maps to index a * inner.n + b (row-major).  Edges
    between different copies keep the outer color; edges inside one copy
    take the inner color shifted past the outer palette.  Outer-color
    clique sizes are preserved exactly, and so are inner-color ones.
    """
    n1, n2 = outer.n, inner.n
    shift = outer.num_colors
    n = n1 * n2
    # x < y gives a <= a2, and b < b2 when a == a2, so each read is
    # rows[lo][hi - lo - 1].
    outer_rows, inner_rows = outer.rows, inner.rows
    rows = []
    for x in range(n - 1):
        a, b = divmod(x, n2)
        row = []
        for y in range(x + 1, n):
            a2, b2 = divmod(y, n2)
            row.append(outer_rows[a][a2 - a - 1] if a != a2 else shift + inner_rows[b][b2 - b - 1])
        rows.append(tuple(row))
    note = (
        f"blowup outer(n={n1} colors={outer.num_colors}) "
        f"inner(n={n2} colors={inner.num_colors})"
    )
    return EdgeColoring(n, outer.num_colors + inner.num_colors, tuple(rows), (note,))
