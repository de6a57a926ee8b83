"""Exact monochromatic clique search and structural certificates.

The clique solver is a deterministic branch-and-bound over bitset
adjacency: vertices are relabeled by a minimum-degree peeling order,
candidates at every node are greedily colored, and branches whose color
bound cannot beat the incumbent are cut.  No heuristic shortcuts: the
returned witness is a true maximum clique, and a node cap turns runaway
searches into an explicit error rather than a silent truncation.

The coloring builds one class at a time on bitsets, as in BBMC (San
Segundo et al. 2011): class k is a greedy pass in ascending index over
the still-uncolored candidates.  This yields the same classes as MCQ's
first-fit coloring vertex by vertex (Tomita and Seki 2003), so the
bounds, the branching order, the node count and the returned witness
are those of first-fit; only the cost per node is lower.

The certificates tie cliques back to linear algebra: determinants of
i-clique Gram matrices, ranks of potential cliques, and the per-rank
counting bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, mod, mul

from .coloring import EdgeColoring
from .errors import ParameterError, ResourceCapError
# rank is not called here; it stays bound because perfbench wraps ramseylb.cliques.rank.
from .field import FieldVector, PrimeModulus, _eliminate, is_prime, rank  # noqa: F401
from .isotropic import IsotropicSet

DEFAULT_NODE_CAP = 10**7


@dataclass(frozen=True)
class CliqueWitness:
    """A monochromatic clique: its color and sorted vertex indices."""

    color: int
    vertices: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.vertices)


def _degeneracy_order(adj: list[int], n: int) -> list[int]:
    """Minimum-degree peeling order with lowest-index tie-breaking.

    A bucket queue: ``buckets[d]`` is the bitmask of the alive vertices
    of degree d, so the lowest set bit of the lowest non-empty bucket is
    the next vertex.  Peeling a vertex of degree d leaves every degree at
    least d - 1, so the scan for that bucket restarts there.
    """
    deg = [adj[v].bit_count() for v in range(n)]
    buckets = [0] * n
    for v in range(n):
        buckets[deg[v]] |= 1 << v
    alive = (1 << n) - 1
    order: list[int] = []
    d = 0
    for _ in range(n):
        while not buckets[d]:
            d += 1
        bucket = buckets[d]
        low = bucket & -bucket
        buckets[d] = bucket ^ low
        alive ^= low
        v = low.bit_length() - 1
        order.append(v)
        m = adj[v] & alive
        while m:
            ubit = m & -m
            u = ubit.bit_length() - 1
            buckets[deg[u]] ^= ubit
            deg[u] -= 1
            buckets[deg[u]] |= ubit
            m ^= ubit
        if d:
            d -= 1
    return order


class _ReachedUpper(Exception):
    """The incumbent reached the caller's upper bound; the search ends."""


def _max_clique_mask(adj: list[int], cap: int, upper: int | None = None) -> int:
    """Bitmask of one maximum clique, found deterministically.

    With ``upper``, the search ends as soon as the incumbent has at least
    ``upper`` vertices.  The incumbent changes only on a strict
    improvement, so when ``upper`` bounds the clique number the result is
    the full search's, reached after a prefix of its nodes.
    """
    n = len(adj)
    if n == 0:
        return 0
    stop = n + 1 if upper is None else upper
    best_size = 0
    best_mask = 0
    visited = 0

    # Complemented adjacency, indexed by a vertex's bit_length (v + 1).
    non_adj = [0] + [~a for a in adj]

    def expand(size: int, mask: int, cand: int) -> None:
        nonlocal best_size, best_mask, visited
        visited += 1
        if visited > cap:
            raise ResourceCapError(f"clique search exceeded {cap} nodes")
        # Greedy coloring of the candidates, one class at a time: class k
        # takes, in ascending index, each still-uncolored candidate with
        # no neighbour already in class k.  These are exactly the classes
        # of first-fit coloring in ascending index.  A vertex in class k
        # cannot sit in a clique of more than k candidates, which gives
        # the pruning bound below; classes k <= best_size - size could
        # never be branched on, so they are not recorded.
        floor = max(best_size - size, 0)
        classes: list[int] = []
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
        # Branch from the highest class down, and within a class from the
        # highest index down.  First-fit's (vertex, class) list, sorted
        # stably by class and read backwards, gives the same order, so
        # the search tree is first-fit's.
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
                        raise _ReachedUpper
                remaining ^= vbit
            bound -= 1

    try:
        expand(0, 0, (1 << n) - 1)
    except _ReachedUpper:
        pass
    return best_mask


def max_monochromatic_clique(
    coloring: EdgeColoring, color: int, cap: int = DEFAULT_NODE_CAP, upper: int | None = None
) -> CliqueWitness:
    """A maximum clique of the chosen color class, exact and deterministic.

    ``upper``, when given, must bound the class's clique number; the
    search then stops once it has a clique of that size, and returns the
    same witness as without it.  A wrong bound gives a wrong answer.

    For a field coloring of self-orthogonal vectors in F_q^t with
    t != 0 mod q, t bounds every deterministic color i in [1, q-1].  An
    s-clique of color i has Gram matrix G = i(J - I), where J is the
    all-ones s x s matrix: the vectors are self-orthogonal and their
    pairwise products are i.  G is a product V V^T of s x t matrices, so
    rank G <= t; and J has rank 1, so rank G >= s - 1, giving s <= t + 1.
    At s = t + 1, det G = i^s (-1)^(s-1) (s - 1) = +-i^s t (see
    clique_gram_det), which is nonzero mod q; then rank G = t + 1 > t, a
    contradiction.  So s <= t.
    """
    if not 1 <= color <= coloring.num_colors:
        raise ParameterError(f"color {color} outside [1, {coloring.num_colors}]")
    if upper is not None and upper < 1:
        raise ParameterError(f"upper bound {upper} must be positive")
    n = coloring.n
    adj = coloring.color_class_bitsets(color)
    order = _degeneracy_order(adj, n)
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
    mask = _max_clique_mask(radj, cap, upper)
    verts = []
    while mask:
        low = mask & -mask
        verts.append(order[low.bit_length() - 1])
        mask ^= low
    return CliqueWitness(color=color, vertices=tuple(sorted(verts)))


def _k_cliques(adj: list[int], k: int, cap: int, what: str) -> list[tuple[int, ...]]:
    """Every k-clique of a bitset graph as an ascending index tuple, in
    lexicographic order.

    Backtracking over candidates adjacent to everything already chosen;
    each recursion node counts against cap.
    """
    found: list[tuple[int, ...]] = []
    visited = 0

    def rec(chosen: list[int], cand: int) -> None:
        nonlocal visited
        visited += 1
        if visited > cap:
            raise ResourceCapError(f"{what} exceeded {cap} nodes")
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
    return found


def monochromatic_cliques(
    coloring: EdgeColoring, size: int, cap: int = DEFAULT_NODE_CAP
) -> list[CliqueWitness]:
    """Every monochromatic clique of exactly the given size, by color and
    then in lexicographic order.  Each color's listing is capped at cap
    search nodes."""
    return [
        CliqueWitness(color, verts)
        for color in range(1, coloring.num_colors + 1)
        for verts in _k_cliques(
            coloring.color_class_bitsets(color), size, cap, "monochromatic clique listing"
        )
    ]


def clique_gram_det(i: int, s: int, modulus: PrimeModulus) -> int:
    """Determinant over F_q of the Gram matrix of an i-clique of size s.

    The matrix has zero diagonal (self-orthogonal vectors) and every
    off-diagonal entry equal to i.  Computed by elimination; it vanishes
    exactly when s is 1 mod q.
    """
    q = modulus.q
    if not 1 <= i <= q - 1:
        raise ParameterError(f"color value {i} outside [1, {q - 1}]")
    if s < 1:
        raise ParameterError("matrix size must be positive")
    mat = [[0 if r == c else i for c in range(s)] for r in range(s)]
    return _eliminate(mat, q)[1]


@dataclass(frozen=True)
class PotentialClique:
    """t self-orthogonal vectors with all pairwise products zero."""

    vectors: tuple[FieldVector, ...]
    rank: int
    gram: tuple[tuple[int, ...], ...]


def _orthogonal_tuples(ground: IsotropicSet, t: int, cap: int) -> list[tuple[int, ...]]:
    """The ground-set indices of every t-subset with pairwise product
    zero, as ascending tuples in lexicographic order.

    Orthogonality-pruned backtracking: candidates are restricted to
    vectors orthogonal to everything already chosen.
    """
    q = ground.modulus.q
    # IsotropicSet has checked that every vector shares the modulus and
    # dimension, so the products are taken on the coordinate tuples.
    coords = [v.coords for v in ground.vectors]
    orth = [
        sum(1 << b for b, y in enumerate(coords) if b != a and sum(map(mul, x, y)) % q == 0)
        for a, x in enumerate(coords)
    ]
    return _k_cliques(orth, t, cap, "potential-clique enumeration")


def enumerate_potential_cliques(
    ground: IsotropicSet, t: int, cap: int = DEFAULT_NODE_CAP
) -> list[PotentialClique]:
    """All t-subsets of the ground set with pairwise product zero, in
    the lexicographic order of _orthogonal_tuples.

    The vectors of a potential clique span a totally isotropic subspace W
    of F_q^d, d the ground set's dimension: W lies in its orthogonal
    complement, which has dimension d - dim W for the nondegenerate dot
    product.  So every rank is at most min(t, d // 2).

    Each rank is taken along the lexicographic order: a tuple shares a
    prefix with the one before it, and the span of every proper prefix is
    kept as its coordinate tuples and as the bitmask of the ground vectors
    in it.  A new vector raises the rank exactly when its bit is not in
    the span before it.  Span vectors outside the ground set get no bit
    and only ground vectors are asked about, so the ground set may be any
    IsotropicSet, not only the full one.
    """
    if t < 1:
        raise ParameterError("clique size must be positive")
    vecs = ground.vectors
    q = ground.modulus.q
    coords = [v.coords for v in vecs]
    index = {x: i for i, x in enumerate(coords)}
    qs = (q,) * ground.dimension

    def entry(r, span):
        """(rank, span, bitmask of the ground vectors in the span)."""
        return r, span, sum(1 << index[x] for x in span if x in index)

    def extend(prefix, k):
        """The entry of a prefix with ground vector k appended."""
        r, span, mask = prefix
        if mask >> k & 1:
            return prefix
        multiples = [tuple(c * b % q for b in coords[k]) for c in range(q)]
        # x + c * v for every x in the span and every c, coordinate-wise mod q.
        span = [tuple(map(mod, map(add, x, m), qs)) for m in multiples for x in span]
        return entry(r + 1, span)

    stack = [entry(0, [(0,) * ground.dimension])]
    # Vectors of the ground set are self-orthogonal and a clique's are
    # pairwise orthogonal, so every Gram matrix is this one.
    gram = tuple((0,) * t for _ in range(t))
    bound = min(t, ground.dimension // 2)
    found: list[PotentialClique] = []
    prev: tuple[int, ...] = ()
    for ids in _orthogonal_tuples(ground, t, cap):
        j = 0
        while j < len(prev) and ids[j] == prev[j]:
            j += 1
        # stack[i] is the entry of ids[:i] = prev[:i] for every i <= j.
        del stack[j + 1 :]
        for k in ids[j:-1]:
            stack.append(extend(stack[-1], k))
        # The last vector needs only its bit, not a span.
        r, _, mask = stack[-1]
        if not mask >> ids[-1] & 1:
            r += 1
        assert r <= bound
        found.append(PotentialClique(tuple(vecs[k] for k in ids), r, gram))
        prev = ids
    return found


def rank_count_bound(q: int, t: int, r: int) -> int:
    """q^(2tr - r(3r-1)/2), the ordered upper bound on rank-r potential cliques.

    Ordered convention: the first r vectors are linearly independent and
    the remaining t-r lie in their span.
    """
    if not is_prime(q):
        raise ParameterError(f"{q} is not prime")
    if not 0 <= r <= t:
        raise ParameterError(f"rank {r} outside [0, {t}]")
    exponent = 2 * t * r - r * (3 * r - 1) // 2
    assert exponent >= 0
    return q**exponent
