"""Exact monochromatic clique search and structural certificates.

The clique solver is a deterministic branch-and-bound over bitset
adjacency: candidates at every node are greedily colored, and branches
whose color bound cannot beat the incumbent are cut.  A witness search
first relabels the vertices by a minimum-degree peeling order; a search
for the clique number alone runs in the given order, as the size of a
maximum clique does not depend on it.  No heuristic shortcuts: the
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
from functools import cached_property

from .coloring import EdgeColoring
from .errors import ParameterError, ResourceCapError
from .field import FieldVector, PrimeModulus, _eliminate, _scalar_products, dot, is_prime, rank
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
    least d - 1, so the scan for that bucket restarts there.  Its alive
    neighbours, all of degree d or more, then drop one bucket each: an
    upward sweep from bucket d moves them a whole bucket at a time.
    """
    deg = list(map(int.bit_count, adj))
    buckets = [0] * (max(deg, default=0) + 1)
    for v, d in enumerate(deg):
        buckets[d] |= 1 << v
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
        e = d
        while m:
            moved = buckets[e] & m
            buckets[e] ^= moved
            buckets[e - 1] |= moved
            m ^= moved
            e += 1
        if d:
            d -= 1
    return order


def _relabel(adj: list[int], order: list[int]) -> list[int]:
    """adj with order[i] renamed i.  As adj is symmetric, column n-1-v of
    the bit strings of adj[order[n-1]], ..., adj[order[0]] is v's new row:
    a slice of stride n through their concatenation."""
    n = len(order)
    spec = f"0{n}b"
    mat = "".join([format(adj[v], spec) for v in reversed(order)])
    return [int(mat[n - 1 - v :: n], 2) for v in order]


class _ReachedUpper(Exception):
    """The incumbent reached the caller's upper bound; the search ends."""


def _false_twins(adj: list[int]) -> list[int] | None:
    """Per vertex, the mask of the other vertices with its adjacency
    bitset, its false twins; None when no two vertices share a bitset."""
    if len(set(adj)) == len(adj):
        return None
    groups: dict[int, int] = {}
    for v, a in enumerate(adj):
        groups[a] = groups.get(a, 0) | 1 << v
    return [groups[a] ^ 1 << v for v, a in enumerate(adj)]


def _max_clique_mask(adj: list[int], cap: int, upper: int | None = None) -> int:
    """Bitmask of one maximum clique, found deterministically.

    With ``upper``, the search ends as soon as the incumbent has at least
    ``upper`` vertices.  The incumbent changes only on a strict
    improvement, so when ``upper`` bounds the clique number the result is
    the full search's, reached after a prefix of its nodes.

    A vertex whose false twin (see _false_twins) was branched earlier at
    the same node is not branched: its candidates are a subset of the
    twin's, whose subtree already raised the incumbent to at least the
    size of any clique in them.  So its subtree holds no strict
    improvement, and skipping it changes the node count only.
    """
    n = len(adj)
    if n == 0:
        return 0
    stop = n + 1 if upper is None else upper
    best_size = 0
    best_mask = 0
    visited = 0
    twins = _false_twins(adj)

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
                    # cand ^ remaining: the vertices branched so far here.
                    if not (twins and twins[v] & (cand ^ remaining)):
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

    The class's vertices are renamed in smallest-last order by one string
    transpose of its bitsets (see _degeneracy_order and _relabel).

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

    For odd q the bound can be t - 1, whatever t is mod q.  At s = t, V
    is square, so det G = det(V)^2 is a square in F_q.  When
    d = i^t (-1)^(t-1) (t - 1) is nonzero and not a square mod q, which
    Euler's criterion d^((q-1)/2) = -1 decides, no t-clique of color i
    exists, and so none larger either.
    """
    if cap < 1:
        raise ParameterError(f"node cap {cap} must be positive")
    if upper is not None and upper < 1:
        raise ParameterError(f"upper bound {upper} must be positive")
    adj = coloring.color_class_bitsets(color)  # which checks the color
    order = _degeneracy_order(adj, coloring.n)
    mask = _max_clique_mask(_relabel(adj, order), cap, upper)
    verts = []
    while mask:
        low = mask & -mask
        verts.append(order[low.bit_length() - 1])
        mask ^= low
    return CliqueWitness(color=color, vertices=tuple(sorted(verts)))


def _k_cliques(adj: list[int], k: int, cap: int, what: str) -> list[tuple[int, ...]]:
    """Every k-clique of a bitset graph as an ascending index tuple, in
    lexicographic order.

    Backtracking over candidates adjacent to everything already chosen:
    each node of the search tree, the root, every chosen prefix and
    every k-clique, counts against cap.  A prefix with fewer candidates
    than it still needs is counted but not entered, and the k-cliques
    are emitted by their parent, one count each.
    """
    if k < 1:
        raise ParameterError("clique size must be positive")
    if cap < 1:
        raise ParameterError(f"node cap {cap} must be positive")
    found: list[tuple[int, ...]] = []
    visited = 1

    def rec(prefix: tuple[int, ...], cand: int, need: int) -> None:
        # A node, already counted, that still needs ``need`` vertices.
        nonlocal visited
        if need == 1:
            visited += cand.bit_count()
            if visited > cap:
                raise ResourceCapError(f"{what} exceeded {cap} nodes")
            while cand:
                low = cand & -cand
                cand ^= low
                found.append((*prefix, low.bit_length() - 1))
            return
        while cand.bit_count() >= need:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            visited += 1
            if visited > cap:
                raise ResourceCapError(f"{what} exceeded {cap} nodes")
            sub = cand & adj[v]
            if sub.bit_count() >= need - 1:
                rec((*prefix, v), sub, need - 1)

    rec((), (1 << len(adj)) - 1, k)
    return found


def _has_clique(adj: list[int], k: int, cap: int) -> bool:
    """Whether a bitset graph has a k-clique, k >= 1.

    The backtracking of _k_cliques, ended at its first k-clique: no
    coloring bound and no vertex order, so it shares nothing with the
    max-clique search that certify runs.  Its prefixes count against
    cap as the listing's do.
    """
    visited = 1

    def rec(cand: int, need: int) -> bool:
        nonlocal visited
        if need == 1:
            return cand != 0
        while cand.bit_count() >= need:
            low = cand & -cand
            cand ^= low
            visited += 1
            if visited > cap:
                raise ResourceCapError(f"clique existence check exceeded {cap} nodes")
            sub = cand & adj[low.bit_length() - 1]
            if sub.bit_count() >= need - 1 and rec(sub, need - 1):
                return True
        return False

    return rec((1 << len(adj)) - 1, k)


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

    @cached_property
    def rank(self) -> int:
        """The rank of the vectors, by elimination on first read.

        They span a totally isotropic subspace W of F_q^d, d their
        dimension: W lies in its orthogonal complement, which has
        dimension d - dim W for the nondegenerate dot product.  So the
        rank is at most min(t, d // 2).
        """
        return rank(self.vectors)

    @property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        """The matrix of pairwise products, all zero for a potential clique."""
        return tuple(tuple(dot(x, y) for y in self.vectors) for x in self.vectors)


def _orthogonal_tuples(ground: IsotropicSet, t: int, cap: int) -> list[tuple[int, ...]]:
    """The ground-set indices of every t-subset with pairwise product
    zero, as ascending tuples in lexicographic order.

    Orthogonality-pruned backtracking: candidates are restricted to
    vectors orthogonal to everything already chosen.
    """
    q = ground.modulus.q
    # IsotropicSet has checked that every vector shares the modulus and
    # dimension, so the products are taken on the coordinate tuples.
    orth = [0] * len(ground.vectors)
    for a, prods in enumerate(_scalar_products([v.coords for v in ground.vectors], q)):
        j = -1
        for _ in range(prods.count(0)):
            j = prods.index(0, j + 1)
            b = a + 1 + j
            orth[a] |= 1 << b
            orth[b] |= 1 << a
    return _k_cliques(orth, t, cap, "potential-clique enumeration")


def enumerate_potential_cliques(
    ground: IsotropicSet, t: int, cap: int = DEFAULT_NODE_CAP
) -> list[PotentialClique]:
    """All t-subsets of the ground set with pairwise product zero, in
    the lexicographic order of _orthogonal_tuples."""
    vecs = ground.vectors
    return [PotentialClique(tuple(vecs[k] for k in ids)) for ids in _orthogonal_tuples(ground, t, cap)]


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
