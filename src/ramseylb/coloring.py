"""Complete-graph edge colorings and their versioned text format.

Three constructions are provided: the (q+1)-coloring of self-orthogonal
vectors by scalar product (nonzero products give deterministic colors,
orthogonal pairs flip a pair-keyed coin between the two extra colors),
the two-coloring of uniformly sampled binary vectors by product parity,
and quadratic-residue colorings on a prime vertex set.

Coin flips are keyed by (seed, unordered pair identity), never by a
sequential stream, so the coloring induced on any vertex subset equals
the coloring built directly on that subset with the same seed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dataclass_field
from operator import mul
from typing import Sequence

from .errors import CapacityError, FormatError, ParameterError
from .field import FieldVector, PrimeModulus, is_prime
from .isotropic import IsotropicSet
from .rng import derive_seed, make_rng, pair_coin

FORMAT_MAGIC = "ramsey-coloring 1"


@dataclass(frozen=True)
class EdgeColoring:
    """A complete edge coloring of K_n with colors in [1, num_colors].

    ``rows[i]`` holds the colors of edges (i, i+1), ..., (i, n-1).
    Provenance lines record how the coloring was built; they are carried
    into the file format as comments and ignored by equality.
    """

    n: int
    num_colors: int
    rows: tuple[tuple[int, ...], ...]
    provenance: tuple[str, ...] = dataclass_field(default=(), compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ParameterError("a coloring needs at least one vertex")
        if self.num_colors < 1:
            raise ParameterError("a coloring needs at least one color")
        if len(self.rows) != self.n - 1:
            raise ParameterError(f"expected {self.n - 1} rows, got {len(self.rows)}")
        for i, row in enumerate(self.rows):
            if len(row) != self.n - 1 - i:
                raise ParameterError(f"row {i} has {len(row)} colors, expected {self.n - 1 - i}")
            for c in row:
                if not 1 <= c <= self.num_colors:
                    raise ParameterError(f"color {c} outside [1, {self.num_colors}]")

    def color_class_bitsets(self, color: int) -> list[int]:
        """Adjacency of the chosen color class as per-vertex bitmasks."""
        adj = [0] * self.n
        for i, row in enumerate(self.rows):
            bit = 1 << i
            acc = 0
            for j, c in enumerate(row, i + 1):
                if c == color:
                    acc |= 1 << j
                    adj[j] |= bit
            adj[i] |= acc
        return adj

    def induced(self, indices: Sequence[int]) -> "EdgeColoring":
        """The coloring restricted to the given vertices, in the given order."""
        idx = list(indices)
        if not idx:
            raise ParameterError("subset must be non-empty")
        if len(set(idx)) != len(idx):
            raise ParameterError("duplicate vertex in subset")
        if not all(0 <= i < self.n for i in idx):
            raise ParameterError(f"vertex index outside [0, {self.n})")
        k = len(idx)
        full = self.rows
        rows = tuple(
            tuple(full[i][j - i - 1] if i < j else full[j][i - j - 1] for j in idx[a + 1 :])
            for a, i in enumerate(idx[:-1])
        )
        note = f"induced on {k} of {self.n} vertices"
        return EdgeColoring(k, self.num_colors, rows, self.provenance + (note,))

    def to_text(self) -> str:
        lines = [FORMAT_MAGIC, f"n={self.n} colors={self.num_colors}"]
        lines.extend(f"# {note}" for note in self.provenance)
        lines.extend(" ".join(str(c) for c in row) for row in self.rows)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "EdgeColoring":
        lines = text.splitlines()
        if not lines or lines[0] != FORMAT_MAGIC:
            raise FormatError("missing coloring magic line")
        if len(lines) < 2:
            raise FormatError("missing coloring header line")
        m = re.fullmatch(r"n=(\d+) colors=(\d+)", lines[1])
        if not m:
            raise FormatError(f"bad coloring header: {lines[1]!r}")
        n, num_colors = int(m.group(1)), int(m.group(2))
        pos = 2
        provenance: list[str] = []
        while pos < len(lines) and lines[pos].startswith("#"):
            raw = lines[pos]
            provenance.append(raw[2:] if raw.startswith("# ") else raw[1:])
            pos += 1
        rows = []
        for i, line in enumerate(lines[pos:]):
            try:
                rows.append(tuple(map(int, line.split())))
            except ValueError as exc:
                raise FormatError(f"non-integer color on data line {i + 1}") from exc
        # The row and color counts are checked by __post_init__.
        try:
            return cls(n, num_colors, tuple(rows), tuple(provenance))
        except ParameterError as exc:
            raise FormatError(str(exc)) from exc


@dataclass(frozen=True)
class ConstructionParams:
    """Parameters of the (q+1)-color construction.

    The dimension must be nonzero mod q; that assumption is what caps
    the clique sizes of the deterministic color classes.
    """

    modulus: PrimeModulus
    t: int
    seed: int
    n: int

    def __post_init__(self) -> None:
        if self.t < 1 or self.t % self.modulus.q == 0:
            raise ParameterError(f"dimension t={self.t} must be nonzero mod q={self.modulus.q}")
        if self.n < 2:
            raise ParameterError("need at least two vertices")


def pair_identity(u: FieldVector, v: FieldVector) -> str:
    """Order-free identity string for an unordered vector pair."""
    a, b = sorted((u, v), key=lambda w: w.coords)
    return a.text_form() + "|" + b.text_form()


def build_field_coloring(params: ConstructionParams, vertices: Sequence[FieldVector]) -> EdgeColoring:
    """The (q+1)-coloring on the given distinct self-orthogonal vectors.

    A pure function of (params, vertices): rebuilding with the same
    arguments is byte-identical, and any vertex subset colors to the
    restriction of the full coloring.
    """
    verts = list(vertices)
    q = params.modulus.q
    if len(verts) != params.n:
        raise ParameterError(f"got {len(verts)} vertices, params say n={params.n}")
    # Modulus and dimension, self-orthogonality, no duplicates, per vertex.
    IsotropicSet(params.modulus, params.t, tuple(verts))
    # The pair loop works on coordinate tuples and text forms computed
    # once per vertex.  A nonzero product is the color; a zero product
    # flips the coin keyed by pair_identity's string, the two text forms
    # in coordinate order.
    seed = params.seed
    coords = [v.coords for v in verts]
    texts = [v.text_form() for v in verts]
    rows = []
    for i in range(len(verts) - 1):
        ci, ti = coords[i], texts[i]
        row = []
        for j in range(i + 1, len(verts)):
            cj = coords[j]
            d = sum(map(mul, ci, cj)) % q
            if d:
                row.append(d)
            elif ci < cj:
                row.append(q + pair_coin(seed, ti + "|" + texts[j]))
            else:
                row.append(q + pair_coin(seed, texts[j] + "|" + ti))
        rows.append(tuple(row))
    prov = (_field_line(q, params.t, params.n, params.seed),)
    return EdgeColoring(params.n, q + 1, tuple(rows), prov)


def _field_line(q: int, t: int, n: int, seed: int) -> str:
    """The provenance line of a (q+1)-coloring of n vectors of F_q^t
    colored under seed; field_provenance reads it back."""
    return f"field-coloring q={q} t={t} n={n} seed={seed}"


def field_provenance(coloring: EdgeColoring) -> tuple[int, int, int, int] | None:
    """(q, t, n, seed) from the provenance line build_field_coloring
    writes, when it is the coloring's first line and the header agrees
    with it: n vertices, q + 1 colors and t >= 1; otherwise None.  Tying
    q to the header keeps a primality test of q within the cost of
    searching the coloring's colors."""
    if not coloring.provenance:
        return None
    m = re.fullmatch(r"field-coloring q=(\d+) t=(\d+) n=(\d+) seed=(\d+)", coloring.provenance[0])
    if not m:
        return None
    q, t, n, seed = map(int, m.groups())
    if n != coloring.n or q + 1 != coloring.num_colors or t < 1:
        return None
    return q, t, n, seed


def build_two_color(t: int, n: int, seed: int) -> EdgeColoring:
    """Two-coloring of n sampled vectors of F_2^(2t) by product parity:
    color 1 when orthogonal, else 2.

    The vertices are n distinct coordinate tuples, rejection-sampled
    uniformly from the whole space, with no self-orthogonality filter.
    """
    length = 2 * t
    if length < 1:
        raise ParameterError("vector length must be positive")
    if n > 2**length:
        raise CapacityError(f"cannot pick {n} distinct vectors from F_2^{length}")
    rng = make_rng(derive_seed(seed, "binary-vertices"))
    if n < 2:
        raise ParameterError("need at least two vertices")
    # A dict keeps the first draw of each tuple, in drawing order.
    chosen: dict[tuple[int, ...], None] = {}
    while len(chosen) < n:
        chosen[tuple(rng.randrange(2) for _ in range(length))] = None
    coords = list(chosen)
    rows = tuple(
        tuple(2 if sum(map(mul, ci, cj)) % 2 else 1 for cj in coords[i + 1 :])
        for i, ci in enumerate(coords[:-1])
    )
    return EdgeColoring(n, 2, rows, (f"two-color t={t} n={n} seed={seed}",))


def build_paley(p: int) -> EdgeColoring:
    """Quadratic-residue two-coloring on vertices 0..p-1.

    Requires p = 1 mod 4 so that -1 is a residue and adjacency is
    symmetric.
    """
    if not is_prime(p):
        raise ParameterError(f"{p} is not prime")
    if p % 4 != 1:
        raise ParameterError(f"{p} is {p % 4} mod 4; need 1 mod 4 for a symmetric coloring")
    residues = {x * x % p for x in range(1, p)}
    rows = tuple(
        tuple(1 if (j - i) % p in residues else 2 for j in range(i + 1, p)) for i in range(p - 1)
    )
    return EdgeColoring(p, 2, rows, (f"paley p={p}",))
