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

import itertools
import operator
import re
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
from typing import Iterable, Sequence

from .errors import CapacityError, FormatError, ParameterError, ResourceCapError, _require_ints
from .field import FieldVector, PrimeModulus, _scalar_products, is_prime
from .isotropic import IsotropicSet
from .rng import derive_seed, make_rng, pair_coin

FORMAT_MAGIC = "ramsey-coloring 1"
# An integer as str() spells it, and what int() reads in a token but str()
# never writes: a sign, an underscore, a non-ASCII digit or a leading zero.
_INT = r"(0|[1-9][0-9]*)"
_NOT_CANONICAL = re.compile(r"[^\s0-9]|0(?<![0-9]0)[0-9]")
_ZEROS = b"0" * 256
_BYTES = bytes(range(256))
# The one-byte codec of a palette of at most 9 colors: a data line that
# str() and " ".join() would write, each color one digit, blank-separated.
_DIGIT_ROW = re.compile(r"[1-9](?: [1-9])*")
_DIGITS = bytes((c + 48) % 256 for c in range(256))
_UNDIGITS = bytes((c - 48) % 256 for c in range(256))


# The most vertex pairs of a coloring a request may build: n(n - 1)/2 at
# most 10^7, so n at most 4,472.  Each pair holds a color in the rows, a
# byte in the color classes' matrix and two in the text.  Requests past
# it raise ResourceCapError before anything is enumerated or built; the
# largest in the package's tests and benchmark, (2,13,1000), has 499,500.
MAX_PAIRS = 10**7


def _check_pairs(n: int) -> None:
    """Raise ResourceCapError when K_n has more than MAX_PAIRS pairs."""
    if n > 1 and n * (n - 1) // 2 > MAX_PAIRS:
        raise ResourceCapError(f"a coloring of {n} vertices exceeds the cap of {MAX_PAIRS} pairs")


def _ints(digits: Iterable[str]) -> tuple[int, ...] | None:
    """Digit strings as ints; None past int()'s limit, 4,300 digits by default."""
    try:
        return tuple(map(int, digits))
    except ValueError:
        return None


def _colors_fit(rows: Sequence[Sequence[int]], k: int) -> bool:
    """Whether every color is an exact int in [1, k], decided in C:
    type() runs none of a color's code, so bytes() meets only ints, and
    it refuses one outside [0, 255].  So a color above 255 answers no,
    also when k allows it."""
    colors = list(itertools.chain.from_iterable(rows))
    if operator.countOf(map(type, colors), int) != len(colors):
        return False
    try:
        return not bytes(colors).translate(None, _BYTES[1 : k + 1])
    except ValueError:
        return False


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
        n, k = self.n, self.num_colors
        if type(n) is not int or type(k) is not int:
            raise ParameterError(f"n and num_colors must be int: {n!r}, {k!r}")
        if n < 1:
            raise ParameterError("a coloring needs at least one vertex")
        if k < 1:
            raise ParameterError("a coloring needs at least one color")
        if len(self.rows) != n - 1:
            raise ParameterError(f"expected {n - 1} rows, got {len(self.rows)}")
        if list(map(len, self.rows)) == list(range(n - 1, 0, -1)) and _colors_fit(self.rows, k):
            return
        # Walked pair by pair only when a check fails, to report its first fault.
        for i, row in enumerate(self.rows):
            if len(row) != n - 1 - i:
                raise ParameterError(f"row {i} has {len(row)} colors, expected {n - 1 - i}")
            for c in row:
                if type(c) is not int or not 1 <= c <= k:
                    bad = f"outside [1, {k}]" if type(c) is int else "is not an int"
                    raise ParameterError(f"color {c!r} {bad}")

    @cached_property
    def _matrix(self) -> bytes:
        """The n x n color matrix, symmetric with a zero diagonal, as
        bytes: row i fills both (i, j > i) and column i of rows j > i."""
        n = self.n
        mat = bytearray(n * n)
        for i, row in enumerate(self.rows):
            r = bytes(row)
            mat[i * n + i + 1 : (i + 1) * n] = r
            mat[(i + 1) * n + i :: n] = r
        return bytes(mat)

    def color_class_bitsets(self, color: int) -> list[int]:
        """Adjacency of the chosen color class as per-vertex bitmasks.

        Read from the color matrix, translated to "0"/"1" and reversed so
        that vertex v's row, read as binary, has bit j for edge (v, j).
        A palette above 255 colors does not fit bytes and is read per pair.
        """
        if not 1 <= color <= self.num_colors:
            raise ParameterError(f"color {color} outside [1, {self.num_colors}]")
        n = self.n
        if self.num_colors > 255:
            adj = [0] * n
            for i, row in enumerate(self.rows):
                bit = 1 << i
                acc = 0
                for j, c in enumerate(row, i + 1):
                    if c == color:
                        acc |= 1 << j
                        adj[j] |= bit
                adj[i] |= acc
            return adj
        bits = self._matrix.translate(_ZEROS[:color] + b"1" + _ZEROS[color + 1 :])[::-1]
        return [int(bits[k : k + n], 2) for k in range((n - 1) * n, -1, -n)]

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
        if self.num_colors > 9:
            lines.extend(" ".join(str(c) for c in row) for row in self.rows)
        else:
            # One digit per color, spliced into the even offsets of the blanks.
            for row in self.rows:
                line = bytearray(b" " * (2 * len(row) - 1))
                line[::2] = bytes(row).translate(_DIGITS)
                lines.append(line.decode())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "EdgeColoring":
        lines = text.splitlines()
        if not lines or lines[0] != FORMAT_MAGIC:
            raise FormatError("missing coloring magic line")
        if len(lines) < 2:
            raise FormatError("missing coloring header line")
        m = re.fullmatch(rf"n={_INT} colors={_INT}", lines[1])
        header = m and _ints(m.groups())
        if not header:
            raise FormatError(f"bad coloring header: {lines[1]!r}")
        n, num_colors = header
        pos = 2
        provenance: list[str] = []
        while pos < len(lines) and lines[pos].startswith("#"):
            raw = lines[pos]
            provenance.append(raw[2:] if raw.startswith("# ") else raw[1:])
            pos += 1
        rows = []
        for i, line in enumerate(lines[pos:]):
            if _DIGIT_ROW.fullmatch(line):
                rows.append(tuple(line.encode()[::2].translate(_UNDIGITS)))
                continue
            try:
                rows.append(tuple(map(int, line.split())))
            except ValueError as exc:
                raise FormatError(f"non-integer color on data line {i + 1}") from exc
            if _NOT_CANONICAL.search(line):
                raise FormatError(f"non-canonical integer on data line {i + 1}")
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
        _check_construction(self.modulus.q, self.t, self.n)


def _check_construction(q: int, t: int, n: int) -> None:
    if type(t) is not int or type(n) is not int:
        raise ParameterError(f"dimension t={t!r} and vertex count n={n!r} must be ints")
    if t < 1 or t % q == 0:
        raise ParameterError(f"dimension t={t} must be nonzero mod q={q}")
    if n < 2:
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
    # A nonzero product is the color; a zero product flips the coin keyed
    # by pair_identity's string, the two text forms in coordinate order.
    # The vertices are distinct, so ranks in coordinate order compare as
    # their coordinates do, and each text carries its "|" once.
    seed = params.seed
    coords = [v.coords for v in verts]
    texts = [v.text_form() for v in verts]
    heads = [text + "|" for text in texts]
    ranks = [0] * len(verts)
    for r, k in enumerate(sorted(range(len(verts)), key=coords.__getitem__)):
        ranks[k] = r
    rows = []
    for i, prods in enumerate(_scalar_products(coords, q)):
        ri, hi, ti = ranks[i], heads[i], texts[i]
        row = list(prods)
        j = -1
        for _ in range(prods.count(0)):
            j = prods.index(0, j + 1)
            k = i + 1 + j
            row[j] = q + pair_coin(seed, hi + texts[k] if ri < ranks[k] else heads[k] + ti)
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
    m = re.fullmatch(rf"field-coloring q={_INT} t={_INT} n={_INT} seed={_INT}", coloring.provenance[0])
    fields = m and _ints(m.groups())
    if not fields:
        return None
    q, t, n, seed = fields
    if n != coloring.n or q + 1 != coloring.num_colors or t < 1:
        return None
    return q, t, n, seed


# The longest vector build_two_color draws, 2t coordinates; a longer one
# raises ResourceCapError.  A vertex costs 2t coin draws and the product
# kernel 2t digits per vertex: at the cap, 400 vertices took 3.5 s on a
# 2-core VM.  The construction's own smoke test runs at 2t = 8.
MAX_TWO_COLOR_LENGTH = 2**8


def build_two_color(t: int, n: int, seed: int) -> EdgeColoring:
    """Two-coloring of n sampled vectors of F_2^(2t) by product parity:
    color 1 when orthogonal, else 2.

    The vertices are n distinct coordinate tuples, rejection-sampled
    uniformly from the whole space, with no self-orthogonality filter.
    """
    _require_ints(t=t, n=n)
    length = 2 * t
    if length < 1:
        raise ParameterError("vector length must be positive")
    if length > MAX_TWO_COLOR_LENGTH:
        raise ResourceCapError(f"vector length 2t = {length} exceeds the cap {MAX_TWO_COLOR_LENGTH}")
    # n > 2^length, compared without forming the power.
    if n > 0 and (n - 1).bit_length() > length:
        raise CapacityError(f"cannot pick {n} distinct vectors from F_2^{length}")
    _check_pairs(n)
    rng = make_rng(derive_seed(seed, "binary-vertices"))
    if n < 2:
        raise ParameterError("need at least two vertices")
    # A dict keeps the first draw of each tuple, in drawing order.
    chosen: dict[tuple[int, ...], None] = {}
    while len(chosen) < n:
        chosen[tuple(rng.randrange(2) for _ in range(length))] = None
    coords = list(chosen)
    rows = tuple(tuple(map((1, 2).__getitem__, prods)) for prods in _scalar_products(coords, 2))
    return EdgeColoring(n, 2, rows, (f"two-color t={t} n={n} seed={seed}",))


def build_paley(p: int) -> EdgeColoring:
    """Quadratic-residue two-coloring on vertices 0..p-1.

    Requires p = 1 mod 4 so that -1 is a residue and adjacency is
    symmetric.
    """
    _require_ints(p=p)
    _check_pairs(p)
    if not is_prime(p):
        raise ParameterError(f"{p} is not prime")
    if p % 4 != 1:
        raise ParameterError(f"{p} is {p % 4} mod 4; need 1 mod 4 for a symmetric coloring")
    residues = {x * x % p for x in range(1, p)}
    rows = tuple(
        tuple(1 if (j - i) % p in residues else 2 for j in range(i + 1, p)) for i in range(p - 1)
    )
    return EdgeColoring(p, 2, rows, (f"paley p={p}",))
