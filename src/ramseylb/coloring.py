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

from .errors import CapacityError, FormatError, ParameterError, RamseyLBError, ResourceCapError, _require_ints
from .field import FieldVector, PrimeModulus, _scalar_products, is_prime
from .isotropic import DEFAULT_ENUM_CAP, IsotropicSet, _check_enumeration_cap, _isotropic_coords
from .rng import _checked, derive_seed, make_rng, pair_coin

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
# Colors 1 and 2 of build_two_color for the products 0 and 1 mod 2.
_PARITY_COLORS = b"\x01\x02" + bytes(254)


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


def _byte_rows(rows: Sequence[Sequence[int]], n: int, k: int) -> tuple[bytes, ...] | None:
    """rows as a tuple of bytes when row i holds n - 1 - i colors, each an
    exact int in [1, k]; otherwise None.  For a palette whose rows
    _row_type makes bytes.  Decided in C: a bytes row holds only ints in
    [0, 255]; the colors of any other row are checked by type(), which
    runs none of their code, so bytes() meets only exact ints, and it
    refuses one outside [0, 255]."""
    if list(map(len, rows)) != list(range(n - 1, 0, -1)):
        return None
    if operator.countOf(map(type, rows), bytes) != len(rows):
        colors = list(itertools.chain.from_iterable(rows))
        if operator.countOf(map(type, colors), int) != len(colors):
            return None
        try:
            rows = list(map(bytes, rows))
        except ValueError:
            return None
    if b"".join(rows).translate(None, _BYTES[1 : k + 1]):
        return None
    return tuple(rows)


def _row_type(k: int) -> type:
    """The type of a row of a k-color coloring as EdgeColoring keeps it,
    for builders that hand it rows in that form."""
    return bytes if k <= 255 else tuple


@dataclass(frozen=True)
class EdgeColoring:
    """A complete edge coloring of K_n with colors in [1, num_colors].

    ``rows[i]`` holds the colors of edges (i, i+1), ..., (i, n-1): bytes
    for a palette of at most 255 colors, a tuple of ints above.  Rows are
    accepted in any sequence of exact ints and kept in that one form, so
    equal colorings compare and hash equal.  Provenance lines record how
    the coloring was built; they are carried into the file format as
    comments and ignored by equality.
    """

    n: int
    num_colors: int
    rows: tuple[bytes, ...] | tuple[tuple[int, ...], ...]
    provenance: tuple[str, ...] = dataclass_field(default=(), compare=False)

    def __post_init__(self) -> None:
        n, k = self.n, self.num_colors
        _require_ints(n=n, num_colors=k)
        if n < 1:
            raise ParameterError("a coloring needs at least one vertex")
        if k < 1:
            raise ParameterError("a coloring needs at least one color")
        if len(self.rows) != n - 1:
            raise ParameterError(f"expected {n - 1} rows, got {len(self.rows)}")
        rows = _byte_rows(self.rows, n, k) if _row_type(k) is bytes else None
        if rows is None:
            # Walked pair by pair: for byte rows only when a check fails,
            # to report its first fault; for int rows, to check each color.
            for i, row in enumerate(self.rows):
                if len(row) != n - 1 - i:
                    raise ParameterError(f"row {i} has {len(row)} colors, expected {n - 1 - i}")
                for c in row:
                    if type(c) is not int or not 1 <= c <= k:
                        bad = f"outside [1, {k}]" if type(c) is int else "is not an int"
                        raise ParameterError(f"color {c!r} {bad}")
            rows = tuple(map(tuple, self.rows))
        object.__setattr__(self, "rows", rows)

    @cached_property
    def _matrix(self) -> bytes:
        """The n x n color matrix, symmetric with a zero diagonal, as
        bytes: row i fills both (i, j > i) and column i of rows j > i."""
        n = self.n
        mat = bytearray(n * n)
        for i, row in enumerate(self.rows):
            mat[i * n + i + 1 : (i + 1) * n] = row
            mat[(i + 1) * n + i :: n] = row
        return bytes(mat)

    @cached_property
    def _gram_stop(self) -> tuple[int, int] | None:
        """(q, t) when the first provenance line names a construct draw
        (see field_provenance), t - 1 <= n, and the draw's products match
        every edge of a color below q (see _products_match); else None.
        A search over n vertices never reaches a Gram bound, t or t - 1,
        above n, so no products are checked when t - 1 > n."""
        named = field_provenance(self)
        if named is None or named[1] - 1 > self.n or not _products_match(self, *named):
            return None
        return named[:2]

    def color_class_bitsets(self, color: int) -> list[int]:
        """Adjacency of the chosen color class as per-vertex bitmasks.

        Read from the color matrix, translated to "0"/"1" and reversed so
        that vertex v's row, read as binary, has bit j for edge (v, j).
        A palette whose rows are int tuples is read per pair.
        """
        _require_ints(color=color)
        if not 1 <= color <= self.num_colors:
            raise ParameterError(f"color {color} outside [1, {self.num_colors}]")
        n = self.n
        if _row_type(self.num_colors) is not bytes:
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
        if operator.countOf(map(type, idx), int) != len(idx):
            bad = next(i for i in idx if type(i) is not int)
            raise ParameterError(f"vertex index {bad!r} must be an int")
        if len(set(idx)) != len(idx):
            raise ParameterError("duplicate vertex in subset")
        if not all(0 <= i < self.n for i in idx):
            raise ParameterError(f"vertex index outside [0, {self.n})")
        k = len(idx)
        full = self.rows
        frozen = _row_type(self.num_colors)
        rows = tuple(
            frozen(full[i][j - i - 1] if i < j else full[j][i - j - 1] for j in idx[a + 1 :])
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
                line[::2] = row.translate(_DIGITS)
                lines.append(line.decode())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "EdgeColoring":
        if not isinstance(text, str):
            raise FormatError(f"coloring text must be a str, not {type(text).__name__}")
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
                rows.append(line.encode()[::2].translate(_UNDIGITS))
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
        # The provenance line records the seed, even if no coin is flipped.
        _checked(self.seed)


def _check_construction(q: int, t: int, n: int) -> None:
    _require_ints(t=t, n=n)
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
    frozen = _row_type(q + 1)
    rows = []
    for i, prods in enumerate(_scalar_products(coords, q)):
        ri, hi, ti = ranks[i], heads[i], texts[i]
        row = list(prods)
        j = -1
        for _ in range(prods.count(0)):
            j = prods.index(0, j + 1)
            k = i + 1 + j
            row[j] = q + pair_coin(seed, hi + texts[k] if ri < ranks[k] else heads[k] + ti)
        rows.append(frozen(row))
    prov = (_field_line(q, params.t, params.n, params.seed),)
    return EdgeColoring(params.n, q + 1, tuple(rows), prov)


def _field_line(q: int, t: int, n: int, seed: int) -> str:
    """The provenance line of a (q+1)-coloring of n vectors of F_q^t
    colored under seed; field_provenance reads it back."""
    return f"field-coloring q={q} t={t} n={n} seed={seed}"


def field_provenance(coloring: EdgeColoring) -> tuple[int, int, int, int] | None:
    """(q, t, n, seed) from the provenance line build_field_coloring
    writes, when it is the coloring's first line and the header agrees
    with it: n vertices, q + 1 colors and t >= 1; otherwise None."""
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


def _construct_sample(
    q: int, t: int, n: int, seed: int, cap: int
) -> tuple[ConstructionParams, list[tuple[int, ...]]]:
    """The parameters of ``construct`` and the coordinate tuples of its
    vertices: n distinct ground-set vectors of F_q^t, sampled under the seed.

    The positions are drawn from range(|V|): random.sample reads only the
    length of its population and the items at the positions it draws, so
    these are the coordinates of the vectors sample_distinct draws from
    the enumerated ground set; no vector is built.
    """
    _check_pairs(n)
    _check_enumeration_cap(q, t, cap)
    modulus = PrimeModulus(q)
    if n < 0:
        raise ParameterError("sample size must be non-negative")
    ground = list(_isotropic_coords(q, t))
    if n > len(ground):
        raise CapacityError(f"requested {n} distinct vectors from a set of {len(ground)}")
    picks = make_rng(derive_seed(seed, "construct-sample")).sample(range(len(ground)), n)
    return ConstructionParams(modulus, t, seed, n), [ground[i] for i in picks]


def _products_match(coloring: EdgeColoring, q: int, t: int, n: int, seed: int) -> bool:
    """Whether every edge of a color c in [1, q-1] joins two of the
    vectors ``construct`` samples for (q, t, n, seed) whose product is c.

    Then each such color class holds only cliques of vectors with
    pairwise product c, and _gram_bound bounds their size (see
    max_monochromatic_clique).  A request ``construct`` refuses means no.
    """
    try:
        _, coords = _construct_sample(q, t, n, seed, DEFAULT_ENUM_CAP)
    except RamseyLBError:
        return False
    products = list(_scalar_products(coords, q))
    if isinstance(products[0], bytes):
        # One byte per product, so q <= 16 and every color fits a byte: the
        # colors and the products must agree under a mask over [1, q - 1].
        colors = b"".join(coloring.rows)
        mask = colors.translate(bytes(1) + b"\xff" * (q - 1) + bytes(256 - q))
        diff = int.from_bytes(colors, "little") ^ int.from_bytes(b"".join(products), "little")
        return not diff & int.from_bytes(mask, "little")
    # Each distinct (color, product) pair of the edges is checked once.
    seen = set()
    for row, prods in zip(coloring.rows, products):
        seen.update(zip(row, prods))
    return all(c >= q or c == d for c, d in seen)


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
    rows = tuple(bytes(prods).translate(_PARITY_COLORS) for prods in _scalar_products(coords, 2))
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
    # Edge (i, j), i < j, has color 1 when j - i is a residue: row i is
    # the colors of the differences 1, ..., p - 1 - i.
    residues = {x * x % p for x in range(1, p)}
    colors = bytes(1 if d in residues else 2 for d in range(p))
    rows = tuple(colors[1 : p - i] for i in range(p - 1))
    return EdgeColoring(p, 2, rows, (f"paley p={p}",))
