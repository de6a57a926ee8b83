"""Correctness checks on ramseylb outputs.

Nothing here imports ramseylb: the file formats are parsed, cliques are
checked and certificates are re-examined with this module's own code,
so a defect in the package cannot also hide in the check.
"""

from __future__ import annotations

import hashlib
import itertools
import re
from fractions import Fraction


class CheckError(Exception):
    """An output differs from what the request must produce."""


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# -- coloring files ----------------------------------------------------------

def parse_coloring(text: str) -> tuple[int, int, list[list[int]]]:
    """(n, colors, rows) of a ``ramsey-coloring 1`` text; rows[i][j-i-1] is edge {i, j}."""
    lines = text.split("\n")
    expect(len(lines) >= 2 and lines[0] == "ramsey-coloring 1", "missing coloring magic line")
    m = re.fullmatch(r"n=(\d+) colors=(\d+)", lines[1])
    expect(m is not None, f"bad coloring header {lines[1]!r}")
    n, colors = int(m.group(1)), int(m.group(2))
    body = [ln for ln in lines[2:] if not ln.startswith("#")]
    expect(body[-1:] == [""], "coloring text must end with a newline")
    body = body[:-1]
    expect(len(body) == n - 1, f"expected {n - 1} rows, found {len(body)}")
    rows = []
    for i, ln in enumerate(body):
        expect(re.fullmatch(r"\d+( \d+)*", ln) is not None, f"row {i} is malformed")
        row = [int(x) for x in ln.split(" ")]
        expect(len(row) == n - 1 - i, f"row {i} has {len(row)} entries")
        expect(all(1 <= c <= colors for c in row), f"row {i} has a color outside [1, {colors}]")
        rows.append(row)
    return n, colors, rows


def edge(rows: list[list[int]], i: int, j: int) -> int:
    if i > j:
        i, j = j, i
    return rows[i][j - i - 1]


def check_clique(rows: list[list[int]], n: int, color: int, verts: list[int]) -> None:
    expect(len(set(verts)) == len(verts), f"color {color}: repeated witness vertex")
    expect(all(0 <= v < n for v in verts), f"color {color}: witness vertex out of range")
    for a, b in itertools.combinations(verts, 2):
        expect(edge(rows, a, b) == color, f"color {color}: witness edge {a}-{b} has another color")


def mono_subset(rows: list[list[int]], n: int, k: int) -> tuple[int, ...] | None:
    """A monochromatic k-subset found by listing every k-subset, or None."""
    for sub in itertools.combinations(range(n), k):
        c = edge(rows, sub[0], sub[1])
        if all(edge(rows, a, b) == c for a, b in itertools.combinations(sub, 2)):
            return sub
    return None


# -- verify --------------------------------------------------------------------

_VERIFY_LINE = re.compile(r"color (\d+): max clique (\d+), witness ?([\d ]*)")


def check_verify(out: str, rc: int, coloring_text: str, target: int,
                 sizes: list[int], expected_rc: int) -> None:
    """The printed maxima and exit code equal the pinned ones, every witness
    is a clique of its color in the file, and the verdict follows the target."""
    n, colors, rows = parse_coloring(coloring_text)
    lines = out.splitlines()
    expect(len(lines) == colors + 1, f"verify printed {len(lines)} lines for {colors} colors")
    got = []
    for c, ln in enumerate(lines[:-1], start=1):
        m = _VERIFY_LINE.fullmatch(ln)
        expect(m is not None and int(m.group(1)) == c, f"bad verify line {ln!r}")
        size = int(m.group(2))
        verts = [int(x) for x in m.group(3).split()]
        expect(len(verts) == size, f"color {c}: witness has {len(verts)} vertices, size {size}")
        check_clique(rows, n, c, verts)
        got.append(size)
    expect(got == sizes, f"max clique sizes {got}, pinned {sizes}")
    found = any(s >= target for s in got)
    verdict = "found" if found else "none"
    expect(lines[-1] == f"monochromatic clique of size >= {target}: {verdict}", "wrong verdict line")
    expect(rc == (1 if found else 0), f"exit code {rc} disagrees with the verdict")
    expect(rc == expected_rc, f"exit code {rc}, pinned {expected_rc}")


# -- certificates ----------------------------------------------------------------

_CERT_KEYS = ("q", "t", "colors", "n", "seed", "attempt")


def check_certificate(text: str, q: int, t: int, n: int, seed: int) -> None:
    """A certificate for (q, t, n, seed) whose coloring has no monochromatic K_t.

    The coloring block must agree with the stored vectors: a pair with
    nonzero product p has color p, an orthogonal pair one of the two coin
    colors q and q+1.  Then every t-subset is listed.
    """
    head, sep, block = text.partition("\ncoloring:\n")
    expect(bool(sep), "certificate has no coloring block")
    lines = head.split("\n")
    expect(lines[0] == "ramsey-certificate 1", "missing certificate magic line")
    fields = {}
    for key, ln in zip(_CERT_KEYS, lines[1:7]):
        m = re.fullmatch(key + r"=(\d+)", ln)
        expect(m is not None, f"expected {key}= line, got {ln!r}")
        fields[key] = int(m.group(1))
    expect(fields["q"] == q and fields["t"] == t and fields["n"] == n, "header does not match the request")
    expect(fields["seed"] == seed and fields["colors"] == q + 1, "header seed or colors wrong")
    expect(lines[7].startswith("max-clique-sizes="), "missing max-clique-sizes line")
    sizes = [int(x) for x in lines[7][len("max-clique-sizes="):].split()]
    expect(len(sizes) == q + 1 and all(s < t for s in sizes), f"claimed sizes {sizes} not below {t}")
    expect(lines[8] == "verdict=pass" and lines[9] == "vectors:", "bad verdict or vectors line")
    vecs = []
    for ln in lines[10:]:
        parts = [int(x) for x in ln.split(" ")]
        expect(parts[:2] == [q, t] and len(parts) == t + 2, f"bad vector line {ln!r}")
        coords = parts[2:]
        expect(all(0 <= c < q for c in coords), f"coordinate out of range in {ln!r}")
        expect(sum(c * c for c in coords) % q == 0, f"vector {ln!r} is not self-orthogonal")
        vecs.append(coords)
    expect(len(vecs) == n and len({tuple(v) for v in vecs}) == n, "vectors are not n distinct ones")
    bn, colors, rows = parse_coloring(block)
    expect(bn == n and colors == q + 1, "embedded coloring has the wrong size")
    for i, j in itertools.combinations(range(n), 2):
        p = sum(a * b for a, b in zip(vecs[i], vecs[j])) % q
        c = edge(rows, i, j)
        expect(c == p if p else c in (q, q + 1), f"edge {i}-{j} color {c} disagrees with product {p}")
    sub = mono_subset(rows, n, t)
    expect(sub is None, f"monochromatic K_{t} on {sub}")


_FAILURE_LINE = re.compile(r"  attempt (\d+): color (\d+) has a clique of size (\d+)")


def check_no_witness(out: str, seed: int, attempts: int, t: int, colors: int) -> None:
    """The 'no witness' report of certify: every listed attempt failed at size >= t."""
    lines = out.splitlines()
    expect(lines[:1] == [f"certify: seed={seed} no witness within {attempts} attempts"],
           "bad no-witness header")
    listed = lines[1:11]
    expect(len(listed) == min(10, attempts), f"listed {len(listed)} failed attempts")
    for k, ln in enumerate(listed, start=1):
        m = _FAILURE_LINE.fullmatch(ln)
        expect(m is not None and int(m.group(1)) == k, f"bad failure line {ln!r}")
        expect(1 <= int(m.group(2)) <= colors and int(m.group(3)) >= t, f"failure line {ln!r} is no failure")
    if attempts > 10:
        expect(lines[11:] == [f"  ... and {attempts - 10} more attempts"], "bad failure summary")


# -- moments ---------------------------------------------------------------------

def first_moment(count: int, p: Fraction, t: int) -> Fraction:
    """Expected surviving monochromatic potential t-cliques: each of the
    count cliques survives with p^t and its C(t,2) coins agree with 2^(1-C(t,2))."""
    pairs = t * (t - 1) // 2
    return count * p**t * Fraction(2) ** (1 - pairs)


def check_potential(cliques, q: int, t: int, count: int) -> None:
    """count distinct t-sets of self-orthogonal vectors, pairwise orthogonal."""
    expect(len(cliques) == count, f"found {len(cliques)} potential cliques, pinned {count}")
    seen = set()
    for c in cliques:
        coords = [tuple(v.coords) for v in c.vectors]
        expect(len(coords) == t and len(set(coords)) == t, "clique does not have t distinct vectors")
        for a, b in itertools.combinations_with_replacement(coords, 2):
            expect(sum(x * y for x, y in zip(a, b)) % q == 0, f"vectors {a} and {b} are not orthogonal")
        seen.add(frozenset(coords))
    expect(len(seen) == count, "potential cliques repeat")
