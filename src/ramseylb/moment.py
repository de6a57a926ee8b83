"""First moments of monochromatic potential cliques and the seeded
search for witness colorings.

The expected number of potential cliques that survive a Bernoulli(p)
subset with all their coins agreeing is computed two ways, exactly by
brute force over a small ground set and by Monte Carlo sampling, so each
cross-checks the other at small sizes.

Witness certificates are self-contained: the stored seed, attempt index
and vertex list reproduce the coloring byte for byte, so a verifier
needs nothing beyond this module to re-check a claimed bound instance.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import re
import statistics
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Union

from .bounds import SlackLike, as_slack, floor_power_product
# enumerate_potential_cliques and max_monochromatic_clique are not called
# here; they stay bound because perfbench wraps them as
# ramseylb.moment.enumerate_potential_cliques and
# ramseylb.moment.max_monochromatic_clique.
from .cliques import (  # noqa: F401
    DEFAULT_NODE_CAP,
    _has_clique,
    _k_cliques,
    _max_clique_mask,
    _orthogonal_tuples,
    enumerate_potential_cliques,
    max_monochromatic_clique,
)
from .coloring import (
    _INT, _UNDIGITS, ConstructionParams, EdgeColoring, _check_construction, _check_pairs, _field_line,
    _ints, build_field_coloring, pair_identity,
)
from .errors import CapacityError, FormatError, ParameterError, RamseyLBError, ResourceCapError, _require_ints
from .field import FieldVector, PrimeModulus, _text_modulus
from .isotropic import (
    IsotropicSet,
    _check_enumeration_cap,
    _float_threshold,
    _isotropic_count,
    bernoulli_subset,
    enumerate_isotropic,
    sample_distinct,
)
from .rng import derive_seed, make_rng, pair_coin

CERTIFICATE_MAGIC = "ramsey-certificate 1"

# exact_mono_expectation enumerates every subset of the ground set.
_SUBSET_CAP = 20


def recommended_n(q: int, t: int, slack: SlackLike = 0) -> int:
    """floor(2^(t/2) * q^(3t/8 + slack)), the target vertex count."""
    _require_ints(t=t)
    PrimeModulus(q)
    if t < 0:
        raise ParameterError("t must be non-negative")
    s = as_slack(slack)
    return floor_power_product([(2, Fraction(t, 2)), (q, Fraction(3 * t, 8) + s)])


def _moment_ground(q: int, t: int, p) -> IsotropicSet:
    """The ground set of F_q^t, once the estimators' shared arguments are
    checked: t >= 2, as they count cliques whose pairs' coins all agree,
    p in [0, 1], the enumeration cap, and last q's primality."""
    if t < 2:
        raise ParameterError(f"t={t}: a monochromatic clique needs t >= 2")
    # Compared before any conversion, which raises ValueError for NaN and
    # OverflowError for an infinity.
    if not 0 <= p <= 1:
        raise ParameterError(f"probability {p} outside [0, 1]")
    _check_enumeration_cap(q, t)
    return enumerate_isotropic(PrimeModulus(q), t)


def _clique_table(
    ground: IsotropicSet, t: int
) -> tuple[list[tuple[int, int]], list[tuple[tuple[int, ...], list[int]]]]:
    """The distinct index pairs (a, b), a < b, of all potential t-cliques,
    each once; and each potential clique, in the lexicographic order of
    its ground-set indices, as the ascending tuple of those indices with
    the positions of its C(t, 2) pairs in that list.

    A clique is monochromatic when the coins on its pairs agree, so these
    pairs are all that either estimator flips.
    """
    position: dict[tuple[int, int], int] = {}
    table = []
    for ids in _orthogonal_tuples(ground, t, DEFAULT_NODE_CAP):
        js = [position.setdefault(pr, len(position)) for pr in itertools.combinations(ids, 2)]
        table.append((ids, js))
    return list(position), table


def _coin_column(i: int, u: int) -> int:
    """Coin i's value in each of the 2^u assignments of u coins: an int
    of 2^u bits whose bit a is bit i of a.  Read little-endian from a
    repeated byte pattern (0xaa, 0xcc, 0xf0, then blocks of 2^(i-3) zero
    and 2^(i-3) 0xff bytes), cut to 2^u bits when u < 3."""
    if i < 3:
        pattern = b"\xaa\xcc\xf0"[i : i + 1]
    else:
        pattern = bytes(1 << (i - 3)) + b"\xff" * (1 << (i - 3))
    size = max(1, 1 << u >> 3)
    return int.from_bytes(pattern * (size // len(pattern)), "little") & ((1 << (1 << u)) - 1)


def _mono_assignments(
    cliques: list[list[int]], columns: dict[int, tuple[list[int], list[int]]]
) -> tuple[int, int]:
    """u, the number of distinct coins the cliques use, and the number of
    (clique, assignment) pairs, over all 2^u assignments of those coins,
    in which the clique's coins agree.

    Bit-sliced (Biham, FSE 1997): coin i is one column of 2^u bits, bit a
    of it its value in assignment a, so a clique agrees in assignment a
    exactly when bit a of AND(columns) | AND(complements) over its coins
    is set, and its count is that int's bit_count.  columns[u] holds the
    u columns and their complements, built on first use.  Only the coins
    the cliques use are flipped: a coin on any other pair would double
    both the count and the number of assignments.
    """
    used = sorted(set().union(*cliques))
    local = {j: i for i, j in enumerate(used)}
    u = len(used)
    if u not in columns:
        full = (1 << (1 << u)) - 1
        cols = [_coin_column(i, u) for i in range(u)]
        columns[u] = cols, [full ^ col for col in cols]
    cols, negs = columns[u]
    count = 0
    for js in cliques:
        ones = functools.reduce(operator.and_, [cols[local[j]] for j in js])
        zeros = functools.reduce(operator.and_, [negs[local[j]] for j in js])
        count += (ones | zeros).bit_count()
    return u, count


def exact_mono_expectation(q: int, t: int, p: Union[Fraction, float, int]) -> Fraction:
    """Exact expectation of surviving monochromatic potential cliques.

    Brute force: every subset S of the ground set is enumerated with its
    Bernoulli weight, and for S every assignment of the coins on the
    pairs of its surviving potential cliques (its live set, as a mask of
    table positions).  The assignments are tested 2^u at a time, u the
    live set's coins, as bit columns (see _mono_assignments), once per
    distinct live set: subsets with the same live set share its count.
    The counts are summed as ints by (|S|, u) and weighed as Fractions
    at the end.  No independence or linearity argument is used, so this
    stays a check on the product formula.

    Exponential; ground sets above _SUBSET_CAP vectors raise
    ResourceCapError.  Within the cap, only (2,2), (2,4), (3,3) and
    (5,2) have potential cliques, and no live set uses more than 20
    coins, so a column holds at most 2^20 bits (128 KiB); see
    test_exact_domain_has_at_most_20_coins_per_live_set.
    """
    ground = _moment_ground(q, t, p)
    pf = Fraction(p)
    m = len(ground)
    if m > _SUBSET_CAP:
        raise ResourceCapError(f"{m} vectors is beyond exact subset enumeration (cap {_SUBSET_CAP})")
    _, table = _clique_table(ground, t)
    if not table:
        return Fraction(0)
    # Containment of each clique's mask in each subset, not the Monte Carlo
    # estimator's incidence, decides survival, so each checks the other.
    masks = [sum(1 << i for i in ids) for ids, _ in table]
    columns: dict[int, tuple[list[int], list[int]]] = {}
    counts: dict[int, tuple[int, int]] = {}  # live set -> (u, count)
    buckets: dict[tuple[int, int], int] = {}  # (|S|, u) -> summed count
    for smask in range(1 << m):
        live = 0
        for pos, cm in enumerate(masks):
            if cm & smask == cm:
                live |= 1 << pos
        if not live:
            continue
        if live not in counts:
            live_pairs = [js for pos, (_, js) in enumerate(table) if live >> pos & 1]
            counts[live] = _mono_assignments(live_pairs, columns)
        u, count = counts[live]
        key = (smask.bit_count(), u)
        buckets[key] = buckets.get(key, 0) + count
    total = Fraction(0)
    for (bits, u), count in buckets.items():
        total += pf**bits * (1 - pf) ** (m - bits) * Fraction(count, 1 << u)
    return total


@dataclass(frozen=True)
class MonteCarloEstimate:
    mean: float
    stderr: float
    trials: int


def monte_carlo_mono_count(
    q: int,
    t: int,
    n_trials: int,
    p: Union[Fraction, float, int],
    seed: int,
) -> MonteCarloEstimate:
    """Empirical mean count of surviving monochromatic potential cliques.

    Each trial draws a fresh Bernoulli-p subset and a fresh pair-keyed
    coin seed, both derived from (seed, trial index).
    """
    _require_ints(n_trials=n_trials)
    if n_trials < 1:
        raise ParameterError("need at least one trial")
    ground = _moment_ground(q, t, p)
    # Every trial draws against the same float, whose comparisons equal
    # those with p, and which bernoulli_subset takes as it is.
    threshold = _float_threshold(p)
    pairs, table = _clique_table(ground, t)
    pair_ids = [pair_identity(ground.vectors[a], ground.vectors[b]) for a, b in pairs]
    index = {v.coords: i for i, v in enumerate(ground.vectors)}
    # without[v]: the table positions of the cliques that avoid vertex v,
    # as a bitmask; a trial's live cliques avoid every dropped vertex.
    every = (1 << len(table)) - 1
    without = [every ^ th for th in _incidence([ids for ids, _ in table], len(ground))]
    counts = []
    for k in range(n_trials):
        subset = bernoulli_subset(ground, threshold, make_rng(derive_seed(seed, "mc-subset", k)))
        kept = sum(1 << index[v.coords] for v in subset)
        live = every
        for v, w in enumerate(without):
            if not kept >> v & 1:
                live &= w
        coin_seed = derive_seed(seed, "mc-coins", k)
        # The live cliques are scored in table order, so the coins are
        # those a scan of the whole table flips, in the same order.  Each
        # pair's coin is flipped at most once per trial, and a clique
        # stops being scored at its first coin that differs from the others.
        coins: list[int | None] = [None] * len(pair_ids)
        cnt = 0
        while live:
            low = live & -live
            live ^= low
            js = table[low.bit_length() - 1][1]
            first = None
            for j in js:
                coin = coins[j]
                if coin is None:
                    coin = coins[j] = pair_coin(coin_seed, pair_ids[j])
                if first is None:
                    first = coin
                elif coin != first:
                    break
            else:
                cnt += 1
        counts.append(cnt)
    mean = sum(counts) / n_trials
    stderr = 0.0
    if n_trials > 1:
        stderr = statistics.stdev(counts) / math.sqrt(n_trials)
    return MonteCarloEstimate(mean, stderr, n_trials)


@dataclass(frozen=True)
class AttemptFailure:
    """One failed attempt: no set of at most m - n of its m sampled
    vertices meets every monochromatic K_t, so its first n sampled
    vertices hold one.  ``color`` is the first color with a clique of
    size >= t on those n vertices and ``clique_size`` that color's
    maximum clique there."""

    attempt: int
    color: int
    clique_size: int


@dataclass(frozen=True)
class WitnessSearchFailure:
    """No attempt could delete its way down to n vertices free of
    monochromatic K_t; one AttemptFailure per attempt.

    Absence of a witness at small scale refutes nothing; this is a
    report, not an error.
    """

    q: int
    t: int
    n: int
    seed: int
    failures: tuple[AttemptFailure, ...]


@dataclass(frozen=True)
class WitnessCertificate:
    """Self-contained record of a coloring of K_n with no monochromatic
    clique of order t, proving a concrete lower-bound instance."""

    q: int
    t: int
    num_colors: int
    n: int
    seed: int
    attempt: int
    vectors: tuple[FieldVector, ...]
    coloring: EdgeColoring
    max_clique_sizes: tuple[int, ...]
    verdict: str


def attempt_seed(seed: int, attempt: int) -> int:
    """Seed of one search attempt: a stable hash of (master seed, index)."""
    return derive_seed(seed, "attempt", attempt)


def _disjoint_packing(masks: list[int]) -> int:
    """Size of a greedy packing of pairwise disjoint masks, in list order."""
    used = packed = 0
    for mask in masks:
        if not mask & used:
            used |= mask
            packed += 1
    return packed


def _incidence(cliques: list[tuple[int, ...]], room: int) -> list[int]:
    """through[v], v in [0, room): the positions in cliques of the vertex
    tuples holding v, as a bitmask.  One bit array per vertex and one bit
    set per (clique, vertex), so linear in the cliques' vertices."""
    rows = [bytearray((len(cliques) + 7) >> 3) for _ in range(room)]
    for pos, verts in enumerate(cliques):
        byte, bit = pos >> 3, 1 << (pos & 7)
        for v in verts:
            rows[v][byte] |= bit
    return [int.from_bytes(row, "little") for row in rows]


def _hitting_set(cliques: list[tuple[int, ...]], budget: int, cap: int) -> int | None:
    """A vertex mask of at most budget vertices that meets every clique,
    each the ascending tuple of its vertices, or None when there is none.

    Exact depth-first branch and bound.  A node takes the free vertex in
    the most open cliques (lowest index on ties) and branches on
    deleting it, then on banning it from deletion below this node.  A
    node is cut when an open clique has no free vertex left, or when its
    deletions plus a greedy packing of open cliques with pairwise
    disjoint free vertices (each needs a vertex of its own) exceed the
    budget.  The open cliques are one mask of positions in cliques, and
    a vertex's count is its incidence mask's overlap with it.  A node
    walks its open cliques, never a mask bit by bit, and counts as many
    nodes as it has open cliques, at least 1, against cap.

    The packing is built only at a node where a cut can fire.  At a node
    with nothing banned, each open clique is its own free part, of at
    least ``smallest`` vertices, so none is empty unless an empty clique
    was listed (then smallest is 0 and the bound is built at every node).
    The cliques' vertices lie in [0, room), room being one past the
    highest, and the open ones avoid the d deleted vertices, so at most
    (room - d) // smallest of them are pairwise disjoint.  When d plus
    that is within the budget, neither cut fires, and the node branches
    as it would have.
    Nodes are charged before this test, so the result, every charge and
    every cap error are those of the search that always builds it.
    """
    room = max((verts[-1] + 1 for verts in cliques if verts), default=0)
    through = _incidence(cliques, room)
    smallest = min(map(len, cliques), default=0)
    bits = [1 << v for v in range(room)]
    masks = [sum(map(bits.__getitem__, verts)) for verts in cliques]
    visited = 0
    stack = [(0, 0, (1 << len(cliques)) - 1)]  # (deleted, banned, open positions)
    while stack:
        deleted, banned, open_ = stack.pop()
        visited += open_.bit_count() or 1
        if visited > cap:
            raise ResourceCapError(f"hitting-set search exceeded {cap} nodes")
        if not open_:
            return deleted
        d = deleted.bit_count()
        if banned or not smallest or d + (room - d) // smallest > budget:
            # One byte per position, 1 where the clique there is open: the
            # mask's binary digits, lowest first, as their values.
            is_open = format(open_, "b")[::-1].encode().translate(_UNDIGITS)
            frees = sorted((c & ~banned for c in itertools.compress(masks, is_open)), key=int.bit_count)
            if not frees[0] or d + _disjoint_packing(frees) > budget:
                continue
        counts = [(th & open_).bit_count() for th in through]
        rest = banned
        while rest:
            low = rest & -rest
            counts[low.bit_length() - 1] = 0
            rest ^= low
        v = counts.index(max(counts))
        stack.append((deleted, banned | 1 << v, open_))
        stack.append((deleted | 1 << v, banned, open_ & ~through[v]))
    return None


@functools.lru_cache(maxsize=1, typed=True)
def _witness_ground(q: int, t: int) -> IsotropicSet:
    """The ground set of F_q^t, enumerated once per process for the
    latest (q, t) that find_witness was asked for, and only for it: a
    witness request at another (q, t) replaces it, and no other caller
    holds a ground set past its call.  Its vectors keep their checks and
    text forms (see FieldVector), so every attempt's build pays for them
    once.  Typed, so that 3.0 or True is not served the set of 3 or 1."""
    return enumerate_isotropic(PrimeModulus(q), t)


def _run_attempt(
    ground: IsotropicSet, n: int, seed: int, attempt: int, node_cap: int
) -> WitnessCertificate | AttemptFailure:
    """One attempt: sample, color, then delete one vertex from every
    monochromatic K_t (the alteration step of the first-moment argument).

    With the attempt's seed, draw m = min(|V|, 2n) distinct ground-set
    vectors (2n is the expected sample at p = 2n/|V|), color them, list
    every monochromatic K_t, and delete at most m - n vertices meeting
    all of them.  The first n survivors in sampling order are the
    witness, colored by the attempt's coloring restricted to them, which
    then has no monochromatic K_t.  By restriction consistency that is
    the coloring build_field_coloring gives them under the attempt's
    seed, which is what reverify rebuilds.
    """
    q, t = ground.modulus.q, ground.dimension
    sk = attempt_seed(seed, attempt)
    m = min(len(ground), 2 * n)
    sample = sample_distinct(ground, m, make_rng(sk))
    col = build_field_coloring(ConstructionParams(ground.modulus, t, sk, m), sample)
    classes = [col.color_class_bitsets(c) for c in range(1, q + 2)]
    listed = [(c, verts) for c, adj in enumerate(classes, start=1)
              for verts in _k_cliques(adj, t, node_cap, "monochromatic clique listing")]
    deleted = _hitting_set([verts for _, verts in listed], m - n, node_cap)
    # A maximum clique's size does not depend on vertex order, so certify,
    # which stores only sizes, searches each class in its own order and pays
    # for no smallest-last order or relabel (verify's printed witnesses do).
    if deleted is None:
        # Deleting every vertex after the first n would have met every
        # clique, so one lies within the first n.  _k_cliques lists each
        # clique's vertices ascending, so its last vertex is its highest.
        color = min(c for c, verts in listed if verts[-1] < n)
        # The class on the first n vertices, as the coloring induced on them has it.
        first = (1 << n) - 1
        size = _max_clique_mask([a & first for a in classes[color - 1][:n]], node_cap).bit_count()
        return AttemptFailure(attempt, color, size)
    keep = [i for i in range(m) if not deleted >> i & 1][:n]
    kept_col = replace(col.induced(keep), provenance=(_field_line(q, t, n, sk),))
    sizes = tuple(_max_clique_mask(kept_col.color_class_bitsets(c), node_cap).bit_count() for c in range(1, q + 2))
    assert all(s < t for s in sizes), "deletion left a monochromatic K_t"
    kept = tuple(sample[i] for i in keep)
    return WitnessCertificate(q, t, q + 1, n, seed, attempt, kept, kept_col, sizes, "pass")


def _pooled_attempts(ground, n, seed, attempts, workers, node_cap):
    """Outcomes of the attempt indices in ``attempts``, in order, run
    ``workers`` at a time in as many worker processes.

    Results are yielded in order and the caller stops at the first
    success, so an error in a later attempt of the same wave is dropped,
    as a sequential run would never have made that attempt.
    """
    # Imported here: it loads multiprocessing, which no other path needs.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        for start in range(0, len(attempts), workers):
            futures = [
                pool.submit(_run_attempt, ground, n, seed, k, node_cap)
                for k in attempts[start : start + workers]
            ]
            for fut in futures:
                yield fut.result()


def find_witness(
    q: int,
    t: int,
    n: int,
    max_attempts: int,
    seed: int,
    jobs: int = 1,
    node_cap: int = DEFAULT_NODE_CAP,
) -> WitnessCertificate | WitnessSearchFailure:
    """Search seeded attempts for a coloring of K_n whose every color
    class has max clique size below t.

    Each attempt samples about 2n vectors and deletes one vertex from
    every monochromatic K_t (see _run_attempt); it fails when that needs
    more than the surplus over n.  The clique listing, the deletion
    search and each max-clique search are capped at node_cap nodes.

    Attempts are independent given their derived seeds, so with jobs > 1
    the attempts after the first run concurrently in a process pool of
    min(jobs, cpu count) workers, started only once attempt 1 has failed
    in the calling process.  The lowest successful attempt index always
    wins, making the outcome identical to a sequential run.
    """
    _require_ints(max_attempts=max_attempts, jobs=jobs, node_cap=node_cap, seed=seed)
    if max_attempts < 1:
        raise ParameterError("need at least one attempt")
    if jobs < 1:
        raise ParameterError("need at least one job")
    if node_cap < 1:
        raise ParameterError(f"node cap {node_cap} must be positive")
    # t and n as every attempt's coloring checks them, the enumeration cap,
    # and last q's primality, which a q that is not an int above 1 fails at once.
    if type(q) is int and q > 1:
        _check_construction(q, t, n)
        _check_enumeration_cap(q, t)
    PrimeModulus(q)
    # n and the m vertices an attempt colors, from |V| counted, before the
    # ground set is enumerated.
    size = _isotropic_count(q, t)
    if n > size:
        raise CapacityError(f"n={n} exceeds the ground set size {size}")
    _check_pairs(min(size, 2 * n))
    ground = _witness_ground(q, t)
    # Attempt 1 runs in this process, and the generator's pool starts only
    # when it has failed.  At n <= recommended_n every sampled request won
    # at attempt 1, which takes less time than starting a pool.  Above it,
    # a win at an even attempt k > 1 with jobs = 2 takes one attempt longer
    # than waves of jobs counted from attempt 1 would.
    later = range(2, max_attempts + 1)
    workers = min(jobs, os.cpu_count() or 1)
    if workers == 1:
        rest = (_run_attempt(ground, n, seed, k, node_cap) for k in later)
    else:
        rest = _pooled_attempts(ground, n, seed, later, workers, node_cap)
    outcomes = itertools.chain([_run_attempt(ground, n, seed, 1, node_cap)], rest)
    failures: list[AttemptFailure] = []
    for outcome in outcomes:
        if isinstance(outcome, WitnessCertificate):
            return outcome
        failures.append(outcome)
    return WitnessSearchFailure(q, t, n, seed, tuple(failures))


def reverify(cert: WitnessCertificate) -> bool:
    """Rebuild the coloring from the stored fields and compare its rows
    and provenance; then check each color's stored size s by existence
    alone: 1 <= s < t, some K_s and no K_(s+1).  True only when all hold.

    The existence check (_has_clique) is a second, simpler search than
    the max-clique search that certify ran, so a fault in that search's
    bounds cannot pass both.  A check that reaches the node cap, like
    any other error, means invalid.
    """
    try:
        sizes = cert.max_clique_sizes
        if cert.num_colors != cert.q + 1 or cert.verdict != "pass" or len(sizes) != cert.num_colors:
            return False
        sk = attempt_seed(cert.seed, cert.attempt)
        params = ConstructionParams(PrimeModulus(cert.q), cert.t, sk, cert.n)
        rebuilt = build_field_coloring(params, cert.vectors)
        if rebuilt != cert.coloring or rebuilt.provenance != cert.coloring.provenance:
            return False
        for color, s in enumerate(sizes, start=1):
            adj = rebuilt.color_class_bitsets(color)
            if not 1 <= s < cert.t or not _has_clique(adj, s, DEFAULT_NODE_CAP):
                return False
            if _has_clique(adj, s + 1, DEFAULT_NODE_CAP):
                return False
        return True
    except RamseyLBError:
        return False


def certificate_to_text(cert: WitnessCertificate) -> str:
    sizes = " ".join(map(str, cert.max_clique_sizes))
    lines = [CERTIFICATE_MAGIC, f"q={cert.q}", f"t={cert.t}", f"colors={cert.num_colors}", f"n={cert.n}",
             f"seed={cert.seed}", f"attempt={cert.attempt}", f"max-clique-sizes={sizes}",
             f"verdict={cert.verdict}", "vectors:", *(v.text_form() for v in cert.vectors), "coloring:"]
    return "\n".join(lines) + "\n" + cert.coloring.to_text()


# The header as certificate_to_text writes it, up to its vector lines.
_HEADER = re.compile(
    "\n".join([CERTIFICATE_MAGIC, *(f"{key}={_INT}" for key in ("q", "t", "colors", "n", "seed", "attempt"))])
    + "\nmax-clique-sizes=([0-9 ]*)\nverdict=(.*)\nvectors:\n"
)


def certificate_from_text(text: str) -> WitnessCertificate:
    """The certificate in the one spelling certificate_to_text writes: it
    must render back to the text, coloring block included.  Before any
    vector is parsed, q + 1 colors and as many sizes, and every vector
    line starting "q t ", make the file pay in length for q's primality test."""
    m = _HEADER.match(text)
    ints = m and _ints([*m.groups()[:6], *m[7].split()])
    if not ints:
        raise FormatError("certificate header is not in canonical form")
    q, t, num_colors, n, seed, attempt, *sizes = ints
    if num_colors != q + 1 or len(sizes) != num_colors:
        raise FormatError(f"expected colors={q + 1} and {q + 1} clique sizes")
    # With no coloring block, the vector count or the block's parse fails.
    body, _, block = text[m.end() :].partition("coloring:\n")
    vector_lines = body.splitlines()
    if len(vector_lines) != n:
        raise FormatError(f"expected {n} vector lines, found {len(vector_lines)}")
    if not all(line.startswith(f"{q} {t} ") for line in vector_lines):
        raise FormatError(f"vector line not in canonical form '{q} {t} c1 ... ct'")
    modulus = _text_modulus(q)
    vectors = tuple(FieldVector.from_text(line, modulus) for line in vector_lines)
    coloring = EdgeColoring.from_text(block)
    if coloring.n != n or coloring.num_colors != num_colors:
        raise FormatError("embedded coloring disagrees with the certificate header")
    cert = WitnessCertificate(q, t, num_colors, n, seed, attempt, vectors, coloring, tuple(sizes), m[8])
    if certificate_to_text(cert) != text:
        raise FormatError("certificate is not in canonical form")
    return cert


def reverify_text(text: str) -> bool:
    """reverify() on serialized input; malformed text is simply invalid."""
    try:
        cert = certificate_from_text(text)
    except RamseyLBError:
        return False
    return reverify(cert)
