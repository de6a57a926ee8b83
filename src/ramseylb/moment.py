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

import itertools
import math
import os
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Union

from .bounds import SlackLike, as_slack, floor_power_product
# enumerate_potential_cliques is not called here; it stays bound because
# perfbench wraps ramseylb.moment.enumerate_potential_cliques.
from .cliques import (  # noqa: F401
    DEFAULT_NODE_CAP,
    _orthogonal_tuples,
    enumerate_potential_cliques,
    max_monochromatic_clique,
    monochromatic_cliques,
)
from .coloring import ConstructionParams, EdgeColoring, _field_line, build_field_coloring, pair_identity
from .errors import CapacityError, FormatError, ParameterError, RamseyLBError, ResourceCapError
from .field import FieldVector, PrimeModulus
from .isotropic import (
    IsotropicSet,
    _float_threshold,
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
    PrimeModulus(q)
    if t < 0:
        raise ParameterError("t must be non-negative")
    s = as_slack(slack)
    return floor_power_product([(2, Fraction(t, 2)), (q, Fraction(3 * t, 8) + s)])


def _check_clique_order(t: int) -> None:
    """The estimators count cliques whose C(t, 2) coins all agree; below
    t = 2 a clique has no pairs and so no color."""
    if t < 2:
        raise ParameterError(f"t={t}: a monochromatic clique needs t >= 2")


def _clique_table(
    ground: IsotropicSet, t: int
) -> tuple[list[tuple[int, int]], list[tuple[int, list[int]]]]:
    """The distinct index pairs (a, b), a < b, of all potential t-cliques,
    each once; and each potential clique, in the lexicographic order of
    its ground-set indices, as the bitmask of those indices with the
    positions of its C(t, 2) pairs in that list.

    A clique is monochromatic when the coins on its pairs agree, so these
    pairs are all that either estimator flips.
    """
    position: dict[tuple[int, int], int] = {}
    table = []
    for ids in _orthogonal_tuples(ground, t, DEFAULT_NODE_CAP):
        js = [position.setdefault(pr, len(position)) for pr in itertools.combinations(ids, 2)]
        table.append((sum(1 << i for i in ids), js))
    return list(position), table


def exact_mono_expectation(q: int, t: int, p: Union[Fraction, float, int]) -> Fraction:
    """Exact expectation of surviving monochromatic potential cliques.

    Brute force: every subset of the ground set is enumerated with its
    Bernoulli weight, and for each subset every coin assignment on the
    pairs of its surviving potential cliques.  Exponential; ground sets
    above _SUBSET_CAP vectors raise ResourceCapError.
    """
    modulus = PrimeModulus(q)
    _check_clique_order(t)
    # Compared before the conversion, which raises ValueError for NaN and
    # OverflowError for an infinity.
    if not 0 <= p <= 1:
        raise ParameterError(f"probability {p} outside [0, 1]")
    pf = Fraction(p)
    ground = enumerate_isotropic(modulus, t)
    m = len(ground)
    if m > _SUBSET_CAP:
        raise ResourceCapError(f"{m} vectors is beyond exact subset enumeration (cap {_SUBSET_CAP})")
    _, table = _clique_table(ground, t)
    if not table:
        return Fraction(0)
    # Each clique as its ground mask and its pairs as a mask of table positions.
    cliques = [(mask, sum(1 << j for j in js)) for mask, js in table]
    total = Fraction(0)
    for smask in range(1 << m):
        live = [pb for cm, pb in cliques if cm & smask == cm]
        if not live:
            continue
        # A coin on a pair no live clique uses doubles both the count and
        # the number of assignments, so only the used pairs are flipped:
        # each submask of used is one assignment of their coins.
        used = 0
        for pb in live:
            used |= pb
        mono_total = 0
        coins = used
        while True:
            for pb in live:
                masked = coins & pb
                if masked == 0 or masked == pb:
                    mono_total += 1
            if not coins:
                break
            coins = (coins - 1) & used
        bits = smask.bit_count()
        wsub = pf**bits * (1 - pf) ** (m - bits)
        total += wsub * Fraction(mono_total, 2 ** used.bit_count())
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
    modulus = PrimeModulus(q)
    _check_clique_order(t)
    if n_trials < 1:
        raise ParameterError("need at least one trial")
    if not 0 <= p <= 1:
        raise ParameterError(f"probability {p} outside [0, 1]")
    # Every trial draws against the same float, whose comparisons equal
    # those with p, and which bernoulli_subset takes as it is.
    threshold = _float_threshold(p)
    ground = enumerate_isotropic(modulus, t)
    pairs, table = _clique_table(ground, t)
    pair_ids = [pair_identity(ground.vectors[a], ground.vectors[b]) for a, b in pairs]
    index = {v.coords: i for i, v in enumerate(ground.vectors)}
    # without[v]: the table positions of the cliques that avoid vertex v,
    # as a bitmask; a trial's live cliques avoid every dropped vertex.
    every = (1 << len(table)) - 1
    without = [every] * len(ground)
    for pos, (mask, _) in enumerate(table):
        while mask:
            low = mask & -mask
            without[low.bit_length() - 1] ^= 1 << pos
            mask ^= low
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
    coloring_text: str
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


def _hitting_set(cliques: list[int], budget: int, cap: int) -> int | None:
    """A vertex mask of at most budget vertices that meets every clique
    mask, or None when there is none.

    Exact depth-first branch and bound.  A node takes the free vertex in
    the most open cliques (lowest index on ties) and branches on
    deleting it, then on banning it from deletion below this node.  A
    node is cut when an open clique has no free vertex left, or when its
    deletions plus a greedy packing of open cliques with pairwise
    disjoint free vertices (each needs a vertex of its own) exceed the
    budget.  Each node counts against cap.
    """
    visited = 0
    stack = [(0, 0, cliques)]  # (deleted, banned, cliques not yet met)
    while stack:
        deleted, banned, open_ = stack.pop()
        visited += 1
        if visited > cap:
            raise ResourceCapError(f"hitting-set search exceeded {cap} nodes")
        if not open_:
            return deleted
        frees = sorted((c & ~banned for c in open_), key=int.bit_count)
        if not frees[0] or deleted.bit_count() + _disjoint_packing(frees) > budget:
            continue
        counts: dict[int, int] = {}
        for free in frees:
            while free:
                low = free & -free
                counts[low] = counts.get(low, 0) + 1
                free ^= low
        v = max(counts, key=lambda b: (counts[b], -b))
        stack.append((deleted, banned | v, open_))
        stack.append((deleted | v, banned, [c for c in open_ if not c & v]))
    return None


def _run_attempt(
    q: int, t: int, ground: IsotropicSet, n: int, seed: int, attempt: int, node_cap: int
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
    sk = attempt_seed(seed, attempt)
    modulus = PrimeModulus(q)
    m = min(len(ground), 2 * n)
    sample = sample_distinct(ground, m, make_rng(sk))
    col = build_field_coloring(ConstructionParams(modulus, t, sk, m), sample)
    cliques = monochromatic_cliques(col, t, node_cap)
    masks = [sum(1 << v for v in c.vertices) for c in cliques]
    deleted = _hitting_set(masks, m - n, node_cap)
    if deleted is None:
        # Deleting every vertex after the first n would have met every
        # clique, so one of them lies within the first n.
        color = min(c.color for c in cliques if c.vertices[-1] < n)
        size = max_monochromatic_clique(col.induced(range(n)), color, node_cap).size
        return AttemptFailure(attempt, color, size)
    keep = [i for i in range(m) if not deleted >> i & 1][:n]
    kept_col = replace(col.induced(keep), provenance=(_field_line(q, t, n, sk),))
    sizes = tuple(max_monochromatic_clique(kept_col, c, node_cap).size for c in range(1, q + 2))
    assert all(s < t for s in sizes), "deletion left a monochromatic K_t"
    kept = tuple(sample[i] for i in keep)
    return WitnessCertificate(q, t, q + 1, n, seed, attempt, kept, kept_col.to_text(), sizes, "pass")


def _pooled_attempts(q, t, ground, n, seed, attempts, workers, node_cap):
    """Outcomes of the attempt indices in ``attempts``, in order, run
    ``workers`` at a time in as many worker processes.

    Results are yielded in order and the caller stops at the first
    success, so an error in a later attempt of the same wave is dropped,
    as a sequential run would never have made that attempt.
    """
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for start in range(0, len(attempts), workers):
            futures = [
                pool.submit(_run_attempt, q, t, ground, n, seed, k, node_cap)
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
    modulus = PrimeModulus(q)
    # t and n are checked as every attempt's coloring checks them, before
    # the ground set's enumeration cap.
    ConstructionParams(modulus, t, seed, n)
    if max_attempts < 1:
        raise ParameterError("need at least one attempt")
    if jobs < 1:
        raise ParameterError("need at least one job")
    if node_cap < 1:
        raise ParameterError(f"node cap {node_cap} must be positive")
    ground = enumerate_isotropic(modulus, t)
    if n > len(ground):
        raise CapacityError(f"n={n} exceeds the ground set size {len(ground)}")
    # Attempt 1 runs in this process, and the generator's pool starts only
    # when it has failed.  At n <= recommended_n every sampled request won
    # at attempt 1, which takes less time than starting a pool.  Above it,
    # a win at an even attempt k > 1 with jobs = 2 takes one attempt longer
    # than waves of jobs counted from attempt 1 would.
    later = range(2, max_attempts + 1)
    workers = min(jobs, os.cpu_count() or 1)
    if workers == 1:
        rest = (_run_attempt(q, t, ground, n, seed, k, node_cap) for k in later)
    else:
        rest = _pooled_attempts(q, t, ground, n, seed, later, workers, node_cap)
    outcomes = itertools.chain([_run_attempt(q, t, ground, n, seed, 1, node_cap)], rest)
    failures: list[AttemptFailure] = []
    for outcome in outcomes:
        if isinstance(outcome, WitnessCertificate):
            return outcome
        failures.append(outcome)
    return WitnessSearchFailure(q, t, n, seed, tuple(failures))


def reverify(cert: WitnessCertificate) -> bool:
    """Rebuild the coloring from the stored fields, compare byte for byte,
    and re-run the clique search; True only when everything matches."""
    try:
        modulus = PrimeModulus(cert.q)
        if cert.num_colors != cert.q + 1:
            return False
        if cert.verdict != "pass":
            return False
        sk = attempt_seed(cert.seed, cert.attempt)
        params = ConstructionParams(modulus, cert.t, sk, cert.n)
        rebuilt = build_field_coloring(params, cert.vectors)
        if rebuilt.to_text() != cert.coloring_text:
            return False
        sizes = tuple(
            max_monochromatic_clique(rebuilt, c).size for c in range(1, cert.num_colors + 1)
        )
        if sizes != cert.max_clique_sizes:
            return False
        return all(s < cert.t for s in sizes)
    except RamseyLBError:
        return False


def certificate_to_text(cert: WitnessCertificate) -> str:
    lines = [
        CERTIFICATE_MAGIC,
        f"q={cert.q}",
        f"t={cert.t}",
        f"colors={cert.num_colors}",
        f"n={cert.n}",
        f"seed={cert.seed}",
        f"attempt={cert.attempt}",
        "max-clique-sizes=" + " ".join(str(s) for s in cert.max_clique_sizes),
        f"verdict={cert.verdict}",
        "vectors:",
    ]
    lines.extend(v.text_form() for v in cert.vectors)
    lines.append("coloring:")
    return "\n".join(lines) + "\n" + cert.coloring_text


def _header_int(lines: list[str], pos: int, key: str) -> int:
    if pos >= len(lines) or not lines[pos].startswith(key + "="):
        raise FormatError(f"expected '{key}=' on certificate line {pos + 1}")
    try:
        return int(lines[pos][len(key) + 1 :])
    except ValueError as exc:
        raise FormatError(f"non-integer value for '{key}'") from exc


def certificate_from_text(text: str) -> WitnessCertificate:
    head, sep, coloring_text = text.partition("\ncoloring:\n")
    if not sep:
        raise FormatError("certificate is missing its coloring block")
    lines = head.splitlines()
    if not lines or lines[0] != CERTIFICATE_MAGIC:
        raise FormatError("missing certificate magic line")
    q = _header_int(lines, 1, "q")
    t = _header_int(lines, 2, "t")
    num_colors = _header_int(lines, 3, "colors")
    n = _header_int(lines, 4, "n")
    seed = _header_int(lines, 5, "seed")
    attempt = _header_int(lines, 6, "attempt")
    if len(lines) < 9 or not lines[7].startswith("max-clique-sizes="):
        raise FormatError("expected 'max-clique-sizes=' on certificate line 8")
    try:
        sizes = tuple(int(x) for x in lines[7][len("max-clique-sizes=") :].split())
    except ValueError as exc:
        raise FormatError("non-integer clique size") from exc
    if not lines[8].startswith("verdict="):
        raise FormatError("expected 'verdict=' on certificate line 9")
    verdict = lines[8][len("verdict=") :]
    if len(lines) < 10 or lines[9] != "vectors:":
        raise FormatError("expected 'vectors:' on certificate line 10")
    vector_lines = lines[10:]
    if len(vector_lines) != n:
        raise FormatError(f"expected {n} vector lines, found {len(vector_lines)}")
    vectors = tuple(FieldVector.from_text(line) for line in vector_lines)
    for v in vectors:
        if v.q != q or len(v) != t:
            raise FormatError("vector does not match the certificate's q and t")
    if len(sizes) != num_colors:
        raise FormatError(f"expected {num_colors} clique sizes, found {len(sizes)}")
    embedded = EdgeColoring.from_text(coloring_text)
    if embedded.n != n or embedded.num_colors != num_colors:
        raise FormatError("embedded coloring disagrees with the certificate header")
    cert = WitnessCertificate(
        q, t, num_colors, n, seed, attempt, vectors, coloring_text, sizes, verdict
    )
    # int() also reads "+5", " 14", "01" and "0_3"; only the one spelling
    # that certificate_to_text writes is a certificate.
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
