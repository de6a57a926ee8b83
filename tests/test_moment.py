import hashlib
import itertools
import math
import random
import statistics
from concurrent.futures import Future
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseylb import moment
from ramseylb.cliques import enumerate_potential_cliques, max_monochromatic_clique
from ramseylb.coloring import ConstructionParams, EdgeColoring, build_field_coloring, pair_identity
from ramseylb.errors import CapacityError, FormatError, ParameterError, ResourceCapError
from ramseylb.field import PrimeModulus, dot
from ramseylb.isotropic import bernoulli_subset, enumerate_isotropic
from ramseylb.moment import (
    MonteCarloEstimate,
    WitnessCertificate,
    WitnessSearchFailure,
    _hitting_set,
    attempt_seed,
    certificate_from_text,
    certificate_to_text,
    exact_mono_expectation,
    find_witness,
    monte_carlo_mono_count,
    recommended_n,
    reverify,
    reverify_text,
)
from ramseylb.rng import derive_seed, make_rng, pair_coin

# Small witness fixture: at (q=3, t=4) with n=14 an attempt samples 28
# vectors and deletes one vertex from each monochromatic 4-clique; every
# attempt measured succeeds, so any honest seed finds a witness at once.
# n is deliberately below recommended_n(3, 4) = 20, which the acceptance
# suite exercises.
FIXTURE = dict(q=3, t=4, n=14, max_attempts=60, seed=271828)


@pytest.fixture(scope="module")
def fixture_certificate():
    result = find_witness(**FIXTURE)
    assert isinstance(result, WitnessCertificate)
    return result


# ---------------------------------------------------------------------------
# recommended_n
# ---------------------------------------------------------------------------

def test_recommended_n_values():
    assert recommended_n(2, 8) == 128
    assert recommended_n(3, 4) == 20  # floor(4 * 3^1.5)
    assert recommended_n(2, 0) == 1
    assert recommended_n(3, 4, Fraction(1, 2)) == 36  # exact: 4 * 3^2


def test_recommended_n_validation():
    with pytest.raises(ParameterError):
        recommended_n(4, 4)
    with pytest.raises(ParameterError):
        recommended_n(3, -1)


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
def test_moment_estimators_reject_a_probability_that_is_not_finite(p):
    with pytest.raises(ParameterError):
        exact_mono_expectation(2, 4, p)
    with pytest.raises(ParameterError):
        monte_carlo_mono_count(2, 4, 10, p, seed=1)


def test_seeds_that_are_not_ints_are_parameter_errors():
    with pytest.raises(ParameterError):
        monte_carlo_mono_count(3, 4, 5, Fraction(1, 2), seed=1.0)
    with pytest.raises(ParameterError):
        find_witness(3, 4, 14, 1, seed=1.5)


def test_moment_estimators_need_t_at_least_two():
    # a one-vector clique has no pairs, so no coins and no color
    for t in (0, 1):
        with pytest.raises(ParameterError):
            exact_mono_expectation(3, t, Fraction(1, 2))
        with pytest.raises(ParameterError):
            monte_carlo_mono_count(3, t, 10, Fraction(1, 2), seed=1)


# ---------------------------------------------------------------------------
# exact enumeration oracle vs analytic product vs Monte Carlo
# ---------------------------------------------------------------------------

def test_exact_expectation_q2_t3_is_zero():
    # no potential cliques exist at (2, 3)
    assert exact_mono_expectation(2, 3, Fraction(1, 2)) == 0


def test_exact_expectation_q2_t4_matches_analytic_product():
    # 3 potential cliques; survival (1/2)^4; monochromatic 2^(1-6)
    exact = exact_mono_expectation(2, 4, Fraction(1, 2))
    assert exact == 3 * Fraction(1, 16) * Fraction(1, 32) == Fraction(3, 512)


def test_exact_expectation_other_p():
    exact = exact_mono_expectation(2, 4, Fraction(1, 4))
    assert exact == 3 * Fraction(1, 256) * Fraction(1, 32)


def test_exact_expectation_guard():
    with pytest.raises(ResourceCapError):
        exact_mono_expectation(3, 4, Fraction(1, 2))  # 33 vectors >> subset cap


def test_exact_expectation_q3_t3_matches_analytic_product():
    # 4 potential cliques in a ground set of 9; survival p^3; monochromatic 2^(1-3)
    exact = exact_mono_expectation(3, 3, Fraction(1, 2))
    assert exact == 4 * Fraction(1, 8) * Fraction(1, 4) == Fraction(1, 8)


def reference_exact_mono_expectation(q, t, p):
    """The exact estimator before it took its pairs from the clique table:
    for each subset, every coin assignment on all of its orthogonal pairs,
    found by a scan with dot."""
    pf = Fraction(p)
    ground = enumerate_isotropic(PrimeModulus(q), t)
    m = len(ground)
    index = {v.coords: i for i, v in enumerate(ground.vectors)}
    table = []
    for c in enumerate_potential_cliques(ground, t):
        ids = [index[v.coords] for v in c.vectors]
        table.append((sum(1 << i for i in ids), list(itertools.combinations(ids, 2))))
    if not table:
        return Fraction(0)
    clique_masks, clique_pairs = zip(*table)
    opairs = [
        (a, b)
        for a in range(m)
        for b in range(a + 1, m)
        if dot(ground.vectors[a], ground.vectors[b]) == 0
    ]
    total = Fraction(0)
    for smask in range(1 << m):
        live = [ci for ci, cm in enumerate(clique_masks) if cm & smask == cm]
        if not live:
            continue
        bits = smask.bit_count()
        wsub = pf**bits * (1 - pf) ** (m - bits)
        sub_pairs = [pr for pr in opairs if smask >> pr[0] & 1 and smask >> pr[1] & 1]
        z = len(sub_pairs)
        pos_of = {pr: j for j, pr in enumerate(sub_pairs)}
        live_bits = []
        for ci in live:
            acc = 0
            for pr in clique_pairs[ci]:
                acc |= 1 << pos_of[pr]
            live_bits.append(acc)
        mono_total = 0
        for coins in range(1 << z):
            for pb in live_bits:
                masked = coins & pb
                if masked == 0 or masked == pb:
                    mono_total += 1
        total += wsub * Fraction(mono_total, 2**z)
    return total


@pytest.mark.parametrize("q, t", [(2, 3), (2, 4), (3, 3)])
def test_exact_expectation_matches_all_pairs_reference(q, t):
    for p in (0, Fraction(1, 4), Fraction(1, 3), 0.3, Fraction(1, 2), 1):
        assert exact_mono_expectation(q, t, p) == reference_exact_mono_expectation(q, t, p)


def test_monte_carlo_agrees_with_exact_q2_t4():
    exact = float(exact_mono_expectation(2, 4, Fraction(1, 2)))
    est = monte_carlo_mono_count(2, 4, 4000, Fraction(1, 2), seed=17)
    assert est.trials == 4000
    assert abs(est.mean - exact) <= 5 * est.stderr


def test_monte_carlo_deterministic_given_seed():
    a = monte_carlo_mono_count(2, 4, 500, 0.5, seed=3)
    b = monte_carlo_mono_count(2, 4, 500, 0.5, seed=3)
    assert a == b


def reference_monte_carlo(q, t, n_trials, p, seed):
    """The per-clique estimator the bitmask and coin-table kernel replaced:
    a membership test per clique vector and a coin for every pair of
    every surviving clique."""
    ground = enumerate_isotropic(PrimeModulus(q), t)
    cliques = enumerate_potential_cliques(ground, t)
    pair_ids = [[pair_identity(u, v) for u, v in itertools.combinations(c.vectors, 2)] for c in cliques]
    counts = []
    for k in range(n_trials):
        subset = bernoulli_subset(ground, p, make_rng(derive_seed(seed, "mc-subset", k)))
        kept = {v.coords for v in subset}
        coin_seed = derive_seed(seed, "mc-coins", k)
        cnt = 0
        for c, pids in zip(cliques, pair_ids):
            if all(v.coords in kept for v in c.vectors):
                cnt += len({pair_coin(coin_seed, pid) for pid in pids}) == 1
        counts.append(cnt)
    stderr = statistics.stdev(counts) / math.sqrt(n_trials) if n_trials > 1 else 0.0
    return MonteCarloEstimate(sum(counts) / n_trials, stderr, n_trials)


@pytest.mark.parametrize("q, t", [(3, 4), (2, 5), (2, 6), (3, 3), (5, 3)])
def test_monte_carlo_matches_per_clique_reference(q, t):
    for p in (0, 0.3, Fraction(1, 3), Fraction(1, 2), 1):
        for seed in (0, 1, 2**64 - 1):
            assert monte_carlo_mono_count(q, t, 12, p, seed) == reference_monte_carlo(q, t, 12, p, seed)


def reference_table_scan_coins(q, t, n_trials, p, seed):
    """The (seed, identity) coin calls of the estimator that tested every
    clique of the table against each trial's subset, in table order, and
    flipped each pair's coin lazily, at most once per trial."""
    ground = enumerate_isotropic(PrimeModulus(q), t)
    index = {v.coords: i for i, v in enumerate(ground.vectors)}
    position = {}
    table = []
    for c in enumerate_potential_cliques(ground, t):
        ids = [index[v.coords] for v in c.vectors]
        js = [position.setdefault(pr, len(position)) for pr in itertools.combinations(ids, 2)]
        table.append((sum(1 << i for i in ids), js))
    pair_ids = [pair_identity(ground.vectors[a], ground.vectors[b]) for a, b in position]
    calls = []
    for k in range(n_trials):
        subset = bernoulli_subset(ground, p, make_rng(derive_seed(seed, "mc-subset", k)))
        kept = sum(1 << index[v.coords] for v in subset)
        coin_seed = derive_seed(seed, "mc-coins", k)
        coins = [None] * len(pair_ids)
        for mask, js in table:
            if kept & mask != mask:
                continue
            first = None
            for j in js:
                coin = coins[j]
                if coin is None:
                    calls.append((coin_seed, pair_ids[j]))
                    coin = coins[j] = pair_coin(coin_seed, pair_ids[j])
                if first is None:
                    first = coin
                elif coin != first:
                    break
    return calls


@pytest.mark.parametrize("q, t", [(3, 4), (2, 6), (5, 3)])
def test_monte_carlo_flips_the_table_scans_coins_in_its_order(monkeypatch, q, t):
    calls = []

    def spy(seed, identity):
        calls.append((seed, identity))
        return pair_coin(seed, identity)

    monkeypatch.setattr(moment, "pair_coin", spy)
    for p in (0.3, Fraction(1, 2)):
        calls.clear()
        monte_carlo_mono_count(q, t, 10, p, seed=5)
        assert calls == reference_table_scan_coins(q, t, 10, p, seed=5)
        assert calls


def test_monte_carlo_estimates_are_pinned():
    """SHA-256 of the estimates as they read when each draw was compared
    with p itself, for float and Fraction p."""
    h = hashlib.sha256()
    for q, t in ((2, 4), (3, 4), (2, 5)):
        for p in (0, 0.3, 0.5, 1, Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 10**30)):
            for seed in (1, 2**64 - 1):
                h.update(repr(monte_carlo_mono_count(q, t, 8, p, seed)).encode())
    assert h.hexdigest() == "348f7dfe510feeb0edacde4a969a4c668ad3dfffc3df5b13b3f01a356a551243"


def test_monte_carlo_draws_against_one_float_threshold(monkeypatch):
    seen = []
    real = moment.bernoulli_subset

    def spy(ground, p, rng):
        seen.append(p)
        return real(ground, p, rng)

    monkeypatch.setattr(moment, "bernoulli_subset", spy)
    monte_carlo_mono_count(3, 4, 5, Fraction(1, 3), seed=1)
    assert len(seen) == 5 and all(type(p) is float for p in seen)
    assert len(set(seen)) == 1


# ---------------------------------------------------------------------------
# witness search
# ---------------------------------------------------------------------------

def test_find_witness_success_roundtrip(fixture_certificate):
    cert = fixture_certificate
    assert cert.num_colors == 4
    assert cert.n == FIXTURE["n"]
    assert all(s < cert.t for s in cert.max_clique_sizes)
    assert cert.verdict == "pass"
    assert reverify(cert)
    # stored sizes match an independent recount on the stored coloring
    col = EdgeColoring.from_text(cert.coloring_text)
    for color in range(1, 5):
        assert max_monochromatic_clique(col, color).size == cert.max_clique_sizes[color - 1]


def test_find_witness_failure_reports_diagnostics():
    # sampling all 33 vectors leaves the deterministic 4-cliques in place,
    # so every attempt fails and each failure names a color and size
    result = find_witness(3, 4, 33, 5, seed=1)
    assert isinstance(result, WitnessSearchFailure)
    assert len(result.failures) == 5
    for k, f in enumerate(result.failures, start=1):
        assert f.attempt == k
        assert 1 <= f.color <= 4
        assert f.clique_size >= 4


def test_find_witness_validation():
    with pytest.raises(ParameterError):
        find_witness(2, 4, 4, 5, seed=0)  # t = 0 mod q
    with pytest.raises(ParameterError):
        # t = 0 mod q is checked before the 2^40-vector enumeration cap
        find_witness(2, 40, 3, 1, seed=0)
    with pytest.raises(ParameterError):
        find_witness(3, 4, 1, 5, seed=0)
    with pytest.raises(CapacityError):
        find_witness(3, 4, 34, 5, seed=0)
    for jobs in (0, -3):
        with pytest.raises(ParameterError):
            find_witness(3, 4, 14, 5, seed=0, jobs=jobs)


def test_find_witness_parallel_matches_sequential():
    seq = find_witness(**FIXTURE)
    par = find_witness(**{**FIXTURE, "jobs": 3})
    assert isinstance(seq, WitnessCertificate) and isinstance(par, WitnessCertificate)
    assert certificate_to_text(seq) == certificate_to_text(par)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n", [14, 20])
def test_find_witness_kept_coloring_has_no_monochromatic_t_subset(n, seed):
    # Lists every 4-subset of the kept vertices, so the deletion step is
    # checked without the branch-and-bound clique solver.
    cert = find_witness(3, 4, n, 200, seed)
    assert isinstance(cert, WitnessCertificate)
    col = EdgeColoring.from_text(cert.coloring_text)
    for sub in itertools.combinations(range(n), 4):
        colors = {col.rows[a][b - a - 1] for a, b in itertools.combinations(sub, 2)}
        assert len(colors) > 1, f"monochromatic 4-subset {sub}"


def test_find_witness_certificate_is_the_rebuild():
    # A witness's coloring is its attempt's coloring restricted to the
    # kept vectors; it must be what a build on those vectors gives, which
    # is what reverify rebuilds.  The digest pins every certificate.
    digest = hashlib.sha256()
    for n in (14, 16, 20, 22):
        for seed in range(1, 41):
            cert = find_witness(3, 4, n, 3, seed)
            assert isinstance(cert, WitnessCertificate), (n, seed)
            params = ConstructionParams(PrimeModulus(3), 4, attempt_seed(seed, cert.attempt), n)
            assert cert.coloring_text == build_field_coloring(params, cert.vectors).to_text()
            digest.update(certificate_to_text(cert).encode())
    assert digest.hexdigest() == "d711135b386e5c755d4311ce436e6a07c35c6e0ea858b6b934828de89dd1b6eb"


@pytest.mark.parametrize("n, attempts", [(20, 200), (33, 4)])
def test_find_witness_two_jobs_match_one(n, attempts):
    seq = find_witness(3, 4, n, attempts, seed=271828)
    par = find_witness(3, 4, n, attempts, seed=271828, jobs=2)
    assert par == seq
    if isinstance(seq, WitnessCertificate):
        assert certificate_to_text(par) == certificate_to_text(seq)


def test_find_witness_starts_no_pool_when_attempt_one_wins(monkeypatch):
    seq = find_witness(3, 4, 20, 200, seed=271828)
    assert isinstance(seq, WitnessCertificate) and seq.attempt == 1

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(moment, "ProcessPoolExecutor", no_pool)
    par = find_witness(3, 4, 20, 200, seed=271828, jobs=2)
    assert par == seq
    assert certificate_to_text(par) == certificate_to_text(seq)


def test_find_witness_caps_pool_workers_at_the_cpu_count(monkeypatch):
    # (3, 4, 33) fails every attempt, so attempts 2 to 4 reach the pool
    seq = find_witness(3, 4, 33, 4, seed=1)
    assert isinstance(seq, WitnessSearchFailure)
    sizes = []

    class InlinePool:
        """Runs each submitted attempt at once and records the pool size."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(moment, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(moment.os, "cpu_count", lambda: 3)
    for jobs in (2, 100_000):
        assert find_witness(3, 4, 33, 4, seed=1, jobs=jobs) == seq
    assert sizes == [2, 3]
    # an unknown cpu count means one worker, which runs in this process
    monkeypatch.setattr(moment.os, "cpu_count", lambda: None)
    assert find_witness(3, 4, 33, 4, seed=1, jobs=100_000) == seq
    assert sizes == [2, 3]


def test_hitting_set_is_exact_against_subset_listing():
    rng = random.Random(5)
    for _ in range(150):
        m = rng.randrange(4, 10)
        cliques = [
            sum(1 << v for v in rng.sample(range(m), 3)) for _ in range(rng.randrange(13))
        ]
        best = min(
            k
            for k in range(m + 1)
            for sub in itertools.combinations(range(m), k)
            if all(c & sum(1 << v for v in sub) for c in cliques)
        )
        for budget in range(m):
            got = _hitting_set(cliques, budget, 10**6)
            if budget < best:
                assert got is None
            else:
                assert got is not None and got.bit_count() <= budget
                assert all(c & got for c in cliques)


def test_find_witness_searches_are_capped():
    # every triple of 9 vertices: a hitting set must leave at most 2 of
    # them, so 7 are needed, while at most 3 triples are disjoint
    triples = [sum(1 << v for v in sub) for sub in itertools.combinations(range(9), 3)]
    assert _hitting_set(triples, 6, 10**6) is None
    with pytest.raises(ResourceCapError):
        _hitting_set(triples, 6, 50)
    with pytest.raises(ResourceCapError):
        find_witness(3, 4, 20, 1, seed=1, node_cap=10)


def test_attempt_seed_stable():
    assert attempt_seed(5, 1) != attempt_seed(5, 2)
    assert attempt_seed(5, 1) == attempt_seed(5, 1)


# ---------------------------------------------------------------------------
# certificate serialization and re-verification
# ---------------------------------------------------------------------------

def test_certificate_text_roundtrip(fixture_certificate):
    cert = fixture_certificate
    text = certificate_to_text(cert)
    parsed = certificate_from_text(text)
    assert parsed == cert
    assert certificate_to_text(parsed) == text
    assert reverify_text(text)


def test_reverify_rejects_any_coloring_block_mutation(fixture_certificate):
    cert = fixture_certificate
    text = certificate_to_text(cert)
    head, block = text.split("coloring:\n", 1)
    offset = len(head) + len("coloring:\n")
    # mutate a spread of byte positions inside the coloring block
    positions = range(0, len(block) - 1, max(1, len(block) // 12))
    mutated_count = 0
    for pos in positions:
        old = block[pos]
        new = "9" if old != "9" else "8"
        candidate = text[: offset + pos] + new + text[offset + pos + 1 :]
        assert not reverify_text(candidate), f"mutation at block offset {pos} accepted"
        mutated_count += 1
    assert mutated_count >= 10


def test_reverify_rejects_header_and_vector_tampering(fixture_certificate):
    cert = fixture_certificate
    text = certificate_to_text(cert)
    tampered = [
        text.replace(f"seed={cert.seed}", f"seed={cert.seed + 1}", 1),
        text.replace(f"attempt={cert.attempt}", f"attempt={cert.attempt + 1}", 1),
        text.replace("verdict=pass", "verdict=fail", 1),
        text.replace("max-clique-sizes=", "max-clique-sizes=1 ", 1),
    ]
    # flip one coordinate of the first stored vector
    lines = text.splitlines(keepends=True)
    vec_line = 10  # first vector line in the fixed layout
    parts = lines[vec_line].split()
    parts[-1] = str((int(parts[-1]) + 1) % 3)
    lines[vec_line] = " ".join(parts) + "\n"
    tampered.append("".join(lines))
    # replace the first stored vector by one that is not self-orthogonal
    lines[vec_line] = "3 4 1 0 0 0\n"
    tampered.append("".join(lines))
    for bad in tampered:
        assert not reverify_text(bad)


def test_certificates_spell_integers_one_way():
    # each edit respells one integer, which int() reads as the same value
    cert = find_witness(3, 4, 14, 200, seed=5)
    text = certificate_to_text(cert)
    assert text.splitlines()[5:11] == [
        "seed=5", "attempt=1", "max-clique-sizes=3 3 3 3", "verdict=pass", "vectors:", "3 4 2 0 2 2"
    ]
    edits = [
        ("seed=5\n", "seed=+5\n"),
        ("n=14\n", "n= 14\n"),
        ("attempt=1\n", "attempt=01\n"),
        ("q=3\n", "q=0_3\n"),
        ("max-clique-sizes=3", "max-clique-sizes= 3"),
        ("vectors:\n3 4 2 0 2 2\n", "vectors:\n3 04 02 00 2 2\n"),
    ]
    for old, new in edits:
        bad = text.replace(old, new, 1)
        assert bad != text
        with pytest.raises(FormatError, match="canonical"):
            certificate_from_text(bad)
        assert not reverify_text(bad)
    assert reverify_text(text)


def test_reverify_rejects_a_seed_outside_64_bits():
    # -1 once aliased 2^64 - 1; a certificate made at the top seed must
    # not reverify under -1
    top = 2**64 - 1
    cert = find_witness(**{**FIXTURE, "seed": top})
    text = certificate_to_text(cert)
    assert reverify_text(text)
    assert not reverify_text(text.replace(f"seed={top}\n", "seed=-1\n"))


def test_reverify_text_rejects_garbage():
    assert not reverify_text("not a certificate\n")
    assert not reverify_text("")


_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["replace", "insert", "delete"]),
        st.integers(min_value=0),
        st.one_of(st.sampled_from("0123456789 -=#:\n"), st.characters()),
    ),
    min_size=1,
    max_size=4,
)


def _mutate(text, edits):
    for op, pos, ch in edits:
        pos %= len(text) + 1
        if op == "insert":
            text = text[:pos] + ch + text[pos:]
        elif pos < len(text):
            text = text[:pos] + ("" if op == "delete" else ch) + text[pos + 1 :]
    return text


@settings(max_examples=150, deadline=None)
@given(edits=_EDITS)
def test_parsers_raise_only_format_error_on_mutated_text(fixture_certificate, edits):
    for text in (certificate_to_text(fixture_certificate), fixture_certificate.coloring_text):
        bad = _mutate(text, edits)
        for parse in (certificate_from_text, EdgeColoring.from_text):
            try:
                parse(bad)
            except FormatError:
                pass
        assert isinstance(reverify_text(bad), bool)
