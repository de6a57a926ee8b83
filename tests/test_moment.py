import concurrent.futures
import hashlib
import itertools
import math
import random
import re
import statistics
import time
from concurrent.futures import Future
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseylb import cliques, cli, coloring, field, moment
from ramseylb.bounds import baseline_bound, field_bound, new_bound
from ramseylb.cliques import DEFAULT_NODE_CAP, _k_cliques, enumerate_potential_cliques, max_monochromatic_clique
from ramseylb.coloring import (
    ConstructionParams, EdgeColoring, build_field_coloring, build_paley, build_two_color, pair_identity,
)
from ramseylb.errors import CapacityError, FormatError, ParameterError, ResourceCapError
from ramseylb.field import PrimeModulus, dot
from ramseylb.isotropic import _isotropic_count, bernoulli_subset, enumerate_isotropic, sample_distinct
from ramseylb.moment import (
    MAX_TRIALS,
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


@pytest.mark.parametrize("trials", [0, -1])
def test_monte_carlo_needs_a_trial(trials):
    with pytest.raises(ParameterError, match="^need at least one trial$"):
        monte_carlo_mono_count(3, 4, trials, Fraction(1, 2), seed=1)


def test_trials_past_the_cap_are_a_resource_cap_error():
    with pytest.raises(ResourceCapError, match=f"exceed the cap of {MAX_TRIALS}$"):
        monte_carlo_mono_count(3, 4, MAX_TRIALS + 1, Fraction(1, 2), seed=1)


def test_seeds_that_are_not_ints_are_parameter_errors():
    with pytest.raises(ParameterError):
        monte_carlo_mono_count(3, 4, 5, Fraction(1, 2), seed=1.0)
    with pytest.raises(ParameterError):
        find_witness(3, 4, 14, 1, seed=1.5)
    # A bool seed used to give a certificate whose text says seed=True,
    # which reverify_text refused.
    with pytest.raises(ParameterError, match="^seed=True must be an int$"):
        find_witness(3, 4, 14, 5, True)
    # These used to write seed=True into a provenance line, or to run.
    with pytest.raises(ParameterError, match="^seed=True must be an int$"):
        build_two_color(4, 5, True)
    with pytest.raises(ParameterError, match="^seed=True must be an int$"):
        monte_carlo_mono_count(3, 4, 2, 0.5, True)
    # A build whose pair has a nonzero product flips no coin, so these
    # seeds used to reach a provenance line that field_provenance cannot
    # read back, or one outside the seeds' 64 bits.
    ground = enumerate_isotropic(PrimeModulus(3), 4)
    pair = next(pr for pr in itertools.combinations(ground.vectors, 2) if dot(*pr) != 0)
    for bad, message in ((-1, "seed -1 outside"), (True, "seed=True must be an int"),
                         (1.5, "seed=1.5 must be an int"), (2**64, f"seed {2**64} outside")):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}"):
            build_field_coloring(ConstructionParams(PrimeModulus(3), 4, bad, 2), pair)


@pytest.mark.parametrize("call", [
    lambda: find_witness(3, 4.0, 14, 1, 1),
    lambda: find_witness(3, 4, 14.0, 1, 1),
    lambda: enumerate_isotropic(PrimeModulus(3), 4.0),
    lambda: enumerate_isotropic(PrimeModulus(3), 4, cap=1e6),
    lambda: monte_carlo_mono_count(3, 4.0, 1, Fraction(1, 2), 1),
    lambda: exact_mono_expectation(2, 2.0, Fraction(1, 2)),
    lambda: ConstructionParams(PrimeModulus(3), 4.0, 1, 2),
], ids=["witness-t", "witness-n", "enumerate-t", "enumerate-cap", "monte-carlo-t", "exact-t", "params-t"])
def test_a_t_n_or_cap_that_is_not_an_int_is_a_parameter_error(call):
    """These used to escape as TypeError or AttributeError, or, for the
    parameters, to write a provenance line reading t=4.0."""
    with pytest.raises(ParameterError, match="must be an int"):
        call()


@pytest.mark.parametrize("call", [
    lambda: find_witness(3, 4, 33, 2.0, 1),
    lambda: find_witness(3, 4, 14, True, 1),
    lambda: find_witness(3, 4, 14, 1, 1, jobs=2.0),
    lambda: monte_carlo_mono_count(3, 4, 2.0, 0.5, 1),
    lambda: sample_distinct(enumerate_isotropic(PrimeModulus(3), 4), 1.0, make_rng(1)),
    lambda: recommended_n(3, 4.0),
    lambda: build_two_color(4.0, 5, 1),
    lambda: build_two_color(4, 5.0, 1),
    lambda: build_paley(13.0),
    lambda: baseline_bound(4.0, 3),
    lambda: new_bound(4, 3.0, 0),
    lambda: field_bound(4, 3.0),
    lambda: find_witness(3, 4, 14, 1, 1, node_cap=2.5),
    lambda: find_witness(3, 4, 14, 1, 1, node_cap=True),
    lambda: find_witness(3, 4, 14, 1, 1, node_cap=1e7),
    lambda: find_witness(3, 4, 14, 1, 1, node_cap="5"),
], ids=["witness-attempts", "witness-attempts-bool", "witness-jobs", "monte-carlo-trials", "sample-n",
        "recommended-t", "two-color-t", "two-color-n", "paley-p", "baseline-t", "new-colors", "field-q",
        "witness-cap-fraction", "witness-cap-bool", "witness-cap-float", "witness-cap-str"])
def test_a_count_that_is_not_an_int_is_a_parameter_error(call):
    """These used to escape as TypeError or AttributeError, or to return:
    a certificate for 2.0 jobs, True attempts or a node cap of 1e7, a
    record for 3.0 colors or a q of 3.0.  A node cap of 2.5 or True was
    a cap error, "exceeded 2.5 nodes"."""
    with pytest.raises(ParameterError, match="must be an int"):
        call()


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


def per_assignment_exact_mono_expectation(q, t, p):
    """The exact estimator before its assignments were bit-sliced: for
    each subset, every assignment of the coins its live cliques use, each
    tested one clique at a time, and one Fraction per subset."""
    ground = enumerate_isotropic(PrimeModulus(q), t)
    pf = Fraction(p)
    m = len(ground)
    _, table = moment._clique_table(ground, t)
    if not table:
        return Fraction(0)
    cliques = [(sum(1 << i for i in ids), sum(1 << j for j in js)) for ids, js in table]
    total = Fraction(0)
    for smask in range(1 << m):
        live = [pb for cm, pb in cliques if cm & smask == cm]
        if not live:
            continue
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


def test_coin_columns_hold_bit_i_of_each_assignment():
    for u in range(7):
        for i in range(u):
            col = moment._coin_column(i, u)
            assert col < 1 << (1 << u)
            assert [col >> a & 1 for a in range(1 << u)] == [a >> i & 1 for a in range(1 << u)]


@pytest.mark.parametrize("q, t", [(2, 2), (2, 4), (3, 3)])
def test_bit_sliced_exact_expectation_matches_the_per_assignment_loop(q, t):
    for p in (0, Fraction(1, 4), Fraction(1, 3), 0.3, Fraction(1, 2), 1):
        assert exact_mono_expectation(q, t, p) == per_assignment_exact_mono_expectation(q, t, p)


def test_bit_sliced_exact_expectation_at_twenty_coins():
    """(5,2): 20 orthogonal pairs among 9 vectors, each a clique of one
    coin, so always monochromatic, and the full set's live set uses all
    20 coins.  The per-assignment loop takes seconds here."""
    half = Fraction(1, 2)
    start = time.perf_counter()
    exact = exact_mono_expectation(5, 2, half)
    assert time.perf_counter() - start < 1
    assert exact == per_assignment_exact_mono_expectation(5, 2, half) == 20 * half**2
    assert exact_mono_expectation(5, 2, Fraction(1, 3)) == 20 * Fraction(1, 9)


def test_exact_domain_has_at_most_20_coins_per_live_set():
    """Every (q, t) with q prime, t >= 2 and q^t <= 10^6 whose ground set
    is within the subset cap: only four have potential cliques, and the
    full set's live set, which uses every coin, uses at most 20.  A
    ground set of fewer than t vectors holds no t-clique."""
    coins = {}
    for q in (q for q in range(2, 1001) if field.is_prime(q)):
        for t in itertools.takewhile(lambda t: q**t <= 10**6, itertools.count(2)):
            if t <= _isotropic_count(q, t) <= moment._SUBSET_CAP:
                pairs, table = moment._clique_table(enumerate_isotropic(PrimeModulus(q), t), t)
                if table:
                    coins[q, t] = len(pairs)
    assert coins == {(2, 2): 1, (2, 4): 16, (3, 3): 12, (5, 2): 20}


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
    col = cert.coloring
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


def attempt_coloring(q, t, n, seed, attempt):
    """The coloring of one attempt's m sampled vertices, as _run_attempt
    builds it."""
    ground = moment._witness_ground(q, t)
    sk = attempt_seed(seed, attempt)
    m = min(len(ground), 2 * n)
    return build_field_coloring(ConstructionParams(ground.modulus, t, sk, m),
                                moment.sample_distinct(ground, m, make_rng(sk)))


def test_a_failed_attempt_names_the_lowest_color_with_a_clique_in_its_first_n():
    """By brute force over the t-subsets of each failed attempt's first n
    sampled vertices: the reported color is the lowest one with a
    monochromatic K_t there.  At (13,2,10), seed 5, attempt 1, every
    edge of color 1 has an end past the first 10 vertices."""
    failures = several = 0
    for q, t, n in ((3, 4, 24), (13, 2, 10)):
        for seed in range(1, 11):
            result = find_witness(q, t, n, 3, seed)
            for f in getattr(result, "failures", ()):
                col = attempt_coloring(q, t, n, seed, f.attempt)
                colors = set()
                for sub in itertools.combinations(range(n), t):
                    pair_colors = {col.rows[a][b - a - 1] for a, b in itertools.combinations(sub, 2)}
                    if len(pair_colors) == 1:
                        colors |= pair_colors
                assert f.color == min(colors)
                failures += 1
                several += len(colors) > 1
    assert failures >= 40 and several


def test_certify_sizes_are_those_of_the_witness_search():
    """Every stored size and every failure's clique size is the size of
    the witness that max_monochromatic_clique, relabel and all, finds
    on the same coloring."""
    requests = [(3, 4, n, 20 if n < 24 else 12, seed) for n in (14, 20, 24) for seed in range(1, 21)]
    requests += [(5, 4, 52, 20, 1), (11, 3, 30, 20, 5), (2, 9, 89, 20, 1)]
    certificates = failures = 0
    for q, t, n, attempts, seed in requests:
        result = find_witness(q, t, n, attempts, seed)
        for f in getattr(result, "failures", ()):
            col = attempt_coloring(q, t, n, seed, f.attempt).induced(range(n))
            assert f.clique_size == max_monochromatic_clique(col, f.color).size
            failures += 1
        if isinstance(result, WitnessCertificate):
            sizes = tuple(max_monochromatic_clique(result.coloring, c).size for c in range(1, q + 2))
            assert result.max_clique_sizes == sizes
            certificates += 1
    assert (certificates, failures) == (48, 180)


def test_certify_pays_for_no_peeling_order_or_relabel(monkeypatch, tmp_path, capsys):
    """find_witness stores sizes only, so it never orders or relabels a
    class; verify, which prints witnesses, still does both."""
    calls = []
    for name in ("_degeneracy_order", "_relabel"):
        real = getattr(cliques, name)
        monkeypatch.setattr(cliques, name, lambda *a, name=name, real=real: calls.append(name) or real(*a))
    result = find_witness(3, 4, 24, 12, 1)
    assert isinstance(result, WitnessCertificate) and result.attempt > 1
    assert calls == []
    path = tmp_path / "c.txt"
    assert cli.dispatch(["construct", "--q", "3", "--t", "4", "--n", "33", "--out", str(path)]) == 0
    assert cli.dispatch(["verify", "--coloring", str(path), "--target", "4"]) == 1
    capsys.readouterr()
    assert {"_degeneracy_order", "_relabel"} <= set(calls)


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
    col = cert.coloring
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
            assert cert.coloring.to_text() == build_field_coloring(params, cert.vectors).to_text()
            digest.update(certificate_to_text(cert).encode())
    assert digest.hexdigest() == "d711135b386e5c755d4311ce436e6a07c35c6e0ea858b6b934828de89dd1b6eb"


@pytest.mark.parametrize("n, attempts", [(20, 200), (33, 4)])
def test_find_witness_two_jobs_match_one(n, attempts):
    seq = find_witness(3, 4, n, attempts, seed=271828)
    par = find_witness(3, 4, n, attempts, seed=271828, jobs=2)
    assert par == seq
    if isinstance(seq, WitnessCertificate):
        assert certificate_to_text(par) == certificate_to_text(seq)


def test_find_witness_enumerates_one_ground_set_per_process(monkeypatch):
    calls = []

    def spy(modulus, t, *args):
        calls.append((modulus.q, t))
        return enumerate_isotropic(modulus, t, *args)

    monkeypatch.setattr(moment, "enumerate_isotropic", spy)
    moment._witness_ground.cache_clear()
    for seed in (1, 2, 3):
        assert isinstance(find_witness(3, 4, 14, 3, seed), WitnessCertificate)
    assert calls == [(3, 4)]
    # another (q, t) replaces the set, which is enumerated again on return
    find_witness(5, 4, 20, 1, seed=1)
    find_witness(3, 4, 14, 3, seed=1)
    assert calls == [(3, 4), (5, 4), (3, 4)]
    # a q that equals 3 but is not the int 3 is not served the set of 3
    with pytest.raises(ParameterError):
        find_witness(3.0, 4, 14, 3, seed=1)
    # the estimators enumerate their own and leave the shared set alone
    info = moment._witness_ground.cache_info()
    monte_carlo_mono_count(3, 4, 2, Fraction(1, 2), seed=1)
    assert calls[-1] == (3, 4) and len(calls) == 4
    assert moment._witness_ground.cache_info() == info and info.currsize == 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_find_witness_on_the_shared_ground_set_equals_a_fresh_one(jobs):
    # The shared set's vectors keep what every earlier build computed on
    # them; a search on them is the search on a set enumerated afresh.
    cases = [(n, seed) for n in (14, 20, 22) for seed in range(1, 41)]
    shared = [find_witness(3, 4, n, 3, seed, jobs=jobs) for n, seed in cases]
    for (n, seed), result in zip(cases, shared):
        moment._witness_ground.cache_clear()
        fresh = find_witness(3, 4, n, 3, seed, jobs=jobs)
        assert fresh == result, (n, seed)
        if isinstance(fresh, WitnessCertificate):
            assert certificate_to_text(fresh) == certificate_to_text(result), (n, seed)


def test_find_witness_starts_no_pool_when_attempt_one_wins(monkeypatch):
    seq = find_witness(3, 4, 20, 200, seed=271828)
    assert isinstance(seq, WitnessCertificate) and seq.attempt == 1

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
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

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(moment.os, "cpu_count", lambda: 3)
    for jobs in (2, 100_000):
        assert find_witness(3, 4, 33, 4, seed=1, jobs=jobs) == seq
    assert sizes == [2, 3]
    # an unknown cpu count means one worker, which runs in this process
    monkeypatch.setattr(moment.os, "cpu_count", lambda: None)
    assert find_witness(3, 4, 33, 4, seed=1, jobs=100_000) == seq
    assert sizes == [2, 3]


def reference_incidence(cliques, room):
    """through[v] for v in [0, room), one (clique, vertex) at a time."""
    through = [0] * room
    for pos, verts in enumerate(cliques):
        for v in verts:
            through[v] |= 1 << pos
    return through


def test_incidence_matches_one_bit_at_a_time():
    """Random ascending tuples, empty and repeated ones included, with
    room at and past one beyond the highest vertex; and more than 8
    cliques, so positions cross the bit arrays' byte boundaries."""
    rng = random.Random(31)
    cases = [([], 0), ([], 3), ([()], 0), ([(), ()], 2), ([(0, 2), (0, 2), (1,)], 3), ([(4,)] * 20, 7)]
    for _ in range(300):
        m = rng.randrange(1, 16)
        cliques = [tuple(sorted(rng.sample(range(m), rng.randrange(min(m, 5) + 1))))
                   for _ in range(rng.randrange(30))]
        cliques += rng.sample(cliques, min(len(cliques), rng.randrange(3)))
        room = max((verts[-1] + 1 for verts in cliques if verts), default=0)
        cases += [(cliques, room), (cliques, room + rng.randrange(1, 4))]
    for cliques, room in cases:
        assert moment._incidence(cliques, room) == reference_incidence(cliques, room)


def test_a_failed_attempt_searches_its_class_on_the_first_n_vertices(monkeypatch):
    """A failed attempt makes one max-clique search, on its color's class
    restricted to the first n sampled vertices: exactly the bitsets of
    the attempt's coloring induced on them.  A search of the whole
    sample's class reports the same sizes on every failure the other
    tests of this module reach, so only its input tells the two apart."""
    seen = []
    real = moment._max_clique_mask
    monkeypatch.setattr(moment, "_max_clique_mask", lambda adj, cap: seen.append(list(adj)) or real(adj, cap))
    checked = 0
    for q, t, n in ((3, 4, 24), (13, 2, 10), (7, 3, 20)):
        for seed in range(1, 6):
            seen.clear()
            result = find_witness(q, t, n, 3, seed)
            if isinstance(result, WitnessSearchFailure):
                assert len(seen) == len(result.failures)
                for f, adj in zip(result.failures, seen):
                    col = attempt_coloring(q, t, n, seed, f.attempt)
                    assert col.n > n
                    assert adj == col.induced(range(n)).color_class_bitsets(f.color)
                    checked += 1
    assert checked >= 20


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
            got = _hitting_set(ascending(cliques), budget, 10**6)
            if budget < best:
                assert got is None
            else:
                assert got is not None and got.bit_count() <= budget
                assert all(c & got for c in cliques)


def ascending(masks):
    """Each clique mask as the ascending tuple of its vertices, the form
    _k_cliques lists and _hitting_set takes."""
    return [tuple(v for v in range(mask.bit_length()) if mask >> v & 1) for mask in masks]


def reference_hitting_set(cliques, budget):
    """The deletion search on a list of open cliques with a per-vertex
    count at every node: its deletion, and the sum over its nodes of
    their open cliques, at least 1 each."""
    charged = 0
    stack = [(0, 0, cliques)]
    while stack:
        deleted, banned, open_ = stack.pop()
        charged += len(open_) or 1
        if not open_:
            return deleted, charged
        frees = sorted((c & ~banned for c in open_), key=int.bit_count)
        if not frees[0] or deleted.bit_count() + moment._disjoint_packing(frees) > budget:
            continue
        counts = {}
        for free in frees:
            while free:
                low = free & -free
                counts[low] = counts.get(low, 0) + 1
                free ^= low
        v = max(counts, key=lambda b: (counts[b], -b))
        stack.append((deleted, banned | v, open_))
        stack.append((deleted | v, banned, [c for c in open_ if not c & v]))
    return None, charged


def attempt_cliques(n, seed, attempt):
    """The monochromatic K_4 masks and the budget m - n of one (3,4)
    attempt, as _run_attempt lists them."""
    col = attempt_coloring(3, 4, n, seed, attempt)
    return [sum(1 << v for v in verts) for c in range(1, 5)
            for verts in _k_cliques(col.color_class_bitsets(c), 4, DEFAULT_NODE_CAP, "x")], col.n - n


def test_hitting_set_on_incidence_masks_matches_the_list_search():
    """The same deletion, or None, as the search on a list of cliques, on
    random hypergraphs (empty and repeated cliques included) and on (3,4)
    attempts; and the smallest cap that succeeds is the sum over the
    nodes of their open cliques, at least 1 each."""
    rng = random.Random(22)
    cases = []
    for _ in range(400):
        m = rng.randrange(1, 14)
        k = rng.randrange(1, min(m, 5) + 1)
        cliques = [sum(1 << v for v in rng.sample(range(m), rng.randrange(k + 1)))
                   for _ in range(rng.randrange(25))]
        cases.append((cliques, rng.randrange(m + 1)))
    cases += [attempt_cliques(n, seed, attempt)
              for n in (14, 20, 22, 24) for seed in range(1, 9) for attempt in (1, 2)]
    # The packing bound is skipped at a node with nothing banned when d
    # deleted plus (room - d) // smallest is within the budget.  Budgets
    # where that sum equals the budget at depth d, or exceeds it by one.
    for _ in range(100):
        m = rng.randrange(2, 13)
        cliques = [sum(1 << v for v in rng.sample(range(m), rng.randrange(2, min(m, 5) + 1)))
                   for _ in range(rng.randrange(1, 12))]
        room, smallest = max(cliques).bit_length(), min(map(int.bit_count, cliques))
        for d in range(min(room, 4)):
            bound = d + (room - d) // smallest
            cases += [(cliques, bound), (cliques, bound - 1)]
    # Pairwise disjoint: cut at the root when room // smallest exceeds the budget.
    cases += [([0b11, 0b1100, 0b110000], 3), ([0b11, 0b1100, 0b110000], 2)]
    # Mixed sizes whose smallest is below t.
    for seed in range(1, 9):
        cliques, budget = attempt_cliques(20, seed, 1)
        cases.append((cliques + [0b11 << seed, 0b111 << 2 * seed], budget))
    # An empty clique: no deletion meets it, so the bound is built, and
    # cuts, at the root.
    cases += [([0], 0), ([0b111, 0, 0b11000], 5), ([0b11, 0b1100, 0], 4)]
    for cliques, budget in cases:
        deleted, charged = reference_hitting_set(cliques, budget)
        assert _hitting_set(ascending(cliques), budget, charged) == deleted
        if charged > 1:
            with pytest.raises(ResourceCapError, match=f"exceeded {charged - 1} nodes"):
                _hitting_set(ascending(cliques), budget, charged - 1)


def test_the_packing_bound_is_built_only_where_it_can_cut(monkeypatch):
    """A spy on _disjoint_packing over find_witness(3, 4, n, 200, s),
    s = 1-40: no call at n = 14 and 147 at n = 20, where a search that
    builds the bound at every node calls it 338 and 467 times.  The
    digest pins the certificates, which the skip must not change."""
    calls = []
    real = moment._disjoint_packing
    monkeypatch.setattr(moment, "_disjoint_packing", lambda frees: calls.append(1) or real(frees))
    digest = hashlib.sha256()
    for n, expected in ((14, 0), (20, 147)):
        calls.clear()
        for seed in range(1, 41):
            cert = find_witness(3, 4, n, 200, seed)
            digest.update(certificate_to_text(cert).encode())
        assert len(calls) == expected, n
    assert digest.hexdigest() == "a80324d3f34dd8b434adfc94bb1e22e6f7acdd14c79f643233ae02f4f3bfacdf"


def test_find_witness_searches_are_capped():
    # every triple of 9 vertices: a hitting set must leave at most 2 of
    # them, so 7 are needed, while at most 3 triples are disjoint
    triples = [sum(1 << v for v in sub) for sub in itertools.combinations(range(9), 3)]
    assert _hitting_set(ascending(triples), 6, 10**6) is None
    with pytest.raises(ResourceCapError):
        _hitting_set(ascending(triples), 6, 50)
    with pytest.raises(ResourceCapError):
        find_witness(3, 4, 20, 1, seed=1, node_cap=10)


def test_find_witness_caps_the_pairs_of_its_sampled_vertices(monkeypatch):
    """An attempt colors m = min(|V|, 2n) vertices: at n = 14, m = 28 and
    378 pairs, checked against coloring.MAX_PAIRS before any build."""
    builds = []
    monkeypatch.setattr(moment, "build_field_coloring", lambda *a: builds.append(a) or build_field_coloring(*a))
    monkeypatch.setattr(coloring, "MAX_PAIRS", 377)
    with pytest.raises(ResourceCapError, match="a coloring of 28 vertices exceeds the cap of 377 pairs"):
        find_witness(3, 4, 14, 1, seed=1)
    assert not builds
    monkeypatch.setattr(coloring, "MAX_PAIRS", 378)
    assert isinstance(find_witness(3, 4, 14, 1, seed=1), WitnessCertificate)


def test_find_witness_checks_n_and_its_pairs_before_enumerating(monkeypatch):
    """|V| is counted, not enumerated, for the n > |V| check and the pair
    cap on m = min(|V|, 2n): at (2,19), |V| = 2^18."""
    def refuse(*args):
        raise AssertionError("ground set enumerated")

    monkeypatch.setattr(moment, "_witness_ground", refuse)
    with pytest.raises(ResourceCapError, match="a coloring of 6000 vertices exceeds the cap"):
        find_witness(2, 19, 3000, 1, seed=1)
    with pytest.raises(CapacityError, match="n=34 exceeds the ground set size 33"):
        find_witness(3, 4, 34, 1, seed=1)
    with pytest.raises(ParameterError, match="modulus must be prime"):
        find_witness(9, 4, 14, 1, seed=1)


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


def test_reverify_checks_every_stored_size_by_existence():
    """The library reverify, which takes certificates that no parse has
    checked: each stored size moved by one either way, a size tuple one
    short or one long, and a size of 0 or of t are rejected.  Small n
    gives sizes from 1 to t - 1, so that an overstated size is not
    refused by the range alone."""
    certs = [find_witness(3, 4, n, 200, seed) for n in (6, 8, 14, 20) for seed in range(1, 4)]
    certs += [find_witness(2, 7, 10, 200, seed) for seed in range(1, 4)]
    for cert in certs:
        assert reverify(cert)
        sizes, t = cert.max_clique_sizes, cert.t
        bad = [sizes[:-1], sizes + (1,), sizes[1:], (2,) + sizes]
        for i in range(len(sizes)):
            bad += [sizes[:i] + (s,) + sizes[i + 1 :] for s in (sizes[i] - 1, sizes[i] + 1, 0, t)]
        for claimed in bad:
            assert not reverify(replace(cert, max_clique_sizes=claimed)), (sizes, claimed)


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
    # the seed on the embedded coloring's provenance line
    sk = attempt_seed(cert.seed, cert.attempt)
    tampered.append(text.replace(f" seed={sk}\n", f" seed={sk + 1}\n"))
    for bad in tampered:
        assert not reverify_text(bad)


def test_certificates_spell_integers_one_way():
    # each edit respells one integer, which int() reads as the same value
    cert = find_witness(3, 4, 14, 200, seed=5)
    text = certificate_to_text(cert)
    assert text.splitlines()[5:11] == [
        "seed=5", "attempt=1", "max-clique-sizes=3 3 3 3", "verdict=pass", "vectors:", "3 4 2 0 2 2"
    ]
    row = text.split("coloring:\n")[1].splitlines()[3]  # after magic, header and provenance
    edits = [
        ("seed=5\n", "seed=+5\n"),
        ("n=14\n", "n= 14\n"),
        ("attempt=1\n", "attempt=01\n"),
        ("q=3\n", "q=0_3\n"),
        ("max-clique-sizes=3", "max-clique-sizes= 3"),
        ("vectors:\n3 4 2 0 2 2\n", "vectors:\n3 04 02 00 2 2\n"),
        # the embedded coloring block is held to the same one spelling
        ("\n" + row + "\n", "\n" + row.replace(" ", "  ", 1) + "\n"),
        ("\n# field-coloring ", "\n#field-coloring "),
    ]
    for old, new in edits:
        bad = text.replace(old, new, 1)
        assert bad != text
        with pytest.raises(FormatError, match="canonical"):
            certificate_from_text(bad)
        assert not reverify_text(bad)
    assert reverify_text(text)


def test_certificate_header_bounds_the_vectors_before_they_are_parsed(fixture_certificate, monkeypatch):
    text = certificate_to_text(fixture_certificate)
    sizes = " ".join(map(str, fixture_certificate.max_clique_sizes))
    # five colors for q = 3, in the header and the embedded block, and five sizes
    wide = text.replace("colors=4\n", "colors=5\n").replace(f"sizes={sizes}\n", f"sizes={sizes} 1\n")
    with pytest.raises(FormatError, match="expected colors=4 and 4 clique sizes"):
        certificate_from_text(wide)
    with pytest.raises(FormatError, match="expected colors=4 and 4 clique sizes"):
        certificate_from_text(text.replace(f"sizes={sizes}\n", f"sizes={sizes} 1\n"))
    # A 15-digit prime modulus on a vector line is refused by its prefix,
    # not by trial division, which takes about a second.
    first = text.split("vectors:\n")[1].split("\n")[0]
    slow = text.replace(first, "100000000000031 4" + first[3:], 1)
    tested = []
    real = field.is_prime
    monkeypatch.setattr(field, "is_prime", lambda q: tested.append(q) or real(q))
    start = time.perf_counter()
    with pytest.raises(FormatError, match="canonical"):
        certificate_from_text(slow)
    assert time.perf_counter() - start < 0.1
    assert 100000000000031 not in tested


def test_a_certificate_block_must_agree_with_its_header(fixture_certificate):
    """The canonical round trip renders the block from the parsed
    coloring, so it alone would accept a block of another n or palette."""
    cert = fixture_certificate
    text = certificate_to_text(cert)
    for block in (cert.coloring.induced(range(cert.n - 1)), replace(cert.coloring, num_colors=cert.q + 2)):
        bad = certificate_to_text(replace(cert, coloring=block))
        assert bad != text and bad.split("coloring:\n")[0] == text.split("coloring:\n")[0]
        with pytest.raises(FormatError, match="^embedded coloring disagrees with the certificate header$"):
            certificate_from_text(bad)
        assert not reverify_text(bad)


def test_a_certificate_parse_tests_its_modulus_for_primality_once(fixture_certificate, monkeypatch):
    text = certificate_to_text(fixture_certificate)
    tested = []
    real = field.is_prime
    monkeypatch.setattr(field, "is_prime", lambda q: tested.append(q) or real(q))
    assert certificate_from_text(text) == fixture_certificate
    assert tested == [3]
    # a composite q keeps the vector line's message, also from the header's q
    lines = text.split("\n")
    composite = "\n".join(line.replace("3 4 ", "4 4 ", 1) for line in lines)
    composite = composite.replace("q=3\n", "q=4\n").replace("colors=4\n", "colors=5\n")
    composite = composite.replace("max-clique-sizes=", "max-clique-sizes=0 ")
    tested.clear()
    with pytest.raises(FormatError, match="^vector line has non-prime modulus 4$"):
        certificate_from_text(composite)
    assert tested == [4]


def test_an_enumeration_over_the_cap_is_refused_before_the_primality_test(monkeypatch):
    # q^t over the cap needs no primality test, which takes seconds at q = 10^16 + 61
    tested = []
    monkeypatch.setattr(field, "is_prime", tested.append)
    big = 10**16 + 61
    for call in (lambda: exact_mono_expectation(big, 2, Fraction(1, 2)),
                 lambda: monte_carlo_mono_count(big, 2, 5, Fraction(1, 2), seed=1),
                 lambda: find_witness(big, 1, 2, 5, seed=1)):
        with pytest.raises(ResourceCapError):
            call()
    assert tested == []


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
    # Text that is not a str used to raise TypeError from the header regex.
    assert not reverify_text(b"x")
    with pytest.raises(FormatError, match="^certificate text must be a str, not NoneType$"):
        certificate_from_text(None)


_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["replace", "insert", "delete"]),
        st.integers(min_value=0),
        # a run of digits past int()'s 4,300-digit limit, as well as characters
        st.one_of(st.sampled_from([*"0123456789 -=#:\n", "1" * 5000]), st.characters()),
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
    for text in (certificate_to_text(fixture_certificate), fixture_certificate.coloring.to_text()):
        bad = _mutate(text, edits)
        for parse in (certificate_from_text, EdgeColoring.from_text):
            try:
                parse(bad)
            except FormatError:
                pass
        assert isinstance(reverify_text(bad), bool)
