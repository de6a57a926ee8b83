"""The benchmark's workloads: request lists made from a seed, and their checks.

A workload run is a sequence of rounds.  Round r of workload w under
seed s holds a fixed list of requests whose inputs come from
``bench_seed(s, w, r, ...)``, a hash owned by the benchmark, so that the
inputs do not move when ramseylb's own seed derivation changes.

Each request has a ``call``, the timed part, which drives ramseylb the
way its users do (``ramseylb.cli.dispatch`` for commands, the public
``ramseylb`` functions for the moment code), and a ``check``, which runs
outside the timed region and raises CheckError on a wrong output.  A
check may return counters (such as certificates found) for the run to sum.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import ramseylb
import ramseylb.cli

from checks import (
    check_certificate,
    check_no_witness,
    check_potential,
    check_verify,
    digest,
    expect,
    first_moment,
    parse_coloring,
)
from spans import Tracer

GOLDEN = Path(__file__).resolve().parent / "golden.json"

# witness: certify at (q, t) = (3, 4) with the default budget of 200 attempts.
# The n=14 requests are drawn from a pool whose winning attempt index
# golden.json pins (see n14_seeds); N14_POOL must match it.
WITNESS_Q, WITNESS_T, ATTEMPTS = 3, 4, 200
WITNESS_N14_PER_ROUND = 40
WITNESS_N20_PER_ROUND = 2
N14_POOL = 256

# ladder: construct -> file -> verify; each round draws one input per
# instance from a fixed pool, whose outputs golden.json pins.
LADDER_FIELD = ((3, 4, 33), (5, 4, 145), (2, 9, 200))
TWO_COLOR_T, TWO_COLOR_N, TWO_COLOR_TARGET = 4, 40, 8
TWO_COLOR_PER_ROUND = 3
PALEY_P, PALEY_TARGET = 13, 4
POOL = 16

# moments
POTENTIAL = ((3, 4), (3, 5), (2, 7))
MC_Q, MC_T, MC_TRIALS, MC_SIGMAS = 3, 4, 300, 5
EXACT = ((2, 4), (2, 5))
HALF = Fraction(1, 2)
BOUNDS = ((16, 4), (24, 3), (32, 5), (64, 6), (40, 8))


def bench_seed(*labels: object) -> int:
    """A 63-bit seed from labels, by SHA-256; independent of ramseylb.rng."""
    h = hashlib.sha256("\x1f".join(str(x) for x in labels).encode()).digest()
    return int.from_bytes(h[:8], "big") >> 1


def pool_seed(kind: str, index: int) -> int:
    return bench_seed("pool", kind, index)


@dataclass(frozen=True)
class Cli:
    rc: int
    out: str
    err: str


@dataclass
class Context:
    """What requests share: a scratch directory, the pinned outputs, the tracer."""

    tmp: Path
    golden: dict
    tracer: Tracer

    def cli(self, *argv: object) -> Cli:
        out, err = io.StringIO(), io.StringIO()
        with self.tracer.span("cli.dispatch"), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            rc = ramseylb.cli.dispatch([str(a) for a in argv])
        return Cli(rc, out.getvalue(), err.getvalue())


@dataclass(frozen=True)
class Request:
    name: str
    part: int  # 1 or 2: counted in part1_s / part2_s; 0: only in total_s
    call: Callable[[], object]
    check: Callable[[object], dict | None]


def load_golden() -> dict:
    with open(GOLDEN, encoding="ascii") as fh:
        return json.load(fh)


def expect_ok(res: Cli, what: str) -> None:
    expect(res.rc == 0, f"{what}: exit {res.rc}: {res.err.strip()}")


# -- witness -------------------------------------------------------------------

def certify(ctx: Context, n: int, seed: int, jobs: int = 1) -> Request:
    """certify, then reverify when a certificate was written."""
    cert = ctx.tmp / f"witness-j{jobs}.cert"
    args = ("certify", "--q", WITNESS_Q, "--t", WITNESS_T, "--n", n, "--attempts", ATTEMPTS,
            "--seed", seed, "--jobs", jobs, "--out", cert)

    def call():
        res = ctx.cli(*args)
        rev = ctx.cli("reverify", "--cert", cert) if res.rc == 0 else None
        return res, rev

    def check(result):
        res, rev = result
        if res.rc == 1:
            check_no_witness(res.out, seed, ATTEMPTS, WITNESS_T, WITNESS_Q + 1)
            expect(not cert.exists(), "a failed search wrote a certificate")
            return {"certify": 1, "found": 0}
        expect_ok(res, "certify")
        text = cert.read_text(encoding="ascii")
        cert.unlink()
        check_certificate(text, WITNESS_Q, WITNESS_T, n, seed)
        expect(rev.rc == 0 and rev.out == "certificate valid\n", "reverify rejected the certificate")
        return {"certify": 1, "found": 1, "cert": text}

    return Request(f"certify-n{n}", 1 if n == 14 else 2, call, check)


def n14_seeds(golden: dict, seed: int, rnd: int) -> list[int]:
    """The n=14 request seeds of round rnd, stratified by the pinned winning attempt.

    A request's cost is about proportional to the attempt at which it
    finds a witness, which is geometric (CV about 0.95).  So every round
    takes the same attempt profile, that of the first pool entries, and
    the workload seed picks, for each attempt count, which pool entries
    with that count the round runs.  Every round then does the same
    number of attempts on different inputs.
    """
    wins = golden["witness_n14"]
    profile = wins[:WITNESS_N14_PER_ROUND]
    seeds = []
    for attempt in sorted(set(profile)):
        stratum = [j for j, a in enumerate(wins) if a == attempt]
        stratum.sort(key=lambda j: bench_seed(seed, "witness", rnd, 14, j))
        seeds += [pool_seed("witness-n14", j) for j in stratum[:profile.count(attempt)]]
    return seeds


def witness_seeds(golden: dict, seed: int, rnd: int) -> list[tuple[int, int]]:
    """(n, request seed) of round rnd: many n=14 requests, a few at n=20."""
    return [(14, s) for s in n14_seeds(golden, seed, rnd)] + \
           [(20, bench_seed(seed, "witness", rnd, 20, i)) for i in range(WITNESS_N20_PER_ROUND)]


def witness(ctx: Context, seed: int, rnd: int) -> list[Request]:
    return [certify(ctx, n, s) for n, s in witness_seeds(ctx.golden, seed, rnd)]


def parallel_check(ctx: Context, seed: int) -> tuple[int, float]:
    """Run round 0's first n=14 and first n=20 requests at --jobs 1 and 2.

    The outputs must be identical.  Returns the number of requests made
    and the speedup of the n=20 request, which always runs its whole budget.
    """
    seeds = witness_seeds(ctx.golden, seed, 0)
    picks = [seeds[0], seeds[WITNESS_N14_PER_ROUND]]
    speedup = 0.0
    for n, s in picks:
        outs, times = [], []
        for jobs in (1, 2):
            req = certify(ctx, n, s, jobs)
            t0 = time.perf_counter()
            result = req.call()
            times.append(time.perf_counter() - t0)
            counters = req.check(result)
            res = result[0]
            outs.append((res.rc, res.out.replace(f"witness-j{jobs}.cert", ""), counters.get("cert")))
        expect(outs[0] == outs[1], f"--jobs 2 differs from --jobs 1 at n={n} seed={s}")
        if n == 20:
            speedup = times[0] / times[1]
    return 2 * len(picks), speedup


# -- ladder --------------------------------------------------------------------

def produce(ctx: Context, path: Path, key: str, argv: tuple) -> Request:
    """A construct*/compose request whose output file digest is pinned."""
    def call():
        return ctx.cli(*argv, "--out", path)

    def check(res):
        expect_ok(res, argv[0])
        text = path.read_text(encoding="ascii")
        parse_coloring(text)
        expect(digest(text) == ctx.golden["files"][key], f"{key}: output digest differs from the pinned one")

    return Request(argv[0], 1, call, check)


def verify(ctx: Context, path: Path, key: str, target: int) -> Request:
    def call():
        return ctx.cli("verify", "--coloring", path, "--target", target)

    def check(res):
        pinned = ctx.golden["verify"][key]
        check_verify(res.out, res.rc, path.read_text(encoding="ascii"), target,
                     pinned["sizes"], pinned["rc"])

    return Request("verify", 2, call, check)


def ladder_pool() -> dict[str, list[tuple[str, tuple, int]]]:
    """Per instance, the POOL inputs the ladder draws from: (key, construct argv, verify target)."""
    pool = {}
    for q, t, n in LADDER_FIELD:
        label = f"field-{q}-{t}-{n}"
        pool[label] = [(f"construct q={q} t={t} n={n} seed={s}",
                        ("construct", "--q", q, "--t", t, "--n", n, "--seed", s), t)
                       for s in (pool_seed(label, j) for j in range(POOL))]
    pool["two-color"] = [
        (f"construct-two-color t={TWO_COLOR_T} n={TWO_COLOR_N} seed={s}",
         ("construct-two-color", "--t", TWO_COLOR_T, "--n", TWO_COLOR_N, "--seed", s), TWO_COLOR_TARGET)
        for s in (pool_seed("two-color", j) for j in range(POOL))]
    return pool


def paley_chain(ctx: Context) -> list[Request]:
    """construct-paley, compose with itself, verify the product."""
    paley, product = ctx.tmp / "paley.txt", ctx.tmp / "product.txt"
    return [
        produce(ctx, paley, f"construct-paley p={PALEY_P}", ("construct-paley", "--p", PALEY_P)),
        produce(ctx, product, f"compose p={PALEY_P}", ("compose", "--a", paley, "--b", paley)),
        verify(ctx, product, f"compose p={PALEY_P}", PALEY_TARGET),
    ]


def ladder(ctx: Context, seed: int, rnd: int) -> list[Request]:
    pool = ladder_pool()
    picks = [pool[f"field-{q}-{t}-{n}"][bench_seed(seed, "ladder", rnd, q, t, n) % POOL]
             for q, t, n in LADDER_FIELD]
    picks += [pool["two-color"][bench_seed(seed, "ladder", rnd, "two-color", i) % POOL]
              for i in range(TWO_COLOR_PER_ROUND)]
    path = ctx.tmp / "coloring.txt"
    reqs = []
    for key, argv, target in picks:
        reqs += [produce(ctx, path, key, argv), verify(ctx, path, key, target)]
    return reqs + paley_chain(ctx)


# -- moments -------------------------------------------------------------------

def potential(ctx: Context, q: int, t: int) -> Request:
    def call():
        ground = ramseylb.enumerate_isotropic(ramseylb.PrimeModulus(q), t)
        return ramseylb.enumerate_potential_cliques(ground, t)

    def check(cliques):
        check_potential(cliques, q, t, ctx.golden["potential"][f"{q} {t}"])

    return Request(f"potential-{q}-{t}", 1, call, check)


def monte_carlo(ctx: Context, seed: int) -> Request:
    """The Monte Carlo mean must lie within a few standard errors of the
    first moment.  The standard error comes from the pinned per-trial
    deviation: the estimate's own stderr shrinks with its mean, since the
    counts are skewed, and would raise false alarms on low means."""
    def call():
        return ramseylb.monte_carlo_mono_count(MC_Q, MC_T, MC_TRIALS, HALF, seed)

    def check(est):
        ref = first_moment(ctx.golden["potential"][f"{MC_Q} {MC_T}"], HALF, MC_T)
        stderr = ctx.golden["mc_stdev"] / MC_TRIALS**0.5
        expect(est.trials == MC_TRIALS and est.stderr > 0, f"bad estimate {est}")
        expect(abs(est.mean - ref) <= MC_SIGMAS * stderr,
               f"Monte Carlo mean {est.mean} is more than {MC_SIGMAS} x {stderr:.4f} from {float(ref)}")

    return Request("monte-carlo", 2, call, check)


def exact(ctx: Context, q: int, t: int) -> Request:
    def call():
        return ramseylb.exact_mono_expectation(q, t, HALF)

    def check(value):
        pinned = Fraction(ctx.golden["exact"][f"{q} {t}"])
        expect(value == pinned, f"exact expectation {value}, pinned {pinned}")
        expect(value == first_moment(ctx.golden["potential"][f"{q} {t}"], HALF, t),
               "exact expectation disagrees with the first-moment formula")

    return Request(f"exact-{q}-{t}", 2, call, check)


def bounds(ctx: Context, t: int, colors: int) -> Request:
    def call():
        return ctx.cli("bounds", "--t", t, "--colors", colors)

    def check(res):
        expect_ok(res, "bounds")
        expect(digest(res.out) == ctx.golden["bounds"][f"{t} {colors}"], "bounds table differs")

    return Request("bounds", 0, call, check)


def moments(ctx: Context, seed: int, rnd: int) -> list[Request]:
    return ([potential(ctx, q, t) for q, t in POTENTIAL]
            + [monte_carlo(ctx, bench_seed(seed, "moments", rnd, "mc"))]
            + [exact(ctx, q, t) for q, t in EXACT]
            + [bounds(ctx, t, c) for t, c in BOUNDS])


WORKLOADS: dict[str, Callable[[Context, int, int], list[Request]]] = {
    "witness": witness,
    "ladder": ladder,
    "moments": moments,
}
