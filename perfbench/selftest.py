"""Tests of the benchmark's own checks: a wrong output must count as a failed request.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the package's own test run.
"""

from __future__ import annotations

import dataclasses
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import workloads as w  # noqa: E402
from spans import Target, TargetMissing, Tracer  # noqa: E402


@pytest.fixture
def ctx(tmp_path):
    return w.Context(tmp_path, w.load_golden(), Tracer())


def failures(ctx, req) -> int:
    tally = {"attempted": 0, "failed": 0, "certify": 0, "found": 0}
    errors = []
    run.run_round([req], ctx, tally, errors)
    assert tally["attempted"] == 1
    return tally["failed"]


def tampered(req, after):
    """The same request with ``after(result)`` applied to its result."""
    return dataclasses.replace(req, call=lambda: after(req.call()))


def field_requests(ctx):
    key, argv, target = w.ladder_pool()["field-3-4-33"][0]
    path = ctx.tmp / "coloring.txt"
    return path, w.produce(ctx, path, key, argv), w.verify(ctx, path, key, target)


def test_clean_requests_pass(ctx):
    _, produce, verify = field_requests(ctx)
    assert failures(ctx, produce) == 0
    assert failures(ctx, verify) == 0
    assert failures(ctx, w.certify(ctx, 14, w.bench_seed("selftest", 1))) == 0


def test_corrupted_coloring_byte_is_an_error(ctx):
    path, produce, _ = field_requests(ctx)

    def flip_last_color(res):
        text = path.read_text(encoding="ascii")
        pos = len(text) - 2
        path.write_text(text[:pos] + ("1" if text[pos] != "1" else "2") + "\n", encoding="ascii")
        return res

    assert failures(ctx, tampered(produce, flip_last_color)) == 1


def test_wrong_clique_size_is_an_error(ctx):
    _, produce, verify = field_requests(ctx)
    assert failures(ctx, produce) == 0

    def shrink_first_clique(res):
        # drop one witness vertex and report the smaller size: still a
        # clique, so only the pinned maximum can catch it
        m = re.search(r"max clique (\d+), witness ((?:\d+ )*)\d+\n", res.out)
        out = res.out[:m.start()] + f"max clique {int(m.group(1)) - 1}, witness {m.group(2).rstrip()}\n" \
            + res.out[m.end():]
        return dataclasses.replace(res, out=out)

    assert failures(ctx, tampered(verify, shrink_first_clique)) == 1


def test_certificate_failing_reverify_is_an_error(ctx):
    seed = w.bench_seed("selftest", 2)
    cert = ctx.tmp / "witness-j1.cert"

    def bad_sizes_then_reverify(result):
        # lower one claimed size: the coloring is still a witness, but the
        # certificate no longer matches a re-run of the search
        text = cert.read_text(encoding="ascii")
        text = re.sub(r"max-clique-sizes=(\d)", lambda m: f"max-clique-sizes={int(m.group(1)) - 1}", text)
        cert.write_text(text, encoding="ascii")
        return result[0], ctx.cli("reverify", "--cert", cert)

    req = w.certify(ctx, 14, seed)
    assert failures(ctx, tampered(req, bad_sizes_then_reverify)) == 1


def test_n14_rounds_share_the_attempt_profile(ctx):
    wins = dict(zip((w.pool_seed("witness-n14", j) for j in range(w.N14_POOL)),
                    ctx.golden["witness_n14"]))
    rounds = [w.n14_seeds(ctx.golden, seed, rnd) for seed in (1, 2) for rnd in (0, 1)]
    assert all(len(set(r)) == w.WITNESS_N14_PER_ROUND for r in rounds)
    assert len({sum(wins[s] for s in r) for r in rounds}) == 1
    assert len({tuple(r) for r in rounds}) == len(rounds)


def test_missing_trace_target_fails_loudly():
    tracer = Tracer(targets=(Target("ramseylb.cli", "no_such_function", "x.y"),))
    with pytest.raises(TargetMissing):
        tracer.install()
    assert not tracer.active
