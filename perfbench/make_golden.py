"""Regenerate golden.json, the outputs the benchmark pins.

    python3 perfbench/make_golden.py

Run it only at a commit whose outputs are known to be right: the
ROADMAP requires coloring files, verify results, potential-clique counts
and exact expectations to stay identical, so a later change that alters
them is a defect to fix, not a reason to regenerate.  Takes under a
minute.
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ramseylb  # noqa: E402

import workloads as w  # noqa: E402
from checks import digest  # noqa: E402
from spans import Tracer  # noqa: E402

MC_GOLDEN_TRIALS = 4800


def produce(ctx: w.Context, *argv) -> None:
    res = ctx.cli(*argv)
    if res.rc != 0:
        raise SystemExit(f"{argv[0]} failed with exit {res.rc}: {res.err}")


def verify_result(ctx: w.Context, path: Path, target: int) -> dict:
    res = ctx.cli("verify", "--coloring", path, "--target", target)
    sizes = [int(m) for m in re.findall(r"^color \d+: max clique (\d+)", res.out, re.M)]
    return {"sizes": sizes, "rc": res.rc}


def main() -> None:
    golden = {"files": {}, "verify": {}, "potential": {}, "exact": {}, "bounds": {}}
    scratch = w.GOLDEN.parent.parent / ".bench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        ctx = w.Context(Path(tmp), golden, Tracer())
        path = ctx.tmp / "coloring.txt"
        for key, argv, target in (e for group in w.ladder_pool().values() for e in group):
            produce(ctx, *argv, "--out", path)
            golden["files"][key] = digest(path.read_text(encoding="ascii"))
            golden["verify"][key] = verify_result(ctx, path, target)
        paley, product = ctx.tmp / "paley.txt", ctx.tmp / "product.txt"
        produce(ctx, "construct-paley", "--p", w.PALEY_P, "--out", paley)
        produce(ctx, "compose", "--a", paley, "--b", paley, "--out", product)
        golden["files"][f"construct-paley p={w.PALEY_P}"] = digest(paley.read_text(encoding="ascii"))
        key = f"compose p={w.PALEY_P}"
        golden["files"][key] = digest(product.read_text(encoding="ascii"))
        golden["verify"][key] = verify_result(ctx, product, w.PALEY_TARGET)
        for q, t in w.POTENTIAL + w.EXACT:
            ground = ramseylb.enumerate_isotropic(ramseylb.PrimeModulus(q), t)
            golden["potential"][f"{q} {t}"] = len(ramseylb.enumerate_potential_cliques(ground, t))
        for q, t in w.EXACT:
            golden["exact"][f"{q} {t}"] = str(ramseylb.exact_mono_expectation(q, t, w.HALF))
        # per-trial standard deviation of the Monte Carlo count, from one long run
        est = ramseylb.monte_carlo_mono_count(w.MC_Q, w.MC_T, MC_GOLDEN_TRIALS, w.HALF,
                                              w.bench_seed("golden", "mc"))
        golden["mc_stdev"] = est.stderr * MC_GOLDEN_TRIALS**0.5
        for t, colors in w.BOUNDS:
            res = ctx.cli("bounds", "--t", t, "--colors", colors)
            golden["bounds"][f"{t} {colors}"] = digest(res.out)
        # winning attempt of each n=14 pool seed (0: none within the budget)
        golden["witness_n14"] = [
            getattr(ramseylb.find_witness(w.WITNESS_Q, w.WITNESS_T, 14, w.ATTEMPTS,
                                          w.pool_seed("witness-n14", j)), "attempt", 0)
            for j in range(w.N14_POOL)]
    with open(w.GOLDEN, "w", encoding="ascii") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
