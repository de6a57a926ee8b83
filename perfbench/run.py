"""ramseylb benchmark: one workload in one fresh process.

    python3 perfbench/run.py --workload witness --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; ramseylb is imported from its ``src``.
The run repeats rounds of the workload's request list (see workloads.py)
for about ``--seconds`` (it stops at the round boundary nearest to it),
and at least MIN_ROUNDS times.  Every
output is checked outside the timed region.

--trace 0 prints the end-to-end metrics of BENCHMARK.json: means over
rounds of per-round sums (rounds hold different inputs, so the mean is
the cost of the average round); the times are rescaled to the machine's
nominal speed by a reference kernel timed between requests (see
reference.py), and the report also prints them unscaled.  --trace 1 runs each round once plain
and once traced, and prints the per-layer metrics: times are medians
over traced rounds; counts come from the first MIN_ROUNDS rounds, which
every run completes, so they repeat exactly for a seed.  Spans are
written to .bench_out/.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  Requests that raise, exit with an unexpected code or fail
a check are counted in ``failed``; error_frac = failed / attempted.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_ROUNDS = 3
SETUP_PROBES = 7

# What part1_s and part2_s time on each workload, for the report.
PARTS = {
    "witness": ("certify_n14_s", "certify_n20_s"),
    "ladder": ("construct_s", "verify_s"),
    "moments": ("potential_s", "estimate_s"),
}


def load_program() -> str:
    """Import ramseylb from this checkout's src, or exit with status 1.
    Returns numpy's version."""
    sys.path.insert(0, str(SRC))
    try:
        import ramseylb
    except ImportError as exc:
        sys.exit(f"run.py: cannot import ramseylb from {SRC}: {exc}")
    if Path(ramseylb.__file__).resolve().parent.parent != SRC:
        sys.exit(f"run.py: imported ramseylb from {ramseylb.__file__}, not from {SRC}")
    import numpy
    return numpy.__version__


def measure_setup(args) -> float:
    """Median time from starting a fresh interpreter until it has imported
    ramseylb and built round 0's request list."""
    cmd = [sys.executable, __file__, "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line != "ready\n":
            raise RuntimeError(f"setup probe failed with exit {proc.returncode}")
        times.append(dt)
    return statistics.median(times)


def run_round(reqs, ctx, tally, errors, ref=None):
    """Time each request and check it; returns per-request (name, part, seconds).
    ``ref`` (a reference.Reference) is sampled between requests."""
    timed = []
    for req in reqs:
        tally["attempted"] += 1
        try:
            with ctx.tracer.span("request." + req.name, request=True):
                t0 = time.perf_counter()
                result = req.call()
                dt = time.perf_counter() - t0
            if ref is not None:
                ref.after(dt)
            counters = req.check(result) or {}
        except Exception:  # a failed request is counted, and the run goes on
            tally["failed"] += 1
            errors.append(f"{req.name}: {traceback.format_exc(limit=3)}")
            continue
        for key in ("certify", "found"):
            tally[key] += counters.get(key, 0)
        timed.append((req.name, req.part, dt))
    return timed


def round_times(timed) -> dict[str, float]:
    return {
        "total": sum(dt for _, _, dt in timed),
        "part1": sum(dt for _, p, dt in timed if p == 1),
        "part2": sum(dt for _, p, dt in timed if p == 2),
    }


def latency_line(name: str, times: list[float]) -> str:
    """Median and the highest listed percentile with at least ten samples beyond it."""
    line = f"  latency {name:22s} n={len(times):<5d} p50={statistics.median(times) * 1e3:.2f} ms"
    for pct in (99, 98, 95, 90, 75):
        if len(times) * (100 - pct) >= 1000:
            cut = statistics.quantiles(times, n=100, method="inclusive")[pct - 1]
            return line + f" p{pct}={cut * 1e3:.2f} ms"
    return line


def layer_metrics(agg: dict) -> dict[str, float]:
    """Per-layer values of one traced round from the tracer's aggregate."""
    def g(name, i):
        return agg.get(name, [0, 0.0, 0.0, 0.0, 0])[i]

    calls, incl, self_, slowest, qty = range(5)
    mc_s = g("moment.mc", incl)
    attempts = g("moment.find_witness", qty)
    certs = g("moment.reverify", calls)
    searches = g("moment.find_witness", calls)
    return {
        "coloring.build_s": g("coloring.build", incl),
        "coloring.build_calls": g("coloring.build", calls),
        "coloring.pairs": g("coloring.build", qty),
        "coloring.to_text_s": g("coloring.to_text", incl),
        "coloring.from_text_s": g("coloring.from_text", incl),
        "coloring.bitsets_s": g("coloring.bitsets", incl),
        "rng.pair_coin_calls": g("rng.pair_coin", calls),
        "rng.pair_coin_s": g("rng.pair_coin", incl),
        "rng.derive_seed_calls": g("rng.derive_seed", calls),
        "isotropic.enumerate_s": g("isotropic.enumerate", incl),
        "isotropic.enumerate_calls": g("isotropic.enumerate", calls),
        "isotropic.sample_s": g("isotropic.sample", incl),
        "cliques.max_clique_s": g("cliques.max_clique", incl),
        "cliques.max_clique_calls": g("cliques.max_clique", calls),
        "cliques.max_clique_slowest_s": g("cliques.max_clique", slowest),
        "cliques.potential_self_s": g("cliques.potential", self_),
        "cliques.potential_found": g("cliques.potential", qty),
        "field.rank_s": g("field.rank", incl),
        "field.rank_calls": g("field.rank", calls),
        "compose.blowup_s": g("compose.blowup", incl),
        "moment.find_witness_self_s": g("moment.find_witness", self_),
        "moment.attempts": attempts,
        "moment.attempt_yield": certs / attempts if attempts else 0.0,
        "moment.found_frac": certs / searches if searches else 0.0,
        "moment.reverify_s": g("moment.reverify", incl),
        "moment.mc_s": mc_s,
        "moment.mc_trials_per_s": g("moment.mc", qty) / mc_s if mc_s else 0.0,
        "moment.exact_s": g("moment.exact", incl),
        "bounds.table_s": g("bounds.table", incl),
        "cli.self_s": g("cli.dispatch", self_),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    ap = argparse.ArgumentParser(description="ramseylb benchmark")
    ap.add_argument("--workload", required=True, choices=["witness", "ladder", "moments", "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    numpy_version = load_program()
    import workloads
    from spans import Tracer

    if args.setup_probe:
        tmp = OUT / "probe"
        workloads.WORKLOADS[args.workload](
            workloads.Context(tmp, workloads.load_golden(), Tracer()), args.seed, 0)
        print("ready", flush=True)
        return 0

    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    ctx = workloads.Context(tmp, workloads.load_golden(), tracer)
    try:
        run = run_rounds(args, ctx, workloads)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if args.trace:
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        wanted = spec["per_layer"]
        metrics, unscaled = layer_report(run, wanted), {}
    else:
        wanted = spec["end_to_end"]
        metrics, unscaled = end_to_end_report(run)
    missing = {m["name"] for m in wanted} ^ set(metrics)
    if missing:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {sorted(missing)}")
    return print_report(args, run, metrics, unscaled, wanted, numpy_version)


def run_rounds(args, ctx, workloads) -> dict:
    """Rounds for about --seconds (and at least MIN_ROUNDS), then the parallel check."""
    # imported here, not at the top: the setup probes run this file and must not time it
    from reference import Reference

    ref = Reference()
    setup_s = 0.0 if args.trace else measure_setup(args)
    make = workloads.WORKLOADS[args.workload]
    tracer = ctx.tracer
    tally = {"attempted": 0, "failed": 0, "certify": 0, "found": 0}
    errors: list[str] = []
    rounds, traced, layers = [], [], []
    start = time.perf_counter()
    rnd = 0
    # stop at the round boundary nearest to --seconds
    while rnd < MIN_ROUNDS or (time.perf_counter() - start) * (1 + 0.5 / rnd) < args.seconds:
        reqs = make(ctx, args.seed, rnd)
        rounds.append(run_round(reqs, ctx, tally, errors, None if args.trace else ref))
        if args.trace:
            tracer.round = rnd
            tracer.install()
            try:
                traced.append(run_round(reqs, ctx, tally, errors))
            finally:
                tracer.uninstall()
            layers.append(layer_metrics(tracer.aggregate(rnd)))
        rnd += 1
    speedup = 0.0
    if args.workload == "witness":
        try:
            made, speedup = workloads.parallel_check(ctx, args.seed)
            tally["attempted"] += made
        except Exception:  # counted like a failed request
            tally["attempted"] += 1
            tally["failed"] += 1
            errors.append(f"parallel check: {traceback.format_exc(limit=3)}")
    return {"setup_s": setup_s, "tally": tally, "errors": errors, "rounds": rounds,
            "traced": traced, "layers": layers, "speedup": speedup, "ref": ref}


def end_to_end_report(run: dict) -> tuple[dict[str, float], dict[str, float]]:
    """The metrics, and the times among them before rescaling."""
    per_round = [round_times(r) for r in run["rounds"]]
    mean = {k: statistics.fmean(r[k] for r in per_round) for k in per_round[0]}
    unscaled = {"setup_s": run["setup_s"], "total_s": mean["total"],
                "part1_s": mean["part1"], "part2_s": mean["part2"]}
    scale = run["ref"].scale()
    metrics = {
        # Start-up follows the host's load only loosely, so this widens the
        # spread within a set of runs, but it keeps the medians of sets run
        # at different loads together, and those are what a bound compares.
        "setup_s": run["setup_s"] * scale,
        "total_s": mean["total"] * scale,
        "part1_s": mean["part1"] * scale,
        "part2_s": mean["part2"] * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, unscaled


def layer_report(run: dict, wanted: list) -> dict[str, float]:
    counts = {m["name"] for m in wanted if m["unit"] in ("count", "ratio")}
    layers = run["layers"]
    metrics = {}
    for name in layers[0]:
        chosen = layers[:MIN_ROUNDS] if name in counts else layers
        metrics[name] = statistics.median(lay[name] for lay in chosen)
    metrics["moment.pool_speedup"] = run["speedup"]
    metrics["trace.overhead_s"] = statistics.median(
        round_times(t)["total"] - round_times(u)["total"] for t, u in zip(run["traced"], run["rounds"]))
    return metrics


def print_report(args, run: dict, metrics: dict, unscaled: dict, spec: list,
                 numpy_version: str) -> int:
    tally = run["tally"]
    for e in run["errors"][:5]:
        print(f"error: {e}", file=sys.stderr)
    error_frac = tally["failed"] / tally["attempted"]
    found_frac = tally["found"] / tally["certify"] if tally["certify"] else 0.0
    print(f"ramseylb benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"machine  nproc={os.cpu_count()} arch={platform.machine()} "
          f"python={platform.python_version()} numpy={numpy_version}")
    print(f"rounds={len(run['rounds'])} requests={tally['attempted']} failed={tally['failed']} "
          f"error_frac={error_frac:g} found_frac={found_frac:.4f} "
          f"({tally['found']} certificates / {tally['certify']} certify requests)")
    by_name: dict[str, list[float]] = {}
    for name, _, dt in (x for r in run["rounds"] for x in r):
        by_name.setdefault(name, []).append(dt)
    for name, times in by_name.items():
        print(latency_line(name, times))
    if run["ref"].times:
        print(run["ref"].describe())
    p1, p2 = PARTS[args.workload]
    aliases = {"part1_s": p1, "part2_s": p2}
    for m in spec:
        alias = f"  ({aliases[m['name']]})" if m["name"] in aliases else ""
        raw = f"  unscaled {unscaled[m['name']]:.6g}" if m["name"] in unscaled else ""
        print(f"  {m['name']:30s} {metrics[m['name']]:14.6g} {m['unit']}{alias}{raw}")
    result = {
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload, each in its own fresh process; exits 1 if any run fails."""
    status = 0
    for name in ("witness", "ladder", "moments"):
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(cmd).returncode != 0
    return status


if __name__ == "__main__":
    sys.exit(main())
