"""Command-line interface wiring all modules together.

Exit status: 0 success, 1 verification failure, 2 parameter error,
3 resource-cap error.  Randomized subcommands default to a fixed seed
(DEFAULT_SEED), never the clock, so repeated runs are byte-identical;
the effective seed is recorded in every output header.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Sequence

from . import bounds as bounds_mod
from .cliques import DEFAULT_NODE_CAP, clique_gram_det, max_monochromatic_clique
from .coloring import (
    MAX_PAIRS,
    ConstructionParams,
    EdgeColoring,
    _check_pairs,
    build_field_coloring,
    build_paley,
    build_two_color,
    field_provenance,
)
from .compose import blowup_product
from .errors import CapacityError, FormatError, ParameterError, RamseyLBError, ResourceCapError
from .field import FieldVector, PrimeModulus, _scalar_products, is_prime
# sample_distinct is not called here; perfbench wraps ramseylb.cli.sample_distinct.
from .isotropic import (  # noqa: F401
    DEFAULT_ENUM_CAP,
    _check_enumeration_cap,
    _isotropic_coords,
    enumerate_isotropic,
    sample_distinct,
)
from .moment import (
    CERTIFICATE_MAGIC,
    WitnessSearchFailure,
    certificate_from_text,
    certificate_to_text,
    find_witness,
    reverify_text,
)
from .rng import derive_seed, make_rng

DEFAULT_SEED = 271828


def _write(text: str, out: str | None, summary: str) -> int:
    """Write text to stdout, or to the file out and then the summary and
    the file's name to stdout; 0, the exit status."""
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
        print(f"{summary} out={out}")
    return 0


def _read(path: str) -> str:
    with open(path, encoding="ascii") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path} is not ASCII text") from exc


def _cmd_enumerate(args) -> int:
    _check_enumeration_cap(args.q, args.t, args.cap)
    ground = enumerate_isotropic(PrimeModulus(args.q), args.t, cap=args.cap)
    text = "".join(v.text_form() + "\n" for v in ground.vectors)
    return _write(text, args.out, f"enumerate: q={args.q} t={args.t} count={len(ground)}")


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


def _cmd_construct(args) -> int:
    params, coords = _construct_sample(args.q, args.t, args.n, args.seed, args.cap)
    verts = [FieldVector(params.modulus, c) for c in coords]
    summary = f"construct: seed={args.seed} q={args.q} t={args.t} n={args.n}"
    return _write(build_field_coloring(params, verts).to_text(), args.out, summary)


def _cmd_construct_two_color(args) -> int:
    summary = f"construct-two-color: seed={args.seed} t={args.t} n={args.n}"
    return _write(build_two_color(args.t, args.n, args.seed).to_text(), args.out, summary)


def _cmd_construct_paley(args) -> int:
    return _write(build_paley(args.p).to_text(), args.out, f"construct-paley: p={args.p}")


def _gram_bound(q: int, t: int, color: int) -> int:
    """The clique bound of a deterministic color of a field coloring at
    (q, t) (see max_monochromatic_clique): t - 1 when q is odd and the
    determinant of a t-clique's Gram matrix is a nonzero non-square mod q
    by Euler's criterion; t otherwise."""
    if q > 2:
        d = clique_gram_det(color, t, PrimeModulus(q))
        if d and pow(d, (q - 1) // 2, q) == q - 1:
            return t - 1
    return t


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


def _cmd_verify(args) -> int:
    if args.target < 1:
        raise ParameterError(f"target {args.target} must be positive")
    # Checked here as well as in max_monochromatic_clique, so that a bad cap
    # prints no CSV header.
    if args.cap < 1:
        raise ParameterError(f"node cap {args.cap} must be positive")
    text = _read(args.coloring)
    named = None
    if text.startswith(CERTIFICATE_MAGIC):
        coloring = certificate_from_text(text).coloring
    else:
        coloring = EdgeColoring.from_text(text)
        named = field_provenance(coloring)
    # One search per declared color, each at least a pass over the vertices,
    # so the palette times the vertices is held to the cap on a coloring.
    k, n = coloring.num_colors, coloring.n
    if k * n > MAX_PAIRS:
        raise ResourceCapError(f"{k} colors on {n} vertices exceed the cap of {MAX_PAIRS}")
    # The search of a deterministic color of a construct file stops at its
    # Gram bound, t or t - 1, once the file's colors are checked against
    # the re-sampled vectors; any other file gets the plain search.  A
    # search over n vertices never reaches a bound above n, so the check
    # runs only when t - 1 <= n.
    trusted = named is not None and named[1] - 1 <= n and _products_match(coloring, *named)
    found = False
    if args.csv:
        print("color,size,witness")
    for color in range(1, k + 1):
        upper = _gram_bound(*named[:2], color) if trusted and color < named[0] else None
        w = max_monochromatic_clique(coloring, color, cap=args.cap, upper=upper)
        verts = " ".join(str(v) for v in w.vertices)
        if args.csv:
            print(f"{color},{w.size},{verts}")
        else:
            print(f"color {color}: max clique {w.size}, witness {verts}")
        if w.size >= args.target:
            found = True
    if not args.csv:
        verdict = "found" if found else "none"
        print(f"monochromatic clique of size >= {args.target}: {verdict}")
    return 1 if found else 0


def _cmd_certify(args) -> int:
    result = find_witness(
        args.q,
        args.t,
        args.n,
        args.attempts,
        args.seed,
        jobs=args.jobs,
        node_cap=args.cap,
    )
    if isinstance(result, WitnessSearchFailure):
        print(f"certify: seed={args.seed} no witness within {args.attempts} attempts")
        for f in result.failures[:10]:
            print(f"  attempt {f.attempt}: color {f.color} has a clique of size {f.clique_size}")
        if len(result.failures) > 10:
            print(f"  ... and {len(result.failures) - 10} more attempts")
        return 1
    sizes = " ".join(str(s) for s in result.max_clique_sizes)
    summary = f"certify: seed={args.seed} attempt={result.attempt} max-clique-sizes={sizes}"
    return _write(certificate_to_text(result), args.out, summary)


def _cmd_reverify(args) -> int:
    ok = reverify_text(_read(args.cert))
    print("certificate valid" if ok else "certificate INVALID")
    return 0 if ok else 1


def _cmd_compose(args) -> int:
    product = blowup_product(EdgeColoring.from_text(_read(args.a)), EdgeColoring.from_text(_read(args.b)))
    return _write(product.to_text(), args.out, f"compose: n={product.n} colors={product.num_colors}")


def _cmd_bounds(args) -> int:
    t, colors = args.t, args.colors
    # Checked for every table, also those with no row that reads it; the
    # header echoes the text as given.
    slack = bounds_mod.as_slack(args.slack)
    records = [bounds_mod.baseline_bound(t, colors)]
    if colors >= 3:
        records.append(bounds_mod.new_bound(t, colors, slack))
        if colors >= 5 and is_prime(colors - 1):
            records.append(bounds_mod.field_bound(t, colors - 1, slack))
    value_cap = 10**60
    rows = []
    for rec in records:
        value = str(rec.value) if rec.value <= value_cap else "-"
        rows.append((rec.tag, value, f"{rec.log2_value:.6f}", f"{bounds_mod.growth_rate(rec):.6f}"))
    if args.csv:
        print("tag,value,log2,growth")
        for row in rows:
            print(",".join(row))
    else:
        print(f"# lower bounds at t={t} colors={colors} slack={args.slack}")
        print("# slack 0 omits the lower-order term, so values are conservative")
        for tag, value, log2v, rate in rows:
            print(f"{tag:20s} value={value} log2={log2v} growth={rate}")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramseylb",
        description="Construct, verify and tabulate multicolor Ramsey lower-bound instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, out=False, seed=False, jobs=False, csv=False):
        # Each subcommand registers only the options it reads, so an
        # ignored one is a usage error (exit 2) rather than a silent no-op.
        if out:
            sp.add_argument("--out", type=str, default=None, help="output file (default stdout)")
        if seed:
            sp.add_argument("--seed", type=int, default=DEFAULT_SEED,
                            help=f"PRNG seed (default {DEFAULT_SEED})")
        if jobs:
            sp.add_argument("--jobs", type=int, default=1,
                            help="parallel attempts, at least 1; workers are capped at the cpu count")
        if csv:
            sp.add_argument("--csv", action="store_true", help="machine-readable output")

    sp = sub.add_parser("enumerate", help="list the self-orthogonal vectors of F_q^t")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--cap", type=int, default=DEFAULT_ENUM_CAP, help="enumeration cap")
    common(sp, out=True)
    sp.set_defaults(func=_cmd_enumerate)

    sp = sub.add_parser("construct", help="build the (q+1)-coloring on sampled vectors")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--cap", type=int, default=DEFAULT_ENUM_CAP, help="enumeration cap")
    common(sp, out=True, seed=True)
    sp.set_defaults(func=_cmd_construct)

    sp = sub.add_parser("construct-two-color", help="two-coloring of sampled binary vectors")
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    common(sp, out=True, seed=True)
    sp.set_defaults(func=_cmd_construct_two_color)

    sp = sub.add_parser("construct-paley", help="quadratic-residue two-coloring on F_p")
    sp.add_argument("--p", type=int, required=True)
    common(sp, out=True)
    sp.set_defaults(func=_cmd_construct_paley)

    sp = sub.add_parser("verify", help="exact per-color max clique of a coloring file")
    sp.add_argument("--coloring", type=str, required=True)
    sp.add_argument("--target", type=int, required=True,
                    help="exit 1 when any color reaches a clique of this size")
    sp.add_argument("--cap", type=int, default=DEFAULT_NODE_CAP, help="search node cap")
    common(sp, csv=True)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("certify", help="search for a witness coloring and emit a certificate")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--attempts", type=int, default=200)
    sp.add_argument("--cap", type=int, default=DEFAULT_NODE_CAP, help="search node cap")
    common(sp, out=True, seed=True, jobs=True)
    sp.set_defaults(func=_cmd_certify)

    sp = sub.add_parser("reverify", help="re-check a certificate from its stored fields")
    sp.add_argument("--cert", type=str, required=True)
    sp.set_defaults(func=_cmd_reverify)

    sp = sub.add_parser("compose", help="blow-up product of two coloring files")
    sp.add_argument("--a", type=str, required=True)
    sp.add_argument("--b", type=str, required=True)
    common(sp, out=True)
    sp.set_defaults(func=_cmd_compose)

    sp = sub.add_parser("bounds", help="exact lower-bound table at (t, colors)")
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--colors", type=int, required=True)
    sp.add_argument("--slack", type=str, default="0",
                    help="rational stand-in for the lower-order exponent term")
    common(sp, csv=True)
    sp.set_defaults(func=_cmd_bounds)

    return parser


def dispatch(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand and return its exit status.

    The parser is built on the first call and reused by later ones in
    the same process.  Parsing keeps no state between calls, and usage
    errors go to the sys.stderr current at the call.
    """
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
