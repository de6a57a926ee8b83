"""The argument policy of the README, checked by one sweep.

Every public callable of ramseylb, plus color_class_bitsets, induced and
both from_text parsers, starts from a valid base call.  Each argument in
turn is replaced by each of BAD_VALUES, and the outcome is held to the
rule of that argument's kind:

- INT, SEED and CAP (sizes, counts, colors, moduli, seeds, node caps):
  anything but an exact int raises ParameterError; an int out of range
  raises ParameterError or one of its subclasses, or ResourceCapError
  past a cap, or is answered.
- TEXT (what a parser reads): anything but a str raises FormatError, and
  reverify_text returns False.
- RATIONAL (a probability or a slack): a number out of range raises
  ParameterError, or ResourceCapError past a cap; a non-number may also
  raise TypeError.
- OBJECT (a modulus, ground set, coloring, vector, certificate, random
  generator, label, factor list, or a field of a result record): not
  checked; a wrong class raises what Python raises on it, TypeError,
  AttributeError or ValueError, or a RamseyLBError, or is answered.

No call may run past a timer or exhaust memory.  The whole table runs in
one child process, this file run as a script, under an address-space
limit and a per-call timer, so a runaway fails the test and does not
exhaust the machine.
"""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import ramseylb as r

INT, SEED, CAP, TEXT, RATIONAL, OBJECT = "int", "seed", "cap", "text", "rational", "object"

BAD_VALUES = [2.0, True, "3", None, -1, 0, b"x", Fraction(1, 2), math.nan, math.inf, 10**40, 2**89 - 1, [], ()]

# The child's limits: address space and the timer of one call.
MEMORY_LIMIT = 1 << 30
CALL_SECONDS = 2.0


def _table():
    """(label, callable, [(argument, base value, kind), ...]) per base call;
    each base call is answered in a few milliseconds."""
    m2, m3 = r.PrimeModulus(2), r.PrimeModulus(3)
    ground = r.enumerate_isotropic(m2, 3)
    u, v = ground.vectors[:2]
    paley = r.build_paley(5)
    params = r.ConstructionParams(m2, 3, 1, 2)
    cert = r.find_witness(3, 4, 14, 1, 1)
    assert isinstance(cert, r.WitnessCertificate)
    cert_text = r.certificate_to_text(cert)
    record = r.baseline_bound(4, 3)
    table = [
        ("BoundRecord", r.BoundRecord, [("t", 4, OBJECT), ("colors", 3, OBJECT), ("tag", "x", OBJECT),
                                        ("value", 9, OBJECT), ("log2_value", 3.2, OBJECT)]),
        ("baseline_bound", r.baseline_bound, [("t", 4, INT), ("colors", 3, INT)]),
        ("field_bound", r.field_bound, [("t", 4, INT), ("q", 3, INT), ("slack", 0, RATIONAL)]),
        ("floor_power_product", r.floor_power_product, [("factors", [(2, Fraction(1, 2))], OBJECT)]),
        ("growth_rate", r.growth_rate, [("record", record, OBJECT)]),
        ("integer_root", r.integer_root, [("n", 10, INT), ("k", 2, INT)]),
        ("new_bound", r.new_bound, [("t", 4, INT), ("colors", 3, INT), ("slack", 0, RATIONAL)]),
        ("CliqueWitness", r.CliqueWitness, [("color", 1, OBJECT), ("vertices", (0, 1), OBJECT)]),
        ("PotentialClique", r.PotentialClique, [("vectors", (u,), OBJECT)]),
        ("clique_gram_det", r.clique_gram_det, [("i", 1, INT), ("s", 3, INT), ("modulus", m3, OBJECT)]),
        ("enumerate_potential_cliques", r.enumerate_potential_cliques,
         [("ground", ground, OBJECT), ("t", 2, INT), ("cap", 1000, CAP)]),
        ("max_monochromatic_clique", r.max_monochromatic_clique,
         [("coloring", paley, OBJECT), ("color", 1, INT), ("cap", 1000, CAP)]),
        ("rank_count_bound", r.rank_count_bound, [("q", 3, INT), ("t", 4, INT), ("r", 2, INT)]),
        ("ConstructionParams", r.ConstructionParams,
         [("modulus", m2, OBJECT), ("t", 3, INT), ("seed", 1, SEED), ("n", 2, INT)]),
        ("EdgeColoring", r.EdgeColoring,
         [("n", 2, INT), ("num_colors", 2, INT), ("rows", (b"\x01",), OBJECT), ("provenance", (), OBJECT)]),
        ("build_field_coloring", r.build_field_coloring, [("params", params, OBJECT), ("vertices", [u, v], OBJECT)]),
        ("build_paley", r.build_paley, [("p", 5, INT)]),
        ("build_two_color", r.build_two_color, [("t", 2, INT), ("n", 3, INT), ("seed", 1, SEED)]),
        ("pair_identity", r.pair_identity, [("u", u, OBJECT), ("v", v, OBJECT)]),
        ("blowup_product", r.blowup_product, [("outer", paley, OBJECT), ("inner", paley, OBJECT)]),
        ("FieldVector", r.FieldVector, [("modulus", m3, OBJECT), ("coords", (0, 0), OBJECT)]),
        ("PrimeModulus", r.PrimeModulus, [("q", 3, INT)]),
        ("dot", r.dot, [("u", u, OBJECT), ("v", v, OBJECT)]),
        ("is_isotropic", r.is_isotropic, [("v", u, OBJECT)]),
        ("is_prime", r.is_prime, [("n", 7, INT)]),
        ("rank", r.rank, [("vectors", [u, v], OBJECT)]),
        ("IsotropicSet", r.IsotropicSet, [("modulus", m2, OBJECT), ("dimension", 3, INT),
                                          ("vectors", ground.vectors, OBJECT)]),
        ("bernoulli_subset", r.bernoulli_subset,
         [("ground", ground, OBJECT), ("p", 0.5, RATIONAL), ("rng", r.make_rng(1), OBJECT)]),
        ("enumerate_isotropic", r.enumerate_isotropic, [("modulus", m2, OBJECT), ("t", 3, INT), ("cap", 1000, INT)]),
        ("sample_distinct", r.sample_distinct,
         [("ground", ground, OBJECT), ("n", 2, INT), ("rng", r.make_rng(1), OBJECT)]),
        ("MonteCarloEstimate", r.MonteCarloEstimate, [("mean", 1.0, OBJECT), ("stderr", 0.1, OBJECT),
                                                      ("trials", 2, OBJECT)]),
        ("WitnessCertificate", r.WitnessCertificate,
         [(name, getattr(cert, name), OBJECT) for name in r.WitnessCertificate.__dataclass_fields__]),
        ("WitnessSearchFailure", r.WitnessSearchFailure, [("q", 3, OBJECT), ("t", 4, OBJECT), ("n", 14, OBJECT),
                                                          ("seed", 1, OBJECT), ("failures", (), OBJECT)]),
        ("certificate_from_text", r.certificate_from_text, [("text", cert_text, TEXT)]),
        ("certificate_to_text", r.certificate_to_text, [("cert", cert, OBJECT)]),
        ("exact_mono_expectation", r.exact_mono_expectation,
         [("q", 2, INT), ("t", 2, INT), ("p", Fraction(1, 2), RATIONAL)]),
        ("find_witness", r.find_witness,
         [("q", 3, INT), ("t", 4, INT), ("n", 14, INT), ("max_attempts", 1, INT), ("seed", 1, SEED),
          ("jobs", 1, INT), ("node_cap", 10**4, CAP)]),
        ("monte_carlo_mono_count", r.monte_carlo_mono_count,
         [("q", 2, INT), ("t", 2, INT), ("n_trials", 2, INT), ("p", 0.5, RATIONAL), ("seed", 1, SEED)]),
        ("recommended_n", r.recommended_n, [("q", 3, INT), ("t", 4, INT), ("slack", 0, RATIONAL)]),
        ("reverify", r.reverify, [("cert", cert, OBJECT)]),
        ("reverify_text", r.reverify_text, [("text", cert_text, TEXT)]),
        ("derive_seed", r.derive_seed, [("seed", 1, SEED), ("label", "x", OBJECT)]),
        ("make_rng", r.make_rng, [("seed", 1, SEED)]),
        ("pair_coin", r.pair_coin, [("seed", 1, SEED), ("identity", "a|b", OBJECT)]),
        ("color_class_bitsets", paley.color_class_bitsets, [("color", 1, INT)]),
        ("induced", paley.induced, [("indices", [0, 2], OBJECT)]),
        ("EdgeColoring.from_text", r.EdgeColoring.from_text, [("text", paley.to_text(), TEXT)]),
        ("FieldVector.from_text", r.FieldVector.from_text, [("line", u.text_form(), TEXT), ("modulus", m2, OBJECT)]),
    ]
    errors = [r.RamseyLBError, r.ParameterError, r.DimensionError, r.CapacityError, r.FormatError, r.ResourceCapError]
    table += [(e.__name__, e, [("message", "x", OBJECT)]) for e in errors]
    return table


class _Expired(BaseException):
    """The call's timer fired; a BaseException, so no except clause of
    the package catches it."""


def _sweep() -> None:
    """Run every case under the limits and print one JSON line each."""
    import resource
    import signal

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, resource.getrlimit(resource.RLIMIT_AS)[1]))

    def expire(signum, frame):
        raise _Expired

    signal.signal(signal.SIGALRM, expire)
    for label, call, spec in _table():
        base = [value for _, value, _ in spec]
        for pos, (name, _, kind) in enumerate(spec):
            for k, bad in enumerate(BAD_VALUES):
                args = base[:pos] + [bad] + base[pos + 1 :]
                outcome = {"case": label, "arg": name, "kind": kind, "value": k}
                signal.setitimer(signal.ITIMER_REAL, CALL_SECONDS)
                try:
                    outcome["false"] = call(*args) is False
                    outcome["raised"] = None
                except _Expired:
                    outcome["raised"] = ["timeout"]
                except Exception as exc:
                    outcome["raised"] = [c.__name__ for c in type(exc).__mro__]
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                print(json.dumps(outcome), flush=True)


def _verdict(outcome: dict) -> str | None:
    """Why an outcome breaks its kind's rule, or None when it keeps it."""
    bad = BAD_VALUES[outcome["value"]]
    raised, kind = outcome["raised"], outcome["kind"]
    is_int = type(bad) is int
    is_number = isinstance(bad, (int, float, Fraction))
    if raised is None:
        if kind in (INT, SEED, CAP) and not is_int:
            return "answered"
        # reverify_text answers False for what the parser refuses.
        refused = outcome["case"] == "reverify_text" and outcome["false"]
        if kind == TEXT and not isinstance(bad, str) and not refused:
            return "answered"
        return None
    if kind in (INT, SEED, CAP):
        allowed = {"ParameterError", "ResourceCapError"} if is_int else {"ParameterError"}
    elif kind == TEXT:
        allowed = {"RamseyLBError"} if isinstance(bad, str) else {"FormatError"}
    elif kind == RATIONAL:
        allowed = {"ParameterError", "ResourceCapError"} if is_number else {"RamseyLBError", "TypeError"}
    else:
        allowed = {"RamseyLBError", "TypeError", "AttributeError", "ValueError"}
    if allowed.isdisjoint(raised):
        return f"raised {raised[0]}"
    return None


def test_every_argument_kind_keeps_its_rule():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr[-2000:]
    outcomes = [json.loads(line) for line in child.stdout.splitlines()]
    covered = {o["case"] for o in outcomes}
    exported = {name for name, value in vars(r).items() if not name.startswith("_") and callable(value)}
    assert exported <= covered, sorted(exported - covered)
    faults = []
    for o in outcomes:
        why = _verdict(o)
        if why:
            faults.append(f"{o['case']}({o['arg']}={BAD_VALUES[o['value']]!r}): {why}")
    assert not faults, "\n".join(faults)


if __name__ == "__main__":
    _sweep()
