import argparse
import contextlib
import hashlib
import io
import itertools
import operator
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramseylb import bounds as bounds_mod, cli, field
from ramseylb.cli import DEFAULT_SEED, dispatch
from ramseylb.cliques import max_monochromatic_clique
from ramseylb.coloring import (
    ConstructionParams,
    EdgeColoring,
    _check_pairs,
    build_field_coloring,
    build_paley,
    field_provenance,
)
from ramseylb.compose import blowup_product
from ramseylb.errors import RamseyLBError, ResourceCapError
from ramseylb.field import FieldVector, PrimeModulus, dot
from ramseylb.isotropic import _check_enumeration_cap, _isotropic_count, enumerate_isotropic, sample_distinct
from ramseylb.moment import certificate_from_text, certificate_to_text, find_witness
from ramseylb.rng import derive_seed, make_rng


def run(*argv):
    return dispatch(list(argv))


def test_enumerate_writes_vector_text(tmp_path, capsys):
    out = tmp_path / "v.txt"
    assert run("enumerate", "--q", "2", "--t", "3", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines == ["2 3 0 0 0", "2 3 0 1 1", "2 3 1 0 1", "2 3 1 1 0"]
    assert "count=4" in capsys.readouterr().out


def test_enumerate_stdout_when_no_out(capsys):
    assert run("enumerate", "--q", "2", "--t", "1") == 0
    assert capsys.readouterr().out == "2 1 0\n"


def test_construct_produces_valid_coloring(tmp_path, capsys):
    out = tmp_path / "c.txt"
    assert run("construct", "--q", "3", "--t", "4", "--n", "12", "--out", str(out)) == 0
    col = EdgeColoring.from_text(out.read_text())
    assert col.n == 12 and col.num_colors == 4
    assert f"seed={DEFAULT_SEED}" in capsys.readouterr().out


def test_verify_exit_codes(tmp_path, capsys):
    out = tmp_path / "p5.txt"
    assert run("construct-paley", "--p", "5", "--out", str(out)) == 0
    # any edge is a monochromatic K_2, so target 2 must fail
    assert run("verify", "--coloring", str(out), "--target", "2") == 1
    assert run("verify", "--coloring", str(out), "--target", "3") == 0
    text = capsys.readouterr().out
    assert "color 1: max clique 2" in text


def test_verify_csv_output(tmp_path, capsys):
    out = tmp_path / "p5.txt"
    run("construct-paley", "--p", "5", "--out", str(out))
    capsys.readouterr()
    assert run("verify", "--coloring", str(out), "--target", "3", "--csv") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "color,size,witness"
    assert len(lines) == 3


def test_certify_reverify_roundtrip(tmp_path, capsys):
    cert_path = tmp_path / "w.cert"
    status = run(
        "certify", "--q", "3", "--t", "4", "--n", "14",
        "--attempts", "60", "--out", str(cert_path),
    )
    assert status == 0
    cert = certificate_from_text(cert_path.read_text())
    assert cert.n == 14
    assert run("reverify", "--cert", str(cert_path)) == 0
    # verify accepts certificate files directly and the round trip stays clean
    assert run("verify", "--coloring", str(cert_path), "--target", "4") == 0
    # flip one byte in the coloring block
    text = cert_path.read_text()
    pos = text.rindex("\n") - 1
    bad = text[:pos] + ("1" if text[pos] != "1" else "2") + text[pos + 1 :]
    bad_path = tmp_path / "bad.cert"
    bad_path.write_text(bad)
    assert run("reverify", "--cert", str(bad_path)) == 1


def test_certify_failure_exit_code(tmp_path, capsys):
    status = run(
        "certify", "--q", "3", "--t", "4", "--n", "33",
        "--attempts", "3", "--out", str(tmp_path / "w.cert"),
    )
    assert status == 1
    out = capsys.readouterr().out
    assert "no witness" in out
    # ten failed attempts are listed, and the rest counted
    assert run("certify", "--q", "3", "--t", "4", "--n", "33", "--attempts", "12") == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"certify: seed={DEFAULT_SEED} no witness within 12 attempts"
    assert [line.split(":")[0] for line in lines[1:11]] == [f"  attempt {k}" for k in range(1, 11)]
    assert lines[11:] == ["  ... and 2 more attempts"]


def test_compose_matches_library(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    out = tmp_path / "ab.txt"
    run("construct-paley", "--p", "5", "--out", str(a))
    run("construct-paley", "--p", "5", "--out", str(b))
    assert run("compose", "--a", str(a), "--b", str(b), "--out", str(out)) == 0
    c5 = build_paley(5)
    assert EdgeColoring.from_text(out.read_text()) == blowup_product(c5, c5)


def test_bounds_table_output(capsys):
    assert run("bounds", "--t", "8", "--colors", "4") == 0
    out = capsys.readouterr().out
    assert "lefmann-composite" in out and "field-direct" in out
    assert "value=432" in out
    assert "conservative" in out


def test_bounds_past_the_power_cap_exits_3_at_once(monkeypatch, capsys):
    # The baseline power grows with the colors: refused before it is formed,
    # and so before colors - 1 = 10^16 + 61 is tested for primality.
    tested = []
    monkeypatch.setattr(bounds_mod, "is_prime", tested.append)
    monkeypatch.setattr(cli, "is_prime", tested.append)
    # A 100,000-bit power first, which without the cap is formed at once.
    for t, colors in ((200000, 2), (4, 10**16 + 62)):
        start = time.perf_counter()
        assert run("bounds", "--t", str(t), "--colors", str(colors)) == 3
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err.startswith("error: bound needs a ")
    assert tested == []


def test_bounds_past_the_float_range_of_the_growth_rate_exits_3(capsys):
    # 4,000 colors at t = 1: a 1,057-bit bound, whose per-t growth rate no float holds
    assert run("bounds", "--t", "1", "--colors", "4000") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: growth rate 2^1056.585025 exceeds the float range\n"
    assert run("bounds", "--t", "1", "--colors", "2000") == 0
    assert "growth=" in capsys.readouterr().out


def test_bounds_csv(capsys):
    assert run("bounds", "--t", "8", "--colors", "3", "--csv") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "tag,value,log2,growth"
    assert any(row.startswith("classical-3color,81,") for row in lines)
    assert any(row.startswith("field-direct,128,") for row in lines)


def test_parameter_error_exit_code(capsys):
    for argv in [
        ("construct-paley", "--p", "7"),
        ("bounds", "--t", "4", "--colors", "3", "--slack", "abc"),
        ("bounds", "--t", "4", "--colors", "3", "--slack", "1/0"),
        # checked even where no row of the table reads it
        ("bounds", "--t", "4", "--colors", "2", "--slack", "abc"),
        ("bounds", "--t", "4", "--colors", "2", "--slack", "1/0", "--csv"),
        ("certify", "--q", "3", "--t", "4", "--n", "14", "--jobs", "0"),
        ("certify", "--q", "3", "--t", "4", "--n", "14", "--jobs", "-3"),
    ]:
        assert run(*argv) == 2, argv
        assert "error:" in capsys.readouterr().err


def test_resource_cap_exit_code(capsys):
    assert run("enumerate", "--q", "2", "--t", "30", "--cap", "1000") == 3
    assert capsys.readouterr().err == "error: q^t = 2^30 exceeds enumeration cap 1000\n"
    # q^t has more digits than an int converts to text, and is not computed
    for t in (10**4, 10**6):
        assert run("enumerate", "--q", "3", "--t", str(t)) == 3, t
        assert capsys.readouterr().err.startswith(f"error: q^t = 3^{t} exceeds")


def test_unread_options_are_rejected(tmp_path, capsys):
    out = tmp_path / "f"
    assert run("bounds", "--t", "16", "--colors", "4", "--out", str(out)) == 2
    assert not out.exists()
    # every other subcommand/option pair that the command would ignore
    for argv in [
        ("verify", "--coloring", "c.txt", "--target", "3", "--out", str(out)),
        ("reverify", "--cert", "w.cert", "--out", str(out)),
        ("construct-two-color", "--t", "3", "--n", "10", "--cap", "5"),
        ("construct-paley", "--p", "5", "--cap", "5"),
        ("reverify", "--cert", "w.cert", "--cap", "5"),
        ("compose", "--a", "a.txt", "--b", "b.txt", "--cap", "5"),
        ("bounds", "--t", "16", "--colors", "4", "--cap", "5"),
    ]:
        assert run(*argv) == 2, argv
    assert not out.exists()
    assert capsys.readouterr().out == ""


def test_missing_file_exit_code(capsys):
    assert run("verify", "--coloring", "/nonexistent/file", "--target", "3") == 2


def test_non_canonical_integers_exit_2(tmp_path, capsys):
    good = build_paley(5).to_text()
    cert = certificate_to_text(find_witness(3, 4, 14, 60, seed=1))
    row = cert.split("coloring:\n")[1].splitlines()[3]
    bads = (
        good.replace("n=5", "n=05"),
        good.replace("1 2 2 1", "+1 02 2 1"),
        good.replace("n=5", "n=" + "5" * 5000),  # more digits than int() reads
        # a certificate's coloring block is held to the one spelling certify writes
        cert.replace("\n" + row + "\n", "\n" + row.replace(" ", "  ", 1) + "\n"),
        # q = 3 needs four colors, even where the header, sizes and block agree on five
        re.sub(r"(max-clique-sizes=.*)\n", r"\1 1\n", cert.replace("colors=4\n", "colors=5\n")),
    )
    for k, bad in enumerate(bads):
        path = tmp_path / f"bad{k}.txt"
        path.write_text(bad)
        for argv in (["verify", "--coloring", str(path), "--target", "3"],
                     ["compose", "--a", str(path), "--b", str(path)]):
            capsys.readouterr()
            assert run(*argv) == 2
            assert capsys.readouterr().out == ""


def test_verify_of_a_certificate_parses_its_coloring_block_once(tmp_path, monkeypatch, capsys):
    path = tmp_path / "w.cert"
    path.write_text(certificate_to_text(find_witness(3, 4, 14, 60, seed=1)))
    parsed = []
    real = EdgeColoring.from_text
    monkeypatch.setattr(EdgeColoring, "from_text", staticmethod(lambda text: parsed.append(text) or real(text)))
    assert run("verify", "--coloring", str(path), "--target", "4") == 0
    assert len(parsed) == 1


def test_an_enumeration_over_the_cap_exits_3_before_the_primality_test(monkeypatch, capsys):
    # q^t over the cap needs no primality test, which takes seconds at q = 10^16 + 61
    tested = []
    monkeypatch.setattr(field, "is_prime", tested.append)
    big = str(10**16 + 61)
    for argv in [("enumerate", "--q", big, "--t", "1"),
                 ("construct", "--q", big, "--t", "1", "--n", "2"),
                 ("certify", "--q", big, "--t", "1", "--n", "2"),
                 # a composite q over the cap exits 3 as well
                 ("enumerate", "--q", "4", "--t", "10")]:
        assert run(*argv) == 3, argv
        assert capsys.readouterr().err.startswith("error: q^t = "), argv
    assert tested == []


def test_non_ascii_file_exit_code(tmp_path, capsys):
    # a byte >= 0x80 on a provenance line makes the file malformed text:
    # exit 2 with one error line and no traceback, as for a missing file
    def with_note(name, text, note):
        head = re.search(r"n=\d+ colors=\d+\n", text).end()
        path = tmp_path / name
        path.write_bytes((text[:head] + f"# {note}\n" + text[head:]).encode("utf-8"))
        return str(path)

    col_text = build_paley(5).to_text()
    cert_text = certificate_to_text(find_witness(3, 4, 14, 60, seed=1))
    for note, status in (("cafe", 0), ("caf\u00e9", 2)):
        col = with_note("c.txt", col_text, note)
        cert = with_note("w.cert", cert_text, note)
        assert run("verify", "--coloring", col, "--target", "3") == status
        assert run("verify", "--coloring", cert, "--target", "4") == status
        assert run("compose", "--a", col, "--b", col, "--out", str(tmp_path / "p.txt")) == status
    assert run("reverify", "--cert", cert) == 2
    err = capsys.readouterr().err
    assert err.count("is not ASCII text") == 4 and "Traceback" not in err


def test_unknown_command_exit_code(capsys):
    assert run("frobnicate") == 2


def test_two_color_past_the_vector_length_cap_exits_3_at_once(capsys):
    for t in ("99999999999999999999", "129"):
        start = time.perf_counter()
        assert run("construct-two-color", "--t", t, "--n", "4") == 3
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err.endswith("exceeds the cap 256\n")


def test_colorings_past_the_pair_cap_exit_3_at_once(tmp_path, capsys):
    """Checked before anything is built or enumerated, and for Paley
    before p's primality test, which takes seconds at 10^16 + 61: Paley
    100049 (5 * 10^9 pairs), a construction of 2 * 10^10 pairs, a
    two-color one of 1.25 * 10^7, a witness search whose attempts color
    6,000 of the 2^18 vectors of (2,19), counted and not enumerated, and
    the product of two Paley-89 files (7,921 vertices)."""
    paley = tmp_path / "p89.txt"
    assert run("construct-paley", "--p", "89", "--out", str(paley)) == 0
    capsys.readouterr()
    for argv, n in [(("construct-paley", "--p", "100049"), 100049),
                    (("construct-paley", "--p", "10000000000000061"), 10000000000000061),
                    (("construct", "--q", "2", "--t", "19", "--n", "200000"), 200000),
                    (("construct-two-color", "--t", "8", "--n", "5000"), 5000),
                    (("certify", "--q", "2", "--t", "19", "--n", "3000", "--attempts", "1"), 6000),
                    (("compose", "--a", str(paley), "--b", str(paley)), 7921)]:
        start = time.perf_counter()
        assert run(*argv) == 3
        assert time.perf_counter() - start < 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: a coloring of {n} vertices exceeds the cap of 10000000 pairs\n"


def test_verify_of_a_palette_past_the_cap_exits_3_before_any_output(tmp_path, monkeypatch, capsys):
    """verify searches each declared color, so colors times vertices is
    held to the pair cap before the CSV header; a 45-byte file declaring
    10^12 colors used to print a line per color for as long as it ran."""
    def no_search(*args, **kwargs):
        raise AssertionError("searched a color of a palette past the cap")

    monkeypatch.setattr(cli, "max_monochromatic_clique", no_search)
    wide = tmp_path / "wide.txt"
    wide.write_text("ramsey-coloring 1\nn=2 colors=1000000000000\n1\n")
    assert len(wide.read_bytes()) == 45
    over = tmp_path / "over.txt"
    over.write_text("ramsey-coloring 1\nn=2 colors=5000001\n1\n")
    for path, k in ((wide, 10**12), (over, 5000001)):
        for extra in ((), ("--csv",)):
            start = time.perf_counter()
            assert run("verify", "--coloring", str(path), "--target", "3", *extra) == 3
            assert time.perf_counter() - start < 1
            assert capsys.readouterr() == (
                "", f"error: {k} colors on 2 vertices exceed the cap of 10000000\n"
            )
    # at the cap, the first color is searched
    at = tmp_path / "at.txt"
    at.write_text("ramsey-coloring 1\nn=2 colors=5000000\n1\n")
    with pytest.raises(AssertionError, match="searched a color"):
        run("verify", "--coloring", str(at), "--target", "3")


def test_two_color_subcommand(tmp_path):
    out = tmp_path / "tc.txt"
    assert run("construct-two-color", "--t", "3", "--n", "10", "--out", str(out)) == 0
    col = EdgeColoring.from_text(out.read_text())
    assert col.n == 10 and col.num_colors == 2


def test_seed_outside_64_bits_exit_code(tmp_path):
    out = tmp_path / "c.txt"
    assert run("construct", "--q", "3", "--t", "4", "--n", "12", "--seed", "-1", "--out", str(out)) == 2
    assert run("construct", "--q", "3", "--t", "4", "--n", "12", "--seed", str(2**64)) == 2
    assert not out.exists()


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    assert run("bounds", "--t", "8", "--colors", "3") == 0
    first = len(built)
    assert first > 0
    assert run("enumerate", "--q", "2", "--t", "1") == 0
    assert run("frobnicate") == 2
    assert run("construct-paley", "--p", "5") == 0
    assert run("bounds", "--t", "8", "--colors", "4", "--csv") == 0
    assert len(built) == first


def test_results_do_not_depend_on_command_order(tmp_path, capsys):
    cert = tmp_path / "w.cert"
    cert.write_text(certificate_to_text(find_witness(3, 4, 14, 60, DEFAULT_SEED)))
    new_cert = tmp_path / "new.cert"
    commands = [
        ("certify", "--q", "3", "--t", "x", "--n", "14"),
        ("certify", "--q", "3", "--t", "4", "--n", "14", "--out", str(new_cert)),
        ("reverify", "--cert", str(cert)),
        ("bounds", "--t", "8", "--colors", "4"),
    ]

    def session(order):
        # each session starts from a fresh parser, built by its first command
        cli._parser.cache_clear()
        results = {}
        for argv in order:
            rc = run(*argv)
            captured = capsys.readouterr()
            results[argv] = (rc, captured.out, captured.err)
        return results, new_cert.read_text()

    forward = session(commands)
    assert forward == session(commands[::-1])
    results = forward[0]
    assert results[commands[0]][0] == 2
    assert "invalid int value: 'x'" in results[commands[0]][2]
    assert [results[argv][0] for argv in commands[1:]] == [0, 0, 0]


def test_usage_errors_go_to_the_current_stderr(capsys):
    assert run("bounds", "--t", "8", "--colors", "3") == 0
    capsys.readouterr()
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stderr(buf):
            assert run("frobnicate") == 2
        assert "invalid choice: 'frobnicate'" in buf.getvalue()
    assert capsys.readouterr().err == ""


def verify_by_plain_search(col, target):
    """verify's rc and stdout when no color search stops early."""
    lines = []
    found = False
    for c in range(1, col.num_colors + 1):
        w = max_monochromatic_clique(col, c)
        lines.append(f"color {c}: max clique {w.size}, witness {' '.join(map(str, w.vertices))}")
        found |= w.size >= target
    lines.append(f"monochromatic clique of size >= {target}: {'found' if found else 'none'}")
    return 1 if found else 0, "\n".join(lines) + "\n"


def construct_file(tmp_path, q, t, n, seed):
    out = tmp_path / f"c-{q}-{t}-{n}-{seed}.txt"
    assert run("construct", "--q", str(q), "--t", str(t), "--n", str(n), "--seed", str(seed),
               "--out", str(out)) == 0
    return EdgeColoring.from_text(out.read_text())


def assert_verify_is_plain_search(path, col, capsys):
    capsys.readouterr()
    for target in (3, 5):
        rc = run("verify", "--coloring", str(path), "--target", str(target))
        assert (rc, capsys.readouterr().out) == verify_by_plain_search(col, target)


def test_verify_checks_the_gram_bound_once_per_run(tmp_path, monkeypatch, capsys):
    calls = []
    real = cli._products_match

    def spy(coloring, *run_args):
        calls.append(run_args)
        return real(coloring, *run_args)

    monkeypatch.setattr(cli, "_products_match", spy)
    # Colors 1 and 2 of (3,4,33) reach t = 4; colors 1-4 of (5,4,145) reach
    # t - 1 = 3, as 1 * 3 * (-1)^3 = 2 is not a square mod 5.  Colors 1 and
    # 2 of (3,4,8) stop at 2, below their bound 4, and are checked all the
    # same: trust is decided once per file, before the first search.
    # assert_verify_is_plain_search runs verify twice.
    for args in [(3, 4, 33, 1), (2, 7, 60, 1), (5, 4, 145, 1), (3, 4, 8, 1)]:
        col = construct_file(tmp_path, *args)
        calls.clear()
        assert_verify_is_plain_search(tmp_path / "c-{}-{}-{}-{}.txt".format(*args), col, capsys)
        assert calls == [args] * 2
    assert [max_monochromatic_clique(col, c).size for c in (1, 2)] == [2, 2]


def test_verify_checks_trust_only_where_a_search_can_reach_a_gram_bound(tmp_path, monkeypatch, capsys):
    """Every Gram bound is t - 1 or t, and a search over n vertices cannot
    reach a bound above n, so no products are checked when n < t - 1.
    At (2,19,2) that check alone listed 2^18 tuples."""
    calls = []
    monkeypatch.setattr(cli, "_products_match", lambda coloring, *args: calls.append(args) or False)
    four = tmp_path / "four.txt"
    four.write_text("ramsey-coloring 1\nn=2 colors=3\n# field-coloring q=2 t=19 n=2 seed=1\n1\n")
    capsys.readouterr()
    assert run("verify", "--coloring", str(four), "--target", "2") == 1
    assert capsys.readouterr().out == (
        "color 1: max clique 2, witness 0 1\ncolor 2: max clique 1, witness 1\n"
        "color 3: max clique 1, witness 1\nmonochromatic clique of size >= 2: found\n"
    )
    assert calls == []
    for n, checks in ((2, []), (3, [(3, 4, 3, 1)])):
        construct_file(tmp_path, 3, 4, n, 1)
        calls.clear()
        run("verify", "--coloring", str(tmp_path / f"c-3-4-{n}-1.txt"), "--target", "3")
        assert calls == checks


def edge_color(col, i, j):
    a, b = min(i, j), max(i, j)
    return col.rows[a][b - a - 1]


def rewrite(col, rows=None, num_colors=None, provenance=None):
    return EdgeColoring(
        col.n,
        col.num_colors if num_colors is None else num_colors,
        col.rows if rows is None else tuple(tuple(r) for r in rows),
        col.provenance if provenance is None else provenance,
    )


def test_verify_falls_back_to_plain_search_when_the_bound_is_not_trusted(tmp_path, capsys):
    col = construct_file(tmp_path, 3, 4, 33, 1)
    k4 = max_monochromatic_clique(col, 1).vertices
    assert len(k4) == 4
    x = next(v for v in range(col.n) if v not in k4)
    grown = [list(r) for r in col.rows]
    for v in k4:
        a, b = min(v, x), max(v, x)
        grown[a][b - a - 1] = 1
    one_edge = [list(r) for r in col.rows]
    one_edge[0][one_edge[0].index(3)] = 1
    swapped = [list(r) for r in col.rows]
    swapped[0][swapped[0].index(1)] = 2
    small = construct_file(tmp_path, 3, 4, 8, 2)
    # At (5,4,145) every deterministic color stops at t - 1 = 3.  A vertex
    # joined in color 1 to two vertices of a color-1 triangle, and in a
    # deterministic color to the third, gets that edge recolored 1: color
    # 1 then has a K_4, which stopping at 3 would miss.
    c5 = construct_file(tmp_path, 5, 4, 145, 1)
    tri = max_monochromatic_clique(c5, 1).vertices
    assert len(tri) == 3
    x, z = next(
        (x, z) for x in range(c5.n) if x not in tri
        for z in tri
        if edge_color(c5, x, z) in (2, 3, 4) and all(edge_color(c5, x, v) == 1 for v in tri if v != z)
    )
    sharpened = [list(r) for r in c5.rows]
    sharpened[min(x, z)][abs(x - z) - 1] = 1
    cases = {
        # color 1 gains a K_5, which stopping at t = 4 would miss
        "grown": rewrite(col, rows=grown),
        "one-edge": rewrite(col, rows=one_edge),
        "swapped": rewrite(col, rows=swapped),
        "non-prime": rewrite(col, num_colors=5, provenance=("field-coloring q=4 t=4 n=33 seed=1",)),
        "t-zero-mod-q": rewrite(col, provenance=("field-coloring q=3 t=3 n=33 seed=1",)),
        # samples 8 of the 9 vectors of (3, 3); color 2 has a K_4 above t = 3
        "t-zero-mod-q-sampled": rewrite(small, provenance=("field-coloring q=3 t=3 n=8 seed=2",)),
        "more-colors": rewrite(col, num_colors=6),
        # a seed of more digits than int() reads names no construct run
        "huge-seed": rewrite(col, provenance=("field-coloring q=3 t=4 n=33 seed=" + "1" * 5000,)),
        "induced": col.induced(range(20)),
        "permuted": col.induced(range(32, -1, -1)),
        "composed": blowup_product(build_paley(5), col),
        "sharpened-one-edge": rewrite(c5, rows=sharpened),
    }
    assert verify_by_plain_search(cases["grown"], 9)[1].startswith("color 1: max clique 5")
    assert verify_by_plain_search(cases["sharpened-one-edge"], 9)[1].startswith("color 1: max clique 4")
    assert "color 2: max clique 4" in verify_by_plain_search(cases["t-zero-mod-q-sampled"], 9)[1]
    assert cli._products_match(col, *field_provenance(col))
    # Only colors below q are checked against the products: a coin color
    # on an edge of nonzero product leaves t a bound on colors 1 and 2.
    coin = [list(r) for r in col.rows]
    coin[0][coin[0].index(1)] = 3
    assert cli._products_match(rewrite(col, rows=coin), *field_provenance(col))
    for name, edited in cases.items():
        # Either the file names no construct run, or the check rejects it.
        named = field_provenance(edited)
        assert named is None or not cli._products_match(edited, *named), name
        path = tmp_path / f"{name}.txt"
        path.write_text(edited.to_text())
        assert_verify_is_plain_search(path, edited, capsys)


def reference_sample(q, t, n, seed):
    """construct's parameters and vertices as sample_distinct draws them
    from the enumerated ground set, under construct's checks in its order."""
    _check_pairs(n)
    _check_enumeration_cap(q, t, cli.DEFAULT_ENUM_CAP)
    modulus = PrimeModulus(q)
    ground = enumerate_isotropic(modulus, t, cap=cli.DEFAULT_ENUM_CAP)
    verts = sample_distinct(ground, n, make_rng(derive_seed(seed, "construct-sample")))
    return ConstructionParams(modulus, t, seed, n), verts


def per_pair_products_match(coloring, q, t, n, seed):
    """The trust check's rule read pair by pair: a color c below q is the
    product of its edge's two sampled vectors."""
    _, verts = reference_sample(q, t, n, seed)
    return all(
        c >= q or c == dot(verts[i], verts[j])
        for i, row in enumerate(coloring.rows)
        for j, c in enumerate(row, i + 1)
    )


def test_trust_check_agrees_with_the_per_pair_rule():
    # A product is one byte at (3,4), (5,4), (2,9) and (7,3), and wider at
    # (11,3) and (17,2), where the check compares pairs.
    rng = random.Random(21)
    for q, t, n in ((3, 4, 20), (5, 4, 30), (2, 9, 40), (7, 3, 25), (11, 3, 30), (17, 2, 25)):
        for seed in (1, 2):
            params, verts = reference_sample(q, t, n, seed)
            col = build_field_coloring(params, verts)
            named = field_provenance(col)
            assert cli._products_match(col, *named) and per_pair_products_match(col, *named)
            pairs = [(i, j) for i in range(n - 1) for j in range(i + 1, n)]
            for _ in range(20):
                rows = [list(r) for r in col.rows]
                # one pair recolored: a color below q that is not its product
                # is rejected; a coin color anywhere is accepted
                i, j = rng.choice(pairs)
                rows[i][j - i - 1] = rng.randint(1, q + 1)
                if rng.random() < 0.5:  # and sometimes a second, anywhere
                    i, j = rng.choice(pairs)
                    rows[i][j - i - 1] = rng.randint(1, q + 1)
                edited = rewrite(col, rows=rows)
                assert cli._products_match(edited, *named) == per_pair_products_match(edited, *named)
            # a deterministic color off its product, on the last pair that can take one
            i, j = next((i, j) for i, j in reversed(pairs) if q > 2 or dot(verts[i], verts[j]) == 0)
            rows = [list(r) for r in col.rows]
            rows[i][j - i - 1] = 2 if dot(verts[i], verts[j]) == 1 else 1
            edited = rewrite(col, rows=rows)
            assert not cli._products_match(edited, *named)
            assert not per_pair_products_match(edited, *named)


def reference_products_match(coloring, q, t, n, seed):
    """The trust check on reference_sample's draw: the per-pair rule, and
    no wherever the sampling raises."""
    try:
        reference_sample(q, t, n, seed)
    except RamseyLBError:
        return False
    return per_pair_products_match(coloring, q, t, n, seed)


def sample_outcome(sample, q, t, n, seed):
    """A draw's parameters and vertices, or its error's type and message."""
    try:
        return sample(q, t, n, seed)
    except RamseyLBError as exc:
        return type(exc), str(exc)


def positional_coloring(q, t, n, seed):
    """A coloring that agrees with the products of the n coordinate tuples
    the trust check draws for (q, t, n, seed), drawn with none of
    construct's checks, so also where construct refuses; a zero product
    gets color q + 1."""
    ground = [c for c in itertools.product(range(q), repeat=t) if sum(x * x for x in c) % q == 0]
    picks = [ground[k] for k in make_rng(derive_seed(seed, "construct-sample")).sample(range(len(ground)), n)]
    rows = tuple(tuple(sum(map(operator.mul, picks[i], picks[j])) % q or q + 1 for j in range(i + 1, n))
                 for i in range(n - 1))
    return EdgeColoring(n, q + 1, rows)


def test_trust_check_by_position_agrees_with_the_enumerated_sample():
    rng = random.Random(24)
    # (q, t, n, seed): n = |V| at (3,3), (2,4), (5,2) and (3,4); n = |V| + 1
    # at (3,3) and (7,2); 2^20 vectors exceed the enumeration cap; q = 4, 6
    # and 9 are composite; t = 0 mod q; n = 1; a seed past 64 bits.  Where
    # construct refuses, the coloring agrees with the products of the
    # tuples drawn without its checks, or, where none can be drawn, has
    # only the coin color q + 1; either way only the refusal answers no.
    cases = [(3, 3, 9, 1), (2, 4, 8, 2), (5, 2, 9, 3), (3, 4, 33, 4), (3, 3, 10, 5), (7, 2, 2, 6),
             (2, 20, 6, 7), (4, 3, 8, 8), (6, 2, 2, 9), (9, 2, 9, 10), (3, 6, 20, 11),
             (3, 4, 1, 12), (3, 4, 12, 2**64)]
    drawable = {(4, 3, 8, 8), (6, 2, 2, 9), (9, 2, 9, 10), (3, 6, 20, 11), (3, 4, 1, 12)}
    for _ in range(60):
        q = rng.choice([2, 3, 5, 7, 11, 13, 4, 9])
        t = rng.randint(1, 4 if q < 11 else 3)
        size = _isotropic_count(q, t) if q in (2, 3, 5, 7, 11, 13) else q**t
        cases.append((q, t, rng.randint(1, min(size + 2, 40)), rng.randrange(2**64)))

    def construct_sample(q, t, n, seed):
        params, coords = cli._construct_sample(q, t, n, seed, cli.DEFAULT_ENUM_CAP)
        return params, [FieldVector(params.modulus, c) for c in coords]

    # construct's draw is sample_distinct's over the enumerated ground set,
    # and its refusals are the same, in the same order; n = -1 and 0 too
    for q, t, n, seed in cases + [(3, 4, -1, 1), (3, 4, 0, 1), (4, 3, -1, 1)]:
        want = sample_outcome(reference_sample, q, t, n, seed)
        assert sample_outcome(construct_sample, q, t, n, seed) == want, (q, t, n, seed)
    raised = matched = 0
    for q, t, n, seed in cases:
        try:
            params, verts = construct_sample(q, t, n, seed)
        except RamseyLBError:
            raised += 1
            col = positional_coloring(q, t, n, seed) if (q, t, n, seed) in drawable else \
                EdgeColoring(n, q + 1, tuple((q + 1,) * (n - 1 - i) for i in range(n - 1)))
            assert not reference_products_match(col, q, t, n, seed)
            assert not cli._products_match(col, q, t, n, seed), (q, t, n, seed)
            continue
        col = build_field_coloring(params, verts)
        assert cli._products_match(col, q, t, n, seed), (q, t, n, seed)
        matched += 1
        for _ in range(5):
            rows = [list(r) for r in col.rows]
            i = rng.randrange(n - 1)
            rows[i][rng.randrange(n - 1 - i)] = rng.randint(1, q + 1)
            edited = rewrite(col, rows=rows)
            assert cli._products_match(edited, q, t, n, seed) == reference_products_match(edited, q, t, n, seed)
    assert raised >= 9 and matched >= 20


def test_verify_finishes_under_a_cap_the_plain_search_exceeds(tmp_path, capsys):
    col = construct_file(tmp_path, 2, 11, 400, 1)
    # Colors 2 and 3 take about 5,000 nodes, color 1 stops at t after 11
    # and runs to about 900,000 without the stop.
    with pytest.raises(ResourceCapError):
        max_monochromatic_clique(col, 1, cap=10_000)
    capsys.readouterr()
    path = tmp_path / "c-2-11-400-1.txt"
    assert run("verify", "--coloring", str(path), "--target", "12", "--cap", "10000") == 0
    assert capsys.readouterr().out.startswith("color 1: max clique 11, witness ")


def test_verify_witnesses_are_pinned(tmp_path, capsys):
    # SHA-256 of verify's stdout.  The maxima alone do not pin which
    # witness is printed; that depends on the peeling order and the relabel.
    def construct(q, t, n):
        path = tmp_path / f"c-{q}-{t}-{n}.txt"
        run("construct", "--q", str(q), "--t", str(t), "--n", str(n), "--seed", "1", "--out", str(path))
        return path

    paley, product = tmp_path / "p13.txt", tmp_path / "p13xp13.txt"
    run("construct-paley", "--p", "13", "--out", str(paley))
    run("compose", "--a", str(paley), "--b", str(paley), "--out", str(product))
    cases = [
        (construct(5, 4, 145), 4, 1, "10cbd4291511f95608398952e93ea4d959feffd47896baf8cc4aaa6ab119946c"),
        (construct(2, 9, 200), 9, 1, "c4cb65fea075aa3ab25a9e44e394bedc4478b32404ca662b184870eb1bd70d98"),
        (product, 4, 0, "966c71099bf1bc579b448f1dc9eee6eca77a1f8d65b5d7db41ee2488093dd0f9"),
        # 258 colors: more than a byte holds, so the classes are read per pair
        (construct(257, 2, 30), 3, 1, "1146019125af688866fea97c67c8f49cbf554ab25553f7f05232ecfe7b28f11b"),
    ]
    capsys.readouterr()
    for path, target, status, pinned in cases:
        assert run("verify", "--coloring", str(path), "--target", str(target)) == status
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == pinned, path.name


def test_limits_below_one_are_parameter_errors(tmp_path, capsys):
    col = tmp_path / "p5.txt"
    run("construct-paley", "--p", "5", "--out", str(col))
    capsys.readouterr()
    for value in ("0", "-5"):
        for argv, message in [
            (("verify", "--coloring", str(col), "--target", "3", "--cap", value), "node cap"),
            (("verify", "--coloring", str(col), "--target", "3", "--cap", value, "--csv"), "node cap"),
            (("verify", "--coloring", str(col), "--target", value), "target"),
            (("certify", "--q", "3", "--t", "4", "--n", "14", "--cap", value), "node cap"),
            (("enumerate", "--q", "2", "--t", "3", "--cap", value), "enumeration cap"),
            (("construct", "--q", "3", "--t", "4", "--n", "12", "--cap", value), "enumeration cap"),
        ]:
            # these used to exit 3 ("exceeded -5 nodes"), or 1 for the target
            assert run(*argv) == 2, argv
            assert capsys.readouterr() == ("", f"error: {message} {value} must be positive\n"), argv


_Q = st.sampled_from([2, 3, 5, 7])
_T = st.integers(1, 6)  # q^t stays within 7^6 where it is enumerated
_N = st.integers(2, 40)
_SEED = st.integers(0, 9)
_FILE = st.sampled_from(["{col}", "{cert}", "{paley}", "{bad}", "{missing}"])
# (option, value strategy or None for a flag, required) per subcommand;
# flags come last, so an argv's values sit at its even positions.
_OPTIONS = {
    "enumerate": [("--q", _Q, True), ("--t", _T, True), ("--cap", st.sampled_from([10**6, 1000]), False)],
    "construct": [("--q", _Q, True), ("--t", _T, True), ("--n", _N, True),
                  ("--cap", st.sampled_from([10**6, 1000]), False), ("--seed", _SEED, False)],
    "construct-two-color": [("--t", _T, True), ("--n", _N, True), ("--seed", _SEED, False)],
    "construct-paley": [("--p", st.sampled_from([5, 13, 17, 89]), True)],
    "verify": [("--coloring", _FILE, True), ("--target", st.integers(1, 6), True),
               ("--cap", st.sampled_from([10**7, 50]), False), ("--csv", None, False)],
    "certify": [("--q", _Q, True), ("--t", _T, True), ("--n", _N, True),
                ("--attempts", st.integers(1, 2), True),
                ("--cap", st.sampled_from([10**7, 50]), False), ("--seed", _SEED, False),
                ("--jobs", st.just(1), False)],
    "reverify": [("--cert", _FILE, True)],
    "compose": [("--a", _FILE, True), ("--b", _FILE, True)],
    "bounds": [("--t", st.integers(1, 200), True), ("--colors", st.integers(2, 9), True),
               ("--slack", st.sampled_from(["0", "1/2", "3", "abc", "1/0"]), False), ("--csv", None, False)],
}
# Values past a check, a cap or int(), put in place of any one value.
_ODD = ["x", "-1", "0", "1", "4", "40", "200000", "99999999999999999999", "10000000000000061",
        str(2**64), "{missing}", "{bad}"]


@st.composite
def _argv(draw):
    """A subcommand with its required options and some optional ones,
    values in bounded ranges; now and then one value made odd, one
    argument dropped or an unknown option added."""
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [command]
    for option, value, required in _OPTIONS[command]:
        if required or draw(st.booleans()):
            argv += [option] if value is None else [option, str(draw(value))]
    change = draw(st.sampled_from(["none", "none", "odd", "drop", "bogus"]))
    if change == "odd" and len(argv) > 2:
        argv[draw(st.sampled_from(range(2, len(argv), 2)))] = draw(st.sampled_from(_ODD))
    elif change == "drop":
        del argv[draw(st.integers(1, len(argv) - 1))]
    elif change == "bogus":
        argv.append("--bogus")
    return argv


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """The files a fuzzed argv may name, by placeholder."""
    root = tmp_path_factory.mktemp("fuzz")
    files = {name: str(root / name) for name in ("col", "cert", "paley", "p89", "bad", "missing")}
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        assert dispatch(["construct", "--q", "3", "--t", "4", "--n", "14", "--out", files["col"]]) == 0
        assert dispatch(["certify", "--q", "3", "--t", "4", "--n", "14", "--out", files["cert"]]) == 0
        assert dispatch(["construct-paley", "--p", "5", "--out", files["paley"]]) == 0
        assert dispatch(["construct-paley", "--p", "89", "--out", files["p89"]]) == 0
    with open(files["bad"], "w") as f:
        f.write("colors=3\n1 2\n")
    return files


@given(argv=_argv())
@example(argv=["bounds", "--t", "1", "--colors", "4000"])
@example(argv=["construct-two-color", "--t", "99999999999999999999", "--n", "4"])
@example(argv=["construct-paley", "--p", "100049"])
@example(argv=["construct", "--q", "2", "--t", "19", "--n", "200000"])
@example(argv=["compose", "--a", "{p89}", "--b", "{p89}"])
@example(argv=["certify", "--q", "2", "--t", "19", "--n", "3000", "--attempts", "1"])
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
def test_every_subcommand_argv_exits_0_to_3_without_a_traceback(fuzz_files, argv):
    """Through dispatch, an answer or a typed error, each within 5 s: an
    untyped exception escapes dispatch and fails the test.  The first five
    examples once raised, hung or ran out of memory; the last one
    enumerated 2^18 vectors before its pair cap."""
    argv = [arg.format(**fuzz_files) for arg in argv]
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        status = dispatch(argv)
    assert status in (0, 1, 2, 3), argv
    assert time.perf_counter() - start < 5, argv


def test_importing_the_cli_loads_no_multiprocessing():
    # only --jobs > 1 starts a process pool, so only it pays for the import
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = "import sys, ramseylb.cli; print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
