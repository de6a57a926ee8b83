import argparse
import contextlib
import io

from ramseylb import cli
from ramseylb.cli import DEFAULT_SEED, dispatch
from ramseylb.coloring import EdgeColoring, build_paley
from ramseylb.compose import blowup_product
from ramseylb.moment import certificate_from_text, certificate_to_text, find_witness


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


def test_bounds_csv(capsys):
    assert run("bounds", "--t", "8", "--colors", "3", "--csv") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "tag,value,log2,growth"
    assert any(row.startswith("classical-3color,81,") for row in lines)
    assert any(row.startswith("field-direct,128,") for row in lines)


def test_parameter_error_exit_code(capsys):
    assert run("construct-paley", "--p", "7") == 2
    assert "error:" in capsys.readouterr().err


def test_resource_cap_exit_code(capsys):
    assert run("enumerate", "--q", "2", "--t", "30", "--cap", "1000") == 3


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


def test_unknown_command_exit_code(capsys):
    assert run("frobnicate") == 2


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
