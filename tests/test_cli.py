"""Lattice file parsing, subcommands, exit codes, deterministic output."""

import io
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from permtwist import characters, cli, isomap, vertexops
from permtwist.characters import FracQSeries
from permtwist.cli import (LatticeFileError, RunConfig, cmd, emit, main,
                           parse_lattice_file)
from permtwist.cocycle import TwistSystem
from permtwist.isomap import default_mode_set
from permtwist.lattice import LatticeError

LATTICES = Path(__file__).resolve().parent.parent / "lattices"
GOLDEN = Path(__file__).resolve().parent / "data"


def write(tmp_path, text, name="lat.lat"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_parse_valid_file(tmp_path):
    path = write(tmp_path, "# comment\nname = A1\nrank = 1\ngram = [[2]]\n")
    lat = parse_lattice_file(path)
    assert lat.rank == 1 and lat.gram == ((2,),) and lat.name == "A1"


def test_parse_multiline_gram(tmp_path):
    path = write(tmp_path, "name = A2\nrank = 2\ngram = [[2, 1],\n  [1, 2]]\n")
    lat = parse_lattice_file(path)
    assert lat.gram == ((2, 1), (1, 2))


def test_parse_rejects_odd_lattice(tmp_path):
    path = write(tmp_path, "name = bad\nrank = 1\ngram = [[1]]\n")
    with pytest.raises(LatticeError, match="not even"):
        parse_lattice_file(path)


def test_parse_rejects_indefinite_lattice(tmp_path):
    path = write(tmp_path, "name = bad\nrank = 2\ngram = [[2, 3], [3, 2]]\n")
    with pytest.raises(LatticeError, match="not positive definite \\(minor 2\\)"):
        parse_lattice_file(path)


def test_parse_errors(tmp_path):
    with pytest.raises(LatticeFileError, match="expected 'key = value'"):
        parse_lattice_file(write(tmp_path, "name A1\n"))
    with pytest.raises(LatticeFileError, match="missing field 'gram'"):
        parse_lattice_file(write(tmp_path, "name = A1\nrank = 1\n"))
    with pytest.raises(LatticeFileError, match="gram parse error"):
        parse_lattice_file(write(tmp_path, "rank = 1\ngram = [[2],]\n"))
    with pytest.raises(LatticeFileError, match="integer matrix"):
        parse_lattice_file(write(tmp_path, "rank = 2\ngram = [[2]]\n"))


def test_lattice_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.lat"
    path.write_bytes(b"name = X\xff\nrank = 1\ngram = [[2]]\n")
    assert main(["chars", "--lattice", str(path), "--k", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {path}: not UTF-8 text (byte 8)"]


def a1_config(tmp_path, **kw):
    path = write(tmp_path, "name = A1\nrank = 1\ngram = [[2]]\n")
    defaults = dict(lattice_path=path, k=2, q_order=Fraction(6),
                    weight_cutoff=Fraction(1), mode_bound=Fraction(1))
    defaults.update(kw)
    return RunConfig(**defaults)


def test_cmd_lemma():
    reports, status = cmd("lemma", RunConfig())
    assert status == 0
    assert len(reports) == 24
    assert all(r.passed for r in reports)


def test_cmd_subcommands_pass(tmp_path):
    for name in ("coeffs", "chars", "thm41", "iso"):
        reports, status = cmd(name, a1_config(tmp_path))
        assert status == 0, (name, [r for r in reports if not r.passed])
        assert reports


def test_verify_all_exit_contract(tmp_path):
    reports, status = cmd("verify-all", a1_config(tmp_path))
    assert status == 0
    assert all(r.passed for r in reports)


def test_machine_output_deterministic(tmp_path):
    outputs = []
    for _ in range(2):
        cfg = a1_config(tmp_path)
        reports, _ = cmd("verify-all", cfg)
        buf = io.StringIO()
        emit(reports, "machine", buf)
        outputs.append(buf.getvalue())
    assert outputs[0] == outputs[1]
    assert all(line.startswith("id=") for line in outputs[0].splitlines())


def test_main_entrypoint(tmp_path):
    path = write(tmp_path, "name = A1\nrank = 1\ngram = [[2]]\n")
    rc = main(["thm41", "--lattice", path, "--k", "2", "--q-order", "4",
               "--format", "machine"])
    assert rc == 0
    assert main(["lemma"]) == 0
    assert main(["thm41"]) == 2  # missing lattice
    bad = write(tmp_path, "rank = 1\ngram = [[1]]\n", name="bad.lat")
    assert main(["thm41", "--lattice", bad]) == 2


def test_main_without_flags_runs_with_the_run_config_defaults(monkeypatch, capsys):
    # the parser reads its defaults from RunConfig, so the two cannot drift
    seen = []
    monkeypatch.setattr(cli, "cmd", lambda name, cfg: seen.append((name, cfg)) or ([], 0))
    assert main(["lemma"]) == 0
    assert seen == [("lemma", RunConfig())]


def test_chars_reports_no_check_that_cannot_fail(tmp_path, monkeypatch):
    reports, status = cmd("chars", a1_config(tmp_path))
    assert status == 0 and reports
    # a twisted character with a half-integral coefficient that leads at q^1
    wrong = FracQSeries(1, {1: Fraction(1, 2)}, Fraction(6))
    monkeypatch.setattr(characters, "char_twisted", lambda K, k, order: wrong)
    reports, status = cmd("chars", a1_config(tmp_path))
    assert status == 1
    assert reports and not any(r.passed for r in reports)


def test_iso_reports_a_wrong_space_time_side(tmp_path, monkeypatch):
    # the space-time side computes 2u: every generator differs at the first mode
    windows = isomap.spacetime_twisted_windows
    monkeypatch.setattr(isomap, "spacetime_twisted_windows",
                        lambda system, u, modes, states:
                        windows(system, u.scaled(2), modes, states))
    reports, status = cmd("iso", a1_config(tmp_path))
    assert status == 1
    assert reports and all(r.check_id.startswith("intertwine[") for r in reports)
    assert all(r.status == "fail" for r in reports)
    assert all(r.witness.startswith("mode -1: first difference at ") for r in reports)
    assert reports[0].machine_line() == (
        "id=intertwine[current-slot1] anchor=twisted-operator-intertwining status=fail "
        "witness='mode -1: first difference at b0(-2)*e(0,): -1/2'")


def test_iso_fails_on_a_series_engine_that_computes_nothing(tmp_path, monkeypatch):
    # both sides share the series engine, so an empty engine makes every
    # comparison read 0 = 0: no generator may pass on that alone
    monkeypatch.setattr(vertexops, "_series", lambda sector, terms, v, targets: {})
    reports, status = cmd("iso", a1_config(tmp_path, k=3))
    assert status == 1
    assert [r.check_id for r in reports] == [
        "intertwine[current-slot1]", "intertwine[current-slot2]", "intertwine[current-slot3]",
        "intertwine[omega]", "intertwine[lattice-ground]"]
    assert all(r.status == "fail" for r in reports)
    assert all(r.witness.endswith(" modes checked, every image zero") for r in reports)


def test_thm41_reports_a_wrong_base_character(tmp_path, monkeypatch):
    char_voa = characters.char_voa

    def doubled(K, order):
        s = char_voa(K, order)
        return FracQSeries(s.denom, {e: 2 * c for e, c in s.coeffs.items()}, s.order)
    monkeypatch.setattr(characters, "char_voa", doubled)
    reports, status = cmd("thm41", a1_config(tmp_path))
    assert status == 1
    failed = [r for r in reports if not r.passed]
    assert [r.check_id for r in failed] == ["char-equality[A1 k=2 order=6]"]
    assert failed[0].witness == "first difference at q^-1/24: 1 vs 2"


def test_thm41_witness_sees_a_term_only_the_base_character_holds(tmp_path, monkeypatch):
    char_voa = characters.char_voa

    def with_extra_term(K, order):
        s = char_voa(K, order)
        assert s.denom % 3 == 0 and not s.coefficient(Fraction(1, 3))
        return FracQSeries(s.denom, {**s.coeffs, s.denom // 3: 1}, s.order)
    monkeypatch.setattr(characters, "char_voa", with_extra_term)
    reports, status = cmd("thm41", a1_config(tmp_path))
    assert status == 1
    failed = [r for r in reports if not r.passed]
    assert [r.witness for r in failed] == ["first difference at q^1/3: 0 vs 1"]


def test_chars_on_a_bound_with_empty_shells():
    # q-order 3/8 asks the enumeration for bounds whose intervals hold no integer
    assert main(["chars", "--lattice", str(LATTICES / "a2.lat"), "--k", "2",
                 "--q-order", "3/8", "--format", "machine"]) == 0


@pytest.mark.parametrize("flag, value", [("--weight-cutoff", "0")])
def test_iso_that_compares_nothing_fails(tmp_path, capsys, flag, value):
    # below the twisted vacuum weight 1/16 the basis is empty: a usage error,
    # never a check that fails (isomap's own guard is tested in test_isomap)
    path = write(tmp_path, "name = A1\nrank = 1\ngram = [[2]]\n")
    rc = main(["iso", "--lattice", path, "--k", "2", flag, value, "--format", "machine"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {flag} {value} is below the twisted vacuum weight 1/16"]


@pytest.mark.parametrize("subcommand", ["iso", "verify-all"])
@pytest.mark.parametrize("flag, value", [("--mode-bound", "-1"), ("--weight-cutoff", "-1"),
                                         ("--mode-bound", "-1/3")])
def test_negative_bound_is_a_usage_error(capsys, subcommand, flag, value):
    argv = [subcommand, "--lattice", str(LATTICES / "a1.lat"), "--k", "2",
            f"{flag}={value}", "--format", "machine"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {flag} {value} is negative"]


@pytest.mark.parametrize("joined", [False, True])
@pytest.mark.parametrize("subcommand, flag, value, message", [
    ("iso", "--weight-cutoff", "-1/2", "error: --weight-cutoff -1/2 is negative"),
    ("verify-all", "--mode-bound", "-1/3", "error: --mode-bound -1/3 is negative"),
    ("thm41", "--q-order", "-1/20",
     "error: --q-order -1/20 is below the leading exponent -1/24 of the character"),
])
def test_negative_fraction_is_read_as_the_flag_value(capsys, joined, subcommand, flag, value,
                                                      message):
    # argparse alone reads a space-separated -1/2 as an option, not a value
    pair = [f"{flag}={value}"] if joined else [flag, value]
    argv = [subcommand, "--lattice", str(LATTICES / "a1.lat"), "--k", "2", *pair]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [message]


def test_negative_q_order_after_a_space_runs(capsys):
    outputs = []
    for pair in (["--q-order", "-1/100"], ["--q-order=-1/100"]):
        assert main(["thm41", "--lattice", str(LATTICES / "a1.lat"), *pair,
                     "--format", "machine"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and "order=-1/100" in outputs[0]


def test_off_grid_mode_bound_keeps_every_mode_within_it():
    # |n| <= 1/2 on (1/3)Z: the modes -1/3, 0 and 1/3
    system = TwistSystem(parse_lattice_file(str(LATTICES / "a1.lat")), 3)
    assert default_mode_set(system, Fraction(1, 2)) == [Fraction(t, 3) for t in (-1, 0, 1)]


@pytest.mark.parametrize("k", ["0", "-2"])
def test_non_positive_k_is_a_usage_error(tmp_path, capsys, k):
    path = write(tmp_path, "name = A1\nrank = 1\ngram = [[2]]\n")
    assert main(["iso", "--lattice", path, "--k", k]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: --k must be a positive integer, got {k}"]


def test_rank_zero_lattice_is_a_usage_error(tmp_path, capsys):
    path = write(tmp_path, "name = Z0\nrank = 0\ngram = []\n")
    assert main(["thm41", "--lattice", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: lattice must have positive rank"]


def test_negative_rank_lattice_is_a_usage_error(tmp_path, capsys):
    path = write(tmp_path, "name = Z0\nrank = -1\ngram = []\n")
    assert main(["thm41", "--lattice", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: lattice must have positive rank"]


def test_boolean_gram_entry_is_a_usage_error(tmp_path, capsys):
    # JSON true is a Python bool, an int subclass: read as 1 it would build A2
    path = write(tmp_path, "name = A2\nrank = 2\ngram = [[2, true], [true, 2]]\n")
    assert main(["thm41", "--lattice", path, "--format", "machine"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {path}: gram must be a 2x2 integer matrix"]


@pytest.mark.parametrize("flag", ["--q-order", "--weight-cutoff", "--mode-bound"])
def test_zero_denominator_is_a_usage_error(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["iso", "--lattice", str(LATTICES / "a1.lat"), flag, "1/0"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(f"argument {flag}: not a fraction: '1/0'")


@pytest.mark.parametrize("argv", [
    ["thm41", "--q-order=1/5"],
    ["thm41", "--q-order=0"],
    ["thm41", "--q-order=-1/100"],
    ["thm41", "--q-order=-1/24"],
    ["verify-all", "--q-order=0", "--weight-cutoff", "1", "--mode-bound", "1"],
])
def test_low_q_order_reports_coset_exclusion_exactly(capsys, argv):
    # the A1 coset character starts at q^(5/24), above these orders
    rc = main(argv + ["--lattice", str(LATTICES / "a1.lat"), "--k", "2", "--format", "machine"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert any(line.startswith("id=coset-exclusion[") for line in lines)
    assert all("status=pass" in line for line in lines)


@pytest.mark.parametrize("argv, lead", [
    (["thm41", "--q-order=-1/20"], "-1/24"),
    (["verify-all", "--q-order=-1"], "-1/48"),
    (["chars", "--q-order=-1/30"], "-1/48"),
])
def test_q_order_below_the_leading_exponent_is_a_usage_error(capsys, argv, lead):
    assert main(argv + ["--lattice", str(LATTICES / "a1.lat"), "--k", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    order = argv[1].split("=")[1]
    assert captured.err.splitlines() == [
        f"error: --q-order {order} is below the leading exponent {lead} of the character"]


@pytest.mark.parametrize("subcommand", ["iso", "chars", "thm41", "coeffs", "verify-all"])
def test_non_even_lattice_is_a_usage_error(tmp_path, capsys, subcommand):
    path = write(tmp_path, "name = odd\nrank = 2\ngram = [[2, 1], [1, 3]]\n")
    assert main([subcommand, "--lattice", path, "--format", "machine"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: lattice not even"]


@pytest.mark.parametrize("golden, lattice, argv", [
    ("iso_a1_k3", "a1.lat", ["iso", "--k", "3", "--weight-cutoff", "1", "--mode-bound", "1"]),
    ("coeffs_a1_k2", "a1.lat", ["coeffs", "--k", "2"]),
    ("thm41_a1_k2", "a1.lat", ["thm41", "--k", "2"]),
    ("iso_a2_k3", "a2.lat",
     ["iso", "--k", "3", "--weight-cutoff", "5/9", "--mode-bound", "2/3"]),
    ("chars_a2_k3", "a2.lat", ["chars", "--k", "3"]),
    ("thm41_a2_k3", "a2.lat", ["thm41", "--k", "3"]),
    ("thm41_d4_k2", "d4.lat", ["thm41", "--k", "2"]),
    ("coeffs_a1_k1", "a1.lat", ["coeffs", "--k", "1"]),
    ("chars_e8_k2", "e8.lat", ["chars", "--k", "2", "--q-order", "2"]),
    ("thm41_e8_k2", "e8.lat", ["thm41", "--k", "2", "--q-order", "2"]),
    ("verify_all_a1_k3", "a1.lat", ["verify-all", "--k", "3"]),
    ("verify_all_a2_k3", "a2.lat", ["verify-all", "--k", "3"]),
    ("verify_all_d4_k2", "d4.lat", ["verify-all", "--k", "2"]),
])
def test_machine_output_matches_golden_file(capsys, golden, lattice, argv):
    # the default machine output must stay byte-identical to these files
    argv = argv + ["--lattice", str(LATTICES / lattice), "--format", "machine"]
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{golden}.machine").read_text(encoding="utf-8")


def test_thm41_on_an_unreduced_rank_6_gram_finishes():
    # four dual cosets read off a Gram matrix whose integer normal form
    # needs care; run in a subprocess so that a hang fails, not stalls
    argv = [sys.executable, "-m", "permtwist.cli", "thm41", "--lattice", str(GOLDEN / "s6.lat"),
            "--k", "2", "--q-order", "2", "--format", "machine"]
    paths = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 4 and all("status=pass" in line for line in lines)
    assert lines[-1].startswith("id=coset-exclusion[S6 k=2 rep3] ")
