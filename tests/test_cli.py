import contextlib
import hashlib
import io
import json
import math
import random
import re
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commro import (Layer, Poly, QMatrix, build_commro, build_commro_general,
                    build_diagro_from_waring, build_smabp, check_kind, expand_abp, inverse,
                    parse_poly, waring_expand, waring_of_monomial)
from commro import cli
from commro.cli import run
from commro.detspecial import det_polynomial, det_variables, palindrome
from commro.linalg import vec_mat
from commro.textio import (format_abp, format_poly_file, format_waring_file, parse_abp,
                           parse_poly_file, parse_waring_file)

from helpers import (SMALL, WIDE_RATIONALS, all_pairs_commute, edited_abp_texts, random_poly,
                     rational_commutative_programs)


@pytest.fixture()
def det2_file(tmp_path):
    path = tmp_path / "det2.poly"
    path.write_text(format_poly_file(det_polynomial(2)))
    return str(path)


@pytest.fixture()
def pal3_file(tmp_path):
    path = tmp_path / "pal3.poly"
    path.write_text(format_poly_file(palindrome(3)))
    return str(path)


def test_dpd_command(det2_file, capsys):
    assert run(["dpd", det2_file]) == 0
    assert capsys.readouterr().out == "6\n"


def test_dpd_with_basis(det2_file, capsys):
    assert run(["dpd", det2_file, "--basis"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "6"
    assert len(lines) == 7
    assert lines[1] == "x1_1*x2_2 - x1_2*x2_1"


def test_dpd_of_zero_polynomial(tmp_path, capsys):
    path = tmp_path / "zero.poly"
    path.write_text("vars: x1\n0\n")
    assert run(["dpd", str(path)]) == 0
    assert capsys.readouterr().out == "0\n"


@pytest.mark.parametrize("argv, code, out, err", [
    (["dpd", "ZERO"], 0, "0\n", ""),
    (["dpd", "ZERO", "--basis"], 0, "0\n", ""),
    (["normal-set", "ZERO"], 0, "", ""),
    (["tables", "ZERO"], 0, "table a\n0 0\ntable b\n0 0\n", ""),
    (["nisan", "ZERO", "--order", "a,b"], 0, "order: a,b cut-ranks: 0 0 width: 0 size: 0\n",
     ""),
    (["build", "commro", "ZERO", "-o", "OUT"], 2, "",
     "error: cannot build a branching program for the zero polynomial\n"),
], ids=["dpd", "dpd-basis", "normal-set", "tables", "nisan", "build"])
def test_the_zero_polynomial(tmp_path, capsys, argv, code, out, err):
    # Ann(0) is the whole ring: no derivative, an empty normal set and 0 x 0
    # tables; only build refuses, since a program has width at least 1
    files = {"ZERO": tmp_path / "zero.poly", "OUT": tmp_path / "out.abp"}
    files["ZERO"].write_text("vars: a b\n0\n")
    assert run([str(files.get(arg, arg)) for arg in argv]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, err)


def test_normal_set_command(det2_file, capsys):
    assert run(["normal-set", det2_file]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "1", "x1_1", "x1_2", "x2_1", "x2_2", "x1_2*x2_1"]


def test_tables_command(det2_file, capsys):
    assert run(["tables", det2_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("table x1_1\n6 6\n")
    assert out.count("table ") == 4


def test_tables_cap_exit_code(det2_file, capsys):
    assert run(["tables", det2_file, "--max-entries", "4"]) == 3
    err = capsys.readouterr().err
    assert "--max-entries" in err


def test_tables_cap_checked_before_any_table_is_built(tmp_path, capsys, monkeypatch):
    path = tmp_path / "det5.poly"
    path.write_text(format_poly_file(det_polynomial(5)))

    def refuse(q):
        raise AssertionError("multiplication_tables called past the --max-entries cap")

    monkeypatch.setattr(cli, "multiplication_tables", refuse)
    assert run(["tables", str(path), "--max-entries", "4"]) == 3
    err = capsys.readouterr().err
    assert "table for x1_1 has 63504 entries, cap is 4" in err
    assert "--max-entries" in err


@pytest.mark.parametrize("command", [["dpd"], ["normal-set"], ["tables"],
                                     ["build", "commro"], ["build", "smabp"]])
def test_max_width_cap(tmp_path, capsys, command):
    poly_path = str(tmp_path / "det3.poly")
    assert run(["gen", "det", "3", "-o", poly_path]) == 0
    argv = command + [poly_path]
    if command[0] == "build":
        argv += ["-o", str(tmp_path / "det3.abp")]
    if command[-1] == "smabp":
        argv += ["--partition", "x1_1,x1_2,x1_3|x2_1,x2_2,x2_3|x3_1,x3_2,x3_3"]
    capsys.readouterr()
    assert run(argv + ["--max-width", "19"]) == 3
    err = capsys.readouterr().err
    assert "--max-width" in err and "Traceback" not in err
    assert run(argv + ["--max-width", "20"]) == 0


@pytest.mark.parametrize("cap", [4, 5, 6])
def test_max_width_caps_the_summed_width_of_the_components(tmp_path, capsys, cap):
    # c has a span of 2 dimensions and a*b one of 4: the program has width 6
    path, abp = tmp_path / "abc.poly", tmp_path / "abc.abp"
    path.write_text("vars: a b c\na*b + c\n")
    code = run(["build", "commro", str(path), "-o", str(abp), "--max-width", str(cap)])
    if cap < 6:
        assert code == 3 and not abp.exists()
        err = capsys.readouterr().err
        assert err == f"error: program width exceeds {cap} (raise --max-width)\n"
    else:
        assert code == 0
        assert hashlib.sha256(abp.read_bytes()).hexdigest() == (
            "fa373f1c62b2cc93485e996a9e83b6c9996980d6e36685e93278b6c7e2c8fa52")


def test_default_max_width_refuses_runaway_span(tmp_path, capsys):
    # w = 10^8, and the coefficients of the span grow factorially
    path = tmp_path / "huge.poly"
    path.write_text("vars: x y\nx^99999999\n")
    assert run(["dpd", str(path)]) == 3
    err = capsys.readouterr().err
    assert "--max-width" in err and "8192" in err and "Traceback" not in err


def test_build_refuses_high_degree_without_building_every_component(tmp_path, capsys):
    # one homogeneous component, not 3000001 of them, reaches the degree cap
    path = tmp_path / "high.poly"
    path.write_text("vars: x y\nx^3000000\n")
    start = time.perf_counter()
    assert run(["build", "commro", str(path), "-o", str(tmp_path / "high.abp")]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "--max-width" in err and "Traceback" not in err


# every cap flag of every subcommand: (command, flag, metavar, default)
CAP_FLAGS = [
    ("dpd", "--max-width", "W", 8192), ("normal-set", "--max-width", "W", 8192),
    ("tables", "--max-entries", "N", 1 << 20), ("tables", "--max-width", "W", 8192),
    ("build", "--max-entries", "N", 1 << 20), ("build", "--max-width", "W", 8192),
    ("verify", "--max-terms", "N", 1 << 20), ("verify", "--max-power", "P", 4096),
    ("gen", "--max-terms", "N", 1 << 20),
]


def _help_text(capsys, command: str) -> str:
    assert run([command, "--help"]) == 0
    return " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("command", ["dpd", "normal-set", "tables", "build", "nisan", "verify",
                                     "gen"])
def test_cap_flags_are_the_listed_ones(capsys, command):
    flags = {flag for name, flag, _, _ in CAP_FLAGS if name == command}
    assert set(re.findall(r"--max-[a-z]+", _help_text(capsys, command))) == flags


@pytest.mark.parametrize("command, flag, metavar, default", CAP_FLAGS,
                         ids=[f"{command}{flag}" for command, flag, _, _ in CAP_FLAGS])
def test_cap_default_is_stated_in_help(capsys, command, flag, metavar, default):
    help_text = _help_text(capsys, command)
    at = help_text.index(f"{flag} {metavar} refuse (exit 3) ")
    assert help_text[at:].split("default: ", 1)[1].startswith(f"{default})")


def test_nisan_orders(pal3_file, capsys):
    assert run(["nisan", pal3_file, "--order", "x1,x2,x3,y1,y2,y3"]) == 0
    out = capsys.readouterr().out
    assert "width: 8" in out
    assert run(["nisan", pal3_file, "--order", "x1,y1,x2,y2,x3,y3"]) == 0
    assert "width: 2" in capsys.readouterr().out


def test_nisan_all_orders_match_each_order(pal3_file, capsys):
    assert run(["nisan", pal3_file, "--all-orders"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len({line.split()[1] for line in lines}) == len(lines) == 720
    for line in lines:
        assert run(["nisan", pal3_file, "--order", line.split()[1]]) == 0
        assert capsys.readouterr().out == line + "\n"


def test_nisan_rejects_bad_order(pal3_file, capsys):
    assert run(["nisan", pal3_file, "--order", "x1,x2"]) == 2
    assert "every variable" in capsys.readouterr().err


# --partition and --order are read by the parser of the order header, and
# each message names the flag
@pytest.mark.parametrize("argv, message", [
    (["build", "smabp", "POLY", "-o", "OUT", "--partition", "x1,zz|y1"],
     "--partition names unknown variable 'zz'"),
    (["build", "smabp", "POLY", "-o", "OUT", "--partition", "x1,y1||x2,y2"],
     "empty group in --partition"),
    (["nisan", "POLY", "--order", "x1,,y1"], "empty group in --order"),
    (["nisan", "POLY", "--order", "x1,zz"], "--order names unknown variable 'zz'"),
], ids=["partition-unknown", "partition-empty-group", "order-empty-group", "order-unknown"])
def test_variable_groups_exit_2_naming_their_flag(pal3_file, tmp_path, capsys, argv, message):
    files = {"POLY": pal3_file, "OUT": str(tmp_path / "out.abp")}
    assert run([files.get(arg, arg) for arg in argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_build_and_verify_expand(det2_file, tmp_path, capsys):
    out = str(tmp_path / "det2.abp")
    assert run(["build", "commro", det2_file, "-o", out]) == 0
    assert "width=6" in capsys.readouterr().out
    assert run(["verify", out, "--against", det2_file, "--expand",
                "--any-order", "3"]) == 0
    assert "verify OK" in capsys.readouterr().out


def test_verify_any_order_names_each_order(det2_file, tmp_path, capsys):
    out = str(tmp_path / "det2.abp")
    assert run(["build", "commro", det2_file, "-o", out]) == 0
    capsys.readouterr()
    assert run(["verify", out, "--against", det2_file, "--random-eval", "3", "--seed", "4",
                "--any-order", "5"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("order-")]
    assert len(lines) == 5
    orders = set()
    for trial, line in enumerate(lines):
        match = re.fullmatch(r"order-(\d+) \(([^)]*)\) random-eval: 3 points ok \(seed=4\)", line)
        assert match and int(match.group(1)) == trial
        assert sorted(match.group(2).split(",")) == sorted(det_variables(2))
        orders.add(match.group(2))
    assert len(orders) > 1  # each line names the order it tried, not the file's


def test_verify_any_order_evaluates_f_once_per_point(det2_file, tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "det2.abp")
    assert run(["build", "commro", det2_file, "-o", out]) == 0
    calls = []
    evaluate = Poly.eval
    monkeypatch.setattr(Poly, "eval", lambda f, point: calls.append(point) or evaluate(f, point))
    assert run(["verify", out, "--against", det2_file, "--random-eval", "3",
                "--any-order", "4"]) == 0
    assert len(calls) == 3
    assert capsys.readouterr().out.count("random-eval: 3 points ok (seed=0)") == 5


def test_verify_any_order_names_set_multilinear_layers(det2_file, tmp_path, capsys):
    out = str(tmp_path / "det2.smabp")
    assert run(["build", "smabp", det2_file, "-o", out,
                "--partition", "x1_1,x1_2|x2_1,x2_2"]) == 0
    capsys.readouterr()
    assert run(["verify", out, "--against", det2_file, "--expand", "--any-order", "4"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("order-")]
    assert len(lines) == 4
    orders = set()
    for trial, line in enumerate(lines):
        match = re.fullmatch(r"order-(\d+) \(([^)]*)\) expand: ok", line)
        assert match and int(match.group(1)) == trial
        assert sorted(match.group(2).split("|")) == ["x1_1,x1_2", "x2_1,x2_2"]
        orders.add(match.group(2))
    assert len(orders) == 2


def test_verify_random_eval_reproducible(det2_file, tmp_path, capsys):
    out = str(tmp_path / "det2.abp")
    run(["build", "commro", det2_file, "-o", out])
    capsys.readouterr()
    argv = ["verify", out, "--against", det2_file, "--random-eval", "5", "--seed", "42"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first


def test_verify_detects_tampering(det2_file, tmp_path, capsys):
    out = tmp_path / "det2.abp"
    run(["build", "commro", det2_file, "-o", str(out)])
    abp = parse_abp(out.read_text())
    tampered = abp.__class__(kind=abp.kind, vars=abp.vars, width=abp.width,
                             u=abp.u, v=tuple(-x for x in abp.v),
                             layers=abp.layers)
    out.write_text(format_abp(tampered))
    capsys.readouterr()
    assert run(["verify", str(out), "--against", det2_file, "--expand"]) == 1
    assert "FAILED" in capsys.readouterr().out


def _bump_entry(text: str, header: str, i: int, j: int) -> str:
    """Add 1 to entry (i, j) of the layer block under `header`."""
    lines = text.split("\n")
    at = lines.index(header) + 1 + i
    cells = lines[at].split(" ")
    cells[j] = str(Fraction(cells[j]) + 1)
    lines[at] = " ".join(cells)
    return "\n".join(lines)


@pytest.mark.parametrize("gen, header, i, j", [
    (["det", "2"], "layer x1_1 power 1", 0, 0),
    (["det", "2"], "layer x1_1 power 0", 0, 1),
    (["palindrome", "3"], "layer x1 power 1", 0, 0),
], ids=["table-entry", "identity-entry", "table-equal-to-another"])
def test_verify_detects_non_commuting_tamper(tmp_path, capsys, gen, header, i, j):
    poly_path, abp_path = str(tmp_path / "f.poly"), tmp_path / "f.abp"
    assert run(["gen", *gen, "-o", poly_path]) == 0
    assert run(["build", "commro", poly_path, "-o", str(abp_path)]) == 0
    abp = parse_abp(abp_path.read_text())
    tables = {(abp.vars[var], power): mat for layer in abp.layers
              for var, power, mat in layer.terms}
    if header.endswith("power 0"):
        # the check skips a matrix equal to the identity
        assert tables[("x1_1", 0)] == QMatrix.identity(abp.width)
    if gen[0] == "palindrome":
        # the same object as an earlier matrix, so the check multiplies only one of them
        assert tables[("x1", 1)] == tables[("y1", 1)]
    tampered = _bump_entry(abp_path.read_text(), header, i, j)
    assert not all_pairs_commute(parse_abp(tampered).coefficient_matrices())
    abp_path.write_text(tampered)
    capsys.readouterr()
    assert run(["verify", str(abp_path), "--against", poly_path, "--random-eval", "1"]) == 1
    out = capsys.readouterr().out
    assert "structural invariant" in out and "verify OK" not in out


def test_verify_kind_line_states_what_was_checked(det2_file, tmp_path, capsys):
    out = str(tmp_path / "det2.abp")
    assert run(["build", "commro", det2_file, "-o", out]) == 0
    capsys.readouterr()
    assert run(["verify", out, "--against", det2_file, "--random-eval", "1"]) == 0
    # 4 identities and 4 tables: C(4, 2) pairs of tables, each table commuted
    # with one packed sum of the tables before it
    assert ("kind commutative: ok (8 matrices; 6 basis pairs checked by 3 packed products)"
            in capsys.readouterr().out.splitlines())


def test_verify_kind_line_names_the_power_steps(tmp_path, capsys):
    # both layers are exponentials up to power 3: besides the two identities, the
    # two T form the basis and the four higher powers are each tested by one product
    poly, out = tmp_path / "f.poly", str(tmp_path / "f.abp")
    poly.write_text("vars: x1 x2\nx1^3*x2 + 2*x1*x2^2 - x2^3\n")
    assert run(["build", "commro", str(poly), "-o", out]) == 0
    capsys.readouterr()
    assert run(["verify", out, "--against", str(poly), "--random-eval", "1"]) == 0
    assert ("kind commutative: ok (8 matrices; "
            "4 power steps k*A_k = A_(k-1)*A_1, one product each; "
            "1 basis pairs checked by 1 packed products)") in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("i, j", [(0, 0), (1, 0)])
def test_verify_detects_a_tampered_power_step(tmp_path, capsys, i, j):
    # a built random input whose power-2 blocks pass as power steps until one is bumped
    f = random_poly(random.Random(5), 3, 4, 6, homogeneous=False)
    poly_path, abp_path = tmp_path / "f.poly", tmp_path / "f.abp"
    poly_path.write_text(format_poly_file(f))
    assert run(["build", "commro", str(poly_path), "-o", str(abp_path)]) == 0
    built = parse_abp(abp_path.read_text())
    assert check_kind(built).power_steps > 0
    tampered = _bump_entry(abp_path.read_text(), "layer x3 power 2", i, j)
    assert not all_pairs_commute(parse_abp(tampered).coefficient_matrices())
    abp_path.write_text(tampered)
    capsys.readouterr()
    assert run(["verify", str(abp_path), "--against", str(poly_path), "--random-eval", "1"]) == 1
    out = capsys.readouterr().out
    assert "structural invariant" in out and "verify OK" not in out


POWER_BOMB_ABP = ("abp v1\nkind: commutative\nwidth: 1\nvars: x\norder: x\n"
                  "u: 1\nv: 1\nlayer x power 100000000\n1\n")


def test_verify_caps_layer_powers_under_random_eval(tmp_path, capsys):
    bomb, against = tmp_path / "bomb.abp", tmp_path / "x.poly"
    bomb.write_text(POWER_BOMB_ABP)
    against.write_text("vars: x\nx\n")
    assert len(POWER_BOMB_ABP.splitlines()) == 9
    assert run(["verify", str(bomb), "--against", str(against), "--random-eval", "1"]) == 3
    err = capsys.readouterr().err
    assert "--max-power" in err and "Traceback" not in err

    fifth = tmp_path / "x5.abp"
    fifth.write_text(POWER_BOMB_ABP.replace("power 100000000", "power 5"))
    against.write_text("vars: x\nx^5\n")
    argv = ["verify", str(fifth), "--against", str(against), "--random-eval", "2"]
    assert run(argv) == 0
    assert run(argv + ["--max-power", "4"]) == 3
    assert run(argv + ["--max-power", "5"]) == 0
    capsys.readouterr()
    assert run(["verify", "--help"]) == 0
    assert f"(default: {cli.DEFAULT_POWER_CAP})" in " ".join(capsys.readouterr().out.split())


def test_runs_share_one_parser_without_leaking_options(det2_file, tmp_path, capsys):
    assert cli._build_parser() is cli._build_parser()
    out = str(tmp_path / "det2.abp")
    assert run(["build", "commro", det2_file, "-o", out, "--max-width", "5"]) == 3
    assert run(["build", "commro", det2_file, "-o", out]) == 0
    capsys.readouterr()
    verify = ["verify", out, "--against", det2_file, "--random-eval", "2"]
    assert run(verify + ["--seed", "5"]) == 0
    assert "(seed=5)" in capsys.readouterr().out
    assert run(verify) == 0
    assert "(seed=0)" in capsys.readouterr().out
    raw = tmp_path / "raw.poly"
    raw.write_text("x1*x2\n")
    assert run(["dpd", str(raw), "--vars", "x1,x2"]) == 0
    assert run(["dpd", str(raw)]) == 2


def test_verify_rejects_wrong_kind(det2_file, tmp_path, capsys):
    out = tmp_path / "det2.abp"
    run(["build", "commro", det2_file, "-o", str(out)])
    text = out.read_text().replace("kind: commutative", "kind: diagonal")
    out.write_text(text)
    capsys.readouterr()
    assert run(["verify", str(out), "--against", det2_file, "--expand"]) == 1
    assert "structural invariant" in capsys.readouterr().out


def test_build_det3_verifies_by_random_eval(tmp_path, capsys):
    poly_path = str(tmp_path / "det3.poly")
    abp_path = str(tmp_path / "det3.abp")
    assert run(["gen", "det", "3", "-o", poly_path]) == 0
    assert run(["build", "commro", poly_path, "-o", abp_path]) == 0
    assert run(["verify", abp_path, "--against", poly_path,
                "--random-eval", "20", "--seed", "9"]) == 0
    assert "20 points ok" in capsys.readouterr().out


def test_build_smabp_with_partition(det2_file, tmp_path, capsys):
    out = str(tmp_path / "det2.smabp")
    assert run(["build", "smabp", det2_file, "-o", out,
                "--partition", "x1_1,x1_2|x2_1,x2_2"]) == 0
    assert run(["verify", out, "--against", det2_file, "--expand"]) == 0


def test_build_diagro_from_waring_file(tmp_path, capsys):
    waring_path = str(tmp_path / "mono3.waring")
    assert run(["gen", "monomial-waring", "3", "-o", waring_path]) == 0
    out = str(tmp_path / "mono3.abp")
    assert run(["build", "diagro", waring_path, "-o", out]) == 0
    abp = parse_abp((tmp_path / "mono3.abp").read_text())
    assert abp.kind == "diagonal"
    vars = ("x1", "x2", "x3")
    assert expand_abp(abp) == Poly.monomial(vars, (1, 1, 1))


def test_build_diagro_caps_width_before_interpolating(tmp_path, capsys):
    # x1*x2*x3 has 4 terms of degree 3 in 3 variables: width 4 * (3 * 3 + 1) = 40
    waring_path = str(tmp_path / "mono3.waring")
    assert run(["gen", "monomial-waring", "3", "-o", waring_path]) == 0
    out = str(tmp_path / "mono3.abp")
    assert run(["build", "diagro", waring_path, "-o", out, "--max-width", "39"]) == 3
    assert "--max-width" in capsys.readouterr().err
    assert run(["build", "diagro", waring_path, "-o", out, "--max-width", "40"]) == 0
    assert parse_abp((tmp_path / "mono3.abp").read_text()).width == 40
    # one term with d = 60, n = 8 needs 481 nodes, whose interpolation
    # weights cost minutes; the cap refuses before computing any
    big = tmp_path / "big.waring"
    big.write_text("waring d=60 n=8\n1: 1 1 1 1 1 1 1 1\n")
    start = time.perf_counter()
    assert run(["build", "diagro", str(big), "-o", out, "--max-width", "5"]) == 3
    assert time.perf_counter() - start < 1.0


def test_build_diagro_caps_layer_entries_before_interpolating(tmp_path, capsys):
    # width 3 * (4 * 300 + 1) = 3603 is under the default --max-width, but
    # the 4 * 300 layer powers would store 4 323 600 diagonal entries
    big = tmp_path / "big.waring"
    big.write_text("waring d=300 n=4\n1: 1 2 3 4\n2: 1 -1 1 -1\n-1/3: 0 1 0 5\n")
    out = tmp_path / "out.abp"
    start = time.perf_counter()
    assert run(["build", "diagro", str(big), "-o", str(out)]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "4323600" in err and "--max-entries" in err and "Traceback" not in err
    assert not out.exists()
    # x1*x2*x3: 3 variables times 3 powers times width 40 is 360 entries
    waring_path = str(tmp_path / "mono3.waring")
    assert run(["gen", "monomial-waring", "3", "-o", waring_path]) == 0
    assert run(["build", "diagro", waring_path, "-o", str(out), "--max-entries", "359"]) == 3
    assert run(["build", "diagro", waring_path, "-o", str(out), "--max-entries", "360"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "0fd2607f7638a6bdb19fc8c7e0349f23d36f266659f2a6c93a3972438b8a826f")


def test_build_diagro_names_variables_by_the_vars_flag(tmp_path, capsys):
    waring = tmp_path / "w.waring"
    waring.write_text("waring d=2 n=2\n1/4: 1 1\n-1/4: 1 -1\n")
    against = tmp_path / "ab.poly"
    against.write_text("vars: a b\na*b\n")
    out = str(tmp_path / "ab.abp")
    assert run(["build", "diagro", str(waring), "-o", out, "--vars", "a,b"]) == 0
    assert parse_abp(Path(out).read_text()).vars == ("a", "b")
    assert run(["verify", out, "--against", str(against), "--expand"]) == 0
    for flag, message in (("a", "got 1 variable names for the decomposition's 2 variables"),
                          ("a,b,c", "got 3 variable names"), ("a,a", "'a' is declared twice"),
                          ("a,", "variable name '' is not an identifier"),
                          ("a,b c", "variable name 'b c' is not an identifier")):
        capsys.readouterr()
        assert run(["build", "diagro", str(waring), "-o", out, "--vars", flag]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_build_refuses_a_partition_it_would_ignore(tmp_path, capsys, det2_file):
    waring = tmp_path / "w.waring"
    waring.write_text("waring d=2 n=2\n1/4: 1 1\n-1/4: 1 -1\n")
    out = tmp_path / "out.abp"
    for target, path in (("commro", det2_file), ("diagro", str(waring))):
        for partition in ("x1_1,x1_2|x2_1,x2_2", "no,such|names"):
            assert run(["build", target, path, "-o", str(out), "--partition", partition]) == 2
            err = capsys.readouterr().err
            assert f"--partition applies to smabp only, not {target}" in err
    assert not out.exists()


def test_build_refuses_an_entry_cap_it_would_ignore(tmp_path, capsys, det2_file):
    out = tmp_path / "out.abp"
    assert run(["build", "commro", det2_file, "-o", str(out), "--max-entries", "5"]) == 2
    assert "--max-entries applies to diagro only, not commro" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, code", [
    (["commro", "{det3}", "--max-width", "19"], 3),
    (["smabp", "{det3}", "--partition", "x1_1,x1_2|no_such"], 2),
    (["smabp", "{det3}"], 2),
    (["commro", "{bad}"], 2),
    (["diagro", "{det3}"], 2),
], ids=["width-cap", "unknown-part-name", "no-partition", "bad-poly", "poly-as-waring"])
def test_a_failed_build_leaves_an_existing_output_file_unchanged(tmp_path, capsys, argv, code):
    det3, bad, out = tmp_path / "det3.poly", tmp_path / "bad.poly", tmp_path / "out.abp"
    assert run(["gen", "det", "3", "-o", str(det3)]) == 0
    bad.write_text("vars: a b\na * * b\n")
    before = b"an earlier program\n\x00 its bytes kept as they are"
    out.write_bytes(before)
    argv = [arg.format(det3=det3, bad=bad) for arg in argv]
    capsys.readouterr()
    assert run(["build", *argv, "-o", str(out)]) == code
    assert "Traceback" not in capsys.readouterr().err
    assert out.read_bytes() == before


@pytest.mark.parametrize("target", ["commro", "smabp", "diagro"])
def test_build_writes_the_text_format_abp_gives_its_program(tmp_path, capsys, target):
    f = det_polynomial(3)
    path, out = tmp_path / "in.txt", tmp_path / "out.abp"
    partition = "x1_1,x1_2,x1_3|x2_1,x2_2,x2_3|x3_1,x3_2,x3_3"
    if target == "diagro":
        w = waring_of_monomial(3)
        path.write_text(format_waring_file(w))
        abp = build_diagro_from_waring(w, ("x1", "x2", "x3"))
    else:
        path.write_text(format_poly_file(f))
        abp = (build_commro_general(f) if target == "commro"
               else build_smabp(f, [[0, 1, 2], [3, 4, 5], [6, 7, 8]]))
    argv = ["build", target, str(path), "-o", str(out)]
    assert run(argv + (["--partition", partition] if target == "smabp" else [])) == 0
    assert out.read_bytes() == format_abp(abp).encode()


# SHA-256 of the generated files, as recorded before the generators wrote
# their terms directly
GEN_OUTPUTS = [
    (["det", "4"], "b8a0d4cb09481559a275f62a2d596b9d6f90fe29d4123eb7deb49e797e00beba"),
    (["perm", "4"], "c453335b587ec81cf9761c1b79ca1cebfcedc9ac3eb21df34afb8786f41d6f66"),
    (["palindrome", "10"], "c2ea8ae2cbab557c248f18401f704e9f212388ef62c9bc15d6dd35a0bfdd07e4"),
    (["monomial-waring", "4"], "2e578503884e218e46e8f75a0eeed1239512c3b9daf375d831b04dde3ea2cde5"),
]


@pytest.mark.parametrize("gen, sha256", GEN_OUTPUTS, ids=[" ".join(g) for g, _ in GEN_OUTPUTS])
def test_gen_output_is_byte_identical(tmp_path, gen, sha256):
    path = tmp_path / "out.txt"
    assert run(["gen", *gen, "-o", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


@pytest.mark.parametrize("gen", [["det", "10"], ["perm", "10"], ["palindrome", "30"],
                                 ["monomial-waring", "40"], ["monomial-waring", "9"],
                                 ["det", "1000000000"]],
                         ids=lambda gen: " ".join(gen))
def test_gen_refuses_above_the_term_cap_at_once(tmp_path, capsys, gen):
    out = tmp_path / "out.txt"
    start = time.perf_counter()
    assert run(["gen", *gen, "-o", str(out)]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--max-terms" in err and "Traceback" not in err
    assert not out.exists()


# monomial-waring counts the terms of its expansion check: 2^(n-1) powers
# of C(2n-1, n) monomials each, 823 680 at n = 8 and 6 223 360 at n = 9
@pytest.mark.parametrize("gen, terms", [(["det", "4"], 24), (["perm", "3"], 6),
                                        (["palindrome", "5"], 32),
                                        (["monomial-waring", "4"], 2 ** 3 * math.comb(7, 4)),
                                        (["monomial-waring", "5"], 2 ** 4 * math.comb(9, 5))],
                         ids=["det", "perm", "palindrome", "monomial-waring",
                              "monomial-waring-5"])
def test_gen_term_cap_is_the_term_count(tmp_path, capsys, gen, terms):
    out = str(tmp_path / "out.txt")
    assert run(["gen", *gen, "-o", out, "--max-terms", str(terms - 1)]) == 3
    assert run(["gen", *gen, "-o", out, "--max-terms", str(terms)]) == 0


def test_gen_det_round_trips(tmp_path, capsys):
    path = tmp_path / "det3.poly"
    assert run(["gen", "det", "3", "-o", str(path)]) == 0
    assert parse_poly_file(path.read_text()) == det_polynomial(3)


def test_gen_to_stdout(capsys):
    assert run(["gen", "palindrome", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("vars: x1 x2 y1 y2\n")


def test_gen_monomial_waring_expands(tmp_path):
    path = tmp_path / "w.waring"
    run(["gen", "monomial-waring", "4", "-o", str(path)])
    w = parse_waring_file(path.read_text())
    vars = ("x1", "x2", "x3", "x4")
    assert waring_expand(w, vars) == Poly.monomial(vars, (1, 1, 1, 1))


def test_usage_error_exit_code(capsys):
    assert run(["dpd"]) == 2
    assert run(["no-such-command"]) == 2
    assert run([]) == 2
    assert run(["gen", "det-tables", "2"]) == 2


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.poly"
    bad.write_text("vars: x1\nx1 + + x1\n")
    assert run(["dpd", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_vars_flag_for_headerless_files(tmp_path, capsys):
    raw = tmp_path / "raw.poly"
    raw.write_text("x1*x2\n")
    assert run(["dpd", str(raw), "--vars", "x1,x2"]) == 0
    assert capsys.readouterr().out == "4\n"
    assert run(["dpd", str(raw)]) == 2


def test_vars_flag_must_match_the_header(tmp_path, capsys):
    path = tmp_path / "h.poly"
    path.write_text("vars: a b\na*b\n")
    assert run(["dpd", str(path), "--vars", "x,y,z"]) == 2
    assert capsys.readouterr().err == "error: --vars x,y,z differs from the file's 'vars: a b'\n"
    assert run(["dpd", str(path), "--vars", "a,b"]) == 0
    assert capsys.readouterr().out == "4\n"


@pytest.mark.parametrize("header, bad", [("vars: a,b c", "a,b"), ("vars: a|b c", "a|b")],
                         ids=["comma", "bar"])
def test_a_header_name_that_is_not_an_identifier_exits_2(tmp_path, capsys, header, bad):
    # the body names only c, so nothing but the name rule refuses the file
    path, out = tmp_path / "f.poly", tmp_path / "f.abp"
    path.write_text(f"{header}\nc^2\n")
    for argv in (["build", "commro", str(path), "-o", str(out)], ["dpd", str(path)],
                 ["nisan", str(path), "--order", "c"]):
        assert run(argv) == 2
        assert capsys.readouterr().err == (f"error: variable name {bad!r} is not an identifier "
                                           "[A-Za-z][A-Za-z0-9_]*\n")
    assert not out.exists()


def test_an_order_variable_with_no_block_exits_2(tmp_path, capsys):
    # `order: x1,x2` with x2's blocks gone: x2's layer would be empty, which
    # the writer would print as `order: x1,`
    lines = X1X2_ABP.splitlines(keepends=True)
    path, against = tmp_path / "x1.abp", tmp_path / "x1x2.poly"
    path.write_text("".join(lines[:lines.index("layer x2 power 0\n")]))
    against.write_text("vars: x1 x2\nx1*x2\n")
    assert run(["verify", str(path), "--against", str(against), "--expand"]) == 2
    assert capsys.readouterr().err == "error: layer 2 has no term\n"


X1X2_ABP = format_abp(build_commro(parse_poly("x1*x2", ("x1", "x2"))))


@pytest.mark.parametrize("suffix, text, flags, message", [
    ("abp", re.sub(r"(?m)^u: \S+", "u: 1/0", X1X2_ABP), [], "zero denominator"),
    ("abp", re.sub(r"(?m)^v: \S+", "v: 1/0", X1X2_ABP), [], "zero denominator"),
    ("abp", re.sub(r"(?m)^(layer x1 power 0\n)\S+", r"\g<1>1/0", X1X2_ABP), [],
     "zero denominator"),
    ("abp", re.sub(r"(?m)^vars: .*", "vars: x1 x2 x1", X1X2_ABP), [], "'x1' is declared twice"),
    ("abp", re.sub(r"(?m)^order: .*", "order: x1,zz", X1X2_ABP), [], "unknown variable"),
    ("abp", X1X2_ABP.replace("layer x2 power 0", "layer x1 power 0"), [],
     "layer has two terms of 'x1' at power 0"),
    ("abp", X1X2_ABP.replace("layer x1 power 1\n0 1 0 0", "layer x1 power 1\n0 1 0"), [],
     "has 3 entries, expected 4"),
    ("abp", re.sub(r"(?m)^order: .*", "order: x1", X1X2_ABP), [], "'layer x2 power 0'"),
    ("abp", X1X2_ABP.replace("v: 0 0 0 1", "v: 0 0 0 2\nv: 0 0 0 1"), [], "'v: 0 0 0 1'"),
    ("abp", X1X2_ABP.replace("width: 4", "width: 4\nthis line is not a header"), [],
     "'this line is not a header'"),
    ("abp", re.sub(r"(?m)^order: .*", "order: x1,x2,x1", X1X2_ABP), [],
     "variable read by more than one layer"),
    ("waring", "waring d=2 n=2\n1/0: 1 1\n", [], "zero denominator"),
    ("waring", "waring d=2 n=2\n1: 1 1/0\n", [], "zero denominator"),
    ("waring", "waring d=2 n\n1: 1 1\n", [], "key=value"),
    ("waring", "waring d=3 n=2 d=2\n1: 1 1\n", [], "repeated waring header field 'd=2'"),
    ("waring", "waring d=2 n=2 foo=1\n1: 1 1\n", [], "unknown waring header field 'foo=1'"),
    ("waring", "waringfoo d=2 n=2\n1: 1 1\n", [], "'waringfoo'"),
    ("poly", "vars: x x\nx^2\n", [], "declared twice"),
    ("poly", "x^2\n", ["--vars", "x,x"], "declared twice"),
    ("poly", "x^2\n", ["--vars", "x,"], "variable name '' is not an identifier"),
    ("abp", X1X2_ABP.replace("layer x2 power 1", "layer c power 1"), [],
     "layer for unknown variable 'c'"),
    ("abp", X1X2_ABP.replace("layer x1 power 1", "layer x1 power -1"), [], "negative power"),
    ("abp", X1X2_ABP.replace("kind: commutative", "kind: set_multilinear")
     .replace("order: x1,x2", "order: x1|x2"), [],
     "set-multilinear layers must be linear with no constant term"),
    ("poly", "vars:\nx\n", [], "empty variable list"),
    ("poly", "vars: x y\n", [], "polynomial file has no expression"),
    ("waring", "", [], "missing 'waring' header"),
    ("waring", "waring d=2\n1: 1 1\n", [], "waring header lacks 'n'"),
    ("waring", "waring d=2 n=2\n1 1 1\n", [], "malformed waring term '1 1 1'"),
    ("waring", "waring d=2 n=2\n1: 1\n", [], "term has 1 coordinates, expected 2"),
], ids=["abp-u", "abp-v", "abp-layer", "abp-duplicate-vars", "abp-order",
        "abp-repeated-layer", "abp-short-row", "abp-unordered-layer",
        "abp-repeated-header", "abp-stray-header", "abp-order-repeats", "waring-coeff",
        "waring-form", "waring-header", "waring-repeated-field", "waring-unknown-field",
        "waring-magic-suffix", "poly-duplicate-vars", "vars-flag-duplicate",
        "vars-flag-empty-name", "abp-undeclared-variable", "abp-negative-power",
        "abp-set-multilinear-power-0", "poly-empty-vars", "poly-no-expression",
        "waring-empty", "waring-header-lacks-n", "waring-term-without-colon",
        "waring-short-term"])
def test_bad_input_exits_2_without_traceback(tmp_path, capsys, suffix, text, flags, message):
    path = tmp_path / f"input.{suffix}"
    path.write_text(text)
    against = tmp_path / "x1x2.poly"
    against.write_text("vars: x1 x2\nx1*x2\n")
    argv = {"abp": ["verify", str(path), "--against", str(against), "--expand"],
            "waring": ["build", "diagro", str(path), "-o", str(tmp_path / "out.abp")],
            "poly": ["dpd", str(path)]}[suffix] + flags
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize("text, flags, message", [
    ("vars: a b\na*b +\n\n  b^2 * $\n", [], "unexpected character '$' (at line 4, column 9)"),
    # the end of input lies just after the last token, not on a trailing blank line
    ("vars: a b\na*b +\n\n", [], "expected a term (at line 2, column 6)"),
    ("vars: a b\r\na*b\r\n+ a^\r\n", [], "expected an exponent (at line 3, column 5)"),
    ("\n\na*b c\n", ["--vars", "a,b"], "expected '+', '-' or end of input, got 'c' "
     "(at line 3, column 5)"),
], ids=["stray-character", "end-of-input", "crlf", "headerless"])
def test_poly_syntax_error_names_its_line_and_column_in_the_file(tmp_path, capsys, text, flags,
                                                                  message):
    path = tmp_path / "bad.poly"
    path.write_bytes(text.encode())
    assert run(["dpd", str(path), *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# refused argument values; each message is the whole of stderr
@pytest.mark.parametrize("argv, message", [
    (["build", "smabp", "AB", "-o", "OUT"], "smabp requires --partition"),
    (["build", "smabp", "AB", "-o", "OUT", "--partition", "a,b|b"], "partition parts overlap"),
    (["nisan", "SEVEN", "--all-orders"], "--all-orders is limited to 6 variables (720 orders)"),
    (["nisan", "AB", "--order", "a,a"], "order must list every variable exactly once"),
    (["gen", "det", "0"], "n must be at least 1"),
    (["gen", "palindrome", "0"], "n must be at least 1"),
    (["gen", "monomial-waring", "0"], "need at least one variable"),
    (["verify", "OUT", "--against", "AB", "--random-eval", "3", "--max-terms", "5"],
     "--max-terms applies to --expand only"),
    (["verify", "OUT", "--against", "AB", "--expand", "--max-power", "5"],
     "--max-power applies to --random-eval only"),
], ids=["smabp-without-partition", "partition-overlap", "all-orders-7-variables",
        "order-repeats", "gen-det-0", "gen-palindrome-0", "gen-monomial-waring-0",
        "verify-max-terms-without-expand", "verify-max-power-with-expand"])
def test_refused_arguments_exit_2_with_their_message(tmp_path, capsys, argv, message):
    files = {"AB": tmp_path / "ab.poly", "SEVEN": tmp_path / "seven.poly",
             "OUT": tmp_path / "out.abp"}
    files["AB"].write_text("vars: a b\na*b\n")
    files["SEVEN"].write_text("vars: a b c d e f g\na*b*c*d*e*f*g\n")
    assert run([str(files.get(arg, arg)) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_verify_fails_on_a_variable_order_other_than_the_programs(tmp_path, capsys):
    path, against = tmp_path / "x1x2.abp", tmp_path / "x2x1.poly"
    path.write_text(X1X2_ABP)
    against.write_text("vars: x2 x1\nx1*x2\n")
    assert run(["verify", str(path), "--against", str(against), "--expand"]) == 1
    assert capsys.readouterr().out == (
        "verify FAILED: variable mismatch ('x2', 'x1') vs ('x1', 'x2')\n")


# a width-2 general program for a*b whose layers do not commute: u^T A B v
# = 1 in the order a, b and u^T B A v = 0 in the order b, a
AB_GENERAL_ABP = """abp v1
kind: general
width: 2
vars: a b
order: a,b
u: 1 0
v: 1 0
layer a power 1
0 1
0 0
layer b power 1
0 0
1 0
"""


def test_verify_any_order_fails_on_a_program_that_holds_in_one_order(tmp_path, capsys):
    path, against = tmp_path / "ab.abp", tmp_path / "ab.poly"
    path.write_text(AB_GENERAL_ABP)
    against.write_text("vars: a b\na*b\n")
    argv = ["verify", str(path), "--against", str(against), "--expand"]
    assert run(argv) == 0
    assert capsys.readouterr().out == ("kind general: ok (no invariant to check)\n"
                                       "program expand: ok\nverify OK\n")
    assert run(argv + ["--any-order", "1"]) == 1
    assert capsys.readouterr().out == ("kind general: ok (no invariant to check)\n"
                                       "program expand: ok\n"
                                       "verify FAILED: order-0 (b,a) expansion differs\n")


def _row_edit(k: int, edit) -> str:
    """X1X2_ABP with row k of its `layer x1 power 1` block passed through edit."""
    lines = X1X2_ABP.splitlines()
    at = lines.index("layer x1 power 1") + 1 + k
    lines[at] = edit(lines[at])
    return "\n".join(lines) + "\n"


def _truncated_identity_copy() -> str:
    """X1X2_ABP cut one row short inside its later I block, `layer x2 power 0`."""
    lines = X1X2_ABP.splitlines()
    return "\n".join(lines[:lines.index("layer x2 power 0") + 4]) + "\n"


def _truncated_block_copy() -> str:
    """X1X2_ABP whose last block, `layer x2 power 1`, is `layer x1 power 1` one row short."""
    lines = X1X2_ABP.splitlines()
    at = lines.index("layer x1 power 1") + 1
    return "\n".join(lines[:lines.index("layer x2 power 1") + 1] + lines[at:at + 3]) + "\n"


# each message is the one helpers.reference_parse_abp, which splits every row, gives
@pytest.mark.parametrize("text, message", [
    (X1X2_ABP.replace("abp v1", "abp\tv1"), "not an abp v1 file"),
    (X1X2_ABP.replace("width: 4", "width: 0"), "abp width must be positive, got 0"),
    (X1X2_ABP.replace("width: 4", "width: -4"), "abp width must be positive, got -4"),
    (X1X2_ABP.replace("width: 4", "width: 99999999999"),
     "row 1 of 'layer x1 power 0' has 4 entries, expected 99999999999"),
    *[(_row_edit(k, lambda row: row[:-2]),
       f"row {k + 1} of 'layer x1 power 1' has 3 entries, expected 4") for k in (0, 2, 3)],
    *[(_row_edit(k, lambda row: row + " 5"),
       f"row {k + 1} of 'layer x1 power 1' has 5 entries, expected 4") for k in (0, 2, 3)],
    ("\n".join(X1X2_ABP.splitlines()[:-2]) + "\n", "truncated layer block"),
    (_truncated_identity_copy(), "truncated layer block"),
    (_truncated_block_copy(), "truncated layer block"),
    (_row_edit(2, lambda row: "layer x2 power 1\n" + row), "Invalid literal for Fraction: 'layer'"),
    (_row_edit(0, lambda row: row.replace("1", "1/0")), "rational '1/0' has a zero denominator"),
], ids=["tab-magic", "width-0", "width-negative", "width-huge", "short-first-row",
        "short-middle-row", "short-last-row", "long-first-row", "long-middle-row",
        "long-last-row", "truncated-block", "truncated-identity-copy", "truncated-block-copy",
        "layer-header-in-block",
        "zero-denominator"])
def test_malformed_abp_exits_2_with_its_message(tmp_path, capsys, text, message):
    path, against = tmp_path / "bad.abp", tmp_path / "x1x2.poly"
    path.write_text(text)
    against.write_text("vars: x1 x2\nx1*x2\n")
    start = time.perf_counter()
    assert run(["verify", str(path), "--against", str(against), "--random-eval", "1"]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.fixture(scope="module")
def edited_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("edited")


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_verify_exits_0_1_2_or_3_on_edited_programs(edited_dir, data):
    # the exit-code contract: an exit code, never an exception.  Against
    # the unedited program's polynomial, an edit can leave the program
    # verifying (0), change it (1) or break the text (2)
    abp = data.draw(st.sampled_from([WIDE_RATIONALS, SMALL]).flatmap(rational_commutative_programs))
    path, against = edited_dir / "edited.abp", edited_dir / "against.poly"
    path.write_bytes(data.draw(edited_abp_texts(abp)).encode())
    against.write_text(format_poly_file(expand_abp(abp)))
    assert run(["verify", str(path), "--against", str(against), "--random-eval", "2"]) in {0, 1, 2, 3}


def _mutant(abp, kind: str, rng: random.Random):
    """abp with one seeded edit, or None when it has no power of 2 or more to double.

    The edit flips an entry's sign, zeroes a row, moves an entry of u or v,
    swaps two layers' variables or doubles a power A_k (k >= 2), which is
    then no power step.
    """
    if kind in ("u entry", "v entry"):
        vec = list(abp.u if kind == "u entry" else abp.v)
        vec[rng.randrange(abp.width)] += rng.choice([-2, -1, 1, Fraction(1, 3)])
        return replace(abp, **{kind[0]: tuple(vec)})
    if kind == "swap variables":
        a, b = (next(iter(abp.layers[i].variables()))
                for i in rng.sample(range(len(abp.layers)), 2))
        swap = {a: b, b: a}
        return replace(abp, layers=tuple(Layer([(swap.get(var, var), k, m)
                                                for var, k, m in layer.terms])
                                         for layer in abp.layers))
    # an entry of a matrix of power >= 1: its sign flipped, or its whole row zeroed;
    # or a whole matrix of power >= 2 doubled
    if kind == "double power":
        spots = [(li, ti, 0, 0) for li, layer in enumerate(abp.layers)
                 for ti, (_, k, _) in enumerate(layer.terms) if k >= 2]
    else:
        spots = [(li, ti, i, j) for li, layer in enumerate(abp.layers)
                 for ti, (_, k, m) in enumerate(layer.terms) if k >= 1
                 for i, row in enumerate(m.entries) for j in row]
    if not spots:
        return None
    li, ti, i, j = rng.choice(spots)
    layers, terms = list(abp.layers), list(abp.layers[li].terms)
    var, k, m = terms[ti]
    rows = [dict(row) for row in m.entries]
    if kind == "flip sign":
        rows[i][j] = -rows[i][j]
    elif kind == "zero row":
        rows[i] = {}
    else:
        rows = [{c: 2 * x for c, x in row.items()} for row in rows]
    terms[ti] = (var, k, QMatrix.sparse(m.rows, m.cols, rows, m.den))
    layers[li] = Layer(terms)
    return replace(abp, layers=tuple(layers))


def _similar(abp, rng: random.Random):
    """S M S^-1 for every matrix M, u^T S^-1 and S v, for a seeded integer S: the same polynomial."""
    n = abp.width
    while True:
        s = QMatrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if (s_inv := inverse(s)) is not None:
            break
    s_t = QMatrix([list(column) for column in zip(*s.data)])
    return replace(abp, u=tuple(vec_mat(list(abp.u), s_inv)), v=tuple(vec_mat(list(abp.v), s_t)),
                   layers=tuple(Layer([(var, k, s @ m @ s_inv) for var, k, m in layer.terms])
                                for layer in abp.layers))


MUTATIONS = ("flip sign", "zero row", "v entry", "swap variables", "u entry", "double power")


def test_verify_catches_every_mutant_that_changes_the_polynomial(tmp_path):
    # seeded edits of built programs: whenever the edit changes the computed
    # polynomial (expand_abp is the oracle), verify exits 1 by random
    # evaluation and by expansion; a similarity transform changes nothing and
    # still exits 0
    rng = random.Random(17)
    later = random.Random(19)  # the last two kinds' draws, so the first four's stay as they were
    programs = [(f, build_commro_general(f)) for f in (
        palindrome(3), det_polynomial(2), parse_poly("1/2*x1^2*x2 - 3/5*x2*x3 + 7/3*x3 - 1",
                                                      ("x1", "x2", "x3")),
        *[random_poly(rng, 3, 3, 5, homogeneous=False) for _ in range(2)])]
    monomial = waring_of_monomial(3)
    programs.append((waring_expand(monomial, ("x1", "x2", "x3")),
                     build_diagro_from_waring(monomial, ("x1", "x2", "x3"))))
    path, against = tmp_path / "mutant.abp", tmp_path / "f.poly"

    def verify(abp, f) -> list[int]:
        path.write_text(format_abp(abp))
        against.write_text(format_poly_file(f))
        with contextlib.redirect_stdout(io.StringIO()):
            return [run(["verify", str(path), "--against", str(against), *how])
                    for how in (["--random-eval", "2"], ["--expand"])]

    tally = {kind: [0, 0, 0] for kind in MUTATIONS}  # mutants, changed f, killed
    for f, abp in programs:
        for kind in MUTATIONS:
            for _ in range(3):
                mutant = _mutant(abp, kind, rng if kind in MUTATIONS[:4] else later)
                if mutant is None:
                    break
                changed = expand_abp(mutant) != f
                if kind == "double power" and abp.kind == "commutative":
                    # the doubled power, a power step before, joins the basis
                    assert check_kind(mutant).power_steps < check_kind(abp).power_steps
                codes = verify(mutant, f)
                if changed:
                    assert codes == [1, 1], (kind, format_abp(mutant))
                # an unchanged polynomial leaves only the kind check to decide
                assert codes[0] == codes[1]
                tally[kind] = [t + x for t, x in zip(tally[kind], (1, changed, codes == [1, 1]))]
        if abp.kind == "commutative":
            assert verify(_similar(abp, rng), f) == [0, 0]
    for kind, (mutants, changed, killed) in tally.items():
        print(f"{kind}: {killed} of {mutants} mutants killed, {changed} changed f")
        assert changed > 0


# the exit-code contract of every subcommand on any input file: IN is the
# fuzzed file, the other inputs are valid and every cap is small.  A
# fuzzed file is bytes, text, or text of the format: its alphabet, or
# terms of its grammar, after a header that leads into the format (a
# headerless .poly, whose variables --vars names a, b and c, has none)
_RATIONALS = st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 9))
POLY_TEXTS = st.one_of(
    st.text("abc0123456789+-*/^ \n"),
    st.lists(st.builds("{}*a^{}*b^{}*c^{}".format, st.integers(-9, 9),
                       *[st.integers(0, 12)] * 3), min_size=1, max_size=6).map(" + ".join))
WARING_TEXTS = st.one_of(
    st.text("0123456789/-: \n"),
    st.lists(st.builds("{}: {} {} {}".format, *[_RATIONALS] * 4), min_size=1,
             max_size=6).map("\n".join)).map("waring d=2 n=3\n".__add__)
A_ABP = "abp v1\nkind: commutative\nwidth: 1\nvars: a b c\norder: a,b,c\nu: 1\nv: 1\n"
ABP_TEXTS = st.one_of(st.text("0123456789/- \n"), _RATIONALS).map(
    (A_ABP + "layer a power 1\n").__add__)
FUZZED = [
    (["dpd", "IN", "--vars", "a,b,c", "--max-width", "32"], POLY_TEXTS),
    (["normal-set", "IN", "--vars", "a,b,c", "--max-width", "32"], POLY_TEXTS),
    (["tables", "IN", "-o", "OUT", "--vars", "a,b,c", "--max-width", "32",
      "--max-entries", "4096"], POLY_TEXTS),
    (["build", "commro", "IN", "-o", "OUT", "--vars", "a,b,c", "--max-width", "32"], POLY_TEXTS),
    (["build", "smabp", "IN", "-o", "OUT", "--vars", "a,b,c", "--partition", "a|b|c",
      "--max-width", "32"], POLY_TEXTS),
    (["build", "diagro", "IN", "-o", "OUT", "--max-width", "32", "--max-entries", "4096"],
     WARING_TEXTS),
    (["nisan", "IN", "--vars", "a,b,c", "--order", "a,b,c"], POLY_TEXTS),
    (["nisan", "IN", "--vars", "a,b,c", "--all-orders"], POLY_TEXTS),
    (["verify", "IN", "--against", "A_POLY", "--expand", "--max-terms", "4096"], ABP_TEXTS),
    (["verify", "A_ABP", "--against", "IN", "--vars", "a,b,c", "--random-eval", "2",
      "--max-power", "32"], POLY_TEXTS),
]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzzed")
    (directory / "a.poly").write_text("vars: a b c\na\n")
    (directory / "a.abp").write_text(A_ABP + "layer a power 1\n1\n")
    return directory


@pytest.mark.parametrize("argv, texts", FUZZED,
                         ids=["dpd", "normal-set", "tables", "build-commro", "build-smabp",
                              "build-diagro", "nisan-order", "nisan-all-orders",
                              "verify-expand", "verify-random-eval"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_every_subcommand_exits_0_1_2_or_3_on_any_input(fuzz_dir, argv, texts, data):
    content = data.draw(st.one_of(st.binary(), st.text().map(str.encode), texts.map(str.encode)))
    (fuzz_dir / "in").write_bytes(content)
    files = {"IN": fuzz_dir / "in", "OUT": fuzz_dir / "out", "A_POLY": fuzz_dir / "a.poly",
             "A_ABP": fuzz_dir / "a.abp"}
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = run([str(files.get(arg, arg)) for arg in argv])
    assert code in {0, 1, 2, 3} and "Traceback" not in out.getvalue()


def test_verify_of_a_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    path, against = tmp_path / "bad.abp", tmp_path / "x1x2.poly"
    path.write_bytes(_row_edit(0, lambda row: row.replace("1", "\xff")).encode("latin-1"))
    against.write_text("vars: x1 x2\nx1*x2\n")
    assert run(["verify", str(path), "--against", str(against), "--random-eval", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


ONE_LAYER_ABP = """abp v1
kind: commutative
width: 1
vars: x
order: x
u: 1
v: 1
layer x power 0
1
layer x power 1
{token}
"""


@pytest.mark.parametrize("token", ["1.5", "1e400", "1_000", "+3", "00", "-0", "0/5", "-7/2",
                                   "12"])
def test_abp_entry_tokens_keep_their_values(tmp_path, capsys, token):
    # every token Fraction() reads keeps its value, plain integers included,
    # and a zero-valued token stores nothing
    value = Fraction(token)
    text = ONE_LAYER_ABP.format(token=token)
    mat = parse_abp(text).layers[0].terms[1][2]
    assert mat[0, 0] == value
    if not value:
        assert mat.entries == ({},) and mat.den == 1
    path, against = tmp_path / "one.abp", tmp_path / "one.poly"
    path.write_text(text)
    against.write_text(format_poly_file(Poly(("x",), {(0,): 1, (1,): value})))
    assert run(["verify", str(path), "--against", str(against), "--expand"]) == 0
    assert capsys.readouterr().out.endswith("verify OK\n")


@pytest.mark.parametrize("name, text, argv", [
    ("huge.abp", ONE_LAYER_ABP.format(token="1e10000000"),
     ["verify", "{path}", "--against", "{against}", "--random-eval", "1"]),
    ("huge.waring", "waring d=2 n=2\n1e10000000: 1 1\n",
     ["build", "diagro", "{path}", "-o", "{out}"]),
], ids=["abp-entry", "waring-coefficient"])
def test_huge_exponent_tokens_are_refused_at_once(tmp_path, capsys, name, text, argv):
    # Fraction() would expand the token into a 10^7-digit number
    path, against = tmp_path / name, tmp_path / "x.poly"
    path.write_text(text)
    against.write_text("vars: x\nx + 1\n")
    names = {"path": str(path), "against": str(against), "out": str(tmp_path / "out.abp")}
    start = time.perf_counter()
    assert run([arg.format(**names) for arg in argv]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "'1e10000000'" in err and "exponent" in err and "Traceback" not in err


@pytest.fixture()
def default_int_digit_limit():
    """Python's default limit on int <-> str conversion (4300 digits), restored afterwards."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)


def test_abp_entries_beyond_the_int_string_limit_are_read(tmp_path, capsys,
                                                          default_int_digit_limit):
    digits = "1" + "0" * 4998 + "7"  # 5000 digits
    path, against = tmp_path / "wide.abp", tmp_path / "wide.poly"
    path.write_text(ONE_LAYER_ABP.format(token=digits))
    against.write_text(f"vars: x\n{digits}*x + 1\n")
    assert run(["verify", str(path), "--against", str(against), "--expand"]) == 0
    assert capsys.readouterr().out.endswith("verify OK\n")


def test_dpd_basis_beyond_the_int_string_limit(tmp_path, capsys, default_int_digit_limit):
    # the k-th derivative of x^1600 has the coefficient 1600!/(1600 - k)!, and
    # 1600! has 4434 digits
    path = tmp_path / "power.poly"
    path.write_text("vars: x y\nx^1600\n")
    assert run(["dpd", str(path), "--basis"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "1601" and len(lines) == 1602
    assert lines[-1] == str(math.factorial(1600))
    assert lines[-2] == f"{math.factorial(1600)}*x"


@pytest.mark.parametrize("token, message", [
    ("1/0", "error: rational '1/0' has a zero denominator"),
    ("nan", "error: Invalid literal for Fraction: 'nan'"),
    ("1/-2", "error: Invalid literal for Fraction: '1/-2'"),
    ("1/+2", "error: Invalid literal for Fraction: '1/+2'"),
    ("1/_2", "error: Invalid literal for Fraction: '1/_2'"),
])
def test_abp_entry_tokens_that_are_not_rationals_exit_2(tmp_path, capsys, token, message):
    path, against = tmp_path / "one.abp", tmp_path / "one.poly"
    path.write_text(ONE_LAYER_ABP.format(token=token))
    against.write_text("vars: x\nx + 1\n")
    assert run(["verify", str(path), "--against", str(against), "--expand"]) == 2
    err = capsys.readouterr().err
    assert err == message + "\n" and "Traceback" not in err


@pytest.mark.parametrize("command, flag, value", [
    (["dpd", "{poly}"], "--max-width", "0"),
    (["normal-set", "{poly}"], "--max-width", "-1"),
    (["build", "commro", "{poly}", "-o", "{abp}"], "--max-width", "-5"),
    (["tables", "{poly}"], "--max-entries", "0"),
    (["tables", "{poly}"], "--max-entries", "-1"),
    (["build", "diagro", "{poly}", "-o", "{abp}"], "--max-entries", "0"),
    (["verify", "{abp}", "--against", "{poly}", "--expand"], "--max-terms", "0"),
    (["verify", "{abp}", "--against", "{poly}", "--random-eval", "1"], "--max-power", "-1"),
    (["verify", "{abp}", "--against", "{poly}", "--expand"], "--any-order", "-1"),
    # a random evaluation at no point would check nothing
    (["verify", "{abp}", "--against", "{poly}"], "--random-eval", "0"),
    (["verify", "{abp}", "--against", "{poly}"], "--random-eval", "-3"),
    (["dpd", "{poly}"], "--max-width", "x"),
], ids=["dpd-width-0", "normal-set-width-neg", "build-width-neg", "tables-entries-0",
        "tables-entries-neg", "build-entries-0", "verify-terms-0", "verify-power-neg",
        "verify-any-order-neg", "verify-random-eval-0", "verify-random-eval-neg",
        "dpd-width-not-int"])
def test_nonsense_cap_exits_2_naming_the_flag(tmp_path, det2_file, capsys, command, flag, value):
    abp = str(tmp_path / "det2.abp")
    assert run(["build", "commro", det2_file, "-o", abp]) == 0
    capsys.readouterr()
    argv = [arg.format(poly=det2_file, abp=abp) for arg in command] + [flag, value]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert f"argument {flag}" in captured.err and "Traceback" not in captured.err
    assert "verify OK" not in captured.out


def test_smallest_caps_are_accepted(tmp_path, det2_file, capsys):
    abp = str(tmp_path / "det2.abp")
    assert run(["build", "commro", det2_file, "-o", abp, "--max-width", "6"]) == 0
    # det2's layers have power at most 1, so a cap of 0 refuses (exit 3), not misparses
    assert run(["verify", abp, "--against", det2_file, "--random-eval", "1",
                "--max-power", "0"]) == 3
    assert "--max-power" in capsys.readouterr().err
    assert run(["verify", abp, "--against", det2_file, "--random-eval", "1",
                "--max-power", "1"]) == 0


def test_random_eval_caps_the_against_exponents(tmp_path, capsys):
    # the width-1 program computes x; random evaluation of the polynomial
    # raises each coordinate to its exponents, so they fall under --max-power too
    program, against = tmp_path / "x.abp", tmp_path / "against.poly"
    program.write_text(POWER_BOMB_ABP.replace("power 100000000", "power 1"))
    argv = ["verify", str(program), "--against", str(against), "--random-eval", "1"]
    against.write_text("vars: x\nx^3000000\n")
    start = time.perf_counter()
    assert run(argv + ["--max-power", "5"]) == 3
    assert run(argv) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "--max-power" in err and "--against" in err and "Traceback" not in err
    against.write_text("vars: x\nx^2\n")
    assert run(argv + ["--max-power", "1"]) == 3
    assert run(argv + ["--max-power", "2"]) == 1  # within the cap, and x differs from x^2
    against.write_text("vars: x\nx\n")
    assert run(argv + ["--max-power", "1"]) == 0


# dpd --basis of a rational input that is not multilinear, as the closure
# printed it before it ran in divided powers
RATIONAL_QUARTIC = ("vars: a b c\n2/3*a^4 + 5/11*a^3*b - 7/2*a*b^2*c + 1/13*b^4 + 3/8*c^4 "
                    "- 9/10*a^2*c^2 + 4/15*b*c^3\n")
RATIONAL_QUARTIC_BASIS = """\
14
3/8*c^4 + 4/15*b*c^3 - 9/10*a^2*c^2 - 7/2*a*b^2*c + 1/13*b^4 + 5/11*a^3*b + 2/3*a^4
-9/5*a*c^2 - 7/2*b^2*c + 15/11*a^2*b + 8/3*a^3
4/15*c^3 - 7*a*b*c + 4/13*b^3 + 5/11*a^3
3/2*c^3 + 4/5*b*c^2 - 9/5*a^2*c - 7/2*a*b^2
-9/5*c^2 + 30/11*a*b + 8*a^2
-7*b*c + 15/11*a^2
-18/5*a*c - 7/2*b^2
-7*a*c + 12/13*b^2
4/5*c^2 - 7*a*b
9/2*c^2 + 8/5*b*c - 9/5*a^2
30/11*b + 16*a
30/11*a
-18/5*c
16
"""


def test_dpd_basis_of_rational_input_is_pinned(tmp_path, capsys):
    path = tmp_path / "quartic.poly"
    path.write_text(RATIONAL_QUARTIC)
    assert run(["dpd", str(path), "--basis"]) == 0
    assert capsys.readouterr().out == RATIONAL_QUARTIC_BASIS


# SHA-256 of the stdout of normal-set and tables, as recorded before the
# derivative basis dropped its rows and normal_set its homogeneity check
ANALYSIS_OUTPUTS = [
    ("det3", "normal-set", "11f32bed105292d64e93918e30fd7d9603003eb50171332e5a1d29a623267dd2"),
    ("det3", "tables", "5dda8a8dec79cfef7ea1eb96ac763c55be907e29d9910deb1876a97a10e8c240"),
    ("pal3", "normal-set", "7e26ba4296e06e98b3dbcfa3ee8415336287c69abc7dc294ab3fede599a1882d"),
    ("pal3", "tables", "4c3946d1f78710474f48bf589e4e9ca75194d5c16bda2772a0a185f1e6265f54"),
    ("quartic", "normal-set", "1ba92cad3c9677cdcb784369904447621a0c87546e3c75dffca87fa4fe9e8800"),
    ("quartic", "tables", "aeab01966ef1121d3827398f9c2e1176b510e48aa783469609626653ff736f96"),
]


@pytest.mark.parametrize("name, command, sha256", ANALYSIS_OUTPUTS,
                         ids=[f"{name}-{command}" for name, command, _ in ANALYSIS_OUTPUTS])
def test_analysis_output_is_pinned(tmp_path, capsys, name, command, sha256):
    text = {"det3": format_poly_file(det_polynomial(3)),
            "pal3": format_poly_file(palindrome(3)), "quartic": RATIONAL_QUARTIC}[name]
    path = tmp_path / "input.poly"
    path.write_text(text)
    assert run([command, str(path)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256


# SHA-256 of the .abp text built from rational inputs with exponents up to
# 4 (the first one not homogeneous), as recorded before the quotient was
# read off the reduced echelon form; the benchmark's corpus has integer
# coefficients only
RATIONAL_BUILDS = [
    ("commro", "vars: x y z\n3/4*x^4 - 5/7*x^2*y*z + 2/9*y^3 + 1/6*x*z^2 - 11/5*z + 7/3\n", None,
     "a765307b81151ee05c2bb5db3dd3a9b7e2ee8b07244f8906e0bcd59c422533b2"),
    ("commro", RATIONAL_QUARTIC, None,
     "829230076b292ad4e96737b2187e196e85ead27a4f4ad86fc390c89d3acf9967"),
    ("commro", "vars: x1 x2 y1 y2 z1\n1/2*x1*y1*z1 - 3/5*x1*y2*z1 + 7/4*x2*y1*z1 "
     "+ 2/9*x2*y2*z1\n", None,
     "fcd78c494f388a481418f8f3b1737c279c601b1da12ee07bf86ecad641eaf24b"),
    ("smabp", "vars: x1 x2 y1 y2 z1\n1/2*x1*y1*z1 - 3/5*x1*y2*z1 + 7/4*x2*y1*z1 "
     "+ 2/9*x2*y2*z1\n", "x1,x2|y1,y2|z1",
     "4c8b268143853e40fa558166918d6d29ada82eddcc424f25394e3c6d3f025d39"),
    # recorded before the diagonal weights were read off the Vandermonde inverse
    ("diagro", "waring d=3 n=4\n3/4: 1 -2/5 0 5\n-5/7: 0 1 3 -1\n2/9: -1 1/2 -7/3 0\n"
     "-11/6: 2/3 0 -1 1/4\n", None,
     "d1f872aaba5fa332195c49072fa2019e7e7351101f74ebf2ddf5982eb726b800"),
]


@pytest.mark.parametrize("target, text, partition, sha256", RATIONAL_BUILDS,
                         ids=["commro-nonhomogeneous", "commro-quartic", "commro-multilinear",
                              "smabp-multilinear", "diagro-rational"])
def test_build_of_rational_input_is_byte_identical(tmp_path, capsys, target, text, partition,
                                                   sha256):
    path, abp = tmp_path / "input.poly", tmp_path / "out.abp"
    path.write_text(text)
    argv = ["build", target, str(path), "-o", str(abp)]
    assert run(argv + (["--partition", partition] if partition else [])) == 0
    assert hashlib.sha256(abp.read_bytes()).hexdigest() == sha256


BENCHMARK_GOLDENS = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "goldens.json").read_text())
CORPUS_BUILDS = [("det4", name, gen, "commro", []) for name, gen in
                 [("det3", ["det", "3"]), ("perm3", ["perm", "3"]), ("det4", ["det", "4"])]]
CORPUS_BUILDS += [("palindrome", f"pal{n}", ["palindrome", str(n)], target, extra)
                  for n in (5, 6)
                  for target, extra in [("commro", []), ("smabp", [
                      "--partition", "|".join(f"x{i},y{i}" for i in range(1, n + 1))])]]


@pytest.mark.parametrize("workload, name, gen, target, extra", CORPUS_BUILDS,
                         ids=[f"{name}.{target}" for _, name, _, target, _ in CORPUS_BUILDS])
def test_benchmark_corpus_builds_match_its_goldens(tmp_path, capsys, workload, name, gen,
                                                   target, extra):
    # the det4 and palindrome corpora's programs, built as the benchmark builds
    # them, against the SHA-256 it records for each
    poly, abp = tmp_path / f"{name}.poly", tmp_path / f"{name}.{target}.abp"
    assert run(["gen", *gen, "-o", str(poly)]) == 0
    assert run(["build", target, str(poly), "-o", str(abp), *extra]) == 0
    sha256, width = BENCHMARK_GOLDENS[workload][abp.name]
    assert parse_abp(abp.read_text()).width == width
    assert hashlib.sha256(abp.read_bytes()).hexdigest() == sha256
