import contextlib
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invbargraph import cli, invseq, kernel, recur, verify
from invbargraph import gfseries as gf
from invbargraph.invseq import InversionSequence, Permutation
from invbargraph.mpoly import MPoly
from invbargraph.recur import (
    DistTable,
    a_table_lemma,
    row_poly,
    total_area,
    total_ascents,
    total_descents,
    total_levels,
    total_sper,
)

README = Path(__file__).resolve().parent.parent / "README.md"
SCI_NOTATION = re.compile(r"\d[eE][+-]?\d")
NOT_A_RATIONAL = "error: not a rational (use num or num/den, at most 30 digits each): "


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_n3(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "-n", "3")
    assert code == 0
    assert out.splitlines() == ["1,1,1", "1,1,2", "1,1,3", "1,2,1", "1,2,2", "1,2,3"]


def test_enumerate_n1(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "-n", "1")
    assert (code, out.strip()) == (0, "1")


def test_enumerate_guard(capsys):
    code, _, err = run_cli(capsys, "enumerate", "-n", "20")
    assert code == 2
    assert "n must be" in err


def test_enumerate_bound_is_measured(capsys):
    assert run_cli(capsys, "enumerate", "-n", "11") == (2, "", "error: n must be in 1..10\n")


def test_enumerate_json(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "-n", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == [[1, 1], [1, 2]]


def test_stats_worked_example(capsys):
    code, out, _ = run_cli(capsys, "stats", "1,2,1,3,5,3")
    assert code == 0
    assert json.loads(out) == {
        "area": 15, "sper": 12, "levels": 0, "descents": 2, "ascents": 3,
    }


def test_stats_invalid_sequence(capsys):
    code, _, err = run_cli(capsys, "stats", "2")
    assert code == 2 and "position 1" in err


def test_dist_initial_cell(capsys):
    code, out, _ = run_cli(capsys, "dist", "area-sper", "-n", "1")
    assert (code, out.strip()) == (0, "1,1,p*q^2")


def test_dist_lda_n2(capsys):
    code, out, _ = run_cli(capsys, "dist", "lda", "-n", "2")
    assert code == 0
    assert out.splitlines() == ["1,1,1", "2,1,p", "2,2,r"]


def test_dist_engines_byte_identical(capsys):
    outputs = []
    for engine in ("brute", "lemma", "threeterm"):
        code, out, _ = run_cli(capsys, "dist", "lda", "-n", "7", "--engine", engine)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_dist_csv_round_trips(capsys):
    code, out, _ = run_cli(capsys, "dist", "area-sper", "-n", "5")
    assert code == 0
    assert DistTable.from_csv(out) == a_table_lemma(5)


def test_dist_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "dist", "area-sper", "-n", "4", "--format", "json")
    assert code == 0
    entries = json.loads(out)
    table = a_table_lemma(4)
    assert [(e["n"], e["i"]) for e in entries] == [(m, i) for m, i, _ in table.cells()]
    for entry in entries:
        assert MPoly.from_json_obj(entry["poly"]) == table[entry["n"], entry["i"]]


# sha256 of `dist` output as written by per-term formatting (json.dumps of one
# dict per term); a faster text form must reproduce it byte for byte.
@pytest.mark.parametrize("kind,n,fmt,digest", [
    ("area-sper", 12, "csv", "8aeb11268289c6d9e0a5a2767ca74a887b63a456e9eb66b2540a6cac4bd8be3d"),
    ("area-sper", 12, "json", "190ac0fb0e051f6b75b6851e491b68450c4ff2ad97f75978ac2ed12813fbb8b9"),
    ("lda", 14, "csv", "12fdde98a69d6145d9e13d1ac37908470090449dcdfa3d6d728e54d7add30b4d"),
    ("lda", 14, "json", "1892c8afb9bdc4804908263723eeb2aaea1c40cbe7e4ace97ef81057f9b8f2e6"),
])
def test_dist_output_bytes_pinned(capsys, kind, n, fmt, digest):
    code, out, err = run_cli(capsys, "dist", kind, "-n", str(n), "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_dist_brute_guard(capsys):
    cap = kernel.MAX_N if kernel.BACKEND == "c" else cli.BRUTE_MAX_PYTHON
    assert run_cli(capsys, "dist", "lda", "-n", str(cap + 1), "--engine", "brute") == (
        2, "", f"error: brute enumeration is limited to n <= {cap}\n")


def test_dist_brute_guard_on_the_pure_kernel(tmp_path, fresh_copy):
    """Without a compiler the pure-Python kernel runs, and it has its own cap.

    Its two walks take 71-77x as long as the C ones at n = 9 and 176-199x at
    n = 10 (in process, two runs).
    """
    n = str(cli.BRUTE_MAX_PYTHON + 1)
    proc = subprocess.run(
        [sys.executable, "-m", "invbargraph", "dist", "lda", "-n", n, "--engine", "brute"],
        env=fresh_copy(with_cc=False), cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr.splitlines()) == (2, "", [
        "invbargraph: C kernel unavailable ([Errno 2] No such file or directory: 'cc'); "
        "using the pure-Python kernel",
        f"error: brute enumeration is limited to n <= {cli.BRUTE_MAX_PYTHON}",
    ])


@pytest.mark.parametrize("kind,cap", [("area-sper", cli.AREA_SPER_TABLE_MAX),
                                      ("lda", cli.LDA_TABLE_MAX)], ids=["area-sper", "lda"])
def test_dist_table_caps(capsys, monkeypatch, kind, cap):
    code, out, err = run_cli(capsys, "dist", kind, "-n", str(cap))
    assert (code, err) == (0, "") and len(out.splitlines()) == cap * (cap + 1) // 2
    # Every cell, up to the lda table's 2- and 3-word coefficients, is read by
    # kernel.parse_terms itself (the compiled reader where it is built), and
    # reading the table back gives its bytes.
    read = kernel.parse_terms

    def read_all(*args):
        terms = read(*args)
        assert terms is not None, args[0]
        return terms

    monkeypatch.setattr(kernel, "parse_terms", read_all)
    assert DistTable.from_csv(out).to_csv() == out
    assert run_cli(capsys, "dist", kind, "-n", str(cap + 1), "--engine", "threeterm") == (
        2, "", f"error: {kind} tables are limited to n <= {cap}\n")


def test_readme_states_the_dist_caps():
    text = " ".join(README.read_text().split())
    stated = {kind: int(n) for n, kind in re.findall(r"n <= (\d+) for `(area-sper|lda)`", text)}
    assert stated == {"area-sper": cli.AREA_SPER_TABLE_MAX, "lda": cli.LDA_TABLE_MAX}


def test_totals(capsys):
    code, out, _ = run_cli(capsys, "totals", "-n", "3")
    assert code == 0
    assert json.loads(out) == {
        "area": "27", "sper": "31", "levels": "5", "descents": "1", "ascents": "6",
    }


def test_totals_n1(capsys):
    code, out, _ = run_cli(capsys, "totals", "-n", "1")
    assert json.loads(out) == {
        "area": "1", "sper": "2", "levels": "0", "descents": "0", "ascents": "0",
    }


def test_totals_max_prints(capsys):
    code, out, _ = run_cli(capsys, "totals", "-n", str(cli.TOTALS_MAX))
    assert code == 0
    assert set(json.loads(out)) == {"area", "sper", "levels", "descents", "ascents"}


def test_totals_guard(capsys):
    code, out, err = run_cli(capsys, "totals", "-n", str(cli.TOTALS_MAX + 1))
    assert code == 2 and out == ""
    assert err == f"error: n must be in 1..{cli.TOTALS_MAX}\n"


def test_totals_max_is_the_digit_limit():
    # the default int->str limit is 4300 digits; TOTALS_MAX is the last n under it
    totals = (total_area, total_sper, total_levels, total_descents, total_ascents)
    assert all(abs(f(cli.TOTALS_MAX)) < 10 ** 4300 for f in totals)
    assert any(abs(f(cli.TOTALS_MAX + 1)) >= 10 ** 4300 for f in totals)


def test_map_f_example(capsys):
    code, out, _ = run_cli(capsys, "map", "f", "1,2,2,4,3,3,7,7")
    assert (code, out.strip()) == (0, "(1,2)(3,5,4)(6,7)(8)")


def test_map_f_inverse(capsys):
    code, out, _ = run_cli(capsys, "map", "f-inverse", "(1,2)(3,5,4)(6,7)(8)")
    assert (code, out.strip()) == (0, "1,2,2,4,3,3,7,7")


def test_map_g_example(capsys):
    code, out, _ = run_cli(capsys, "map", "g", "1,2,1,4,2,4,7,3")
    assert (code, out.strip()) == (0, "4,6,1,7,2,5,8,3")


def test_map_g_inverse(capsys):
    code, out, _ = run_cli(capsys, "map", "g-inverse", "4,6,1,7,2,5,8,3")
    assert (code, out.strip()) == (0, "1,2,1,4,2,4,7,3")


def test_map_partial_involution_undefined(capsys):
    code, out, _ = run_cli(capsys, "map", "levels-involution", "1,2,1")
    assert (code, out.strip()) == (0, "undefined")


# (name, input, output): one case per map name, plus the two undefined involutions.
MAP_CASES = [
    ("complement", "1,2,1,3,5,3", "1,1,3,2,1,4"),
    ("area-flip", "1,2,1,3,5,3", "1,1,1,3,5,3"),
    ("sper-involution", "1,2,1,3,5,3", "1,1,1,3,5,3"),
    ("sper-involution", "1,2,3", "undefined"),
    ("levels-involution", "1,2,1,3,5,3", "1,2,2,3,5,3"),
    ("levels-involution", "1,2,1,2", "undefined"),
    ("f", "1,2,2,4,3,3,7,7", "(1,2)(3,5,4)(6,7)(8)"),
    ("f-inverse", "(1,2)(3,5,4)(6,7)(8)", "1,2,2,4,3,3,7,7"),
    ("g", "1,2,1,3,5,3", "2,5,1,4,6,3"),
    ("g-inverse", "4,6,1,7,2,5,8,3", "1,2,1,4,2,4,7,3"),
]


def test_map_cases_cover_every_map():
    assert {name for name, _, _ in MAP_CASES} == set(cli.MAPS)


@pytest.mark.parametrize("name,payload,output", MAP_CASES)
def test_map_output(capsys, name, payload, output):
    assert run_cli(capsys, "map", name, payload) == (0, output + "\n", "")
    assert run_cli(capsys, "map", name, payload, "--format", "json") == (
        0, f'{{"map": "{name}", "input": "{payload}", "output": "{output}"}}\n', "")


def test_map_invalid_input(capsys):
    code, _, err = run_cli(capsys, "map", "g", "3,1")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("stats", "1,,2"),
    ("stats", "abc"),
    ("map", "g-inverse", "1,a"),
    ("map", "f-inverse", "(1,a)"),
    ("map", "f-inverse", "()"),
    ("stats", "1_0"),
    ("stats", "1,+2"),
    ("stats", "1,٢"),
    ("totals", "-n", "1_0"),
    ("totals", "-n", "+3"),
    ("enumerate", "-n", "3.0"),
    ("dist", "lda", "-n", "0x3"),
    ("series", "A1", "--p", "1/2", "--order", "1e1"),
    ("verify", "--nmax", "٣"),
    ("verify", "--seed", "1_2"),
])
def test_malformed_integer_input(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "int()" not in err


@pytest.mark.parametrize("argv,message", [
    (("totals", "-n", "1_0"), "error: argument -n: not an integer: '1_0'\n"),
    (("totals",), "error: the following arguments are required: -n\n"),
    (("totals", "-n", "3", "--format", "xml"),
     "error: argument --format: invalid choice: 'xml' (choose from 'json', 'csv')\n"),
])
def test_usage_errors_are_one_error_line(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", message)


# The formats each command writes, its default first; verify writes only JSON.
COMMAND_FORMATS = [
    (("enumerate", "-n", "2"), ("text", "json")),
    (("stats", "1,2"), ("json", "csv")),
    (("dist", "lda", "-n", "2"), ("csv", "json")),
    (("totals", "-n", "2"), ("json", "csv")),
    (("map", "f", "1,2"), ("text", "json")),
    (("series", "A1", "--p", "1/2", "--order", "2"), ("text", "csv", "json")),
    (("verify", "--suite", "totals", "--nmax", "3", "--order", "1"), ()),
]


@pytest.mark.parametrize("argv,formats", COMMAND_FORMATS,
                         ids=[argv[0] for argv, _ in COMMAND_FORMATS])
def test_each_command_takes_only_the_formats_it_writes(capsys, argv, formats):
    default = run_cli(capsys, *argv)
    outputs = [run_cli(capsys, *argv, "--format", fmt) for fmt in formats]
    assert default[0] == 0 and outputs[:1] in ([], [default])
    assert len(set(outputs)) == len(formats)  # no two formats print the same
    for fmt in {"text", "csv", "json"} - set(formats):
        choices = ", ".join(map(repr, formats))
        message = (f"error: argument --format: invalid choice: '{fmt}' (choose from {choices})\n"
                   if formats else f"error: unrecognized arguments: --format {fmt}\n")
        assert run_cli(capsys, *argv, "--format", fmt) == (2, "", message)


def test_integer_options_allow_whitespace_and_minus(capsys):
    code, out, _ = run_cli(capsys, "totals", "-n", " 3 ")
    assert code == 0 and json.loads(out)["area"] == "27"
    code, _, err = run_cli(capsys, "totals", "-n", "-3")
    assert code == 2 and err == f"error: n must be in 1..{cli.TOTALS_MAX}\n"
    assert run_cli(capsys, "stats", " 1, 2 ,3")[0] == 0
    assert run_cli(capsys, "verify", "--suite", "totals", "--nmax", "3", "--seed", "-7")[0] == 0


def test_series_a1_matches_recurrence(capsys):
    code, out, _ = run_cli(capsys, "series", "A1", "--p", "1/2", "--order", "4", "--format", "json")
    assert code == 0
    coeffs = [Fraction(c) for c in json.loads(out)]
    table = a_table_lemma(4)
    for n in range(1, 5):
        assert coeffs[n] == row_poly(table, n).eval_rational(
            {"y": 1, "p": Fraction(1, 2), "q": 1}
        )


def test_series_area_gf_printed_value(capsys):
    code, out, _ = run_cli(capsys, "series", "area-gf", "--y", "1/2", "--order", "4", "--format", "json")
    assert code == 0
    coeffs = [Fraction(c) for c in json.loads(out)]
    assert coeffs[3] * 6 == Fraction(57, 8)  # 3! times x^3 coefficient


# name: (parameter flags, coefficients of x^0..x^6)
SERIES_CASES = {
    "A": (("--p", "1/3", "--y", "1/2"),
          ["0", "1/6", "7/108", "43/1458", "3367/236196", "101075/14348907",
           "73388315/20920706406"]),
    "A1": (("--p", "1/2"),
           ["0", "1/2", "3/8", "21/64", "315/1024", "9765/32768", "615195/2097152"]),
    "area-gf": (("--y", "1/2"), ["0", "1/2", "7/8", "19/16", "187/128", "137/80", "125/64"]),
    "tote1": (("--y", "1/2"), ["0", "0", "1/4", "13/48", "103/384", "493/1920", "373/1536"]),
    "tote2": (("--y=-1/3",),
              ["0", "0", "0", "-1/18", "-55/972", "-899/14580", "-8557/131220"]),
    "tote3": (("--y", "3"), ["0", "0", "9/2", "17", "111/2", "864/5", "5281/10"]),
}


@pytest.mark.parametrize("name", cli.SERIES)
def test_series_output(capsys, name):
    flags, coeffs = SERIES_CASES[name]
    argv = ("series", name, *flags, "--order", "6")
    text = "".join(f"x^{k}\t{c}\n" for k, c in enumerate(coeffs))
    csv = "".join(f"{k},{c}\n" for k, c in enumerate(coeffs))
    assert run_cli(capsys, *argv) == (0, text, "")
    assert run_cli(capsys, *argv, "--format", "csv") == (0, csv, "")
    assert run_cli(capsys, *argv, "--format", "json") == (0, json.dumps(coeffs) + "\n", "")


# name: (a negative-fraction point, each value a separate argument; a point where
# the series vanishes; coefficients of x^0..x^12 at the first point)
SERIES_CASES_12 = {
    "A": (("--p", "-5/3", "--y", "-1/4"), ("--p", "0", "--y", "0"), [
        "0", "5/12", "-425/432", "-28625/23328", "34116875/7558272",
        "35430071875/1836660096", "-901603410484375/5355700839936",
        "-50518107736463828125/23425835473880064",
        "30467862998379418863671875/614787626176508399616",
        "10976077618505772995598373046875/6050432423016107414820864",
        "-162438576470501918066032190353310546875/1429087936586712506951028793344",
        "-5913253030175102424452258791449852841943359375/506317281405052720937707795309019136",
        "2173437619179301478582596793596574645391731921142578125/1076311049388730492271425473787281754619904",
    ]),
    "A1": (("--p", "-2/5"), ("--p", "0"), [
        "0", "-2/5", "12/125", "-456/15625", "79344/9765625", "-71568288/30517578125",
        "318192608448/476837158203125", "-7114150339680384/37252902984619140625",
        "793469643985911949056/14551915228366851806640625",
        "-442900472819344303547976192/28421709430404007434844970703125",
        "1235641828512069201648249106394112/277555756156289135105907917022705078125",
        "-17239029786365906201273111146377112897536/13552527156068805425093160010874271392822265625",
        "1202479112963138246833826496087919790813020483584/3308722450212110699485634768279851414263248443603515625",
    ]),
    "area-gf": (("--y", "-1/3"), ("--y", "0"), [
        "0", "-1/3", "-1/6", "-47/162", "-26/81", "-158/405", "-1955/4374", "-15593/30618",
        "-1247/2187", "-111955/177147", "-409643/590490", "-981697/1299078",
        "-1303688/1594323",
    ]),
    "tote1": (("--y", "-1/3"), ("--y", "0"), [
        "0", "0", "-1/6", "-13/162", "-71/972", "-973/14580", "-1621/26244",
        "-17683/306180", "-19927/367416", "-362743/7085880", "-36085849/744017400",
        "-226439179/4910514840", "-55526957/1262703816",
    ]),
    "tote2": (("--y", "-1/3"), ("--y", "0"), [
        "0", "0", "0", "-1/18", "-55/972", "-899/14580", "-8557/131220", "-7019/102060",
        "-26405/367416", "-529177/7085880", "-57431771/744017400", "-390168029/4910514840",
        "-102908647/1262703816",
    ]),
    "tote3": (("--y", "-1/3"), ("--y", "0"), [
        "0", "0", "1/18", "-1/27", "-1/18", "-88/1215", "-197/2430", "-1345/15309",
        "-8507/91854", "-5690/59049", "-175913/1771470", "-990923/9743085",
        "-1212347/11691702",
    ]),
}


@pytest.mark.parametrize("name", cli.SERIES)
def test_series_output_at_order_12(capsys, name):
    flags, zero_flags, coeffs = SERIES_CASES_12[name]
    for point, values in ((flags, coeffs), (zero_flags, ["0"] * 13)):
        argv = ("series", name, *point, "--order", "12")
        text = "".join(f"x^{k}\t{c}\n" for k, c in enumerate(values))
        csv = "".join(f"{k},{c}\n" for k, c in enumerate(values))
        assert run_cli(capsys, *argv) == (0, text, "")
        assert run_cli(capsys, *argv, "--format", "csv") == (0, csv, "")
        assert run_cli(capsys, *argv, "--format", "json") == (0, json.dumps(values) + "\n", "")


@pytest.mark.parametrize("name,flag", [(name, flag) for name, (_, flags) in cli.SERIES.items()
                                       for flag in cli.SERIES_FLAGS if flag not in flags])
def test_series_rejects_a_flag_it_does_not_read(capsys, name, flag):
    flags = [x for f in cli.SERIES[name][1] for x in (f"--{f}", "1/3")]
    assert run_cli(capsys, "series", name, *flags, f"--{flag}", "2") == (
        2, "", f"error: series {name} does not read --{flag}\n")


def test_negative_fraction_as_a_separate_argument(capsys):
    separate = run_cli(capsys, "verify", "--suite", "gf", "--order", "3",
                       "--p", "-1/2", "--q", "-2/3", "--r", "-5/7")
    assert separate[0] == 0
    assert separate == run_cli(capsys, "verify", "--suite", "gf", "--order", "3",
                               "--p=-1/2", "--q=-2/3", "--r=-5/7")
    assert run_cli(capsys, "series", "A1", "--p", "-1/0") == run_cli(
        capsys, "series", "A1", "--p=-1/0") == (
        2, "", f"{NOT_A_RATIONAL}'-1/0'\n")
    assert run_cli(capsys, "series", "A1", "--p", "--order", "3") == (
        2, "", "error: argument --p: expected one argument\n")


@pytest.mark.parametrize("flag", ["--q", "--r"])
def test_series_reads_no_q_or_r(capsys, flag):
    code, out, err = run_cli(capsys, "series", "A1", "--p", "1/2", flag, "1")
    assert (code, out) == (2, "")
    assert err == f"error: unrecognized arguments: {flag} 1\n"


def test_series_singular_parameter(capsys):
    code, _, err = run_cli(capsys, "series", "A", "--p", "1", "--y", "1/2")
    assert code == 2 and "singular" in err


def test_series_missing_parameter(capsys):
    code, _, err = run_cli(capsys, "series", "A1")
    assert code == 2 and "--p" in err


def test_series_bad_rational(capsys):
    code, _, err = run_cli(capsys, "series", "A1", "--p", "1.5")
    assert code == 2 and "rational" in err


@pytest.mark.parametrize("text", ["٣", "+1/2", "1/٢"])
def test_rational_syntax_is_the_integer_syntax(capsys, text):
    assert run_cli(capsys, "series", "A1", "--p", text) == (
        2, "", f"{NOT_A_RATIONAL}{text!r}\n")


def test_rational_allows_minus_and_plain_integers():
    assert cli.parse_rational("-1/2") == Fraction(-1, 2)
    assert cli.parse_rational(" 3 ") == 3


def test_verify_small_suite_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "recurrences",
                           "--nmax", "4", "--order", "4")
    assert code == 0
    report = json.loads(out)
    assert report and all(r["status"] == "pass" for r in report)
    assert {"formula-id", "n-range", "parameter-point", "status", "first-mismatch"} == set(report[0])


def test_verify_corrupt_control_fails(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "recurrences",
                           "--nmax", "4", "--order", "4", "--corrupt")
    assert code == 1
    report = json.loads(out)
    assert any(r["status"] == "fail" for r in report)


# The (formula-id, parameter-point) entries that `--corrupt` cannot reach at
# --nmax 4 --order 4 and the default seed: the adjacency count and the
# exhaustive sweeps read no table; and the added p*q and p*q*r vanish at p = 0.
CORRUPT_STAYS_PASS = {
    "recurrences": set(),
    "totals": {("adjacency-count-consistency", "")},
    "signbalance": {("area-flip-pairing", ""), ("sper-involution-pairing", ""),
                    ("levels-involution-pairing", "")},
    "bijections": {("levels-to-cycles-roundtrip", ""), ("ascents-map-roundtrip", ""),
                   ("complement-transport", ""), ("bijection-injectivity", "")},
    "gf": {("area-ogf-recursion", "p=0"), ("area-ogf-closed", "p=0"),
           ("area-ogf-closed", "p=0,y=-3/4"),
           ("lda-kernel-substitution", "p=0,q=1,r=2"), ("lda-kernel-unrolled", "p=0,q=1,r=2")},
}


@pytest.mark.parametrize("suite", ("all",) + verify.SUITES)
def test_verify_corrupt_fails_every_suite(capsys, suite):
    """A failing report lists the passing report's checks; only the outcomes differ."""
    argv = ("verify", "--suite", suite, "--nmax", "4", "--order", "4")
    code, out, _ = run_cli(capsys, *argv)
    passing = json.loads(out)
    assert code == 0
    code, out, _ = run_cli(capsys, *argv, "--corrupt")
    report = json.loads(out)
    assert code == 1
    assert any(r["status"] == "fail" for r in report)

    def key(r):
        return r["formula-id"], r["n-range"], r["parameter-point"]

    assert [key(r) for r in report] == [key(r) for r in passing]
    assert all((r["status"] == "fail") == bool(r["first-mismatch"]) for r in report)
    pinned = set().union(*(CORRUPT_STAYS_PASS[s] for s in verify.SUITES if suite in ("all", s)))
    assert {(r["formula-id"], r["parameter-point"])
            for r in report if r["status"] == "pass"} == pinned


@pytest.mark.parametrize("engine, formula", [
    ("a_direct", "area-sper-row-functional"),
    ("b_direct", "lda-direct-row-recurrence"),
])
def test_a_row_equation_remainder_fails_its_check(capsys, monkeypatch, engine, formula):
    """A remainder in a row-equation engine is a failed check in the report, not a traceback."""
    def leaves_a_remainder(n, ring):
        raise recur.NonDivisibleError("row 2: the division leaves a nonzero remainder")
        yield

    monkeypatch.setitem(recur._ENGINES, engine, (leaves_a_remainder, recur._ENGINES[engine][1]))
    code, out, err = run_cli(capsys, "verify", "--suite", "recurrences", "--nmax", "4",
                             "--order", "4")
    assert (code, err) == (1, "")
    assert [(r["formula-id"], r["first-mismatch"]) for r in json.loads(out)
            if r["status"] == "fail"] == \
        [(formula, "row 2: the division leaves a nonzero remainder")]


def _at_py_points(results):
    """The `area-ogf-closed` entries at a (p, y) point."""
    return [r for r in results if r.formula == "area-ogf-closed" and ",y=" in r.params]


def test_no_drawn_area_point_has_y_zero():
    """At y = 0 every row polynomial vanishes, so the check would compare 0 with 0."""
    for seed in range(100):
        results, _ = verify.run_verify(("gf",), nmax=3, order=1, seed=seed)
        ys = [r.params.partition(",y=")[2] for r in _at_py_points(results)]
        assert len(ys) == 6 and "0" not in ys, seed


@pytest.mark.parametrize("seed", [verify.DEFAULT_SEED, 1, 2])
def test_an_area_point_table_cell_fails_every_y_point(monkeypatch, seed):
    point_table = recur.point_table

    def one_too_many(engine, n, **values):
        table = point_table(engine, n, **values)
        return table.with_cell(3, 1, table[3, 1] + 1) if engine == "a_lemma" else table

    monkeypatch.setattr(recur, "point_table", one_too_many)
    results, _ = verify.run_verify(("gf",), nmax=3, order=4, seed=seed)
    assert [r.status for r in _at_py_points(results)] == ["fail"] * 6


def _lda_kernel_entries(results):
    return [r for r in results if r.formula.startswith("lda-kernel-")]


def test_no_lda_point_has_q_equal_r():
    """At q = r, rho = 1 and both kernel identities hold for any series."""
    for seed in range(100):
        results, _ = verify.run_verify(("gf",), nmax=3, order=1, seed=seed)
        points = [dict(kv.split("=") for kv in r.params.split(","))
                  for r in _lda_kernel_entries(results)]
        assert len(points) == 16 and all(pt["q"] != pt["r"] for pt in points), seed


@pytest.mark.parametrize("seed", [verify.DEFAULT_SEED, 1, 2])
def test_an_lda_point_table_cell_fails_every_kernel_point(monkeypatch, seed):
    """Row 5 lies past the rows linked to the symbolic table (nmax = 3): only
    the kernel identities themselves can see it, at every point, fixed or drawn."""
    point_table = recur.point_table

    def one_too_many(engine, n, **values):
        table = point_table(engine, n, **values)
        return table.with_cell(5, 1, table[5, 1] + 1) if engine == "b_lemma" else table

    monkeypatch.setattr(recur, "point_table", one_too_many)
    results, _ = verify.run_verify(("gf",), nmax=3, order=6, seed=seed)
    assert [r.status for r in _lda_kernel_entries(results)] == ["fail"] * 16


def test_sweep_mismatch_names_its_conditions(capsys, monkeypatch):
    # g sends every sequence to the identity permutation, which has n-1 ascents
    monkeypatch.setattr(verify.bj, "g_ascents", lambda rho: Permutation(range(1, len(rho) + 1)))
    code, out, _ = run_cli(capsys, "verify", "--suite", "bijections", "--nmax", "3")
    failed = {r["formula-id"]: r["first-mismatch"] for r in json.loads(out) if r["status"] == "fail"}
    assert code == 1
    assert failed == {
        "ascents-map-roundtrip": "1,1: (ascents=1, roundtrip=False) != (ascents=0, roundtrip=True)",
        "bijection-injectivity": "n=2: (cycle_images=2, permutation_images=1)"
                                 " != (cycle_images=2, permutation_images=2)",
    }


SWEEP_IDS = ("area-flip-pairing", "sper-involution-pairing", "levels-involution-pairing",
             "levels-to-cycles-roundtrip", "ascents-map-roundtrip", "complement-transport",
             "bijection-injectivity")


def _append_one(rho):
    return InversionSequence((*rho, 1))


_area_flip = verify.bj.area_flip


def _raise_last(rho):
    """Changes the area by one, as area_flip does, but applied twice it moves on."""
    *head, last = rho.entries
    return InversionSequence((*head, last + 1)) if last < len(rho) else _area_flip(rho)


# A broken version of each map the sweeps apply after the enumeration, and the
# sweep id that must catch it.  Appending a letter leaves the enumeration.
@pytest.mark.parametrize("name,broken,formula", [
    pytest.param("area_flip", lambda rho: rho, "area-flip-pairing", id="area_flip-fixes"),
    pytest.param("area_flip", _append_one, "area-flip-pairing", id="area_flip-appends"),
    pytest.param("area_flip", _raise_last, "area-flip-pairing", id="area_flip-not-involutive"),
    pytest.param("sper_involution", lambda rho: rho, "sper-involution-pairing",
                 id="sper_involution-fixes"),
    pytest.param("sper_involution", _append_one, "sper-involution-pairing",
                 id="sper_involution-appends"),
    pytest.param("levels_involution", lambda rho: rho, "levels-involution-pairing",
                 id="levels_involution-fixes"),
    pytest.param("complement", lambda rho: rho, "complement-transport", id="complement-fixes"),
    pytest.param("complement", _append_one, "complement-transport", id="complement-appends"),
    pytest.param("f_inverse", lambda cf: InversionSequence([1] * cf.n),
                 "levels-to-cycles-roundtrip", id="f_inverse-all-ones"),
    pytest.param("g_inverse", lambda pi: InversionSequence([1] * len(pi)),
                 "ascents-map-roundtrip", id="g_inverse-all-ones"),
])
def test_sweep_negative_controls(capsys, monkeypatch, name, broken, formula):
    monkeypatch.setattr(verify.bj, name, broken)
    code, out, err = run_cli(capsys, "verify", "--nmax", "4", "--order", "1")
    report = json.loads(out)
    status = {r["formula-id"]: r["status"] for r in report}
    mismatch = {r["formula-id"]: r["first-mismatch"] for r in report}
    assert (code, err) == (1, "")
    assert {f for f in SWEEP_IDS if status[f] == "fail"} == {formula}
    assert re.fullmatch(r"[\d,]+: \(\w+=.*\) != \(\w+=.*\)", mismatch[formula])


@pytest.mark.parametrize("suites", [("signbalance", "bijections"), ("signbalance",)])
def test_levels_involution_undefined_past_letter_two_fails(in_process, monkeypatch, suites):
    """A sequence left undefined whatever its last letter is counted, so the entry fails."""
    monkeypatch.setattr(verify.bj, "levels_involution", lambda rho: None)
    results, passed = verify.run_verify(suites, nmax=5, order=3)
    entry, = [r for r in results if r.formula == "levels-involution-pairing"]
    assert (passed, entry.status) == (False, "fail")
    assert entry.first_mismatch == ("n=3 undefined count by last letter: "
                                    "{1: 2, 2: 2, 3: 2} != {1: 2, 2: 2}")


def test_levels_involution_undefined_fails_through_the_cli(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(verify.bj, "levels_involution", lambda rho: None)
    path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "verify", "--suite", "signbalance", "--nmax", "5",
                             "--order", "3", "--out", str(path))
    assert (code, out, err) == (1, "", "")
    status = {r["formula-id"]: r["status"] for r in json.loads(path.read_text())}
    assert {f for f, s in status.items() if s == "fail"} == {"levels-involution-pairing"}


def test_adjacency_count_negative_control(capsys, monkeypatch):
    # The closed forms for levels, descents and ascents sum to (n-1)*n!, so a
    # brute ascent total one too high breaks both the adjacency count and the
    # match with its closed form.  (The C kernel stores no ascents: it derives
    # them as n-1-levels-descents, so on it the adjacency count checks that the
    # multiplicities sum to n!.)
    brute_stat_totals = verify.invseq.brute_stat_totals

    def one_ascent_too_many(n):
        totals = brute_stat_totals(n)
        return {**totals, "ascents": totals["ascents"] + 1}

    monkeypatch.setattr(verify.invseq, "brute_stat_totals", one_ascent_too_many)
    code, out, err = run_cli(capsys, "verify", "--suite", "totals", "--nmax", "3")
    failed = {r["formula-id"]: r["first-mismatch"] for r in json.loads(out) if r["status"] == "fail"}
    assert (code, err) == (1, "")
    assert failed == {
        "totals-closed-vs-brute-vs-table": "n=1 ascents (brute, table): (1, 0) != (0, 0)",
        "adjacency-count-consistency": "n=1 levels+descents+ascents: 1 != 0",
    }


def test_image_outside_the_enumeration_fails_by_name(capsys, monkeypatch):
    monkeypatch.setattr(verify.bj, "area_flip", _append_one)
    code, out, err = run_cli(capsys, "verify", "--suite", "signbalance", "--nmax", "3")
    failed = {r["formula-id"]: r["first-mismatch"] for r in json.loads(out) if r["status"] == "fail"}
    assert (code, err) == (1, "")
    assert failed == {"area-flip-pairing": "1,1: (involution=False, area_change=None)"
                                           " != (involution=True, area_change=1)"}


def test_gf_suite_builds_no_enumeration(capsys, monkeypatch):
    def unused(n):
        raise AssertionError("only the sweep suites enumerate")

    monkeypatch.setattr(invseq, "enumerate_sequences", unused)
    code, out, _ = run_cli(capsys, "verify", "--suite", "gf", "--nmax", "3", "--order", "3")
    assert code == 0 and json.loads(out)


def _enumerated_lengths(capsys, monkeypatch, tmp_path):
    """The lengths `verify` enumerates, counted in a file: the sweeps may run in a child."""
    log = tmp_path / "lengths"
    log.touch()
    enumerate_sequences = invseq.enumerate_sequences

    def counted(n):
        with open(log, "a") as fh:
            fh.write(f"{n}\n")
        return enumerate_sequences(n)

    monkeypatch.setattr(invseq, "enumerate_sequences", counted)
    assert run_cli(capsys, "verify", "--nmax", "4", "--order", "1")[0] == 0
    return [int(line) for line in log.read_text().split()]


def test_sweep_suites_share_one_enumeration(capsys, monkeypatch, tmp_path, forked):
    assert _enumerated_lengths(capsys, monkeypatch, tmp_path) == [1, 2, 3, 4]
    assert forked == [os.getpid()]


def test_sweep_suites_share_one_enumeration_in_process(capsys, monkeypatch, tmp_path,
                                                       in_process):
    assert _enumerated_lengths(capsys, monkeypatch, tmp_path) == [1, 2, 3, 4]
    assert in_process == []


# sha256 of passing `verify --out` reports since the fixed lda points have
# q != r and no drawn point repeats; a speedup must reproduce them byte for byte.
REPORT_PINS = [
    ((), "3aa87832ed2234d3be9887eb85d6f2af74fa0e03d74e621afab7eb31c936d44f"),
    (("--nmax", "9", "--order", "12", "--seed", "1"),
     "bdd08cde1495e78257d640975555fb14d18390150d1b22bb3a558cdf5124c154"),
]
# sha256 of `verify --corrupt --out` reports, from the same draw, since the
# row-equation entries name the first differing cell; the failing reports must
# not change either.
CORRUPT_REPORT_PINS = [
    ((), "a7cf8e6c0beadb98d56aaf297fe4346c20255c0819d76f8bae9f404d8079a36d"),
    (("--nmax", "9", "--order", "12", "--seed", "1"),
     "c20f7e5e5c491047c5d45843a09141a476fcbbe60430216b424833ad21210480"),
]
PIN_IDS = ["defaults", "caps-seed-1"]


def _report_digest(tmp_path, capsys, argv, code):
    target = tmp_path / "report.json"
    assert run_cli(capsys, "verify", *argv, "--out", str(target))[0] == code
    return hashlib.sha256(target.read_bytes()).hexdigest()


@pytest.mark.parametrize("argv", [
    *(argv for argv, _ in REPORT_PINS),
    # a point given on the command line that is also one of the fixed lda points
    ("--suite", "gf", "--nmax", "4", "--order", "4", "--p", "1", "--q", "1", "--r", "2"),
], ids=[*PIN_IDS, "fixed-lda-point"])
def test_verify_report_checks_each_point_once(tmp_path, capsys, argv):
    target = tmp_path / "report.json"
    assert run_cli(capsys, "verify", *argv, "--out", str(target))[0] == 0
    report = json.loads(target.read_text())
    checked = Counter((entry["formula-id"], entry["parameter-point"]) for entry in report)
    assert [case for case, times in checked.items() if times > 1] == []


@pytest.mark.parametrize("argv,digest", REPORT_PINS, ids=PIN_IDS)
def test_verify_report_bytes_pinned(tmp_path, capsys, argv, digest, forked):
    assert _report_digest(tmp_path, capsys, argv, 0) == digest
    assert forked == [os.getpid()]


@pytest.mark.parametrize("argv,digest", CORRUPT_REPORT_PINS, ids=PIN_IDS)
def test_verify_corrupt_report_bytes_pinned(tmp_path, capsys, argv, digest, forked):
    assert _report_digest(tmp_path, capsys, (*argv, "--corrupt"), 1) == digest
    assert forked == [os.getpid()]


@pytest.mark.parametrize("argv,code,digest", [
    *((argv, 0, digest) for argv, digest in REPORT_PINS),
    *(((*argv, "--corrupt"), 1, digest) for argv, digest in CORRUPT_REPORT_PINS),
], ids=[*PIN_IDS, *(f"corrupt-{name}" for name in PIN_IDS)])
def test_verify_report_bytes_pinned_in_process(tmp_path, capsys, argv, code, digest,
                                               in_process):
    assert _report_digest(tmp_path, capsys, argv, code) == digest
    assert in_process == []


class SweepBroke(Exception):
    """Raised by a broken map inside a sweep suite."""


def _broken_map(rho):
    raise SweepBroke(f"cannot map {rho.to_text()}")


@pytest.mark.parametrize("path", ["forked", "in_process"])
def test_a_sweep_suite_exception_keeps_its_type(monkeypatch, request, path):
    forks = request.getfixturevalue(path)
    monkeypatch.setattr(verify.bj, "g_ascents", _broken_map)
    with pytest.raises(SweepBroke, match="^cannot map 1$"):
        verify.run_verify(nmax=4, order=1)
    assert len(forks) == (path == "forked")


@pytest.mark.parametrize("end,how", [
    (lambda: os._exit(3), "exited with status 3"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), f"was killed by signal {int(signal.SIGKILL)}"),
], ids=["exit", "killed"])
def test_a_child_that_dies_is_one_error_line(capsys, monkeypatch, forked, end, how):
    parent = os.getpid()

    def dies_in_the_child(rho):
        if os.getpid() == parent:
            raise AssertionError("the sweep suites ran in process")
        end()

    monkeypatch.setattr(verify.bj, "complement", dies_in_the_child)
    assert run_cli(capsys, "verify", "--nmax", "4", "--order", "1") == (
        1, "", f"error: the process running the sweep suites {how} without a result\n")


def test_a_parent_exception_kills_and_reaps_the_child(monkeypatch, forked):
    parent = os.getpid()

    def stalls_in_the_child(rho):
        if os.getpid() == parent:
            raise AssertionError("the sweep suites ran in process")
        time.sleep(60)

    def table_suite_breaks(*args):
        raise SweepBroke("in the parent")

    monkeypatch.setattr(verify.bj, "complement", stalls_in_the_child)
    monkeypatch.setattr(verify, "_suite_gf", table_suite_breaks)
    began = time.monotonic()
    with pytest.raises(SweepBroke, match="^in the parent$"):
        verify.run_verify(nmax=4, order=1)
    assert time.monotonic() - began < 30  # killed, not waited for


@pytest.mark.parametrize("suites,message", [
    (["gff"], "unknown suites ['gff']"),
    (["gf", "totals", "x"], "unknown suites ['x']"),
    ([], "no suite selected"),
], ids=["misspelt", "one-unknown", "none"])
def test_run_verify_refuses_an_unknown_or_empty_selection(monkeypatch, suites, message):
    monkeypatch.setattr(verify, "_Tables", None)  # refused before any table is built
    with pytest.raises(ValueError, match=f"^{re.escape(message)} \\(the suites are "
                                         "recurrences, totals, signbalance, bijections, gf\\)$"):
        verify.run_verify(suites, nmax=3, order=1)


# `python -m invbargraph`, on the forked path whatever CPUs the host has
FORKED_MAIN = ("import os, runpy; os.sched_getaffinity = lambda pid: {0, 1}; "
               "runpy.run_module('invbargraph', run_name='__main__', alter_sys=True)")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
def test_verify_through_a_pipe_prints_its_report_once(capsys, in_process):
    argv = ("verify", "--nmax", "4", "--order", "2")
    proc = subprocess.run([sys.executable, "-c", FORKED_MAIN, *argv],
                          capture_output=True, text=True)
    stderr = proc.stderr
    if kernel.BACKEND == "python":  # the child's own import names why it runs the pure kernel
        line, _, stderr = stderr.partition("\n")
        assert re.fullmatch(r"invbargraph: C kernel unavailable \(.*\); "
                            "using the pure-Python kernel", line), line
    assert (proc.returncode, proc.stdout, stderr) == run_cli(capsys, *argv)


def test_gf_suite_builds_no_threeterm_or_brute_table(capsys, monkeypatch):
    def unused(n):
        raise AssertionError("only the recurrences suite reads this table")

    for module, name in ((recur, "a_table_threeterm"), (recur, "b_table_threeterm"),
                         (invseq, "brute_dist_area_sper"), (invseq, "brute_dist_lda")):
        monkeypatch.setattr(module, name, unused)
    code, out, _ = run_cli(capsys, "verify", "--suite", "gf", "--nmax", "3", "--order", "3")
    assert code == 0 and json.loads(out)


def test_verify_guards(capsys):
    assert run_cli(capsys, "verify", "--nmax", "10")[0] == 2
    assert run_cli(capsys, "verify", "--order", "13")[0] == 2
    assert run_cli(capsys, "verify", "--p", "1/2")[0] == 2  # --q/--r missing


@pytest.mark.parametrize("q,r", [("2", "2"), ("-1/3", "-2/6"), ("5/1", "5")])
def test_verify_refuses_a_kernel_point_with_q_equal_to_r(capsys, q, r):
    """At q = r, rho = 1 and both lda kernel identities hold for any series, corrupt or not."""
    assert run_cli(capsys, "verify", "--suite", "gf", "--corrupt", "--p", "1", "--q", q,
                   "--r", r) == (2, "", "error: q and r must differ for the kernel identity\n")
    assert run_cli(capsys, "verify", "--suite", "gf", "--corrupt", "--order", "3",
                   "--p", "1", "--q", q, "--r", "3")[0] == 1


@pytest.mark.parametrize("q,r", [("0", "0"), ("2", "2")])
def test_verify_refuses_a_kernel_point_with_the_checks_message(capsys, tmp_path, q, r):
    """The CLI's error line is the message the kernel check itself raises."""
    point = (Fraction(1), Fraction(q), Fraction(r))
    with pytest.raises(gf.SingularParameterError) as refused:
        gf.check_lda_kernel(*point, 4, recur.point_table("b_lemma", 4, p=1, q=2, r=3), [])
    target = tmp_path / "report.json"
    assert run_cli(capsys, "verify", "--suite", "totals", "--p", "1", "--q", q, "--r", r,
                   "--out", str(target)) == (2, "", f"error: {refused.value}\n")
    assert not target.exists()  # refused before --out is touched


@pytest.mark.parametrize("point", [(1, 2, 2), (Fraction(1, 2), 0, 1)])
def test_run_verify_refuses_a_kernel_point_before_building_a_table(monkeypatch, point):
    """At q = r a corrupted table would pass both kernel entries; q = 0 is singular."""
    def unused(*args, **kwargs):
        raise AssertionError("a refused point builds no table")

    for name in ("a_table_lemma", "b_table_lemma", "point_table"):
        monkeypatch.setattr(recur, name, unused)
    with pytest.raises(gf.SingularParameterError, match="^q (and r must differ|must be nonzero)"):
        verify.run_verify(["gf"], nmax=4, order=4, point=point, corrupt=True)


def test_series_order_cap_is_its_own(capsys, monkeypatch):
    """Raising verify's order cap leaves the series cap where it is."""
    monkeypatch.setattr(cli, "VERIFY_ORDER_MAX", 16)
    assert run_cli(capsys, "series", "A", "--p", "1/2", "--y", "1/3", "--order", "13") == (
        2, "", f"error: order must be in 1..{cli.SERIES_ORDER_MAX}\n")
    assert cli.SERIES_ORDER_MAX == 12


def test_out_flag(tmp_path, capsys):
    target = tmp_path / "totals.json"
    code, out, _ = run_cli(capsys, "totals", "-n", "2", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["area"] == "5"


@pytest.mark.parametrize("argv", [
    ("totals", "-n", "3"),
    ("verify", "--suite", "totals", "--nmax", "3", "--order", "1"),
])
def test_out_flag_unwritable(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {target}: No such file or directory\n"
    code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert code == 2 and err.startswith(f"error: cannot write {tmp_path}: ")


def test_verify_out_checked_before_the_suites(tmp_path, capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("suites ran before --out was checked")

    monkeypatch.setattr(verify, "run_verify", must_not_run)
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "verify", "--out", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {target}: No such file or directory\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("totals", "-n", "9"),
        ("series", "tote2", "--y", "2", "--order", "6"),
        ("dist", "area-sper", "-n", "6"),
        ("stats", "1,2,3,4"),
    ],
)
def test_no_scientific_notation(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert not SCI_NOTATION.search(out)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "invbargraph", "totals", "-n", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["area"] == "27"


LONG = "1" * 5000  # past the 4300-digit limit of Python's int <-> str conversion
PAST_RATIONAL = "1" * 31  # one digit past the bound on a rational parameter


@pytest.mark.parametrize("argv,message", [
    (("stats", f"1,{LONG}"), f"error: not a comma-separated list of integers: '1,{LONG}'\n"),
    (("verify", "--p", "1" * 4401, "--q", "1", "--r", "1"), f"{NOT_A_RATIONAL}'{'1' * 4401}'\n"),
    # (10^4000, 10^-4000, 10^4000) took 33 s before rational parameters had a bound
    (("verify", "--p", "1" + "0" * 4000, "--q", "1/1" + "0" * 4000, "--r", "1" + "0" * 4000),
     f"{NOT_A_RATIONAL}'1{'0' * 4000}'\n"),
    (("series", "A1", "--p", "1" + "0" * 100, "--order", "12"),
     f"{NOT_A_RATIONAL}'1{'0' * 100}'\n"),
    (("series", "tote2", "--y", "1" + "0" * 400, "--order", "12"),
     f"{NOT_A_RATIONAL}'1{'0' * 400}'\n"),
], ids=["stats", "verify", "verify-point", "series-A1", "series-tote2"])
def test_digit_limit_is_reported_in_the_programs_words(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", message)


def test_a_result_too_long_to_print_is_a_usage_error():
    """No `series` coefficient at the caps passes the print limit; the guard is still there."""
    assert cli._number_text(Fraction(-1, 10 ** 4299)) == "-1/1" + "0" * 4299
    with pytest.raises(cli.UsageError,
                       match="^result too long to print: a number has more than 4300 digits$"):
        cli._number_text(Fraction(1, 10 ** 4300))


def test_digit_bound_is_the_integer_syntax():
    assert invseq.DIGITS_MAX == 4300
    assert invseq.INT_RE.fullmatch("-" + "9" * 4300)
    assert not invseq.INT_RE.fullmatch("9" * 4301)


def test_rational_digit_bound(capsys):
    big = "1" + "0" * (cli.RATIONAL_DIGITS_MAX - 1)
    assert cli.parse_rational(f"-{big}/{big}") == -1
    for text in (PAST_RATIONAL, f"-1{big}", f"1/1{big}", f"1{big}/3"):
        assert run_cli(capsys, "series", "A1", "--p", text, "--order", "1") == (
            2, "", f"{NOT_A_RATIONAL}'{text}'\n")


def test_a_mismatch_too_long_to_print_is_reported():
    """A failing check at a huge point still writes its report.

    The CLI refuses such a point; the library has no such guard.
    """
    results, ok = verify.run_verify(("gf",), nmax=3, order=4, corrupt=True,
                                    point=(Fraction(10 ** 4000), Fraction(2), Fraction(3)))
    report = json.dumps([r.to_json_obj() for r in results])
    assert not ok
    assert "x^3: (a number too long to print) != (a number too long to print)" in report


# The CLI fuzz: a subcommand, its positionals and up to four flags with
# values, each token either one the slot takes or junk.  Numbers stay at most
# 3 or far over every cap, so no example does real work (`enumerate -n 3`,
# `dist lda -n 3`), and 99, 31 and 5000 digits meet the guards.
FUZZ_INPUTS = ("1,2,1", "1,1,3", "3,2,1", "(1,2)(3)")
FUZZ_RATIONALS = ("1/2", "-3/4", "2", "1", "0")
FUZZ_GRAMMAR = {  # command: (the choices of each positional, the flags)
    "enumerate": ((), ("-n", "--format")),
    "stats": ((FUZZ_INPUTS,), ("--format",)),
    "dist": ((("area-sper", "lda"),), ("-n", "--engine", "--format")),
    "totals": ((), ("-n", "--format")),
    "map": ((tuple(cli.MAPS), FUZZ_INPUTS), ("--format",)),
    "series": ((tuple(cli.SERIES),), ("--order", "--p", "--y", "--format")),
    "verify": ((), ("--suite", "--nmax", "--order", "--seed", "--p", "--q", "--r",
                    "--corrupt")),
}
FUZZ_VALUES = {  # the values each flag takes; --corrupt takes none
    "-n": ("1", "2", "3"), "--order": ("1", "2", "3"), "--nmax": ("3",), "--seed": ("0", "-1"),
    "--format": ("text", "json", "csv"), "--engine": ("brute", "lemma", "threeterm"),
    "--suite": ("all", *verify.SUITES), "--p": FUZZ_RATIONALS, "--q": FUZZ_RATIONALS,
    "--r": FUZZ_RATIONALS, "--y": FUZZ_RATIONALS,
}
FUZZ_JUNK = ("-1", "0", "99", LONG, PAST_RATIONAL, "1/0", "2/" + LONG, LONG + "/3", ",", "1,",
             "(1,2", "()", "(", ")", "", " ", "x", "-x", "--", "--nmax", "verify")


@st.composite
def fuzz_argv(draw):
    def token(choices):  # mostly one the slot takes, one time in five junk
        junk = not choices or draw(st.integers(0, 4)) == 0
        return draw(st.sampled_from(FUZZ_JUNK if junk else choices))

    command = token(tuple(FUZZ_GRAMMAR))
    positionals, flags = FUZZ_GRAMMAR.get(command, ((), ()))
    argv = [command, *map(token, positionals)]
    for _ in range(draw(st.integers(0, 4))):
        flag = token(flags)
        argv += [flag] if flag == "--corrupt" else [flag, token(FUZZ_VALUES.get(flag, ()))]
    if command == "verify":  # smallest sizes first; a later --nmax or --order is 0..3 or 99+
        argv[1:1] = ["--nmax", "3", "--order", "2"]
    return argv


@settings(max_examples=800)
@given(fuzz_argv())
def test_cli_fuzz(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    assert lines == [] or (len(lines) == 1 and lines[0].startswith("error: "))
    for text in (out.getvalue(), err.getvalue()):
        assert "Traceback" not in text and "set_int_max_str_digits" not in text
