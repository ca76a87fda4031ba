"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every check is exact (integer or rational equality), and the two
timed criteria assert their wall-clock budgets.
"""

import json
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from math import factorial

from invbargraph import bijections as bj
from invbargraph import gfseries as gf
from invbargraph import invseq, recur
from invbargraph.invseq import InversionSequence, Permutation, enumerate_sequences, stats
from invbargraph.mpoly import MPoly

F = Fraction


def _record(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"acceptance {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_oracle_equivalence():
    start = time.monotonic()
    a_lemma = recur.a_table_lemma(8)
    a_three = recur.a_table_threeterm(8)
    a_brute = invseq.brute_dist_area_sper(8)
    b_lemma = recur.b_table_lemma(9)
    b_three = recur.b_table_threeterm(9)
    b_brute = invseq.brute_dist_lda(9)
    agree = (a_lemma == a_three == a_brute) and (b_lemma == b_three == b_brute)
    elapsed = time.monotonic() - start
    _record(
        "1-oracle-equivalence",
        agree and elapsed < 30.0,
        f"tables agree={agree}, {elapsed:.2f}s",
    )


def test_criterion_2_worked_examples():
    record = stats(InversionSequence((1, 2, 1, 3, 5, 3)))
    ok = (record.area, record.sper) == (15, 12)
    ok &= invseq.from_permutation(Permutation((5, 2, 4, 6, 1, 3))) == InversionSequence(
        (1, 2, 1, 3, 5, 3)
    )
    ok &= bj.f_levels_to_cycles(InversionSequence((1, 2, 2, 4, 3, 3, 7, 7))) == bj.CycleForm(
        [(1, 2), (3, 5, 4), (6, 7), (8,)]
    )
    ok &= bj.g_ascents(InversionSequence((1, 2, 1, 4, 2, 4, 7, 3))) == Permutation(
        (4, 6, 1, 7, 2, 5, 8, 3)
    )
    _record("2-worked-examples", ok)


def test_criterion_3_closed_form_totals():
    ok = True
    for n in range(1, 10):
        brute = invseq.brute_stat_totals(n)
        ok &= brute["area"] == recur.total_area(n) == factorial(n) * ((n + 2) * (n + 1) // 2 - 1) // 2
        ok &= brute["sper"] == recur.total_sper(n) == (n * n + 15 * n + 8) * factorial(n) // 12
        harmonic = sum(factorial(n) // i for i in range(1, n + 1))
        ok &= brute["levels"] == recur.total_levels(n) == harmonic - factorial(n)
        ok &= brute["descents"] == recur.total_descents(n) == factorial(n + 1) // 2 - harmonic
        ok &= brute["ascents"] == recur.total_ascents(n) == (n - 1) * factorial(n) // 2
        if not ok:
            break
    _record("3-closed-form-totals", ok, "n<=9")


def test_criterion_4_printed_series():
    printed = {
        1: lambda y: y,
        2: lambda y: y * (3 * y + 2),
        3: lambda y: y * (11 * y ** 2 + 9 * y + 7),
        4: lambda y: 3 * y * (17 * y ** 3 + 15 * y ** 2 + 13 * y + 11),
    }
    ok = True
    for y in (F(1, 2), F(2), F(-1, 3)):
        series = gf.total_area_gf(y, 4)
        for n in range(1, 5):
            ok &= series.coeff(n) * factorial(n) == printed[n](y)
    _record("4-printed-area-series", ok, "x^1..x^4 at 3 rational y points")


def test_criterion_5_sign_balance():
    a_table = recur.a_table_lemma(9)
    b_table = recur.b_table_lemma(9)
    results = recur.check_sign_balance(9, a_table, b_table)
    ok = all(r.status == "pass" for r in results)
    for n in range(2, 8):
        undef_sper = 0
        undef_levels = Counter()
        for rho in enumerate_sequences(n):
            mate = bj.sper_involution(rho)
            if mate is None:
                undef_sper += 1
            else:
                ok &= mate != rho and bj.sper_involution(mate) == rho
                ok &= abs(stats(mate).sper - stats(rho).sper) == 1
            mate = bj.levels_involution(rho)
            if mate is None:
                undef_levels[rho.entries[-1]] += 1
            else:
                ok &= mate != rho and bj.levels_involution(mate) == rho
                ok &= (stats(mate).levels - stats(rho).levels) % 2 == 1
        ok &= undef_sper == 2 * 2 ** (n - 2)
        ok &= undef_levels == Counter({1: 2 ** (n - 2), 2: 2 ** (n - 2)})
    _record("5-sign-balance", ok, "closed forms n<=9, involutions n<=7")


def test_criterion_6_stirling_eulerian_bijections():
    b_table = recur.b_table_lemma(9)
    results = recur.check_stirling_eulerian(9, b_table)
    ok = all(r.status == "pass" for r in results)
    for n in range(1, 8):
        f_images, g_images = set(), set()
        for rho in enumerate_sequences(n):
            record = stats(rho)
            cf = bj.f_levels_to_cycles(rho)
            ok &= cf.cycle_count() == record.levels + 1
            ok &= bj.f_inverse(cf) == rho
            f_images.add(cf)
            pi = bj.g_ascents(rho)
            ok &= bj.ascent_count(pi) == record.ascents
            ok &= bj.g_inverse(pi) == rho
            g_images.add(pi)
        ok &= len(f_images) == factorial(n) and len(g_images) == factorial(n)
    _record("6-stirling-eulerian-bijections", ok, "rows n<=9, round trips n<=7")


def test_criterion_7_gf_identities():
    a_table = recur.a_table_lemma(8)
    b_table = recur.b_table_lemma(8)
    start = time.monotonic()
    a_sums = [a_table.row_sum(n) for n in range(1, 9)]
    a_rows = [recur.row_poly(a_table, n) for n in range(1, 9)]
    b_sums = [b_table.row_sum(n) for n in range(1, 9)]
    ok = True
    p_points = [F(1, 2), F(-1, 2), F(2), F(1, 3), F(-3, 4)]
    for p in p_points:
        point = recur.point_table("a_lemma", 8, p=p, q=1)
        ok &= all(res.status == "pass" for res in gf.check_area_ogf(p, 8, point, a_sums))
    py_points = [(F(1, 2), F(1, 3)), (F(-1, 2), F(2)), (F(1, 4), F(-2, 3)),
                 (F(3, 2), F(1, 5)), (F(-2, 3), F(-1, 2))]
    for p, y in py_points:
        point = recur.point_table("a_lemma", 8, p=p, q=1)
        ok &= gf.check_area_ogf_closed(p, y, 8, point, a_rows).status == "pass"
    # q != r: at q = r both identities hold for any series, and the check refuses
    pqr_points = [(F(1), F(1), F(3)), (F(1, 3), F(1, 2), F(1, 5)), (F(0), F(2), F(1)),
                  (F(2), F(-1, 2), F(1, 7)), (F(-1, 3), F(3), F(0))]
    for p, q, r in pqr_points:
        point = recur.point_table("b_lemma", 8, p=p, q=q, r=r)
        ok &= all(res.status == "pass"
                  for res in gf.check_lda_kernel(p, q, r, 8, point, b_sums))
    for p, q, r in [(F(1), F(1), F(1)), (F(0), F(1), F(1))]:
        point = recur.point_table("b_lemma", 8, p=p, q=q, r=r)
        try:
            gf.check_lda_kernel(p, q, r, 8, point, b_sums)
            ok = False
        except gf.SingularParameterError:
            pass
    elapsed = time.monotonic() - start
    _record(
        "7-gf-identities",
        ok and elapsed < 10.0,
        f"5 p-points, 5 (p,y), 5 (p,q,r) mod x^9, 2 with q = r refused, {elapsed:.2f}s",
    )


def test_criterion_8_laurent_and_unit_rows():
    a_table = recur.a_table_lemma(9)
    ok = recur.check_an_functional(8, a_table).status == "pass"
    ok &= gf.check_last_letter_uniformity(9, a_table).status == "pass"
    flat9 = recur.row_poly(a_table, 9).substitute("p", 1).substitute("q", 1)
    expected = MPoly.zero()
    for i in range(1, 10):
        expected = expected + MPoly.monomial(factorial(8), y=i)
    ok &= flat9 == expected
    _record("8-laurent-identity-and-unit-rows", ok, "2<=n<=8 cleared form; rows n<=9")


def test_criterion_9_verify_cli():
    start = time.monotonic()
    clean = subprocess.run(
        [sys.executable, "-m", "invbargraph", "verify", "--nmax", "7", "--order", "8"],
        capture_output=True, text=True,
    )
    elapsed = time.monotonic() - start
    ok = clean.returncode == 0 and elapsed < 60.0
    report = json.loads(clean.stdout)
    ok &= all(r["status"] == "pass" for r in report)
    corrupted = subprocess.run(
        [sys.executable, "-m", "invbargraph", "verify", "--nmax", "7", "--order", "8",
         "--corrupt"],
        capture_output=True, text=True,
    )
    ok &= corrupted.returncode == 1
    _record("9-verify-cli", ok, f"exit 0 in {elapsed:.1f}s; corrupted exit 1")
