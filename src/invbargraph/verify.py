"""Identity-suite driver behind the `verify` CLI command.

Builds the distribution tables once, then runs the selected suites against
them.  Random rational parameter points are drawn from a seeded generator so
runs are reproducible; `corrupt=True` perturbs one cell of each recurrence
table first, as a negative control that must make the run fail.
"""

from __future__ import annotations

import random
from fractions import Fraction

from invbargraph import bijections as bj
from invbargraph import gfseries as gf
from invbargraph import invseq, recur
from invbargraph.mpoly import P, Q, R
from invbargraph.recur import DistTable
from invbargraph.reporting import CheckResult, IdentityViolationError

SUITES = ("recurrences", "totals", "signbalance", "bijections", "gf")
DEFAULT_SEED = 12345
DEFAULT_NMAX = 7
DEFAULT_ORDER = 8
EXHAUSTIVE_CAP = 7  # largest n for exhaustive per-sequence sweeps


def _fail(formula: str, n_range: str, params: str, mismatch: str) -> CheckResult:
    return CheckResult(formula, n_range, params, status="fail", first_mismatch=mismatch)


class _Tables:
    """All tables a verify run needs, built once."""

    def __init__(self, nmax: int, order: int, corrupt: bool):
        depth = max(nmax, order)
        self.nmax = nmax
        self.order = order
        self.a_lemma = recur.a_table_lemma(depth)
        self.a_three = recur.a_table_threeterm(depth)
        self.b_lemma = recur.b_table_lemma(depth)
        self.b_three = recur.b_table_threeterm(depth)
        self.a_brute = invseq.brute_dist_area_sper(nmax)
        self.b_brute = invseq.brute_dist_lda(nmax)
        if corrupt:
            # p*q and p*q*r move every weighted-exponent total, which a
            # constant would not, so the totals suite sees them too
            bad_a = self.a_lemma[3, 1] + P * Q
            bad_b = self.b_lemma[3, 1] + P * Q * R
            self.a_lemma = self.a_lemma.with_cell(3, 1, bad_a)
            self.b_lemma = self.b_lemma.with_cell(3, 1, bad_b)


def _compare_tables(
    name: str, left: DistTable, right: DistTable, depth: int
) -> CheckResult:
    for m in range(1, depth + 1):
        for i in range(1, m + 1):
            if left[m, i] != right[m, i]:
                return _fail(name, f"n<={depth}", "",
                             f"cell ({m},{i}): {left[m, i].to_text()} != {right[m, i].to_text()}")
    return CheckResult(name, f"n<={depth}")


def _suite_recurrences(t: _Tables) -> list[CheckResult]:
    depth = max(t.nmax, t.order)
    results = [
        _compare_tables("area-sper-lemma-vs-threeterm", t.a_lemma, t.a_three, depth),
        _compare_tables("area-sper-lemma-vs-brute", t.a_lemma, t.a_brute, t.nmax),
        _compare_tables("lda-lemma-vs-threeterm", t.b_lemma, t.b_three, depth),
        _compare_tables("lda-lemma-vs-brute", t.b_lemma, t.b_brute, t.nmax),
    ]
    direct = recur.bn_poly_recurrence(depth)
    for n in range(1, depth + 1):
        if direct[n - 1] != recur.row_poly(t.b_lemma, n):
            results.append(_fail("lda-direct-row-recurrence", f"n={n}", "",
                                 "direct row poly differs from table row"))
            break
    else:
        results.append(CheckResult("lda-direct-row-recurrence", f"n<={depth}"))
    try:
        results.append(recur.check_an_functional(depth, t.a_lemma))
    except IdentityViolationError as err:
        results.append(err.result)
    return results


def _suite_totals(t: _Tables) -> list[CheckResult]:
    results = []
    closed = {
        "area": recur.total_area,
        "sper": recur.total_sper,
        "levels": recur.total_levels,
        "descents": recur.total_descents,
        "ascents": recur.total_ascents,
    }
    markers = {"area": ("a", "p"), "sper": ("a", "q"), "levels": ("b", "p"),
               "descents": ("b", "q"), "ascents": ("b", "r")}
    tables = {"a": t.a_lemma, "b": t.b_lemma}
    factorial = 1
    for n in range(1, t.nmax + 1):
        factorial *= n
        brute = invseq.brute_stat_totals(n)
        for stat, fn in closed.items():
            which, marker = markers[stat]
            want = fn(n)
            got_brute = brute[stat]
            got_table = recur.table_stat_total(tables[which], n, marker)
            if not (want == got_brute == got_table):
                results.append(_fail(f"total-{stat}", f"n={n}", "",
                                     f"closed {want}, brute {got_brute}, table {got_table}"))
                return results
        if brute["levels"] + brute["descents"] + brute["ascents"] != (n - 1) * factorial:
            results.append(_fail("adjacency-count-consistency", f"n={n}", "",
                                 "levels+descents+ascents != (n-1) n!"))
            return results
    results.append(CheckResult("totals-closed-vs-brute-vs-table", f"n<={t.nmax}"))
    results.append(CheckResult("adjacency-count-consistency", f"n<={t.nmax}"))
    return results


def _suite_signbalance(t: _Tables) -> list[CheckResult]:
    results = []
    try:
        results.extend(recur.check_sign_balance(t.nmax, t.a_lemma, t.b_lemma))
    except IdentityViolationError as err:
        results.append(err.result)
        return results
    cap = min(t.nmax, EXHAUSTIVE_CAP)
    for n in range(2, cap + 1):
        undef_sper = 0
        undef_levels_by_last = {1: 0, 2: 0}
        for rho in invseq.enumerate_sequences(n):
            st = invseq.stats(rho)
            flip = bj.area_flip(rho)
            if bj.area_flip(flip) != rho or abs(invseq.stats(flip).area - st.area) != 1:
                results.append(_fail("area-flip-pairing", f"n={n}", "", rho.to_text()))
                return results
            mate = bj.sper_involution(rho)
            if mate is None:
                undef_sper += 1
                entries = rho.entries
                if any(a > b for a, b in zip(entries, entries[1:])):
                    results.append(_fail("sper-involution-undefined-structure",
                                         f"n={n}", "", f"{rho.to_text()} not weakly increasing"))
                    return results
                if entries[-1] not in (n - 1, n) or st.sper != n + entries[-1]:
                    results.append(_fail("sper-involution-undefined-structure",
                                         f"n={n}", "", rho.to_text()))
                    return results
            elif (mate == rho or bj.sper_involution(mate) != rho
                  or abs(invseq.stats(mate).sper - st.sper) != 1):
                results.append(_fail("sper-involution-pairing", f"n={n}", "", rho.to_text()))
                return results
            mate = bj.levels_involution(rho)
            if mate is None:
                undef_levels_by_last[rho.entries[-1]] += 1
            elif (mate == rho or bj.levels_involution(mate) != rho
                  or (invseq.stats(mate).levels - st.levels) % 2 == 0
                  or mate.entries[-1] != rho.entries[-1]):
                results.append(_fail("levels-involution-pairing", f"n={n}", "", rho.to_text()))
                return results
        if undef_sper != 2 * 2 ** (n - 2):
            results.append(_fail("sper-involution-undefined-count", f"n={n}", "",
                                 f"{undef_sper} != 2*2^(n-2)"))
            return results
        if undef_levels_by_last != {1: 2 ** (n - 2), 2: 2 ** (n - 2)}:
            results.append(_fail("levels-involution-undefined-count", f"n={n}", "",
                                 f"{undef_levels_by_last} != 2^(n-2) per last letter"))
            return results
    results.append(CheckResult("area-flip-pairing", f"2<=n<={cap}"))
    results.append(CheckResult("sper-involution-pairing", f"2<=n<={cap}"))
    results.append(CheckResult("levels-involution-pairing", f"2<=n<={cap}"))
    return results


def _suite_bijections(t: _Tables) -> list[CheckResult]:
    results = []
    try:
        results.extend(recur.check_stirling_eulerian(t.nmax, t.b_lemma))
    except IdentityViolationError as err:
        results.append(err.result)
        return results
    cap = min(t.nmax, EXHAUSTIVE_CAP)
    for n in range(1, cap + 1):
        seen_cycles: set = set()
        seen_perms: set = set()
        for rho in invseq.enumerate_sequences(n):
            st = invseq.stats(rho)
            cf = bj.f_levels_to_cycles(rho)
            if cf.cycle_count() != st.levels + 1 or bj.f_inverse(cf) != rho:
                results.append(_fail("levels-to-cycles-roundtrip", f"n={n}", "", rho.to_text()))
                return results
            seen_cycles.add(cf)
            pi = bj.g_ascents(rho)
            if bj.ascent_count(pi) != st.ascents or bj.g_inverse(pi) != rho:
                results.append(_fail("ascents-map-roundtrip", f"n={n}", "", rho.to_text()))
                return results
            seen_perms.add(pi)
            comp = bj.complement(rho)
            cst = invseq.stats(comp)
            if bj.complement(comp) != rho or cst.ascents != st.levels + st.descents:
                results.append(_fail("complement-transport", f"n={n}", "", rho.to_text()))
                return results
        factorial = 1
        for k in range(2, n + 1):
            factorial *= k
        if len(seen_cycles) != factorial or len(seen_perms) != factorial:
            results.append(_fail("bijection-injectivity", f"n={n}", "",
                                 f"{len(seen_cycles)} cycle images, {len(seen_perms)} perm images"))
            return results
    results.append(CheckResult("levels-to-cycles-roundtrip", f"n<={cap}"))
    results.append(CheckResult("ascents-map-roundtrip", f"n<={cap}"))
    results.append(CheckResult("complement-transport", f"n<={cap}"))
    results.append(CheckResult("bijection-injectivity", f"n<={cap}"))
    return results


def _random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.randint(1, 4))


def _suite_gf(
    t: _Tables,
    seed: int,
    point: tuple[Fraction, Fraction, Fraction] | None,
) -> list[CheckResult]:
    results = []
    order = t.order
    rng = random.Random(seed)
    try:
        results.append(gf.check_last_letter_uniformity(max(t.nmax, order), t.a_lemma))

        p_points = [Fraction(1, 2)]
        while len(p_points) < 6:
            p = _random_rational(rng)
            if p != 1:
                p_points.append(p)
        for p in p_points:
            results.append(gf.check_area_ogf_recursion(p, order, t.a_lemma))
            results.append(gf.check_area_ogf_closed(p, None, order, t.a_lemma))

        py_points = [(Fraction(1, 2), Fraction(1, 3))]
        while len(py_points) < 6:
            p, y = _random_rational(rng), _random_rational(rng)
            if p != 1 and p * y != 1:
                py_points.append((p, y))
        for p, y in py_points:
            results.append(gf.check_area_ogf_closed(p, y, order, t.a_lemma))

        pqr_points = [
            (Fraction(1), Fraction(1), Fraction(1)),
            (Fraction(1, 3), Fraction(1, 2), Fraction(1, 5)),
            (Fraction(0), Fraction(1), Fraction(1)),
        ]
        if point is not None:
            pqr_points.insert(0, point)
        while len(pqr_points) < 8:
            p, q, r = (_random_rational(rng) for _ in range(3))
            if q != 0:
                pqr_points.append((p, q, r))
        for p, q, r in pqr_points:
            results.extend(gf.check_lda_kernel(p, q, r, order, t.b_lemma))

        for y in (Fraction(1, 2), Fraction(2), Fraction(-1, 3)):
            results.extend(gf.check_total_gfs(y, order, t.a_lemma, t.b_lemma))
    except IdentityViolationError as err:
        results.append(err.result)
    return results


def run_verify(
    suites: list[str] | tuple[str, ...] = SUITES,
    nmax: int = DEFAULT_NMAX,
    order: int = DEFAULT_ORDER,
    seed: int = DEFAULT_SEED,
    point: tuple[Fraction, Fraction, Fraction] | None = None,
    corrupt: bool = False,
) -> tuple[list[CheckResult], bool]:
    """Run the selected suites; returns (results, all_passed)."""
    tables = _Tables(nmax, order, corrupt)
    results: list[CheckResult] = []
    if "recurrences" in suites:
        results.extend(_suite_recurrences(tables))
    if "totals" in suites:
        results.extend(_suite_totals(tables))
    if "signbalance" in suites:
        results.extend(_suite_signbalance(tables))
    if "bijections" in suites:
        results.extend(_suite_bijections(tables))
    if "gf" in suites:
        results.extend(_suite_gf(tables, seed, point))
    ok = all(r.status == "pass" for r in results)
    return results, ok
