"""Identity-suite driver behind the `verify` CLI command.

Builds the distribution tables once, then runs the selected suites against
them; the gf suite also builds point tables at each parameter point it draws.
The two sweep suites share one enumeration of each length, built on first use.
Random rational parameter points are drawn from a seeded generator so runs
are reproducible; `corrupt=True` perturbs cell (3,1) of each lemma table
(symbolic and point) first, as a negative control that must make the run fail.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from math import factorial, prod
from typing import Callable

from invbargraph import bijections as bj
from invbargraph import gfseries as gf
from invbargraph import invseq, recur
from invbargraph.invseq import InversionSequence
from invbargraph.mpoly import MPoly, P, Q, R
from invbargraph.recur import DistTable
from invbargraph.reporting import CheckResult, check

SUITES = ("recurrences", "totals", "signbalance", "bijections", "gf")
DEFAULT_SEED = 12345
DEFAULT_NMAX = 7
DEFAULT_ORDER = 8
# Largest n for the exhaustive per-sequence sweeps.  Both sweep suites together
# take 0.54 s of CPU at 7 and 3.9 s at 8 (in process, --nmax 9, C kernel,
# Python 3.11 on a 2-core Xeon); 8 alone would take longer than all of
# `verify --nmax 9 --order 12` does at 7.
EXHAUSTIVE_CAP = 7


def _corrupted(table: DistTable, term: MPoly | Fraction | int) -> DistTable:
    """The table with `term` added to cell (3,1), if it has one."""
    return table.with_cell(3, 1, table[3, 1] + term) if table.n >= 3 else table


class _Tables:
    """The lemma tables every suite reads, built once, and the sweeps' enumeration.

    The recurrences suite builds the other tables.
    """

    def __init__(self, nmax: int, order: int, corrupt: bool):
        depth = max(nmax, order)
        self.nmax = nmax
        self.order = order
        self.corrupt = corrupt
        self.a_lemma = recur.a_table_lemma(depth)
        self.b_lemma = recur.b_table_lemma(depth)
        if corrupt:
            # p*q and p*q*r move every weighted-exponent total, which a
            # constant would not, so the totals suite sees them too
            self.a_lemma = _corrupted(self.a_lemma, P * Q)
            self.b_lemma = _corrupted(self.b_lemma, P * Q * R)

    def point_lemma(self, engine: str, **values: Fraction) -> DistTable:
        """The lemma point table to depth `order`, corrupted as the symbolic one.

        The markers' product is p*q or p*q*r at the point.
        """
        table = recur.point_table(engine, self.order, **values)
        return _corrupted(table, prod(values.values())) if self.corrupt else table

    @cached_property
    def sweeps(self) -> dict[int, _Sweep]:
        """The exhaustive enumeration for n <= min(nmax, EXHAUSTIVE_CAP), built on first use.

        Both sweep suites read it, and no other suite.
        """
        return {n: _Sweep(list(invseq.enumerate_sequences(n)))
                for n in range(1, min(self.nmax, EXHAUSTIVE_CAP) + 1)}


class _Sweep:
    """All sequences of one length, their statistics, and each one's position."""

    def __init__(self, seqs: list[InversionSequence]):
        self.seqs = seqs
        self.stats = [invseq.stats(rho) for rho in seqs]
        self.position = {rho: k for k, rho in enumerate(seqs)}

    def images(self, f: Callable) -> tuple[list, list[int | None]]:
        """f of each sequence, and the image's position (None if it is not a sequence here).

        An involution is applied once: its second application and the image's
        statistics are read at that position.
        """
        images = list(map(f, self.seqs))
        return images, list(map(self.position.get, images))


def _compare_tables(
    name: str, left: DistTable, right: DistTable, depth: int
) -> CheckResult:
    return check(name, f"n<={depth}", "",
                 ((f"cell ({m},{i})", left[m, i], right[m, i])
                  for m in range(1, depth + 1) for i in range(1, m + 1)))


def _suite_recurrences(t: _Tables) -> list[CheckResult]:
    depth = max(t.nmax, t.order)
    a_three, b_three = recur.a_table_threeterm(depth), recur.b_table_threeterm(depth)
    a_brute, b_brute = invseq.brute_dist_area_sper(t.nmax), invseq.brute_dist_lda(t.nmax)
    direct = recur.bn_poly_recurrence(depth)
    return [
        _compare_tables("area-sper-lemma-vs-threeterm", t.a_lemma, a_three, depth),
        _compare_tables("area-sper-lemma-vs-brute", t.a_lemma, a_brute, t.nmax),
        _compare_tables("lda-lemma-vs-threeterm", t.b_lemma, b_three, depth),
        _compare_tables("lda-lemma-vs-brute", t.b_lemma, b_brute, t.nmax),
        check("lda-direct-row-recurrence", f"n<={depth}", "",
              ((f"row {n} (direct, table)", direct[n - 1], recur.row_poly(t.b_lemma, n))
               for n in range(1, depth + 1))),
        recur.check_an_functional(depth, t.a_lemma),
    ]


TOTALS = {  # statistic: (closed form, table, marker)
    "area": (recur.total_area, "a", "p"),
    "sper": (recur.total_sper, "a", "q"),
    "levels": (recur.total_levels, "b", "p"),
    "descents": (recur.total_descents, "b", "q"),
    "ascents": (recur.total_ascents, "b", "r"),
}


def _suite_totals(t: _Tables) -> list[CheckResult]:
    ns = range(1, t.nmax + 1)
    brute = {n: invseq.brute_stat_totals(n) for n in ns}
    tables = {"a": t.a_lemma, "b": t.b_lemma}

    def totals_cases():
        for n in ns:
            for stat, (closed, which, marker) in TOTALS.items():
                want = closed(n)
                got = (brute[n][stat], recur.table_stat_total(tables[which], n, marker))
                yield f"n={n} {stat} (brute, table)", got, (want, want)

    return [
        check("totals-closed-vs-brute-vs-table", f"n<={t.nmax}", "", totals_cases()),
        check("adjacency-count-consistency", f"n<={t.nmax}", "",
              ((f"n={n} levels+descents+ascents",
                brute[n]["levels"] + brute[n]["descents"] + brute[n]["ascents"],
                (n - 1) * factorial(n))
               for n in ns)),
    ]


class _Named(dict):
    """The conditions of one sweep case, shown as (name=value, ...) in a mismatch."""

    def to_text(self) -> str:
        return "(" + ", ".join(f"{name}={value}" for name, value in self.items()) + ")"


def _outside(want: _Named) -> _Named:
    """A case whose image is not a sequence of its length: no involution, no image statistics."""
    return _Named(dict.fromkeys(want), involution=False)


def _suite_signbalance(t: _Tables) -> list[CheckResult]:
    results = recur.check_sign_balance(t.nmax, t.a_lemma, t.b_lemma)
    cap = min(t.nmax, EXHAUSTIVE_CAP)
    n_range = f"2<=n<={cap}"
    sweeps = [t.sweeps[n] for n in range(2, cap + 1)]

    def area_flip_cases():
        want = _Named(involution=True, area_change=1)
        for sweep in sweeps:
            _, at = sweep.images(bj.area_flip)
            for k, (rho, st, j) in enumerate(zip(sweep.seqs, sweep.stats, at)):
                got = _outside(want) if j is None else _Named(
                    involution=at[j] == k, area_change=abs(sweep.stats[j].area - st.area))
                yield rho, got, want

    def sper_cases():
        want_outside = _Named(weakly_increasing=True, ends_in_n_or_n_minus_1=True,
                              sper_is_n_plus_last=True)
        want_inside = _Named(moves=True, involution=True, sper_change=1)
        for n, sweep in enumerate(sweeps, start=2):
            mates, at = sweep.images(bj.sper_involution)
            undefined = 0
            for k, (rho, st, mate, j) in enumerate(zip(sweep.seqs, sweep.stats, mates, at)):
                if mate is None:  # outside the domain
                    undefined += 1
                    e = rho.entries
                    got = _Named(weakly_increasing=all(a <= b for a, b in zip(e, e[1:])),
                                 ends_in_n_or_n_minus_1=e[-1] in (n - 1, n),
                                 sper_is_n_plus_last=st.sper == n + e[-1])
                    yield rho, got, want_outside
                elif j is None:
                    yield rho, _outside(want_inside), want_inside
                else:
                    got = _Named(moves=j != k, involution=at[j] == k,
                                 sper_change=abs(sweep.stats[j].sper - st.sper))
                    yield rho, got, want_inside
            yield f"n={n} undefined count", undefined, 2 * 2 ** (n - 2)

    def levels_cases():
        want = _Named(moves=True, involution=True, levels_parity_change=1, same_last=True)
        for n, sweep in enumerate(sweeps, start=2):
            mates, at = sweep.images(bj.levels_involution)
            undefined = {1: 0, 2: 0}
            for k, (rho, st, mate, j) in enumerate(zip(sweep.seqs, sweep.stats, mates, at)):
                if mate is None:
                    undefined[rho.entries[-1]] += 1
                elif j is None:
                    yield rho, _outside(want), want
                else:
                    got = _Named(moves=j != k, involution=at[j] == k,
                                 levels_parity_change=(sweep.stats[j].levels - st.levels) % 2,
                                 same_last=mate.entries[-1] == rho.entries[-1])
                    yield rho, got, want
            yield (f"n={n} undefined count by last letter", undefined,
                   {1: 2 ** (n - 2), 2: 2 ** (n - 2)})

    return results + [
        check("area-flip-pairing", n_range, "", area_flip_cases()),
        check("sper-involution-pairing", n_range, "", sper_cases()),
        check("levels-involution-pairing", n_range, "", levels_cases()),
    ]


def _suite_bijections(t: _Tables) -> list[CheckResult]:
    results = recur.check_stirling_eulerian(t.nmax, t.b_lemma)
    cap = min(t.nmax, EXHAUSTIVE_CAP)
    n_range = f"n<={cap}"
    sweeps = [t.sweeps[n] for n in range(1, cap + 1)]
    # the two bijections are not involutions: their images are permutations
    cycle_forms = [list(map(bj.f_levels_to_cycles, sweep.seqs)) for sweep in sweeps]
    perms = [list(map(bj.g_ascents, sweep.seqs)) for sweep in sweeps]

    def complement_cases():
        for sweep in sweeps:
            _, at = sweep.images(bj.complement)
            for k, (rho, st, j) in enumerate(zip(sweep.seqs, sweep.stats, at)):
                want = _Named(involution=True, ascents=st.levels + st.descents)
                got = _outside(want) if j is None else _Named(
                    involution=at[j] == k, ascents=sweep.stats[j].ascents)
                yield rho, got, want

    def roundtrip_cases():
        for sweep, cfs in zip(sweeps, cycle_forms):
            for rho, st, cf in zip(sweep.seqs, sweep.stats, cfs):
                got = _Named(cycles=cf.cycle_count(), roundtrip=bj.f_inverse(cf) == rho)
                yield rho, got, _Named(cycles=st.levels + 1, roundtrip=True)

    def ascents_cases():
        for sweep, pis in zip(sweeps, perms):
            for rho, st, pi in zip(sweep.seqs, sweep.stats, pis):
                got = _Named(ascents=bj.ascent_count(pi), roundtrip=bj.g_inverse(pi) == rho)
                yield rho, got, _Named(ascents=st.ascents, roundtrip=True)

    def injectivity_cases():
        for n, (cfs, pis) in enumerate(zip(cycle_forms, perms), start=1):
            got = _Named(cycle_images=len(set(cfs)), permutation_images=len(set(pis)))
            yield f"n={n}", got, _Named(cycle_images=factorial(n),
                                        permutation_images=factorial(n))

    return results + [
        check("levels-to-cycles-roundtrip", n_range, "", roundtrip_cases()),
        check("ascents-map-roundtrip", n_range, "", ascents_cases()),
        check("complement-transport", n_range, "", complement_cases()),
        check("bijection-injectivity", n_range, "", injectivity_cases()),
    ]


def _random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.randint(1, 4))


def _draw(rng: random.Random, points: list[tuple], k: int, ok) -> list[tuple]:
    """`points` filled up to k points: seeded draws, shaped as points[0], that `ok` accepts."""
    while len(points) < k:
        point = tuple(_random_rational(rng) for _ in points[0])
        if ok(*point):
            points.append(point)
    return points


def _suite_gf(
    t: _Tables,
    seed: int,
    point: tuple[Fraction, Fraction, Fraction] | None,
) -> list[CheckResult]:
    order = t.order
    rng = random.Random(seed)
    results = [gf.check_last_letter_uniformity(max(t.nmax, order), t.a_lemma)]
    # symbolic rows that every point table is linked to
    link = range(1, min(t.nmax, order) + 1)
    a_sums = [t.a_lemma.row_sum(n) for n in link]
    a_rows = [recur.row_poly(t.a_lemma, n) for n in link]
    b_sums = [t.b_lemma.row_sum(n) for n in link]

    for (p,) in _draw(rng, [(Fraction(1, 2),)], 6, lambda p: p != 1):
        table = t.point_lemma("a_lemma", p=p, q=1)
        results.append(gf.check_area_ogf_recursion(p, order, table, a_sums))
        results.append(gf.check_area_ogf_closed(p, None, order, table, a_sums))

    # at y = 0 every row polynomial vanishes (each cell carries y^i, i >= 1),
    # so the check would compare 0 with 0
    py_points = [(Fraction(1, 2), Fraction(1, 3))]
    for p, y in _draw(rng, py_points, 6, lambda p, y: p != 1 and p * y != 1 and y != 0):
        table = t.point_lemma("a_lemma", p=p, q=1)
        results.append(gf.check_area_ogf_closed(p, y, order, table, a_rows))

    # at q = r, rho(u) = (1 - (p-q)u)/(1 - (p-r)u) = 1 and both kernel
    # identities hold for any series, so no fixed or drawn point has q = r
    pqr_points = [
        (Fraction(1), Fraction(1), Fraction(2)),
        (Fraction(1, 3), Fraction(1, 2), Fraction(1, 5)),
        (Fraction(0), Fraction(1), Fraction(2)),
    ]
    if point is not None:
        pqr_points.insert(0, point)
    for p, q, r in _draw(rng, pqr_points, 8, lambda p, q, r: q != 0 and q != r):
        table = t.point_lemma("b_lemma", p=p, q=q, r=r)
        results.extend(gf.check_lda_kernel(p, q, r, order, table, b_sums))

    ys = (Fraction(1, 2), Fraction(2), Fraction(-1, 3))
    results.extend(gf.check_total_gfs(ys, order, t.a_lemma, t.b_lemma))
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
