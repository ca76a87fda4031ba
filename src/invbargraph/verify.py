"""Identity-suite driver behind the `verify` CLI command.

Builds the distribution tables once, then runs the selected suites against
them; the gf suite also builds point tables at each parameter point it draws.
The two sweep suites share one enumeration of each length, built on first use.
Where the machine lets two suites run at once, the sweep suites run in a
forked child while this process runs the table suites (`_fork_beside`); the
report is the same on either path.
Random rational parameter points are drawn from a seeded generator so runs
are reproducible; `corrupt=True` perturbs cell (3,1) of each lemma table
(symbolic and point) first, as a negative control that must make the run fail.

The checks own their rules, and this module restates none of them: a point
is drawn, or a given one refused, through the rules of `gfseries` that the
check itself raises on (`area_refusal`, `lda_kernel_refusal`), and tables
are compared by `recur.compare_tables` and `recur.check_row_equation`.
"""

from __future__ import annotations

import os
import random
import threading
from fractions import Fraction
from functools import cached_property
from math import factorial, prod
from typing import Callable, TypeVar

from invbargraph import bijections as bj
from invbargraph import gfseries as gf
from invbargraph import invseq, recur
from invbargraph.invseq import InversionSequence
from invbargraph.mpoly import MPoly, P, Q, R
from invbargraph.recur import DistTable
from invbargraph.reporting import CheckResult, check

SUITES = ("recurrences", "totals", "signbalance", "bijections", "gf")
# The suites that read the exhaustive enumeration (`_Tables.sweeps`); the
# others read only tables.
SWEEP_SUITES = ("signbalance", "bijections")
DEFAULT_SEED = 12345
DEFAULT_NMAX = 7
DEFAULT_ORDER = 8
# Largest n for the exhaustive per-sequence sweeps.  Both sweep suites together
# take 0.18 s of CPU at 7 and 1.53-1.58 s at 8 (the two suites in process on
# lemma tables already built, --nmax 9 --order 12, 3 fresh processes per cap,
# C kernel, Python 3.11 on the shared 2-core Xeon).  All of
# `verify --nmax 9 --order 12` then takes 0.34-0.47 s wall at 7 and
# 1.86-2.45 s at 8 (5 fresh runs each): 8 would not fit the 2 s budget.
EXHAUSTIVE_CAP = 7


def _corrupted(table: DistTable, term: MPoly | Fraction | int) -> DistTable:
    """The table with `term` added to cell (3,1), if it has one."""
    return table.with_cell(3, 1, table[3, 1] + term) if table.n >= 3 else table


class _Tables:
    """The lemma tables every suite reads, built once, and the sweeps' enumeration.

    The lemma tables reach `depth`, max(nmax, order); the recurrences suite
    builds the other tables.
    """

    def __init__(self, nmax: int, order: int, corrupt: bool):
        self.nmax = nmax
        self.order = order
        self.depth = max(nmax, order)
        self.corrupt = corrupt
        self.a_lemma = recur.a_table_lemma(self.depth)
        self.b_lemma = recur.b_table_lemma(self.depth)
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


def _suite_recurrences(t: _Tables) -> list[CheckResult]:
    depth, to_depth, to_nmax = t.depth, f"n<={t.depth}", f"n<={t.nmax}"
    a_three, b_three = recur.a_table_threeterm(depth), recur.b_table_threeterm(depth)
    a_brute, b_brute = invseq.brute_dist_area_sper(t.nmax), invseq.brute_dist_lda(t.nmax)
    return [
        recur.compare_tables("area-sper-lemma-vs-threeterm", to_depth, t.a_lemma, a_three, depth),
        recur.compare_tables("area-sper-lemma-vs-brute", to_nmax, t.a_lemma, a_brute, t.nmax),
        recur.compare_tables("lda-lemma-vs-threeterm", to_depth, t.b_lemma, b_three, depth),
        recur.compare_tables("lda-lemma-vs-brute", to_nmax, t.b_lemma, b_brute, t.nmax),
        recur.check_row_equation("lda-direct-row-recurrence", to_depth, "b_direct", depth,
                                 t.b_lemma),
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


def _draw(rng: random.Random, points: list[tuple], k: int, refusal: Callable) -> list[tuple]:
    """`points` filled up to k points: seeded draws, shaped as points[0], that `refusal` accepts.

    Each coordinate is drawn as a / b with a in -3..3 and b in 1..4.
    `refusal` is the check's rule in `gfseries`, which gives None for a point
    it accepts.  A draw already in the list is drawn again, so no point is
    checked twice.
    """
    while len(points) < k:
        point = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in points[0])
        if refusal(*point) is None and point not in points:
            points.append(point)
    return points


def _suite_gf(
    t: _Tables,
    seed: int,
    point: tuple[Fraction, Fraction, Fraction] | None,
) -> list[CheckResult]:
    order = t.order
    rng = random.Random(seed)
    results = [gf.check_last_letter_uniformity(t.depth, t.a_lemma)]
    # symbolic rows that every point table is linked to
    link = range(1, min(t.nmax, order) + 1)
    a_sums = [t.a_lemma.row_sum(n) for n in link]
    a_rows = [recur.row_poly(t.a_lemma, n) for n in link]
    b_sums = [t.b_lemma.row_sum(n) for n in link]

    for (p,) in _draw(rng, [(Fraction(1, 2),)], 6, gf.area_refusal):
        table = t.point_lemma("a_lemma", p=p, q=1)
        results.append(gf.check_area_ogf_recursion(p, order, table, a_sums))
        results.append(gf.check_area_ogf_closed(p, None, order, table, a_sums))

    py_points = [(Fraction(1, 2), Fraction(1, 3))]
    for p, y in _draw(rng, py_points, 6, gf.area_refusal):
        table = t.point_lemma("a_lemma", p=p, q=1)
        results.append(gf.check_area_ogf_closed(p, y, order, table, a_rows))

    pqr_points = [
        (Fraction(1), Fraction(1), Fraction(2)),
        (Fraction(1, 3), Fraction(1, 2), Fraction(1, 5)),
        (Fraction(0), Fraction(1), Fraction(2)),
    ]
    if point is not None:
        pqr_points = [point, *(fixed for fixed in pqr_points if fixed != point)]
    for p, q, r in _draw(rng, pqr_points, 8, gf.lda_kernel_refusal):
        table = t.point_lemma("b_lemma", p=p, q=q, r=r)
        results.extend(gf.check_lda_kernel(p, q, r, order, table, b_sums))

    ys = (Fraction(1, 2), Fraction(2), Fraction(-1, 3))
    results.extend(gf.check_total_gfs(ys, order, t.a_lemma, t.b_lemma))
    return results


class SweepChildError(RuntimeError):
    """The forked child running the sweep suites ended without a result."""


def _can_fork_beside() -> bool:
    """Whether a forked child may run suites beside this process.

    Only where a fork is safe (no other thread holds a lock the child would
    inherit) and a second CPU is there to run it.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return hasattr(os, "fork") and cpus >= 2 and threading.active_count() == 1


A = TypeVar("A")
B = TypeVar("B")


def _fork_beside(in_child: Callable[[], A], in_parent: Callable[[], B]) -> tuple[A, B]:
    """(in_child(), in_parent()), the first computed in a forked child meanwhile.

    The child's result, or the exception it raised, comes back pickled through
    a pipe and is returned, or raised, here.  The child ends only through
    os._exit, so it flushes no inherited buffer and runs no atexit handler.
    The child is always reaped; if `in_parent` raises, it is killed first.
    """
    import pickle  # here, so that importing the package does not pay for them
    import signal

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                outcome = (True, in_child())
            except BaseException as err:  # raised again in the parent
                outcome = (False, err)
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write_fd)
    data = None
    with os.fdopen(read_fd, "rb") as pipe:
        try:
            mine = in_parent()
            data = pipe.read()
        finally:
            if data is None:
                os.kill(pid, signal.SIGKILL)
            _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise SweepChildError(f"the process running the sweep suites {how} without a result")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value, mine


def run_verify(
    suites: list[str] | tuple[str, ...] = SUITES,
    nmax: int = DEFAULT_NMAX,
    order: int = DEFAULT_ORDER,
    seed: int = DEFAULT_SEED,
    point: tuple[Fraction, Fraction, Fraction] | None = None,
    corrupt: bool = False,
) -> tuple[list[CheckResult], bool]:
    """Run the selected suites; returns (results, all_passed).

    The results are in `SUITES` order, whichever process ran each suite.
    A name outside `SUITES`, or no name at all, is a ValueError; so is a
    `point` that `gfseries.lda_kernel_refusal` refuses (SingularParameterError),
    before any table is built.
    """
    unknown = [name for name in suites if name not in SUITES]
    if unknown or not suites:
        problem = f"unknown suites {unknown}" if unknown else "no suite selected"
        raise ValueError(f"{problem} (the suites are {', '.join(SUITES)})")
    if point is not None:
        gf.refuse(gf.lda_kernel_refusal(*point))
    tables = _Tables(nmax, order, corrupt)
    runs = {
        "recurrences": lambda: _suite_recurrences(tables),
        "totals": lambda: _suite_totals(tables),
        "signbalance": lambda: _suite_signbalance(tables),
        "bijections": lambda: _suite_bijections(tables),
        "gf": lambda: _suite_gf(tables, seed, point),
    }
    selected = [name for name in SUITES if name in suites]
    sweeps = [name for name in selected if name in SWEEP_SUITES]
    rest = [name for name in selected if name not in SWEEP_SUITES]

    def run(names: list[str]) -> dict[str, list[CheckResult]]:
        return {name: runs[name]() for name in names}

    if sweeps and rest and _can_fork_beside():
        in_child, in_parent = _fork_beside(lambda: run(sweeps), lambda: run(rest))
        by_suite = {**in_child, **in_parent}
    else:
        by_suite = run(selected)
    results = [r for name in selected for r in by_suite[name]]
    ok = all(r.status == "pass" for r in results)
    return results, ok
