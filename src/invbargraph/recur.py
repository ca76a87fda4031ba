"""Recurrence engines for the joint distribution tables, plus exact totals.

Two independent recurrences fill each triangular table: a full-sum recurrence
obtained by peeling the last bargraph column, and a three-term recurrence in
the last letter.  Both must agree cell-for-cell with brute-force enumeration.

Notation used throughout: cell (n, i) of the area/sper table is the
polynomial a(n,i) in p (area) and q (sper) summed over length-n sequences
ending in i; row polynomials attach y^i to cell (n, i).  The lda table b(n,i)
uses p (levels), q (descents), r (ascents).

Each recurrence is written once and fills either the symbolic table
(`a_table_lemma` and friends) or the table of its values at a numeric point
(`point_table`), so the generating-function checks can recur at the point
instead of evaluating symbolic tables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Any, Callable, Iterable, Iterator

from invbargraph.mpoly import DIGITS_MAX, MPoly, P, Q, R, T, Y, lincomb
from invbargraph.reporting import CheckResult, check

Rat = Fraction | int

# a cell's row or column in the CSV form, as to_csv writes it
_INDEX_RE = re.compile(rf"[0-9]{{1,{DIGITS_MAX}}}")


class NonDivisibleError(ArithmeticError):
    """Exact division left a remainder (signals an implementation bug)."""


class DistTable:
    """Triangular array of cells (m, i), 1 <= i <= m <= n.

    The cells are distribution polynomials, or their values at a point (see
    `point_table`).  The CSV and JSON forms need polynomials; only the CSV
    form is read back (`from_csv`).
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Iterable[MPoly]]):
        rows = tuple(tuple(row) for row in rows)
        for m, row in enumerate(rows, start=1):
            if len(row) != m:
                raise ValueError(f"row {m} must have {m} cells, got {len(row)}")
        object.__setattr__(self, "_rows", rows)

    @property
    def n(self) -> int:
        return len(self._rows)

    def __getitem__(self, key: tuple[int, int]) -> MPoly:
        m, i = key
        if not 1 <= i <= m <= self.n:
            raise KeyError(f"no cell ({m}, {i}) in a table of size {self.n}")
        return self._rows[m - 1][i - 1]

    def row(self, m: int) -> tuple[MPoly, ...]:
        return self._rows[m - 1]

    def row_sum(self, m: int) -> MPoly:
        """Sum of the cells of row m (the row polynomial at y = 1)."""
        row = self._rows[m - 1]
        if isinstance(row[0], MPoly):
            return lincomb((1, cell) for cell in row)
        return sum(row)

    def cells(self) -> Iterator[tuple[int, int, MPoly]]:
        for m, row in enumerate(self._rows, start=1):
            for i, cell in enumerate(row, start=1):
                yield m, i, cell

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DistTable) and self._rows == other._rows

    def __repr__(self) -> str:
        return f"<DistTable n={self.n}>"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("DistTable is immutable")

    def with_cell(self, m: int, i: int, poly: MPoly) -> "DistTable":
        """A copy with cell (m, i) replaced (tables are immutable)."""
        rows = [list(row) for row in self._rows]
        rows[m - 1][i - 1] = poly
        return DistTable(rows)

    # -- serialization -------------------------------------------------------

    def to_csv(self) -> str:
        lines = [f"{m},{i},{cell.to_text()}" for m, i, cell in self.cells()]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "DistTable":
        """Parse `to_csv` text; a duplicate, missing or out-of-range cell is a ValueError.

        The row and column of a cell are ASCII digits, as `to_csv` writes
        them; any other line is a ValueError that names it.
        """
        cells: dict[tuple[int, int], MPoly] = {}
        for line in text.strip().splitlines():
            fields = line.split(",", 2)
            if len(fields) != 3 or not (_INDEX_RE.fullmatch(fields[0])
                                        and _INDEX_RE.fullmatch(fields[1])):
                raise ValueError(f"bad table line {line!r}")
            m_str, i_str, poly_str = fields
            cell = (int(m_str), int(i_str))
            if cell in cells:
                raise ValueError(f"cell {cell} appears twice")
            cells[cell] = MPoly.from_text(poly_str)
        if not cells:
            raise ValueError("a table needs at least one cell")
        n = max(m for m, _ in cells)
        rows = []
        for m in range(1, n + 1):
            row = []
            for i in range(1, m + 1):
                cell = cells.pop((m, i), None)
                if cell is None:
                    raise ValueError(f"cell ({m}, {i}) is missing from a table of {n} rows")
                row.append(cell)
            rows.append(row)
        if cells:
            raise ValueError(f"cell {next(iter(cells))} is outside 1 <= i <= m")
        return cls(rows)

    def to_json(self) -> str:
        """`[{"n": m, "i": i, "poly": <MPoly.to_json>}, ...]`, the bytes of json.dumps."""
        cells = [f'{{"n": {m}, "i": {i}, "poly": {cell.to_json()}}}'
                 for m, i, cell in self.cells()]
        return "[" + ", ".join(cells) + "]"


def row_poly(table: DistTable, m: int) -> MPoly:
    """Row polynomial of row m: sum_i cell(m, i) * y^i."""
    return lincomb((MPoly.monomial(1, y=i), cell) for i, cell in enumerate(table.row(m), start=1))


# -- the recurrence engines ------------------------------------------------------
#
# Each engine is written once over a ring (mono, lin): `mono(coeff, **exponents)`
# is the value of the monomial coeff * p^a q^b r^c in the ring the table lives
# in, and `lin(pairs)` is the sum of m * x over (m, x) pairs.  With
# `_SYMBOLIC` the cells are the symbolic distribution polynomials and every
# cell is built in one term map; with `_at_point(values)` they are those
# polynomials evaluated at a point, computed by the same recurrence
# (evaluate-then-recur).

Ring = tuple[Callable[..., Any], Callable[[Iterable[tuple[Any, Any]]], Any]]
_SYMBOLIC: Ring = (MPoly.monomial, lincomb)


def _check_size(n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")


def _a_lemma(n: int, ring: Ring) -> DistTable:
    _check_size(n)
    mono = ring[0]
    q = mono(1, q=1)
    rows = [(mono(1, p=1, q=2),)]
    for m in range(2, n + 1):
        prev = rows[-1]
        # suffix[k] = sum of prev[k:], so cell i sees sum_{j >= i} a(m-1,j)
        suffix = list(prev)
        for k in range(m - 3, -1, -1):
            suffix[k] = suffix[k + 1] + prev[k]
        row = [mono(1, p=1, q=1) * suffix[0]]
        weighted = prev[0] * q  # sum_{j<i} q^(i-j) a(m-1,j), grown with i
        for i in range(2, m):
            row.append(mono(1, p=i, q=1) * (suffix[i - 1] + weighted))
            weighted = (weighted + prev[i - 1]) * q
        row.append(mono(1, p=m, q=1) * weighted)
        rows.append(tuple(row))
    return DistTable(rows)


def _a_threeterm(n: int, ring: Ring) -> DistTable:
    _check_size(n)
    mono, lin = ring
    p, pq = mono(1, p=1), mono(1, p=1, q=1)
    up, back = pq + p, mono(-1, p=2, q=1)  # p(q+1) and -p^2 q
    rows = [(mono(1, p=1, q=2),)]
    for m in range(2, n + 1):
        prev = rows[-1]
        row = [lin((pq, cell) for cell in prev)]
        row.append(lin(((p, row[0]), (mono(1, p=2, q=2) + back, prev[0]))))
        for i in range(3, m + 1):
            fresh = mono(1, p=i, q=2) - mono(1, p=i, q=1)  # p^i q (q-1)
            row.append(lin(((up, row[i - 2]), (back, row[i - 3]), (fresh, prev[i - 2]))))
        rows.append(tuple(row))
    return DistTable(rows)


def _b_lemma(n: int, ring: Ring) -> DistTable:
    _check_size(n)
    mono, lin = ring
    p, q, r = mono(1, p=1), mono(1, q=1), mono(1, r=1)
    rows = [(mono(1),)]
    for m in range(2, n + 1):
        prev = rows[-1]
        if m == 2:
            rows.append((p * prev[0], r * prev[0]))
            continue
        # above[k] = sum of prev[k+1:], so cell i < m-1 sees sum_{j > i} b(m-1,j)
        above = list(prev[1:])
        for k in range(m - 4, -1, -1):
            above[k] = above[k + 1] + prev[k + 1]
        row = [lin(((p, prev[0]), (q, above[0])))]
        below = prev[0]  # sum_{j < i} b(m-1,j), grown with i
        for i in range(2, m - 1):
            row.append(lin(((p, prev[i - 1]), (q, above[i - 1]), (r, below))))
            below = below + prev[i - 1]
        row.append(lin(((p, prev[m - 2]), (r, below))))
        row.append(lin(((r, below), (r, prev[m - 2]))))
        rows.append(tuple(row))
    return DistTable(rows)


def _b_threeterm(n: int, ring: Ring) -> DistTable:
    _check_size(n)
    mono, lin = ring
    one, q, r = mono(1), mono(1, q=1), mono(1, r=1)
    p_q, r_p = mono(1, p=1) - q, r - mono(1, p=1)
    rows = [(one,)]
    for m in range(2, n + 1):
        prev = rows[-1]
        prev_sum = lin((one, cell) for cell in prev)
        row = [lin(((p_q, prev[0]), (q, prev_sum)))]
        for i in range(2, m):
            row.append(lin(((one, row[i - 2]), (p_q, prev[i - 1]), (r_p, prev[i - 2]))))
        row.append(r * prev_sum)
        rows.append(tuple(row))
    return DistTable(rows)


def a_table_lemma(n: int) -> DistTable:
    """Area/sper table via the peel-last-column recurrence.

    a(n,i) = p^i q [ sum_{j>=i} a(n-1,j) + sum_{j<i} q^(i-j) a(n-1,j) ],
    from a(1,1) = p q^2.  Appending a column of height i adds i cells and one
    half-perimeter unit, plus i-j more when the previous column is lower.
    """
    return _a_lemma(n, _SYMBOLIC)


def a_table_threeterm(n: int) -> DistTable:
    """Area/sper table via the three-term recurrence in the last letter.

    a(n,i) = p(q+1) a(n,i-1) - p^2 q a(n,i-2) + p^i q(q-1) a(n-1,i-1)
    for 3 <= i <= n, with a(n,1) = pq * rowsum(n-1) and
    a(n,2) = p a(n,1) + p^2 q(q-1) a(n-1,1).
    """
    return _a_threeterm(n, _SYMBOLIC)


def b_table_lemma(n: int) -> DistTable:
    """Lda table via the penultimate-letter recurrence.

    b(n,i) = p b(n-1,i) + q sum_{j>i} b(n-1,j) + r sum_{j<i} b(n-1,j) for
    i < n, and b(n,n) = r * rowsum(n-1), from b(1,1) = 1.
    """
    return _b_lemma(n, _SYMBOLIC)


def b_table_threeterm(n: int) -> DistTable:
    """Lda table via the three-term recurrence in the last letter.

    b(n,i) = b(n,i-1) + (p-q) b(n-1,i) + (r-p) b(n-1,i-1) for 2 <= i <= n-1,
    with b(n,1) = (p-q) b(n-1,1) + q * rowsum(n-1) and b(n,n) = r * rowsum(n-1).
    """
    return _b_threeterm(n, _SYMBOLIC)


# engine name: (engine, its markers)
_ENGINES = {
    "a_lemma": (_a_lemma, ("p", "q")),
    "a_threeterm": (_a_threeterm, ("p", "q")),
    "b_lemma": (_b_lemma, ("p", "q", "r")),
    "b_threeterm": (_b_threeterm, ("p", "q", "r")),
}
ENGINES = tuple(_ENGINES)


def _at_point(values: dict[str, Rat]) -> Ring:
    def mono(coeff: int, **exps: int) -> Rat:
        for name, e in exps.items():
            coeff *= values[name] ** e
        return coeff

    return mono, _point_lin


def _point_lin(pairs: Iterable[tuple[Rat, Rat]]) -> Rat:
    return sum(m * x for m, x in pairs)


def point_table(engine: str, n: int, **values: Rat) -> DistTable:
    """The table of `engine` (one of ENGINES) with its markers set to numbers.

    Cell (m, i) is the symbolic cell evaluated at the point, but the table is
    built by running the recurrence on the numbers (int cells at an integer
    point, Fraction cells otherwise), which is far cheaper than evaluating
    the symbolic table.  The area/sper engines take p and q, the lda engines
    p, q and r, each an int or a Fraction so that the cells stay exact.
    """
    build, markers = _ENGINES[engine]
    if sorted(values) != sorted(markers):
        raise ValueError(f"{engine} needs values for {', '.join(markers)}, got {sorted(values)}")
    for name, v in values.items():
        if not isinstance(v, (int, Fraction)):
            raise TypeError(f"{name} must be an int or a Fraction, got {type(v).__name__}")
    return build(n, _at_point(values))


def check_an_functional(nmax: int, table: DistTable) -> CheckResult:
    """Denominator-cleared row-polynomial identity for the area/sper table.

    For each n, with A_n(y) the row polynomial:
      (1-yp)(1-ypq) A_n(y) = ypq (1-ypq) (A_{n-1}(1) - A_{n-1}(yp))
                           + ypq^2 (1-yp) (A_{n-1}(yp) - (ypq)^n A_{n-1}(1/q))
    checked as exact Laurent-polynomial equality.
    """
    if nmax < 2:
        raise ValueError("nmax must be at least 2")

    def cases():
        ypq = Y * P * Q
        yp = Y * P
        a_prev = row_poly(table, 1)
        for n in range(2, nmax + 1):
            a_n = row_poly(table, n)
            at_one = a_prev.substitute("y", 1)
            at_yp = a_prev.substitute("y", yp)
            at_qinv = a_prev.substitute("y", MPoly.monomial(1, q=-1))
            lhs = (1 - yp) * (1 - ypq) * a_n
            rhs = ypq * (1 - ypq) * (at_one - at_yp) + Y * P * Q * Q * (1 - yp) * (
                at_yp - ypq ** n * at_qinv
            )
            yield f"n={n}", lhs, rhs
            a_prev = a_n

    return check("area-sper-row-functional", f"2<=n<={nmax}", "", cases())


def divide_exact_one_minus_y(num: MPoly) -> MPoly:
    """Exact quotient num / (1 - y) by synthetic division in y.

    Requires nonnegative y-exponents and num(y=1) = 0; raises
    NonDivisibleError otherwise.  `MPoly.div_one_minus` divides in one
    running prefix sum over the coefficients of y^0, y^1, ...; the prefix
    after the top degree is the remainder num(y=1).
    """
    try:
        quotient, remainder = num.div_one_minus("y")
    except ValueError:
        raise NonDivisibleError("negative powers of y in the dividend") from None
    if remainder:
        raise NonDivisibleError(f"remainder {remainder.to_text()}")
    return quotient


def bn_poly_recurrence(nmax: int) -> list[MPoly]:
    """Row polynomials B_n(y) of the lda table, computed directly.

    The paper's row equation is
    B_n(y) = [ (p(1-y) + yr - q) B_{n-1}(y) + y(q - y^n r) B_{n-1}(1) ] / (1-y),
    the division being exact; returns [B_1(y), ..., B_nmax(y)].  The term
    p(1-y) B_{n-1}(y) of the numerator is divided by (1-y) by cancelling it,
    so each row is computed as
    B_n(y) = p B_{n-1}(y) + [ (yr - q) B_{n-1}(y) + y(q - y^n r) B_{n-1}(1) ] / (1-y).
    The two numerators differ by a multiple of (1-y), so they have the same
    value at y = 1: the exactness check (a zero remainder) fails on one
    exactly when it fails on the other.
    """
    if nmax < 1:
        raise ValueError(f"nmax must be positive, got {nmax}")
    step = Y * R - Q
    out = [Y]
    for n in range(2, nmax + 1):
        prev = out[-1]
        prev_at_one = prev.substitute("y", 1)
        numerator = lincomb(((step, prev), (Y * (Q - MPoly.monomial(1, y=n) * R), prev_at_one)))
        out.append(lincomb(((P, prev), (1, divide_exact_one_minus_y(numerator)))))
    return out


# -- closed-form totals --------------------------------------------------------


@dataclass(frozen=True)
class HarmonicInteger:
    """The exact integer n! * H_n = sum_{i=1}^n n!/i."""

    n: int
    value: int

    @classmethod
    def of(cls, n: int) -> "HarmonicInteger":
        _check_size(n)
        fact = factorial(n)
        return cls(n, sum(fact // i for i in range(1, n + 1)))


def total_area(n: int) -> int:
    """Sum of areas over all length-n sequences: (n!/2) (C(n+2,2) - 1)."""
    _check_size(n)
    binom = (n + 2) * (n + 1) // 2
    num = factorial(n) * (binom - 1)
    q, rem = divmod(num, 2)
    assert rem == 0
    return q


def total_sper(n: int) -> int:
    """Sum of semi-perimeters over all length-n sequences: (n^2+15n+8) n!/12."""
    _check_size(n)
    q, rem = divmod((n * n + 15 * n + 8) * factorial(n), 12)
    assert rem == 0
    return q


def total_levels(n: int) -> int:
    """Total number of levels over all length-n sequences: n!(H_n - 1)."""
    _check_size(n)
    return HarmonicInteger.of(n).value - factorial(n)


def total_descents(n: int) -> int:
    """Total number of descents: (n+1)!/2 - n! H_n."""
    _check_size(n)
    q, rem = divmod(factorial(n + 1), 2)
    assert rem == 0
    return q - HarmonicInteger.of(n).value


def total_ascents(n: int) -> int:
    """Total number of ascents: (n-1) n!/2."""
    _check_size(n)
    q, rem = divmod((n - 1) * factorial(n), 2)
    assert rem == 0
    return q


def table_stat_total(table: DistTable, n: int, marker: str) -> int:
    """Total of the statistic tracked by `marker` over row n of a table.

    Derivative-free extraction: sum over terms of coeff * marker-exponent.
    """
    return sum(cell.weighted_exponent_sum(marker) for cell in table.row(n))


def table_stat_total_by_last(table: DistTable, n: int, marker: str) -> dict[int, int]:
    """Per-last-letter totals of a marked statistic on row n."""
    return {
        i: cell.weighted_exponent_sum(marker)
        for i, cell in enumerate(table.row(n), start=1)
    }


# -- independent count oracles ---------------------------------------------------


def stirling_first(n: int, k: int) -> int:
    """Signless Stirling number of the first kind: permutations of [n] with k cycles."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n} k={k}")
    row = [1]  # row for n=1: c(1,1)
    for m in range(2, n + 1):
        prev = row
        row = [0] * m
        for j in range(m):
            # c(m, j+1) = c(m-1, j) + (m-1) c(m-1, j+1)
            row[j] = (prev[j - 1] if j >= 1 else 0) + (m - 1) * (
                prev[j] if j < m - 1 else 0
            )
    return row[k - 1]


def eulerian(n: int, k: int) -> int:
    """Eulerian number: permutations of [n] with k ascents."""
    if not (n >= 1 and 0 <= k <= n - 1):
        raise ValueError(f"need 0 <= k <= n-1, got n={n} k={k}")
    row = [1]  # row for n=1: e(1,0)
    for m in range(2, n + 1):
        prev = row
        row = [0] * m
        for j in range(m):
            left = (j + 1) * (prev[j] if j < m - 1 else 0)
            right = (m - j) * (prev[j - 1] if j >= 1 else 0)
            row[j] = left + right
    return row[k]


def _t_poly(coeffs: Iterable[int]) -> MPoly:
    """sum_k coeffs[k] t^k."""
    return lincomb((c, MPoly.monomial(1, t=k)) for k, c in enumerate(coeffs))


def check_stirling_eulerian(nmax: int, table: DistTable) -> list[CheckResult]:
    """Row sums of the lda table specialize to Stirling and Eulerian rows.

    With B_n = rowsum(n): B_n(p=t,q=1,r=1) = sum_k c(n,k+1) t^k, and
    B_n(p=1,q=1,r=t) = B_n(p=t,q=t,r=1) = sum_k e(n,k) t^k.
    """
    if nmax < 1:
        raise ValueError(f"nmax must be positive, got {nmax}")
    ns = range(1, nmax + 1)
    row_sums = [table.row_sum(n) for n in ns]
    eulerian_polys = [_t_poly(eulerian(n, k) for k in range(n)) for n in ns]
    stirling_polys = (_t_poly(stirling_first(n, k + 1) for k in range(n)) for n in ns)

    def cases(p, q, r, wants):
        for n, row_sum, want in zip(ns, row_sums, wants):
            yield f"n={n}", row_sum.substitute("p", p).substitute("q", q).substitute("r", r), want

    n_range = f"1<=n<={nmax}"
    return [
        check("levels-vs-stirling", n_range, "", cases(T, 1, 1, stirling_polys)),
        check("ascents-vs-eulerian", n_range, "", cases(1, 1, T, eulerian_polys)),
        check("levels+descents-vs-eulerian", n_range, "", cases(T, T, 1, eulerian_polys)),
    ]


def check_sign_balance(nmax: int, a_table: DistTable, b_table: DistTable) -> list[CheckResult]:
    """Sign-balance evaluations of both tables against their closed forms.

    For n >= 3: A_n(y; p=-1, q=1) = 0 and A_n(y; p=1, q=-1) = 2^(n-2) y^(n-1) (y-1).
    For n >= 2: B_n(y; p=-t, q=t, r=t) = (-1)^n 2^(n-2) t^(n-1) (y-1) y.
    """
    if nmax < 3:
        raise ValueError("nmax must be at least 3")
    a_rows = [(n, row_poly(a_table, n)) for n in range(3, nmax + 1)]
    minus_t = MPoly.monomial(-1, t=1)

    def levels_cases():
        for n in range(2, nmax + 1):
            at = row_poly(b_table, n).substitute("p", minus_t).substitute("q", T).substitute("r", T)
            c = (-1) ** n * 2 ** (n - 2)
            yield f"n={n}", at, MPoly.monomial(c, y=2, t=n - 1) - MPoly.monomial(c, y=1, t=n - 1)

    return [
        check("area-sign-balance", f"3<=n<={nmax}", "p=-1,q=1",
              ((f"n={n}", a_n.substitute("p", -1).substitute("q", 1), MPoly.zero())
               for n, a_n in a_rows)),
        check("sper-sign-balance", f"3<=n<={nmax}", "p=1,q=-1",
              ((f"n={n}", a_n.substitute("p", 1).substitute("q", -1),
                MPoly.monomial(2 ** (n - 2), y=n) - MPoly.monomial(2 ** (n - 2), y=n - 1))
               for n, a_n in a_rows)),
        check("levels-sign-balance", f"2<=n<={nmax}", "p=-t,q=t,r=t", levels_cases()),
    ]
