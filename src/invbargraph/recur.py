"""Recurrence engines for the joint distribution tables, plus exact totals.

Two independent recurrences fill each triangular table: a full-sum recurrence
obtained by peeling the last bargraph column, and a three-term recurrence in
the last letter.  Both must agree cell-for-cell with brute-force enumeration.

Notation used throughout: cell (n, i) of the area/sper table is the
polynomial a(n,i) in p (area) and q (sper) summed over length-n sequences
ending in i; row polynomials attach y^i to cell (n, i).  The lda table b(n,i)
uses p (levels), q (descents), r (ascents).

The paper's row equations for A_n(y) and B_n(y) are engines too
(`_a_direct`, `_b_direct`): each solves its equation for row n from row
n - 1, dividing by 1 - yp and 1 - ypq, or by 1 - y, by synthetic division.
`check_row_equation` compares a table with theirs: `check_an_functional`
for A_n(y), and `verify`'s lda-direct-row-recurrence for B_n(y).
`compare_tables` is the one cell-by-cell comparison of two tables, for cells
of any ring; the row-equation checks and `verify`'s engine-against-engine
entries all go through it.

Each engine is written once over a ring and runs on three of them (see
the comment above the engines).  Every symbolic table is built on packed
ints, one int per cell (Kronecker substitution, `mpoly.Kronecker`), and each
finished row is unpacked once into `MPoly` cells: the area/sper tables
(`a_table_lemma`, `a_table_threeterm`, and the rows of `_a_direct`) in p and
q, the lda tables (`b_table_lemma`, `b_table_threeterm`, and the rows of
`_b_direct` and `bn_poly_recurrence`) in p and q with r implied.
`point_table` runs the same engines on the numbers of a parameter point,
so the generating-function checks can recur at the point instead of
evaluating symbolic tables.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import factorial
from typing import Any, Callable, Iterable, Iterator

from invbargraph._kernel_py import area_sper_box
from invbargraph.mpoly import DIGITS_MAX, Kronecker, MPoly, T, lincomb
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
        if not 1 <= m <= self.n:
            raise KeyError(f"no row {m} in a table of size {self.n}")
        return self._rows[m - 1]

    def row_sum(self, m: int) -> MPoly:
        """Sum of the cells of row m (the row polynomial at y = 1)."""
        row = self.row(m)
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
        self[m, i]  # a cell the table does not have is refused as on reading
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
# Each engine is written once over a ring (mono, lin) and yields the rows of
# its table in order, holding only the previous row.  `mono(coeff,
# **exponents)` is the multiplier coeff * p^a q^b r^c, and multipliers are
# summed with `+`; `lin(pairs)` is the value sum of m * x over (multiplier m,
# value x) pairs, so `lin(((m, 1),))` is the value of the multiplier m.
# Values are summed with `+`.  There are three rings:
#
# - `_SYMBOLIC`: multipliers and values are `MPoly`, and each `lin` builds one
#   term map (`lincomb`, whose one merge loop is not tuned for any engine).
#   Only the tests' references are built on it: every table the package
#   builds runs on packed ints.
# - `_at_point(values)`: numbers, the cells evaluated at a point and computed
#   by the same recurrence (evaluate-then-recur); `point_table` uses it.
# - `_packed_ring(packing)`: a value is one int, its polynomial packed by
#   `mpoly.Kronecker` (see `_packed_table`); a multiplier is a tuple of
#   (shift, coeff) terms, so `+` concatenates them, and `lin` is a few shifts
#   and adds of ints (`_packed_lin`, which copies no int for nothing).  Every
#   symbolic table, both row-equation checks and `bn_poly_recurrence` are
#   built on it, and each finished row is unpacked once into `MPoly` cells,
#   one compiled pass per cell (`kernel.unpack_slots`).  The engines alone
#   take little: in process (C kernel, shared 2-core host, medians of 7,
#   3 fresh processes), `_a_lemma(20)` 34-35 ms, `_a_threeterm(20)`
#   66-69 ms, `_b_lemma(40)` 29-31 ms, `_b_threeterm(40)` 40-45 ms and
#   `_b_direct(40)` 32-50 ms.  Building the term dicts is still about half
#   of each table: the best of 3 runs in each of 3 fresh processes,
#   alternating with the pure-Python scan (in brackets), spent 0.085-0.099 s
#   of `a_table_threeterm(20)`'s 0.15-0.19 s unpacking (0.16-0.18 s of
#   0.23-0.26 s), and 0.07-0.09 s of `b_table_threeterm(40)`'s 0.11-0.16 s
#   (0.14-0.16 s of 0.18-0.21 s).
#
# All six engines run on all three rings, the two row equations
# (`_a_direct`, `_b_direct`) included.  Dividing by 1 - y, 1 - yp or 1 - ypq
# is a running sum over the y-coefficients (synthetic division), so on the
# packed ring it is shifts and adds too (after Harvey, "Faster polynomial
# multiplication via multipoint Kronecker substitution", J. Symbolic
# Comput. 44, 2009).  Measured in process at
# n = 40 against the same engines on `MPoly` (C kernel, Python 3.11, shared
# 2-core host, 10 alternating runs each in 3 fresh processes):
# `b_table_lemma` 0.09-0.15 s against 0.34-0.52 s, `b_table_threeterm`
# 0.10-0.16 s against 0.31-0.55 s and `bn_poly_recurrence` 0.11-0.15 s
# against 0.39-0.53 s (the `MPoly` rows of `_b_direct`, each summed into
# its row polynomial by one `lincomb`).

Ring = tuple[Callable[..., Any], Callable[[Iterable[tuple[Any, Any]]], Any]]
_SYMBOLIC: Ring = (MPoly.monomial, lincomb)


def _check_size(n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")


def _a_lemma(n: int, ring: Ring) -> Iterator[tuple]:
    _check_size(n)
    mono, lin = ring
    q = mono(1, q=1)
    prev = (lin(((mono(1, p=1, q=2), 1),)),)
    yield prev
    for m in range(2, n + 1):
        # suffix[k] = sum of prev[k:], so cell i sees sum_{j >= i} a(m-1,j)
        suffix = list(prev)
        for k in range(m - 3, -1, -1):
            suffix[k] = suffix[k + 1] + prev[k]
        row = [lin(((mono(1, p=1, q=1), suffix[0]),))]
        weighted = lin(((q, prev[0]),))  # sum_{j<i} q^(i-j) a(m-1,j), grown with i
        for i in range(2, m):
            row.append(lin(((mono(1, p=i, q=1), suffix[i - 1] + weighted),)))
            weighted = lin(((q, weighted + prev[i - 1]),))
        row.append(lin(((mono(1, p=m, q=1), weighted),)))
        prev = tuple(row)
        yield prev


def _a_threeterm(n: int, ring: Ring) -> Iterator[tuple]:
    _check_size(n)
    mono, lin = ring
    p, pq = mono(1, p=1), mono(1, p=1, q=1)
    up, back = pq + p, mono(-1, p=2, q=1)  # p(q+1) and -p^2 q
    prev = (lin(((mono(1, p=1, q=2), 1),)),)
    yield prev
    for m in range(2, n + 1):
        row = [lin((pq, cell) for cell in prev)]
        row.append(lin(((p, row[0]), (mono(1, p=2, q=2) + back, prev[0]))))
        for i in range(3, m + 1):
            fresh = mono(1, p=i, q=2) + mono(-1, p=i, q=1)  # p^i q (q-1)
            row.append(lin(((up, row[i - 2]), (back, row[i - 3]), (fresh, prev[i - 2]))))
        prev = tuple(row)
        yield prev


def _b_lemma(n: int, ring: Ring) -> Iterator[tuple]:
    _check_size(n)
    mono, lin = ring
    p, q, r = mono(1, p=1), mono(1, q=1), mono(1, r=1)
    prev = (lin(((mono(1), 1),)),)
    yield prev
    for m in range(2, n + 1):
        if m == 2:
            prev = (lin(((p, prev[0]),)), lin(((r, prev[0]),)))
            yield prev
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
        prev = tuple(row)
        yield prev


def _b_threeterm(n: int, ring: Ring) -> Iterator[tuple]:
    _check_size(n)
    mono, lin = ring
    one, q, r = mono(1), mono(1, q=1), mono(1, r=1)
    p_q, r_p = mono(1, p=1) + mono(-1, q=1), r + mono(-1, p=1)
    prev = (lin(((one, 1),)),)
    yield prev
    for m in range(2, n + 1):
        prev_sum = lin((one, cell) for cell in prev)
        row = [lin(((p_q, prev[0]), (q, prev_sum)))]
        for i in range(2, m):
            row.append(lin(((one, row[i - 2]), (p_q, prev[i - 1]), (r_p, prev[i - 2]))))
        row.append(lin(((r, prev_sum),)))
        prev = tuple(row)
        yield prev


def _b_direct(n: int, ring: Ring) -> Iterator[tuple]:
    """Row m is (b_1, ..., b_m), the y-coefficients of the paper's B_m(y).

    B_m(y) = p B_{m-1}(y) + N(y) / (1 - y) with the numerator
    N(y) = (yr - q) B_{m-1}(y) + y(q - y^m r) B_{m-1}(1), so with b_k the
    coefficients of B_{m-1} (zero outside 1..m-1),
    N_k = r b_{k-1} - q b_k, plus q B_{m-1}(1) at k = 1 and -r B_{m-1}(1) at
    k = m + 1.  Synthetic division: the y^k coefficient of N / (1 - y) is the
    prefix N_1 + ... + N_k, and the prefix left after the top degree, m + 1,
    is the remainder N(1), which must be zero (NonDivisibleError otherwise).
    """
    _check_size(n)
    mono, lin = ring
    one, p, q, r = mono(1), mono(1, p=1), mono(1, q=1), mono(1, r=1)
    minus_q, minus_r = mono(-1, q=1), mono(-1, r=1)
    prev = (lin(((one, 1),)),)
    yield prev
    for m in range(2, n + 1):
        at_one = lin((one, cell) for cell in prev)  # B_{m-1}(1)
        prefix = lin(((minus_q, prev[0]), (q, at_one)))
        row = [lin(((p, prev[0]), (one, prefix)))]
        for k in range(2, m):
            prefix = lin(((one, prefix), (r, prev[k - 2]), (minus_q, prev[k - 1])))
            row.append(lin(((p, prev[k - 1]), (one, prefix))))
        prefix = lin(((one, prefix), (r, prev[m - 2])))  # b_m = 0: cell m is the prefix
        row.append(prefix)
        if lin(((one, prefix), (minus_r, at_one))):
            raise NonDivisibleError(f"row {m}: 1 - y leaves a nonzero remainder")
        prev = tuple(row)
        yield prev


def _a_direct(n: int, ring: Ring) -> Iterator[tuple]:
    """Row m is (a_1, ..., a_m), the y-coefficients of the paper's A_m(y).

    The row equation is
    (1-yp)(1-ypq) A_m(y) = ypq (1-ypq) (A_{m-1}(1) - A_{m-1}(yp))
                         + ypq^2 (1-yp) (A_{m-1}(yp) - (ypq)^m A_{m-1}(1/q)).
    With S = A_{m-1}(1), a_i the cells of row m - 1 and
    T = p^m sum_i q^(m-i) a_i, so that (ypq)^m A_{m-1}(1/q) = y^m T, and the
    two terms in A_{m-1}(yp) summed to ypq (q - 1) A_{m-1}(yp), the right
    side has the y-coefficients N_1 = pq S, N_2 = -p^2 q^2 S,
    N_(m+1) = -p q^2 T and N_(m+2) = p^2 q^2 T, and p^(i+1) q (q - 1) a_i
    added to N_(i+1) for 1 <= i <= m - 1.  Synthetic division by 1 - yp is
    the running sum c_k = N_k + p c_(k-1), and then by 1 - ypq the running
    sum d_k = c_k + pq d_(k-1).  d_1..d_m are row m, and d_(m+1), d_(m+2)
    are the remainder, which must be zero (NonDivisibleError otherwise).

    On packed ints (`_packed_table`, at size n >= m) the cells d_1..d_m are
    those of row m, in the packing's box, and an int of 0 is the zero
    polynomial for the remainder too.  With s = sper_slots - 1 for m - 1
    (`area_sper_box(m - 1)`), a sequence of length m - 1 has sper in
    [m, s], and so have the q-exponents of the cells of row m - 1.  Then
    every term that N puts at y^k has q-exponent in [m + 1, k + s], and the
    divisions keep that true, since they multiply by p and pq only.  So the
    remainder's q-exponents lie in [m + 1, m + 2 + s]: at most s + 2 values,
    no more than the box's q-slots at m, so at n.  Its p-exponents are
    nonnegative, and p is the outer variable, so each of its monomials fills
    a slot of its own.  If its coefficients lie below 2^(64 * words) in
    size, a nonzero remainder then leaves a nonzero residue at its lowest
    nonzero slot modulo that slot's power of two.
    """
    _check_size(n)
    mono, lin = ring
    one, p, pq = mono(1), mono(1, p=1), mono(1, p=1, q=1)
    prev = (lin(((mono(1, p=1, q=2), 1),)),)
    yield prev
    for m in range(2, n + 1):
        at_one = lin((one, cell) for cell in prev)
        t = lin((mono(1, q=m - i), cell) for i, cell in enumerate(prev, 1))  # T / p^m
        numer = [[(pq, at_one)], [(mono(-1, p=2, q=2), at_one)], *([] for _ in range(m))]
        for i, cell in enumerate(prev, 1):
            numer[i] += ((mono(1, p=i + 1, q=2), cell), (mono(-1, p=i + 1, q=1), cell))
        numer[m].append((mono(-1, p=m + 1, q=2), t))
        numer[m + 1].append((mono(1, p=m + 2, q=2), t))
        row, c, d = [], lin(()), lin(())
        for pairs in numer:
            c = lin((*pairs, (p, c)))
            d = lin(((one, c), (pq, d)))
            row.append(d)
        if row[m] or row[m + 1]:
            raise NonDivisibleError(f"row {m}: (1 - yp)(1 - ypq) leaves a nonzero remainder")
        prev = tuple(row[:m])
        yield prev


def _slot_words(n: int) -> int:
    """64-bit words per coefficient slot of a packed table value at size n.

    A coefficient of cell (m, i), m <= n, of either table counts some of the
    (m-1)! sequences of length m that end in i, so it lies in [0, (n-1)!]; w
    words hold it when (n-1)! < 2^(64 w).  This is the fewest such w: one
    word up to n = 21, two from n = 22, three from n = 36.
    """
    return -(-factorial(n - 1).bit_length() // 64)


def _packed_lin(pairs: Iterable[tuple[tuple[tuple[int, int], ...], int]]) -> int:
    """The sum of c * (x << shift) over the (shift, c) terms of each (multiplier, x) pair.

    Each c is 1 or -1 (`_packed_ring` refuses any other), so a term is only
    added or subtracted.  Every sum or shift of big ints is a fresh int, so
    the total starts as the first term, not 0 + it, and a shift of 0 uses x
    itself: both would copy every word of x for nothing, and on a 100 KB
    int `0 + x` and `x << 0` each took 36-37 us, as long as a real add or
    shift (28-32 us; Python 3.11, shared 2-core host, best of 7).
    `total is None` marks no term yet, so a total that cancels to 0 on the
    way is still added to.
    """
    total = None
    for terms, x in pairs:
        for shift, c in terms:
            v = x << shift if shift else x
            if total is None:
                total = v if c == 1 else -v
            elif c == 1:
                total += v
            else:
                total -= v
    return 0 if total is None else total


def _packed_ring(packing: Kronecker) -> Ring:
    shift = packing.shift

    def mono(coeff: int, **exps: int) -> tuple[tuple[int, int], ...]:
        if coeff not in (1, -1):
            raise ValueError(f"a packed multiplier's coefficient must be 1 or -1, not {coeff}")
        return ((shift(**exps), coeff),)

    return mono, _packed_lin


def _lda_packing(n: int) -> Kronecker:
    """The packing of the lda values of rows 1..n: p outer, q inner, r implied.

    Every value of row m, a cell or (in `_b_direct`) a partial sum, is
    homogeneous of degree m - 1 in p, q and r: row 1 is the constant 1, and
    each recurrence step multiplies the previous row by a multiplier of
    degree one (p, q, r, p - q, r - p) or adds values of its own row.  So
    r -> 1 is one to one on row m's values, r is a zero shift, and unpacking
    a value of row m with the base monomial r^(m-1) restores r.  The p and q
    exponents, at most m - 1, stay below n.  A coefficient of cell (m, i)
    counts some of the sequences of length m that end in i, and every cell
    sums to (m-1)! at the all-ones point, so it lies in [0, (n-1)!]:
    `_slot_words(n)` words hold it.
    """
    return Kronecker("p", "q", n - 1, n, _slot_words(n), implied="r")


def _packed_table(engine: Callable[[int, Ring], Iterator[tuple]], n: int,
                  lda: bool = False) -> DistTable:
    """An engine's table, built on packed ints and unpacked row by row.

    The area/sper values are the ints of `mpoly.Kronecker` with p outer and
    q inner, slots of `_slot_words(n)` words, and area and q-slots from
    `area_sper_box(n)`; the lda values (`lda`) those of `_lda_packing(n)`,
    each cell of row m unpacked with the base monomial r^(m-1).  The
    unpacking is exact: packing is a ring map, so the int of a cell is the
    packing of the true cell whatever the signs of the intermediate sums,
    and every cell lies in the packing's box, where the map is one to one.
    An area/sper cell's coefficients lie in [0, (n-1)!] (`_slot_words`), and
    its area and sper in the ranges of `area_sper_box(n)`.
    """
    _check_size(n)
    if lda:
        packing = _lda_packing(n)
    else:
        packing = Kronecker("p", "q", *area_sper_box(n), _slot_words(n))

    def unpacked(m: int, row: tuple[int, ...]) -> list[MPoly]:
        base = {"r": m - 1} if lda else {}
        return [packing.unpack(cell, f"cell ({m}, {i})", **base) for i, cell in enumerate(row, 1)]

    return DistTable(unpacked(m, row) for m, row in enumerate(engine(n, _packed_ring(packing)), 1))


def a_table_lemma(n: int) -> DistTable:
    """Area/sper table via the peel-last-column recurrence.

    a(n,i) = p^i q [ sum_{j>=i} a(n-1,j) + sum_{j<i} q^(i-j) a(n-1,j) ],
    from a(1,1) = p q^2.  Appending a column of height i adds i cells and one
    half-perimeter unit, plus i-j more when the previous column is lower.
    """
    return _packed_table(_a_lemma, n)


def a_table_threeterm(n: int) -> DistTable:
    """Area/sper table via the three-term recurrence in the last letter.

    a(n,i) = p(q+1) a(n,i-1) - p^2 q a(n,i-2) + p^i q(q-1) a(n-1,i-1)
    for 3 <= i <= n, with a(n,1) = pq * rowsum(n-1) and
    a(n,2) = p a(n,1) + p^2 q(q-1) a(n-1,1).
    """
    return _packed_table(_a_threeterm, n)


def b_table_lemma(n: int) -> DistTable:
    """Lda table via the penultimate-letter recurrence.

    b(n,i) = p b(n-1,i) + q sum_{j>i} b(n-1,j) + r sum_{j<i} b(n-1,j) for
    i < n, and b(n,n) = r * rowsum(n-1), from b(1,1) = 1.
    """
    return _packed_table(_b_lemma, n, lda=True)


def b_table_threeterm(n: int) -> DistTable:
    """Lda table via the three-term recurrence in the last letter.

    b(n,i) = b(n,i-1) + (p-q) b(n-1,i) + (r-p) b(n-1,i-1) for 2 <= i <= n-1,
    with b(n,1) = (p-q) b(n-1,1) + q * rowsum(n-1) and b(n,n) = r * rowsum(n-1).
    """
    return _packed_table(_b_threeterm, n, lda=True)


# engine name: (engine, its markers)
_ENGINES = {
    "a_lemma": (_a_lemma, ("p", "q")),
    "a_threeterm": (_a_threeterm, ("p", "q")),
    "a_direct": (_a_direct, ("p", "q")),
    "b_lemma": (_b_lemma, ("p", "q", "r")),
    "b_threeterm": (_b_threeterm, ("p", "q", "r")),
    "b_direct": (_b_direct, ("p", "q", "r")),
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
    return DistTable(build(n, _at_point(values)))


def check_an_functional(nmax: int, table: DistTable) -> CheckResult:
    """The area/sper table against the paper's row equation for A_n(y).

    For each n >= 2, with A_n(y) the row polynomial:
      (1-yp)(1-ypq) A_n(y) = ypq (1-ypq) (A_{n-1}(1) - A_{n-1}(yp))
                           + ypq^2 (1-yp) (A_{n-1}(yp) - (ypq)^n A_{n-1}(1/q)).
    The equation determines row n from row n - 1, and `_a_direct` solves it
    row by row from A_1(y) = pq^2 y, so rows 1..nmax of `table` must be the
    rows of that engine, cell by cell (`check_row_equation`).
    """
    if nmax < 2:
        raise ValueError("nmax must be at least 2")
    return check_row_equation("area-sper-row-functional", f"2<=n<={nmax}", "a_direct", nmax, table)


def check_row_equation(formula: str, n_range: str, engine: str, nmax: int,
                       table: DistTable) -> CheckResult:
    """Rows 1..nmax of `table` against the table of a row-equation engine, built on packed ints.

    `engine` is "a_direct" or "b_direct" (one of ENGINES), compared by
    `compare_tables`.  An engine whose division leaves a remainder fails the
    check, with the error's text as the mismatch.
    """
    build, markers = _ENGINES[engine]
    try:
        rows = _packed_table(build, nmax, lda="r" in markers)
    except NonDivisibleError as err:
        return CheckResult(formula, n_range, "", "fail", str(err))
    return compare_tables(formula, n_range, table, rows, nmax)


def compare_tables(formula: str, n_range: str, left: DistTable, right: DistTable,
                   nmax: int) -> CheckResult:
    """Rows 1..nmax of two tables, cell by cell: cells of any ring, symbolic or at a point.

    The first cell that differs is the mismatch, shown as `cell (m,i)`.
    """
    return check(formula, n_range, "",
                 ((f"cell ({m},{i})", left[m, i], right[m, i])
                  for m in range(1, nmax + 1) for i in range(1, m + 1)))


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
    exactly when it fails on the other.  `_b_direct` divides by synthetic
    division on the packed ints of `_lda_packing(nmax)`.  Its remainder is
    homogeneous of degree n - 1, like the cells, so r -> 1 loses nothing, and
    an int of 0 is the zero polynomial whenever the coefficients lie below
    2^(64 * words) in size: the lowest nonzero slot of a nonzero one would
    leave a nonzero residue modulo its slot's power of two.  The cells of a
    row are unpacked into one term map, cell k with the base r^(n-1) y^k;
    their monomials differ in y, so no term is overwritten (the unpacking
    refuses one that would be).
    """
    if nmax < 1:
        raise ValueError(f"nmax must be positive, got {nmax}")
    packing = _lda_packing(nmax)
    return [packing._unpack_all((cell, f"row {m}, y^{k}", {"r": m - 1, "y": k})
                                for k, cell in enumerate(row, 1))
            for m, row in enumerate(_b_direct(nmax, _packed_ring(packing)), 1)]


# -- closed-form totals --------------------------------------------------------


def harmonic_integer(n: int) -> int:
    """The exact integer n! * H_n = sum_{i=1}^n n!/i."""
    _check_size(n)
    fact = factorial(n)
    return sum(fact // i for i in range(1, n + 1))


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
    return harmonic_integer(n) - factorial(n)


def total_descents(n: int) -> int:
    """Total number of descents: (n+1)!/2 - n! H_n."""
    _check_size(n)
    q, rem = divmod(factorial(n + 1), 2)
    assert rem == 0
    return q - harmonic_integer(n)


def total_ascents(n: int) -> int:
    """Total number of ascents: (n-1) n!/2."""
    _check_size(n)
    q, rem = divmod((n - 1) * factorial(n), 2)
    assert rem == 0
    return q


def table_stat_total(table: DistTable, n: int, marker: str) -> int:
    """Total of the statistic tracked by `marker` over row n of a table.

    Derivative-free extraction: sum over terms of coeff * marker-exponent,
    the sum of the per-last-letter totals.
    """
    return sum(table_stat_total_by_last(table, n, marker).values())


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

    `sper-sign-balance` sees only the first power of 1 + q: at y = 1 its row
    vanishes at q = -1.  Observed, not proved: (1 + q)^floor(n/2) divides the
    sper marginal A_n(1; 1, q), and no higher power does, for every n <= 28
    (repeated division of the lemma table's row sums at p = 1 by 1 + q).  No
    check reads this.
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
