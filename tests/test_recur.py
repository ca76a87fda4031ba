import hashlib
import re
from fractions import Fraction
from itertools import permutations
from math import factorial
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from invbargraph import _kernel_py, invseq, kernel, recur
from invbargraph.mpoly import MPoly, P, Q, R, T, Y
from invbargraph.recur import (
    ENGINES,
    DistTable,
    NonDivisibleError,
    a_table_lemma,
    a_table_threeterm,
    b_table_lemma,
    b_table_threeterm,
    bn_poly_recurrence,
    check_an_functional,
    check_sign_balance,
    check_stirling_eulerian,
    eulerian,
    harmonic_integer,
    point_table,
    row_poly,
    stirling_first,
    table_stat_total,
    table_stat_total_by_last,
    total_area,
    total_ascents,
    total_descents,
    total_levels,
    total_sper,
)


def mono(c=1, **kw):
    return MPoly.monomial(c, **kw)


# -- area / sper tables -----------------------------------------------------------


def test_a_lemma_small_cells():
    table = a_table_lemma(3)
    assert table[1, 1] == mono(p=1, q=2)
    assert table[2, 2] == mono(p=3, q=4)
    assert table[3, 1] == mono(p=3, q=4) * (MPoly.one() + P * Q)


@pytest.mark.parametrize("read", [
    lambda t: t.row(0), lambda t: t.row(-1), lambda t: t.row(5), lambda t: t.row_sum(0),
    lambda t: t.with_cell(0, 0, MPoly.one()), lambda t: t.with_cell(4, 0, MPoly.one()),
    lambda t: t.with_cell(-1, -1, MPoly.one()), lambda t: t.with_cell(3, 4, MPoly.one()),
    lambda t: table_stat_total(t, 0, "p"),
], ids=["row-0", "row-neg", "row-past", "row-sum-0", "cell-0-0", "cell-4-0", "cell-neg",
        "cell-past-diagonal", "stat-total-0"])
def test_a_row_or_cell_the_table_does_not_have_is_refused(read):
    """Indices below 1 are refused as `table[m, i]` refuses them, not read from the end."""
    with pytest.raises(KeyError, match="in a table of size 4"):
        read(a_table_lemma(4))


def test_a_threeterm_small_cells():
    table = a_table_threeterm(3)
    assert table[2, 1] == mono(p=2, q=3)
    assert table[3, 3] == mono(p=5, q=6) * (MPoly.one() + P)


def test_a_row_polys_match_printed_rows():
    table = a_table_lemma(3)
    assert row_poly(table, 1) == mono(y=1, p=1, q=2)
    assert row_poly(table, 2) == mono(y=1, p=2, q=3) + mono(y=2, p=3, q=4)
    expected3 = (
        mono(y=1, p=3, q=4) * (MPoly.one() + P * Q)
        + mono(y=2, p=4, q=5) * (MPoly.one() + P)
        + mono(y=3, p=5, q=6) * (MPoly.one() + P)
    )
    assert row_poly(table, 3) == expected3


def test_a_engines_agree(a_lemma_8, a_three_8, a_brute_8):
    assert a_lemma_8 == a_three_8
    assert a_lemma_8 == a_brute_8


def test_an_functional_identity(a_lemma_8):
    assert check_an_functional(8, a_lemma_8).status == "pass"


def test_an_functional_detects_corruption(a_lemma_8):
    bad = a_lemma_8.with_cell(4, 2, a_lemma_8[4, 2] + MPoly.one())
    result = check_an_functional(8, bad)
    assert result.status == "fail" and result.first_mismatch.startswith("cell (4,2): 1 + ")


def test_an_functional_reads_row_one(a_lemma_8):
    """Row 2 is solved from row 1, so a wrong row 1 fails the check too."""
    bad = a_lemma_8.with_cell(1, 1, a_lemma_8[1, 1] + MPoly.one())
    result = check_an_functional(8, bad)
    assert (result.formula, result.status) == ("area-sper-row-functional", "fail")
    assert result.first_mismatch == "cell (1,1): 1 + p*q^2 != p*q^2"


@pytest.mark.parametrize("engine,values", [
    ("a_lemma", {"p": Fraction(1, 2), "q": Fraction(-2, 3)}),
    ("b_lemma", {"p": Fraction(1, 3), "q": Fraction(1, 2), "r": Fraction(1, 5)}),
])
def test_compare_tables_reads_point_tables(engine, values):
    table = recur.point_table(engine, 6, **values)
    bad = table.with_cell(5, 3, table[5, 3] + 1)
    assert recur.compare_tables("rows", "n<=6", table, table, 6).status == "pass"
    result = recur.compare_tables("rows", "n<=6", bad, table, 6)
    assert (result.status, result.first_mismatch) == (
        "fail", f"cell (5,3): {bad[5, 3]} != {table[5, 3]}")
    # rows past nmax are not read
    assert recur.compare_tables("rows", "n<=4", bad, table, 4).status == "pass"


# The area/sper tables are built on packed ints (recur._packed_table); the
# same engines on MPoly are the reference.  Slots are one word up to n = 21
# and two from n = 22.
PACKED_NMAX = 22
AREA_ENGINES = [recur._a_lemma, recur._a_threeterm, recur._a_direct]


@pytest.fixture(scope="module")
def symbolic_rows():
    """Rows 1..PACKED_NMAX of each area/sper engine on MPoly; rows 1..n are its table at n."""
    return {engine: tuple(engine(PACKED_NMAX, recur._SYMBOLIC)) for engine in AREA_ENGINES}


@pytest.mark.parametrize("engine", AREA_ENGINES, ids=["a_lemma", "a_threeterm", "a_direct"])
@pytest.mark.parametrize("n", range(1, PACKED_NMAX + 1))
def test_packed_engine_equals_the_symbolic_engine(symbolic_rows, engine, n):
    assert recur._packed_table(engine, n) == DistTable(symbolic_rows[engine][:n])


@pytest.mark.parametrize("n", [3, 22])
def test_unpack_refuses_a_value_outside_the_box(unpack_scans, n):
    """One-word slots at n = 3, two-word slots at n = 22; the same under every scan."""
    def one_bad_cell(value):
        return lambda n, ring: iter([(1,), (value, 0)])

    (area_max, sper_slots), bits = _kernel_py.area_sper_box(n), 64 * recur._slot_words(n)
    assert area_max == n * (n + 1) // 2
    assert bits == (64 if n == 3 else 128)
    top = bits * sper_slots * (area_max + 1) - 1  # the last bit of the box still unpacks
    for scan in unpack_scans:
        with mock.patch.object(kernel, "unpack_slots", scan):
            assert recur._packed_table(one_bad_cell(1 << top), n)[2, 1] == \
                MPoly.monomial(1 << (bits - 1), p=area_max, q=sper_slots - 1)
            with pytest.raises(ValueError, match=r"^cell \(2, 1\) is outside the packing's box: "
                                                 r"a negative int$"):
                recur._packed_table(one_bad_cell(-1), n)
            with pytest.raises(ValueError, match=rf"^cell \(2, 1\) is outside the packing's box: "
                                                 rf"bit {top + 1} is set$"):
                recur._packed_table(one_bad_cell(1 << (top + 1)), n)


def _pq_off_by_one_slot(engine):
    """A copy of `engine` whose multiplier p q is one q-slot higher (p q^2)."""
    def corrupted(n, ring):
        mono, lin = ring
        return engine(n, (lambda c, **e: mono(c, **({"p": 1, "q": 2} if e == {"p": 1, "q": 1}
                                                     else e)), lin))

    return corrupted


def test_packed_multiplier_off_by_one_slot_is_caught(symbolic_rows):
    """Negative control: the corrupted lemma unpacks to a wrong table, threeterm is refused."""
    n = 8
    right = DistTable(symbolic_rows[recur._a_lemma][:n])
    bad = recur._packed_table(_pq_off_by_one_slot(recur._a_lemma), n)
    assert bad != recur._packed_table(recur._a_threeterm, n) and bad != right
    # the corrupted threeterm copy leaves the box
    with pytest.raises(ValueError, match=r"^cell \(8, 7\) is outside the packing's box"):
        recur._packed_table(_pq_off_by_one_slot(recur._a_threeterm), n)


# -- lda tables --------------------------------------------------------------------
#
# The lda tables and the B_n rows are built on packed ints with r implied
# (recur._lda_packing); the same engines on MPoly are the reference.  Slots are
# one word up to n = 21, two from n = 22 and three at n = 36.
LDA_PACKED_NS = [*range(1, 23), 36]
LDA_ENGINES = [recur._b_lemma, recur._b_threeterm, recur._b_direct]


@pytest.fixture(scope="module")
def symbolic_lda_rows():
    """Rows 1..36 of each lda engine on MPoly; rows 1..n are its table at n."""
    return {engine: tuple(engine(36, recur._SYMBOLIC)) for engine in LDA_ENGINES}


@pytest.mark.parametrize("engine", LDA_ENGINES, ids=["b_lemma", "b_threeterm", "b_direct"])
@pytest.mark.parametrize("n", LDA_PACKED_NS)
def test_packed_lda_engine_equals_the_symbolic_engine(symbolic_lda_rows, engine, n):
    assert recur._packed_table(engine, n, lda=True) == DistTable(symbolic_lda_rows[engine][:n])


def test_direct_engine_is_the_lda_table(symbolic_lda_rows):
    assert DistTable(symbolic_lda_rows[recur._b_direct]) == b_table_lemma(36)
    assert DistTable(recur._b_direct(12, recur._SYMBOLIC)) == b_table_lemma(12)


def _b_direct_without_q_at_one(n, ring):
    """recur._b_direct with the term q B_{m-1}(1) dropped from its numerator.

    The multiplier q (coefficient 1) multiplies only B_{m-1}(1) there, so the
    ring drops every pair whose multiplier it is.
    """
    mono, lin = ring
    dropped = object()

    def mono_without_q(c, **exps):
        return dropped if (c, exps) == (1, {"q": 1}) else mono(c, **exps)

    return recur._b_direct(n, (mono_without_q, lambda pairs: lin(
        (m, x) for m, x in pairs if m is not dropped)))


@pytest.mark.parametrize("build", [
    lambda engine: recur._packed_table(engine, 6, lda=True),
    lambda engine: DistTable(engine(6, recur._SYMBOLIC)),
    lambda engine: DistTable(engine(6, recur._at_point({"p": 2, "q": Fraction(-1, 3), "r": 5}))),
], ids=["packed", "symbolic", "point"])
def test_direct_engine_without_q_at_one_leaves_a_remainder(build):
    """Negative control: drop q B(1) from the numerator and (1 - y) no longer divides it."""
    assert build(recur._b_direct).n == 6
    with pytest.raises(NonDivisibleError, match=r"^row 2: 1 - y leaves a nonzero remainder$"):
        build(_b_direct_without_q_at_one)


def test_direct_area_engine_is_the_area_table(symbolic_rows):
    assert DistTable(symbolic_rows[recur._a_direct]) == a_table_lemma(PACKED_NMAX)


def _a_direct_without_t(n, ring):
    """recur._a_direct with T, the sum that carries A_{m-1}(1/q), left zero.

    Only T's multipliers are powers of q alone, so the ring drops every pair
    with such a multiplier.
    """
    mono, lin = ring
    dropped = object()

    def mono_without_t(c, **exps):
        return dropped if exps.keys() == {"q"} else mono(c, **exps)

    return recur._a_direct(n, (mono_without_t, lambda pairs: lin(
        (m, x) for m, x in pairs if m is not dropped)))


@pytest.mark.parametrize("build", [
    lambda engine: recur._packed_table(engine, 6),
    lambda engine: DistTable(engine(6, recur._SYMBOLIC)),
    lambda engine: DistTable(engine(6, recur._at_point({"p": 2, "q": Fraction(-1, 3)}))),
], ids=["packed", "symbolic", "point"])
def test_direct_area_engine_without_t_leaves_a_remainder(build):
    """Negative control: drop the A_{m-1}(1/q) term and (1 - yp)(1 - ypq) no longer divides."""
    assert build(recur._a_direct).n == 6
    with pytest.raises(NonDivisibleError,
                       match=r"^row 2: \(1 - yp\)\(1 - ypq\) leaves a nonzero remainder$"):
        build(_a_direct_without_t)


@pytest.mark.parametrize("n", [3, 22])
def test_lda_unpack_refuses_a_value_outside_the_box(unpack_scans, n):
    """As for area/sper, with r implied: the last bit of the box reads r^(1 - 2(n - 1)) in row 2."""
    def one_bad_cell(value):
        return lambda n, ring: iter([(1,), (value, 0)])

    bits = 64 * recur._slot_words(n)
    top = bits * n * n - 1  # p^(n-1) q^(n-1), the last slot of the box
    for scan in unpack_scans:
        with mock.patch.object(kernel, "unpack_slots", scan):
            assert recur._packed_table(one_bad_cell(1 << top), n, lda=True)[2, 1] == \
                MPoly.monomial(1 << (bits - 1), p=n - 1, q=n - 1, r=1 - 2 * (n - 1))
            with pytest.raises(ValueError, match=r"^cell \(2, 1\) is outside the packing's box: "
                                                 r"a negative int$"):
                recur._packed_table(one_bad_cell(-1), n, lda=True)
            with pytest.raises(ValueError, match=rf"^cell \(2, 1\) is outside the packing's box: "
                                                 rf"bit {top + 1} is set$"):
                recur._packed_table(one_bad_cell(1 << (top + 1)), n, lda=True)


def test_tables_are_the_same_under_every_scan(unpack_scans):
    """Two-word slots (area/sper at n = 23) and three-word slots (lda at n = 40) unpack alike.

    So do the B_n rows, each filled into one term map, which are the lda
    table's row polynomials.
    """
    assert (recur._slot_words(23), recur._slot_words(40)) == (2, 3)
    tables = []
    for scan in unpack_scans:
        with mock.patch.object(kernel, "unpack_slots", scan):
            tables.append((a_table_lemma(23), b_table_lemma(40), bn_poly_recurrence(40)))
    assert tables[1:] == tables[:-1]
    _, lda, rows = tables[0]
    assert len(rows) == 40
    for m, poly in enumerate(rows, 1):
        assert poly == row_poly(lda, m)


def test_cells_that_share_a_monomial_are_refused(unpack_scans):
    """Cells filled into one term map may not overwrite each other's terms."""
    packing = recur._lda_packing(3)
    cell = 1 << packing.shift(p=1)
    for scan in unpack_scans:
        with mock.patch.object(kernel, "unpack_slots", scan):
            assert packing._unpack_all([(cell, "a", {"r": 1, "y": 1}),
                                        (cell, "b", {"r": 1, "y": 2})]) == \
                MPoly.monomial(1, y=1, p=1) + MPoly.monomial(1, y=2, p=1)
            with pytest.raises(ValueError, match="^1 of 1 keys are already in the term map$"):
                packing._unpack_all([(cell, "a", {"r": 1, "y": 1}),
                                     (cell, "b", {"r": 1, "y": 1})])


def _naive_lin(pairs):
    return sum(c * (x << shift) for terms, x in pairs for shift, c in terms)


_lin_pairs = st.lists(st.tuples(
    st.lists(st.tuples(st.sampled_from([0, 0, 1, 64, 130]), st.sampled_from([1, -1])),
             min_size=1, max_size=3).map(tuple),
    st.one_of(st.integers(-3, 3), st.integers(-(2 ** 200), 2 ** 200))), max_size=5)


@given(_lin_pairs, _lin_pairs)
def test_packed_lin_is_the_plain_sum(before, after):
    """Zero shifts, multipliers +-1, and a running total that cancels to 0 on the way.

    `before` is followed by the one term that cancels it, so the total is 0
    there and the terms of `after` must still all count.
    """
    assert recur._packed_lin(before) == _naive_lin(before)
    assert recur._packed_lin(after) == _naive_lin(after)
    cancelled = [*before, (((0, -1),), _naive_lin(before)), *after]
    assert recur._packed_lin(cancelled) == _naive_lin(after)
    assert recur._packed_lin(iter(cancelled)) == _naive_lin(after)


def test_packed_ring_takes_only_unit_coefficients():
    packing = recur._lda_packing(3)
    mono, _ = recur._packed_ring(packing)
    assert mono(-1, p=1) == ((packing.shift(p=1), -1),)
    with pytest.raises(ValueError, match="^a packed multiplier's coefficient must be 1 or -1, "
                                         "not 2$"):
        mono(2, p=1)


def test_b_lemma_small_cells():
    table = b_table_lemma(3)
    assert table[2, 2] == R
    assert table[3, 1] == mono(p=2) + mono(q=1, r=1)


def test_b_threeterm_small_cells():
    table = b_table_threeterm(3)
    assert table[3, 2] == mono(2, p=1, r=1)
    assert table[3, 3] == R * (P + R)


def test_b_engines_agree(b_lemma_9, b_three_9, b_brute_9):
    assert b_lemma_9 == b_three_9
    assert b_lemma_9 == b_brute_9


def test_bn_poly_recurrence_matches_rows(b_lemma_9):
    rows = bn_poly_recurrence(9)
    assert rows[0] == Y
    assert rows[1] == mono(y=1, p=1) + mono(y=2, r=1)
    expected3 = (
        Y * (Q * R + P * P) + mono(2, y=2, p=1, r=1) + mono(1, y=3) * R * (P + R)
    )
    assert rows[2] == expected3
    for n in range(1, 10):
        assert rows[n - 1] == row_poly(b_lemma_9, n)


# -- point tables ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def symbolic_10():
    return {"a_lemma": a_table_lemma(10), "a_threeterm": a_table_threeterm(10),
            "b_lemma": b_table_lemma(10), "b_threeterm": b_table_threeterm(10),
            "b_direct": DistTable(recur._b_direct(10, recur._SYMBOLIC)),
            "a_direct": DistTable(recur._a_direct(10, recur._SYMBOLIC))}


values = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@given(engine=st.sampled_from(ENGINES), n=st.integers(1, 10), p=values, q=values, r=values)
def test_point_table_is_the_symbolic_table_at_the_point(symbolic_10, engine, n, p, q, r):
    point = {"p": p, "q": q} if engine.startswith("a") else {"p": p, "q": q, "r": r}
    table = point_table(engine, n, **point)
    symbolic = symbolic_10[engine]
    assert table.n == n
    assert all(table[m, i] == symbolic[m, i].eval_rational(point) for m, i, _ in table.cells())


@pytest.mark.parametrize("p,q,r", [(2, 3, 5), (-1, 2, 0), (0, -3, 1), (1, 1, 1)])
def test_point_lemma_equals_threeterm_deep(p, q, r):
    assert point_table("a_lemma", 60, p=p, q=q) == point_table("a_threeterm", 60, p=p, q=q)
    assert point_table("b_lemma", 60, p=p, q=q, r=r) == point_table("b_threeterm", 60, p=p, q=q, r=r)


def test_point_table_at_an_integer_point_holds_ints():
    table = point_table("b_lemma", 6, p=2, q=-1, r=3)
    assert all(type(cell) is int for _, _, cell in table.cells())
    assert table.row_sum(6) == b_table_lemma(6).row_sum(6).eval_rational({"p": 2, "q": -1, "r": 3})
    assert point_table("a_lemma", 3, p=Fraction(1, 2), q=1)[1, 1] == Fraction(1, 2)


def test_point_table_needs_exactly_its_markers():
    with pytest.raises(ValueError, match="needs values for p, q, r"):
        point_table("b_lemma", 4, p=1, q=1)
    with pytest.raises(ValueError, match="needs values for p, q"):
        point_table("a_threeterm", 4, p=1, q=1, r=1)
    with pytest.raises(ValueError, match="n must be positive"):
        point_table("a_lemma", 0, p=1, q=1)


# -- totals ------------------------------------------------------------------------


FROZEN_TOTALS = {
    # n: (area, sper, levels, descents, ascents), from direct enumeration
    1: (1, 2, 0, 0, 0),
    2: (5, 7, 1, 0, 1),
    3: (27, 31, 5, 1, 6),
    4: (168, 168, 26, 10, 36),
}


@pytest.mark.parametrize("n,expected", FROZEN_TOTALS.items())
def test_total_closed_forms_frozen(n, expected):
    got = (total_area(n), total_sper(n), total_levels(n), total_descents(n), total_ascents(n))
    assert got == expected


@pytest.mark.parametrize("n", range(1, 8))
def test_totals_match_brute(n):
    brute = invseq.brute_stat_totals(n)
    assert brute["area"] == total_area(n)
    assert brute["sper"] == total_sper(n)
    assert brute["levels"] == total_levels(n)
    assert brute["descents"] == total_descents(n)
    assert brute["ascents"] == total_ascents(n)


def test_totals_consistency():
    for n in range(1, 9):
        assert total_levels(n) + total_descents(n) + total_ascents(n) == (n - 1) * factorial(n)


def test_weighted_extraction_equals_closed_forms(a_lemma_8, b_lemma_9):
    for n in range(1, 9):
        assert table_stat_total(a_lemma_8, n, "p") == total_area(n)
        assert table_stat_total(a_lemma_8, n, "q") == total_sper(n)
    for n in range(1, 10):
        assert table_stat_total(b_lemma_9, n, "p") == total_levels(n)
        assert table_stat_total(b_lemma_9, n, "q") == total_descents(n)
        assert table_stat_total(b_lemma_9, n, "r") == total_ascents(n)


def test_row_sums_are_factorials(a_brute_8, b_brute_9):
    for n in range(1, 9):
        assert a_brute_8.row_sum(n).eval_rational({"p": 1, "q": 1}) == factorial(n)
    for n in range(1, 10):
        assert b_brute_9.row_sum(n).eval_rational({"p": 1, "q": 1, "r": 1}) == factorial(n)


def test_per_last_letter_totals_sum(a_lemma_8):
    by_last = table_stat_total_by_last(a_lemma_8, 5, "p")
    assert sum(by_last.values()) == total_area(5)
    assert set(by_last) == set(range(1, 6))


def test_harmonic_integer():
    assert harmonic_integer(1) == 1
    assert harmonic_integer(3) == 11  # 6 + 3 + 2
    for n in range(1, 10):
        assert harmonic_integer(n) == sum(factorial(n) // i for i in range(1, n + 1))


# -- Stirling / Eulerian oracles ------------------------------------------------------


def _count_cycles(word):
    seen, cycles = set(), 0
    for start in word:
        if start in seen:
            continue
        cycles += 1
        v = start
        while v not in seen:
            seen.add(v)
            v = word[v - 1]
    return cycles


@pytest.mark.parametrize("n", range(1, 6))
def test_stirling_against_direct_count(n):
    from collections import Counter

    counts = Counter(_count_cycles(w) for w in permutations(range(1, n + 1)))
    for k in range(1, n + 1):
        assert stirling_first(n, k) == counts.get(k, 0)


@pytest.mark.parametrize("n", range(1, 6))
def test_eulerian_against_direct_count(n):
    from collections import Counter

    def ascents(word):
        return sum(1 for a, b in zip(word, word[1:]) if a < b)

    counts = Counter(ascents(w) for w in permutations(range(1, n + 1)))
    for k in range(n):
        assert eulerian(n, k) == counts.get(k, 0)


def test_stirling_eulerian_frozen_rows():
    assert [stirling_first(3, k) for k in (1, 2, 3)] == [2, 3, 1]
    assert [eulerian(3, k) for k in (0, 1, 2)] == [1, 4, 1]
    assert [stirling_first(4, k) for k in (1, 2, 3, 4)] == [6, 11, 6, 1]
    assert [eulerian(4, k) for k in (0, 1, 2, 3)] == [1, 11, 11, 1]
    assert all(stirling_first(n, n) == 1 for n in range(1, 9))


def test_index_guards():
    with pytest.raises(ValueError):
        stirling_first(3, 0)
    with pytest.raises(ValueError):
        stirling_first(3, 4)
    with pytest.raises(ValueError):
        eulerian(3, 3)
    with pytest.raises(ValueError):
        eulerian(3, -1)


def test_check_stirling_eulerian(b_lemma_9):
    results = check_stirling_eulerian(9, b_lemma_9)
    assert all(r.status == "pass" for r in results)


def test_check_stirling_eulerian_detects_corruption(b_lemma_9):
    bad = b_lemma_9.with_cell(5, 1, b_lemma_9[5, 1] + P)
    results = check_stirling_eulerian(9, bad)
    assert [r.status for r in results] == ["fail"] * 3
    assert all(r.first_mismatch.startswith("n=5: ") for r in results)


# -- sign balance --------------------------------------------------------------------


def test_check_sign_balance(a_lemma_8, b_lemma_9):
    results = check_sign_balance(8, a_lemma_8, b_lemma_9)
    assert all(r.status == "pass" for r in results)


def test_sign_balance_small_evaluations(a_lemma_8, b_lemma_9):
    a3 = row_poly(a_lemma_8, 3)
    assert a3.substitute("p", 1).substitute("q", -1) == mono(2, y=3) - mono(2, y=2)
    assert a3.substitute("p", -1).substitute("q", 1) == MPoly.zero()
    b2 = row_poly(b_lemma_9, 2)
    expected = mono(1, y=2, t=1) - mono(1, y=1, t=1)
    assert b2.substitute("p", mono(-1, t=1)).substitute("q", T).substitute("r", T) == expected


def test_sign_balance_range_starts_at_three(a_lemma_8):
    # at n = 2 the p-evaluation does NOT vanish (the closed forms start at n = 3),
    # while the q-evaluation happens to match the n >= 3 pattern
    a2 = row_poly(a_lemma_8, 2)
    assert a2.substitute("p", -1).substitute("q", 1) != MPoly.zero()
    assert a2.substitute("p", 1).substitute("q", -1) == mono(1, y=2) - mono(1, y=1)


# -- serialization ---------------------------------------------------------------------


def test_table_csv_round_trip(b_lemma_9):
    text = b_lemma_9.to_csv()
    assert DistTable.from_csv(text) == b_lemma_9
    first = text.splitlines()[0]
    assert first == "1,1,1"


TABLE_2 = "1,1,p*q^2\n2,1,p^2*q^3\n2,2,p^3*q^2\n"


@pytest.mark.parametrize("text,message", [
    ("", "a table needs at least one cell"),
    ("\n \n", "a table needs at least one cell"),
    (TABLE_2 + "2,2,q\n", "cell (2, 2) appears twice"),
    (TABLE_2 + "2,5,q\n", "cell (2, 5) is outside 1 <= i <= m"),
    (TABLE_2 + "2,0,q\n", "cell (2, 0) is outside 1 <= i <= m"),
    (TABLE_2 + "0,1,q\n", "cell (0, 1) is outside 1 <= i <= m"),
    ("0,1,q\n", "cell (0, 1) is outside 1 <= i <= m"),
    (TABLE_2.replace("2,2,", "3,3,"), "cell (2, 2) is missing from a table of 3 rows"),
    ("1,1,1\n" + "9" * 30 + ",1,1\n", f"cell (2, 1) is missing from a table of {'9' * 30} rows"),
    (TABLE_2.replace("p^3*q^2", "p^99999"),
     "cell (2, 2): exponent outside the packable range [-16384, 16383]: p^99999"),
    ("1,1,p*x\n", "cell (1, 1): bad factor 'x' in polynomial text 'p*x'"),
    ("1,1,q + q\n", "cell (1, 1): the monomial of the term 'q' appears twice in polynomial "
                    "text 'q + q'"),
    ("1,1,p  + q\n", "cell (1, 1): polynomial text 'p  + q' is not terms of printable ASCII"),
], ids=["empty", "blank", "duplicate", "past-m", "i-zero", "m-zero", "only-outside", "missing",
        "huge-m", "cell-exponent", "cell-factor", "cell-twice", "cell-spacing"])
def test_malformed_table_is_refused_by_name(text, message):
    assert DistTable.from_csv(TABLE_2).n == 2
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        DistTable.from_csv(text)


# Python's own int() stops at 4300 digits and names an interpreter setting
LONG = "9" * 5000


def test_table_digit_runs_are_bounded():
    with pytest.raises(ValueError, match=f"^bad table line '{LONG},1,p'$"):
        DistTable.from_csv(f"{LONG},1,p\n")


@pytest.mark.parametrize("line", ["+1,\u0661,p", "0_1, 1 ,p", "1,1", "1, 1,p", "\uff11,1,p", "-1,1,p"],
                         ids=["plus-arabic-indic", "underscore-spaces", "no-poly", "space",
                              "fullwidth", "minus"])
def test_csv_cell_index_is_ascii_digits(line):
    with pytest.raises(ValueError, match=f"^bad table line {re.escape(repr(line))}$"):
        DistTable.from_csv(line + "\n")
    with pytest.raises(ValueError, match="^bad table line"):
        DistTable.from_csv(TABLE_2 + line + "\n")


# sha256 of the serialized tables as written by the tuple-keyed MPoly, which
# any change of term storage must reproduce byte for byte.
@pytest.mark.parametrize("serialize,digest", [
    (lambda: a_table_lemma(12).to_csv(),
     "8aeb11268289c6d9e0a5a2767ca74a887b63a456e9eb66b2540a6cac4bd8be3d"),
    (lambda: b_table_lemma(14).to_json(),
     "3180eef3b192aa432823fbf72fcc9657028b41a79e02fbec70c87f0af4524e9b"),
])
def test_table_serialization_bytes_pinned(serialize, digest):
    assert hashlib.sha256(serialize().encode()).hexdigest() == digest


# sha256 of every engine's table and of the direct B_n rows, as written before
# the cells were built by the multiply-accumulate kernel (mpoly.lincomb).
@pytest.mark.parametrize("serialize,digest", [
    (lambda: a_table_lemma(12).to_csv(),
     "8aeb11268289c6d9e0a5a2767ca74a887b63a456e9eb66b2540a6cac4bd8be3d"),
    (lambda: a_table_threeterm(12).to_csv(),
     "8aeb11268289c6d9e0a5a2767ca74a887b63a456e9eb66b2540a6cac4bd8be3d"),
    (lambda: b_table_lemma(12).to_csv(),
     "9a33bcb36805cd535d898f28c1d91176ce097e8b6b36dce58ac922826ba10bef"),
    (lambda: b_table_threeterm(12).to_csv(),
     "9a33bcb36805cd535d898f28c1d91176ce097e8b6b36dce58ac922826ba10bef"),
    (lambda: "\n".join(poly.to_text() for poly in bn_poly_recurrence(12)),
     "10243a3bd855edaea1e9f204b6756cdc8464d6cb96293a63bc0b3ae64959e374"),
    (lambda: "\n".join(poly.to_text() for poly in bn_poly_recurrence(25)),
     "59c9d4c8f04950d6bcfe812a93e7b8815aaebab342dd99ba852fd7c43b2c98da"),
], ids=["a_lemma", "a_threeterm", "b_lemma", "b_threeterm", "bn_rows", "bn_rows_25"])
def test_engine_outputs_pinned(serialize, digest):
    assert hashlib.sha256(serialize().encode()).hexdigest() == digest
