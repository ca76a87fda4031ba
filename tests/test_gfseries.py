from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from invbargraph import recur
from invbargraph.mpoly import MPoly
from invbargraph.gfseries import (
    NonUnitConstantTermError,
    NonzeroConstantInnerError,
    RationalSeries,
    SingularParameterError,
    check_area_ogf,
    check_area_ogf_closed,
    check_last_letter_uniformity,
    check_lda_kernel,
    check_total_gfs,
    expand_area_last_ogf,
    expand_area_ogf,
    geometric,
    log_one_minus,
    log_ratio,
    series_from_table,
    total_area_gf,
    total_levels_gf,
)

F = Fraction


def series(*coeffs, order=8):
    return RationalSeries(coeffs, order)


# -- ring operations ---------------------------------------------------------------


def test_mul_basic():
    assert (series(1, 1) * series(1, -1)).coeffs[:3] == (F(1), F(0), F(-1))


def test_coeff_refuses_an_index_outside_the_series():
    s = series(1, 2, 3, order=2)
    assert [s.coeff(k) for k in range(3)] == [1, 2, 3]
    for k in (-1, -3, 3):
        with pytest.raises(IndexError, match=f"^no coefficient {k} in a series of order 2$"):
            s.coeff(k)


def test_geometric_self_check():
    assert series(1, -1) * geometric(1, 8) == RationalSeries.one(8)


def test_x_shift():
    ks = RationalSeries([k for k in range(9)], 8)
    shifted = RationalSeries.x(8) * ks
    assert shifted.coeffs[1:] == ks.coeffs[:-1]


def test_inv_of_one_minus_x():
    assert series(1, -1).inv() == geometric(1, 8)


def test_inv_requires_unit():
    with pytest.raises(NonUnitConstantTermError):
        series(0, 1).inv()


def test_log_ratio_linear_coefficient():
    y = F(1, 2)
    assert log_ratio(y, 8).coeff(1) == 1 - y


def test_compose_squares():
    geo = geometric(1, 8)
    inner = RationalSeries([0, 0, 1], 8)
    got = geo.compose(inner)
    assert got.coeffs == tuple(F(1) if k % 2 == 0 else F(0) for k in range(9))


def test_compose_identity():
    f = series(3, 1, 4, 1, 5)
    assert f.compose(RationalSeries.x(8)) == f


def test_compose_requires_zero_constant():
    with pytest.raises(NonzeroConstantInnerError):
        series(1, 1).compose(series(1, 1))


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@given(st.lists(rationals, min_size=1, max_size=7))
def test_inv_is_right_inverse(coeffs):
    if coeffs[0] == 0:
        coeffs[0] = F(1)
    s = RationalSeries(coeffs, 6)
    assert s * s.inv() == RationalSeries.one(6)


# -- the integer representation against a plain Fraction reference ----------------------


def ref_fit(cs, order):
    cs = [F(c) for c in cs][: order + 1]
    return cs + [F(0)] * (order + 1 - len(cs))


def ref_mul(a, b):
    n = min(len(a), len(b)) - 1
    out = [F(0)] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a[i] * b[j]
    return out


def ref_inv(a):
    out = [1 / a[0]]
    for m in range(1, len(a)):
        out.append(-sum((a[k] * out[m - k] for k in range(1, m + 1)), F(0)) / a[0])
    return out


def ref_compose(a, inner):
    n = min(len(a), len(inner)) - 1
    inner = inner[: n + 1]
    result = ref_fit([a[n]], n)
    for k in range(n - 1, -1, -1):
        result = ref_mul(result, inner)
        result[0] += a[k]
    return result


def coefficient_lists(min_order=0):
    return st.integers(min_order, 8).flatmap(
        lambda n: st.lists(rationals, min_size=n + 1, max_size=n + 1))


def matches(got, want):
    assert got.coeffs == tuple(want)
    assert [got.coeff(k) for k in range(len(want))] == want
    assert repr(got) == f"RationalSeries({list(map(str, want))})"
    assert got.order == len(want) - 1


@given(coefficient_lists(), coefficient_lists(), rationals)
def test_ring_operations_match_the_fraction_reference(a, b, c):
    sa, sb = RationalSeries(a), RationalSeries(b)
    n = min(len(a), len(b))
    matches(sa, a)
    matches(sa + sb, [x + y for x, y in zip(a, b)])
    matches(sa - sb, [x - y for x, y in zip(a, b)])
    matches(sa * sb, ref_mul(a, b))
    matches(sa * c, [x * c for x in a])
    matches(c * sa, [x * c for x in a])
    matches(sa * int(c.numerator), [x * c.numerator for x in a])
    matches(sa.scale(c), [x * c for x in a])
    for order in (0, n, 9):
        matches(sa.truncate(order), ref_fit(a, order))
        matches(RationalSeries(a, order), ref_fit(a, order))


@given(coefficient_lists())
def test_inv_matches_the_fraction_reference(a):
    if a[0] == 0:
        with pytest.raises(NonUnitConstantTermError):
            RationalSeries(a).inv()
    else:
        matches(RationalSeries(a).inv(), ref_inv(a))


@given(rationals, st.integers(0, 8))
def test_log_one_minus_matches_the_fraction_reference(c, order):
    matches(log_one_minus(c, order), [F(0)] + [-c ** k / k for k in range(1, order + 1)])


@given(coefficient_lists(), coefficient_lists(min_order=1))
def test_compose_matches_the_fraction_reference(a, inner):
    inner[0] = F(0)
    matches(RationalSeries(a).compose(RationalSeries(inner)), ref_compose(a, inner))


@given(coefficient_lists())
def test_equal_series_are_stored_alike(a):
    s = RationalSeries(a)
    assert s.scale(2).scale(F(1, 2)) == s
    assert s.scale(F(-3, 7))._den > 0
    assert RationalSeries([x * 6 for x in a]).scale(F(1, 6)) == s


def test_canonical_form():
    assert RationalSeries([F(2, 4)], 0) == RationalSeries([F(1, 2)], 0)
    s = RationalSeries([F(1, 2), F(-1, 3)], 3)
    assert s.scale(-1)._den == 6 and s.scale(-1) == RationalSeries([F(-1, 2), F(1, 3)], 3)
    assert s.scale(0) == RationalSeries.zero(3)
    assert s != RationalSeries([F(1, 2), F(-1, 3)], 4)


# -- closed-form area OGFs ------------------------------------------------------------


def test_area_ogf_linear_coefficient():
    p = F(1, 2)
    assert expand_area_ogf(p, 6).coeff(1) == p


def test_area_ogf_singular_guard():
    with pytest.raises(SingularParameterError):
        expand_area_ogf(1, 6)
    with pytest.raises(SingularParameterError):
        expand_area_last_ogf(F(1, 2), 2, 6)
    # the checks raise the closed forms' messages, p = 1 before y = 0
    table = a_point(F(1, 2))
    for check, refusal in [
        (lambda: check_area_ogf(1, 8, table, []), "p = 1 is singular for the area OGF"),
        (lambda: check_area_ogf_closed(1, 0, 8, table, []), "p = 1 is singular for the area OGF"),
        (lambda: check_area_ogf_closed(F(1, 2), 2, 8, table, []),
         "y p = 1 is singular for the area/last OGF"),
    ]:
        with pytest.raises(SingularParameterError, match=f"^{refusal}$"):
            check()


def a_point(p, order=8):
    """The area/sper point table at (p, q=1), as the area checks read it."""
    return recur.point_table("a_lemma", order, p=p, q=1)


def b_point(p, q, r, order=8):
    return recur.point_table("b_lemma", order, p=p, q=q, r=r)


def sums(table, upto=8):
    """Symbolic row sums for n <= upto, the link the area and lda checks take."""
    return [table.row_sum(n) for n in range(1, upto + 1)]


def rows(table, upto=8):
    return [recur.row_poly(table, n) for n in range(1, upto + 1)]


def test_area_ogf_matches_table():
    p = F(1, 2)
    assert expand_area_ogf(p, 8) == series_from_table(a_point(p), 8)


def test_series_from_table_weights_rows_by_y(a_lemma_8):
    p, y = F(-2, 3), F(3, 2)
    data = series_from_table(a_point(p), 8, y)
    assert data.coeffs[1:] == tuple(
        row_poly.eval_rational({"y": y, "p": p, "q": 1}) for row_poly in rows(a_lemma_8))


def test_area_last_ogf_leading_term():
    p, y = F(1, 3), F(2, 5)
    assert expand_area_last_ogf(p, y, 6).coeff(1) == y * p


def test_area_last_ogf_reduces_at_y_one():
    p = F(-1, 2)
    assert expand_area_last_ogf(p, 1, 8) == expand_area_ogf(p, 8)


@pytest.mark.parametrize("p,y", [(F(1, 2), F(1, 3)), (F(-2, 3), F(3, 2)), (F(1, 4), F(-1, 2))])
def test_area_last_ogf_matches_table(a_lemma_8, p, y):
    assert check_area_ogf_closed(p, y, 8, a_point(p), rows(a_lemma_8)).status == "pass"


@pytest.mark.parametrize("p", [F(1, 2), F(-1, 2), F(0), F(2), F(3, 4)])
def test_area_ogf_recursion(a_lemma_8, p):
    results = check_area_ogf(p, 8, a_point(p), sums(a_lemma_8))
    assert [(r.formula, r.status) for r in results] == [
        ("area-ogf-recursion", "pass"), ("area-ogf-closed", "pass")]


def test_area_ogf_recursion_detects_corruption(a_lemma_8):
    point = a_point(F(1, 2))
    bad = point.with_cell(5, 3, point[5, 3] + 1)
    results = check_area_ogf(F(1, 2), 8, bad, sums(a_lemma_8))
    assert [r.status for r in results] == ["fail", "fail"]
    assert all(r.first_mismatch.startswith("x^5: ") for r in results)


def area_checks(p, y, table, link):
    """The entries of the area OGF checks at p (both forms), or at (p, y)."""
    if y is None:
        return check_area_ogf(p, 8, table, link)
    return [check_area_ogf_closed(p, y, 8, table, link)]


@pytest.mark.parametrize("y", [None, F(1, 3)])
def test_link_detects_a_symbolic_corruption(a_lemma_8, y):
    # the point data still satisfies the identity; only the link sees the change
    bad = a_lemma_8.with_cell(5, 3, a_lemma_8[5, 3] + MPoly.one())
    link = sums(bad) if y is None else rows(bad)
    results = area_checks(F(1, 2), y, a_point(F(1, 2)), link)
    assert all(r.status == "fail" and r.first_mismatch.startswith("link n=5: ") for r in results)
    assert all(r.status == "pass" for r in area_checks(F(1, 2), y, a_point(F(1, 2)), link[:4]))


# -- kernel identities -----------------------------------------------------------------


@pytest.mark.parametrize(
    "point,refusal",
    [
        # q = r: rho(x) = 1, so both identities hold for any series
        ((F(1), F(1), F(1)), "q and r must differ for the kernel identity"),
        ((F(1, 3), F(1, 2), F(1, 5)), None),
        ((F(0), F(1), F(1)), "q and r must differ for the kernel identity"),
        ((F(2), F(-1, 2), F(1, 7)), None),
        ((F(-1, 3), F(3), F(0)), None),
    ],
    ids=[f"point{k}" for k in range(5)],
)
def test_lda_kernel_points(b_lemma_9, point, refusal):
    args = (*point, 8, b_point(*point), sums(b_lemma_9))
    if refusal is None:
        assert [r.status for r in check_lda_kernel(*args)] == ["pass", "pass"]
    else:
        with pytest.raises(SingularParameterError, match=f"^{refusal}$"):
            check_lda_kernel(*args)


def test_lda_kernel_q_zero_guard(b_lemma_9):
    with pytest.raises(SingularParameterError,
                       match="^q must be nonzero for the kernel identity$"):
        check_lda_kernel(1, 0, 1, 4, b_point(1, 0, 1, 4), sums(b_lemma_9, 4))


def test_lda_kernel_refuses_q_equal_to_r_on_a_corrupted_table(b_lemma_9):
    """At q = r both identities hold for any series, so a corrupted table would pass."""
    point = b_point(1, 2, 2)
    bad = point.with_cell(3, 1, point[3, 1] + 1)
    with pytest.raises(SingularParameterError,
                       match="^q and r must differ for the kernel identity$"):
        check_lda_kernel(1, 2, 2, 8, bad, sums(b_lemma_9))


def test_area_ogf_closed_refuses_y_zero_on_a_corrupted_table(a_lemma_8):
    """At y = 0 every row polynomial vanishes, so a corrupted table would pass."""
    point = a_point(F(1, 2))
    bad = point.with_cell(3, 1, point[3, 1] + 1)
    with pytest.raises(SingularParameterError, match="^y = 0 is vacuous"):
        check_area_ogf_closed(F(1, 2), 0, 8, bad, rows(a_lemma_8))
    # the closed form itself is not singular there
    assert expand_area_last_ogf(F(1, 2), 0, 8) == RationalSeries.zero(8)


def test_lda_kernel_detects_corruption(b_lemma_9):
    point = b_point(F(1, 3), F(1, 2), F(1, 5))
    bad = point.with_cell(6, 2, point[6, 2] + 1)
    results = check_lda_kernel(F(1, 3), F(1, 2), F(1, 5), 8, bad, sums(b_lemma_9))
    assert [r.status for r in results] == ["fail", "fail"]
    assert all(r.first_mismatch.startswith("x^6: ") for r in results)


def test_lda_link_detects_a_symbolic_corruption(b_lemma_9):
    bad = b_lemma_9.with_cell(6, 2, b_lemma_9[6, 2] + MPoly.one())
    point = (F(1, 3), F(1, 2), F(1, 5))
    results = check_lda_kernel(*point, 8, b_point(*point), sums(bad))
    # the corrupted symbolic row sum is one more than the point data
    want = "link n=6: 2148691/1518750 != 3667441/1518750"
    assert [r.first_mismatch for r in results] == [want, want]


# -- total generating functions ---------------------------------------------------------


PRINTED_AREA_POLYS = {
    # n: n! * coefficient of x^n as a polynomial in y, from the printed expansion
    1: lambda y: y,
    2: lambda y: y * (3 * y + 2),
    3: lambda y: y * (11 * y**2 + 9 * y + 7),
    4: lambda y: 3 * y * (17 * y**3 + 15 * y**2 + 13 * y + 11),
}


@pytest.mark.parametrize("y", [F(1, 2), F(2), F(-1, 3)])
def test_area_gf_printed_series(y):
    s = total_area_gf(y, 4)
    factorial = 1
    for n in range(1, 5):
        factorial *= n
        assert s.coeff(n) * factorial == PRINTED_AREA_POLYS[n](y)


def test_area_gf_singular_at_one():
    with pytest.raises(SingularParameterError):
        total_area_gf(1, 4)
    with pytest.raises(SingularParameterError):
        total_levels_gf(1, 4)


@pytest.mark.parametrize("y", [F(1, 2), F(2), F(-1, 3)])
def test_total_gfs_match_tables(a_lemma_8, b_lemma_9, y):
    results = check_total_gfs([y], 7, a_lemma_8, b_lemma_9)
    assert [r.status for r in results] == ["pass"] * 4


def test_total_gfs_report_y_first(a_lemma_8, b_lemma_9):
    results = check_total_gfs([F(1, 2), F(2)], 7, a_lemma_8, b_lemma_9)
    assert [(r.formula, r.params) for r in results] == [
        (f"total-{stat}-gf", f"y={y}")
        for y in ("1/2", "2") for stat in ("area", "levels", "descents", "ascents")
    ]
    assert all(r.status == "pass" for r in results)


def test_total_gfs_read_each_total_once(a_lemma_8, b_lemma_9, monkeypatch):
    calls = []
    by_last = recur.table_stat_total_by_last

    def counted(table, n, marker):
        calls.append((n, marker))
        return by_last(table, n, marker)

    monkeypatch.setattr(recur, "table_stat_total_by_last", counted)
    check_total_gfs([F(1, 2), F(2), F(-1, 3)], 7, a_lemma_8, b_lemma_9)
    assert len(calls) == 4 * 7  # four statistics, n = 1..7, independent of y


def test_total_gfs_detect_corruption(a_lemma_8, b_lemma_9):
    bad = b_lemma_9.with_cell(4, 1, b_lemma_9[4, 1] * 2)
    results = check_total_gfs([F(1, 2), F(2)], 7, a_lemma_8, bad)
    # only the lda-based totals read the corrupted table, at every y
    assert [r.status for r in results] == ["pass", "fail", "fail", "fail"] * 2


# -- unit-point rows ----------------------------------------------------------------------


def test_last_letter_uniformity(a_lemma_8):
    assert check_last_letter_uniformity(8, a_lemma_8).status == "pass"


def test_last_letter_uniformity_row_shape():
    table = recur.a_table_lemma(4)
    flat = recur.row_poly(table, 4).substitute("p", 1).substitute("q", 1)
    assert flat == sum(
        (MPoly.monomial(6, y=i) for i in range(1, 5)), MPoly.zero()
    )
