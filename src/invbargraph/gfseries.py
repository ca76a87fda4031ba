"""Truncated power series with exact rational coefficients.

A RationalSeries holds the coefficients of x^0..x^N for a fixed truncation
order N; all arithmetic is exact modulo x^(N+1).  It stores them as integer
numerators over one common denominator in lowest terms, so each operation is
integer arithmetic reduced by one gcd at the end; the coefficients it hands
out are still exact `Fraction`s.  On top of the ring operations (plus
inverse and composition; logarithms are built directly by `log_one_minus`)
this module builds the closed-form generating functions for the bargraph
statistics and checks them coefficient-by-coefficient against the
recurrence tables, always at fixed rational parameter points.

The area and lda series checks read point tables (`recur.point_table`: the
recurrence run on the numbers of the point).  Each of them also links that
data to the symbolic table: the symbolic rows it is given, evaluated at the
same point, must equal the point table's rows.

This module owns the rules that refuse a parameter point (`area_singular`,
`area_refusal`, `lda_kernel_refusal`): where a closed form is singular, and
where a check is vacuous, holding for any table, so that a pass would show
nothing.  Each check raises `SingularParameterError` at a point its rules
refuse, and `verify` and the CLI draw and refuse points through the same
functions; the closed forms behind `series` refuse only singular points.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain
from math import factorial, gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from invbargraph import recur
from invbargraph.mpoly import MPoly, lincomb
from invbargraph.recur import DistTable, Rat
from invbargraph.reporting import CheckResult, check


class NonUnitConstantTermError(ValueError):
    """Inverse needs a nonzero constant term."""


class NonzeroConstantInnerError(ValueError):
    """Composition requires the inner series to vanish at 0."""


class SingularParameterError(ValueError):
    """A closed form is singular, or a check vacuous, at the requested parameter point."""


class RationalSeries:
    """Coefficients of x^0..x^order, exact modulo x^(order+1).

    Stored as integer numerators over one common denominator, in lowest
    terms: the denominator is positive and shares no factor with all the
    numerators, so equal series have equal numerators and denominators.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, coeffs: Iterable[Rat], order: int | None = None):
        cs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        self._assign([c.numerator * (den // c.denominator) for c in cs], den, order)

    @classmethod
    def _of(cls, nums: list[int], den: int, order: int | None = None) -> "RationalSeries":
        """The series sum_k nums[k] x^k / den (den != 0), like the constructor."""
        series = object.__new__(cls)
        series._assign(nums, den, order)
        return series

    def _assign(self, nums: list[int], den: int, order: int | None) -> None:
        """Store nums / den, cut or padded to order + 1 entries, in lowest terms."""
        if order is not None:
            del nums[order + 1:]
            nums.extend([0] * (order + 1 - len(nums)))
        if not nums:
            raise ValueError("a series needs at least the constant coefficient")
        g = gcd(den, *nums)
        if den < 0:  # inv's denominator a_0^(order+1) can be negative
            g = -g
        if g != 1:
            nums = [a // g for a in nums]
            den //= g
        object.__setattr__(self, "_nums", tuple(nums))
        object.__setattr__(self, "_den", den)

    @classmethod
    def zero(cls, order: int) -> "RationalSeries":
        return cls([], order)

    @classmethod
    def one(cls, order: int) -> "RationalSeries":
        return cls([1], order)

    @classmethod
    def x(cls, order: int) -> "RationalSeries":
        return cls([0, 1], order)

    @property
    def order(self) -> int:
        return len(self._nums) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self._den) for a in self._nums)

    def coeff(self, k: int) -> Fraction:
        return Fraction(self._nums[k], self._den)

    def truncate(self, order: int) -> "RationalSeries":
        return RationalSeries._of(list(self._nums), self._den, order)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, RationalSeries)
                and self._nums == other._nums and self._den == other._den)

    def __repr__(self) -> str:
        return f"RationalSeries({list(map(str, self.coeffs))})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RationalSeries is immutable")

    # -- ring operations (results truncated to the smaller order) --------------

    def _common(self, other: "RationalSeries") -> int:
        return min(self.order, other.order)

    def _cofactors(self, other: "RationalSeries") -> tuple[int, int, int]:
        """(u, v, den) with self = sum a_k x^k u / den and other = sum b_k x^k v / den."""
        g = gcd(self._den, other._den)
        u, v = other._den // g, self._den // g
        return u, v, self._den * u

    def __add__(self, other: "RationalSeries") -> "RationalSeries":
        u, v, den = self._cofactors(other)
        return RationalSeries._of([a * u + b * v for a, b in zip(self._nums, other._nums)], den)

    def __sub__(self, other: "RationalSeries") -> "RationalSeries":
        u, v, den = self._cofactors(other)
        return RationalSeries._of([a * u - b * v for a, b in zip(self._nums, other._nums)], den)

    def __mul__(self, other: "RationalSeries | Rat") -> "RationalSeries":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        a, b = self._nums, other._nums
        out = [sum(map(mul, a[: k + 1], b[k::-1])) for k in range(self._common(other) + 1)]
        return RationalSeries._of(out, self._den * other._den)

    __rmul__ = __mul__

    def scale(self, c: Rat) -> "RationalSeries":
        c = Fraction(c)
        return RationalSeries._of([a * c.numerator for a in self._nums],
                                  self._den * c.denominator)

    def inv(self) -> "RationalSeries":
        """Multiplicative inverse; requires a nonzero constant term.

        With a = sum a_k x^k / d, the integers B_m = b_m a_0^(m+1) of
        1/sum a_k x^k = sum b_m x^m obey B_0 = 1 and
        B_m = -sum_{k=1..m} a_k a_0^(k-1) B_(m-k), so no step divides.
        """
        a = self._nums
        a0 = a[0]
        if not a0:
            raise NonUnitConstantTermError("cannot invert a series with constant term 0")
        n = self.order
        powers = [1]
        for _ in range(n + 1):
            powers.append(powers[-1] * a0)
        c = [a[k] * powers[k - 1] for k in range(1, n + 1)]
        big = [1]
        for m in range(1, n + 1):
            big.append(-sum(map(mul, c[:m], reversed(big))))
        return RationalSeries._of([self._den * big[m] * powers[n - m] for m in range(n + 1)],
                                  powers[n + 1])

    def compose(self, inner: "RationalSeries") -> "RationalSeries":
        """self(inner(x)); requires inner(0) = 0.  Horner evaluation of the numerators."""
        if inner._nums[0]:
            raise NonzeroConstantInnerError("inner series must vanish at 0")
        n = self._common(inner)
        inner = inner.truncate(n)
        result = RationalSeries([self._nums[n]], n)
        for k in range(n - 1, -1, -1):
            result = result * inner
            result = result + RationalSeries([self._nums[k]], n)
        return result.scale(Fraction(1, self._den))


def geometric(c: Rat, order: int) -> RationalSeries:
    """1/(1 - c x) expanded directly: c^k = a^k b^(order-k) / b^order for c = a/b."""
    c = Fraction(c)
    a, b = c.numerator, c.denominator
    return RationalSeries._of([a ** k * b ** (order - k) for k in range(order + 1)], b ** order)


def log_one_minus(c: Rat, order: int) -> RationalSeries:
    """ln(1 - c x) expanded directly: -c^k/k over the denominator b^order lcm(1..order)."""
    c = Fraction(c)
    a, b = c.numerator, c.denominator
    common = lcm(*range(1, order + 1))
    return RationalSeries._of(
        [0] + [-(a ** k) * b ** (order - k) * (common // k) for k in range(1, order + 1)],
        b ** order * common)


def log_ratio(y: Rat, order: int) -> RationalSeries:
    """ln((1 - xy)/(1 - x)) = sum_k (1 - y^k) x^k / k."""
    return log_one_minus(y, order) - log_one_minus(1, order)


# -- series taken from recurrence data -----------------------------------------


def series_from_table(table: DistTable, order: int, y: Rat | None = None) -> RationalSeries:
    """sum_n row_n x^n for n = 1..order, from a point table (`recur.point_table`).

    row_n is sum_i cell(n, i) y^i, or the plain row sum when y is None.
    """
    if y is None:
        rows = [table.row_sum(n) for n in range(1, order + 1)]
    else:
        rows = [sum(cell * y ** i for i, cell in enumerate(table.row(n), start=1))
                for n in range(1, order + 1)]
    return RationalSeries([0, *rows], order)


def _link_cases(data: RationalSeries, link: Sequence[MPoly], assignment: dict[str, Rat]):
    """(link n=.., point row, symbolic row at the point) for n = 1..len(link)."""
    return ((f"link n={n}", data.coeff(n), poly.eval_rational(assignment))
            for n, poly in enumerate(link, start=1))


# -- the points each check refuses ------------------------------------------------


def area_singular(p: Rat, y: Rat | None = None) -> str | None:
    """Why the area OGF (joint with the last letter when y is given) is singular at p, or None."""
    if p == 1:
        return "p = 1 is singular for the area OGF"
    return "y p = 1 is singular for the area/last OGF" if y is not None and y * p == 1 else None


def area_refusal(p: Rat, y: Rat | None = None) -> str | None:
    """Why the area checks refuse the point, or None: `area_singular`, then y = 0.

    At y = 0 every row polynomial vanishes (each cell carries y^i, i >= 1),
    so the (p, y) check would compare 0 with 0 whatever the table.
    """
    return area_singular(p, y) or ("y = 0 is vacuous for the area/last OGF" if y == 0 else None)


def lda_kernel_refusal(p: Rat, q: Rat, r: Rat) -> str | None:
    """Why the lda kernel checks refuse the point, or None.

    Both divide by q.  At q = r, rho(u) = (1 - (p-q)u)/(1 - (p-r)u) = 1, and
    both identities hold for any series.
    """
    if q == 0:
        return "q must be nonzero for the kernel identity"
    return "q and r must differ for the kernel identity" if q == r else None


def refuse(refusal: str | None, order: int = 1) -> None:
    """SingularParameterError(refusal) unless refusal is None, then ValueError unless order >= 1."""
    if refusal is not None:
        raise SingularParameterError(refusal)
    if order < 1:
        raise ValueError("order must be at least 1")


def _total_point(y: Rat, order: int) -> Fraction:
    """y as a Fraction, once y != 1 (SingularParameterError) and order >= 1 (ValueError)."""
    refuse("y = 1 is singular in this evaluation" if y == 1 else None, order)
    return Fraction(y)


# -- closed-form expansions: area / semi-perimeter ------------------------------


def _area_sum_series(p: Fraction, order: int, z: Fraction = Fraction(1)) -> RationalSeries:
    """sum_j (-z)^j p^(j + C(j+2,2)) x^j / prod_{i=0..j} (1 - p - x z p^(i+1)).

    z = 1 is the sum in expand_area_ogf; z = y p is the second sum in
    expand_area_last_ogf.  The product of the inverted denominators is
    carried from j to j.
    """
    total = RationalSeries.zero(order)
    den_inv = RationalSeries.one(order)
    for j in range(order + 1):
        den_inv = den_inv * RationalSeries([1 - p, -z * p ** (j + 1)], order).inv()
        lead = (-z) ** j * p ** (j + (j + 2) * (j + 1) // 2)
        shifted = RationalSeries._of([0] * j + list(den_inv._nums), den_inv._den, order)
        total = total + shifted.scale(lead)
    return total


def expand_area_ogf(p: Rat, order: int) -> RationalSeries:
    """A(x) = sum_n (area distribution at last-letter-blind point) x^n.

    Closed form: A(x) = x (1-p) sum_{j>=0} (-1)^j x^j p^(j+C(j+2,2))
    / prod_{i=0}^{j} (1 - p - x p^(i+1)); coefficient of x^n is the area
    generating polynomial of all length-n sequences evaluated at p.
    """
    p = Fraction(p)
    refuse(area_singular(p), order)
    shifted = RationalSeries([0, 1 - p], order)
    return shifted * _area_sum_series(p, order)


def expand_area_last_ogf(p: Rat, y: Rat, order: int) -> RationalSeries:
    """Joint OGF of area (p) and last letter (y): coefficient of x^n is A_n(y; p, 1).

    Closed form: xyp + x^2 y p (1-p)/(1-yp) * (S1 - y^2 p^2 S2) with S1, S2 the
    two iterated sums of expand_area_ogf shape.
    """
    p, y = Fraction(p), Fraction(y)
    refuse(area_singular(p, y), order)
    s1 = _area_sum_series(p, order)
    s2 = _area_sum_series(p, order, z=y * p)
    bracket = s1 - s2.scale(y * y * p * p)
    prefactor = RationalSeries([0, 0, y * p * (1 - p) / (1 - y * p)], order)
    return RationalSeries([0, y * p], order) + prefactor * bracket


def _coeff_cases(got: RationalSeries, want: RationalSeries):
    """(x^k, got_k, want_k) for each coefficient, for `reporting.check`."""
    return ((f"x^{k}", a, b) for k, (a, b) in enumerate(zip(got.coeffs, want.coeffs)))


def check_area_ogf(
    p: Rat, order: int, table: DistTable, link: Sequence[MPoly]
) -> list[CheckResult]:
    """The area OGF A(x) built from recurrence data, against both of its forms at p.

    Checks, mod x^(order+1):
      1. the self-substitution A(x) = x p (1-p)/(1-p-xp) - x p^2/(1-p-xp) * A(xp);
      2. the closed form `expand_area_ogf`.
    `table` is the area/sper point table at (p, q=1); `link` holds the
    symbolic row sums A_n(1) for n = 1..len(link) <= order, checked in both
    entries.  A point `area_refusal` refuses is a SingularParameterError.
    """
    p = Fraction(p)
    refuse(area_refusal(p), order)
    data = series_from_table(table, order)
    links = list(_link_cases(data, link, {"p": p, "q": 1}))
    params = f"p={p}"
    scaled = RationalSeries(
        [c * p ** n for n, c in enumerate(data.coeffs)], order
    )
    den_inv = RationalSeries([1 - p, -p], order).inv()
    rhs = RationalSeries([0, p * (1 - p)], order) * den_inv - (
        RationalSeries([0, p * p], order) * den_inv * scaled
    )
    return [
        check("area-ogf-recursion", f"order={order}", params,
              chain(_coeff_cases(rhs, data), links)),
        check("area-ogf-closed", f"order={order}", params,
              chain(_coeff_cases(expand_area_ogf(p, order), data), links)),
    ]


def check_area_ogf_closed(
    p: Rat, y: Rat, order: int, table: DistTable, link: Sequence[MPoly]
) -> CheckResult:
    """Closed-form area OGF joint with the last letter vs recurrence data at (p, y).

    `table` is the area/sper point table at (p, q=1); `link` holds the
    symbolic row polynomials for n = 1..len(link) <= order.  A point
    `area_refusal` refuses is a SingularParameterError.
    """
    p, y = Fraction(p), Fraction(y)
    refuse(area_refusal(p, y))
    series = expand_area_last_ogf(p, y, order)
    data = series_from_table(table, order, y)
    return check("area-ogf-closed", f"order={order}", f"p={p},y={y}",
                 chain(_coeff_cases(series, data),
                       _link_cases(data, link, {"y": y, "p": p, "q": 1})))


# -- kernel-method identity for the lda distribution ----------------------------


def _rho_at(p: Fraction, q: Fraction, r: Fraction, arg: RationalSeries) -> RationalSeries:
    """rho(arg) where rho(u) = (1 - (p-q)u)/(1 - (p-r)u), for a series argument with arg(0) = 0."""
    one = RationalSeries.one(arg.order)
    return (one - arg.scale(p - q)) * (one - arg.scale(p - r)).inv()


def check_lda_kernel(
    p: Rat, q: Rat, r: Rat, order: int, table: DistTable, link: Sequence[MPoly]
) -> list[CheckResult]:
    """Kernel-method identities for B(x) = sum_n rowsum_n(p,q,r) x^n.

    Checks, mod x^(order+1):
      1. B(x) = (rho(x)-1)/q + (r/q) rho(x) B(x rho(x))
      2. the iteration unrolled J = order times with its exact remainder:
         B(x) = sum_{j<=J} r^j (v_j - 1)/q^(j+1) * v_0..v_{j-1}
              + (r/q)^(J+1) v_0..v_J B(x_{J+1}),
    where x_0 = x, v_j = rho(x_j) and x_{j+1} = x_j v_j.  `table` is the lda
    point table at (p, q, r); `link` holds the symbolic row sums B_n(1) for
    n = 1..len(link) <= order, checked in both entries.  A point
    `lda_kernel_refusal` refuses is a SingularParameterError.
    """
    p, q, r = Fraction(p), Fraction(q), Fraction(r)
    refuse(lda_kernel_refusal(p, q, r))
    data = series_from_table(table, order)
    links = list(_link_cases(data, link, {"p": p, "q": q, "r": r}))
    params = f"p={p},q={q},r={r}"

    rho = _rho_at(p, q, r, RationalSeries.x(order))
    inner = RationalSeries.x(order) * rho
    rhs = (rho - RationalSeries.one(order)).scale(1 / q) + rho.scale(r / q) * data.compose(inner)

    total = RationalSeries.zero(order)
    v_product = RationalSeries.one(order)
    xj = RationalSeries.x(order)
    ratio_power = Fraction(1)
    for j in range(order + 1):
        vj = _rho_at(p, q, r, xj)
        term = (v_product * (vj - RationalSeries.one(order))).scale(ratio_power / q)
        total = total + term
        v_product = v_product * vj
        xj = xj * vj
        ratio_power *= r / q
    remainder = v_product.scale(ratio_power) * data.compose(xj)
    unrolled = total + remainder
    return [
        check("lda-kernel-substitution", f"order={order}", params,
              chain(_coeff_cases(rhs, data), links)),
        check("lda-kernel-unrolled", f"order={order}", params,
              chain(_coeff_cases(unrolled, data), links)),
    ]


# -- total generating functions --------------------------------------------------


def total_area_gf(y: Rat, order: int) -> RationalSeries:
    """Exponential GF of per-last-letter area totals, at a fixed rational y.

    n! times the x^n coefficient equals sum_j (total area over length-n
    sequences ending in j) y^j.
    """
    y = _total_point(y, order)
    part1 = log_ratio(y, order).scale(y * (1 + y) / (2 * (1 - y) ** 2))
    num = RationalSeries(
        [0, y * (2 - 6 * y), y * (5 * y ** 2 + 8 * y - 1),
         y * (-8 * y ** 2 - 4 * y), y * (4 * y ** 2)],
        order,
    )
    geo_y = RationalSeries([1, -y], order)
    geo_1 = RationalSeries([1, -1], order)
    den = (geo_y * geo_y * geo_1 * geo_1).scale(4 * (1 - y))
    return part1 + num * den.inv()


def total_levels_gf(y: Rat, order: int) -> RationalSeries:
    """Exponential GF of per-last-letter level totals at fixed y."""
    y = _total_point(y, order)
    ln_y = log_one_minus(y, order)
    ln_1 = log_one_minus(1, order)
    bracket = (
        RationalSeries([-y - 1, y], order) * ln_y.scale(2)
        + (RationalSeries([-2, 1], order) * ln_1).scale(-2 * y)
        + (ln_y * ln_y - ln_1 * ln_1).scale(-y)
    )
    return RationalSeries([0, y], order) + bracket.scale(Fraction(1, 2) / (1 - y))


def total_descents_gf(y: Rat, order: int) -> RationalSeries:
    """Exponential GF of per-last-letter descent totals at fixed y."""
    y = _total_point(y, order)
    ln_y = log_one_minus(y, order)
    ln_1 = log_one_minus(1, order)
    part_a = (
        RationalSeries([0, y], order)
        * (
            RationalSeries([-2, 3], order) * geometric(1, order)
            - (RationalSeries([0, 1], order) * geometric(y, order)).scale(y * y)
        )
    ).scale(Fraction(1, 2) / (1 - y))
    part_b = (
        RationalSeries([1, -y], order) * ln_y
        - (RationalSeries([2 - y, -1], order) * ln_1).scale(y)
    ).scale(Fraction(1) / (1 - y) ** 2)
    part_c = (ln_y * ln_y - ln_1 * ln_1).scale(y / (2 * (1 - y)))
    return part_a + part_b + part_c


def total_ascents_gf(y: Rat, order: int) -> RationalSeries:
    """Exponential GF of per-last-letter ascent totals at fixed y."""
    y = _total_point(y, order)
    part_a = (
        RationalSeries([0, y], order)
        * (
            RationalSeries([2, -1], order) * geometric(1, order)
            - (RationalSeries([0, 1], order) * geometric(y, order)).scale(y * y)
        )
    ).scale(Fraction(1, 2) / (1 - y))
    part_b = (
        RationalSeries([1, -y], order) * log_ratio(y, order).scale(-1)
    ).scale(y / (1 - y) ** 2)
    return part_a + part_b


_TOTAL_GF_BUILDERS = {
    "area": (total_area_gf, "a", "p"),
    "levels": (total_levels_gf, "b", "p"),
    "descents": (total_descents_gf, "b", "q"),
    "ascents": (total_ascents_gf, "b", "r"),
}


def check_total_gfs(
    ys: Iterable[Rat], order: int, a_table: DistTable, b_table: DistTable
) -> list[CheckResult]:
    """All four total-GF closed forms vs per-last-letter totals from the tables, at each y.

    Results run y first, then area, levels, descents, ascents.  The totals
    do not depend on y, so each is read from its table once for all ys.
    """
    tables = {"a": a_table, "b": b_table}

    @cache
    def by_last(which: str, marker: str, n: int) -> dict[int, int]:
        return recur.table_stat_total_by_last(tables[which], n, marker)

    def cases(y, builder, which, marker):
        series = builder(y, order)
        for n in range(1, order + 1):
            expected = sum(
                (Fraction(total) * y ** j for j, total in by_last(which, marker, n).items()),
                Fraction(0),
            )
            yield f"n={n}", series.coeff(n) * factorial(n), expected

    return [
        check(f"total-{stat}-gf", f"1<=n<={order}", f"y={y}", cases(y, *spec))
        for y in map(Fraction, ys)
        for stat, spec in _TOTAL_GF_BUILDERS.items()
    ]


def check_last_letter_uniformity(nmax: int, table: DistTable) -> CheckResult:
    """With both markers at 1, row n is (n-1)! (y + y^2 + ... + y^n), exactly."""
    if nmax < 1:
        raise ValueError(f"nmax must be positive, got {nmax}")

    def cases():
        for n in range(1, nmax + 1):
            # the row polynomial at p = q = 1: cell (n, i) becomes its coefficient sum
            flat = lincomb((cell.coeff_sum(), MPoly.monomial(1, y=i))
                           for i, cell in enumerate(table.row(n), start=1))
            expected = lincomb((factorial(n - 1), MPoly.monomial(1, y=i)) for i in range(1, n + 1))
            yield f"n={n}", flat, expected

    return check("uniform-last-letter-rows", f"1<=n<={nmax}", "p=1,q=1", cases())
