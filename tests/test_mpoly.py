from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from invbargraph.mpoly import (
    NVARS,
    VARS,
    MissingAssignmentError,
    MPoly,
    NegativePowerSubstitutionError,
    P,
    Q,
    R,
    T,
    Y,
)

PQ2 = MPoly.monomial(1, p=1, q=2)


def test_add_identity():
    assert PQ2 + MPoly.zero() == PQ2


def test_add_distinct_terms():
    assert Y * P + Y * Y * R == MPoly({(1, 1, 0, 0, 0): 1, (2, 0, 0, 1, 0): 1})


def test_add_cancellation():
    assert (Y - Y * Y) + (Y * Y - Y) == MPoly.zero()
    assert not (Y - Y)


def test_mul_monomials():
    assert (P * Q) * (P * Q) == MPoly.monomial(1, p=2, q=2)


def test_mul_laurent_cancellation():
    assert MPoly.monomial(1, q=-1) * Q == MPoly.one()


def test_mul_paper_row_term():
    # y p^3 q^4 (1 + pq) = y p^3 q^4 + y p^4 q^5
    lhs = Y * MPoly.monomial(1, p=3, q=4) * (MPoly.one() + P * Q)
    assert lhs == MPoly.monomial(1, y=1, p=3, q=4) + MPoly.monomial(1, y=1, p=4, q=5)


def test_substitute_set_to_one():
    poly = MPoly.monomial(1, y=1, p=3, q=4) * (MPoly.one() + P * Q)
    assert poly.substitute("y", 1) == MPoly.monomial(1, p=3, q=4) + MPoly.monomial(1, p=4, q=5)


def test_substitute_monomial_relabel():
    assert PQ2.substitute("q", MPoly.monomial(1, q=-1)) == MPoly.monomial(1, p=1, q=-2)


def test_substitute_polynomial_expansion():
    poly = Y * P + Y * Y * R
    expected = MPoly.monomial(1, y=1, p=2) + MPoly.monomial(1, y=2, p=2, r=1)
    assert poly.substitute("y", Y * P) == expected


def test_substitute_negative_power_refused():
    laurent = MPoly.monomial(1, q=-1)
    with pytest.raises(NegativePowerSubstitutionError):
        laurent.substitute("q", MPoly.one() + Q)
    # a unit monomial replacement is fine even into negative powers
    assert laurent.substitute("q", MPoly.monomial(-1, t=2)) == MPoly.monomial(-1, t=-2)


def test_eval_all_ones():
    assert PQ2.eval_rational({"p": 1, "q": 1}) == 1


def test_eval_termwise_cancellation():
    poly = MPoly.monomial(1, y=1, p=2, q=3) + MPoly.monomial(1, y=2, p=3, q=4)
    assert poly.eval_rational({"y": 1, "p": 1, "q": -1}) == 0


def test_eval_rational_point():
    poly = MPoly.monomial(2, y=3) - MPoly.monomial(2, y=2)
    assert poly.eval_rational({"y": Fraction(1, 2)}) == Fraction(-1, 4)


def test_eval_missing_assignment():
    with pytest.raises(MissingAssignmentError):
        PQ2.eval_rational({"p": 1})


def test_eval_zero_at_negative_power():
    poly = MPoly.monomial(1, q=-2)
    with pytest.raises(ZeroDivisionError):
        poly.eval_rational({"q": 0})
    # zero at a positive power is fine
    assert PQ2.eval_rational({"p": 0, "q": 3}) == 0


def test_coeff_lookup():
    poly = MPoly.monomial(1, y=1, p=3, q=4) + MPoly.monomial(1, y=1, p=4, q=5)
    assert poly.coeff(y=1, p=4, q=5) == 1
    assert poly.coeff(y=9, p=9) == 0
    assert MPoly.monomial(2, y=2, p=1, r=1).coeff(y=2, p=1, r=1) == 2


def test_canonical_text_examples():
    assert PQ2.to_text() == "p*q^2"
    assert (Y * P + Y * Y * R).to_text() == "y*p + y^2*r"
    assert MPoly.zero().to_text() == "0"
    assert (MPoly.monomial(2, y=3) - MPoly.monomial(2, y=2)).to_text() == "-2*y^2 + 2*y^3"
    assert MPoly.monomial(1, q=-2).to_text() == "q^-2"
    assert MPoly.const(-1).to_text() == "-1"


def test_text_parse_examples():
    assert MPoly.from_text("p*q^2") == PQ2
    assert MPoly.from_text("0") == MPoly.zero()
    assert MPoly.from_text("-2*y^2 + 2*y^3") == MPoly.monomial(2, y=3) - MPoly.monomial(2, y=2)
    assert MPoly.from_text("q^-2") == MPoly.monomial(1, q=-2)


def test_immutability():
    with pytest.raises(AttributeError):
        PQ2._terms = {}


# -- randomized ring laws --------------------------------------------------------

exponents = st.integers(min_value=-2, max_value=3)
coefficients = st.integers(min_value=-6, max_value=6)
term = st.tuples(st.tuples(*[exponents] * NVARS), coefficients)
polys = st.lists(term, max_size=5).map(lambda ts: MPoly(dict(ts)))


@given(polys, polys)
def test_add_commutative(a, b):
    assert a + b == b + a


@given(polys, polys)
def test_mul_commutative(a, b):
    assert a * b == b * a


@given(polys, polys, polys)
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(polys, polys, polys)
def test_distributive(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(polys, st.sampled_from(VARS))
def test_substitute_self_is_identity(a, v):
    assert a.substitute(v, MPoly.var(v)) == a


@given(polys, polys)
def test_eval_is_ring_homomorphism(a, b):
    point = {v: Fraction(k - 2, 3) for k, v in enumerate(VARS)}
    point = {v: x if x else Fraction(1, 7) for v, x in point.items()}  # keep nonzero
    lhs = (a * b).eval_rational(point)
    assert lhs == a.eval_rational(point) * b.eval_rational(point)
    assert (a + b).eval_rational(point) == a.eval_rational(point) + b.eval_rational(point)


def naive_eval(poly, point):
    """Reference: one Fraction power per factor, summed term by term."""
    total = Fraction(0)
    for exp, c in poly.items():
        term = Fraction(c)
        for v, e in zip(VARS, exp):
            if e:
                term *= Fraction(point[v]) ** e
        total += term
    return total


rationals = st.builds(Fraction, st.integers(min_value=-4, max_value=4),
                      st.integers(min_value=1, max_value=5))


@given(polys, st.tuples(*[rationals] * NVARS))
def test_eval_matches_naive_reference(a, values):
    point = dict(zip(VARS, values))
    try:
        want = naive_eval(a, point)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            a.eval_rational(point)
    else:
        assert a.eval_rational(point) == want


@given(polys)
def test_text_round_trip(a):
    assert MPoly.from_text(a.to_text()) == a


@given(polys)
def test_json_round_trip(a):
    assert MPoly.from_json_obj(a.to_json_obj()) == a
