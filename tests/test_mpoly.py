import json
import operator
import re
from fractions import Fraction
from functools import reduce
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from invbargraph import kernel, mpoly
from invbargraph.mpoly import (
    EXP_MAX,
    EXP_MIN,
    NVARS,
    VARS,
    Kronecker,
    MissingAssignmentError,
    MPoly,
    P,
    Q,
    R,
    T,
    Y,
    lincomb,
)
from invbargraph.recur import _at_point, a_table_lemma, b_table_lemma, point_table

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
    with pytest.raises(ValueError, match="^cannot substitute 1 \\+ q for q: "):
        laurent.substitute("q", MPoly.one() + Q)
    # a unit monomial replacement is fine even into negative powers
    assert laurent.substitute("q", MPoly.monomial(-1, t=2)) == MPoly.monomial(-1, t=-2)


# every replacement but +-1 times a monomial is refused, into any power of the variable
@pytest.mark.parametrize("repl,text", [(0, "0"), (2, "2"), (1 + Q, "1 + q"), (2 * P, "2*p")],
                         ids=["zero", "two", "one-plus-q", "two-p"])
def test_substitute_takes_only_unit_monomials(repl, text):
    message = (f"^cannot substitute {re.escape(text)} for p: "
               "the replacement must be \\+-1 times a monomial$")
    for poly in (PQ2, MPoly.monomial(1, p=-2), MPoly.const(3), MPoly.zero()):
        with pytest.raises(ValueError, match=message):
            poly.substitute("p", repl)


@pytest.mark.parametrize("base,n", [(MPoly.zero(), 0), (MPoly.zero(), 1), (P + Q, 2),
                                    (P + Q, -2), (P + Q, 0), (MPoly.const(2), 3),
                                    (MPoly.monomial(3, p=1), -1)],
                         ids=["zero-0", "zero-1", "p+q-2", "p+q--2", "p+q-0", "two-3", "3p--1"])
def test_pow_takes_only_unit_monomials(base, n):
    with pytest.raises(ValueError, match="^power of .*: the base must be \\+-1 times a monomial$"):
        base ** n


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


def test_coeff_wrong_length_exponent_vector():
    with pytest.raises(ValueError, match="exponent vector must have length 5: \\(0, 1\\)"):
        PQ2.coeff((0, 1))


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


# non-ASCII digits ("\u0663" is ARABIC-INDIC DIGIT THREE) are no coefficient or exponent
@pytest.mark.parametrize("text", ["p*x", "2.5*p", "p^", "p^+2", "p**2", "", "2*", "\u0663*p",
                                  "p*\u0663", "p^\u0663", "\u00b2*p"])
def test_text_parse_bad_factor(text):
    with pytest.raises(ValueError, match="bad factor"):
        MPoly.from_text(text)


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
    assert MPoly.from_json_obj(json.loads(a.to_json())) == a


# a JSON coefficient is what to_json writes: ASCII digits after an optional minus
@pytest.mark.parametrize("coeff", ["1_000", " 7 ", "+4", "\u0663", "", "-", "--1", "1.0",
                                   "0x10", 7, 7.0, None, True])
def test_json_bad_coefficient(coeff):
    with pytest.raises(ValueError, match="^bad coefficient .* in a JSON term$"):
        MPoly.from_json_obj([{"coeff": coeff, "exp": [0, 1, 0, 0, 0]}])


LONG = "9" * 5000  # past the 4300 digits of Python's own int() limit


@pytest.mark.parametrize("text,message", [
    (f"{LONG}*p", f"coefficient of more than 4300 digits in the term '{LONG}*p' of polynomial text"),
    (f"p - {LONG}", f"coefficient of more than 4300 digits in the term '{LONG}' of polynomial text"),
    (f"p^{LONG}", f"bad factor 'p^{LONG}' in polynomial text 'p^{LONG}'"),
    (f"p*{LONG}", f"bad factor '{LONG}' in polynomial text 'p*{LONG}'"),
], ids=["coefficient", "constant", "exponent", "factor"])
def test_text_digit_runs_are_bounded(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MPoly.from_text(text)
    bound = "9" * 4300
    assert MPoly.from_text(f"{bound}*p") == MPoly.monomial(int(bound), p=1)


def test_json_digit_runs_are_bounded():
    with pytest.raises(ValueError, match=f"^bad coefficient '{LONG}' in a JSON term$"):
        MPoly.from_json_obj([{"coeff": LONG, "exp": [0, 1, 0, 0, 0]}])
    assert MPoly.from_json_obj([{"coeff": "-" + "9" * 4300, "exp": [0, 1, 0, 0, 0]}]) == \
        MPoly.monomial(-int("9" * 4300), p=1)


@pytest.mark.parametrize("term,message", [
    (1, "bad JSON term 1"),
    ({"coeff": "1"}, "bad JSON term {'coeff': '1'}"),
    ({"coeff": "1", "exp": "00000"}, "bad exponents '00000' in a JSON term"),
    ({"coeff": "1", "exp": 5}, "bad exponents 5 in a JSON term"),
    ({"coeff": "1", "exp": [0, "1", 0, 0, 0]}, "bad exponents [0, '1', 0, 0, 0] in a JSON term"),
    ({"coeff": "1", "exp": [0, True, 0, 0, 0]}, "bad exponents [0, True, 0, 0, 0] in a JSON term"),
    ({"coeff": "1", "exp": [0, 0, 0, 0, False]}, "bad exponents [0, 0, 0, 0, False] in a JSON term"),
], ids=["number", "no-exp", "exp-text", "exp-number", "exp-text-entry", "exp-true", "exp-false"])
def test_json_bad_term_is_refused_by_name(term, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MPoly.from_json_obj([term])


def test_json_terms_with_one_monomial_add_up():
    assert MPoly.from_json_obj([{"coeff": "3", "exp": [0, 1, 0, 0, 0]},
                                {"coeff": "-007", "exp": [0, 1, 0, 0, 0]}]) == -4 * P
    assert MPoly.from_json_obj([{"coeff": "2", "exp": [0, 1, 0, 0, 0]},
                                {"coeff": "-2", "exp": [0, 1, 0, 0, 0]}]) == MPoly.zero()
    assert MPoly.from_json_obj([{"coeff": "-0", "exp": [1, 0, 0, 0, 0]}]) == MPoly.zero()


# -- exponent range ----------------------------------------------------------------

HALF = (EXP_MAX + 1) // 2


@pytest.mark.parametrize("var", VARS)
def test_constructor_range(var):
    for e in (EXP_MIN, EXP_MAX):
        poly = MPoly.monomial(3, **{var: e})
        assert poly.degree(var) == e
        assert MPoly({tuple(e if v == var else 0 for v in VARS): 3}) == poly
        assert MPoly.from_text(poly.to_text()) == poly
        assert MPoly.from_json_obj(json.loads(poly.to_json())) == poly
    for e in (EXP_MIN - 1, EXP_MAX + 1, 2 ** 70):
        exp = tuple(e if v == var else 0 for v in VARS)
        with pytest.raises(OverflowError):
            MPoly.monomial(1, **{var: e})
        with pytest.raises(OverflowError):
            MPoly({exp: 1})
        with pytest.raises(OverflowError):
            MPoly.from_text(f"{var}^{e}")
        with pytest.raises(OverflowError):
            MPoly.from_json_obj([{"coeff": "1", "exp": list(exp)}])


@pytest.mark.parametrize("var", VARS)
def test_repeated_square_range(var):
    x = MPoly.var(var)
    assert x ** EXP_MAX == MPoly.monomial(1, **{var: EXP_MAX})
    assert MPoly.monomial(1, **{var: HALF}) * MPoly.monomial(1, **{var: HALF - 1}) == x ** EXP_MAX
    assert MPoly.monomial(1, **{var: -HALF}) ** 2 == MPoly.monomial(1, **{var: EXP_MIN})
    assert x ** EXP_MIN == MPoly.monomial(1, **{var: EXP_MIN})
    with pytest.raises(OverflowError):
        x ** (EXP_MAX + 1)
    with pytest.raises(OverflowError):
        MPoly.monomial(1, **{var: HALF}) ** 2
    with pytest.raises(OverflowError):
        MPoly.monomial(1, **{var: -HALF - 1}) ** 2
    with pytest.raises(OverflowError):
        x ** (EXP_MIN - 1)


@pytest.mark.parametrize("var", VARS)
def test_product_overflow_never_wraps(var):
    top = MPoly.monomial(1, **{var: EXP_MAX})
    bottom = MPoly.monomial(1, **{var: EXP_MIN})
    x = MPoly.var(var)
    assert (top * x ** -1).degree(var) == EXP_MAX - 1
    for a, b in ((top, x), (bottom, x ** -1), (top, P + Q + Y * T + x), (bottom, 1 + x ** -1)):
        with pytest.raises(OverflowError):
            a * b
        with pytest.raises(OverflowError):
            b * a


def test_unit_substitution_overflow_never_wraps():
    top = MPoly.monomial(1, p=EXP_MAX)
    assert top.substitute("p", Q) == MPoly.monomial(1, q=EXP_MAX)
    with pytest.raises(OverflowError):  # q^(2 EXP_MAX): the power itself is out of range
        top.substitute("p", Q ** 2)
    with pytest.raises(OverflowError):  # p^(EXP_MAX + 3): another field leaves the range
        MPoly.monomial(1, y=3, p=EXP_MAX).substitute("y", Y * P)
    assert MPoly.monomial(1, y=3, p=EXP_MAX - 3).substitute("y", Y * P) == \
        MPoly.monomial(1, y=3, p=EXP_MAX)
    with pytest.raises(OverflowError):  # q^(EXP_MIN - 1), a borrow out of the q field
        MPoly.monomial(1, y=1, q=EXP_MIN).substitute("y", Q ** -1)
    with pytest.raises(OverflowError):  # q^(-EXP_MIN) = q^(EXP_MAX + 1)
        MPoly.monomial(1, y=EXP_MIN).substitute("y", Q ** -1)
    assert MPoly.monomial(1, y=EXP_MAX).substitute("y", Q ** -1) == MPoly.monomial(1, q=-EXP_MAX)


@pytest.mark.parametrize("e", [1, 2, 3, -1, -2, -3, EXP_MAX, EXP_MIN])
def test_unit_substitution_sign(e):
    sign = -1 if e % 2 else 1
    poly = MPoly.monomial(5, p=e, q=1)
    assert poly.substitute("p", -1) == MPoly.monomial(5 * sign, q=1)
    assert poly.substitute("p", MPoly.monomial(-1, t=1)) == MPoly.monomial(5 * sign, q=1, t=e)
    assert poly.substitute("p", 1) == MPoly.monomial(5, q=1)


def test_unit_substitution_merges_and_cancels():
    assert (Y - 1).substitute("y", 1) == MPoly.zero()
    assert (P + P ** 2).substitute("p", -1) == MPoly.zero()  # odd and even powers cancel
    assert (P + P ** 2).substitute("p", MPoly.monomial(-1, t=1)) == T ** 2 - T
    assert (P ** -1 + P * Q ** 2).substitute("p", Q ** -1) == 2 * Q
    with pytest.raises(ValueError, match="unknown variable"):
        P.substitute("x", 1)


def test_text_factors_accumulate_within_range():
    assert MPoly.from_text(f"p^{EXP_MAX - 1}*p") == MPoly.monomial(1, p=EXP_MAX)
    assert MPoly.from_text(f"p^{EXP_MIN}*p^{EXP_MAX}") == MPoly.monomial(1, p=-1)
    with pytest.raises(OverflowError):
        MPoly.from_text(f"p^{EXP_MAX}*p")
    with pytest.raises(OverflowError):
        MPoly.from_text("*".join([f"q^{EXP_MAX}"] * 4))


# -- property test against a plain {exponent tuple: coeff} reference --------------------

ZERO_EXP = (0,) * NVARS


def ref_clean(terms):
    return {e: c for e, c in terms.items() if c}


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return ref_clean(out)


def ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return ref_clean(out)


def ref_pow(a, n):
    if n < 0:
        (e, c), = a.items()
        return {tuple(x * n for x in e): c if n % 2 else 1}
    out = {ZERO_EXP: 1}
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_substitute(a, i, repl):
    out = {}
    for e, c in a.items():
        rest = e[:i] + (0,) + e[i + 1:]
        out = ref_add(out, ref_mul({rest: c}, ref_pow(repl, e[i])))
    return out


def ref_text(a):
    if not a:
        return "0"
    parts = []
    for e in sorted(a):
        c = a[e]
        body = "*".join(
            ([str(abs(c))] if abs(c) != 1 or not any(e) else [])
            + [v if k == 1 else f"{v}^{k}" for v, k in zip(VARS, e) if k]
        )
        sign = ("" if c > 0 else "-") if not parts else ("+ " if c > 0 else "- ")
        parts.append(sign + body)
    return " ".join(parts)


laurent_exps = st.tuples(*[st.integers(min_value=-6, max_value=6)] * NVARS)
ref_polys = st.dictionaries(laurent_exps, st.integers(min_value=-9, max_value=9),
                            max_size=4).map(ref_clean)
unit_monomials = st.tuples(laurent_exps, st.sampled_from([1, -1])).map(lambda ec: {ec[0]: ec[1]})


def as_ref(poly):
    return dict(poly.items())


@given(ref_polys, ref_polys)
def test_ring_ops_match_reference(a, b):
    pa, pb = MPoly(a), MPoly(b)
    assert as_ref(pa) == a
    assert as_ref(pa + pb) == ref_add(a, b)
    assert as_ref(pa - pb) == ref_add(a, {e: -c for e, c in b.items()})
    assert as_ref(pa * pb) == ref_mul(a, b)
    assert as_ref(-pa) == {e: -c for e, c in a.items()}
    assert as_ref(pa * 3) == {e: 3 * c for e, c in a.items()}


@given(ref_polys, st.integers(min_value=-3, max_value=3))
def test_pow_matches_reference(a, n):
    if len(a) == 1 and set(a.values()) <= {1, -1}:
        assert as_ref(MPoly(a) ** n) == ref_pow(a, n)
    else:
        with pytest.raises(ValueError, match="the base must be"):
            MPoly(a) ** n


@given(unit_monomials, st.integers(min_value=-4, max_value=4))
def test_unit_monomial_pow_matches_reference(a, n):
    assert as_ref(MPoly(a) ** n) == ref_pow(a, n)


unit_constants = st.sampled_from([{ZERO_EXP: 1}, {ZERO_EXP: -1}])


@given(ref_polys, st.sampled_from(range(NVARS)), st.one_of(unit_monomials, unit_constants))
def test_substitute_matches_reference(a, i, repl):
    assert as_ref(MPoly(a).substitute(VARS[i], MPoly(repl))) == ref_substitute(a, i, repl)


@given(ref_polys)
def test_text_and_json_match_reference(a):
    poly = MPoly(a)
    assert poly.to_text() == ref_text(a)
    assert MPoly.from_text(ref_text(a)) == poly
    assert poly.to_json() == ref_json(a)


def ref_json(a):
    return json.dumps([{"coeff": str(a[e]), "exp": list(e)} for e in sorted(a)])


# -- the text-form caches ----------------------------------------------------------

def fresh_caches():
    """Empty text-form caches for the duration of a `with` block."""
    return mock.patch.multiple(mpoly, _MONOMIAL_TEXT={}, _EXP_JSON={}, _MONOMIAL_KEYS={})


def test_caches_stop_at_their_bound(monkeypatch):
    monkeypatch.setattr(mpoly, "_MONOMIAL_CACHE_MAX", 2)
    cells = [as_ref(cell) for _, _, cell in a_table_lemma(4).cells()]
    assert len(set().union(*cells)) > 2
    with fresh_caches():
        for _ in "cold", "warm":
            for a in cells:
                poly = MPoly(a)
                assert poly.to_text() == ref_text(a)
                assert poly.to_json() == ref_json(a)
                assert MPoly.from_text(ref_text(a)) == poly
        assert [len(cache) for cache in (mpoly._MONOMIAL_TEXT, mpoly._EXP_JSON,
                                         mpoly._MONOMIAL_KEYS)] == [2, 2, 2]


# (text that caches a monomial, a spelling of the same monomial that must fail)
@pytest.mark.parametrize("cached,text", [
    ("2*p*q", "2*p*q*x"),  # bad factor
    ("2*p*q", "2*q*p*"),  # empty factor
    (f"p^{EXP_MAX}", f"p^{EXP_MAX + 1}*p^-1"),  # exponent out of range
    (f"p^{EXP_MAX}", f"p^{EXP_MAX}*p*p^-1"),  # running sum out of range
    (f"p^{EXP_MAX}", f"2*p^{EXP_MAX}*p*p^-1"),  # the same after a leading coefficient
])
def test_cached_monomial_keeps_every_parse_error(cached, text):
    with fresh_caches():
        with pytest.raises((ValueError, OverflowError)) as cold:
            MPoly.from_text(text)
        MPoly.from_text(cached)
        assert cached.removeprefix("2*") in mpoly._MONOMIAL_KEYS
        with pytest.raises(cold.type, match=f"^{re.escape(str(cold.value))}$"):
            MPoly.from_text(text)


@given(polys)
def test_text_forms_round_trip_with_cold_and_warm_caches(a):
    with fresh_caches():
        for _ in "cold", "warm":
            text, js = a.to_text(), a.to_json()
            assert (text, js) == (ref_text(as_ref(a)), ref_json(as_ref(a)))
            assert MPoly.from_text(text) == a
            assert MPoly.from_json_obj(json.loads(js)) == a


# -- the multiply-accumulate kernel ------------------------------------------------

multipliers = st.one_of(ref_polys, st.integers(min_value=-3, max_value=3))


def as_ref_any(x):
    return as_ref(MPoly(x)) if isinstance(x, dict) else ({ZERO_EXP: x} if x else {})


def as_mpoly(x):
    return MPoly(x) if isinstance(x, dict) else x


@given(st.lists(st.tuples(multipliers, ref_polys), max_size=4))
def test_lincomb_is_the_sum_of_products(pairs):
    want = reduce(ref_add, (ref_mul(as_ref_any(m), x) for m, x in pairs), {})
    mpairs = [(as_mpoly(m), MPoly(x)) for m, x in pairs]
    assert as_ref(lincomb(mpairs)) == want
    assert as_ref(lincomb((x, m) for m, x in mpairs)) == want
    # the same sum through the operators, which are calls of the kernel
    assert lincomb(mpairs) == reduce(operator.add, (m * x for m, x in mpairs), 0)
    # every product cancelled by its negative leaves the zero polynomial
    assert lincomb(mpairs + [(m, -x) for m, x in mpairs]) == MPoly.zero()


def test_lincomb_edge_cases():
    assert lincomb([]) == MPoly.zero()
    assert lincomb(iter(())) == 0
    # zero products are skipped, also when their other factor is the largest
    assert lincomb([(0, P), (Q, MPoly.zero()), (P, Q)]) == P * Q
    square = (P + Q + 1) * (P + Q + 1)
    assert lincomb([(P, Q), (0, square), (square, 0)]) == P * Q
    assert lincomb([(3, P), (P, 2)]) == MPoly.monomial(5, p=1)  # constant multipliers
    assert lincomb([(P ** -1, P), (-1, MPoly.one())]) == MPoly.zero()  # Laurent cancellation
    # the seed is the largest product, wherever it sits among the pairs
    big = (P + Q + Y + 1) * (P + Q + Y + 1) * (P + Q + Y + 1)
    assert lincomb([(Q, P), (Y, big), (-1, Y * big)]) == P * Q
    # unit rows whose keys are all new, then a row that cancels the first
    assert lincomb([(1, big), (1, Q ** 5), (1, R ** 4 - big)]) == Q ** 5 + R ** 4


def test_lincomb_minus_one_rows_subtract():
    big = 2 ** 70 + 3
    x = MPoly.monomial(big, p=2, q=1) + MPoly.monomial(-big * big, y=1)
    assert lincomb([(-1, x), (1, x)]) == MPoly.zero()
    assert lincomb([(1, x), (-1, x)]) == MPoly.zero()
    assert lincomb([(P - Q, x), (Q - P, x)]) == MPoly.zero()  # shifted rows with c = -1
    assert lincomb([(x, x), (-1, x)]) == x * x - x


@pytest.mark.parametrize("var", VARS)
def test_lincomb_overflow_in_any_pair(var):
    top = MPoly.monomial(1, **{var: EXP_MAX})
    x = MPoly.var(var)
    assert lincomb([(top, x ** -1), (x, 1)]).degree(var) == EXP_MAX - 1
    for pairs in ([(top, x)], [(P, Q), (top, x)], [(P, Q + R), (x, top + P)],
                  [(1, top), (x ** -1, MPoly.monomial(1, **{var: EXP_MIN}))]):
        with pytest.raises(OverflowError):
            lincomb(pairs)


point_values = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


@given(st.lists(st.tuples(ref_polys, ref_polys), max_size=4),
       st.tuples(*[point_values] * NVARS))
def test_point_ring_lin_agrees_with_lincomb_at_a_point(pairs, values):
    point = dict(zip(VARS, values))
    lin = _at_point(point)[1]
    mpairs = [(MPoly(m), MPoly(x)) for m, x in pairs]
    assert lin((m.eval_rational(point), x.eval_rational(point)) for m, x in mpairs) == \
        lincomb(mpairs).eval_rational(point)


def test_point_rows_agree_with_the_symbolic_rows():
    a_point = {"p": Fraction(-2, 3), "q": Fraction(5, 2)}
    b_point = {"p": Fraction(1, 3), "q": -2, "r": Fraction(3, 4)}
    for engine, symbolic, point in (("a_threeterm", a_table_lemma(7), a_point),
                                    ("b_threeterm", b_table_lemma(7), b_point)):
        table = point_table(engine, 7, **point)
        for n in range(1, 8):
            assert table.row_sum(n) == symbolic.row_sum(n).eval_rational(point)


def slot_coeffs(words):
    """Coefficients below 2^(64 words), each word drawn on its own, so any word may be set."""
    word = st.one_of(st.just(0), st.integers(1, 2 ** 64 - 1))
    return st.tuples(*[word] * words).map(
        lambda ws: sum(w << 64 * i for i, w in enumerate(ws))).filter(bool)


@given(st.integers(min_value=1, max_value=3), st.data())
def test_kronecker_unpacks_every_polynomial_in_its_box(unpack_scans, words, data):
    """Slots of one to three words, coefficients that fill only the low word or any word."""
    outer_max, slots = 4, 3
    packing = Kronecker("p", "q", outer_max, slots, words)
    coeffs = st.one_of(st.integers(1, 2 ** 64 - 1), slot_coeffs(words))
    terms = data.draw(st.dictionaries(
        st.tuples(st.integers(0, outer_max), st.integers(0, slots - 1)), coeffs, max_size=6))
    value = sum(c << packing.shift(p=a, q=b) for (a, b), c in terms.items())
    for scan in unpack_scans:
        with mock.patch.object(kernel, "unpack_slots", scan):
            assert packing.unpack(value, "v") == \
                MPoly({(0, a, b, 0, 0): c for (a, b), c in terms.items()})


def test_kronecker_shifts_only_nonnegative_powers_of_its_variables():
    packing = Kronecker("p", "q", 4, 3, 1)
    assert packing.shift() == 0 and packing.shift(p=2, q=1) == 64 * 7
    for exps in ({"q": -1}, {"p": -1}, {"r": 1}, {"p": 1, "y": 1}):
        with pytest.raises(ValueError, match="^cannot pack the monomial .*: only nonnegative "
                                             "powers of p and q$"):
            packing.shift(**exps)
    with pytest.raises(OverflowError):
        Kronecker("p", "q", EXP_MAX + 1, 3, 1)


@given(st.integers(min_value=1, max_value=3), st.integers(0, 5), st.integers(0, 3), st.data())
def test_kronecker_with_an_implied_variable_reads_back_homogeneous_polynomials(
        unpack_scans, words, degree, k, data):
    """r packed as 1: a polynomial homogeneous of degree d comes back with r = d in the base.

    y^k in the base is a key offset added to every term (none at k = 0).
    """
    packing = Kronecker("p", "q", 5, 6, words, implied="r")
    exps = st.tuples(st.integers(0, degree), st.integers(0, degree)).filter(
        lambda e: sum(e) <= degree)
    terms = data.draw(st.dictionaries(exps, slot_coeffs(words), max_size=6))
    value = sum(c << packing.shift(p=a, q=b, r=degree - a - b) for (a, b), c in terms.items())
    for scan in unpack_scans:
        with mock.patch.object(kernel, "unpack_slots", scan):
            assert packing.unpack(value, "v", r=degree, y=k) == \
                MPoly({(k, a, b, degree - a - b, 0): c for (a, b), c in terms.items()})


def test_kronecker_implied_variable_is_a_zero_shift():
    packing = Kronecker("p", "q", 4, 3, 1, implied="r")
    assert packing.shift(r=5) == 0 and packing.shift(p=1, q=2, r=1) == 64 * 5
    with pytest.raises(ValueError, match="^cannot pack the monomial .*: only nonnegative "
                                         "powers of p, q and r$"):
        packing.shift(r=-1)
    with pytest.raises(OverflowError):
        packing.unpack(1, "v", r=EXP_MAX + 1)
    for base in ({"p": 1}, {"q": 1, "r": 2}, {"r": -1}, {"y": -2}):
        with pytest.raises(ValueError, match="^bad base monomial .* for a packing in p and q$"):
            packing.unpack(1, "v", **base)
    # with r implied, r's field falls by up to outer_max + slots - 1 below the base's
    with pytest.raises(OverflowError):
        Kronecker("p", "q", 10_000, -EXP_MIN - 10_000 + 2, 1, implied="r")


@pytest.mark.parametrize("build", [
    lambda: P + Fraction(3, 2),
    lambda: Fraction(3, 2) + P,
    lambda: P - 0.5,
    lambda: 0.5 - P,
    lambda: P * Fraction(1, 2),
    lambda: P * 0.0,
    lambda: (P * Q + 1).substitute("p", Fraction(1, 2)),
    lambda: lincomb([(Fraction(1, 2), P)]),
    lambda: MPoly.const(2.5),
    lambda: MPoly.monomial(1, p=1.5),
    lambda: MPoly.monomial(1.5, p=1),
    lambda: MPoly({(0, 1, 0, 0, 0): 1.5}),
    lambda: MPoly({(0, 1.0, 0, 0, 0): 1}),
    lambda: MPoly.from_json_obj([{"coeff": "2", "exp": [0, 1.5, 0, 0, 0]}]),
    lambda: point_table("a_lemma", 3, p=0.5, q=1),
    lambda: point_table("b_lemma", 3, p=1, q=Fraction(1, 2), r="1"),
], ids=["add", "radd", "sub", "rsub", "mul", "mul-zero", "substitute", "lincomb", "const",
        "monomial-exp", "monomial-coeff", "init-coeff", "init-exp", "from-json-exp",
        "point-table-float", "point-table-str"])
def test_non_integer_scalars_raise(build):
    """Arithmetic stays exact: a non-integer scalar is refused, never truncated."""
    with pytest.raises(TypeError):
        build()
