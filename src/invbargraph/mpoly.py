"""Sparse multivariate Laurent polynomials over arbitrary-precision integers.

Every polynomial lives in the fixed variable set (y, p, q, r, t), in that
order, and is stored as a map from packed exponent keys to nonzero integer
coefficients (after Monagan & Pearce, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors", CASC 2007).

Key layout: one Python int with a field of W = 16 bits per variable, y in
the most significant field and t in the least.  Field i holds e_i + OFFSET
with OFFSET = 2^(W-2), so the exponent range is [EXP_MIN, EXP_MAX] =
[-16384, 16383] and the top bit of every field (the guard bit) is clear:

    p*q^2  ->  {key(0, 1, 2, 0, 0): 1}
    key(y, p, q, r, t) = sum_i (e_i + OFFSET) << (W * (4 - i))

Each field is nonnegative and below 2^W, so integer order on keys is the
lexicographic (y, p, q, r, t) order on exponent vectors: sorted(keys) lists
the terms in canonical order.  Multiplying monomials is one integer
addition, key_a + key_b - key(0, 0, 0, 0, 0); a sum outside the range sets
the guard bit of its field (directly, or through the borrow of a negative
field), so one mask check over the result keys detects every overflow.
Exponents outside the range raise OverflowError and never wrap.

Every sum of products is built by one multiply-accumulate kernel,
lincomb(pairs) = sum of m * x over (multiplier, polynomial) pairs.  It
seeds one output dict with the largest product (one shifted copy of a term
map) and merges every other product's terms into it in place by one loop,
so a chain such as a*x - b*y + c*z copies and hashes each term once instead
of once per intermediate result.  `+`, `-` and `*` are calls of it, and so
is each side of an identity the checks compare.  The tables are built on
packed ints (`Kronecker`, below), not on `MPoly`: only the tests' reference
ring (`recur._SYMBOLIC`) runs the table recurrences on it.  Substitution and
powers take only a unit monomial (+-1, or +-1 times a monomial, which is
every substitution and power the checks make), so each maps a term to one term:
`substitute` adds one key offset per term and `**` scales one key.

`Kronecker` packs a polynomial in two variables into one int and reads it
back (Kronecker substitution): the table recurrences run on such ints, where
a monomial multiple is one shift, and each finished cell is unpacked into a
term map whose keys come from one table per packing.  A packing may also
have one implied variable, packed as 1: on polynomials homogeneous of a
known degree, such as the lda cells of one row, that loses nothing, and
`unpack` restores it from a base monomial that multiplies every term.
After its checks, `unpack` hands the cell's little-endian slot bytes, the
key table and the key offset of the base's other variables to one call of
`kernel.unpack_slots`: a C pass over the slots that skips the zero ones
(about four in five of an area/sper cell's, two in three of an lda cell's)
and adds the terms to the term dict it is given, reading a coefficient of
two or three 64-bit words from one hex string, with the pure-Python scan of
`_kernel_py` where the library cannot be built.  Both scans refuse a key
already in the dict, so the cells of one B_n row (`recur.bn_poly_recurrence`)
go into one dict with no merge and no term overwritten.  In process (best
of 3 runs in each of 3 fresh processes) it unpacks the cells of
`a_table_threeterm(20)` in 0.085-0.099 s against 0.16-0.18 s for the pure
scan, and those of `b_table_threeterm(40)` in 0.07-0.09 s against
0.14-0.16 s; most of that is inserting the terms into the dicts.

The text forms are table-driven, because a monomial is one int: `to_text`
and `to_json` read each key's monomial text from a bounded cache and add
only the coefficient, and `from_text` splits a leading ASCII-digit
coefficient off each term and reads the rest of the term from a cache of
parsed bodies.  Only a body that parsed cleanly is cached, so a miss takes
every check of the factor parser.  The caches only ever gain entries that
are correct for their keys, so sharing them between threads is safe.
`from_text` is the package's one reader (through `DistTable.from_csv`);
nothing in the package reads JSON back.

Coefficients are Python ints and zero terms are never stored, so equality
is plain term-map equality.  Every coefficient, exponent and scalar operand
passes `operator.index`: a float or a Fraction raises TypeError instead of
being truncated.  Values are immutable after construction and
safe to share between threads.  items() yields (exponent tuple, coeff)
pairs; no code outside this module reads or builds packed keys.
"""

from __future__ import annotations

import json
import operator
import re
from fractions import Fraction
from functools import reduce
from typing import Iterable, Iterator, Mapping

from invbargraph import kernel

VARS = ("y", "p", "q", "r", "t")
NVARS = len(VARS)
_VAR_INDEX = {v: i for i, v in enumerate(VARS)}

ExpVec = tuple[int, int, int, int, int]

# Bits per exponent field.  Exponents span [-16384, 16383].  A full
# `verify --nmax 9 --order 12` stays within [-11, 80] and `dist` at the CLI's
# caps (area/sper n = 22, lda n = 50) within [0, 253], and an area/sper table
# at n = 24, which takes about 1.5 s in process, has area exponents up to
# n(n+1)/2 = 300: fifty times inside the range.
W = 16
_OFFSET = 1 << (W - 2)
_FIELD = (1 << W) - 1
EXP_MIN, EXP_MAX = -_OFFSET, _OFFSET - 1
_SHIFTS = tuple(W * (NVARS - 1 - i) for i in range(NVARS))  # y most significant
_ZERO_KEY = sum(_OFFSET << s for s in _SHIFTS)
_GUARD = sum(1 << (s + W - 1) for s in _SHIFTS)
_VAR_SHIFT = {v: s for v, s in zip(VARS, _SHIFTS)}

# Python's default limit on the digits of an int read or written as text.  A
# reader bounds every digit run by it before int(), so that a longer one is an
# error naming its term instead of the interpreter's own message.
DIGITS_MAX = 4300
_DIGITS = rf"[0-9]{{1,{DIGITS_MAX}}}"
_FACTOR_RE = re.compile(rf"([ypqrt])(?:\^(-?{_DIGITS}))?")
_DIGITS_RE = re.compile(_DIGITS)
_COEFF_RE = re.compile(rf"-?{_DIGITS}")  # a JSON coefficient, as to_json writes it
_TERM_SPLIT_RE = re.compile(r"\s+([+-])\s+")
# Per-monomial caches of the text forms, so that each term costs a lookup:
# `to_text` reads the coefficient-free text of a packed key ("p^3*q^2", ""
# for the constant), `to_json` the JSON that ends a term after its
# coefficient, and `from_text` the (coefficient factor, packed key) of a term
# body after its leading coefficient ("p^3*q^2", but also "q^2*p^3" or
# "p*2").  In process, the area/sper table at n = 16 (139,342 terms) went from
# 0.30-0.44 s to 0.08-0.12 s in `to_csv`, 0.38-0.46 s to 0.18-0.26 s in
# `from_csv` and 0.62-0.80 s to 0.10-0.13 s in `to_json` (3 runs each, C
# kernel, shared 2-core host; the first, cold run included).  Each cache holds
# at most this many entries: `dist` at the caps (area/sper n = 22, lda n = 50)
# has 14,453 and 19,929 distinct monomials, and 65,536 entries hold about
# 6.5 MB of text, 7.7 MB of JSON and 12 MB of parsed bodies (tracemalloc).
_MONOMIAL_CACHE_MAX = 1 << 15
_MONOMIAL_TEXT: dict[int, str] = {}
_EXP_JSON: dict[int, str] = {}
_MONOMIAL_KEYS: dict[str, tuple[int, int]] = {}
_CONSTANT = (1, _ZERO_KEY)


class MissingAssignmentError(KeyError):
    """A variable with nonzero exponent has no assigned value."""


def _as_expvec(exps: Mapping[str, int]) -> ExpVec:
    vec = [0] * NVARS
    for name, e in exps.items():
        vec[_VAR_INDEX[name]] = operator.index(e)
    return tuple(vec)


def _overflow(what: object) -> OverflowError:
    return OverflowError(f"exponent outside the packable range [{EXP_MIN}, {EXP_MAX}]: {what}")


def _pack(exp: Iterable[int]) -> int:
    """Packed key of an exponent vector; TypeError, ValueError or OverflowError if invalid."""
    exp = tuple(map(operator.index, exp))
    if len(exp) != NVARS:
        raise ValueError(f"exponent vector must have length {NVARS}: {exp!r}")
    if min(exp) < EXP_MIN or max(exp) > EXP_MAX:
        raise _overflow(exp)
    key = 0
    for e in exp:
        key = key << W | (e + _OFFSET)
    return key


def _unpack(key: int) -> ExpVec:
    return tuple(((key >> s) & _FIELD) - _OFFSET for s in _SHIFTS)


class MPoly:
    """An immutable sparse Laurent polynomial in (y, p, q, r, t)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[ExpVec, int] | None = None):
        clean: dict[int, int] = {}
        if terms:
            for exp, c in terms.items():
                c = operator.index(c)
                if c:
                    key = _pack(exp)
                    clean[key] = clean.get(key, 0) + c
                    if not clean[key]:
                        del clean[key]
        object.__setattr__(self, "_terms", clean)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "MPoly":
        return cls()

    @classmethod
    def one(cls) -> "MPoly":
        return _raw({_ZERO_KEY: 1})

    @classmethod
    def const(cls, c: int) -> "MPoly":
        return _raw(_terms_of(c))

    @classmethod
    def var(cls, name: str) -> "MPoly":
        return cls.monomial(1, **{name: 1})

    @classmethod
    def monomial(cls, coeff: int, **exps: int) -> "MPoly":
        """Build coeff * y^a p^b q^c r^d t^e from keyword exponents."""
        return cls({_as_expvec(exps): coeff})

    # -- basic protocol ----------------------------------------------------

    def items(self) -> Iterator[tuple[ExpVec, int]]:
        return ((_unpack(k), c) for k, c in self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MPoly):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == MPoly.const(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"MPoly({self.to_text()!r})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("MPoly is immutable")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "MPoly | int") -> "MPoly":
        return lincomb(((1, self), (1, other)))

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return _raw({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "MPoly | int") -> "MPoly":
        return lincomb(((1, self), (-1, other)))

    def __rsub__(self, other: int) -> "MPoly":
        return lincomb(((1, other), (-1, self)))

    def __mul__(self, other: "MPoly | int") -> "MPoly":
        return lincomb(((self, other),))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MPoly":
        """self^n for a unit monomial self (+-1 times a monomial) and any integer n.

        The key of the power is one `_pack` of the scaled exponents, so it
        is range-checked; any other base is a ValueError.
        """
        if len(self._terms) == 1:
            (k, c), = self._terms.items()
            if c == 1 or c == -1:
                return _raw({_pack([e * n for e in _unpack(k)]): c if n % 2 else 1})
        raise ValueError(f"power of {self.to_text()}: the base must be +-1 times a monomial")

    # -- queries -----------------------------------------------------------

    def coeff(self, exps: ExpVec | Mapping[str, int] | None = None, **kw: int) -> int:
        """Coefficient of the given monomial (0 when absent)."""
        if exps is None:
            exps = _as_expvec(kw)
        elif isinstance(exps, Mapping):
            exps = _as_expvec(exps)
        return self._terms.get(_pack(exps), 0)

    def degree(self, name: str) -> int:
        """Largest exponent of `name` appearing (0 for the zero polynomial)."""
        if not self._terms:
            return 0
        s = _VAR_SHIFT[name]
        return max((k >> s) & _FIELD for k in self._terms) - _OFFSET

    def coeff_sum(self) -> int:
        """Sum of the coefficients: the value with every variable set to 1."""
        return sum(self._terms.values())

    def weighted_exponent_sum(self, name: str) -> int:
        """Sum of coeff * exponent-of-`name` over all terms.

        Equals the derivative with respect to `name` evaluated at the
        all-ones point; used to extract statistic totals from distributions.
        """
        s = _VAR_SHIFT[name]
        return sum(c * (((k >> s) & _FIELD) - _OFFSET) for k, c in self._terms.items())

    # -- substitution and evaluation ----------------------------------------

    def substitute(self, name: str, repl: "MPoly | int") -> "MPoly":
        """Replace every occurrence of variable `name` by the unit monomial `repl`.

        `repl` is +-1 or +-1 times a monomial u (ValueError otherwise), and
        is substituted in one pass over the term map: for each distinct
        exponent e of `name`, the key offset that clears its field and
        multiplies by u^e is computed once (u^e range-checked through
        `_pack`); each term then takes one key addition and merges into the
        output.  For -u, the terms with odd e are negated first.  Only a
        non-constant u can push another field out of range, so only then is
        the guard-bit scan run.
        """
        if name not in _VAR_SHIFT:
            raise ValueError(f"unknown variable {name!r}")
        repl_terms = _terms_of(repl)
        unit, sign = next(iter(repl_terms.items())) if len(repl_terms) == 1 else (0, 0)
        if sign != 1 and sign != -1:
            raise ValueError(f"cannot substitute {_raw(repl_terms).to_text()} for {name}: "
                             "the replacement must be +-1 times a monomial")
        s = _VAR_SHIFT[name]
        terms = self._terms
        if sign == -1:  # (-u)^e = (-1)^e u^e, and e is odd where the field is (OFFSET is even)
            terms = {k: -c if k >> s & 1 else c for k, c in terms.items()}
        mask = _FIELD << s
        zero_field = _OFFSET << s
        unit_exp = _unpack(unit)
        shifts: dict[int, int] = {}  # field of the variable -> key offset
        out: dict[int, int] = {}
        get = out.get
        for k, c in terms.items():
            field = k & mask
            shift = shifts.get(field)
            if shift is None:
                e = (field >> s) - _OFFSET
                power = _pack([x * e for x in unit_exp])  # u^e, range-checked
                shift = shifts[field] = power - _ZERO_KEY + zero_field - field
            k += shift
            total = get(k, 0) + c
            if total:
                out[k] = total
            else:
                del out[k]
        if unit != _ZERO_KEY and reduce(operator.or_, out, 0) & _GUARD:
            raise _overflow("in a substitution")
        return _raw(out)

    def eval_rational(self, assignment: Mapping[str, Fraction | int]) -> Fraction:
        """Exact value at a rational point, summed over a common denominator.

        Each occurring variable's value is written a/b and its exponents
        over the terms span [lo, hi].  Then v^e = N[e] * a^lo / b^hi with
        the integer N[e] = a^(e-lo) * b^(hi-e), so every term adds the
        integer c * prod N[e_i] to one integer sum, and a single Fraction
        is built at the end.

        Every variable occurring with nonzero exponent must be assigned
        (MissingAssignmentError otherwise); zero assigned to a
        negatively-powered variable raises ZeroDivisionError.  Variables
        are checked in (y, p, q, r, t) order.
        """
        values: list[Fraction | None] = [None] * NVARS
        for name, v in assignment.items():
            values[_VAR_INDEX[name]] = Fraction(v)
        terms = self._terms
        scale = Fraction(1)
        # (field mask, N keyed by the masked field) per occurring variable
        factors: list[tuple[int, dict[int, int]]] = []
        for i, s in enumerate(_SHIFTS):
            mask = _FIELD << s
            fields = {k & mask for k in terms}
            if fields <= {_OFFSET << s}:
                continue
            v = values[i]
            if v is None:
                raise MissingAssignmentError(VARS[i])
            lo, hi = (min(fields) >> s) - _OFFSET, (max(fields) >> s) - _OFFSET
            if not v and lo < 0:
                raise ZeroDivisionError(
                    f"zero assigned to negatively-powered variable {VARS[i]}"
                )
            a, b = v.numerator, v.denominator
            table = {(e + _OFFSET) << s: a ** (e - lo) * b ** (hi - e)
                     for e in range(lo, hi + 1)}
            factors.append((mask, table))
            scale *= v ** lo / b ** (hi - lo)  # a^lo / b^hi
        total = 0
        for k, c in terms.items():
            for mask, table in factors:
                c *= table[k & mask]
            total += c
        return total * scale

    # -- canonical text and JSON forms ---------------------------------------

    def to_text(self) -> str:
        """Canonical text form, terms in ascending (y,p,q,r,t) exponent order."""
        terms = self._terms
        if not terms:
            return "0"
        cached = _MONOMIAL_TEXT.get
        parts: list[str] = []
        for k in sorted(terms):
            c = terms[k]
            monomial = cached(k)
            if monomial is None:
                monomial = _monomial_text(k)
            a = c if c > 0 else -c
            if not monomial:
                body = str(a)
            elif a == 1:
                body = monomial
            else:
                body = f"{a}*{monomial}"
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
        text = " ".join(parts)  # "+ a - b": the first term keeps only a minus sign
        return text[2:] if text[0] == "+" else "-" + text[2:]

    @classmethod
    def from_text(cls, text: str) -> "MPoly":
        """Parse the canonical text form (inverse of to_text)."""
        s = text.strip()
        if s == "0":
            return cls.zero()
        terms: dict[int, int] = {}
        cached = _MONOMIAL_KEYS.get
        for sign, body in _iter_signed_terms(s):
            head, star, rest = body.partition("*")
            if head.isdigit() and head.isascii():  # a leading coefficient
                if len(head) > DIGITS_MAX:
                    raise ValueError(f"coefficient of more than {DIGITS_MAX} digits "
                                     f"in the term {body!r} of polynomial text")
                coeff = sign * int(head)
                parsed = cached(rest) if star else _CONSTANT
            else:
                coeff, rest = sign, body
                parsed = cached(rest)
            if parsed is None:
                parsed = _parse_monomial(rest, body, text)
            factor, key = parsed
            total = terms.get(key, 0) + coeff * factor
            if total:
                terms[key] = total
            else:
                terms.pop(key, None)
        return _raw(terms)

    def to_json(self) -> str:
        """JSON text of the term list, `[{"coeff": "c", "exp": [y, p, q, r, t]}, ...]`.

        Terms are in to_text order, and the bytes are those of json.dumps.
        """
        terms = self._terms
        cached = _EXP_JSON.get
        parts: list[str] = []
        for k in sorted(terms):
            exp = cached(k)
            if exp is None:
                exp = _exp_json(k)
            parts.append(f'{{"coeff": "{terms[k]}{exp}')
        return "[" + ", ".join(parts) + "]"

    def to_json_obj(self) -> list[dict[str, object]]:
        """The JSON term list as Python objects: json.loads of to_json.

        Nothing in the package reads it; perfbench/tracing.py wraps it by name.
        """
        return json.loads(self.to_json())

    @classmethod
    def from_json_obj(cls, obj: Iterable[Mapping[str, object]]) -> "MPoly":
        """Parse the JSON term list (inverse of json.loads of to_json).

        Nothing in the package reads it; perfbench/tracing.py wraps it by name.
        A term is an object with "coeff" and "exp"; a coefficient is a string
        of at most `DIGITS_MAX` ASCII digits with an optional leading minus,
        as to_json writes it; "exp" is a list of integers.  A term without
        both keys, a bad coefficient, and "exp" that is not a list or holds
        text or a boolean are ValueErrors that name the term or its part; a
        non-integer number in "exp" is a TypeError, as everywhere in this
        module.
        """
        terms: dict[int, int] = {}
        for entry in obj:
            try:
                coeff, exp = entry["coeff"], entry["exp"]
            except (KeyError, TypeError):
                raise ValueError(f"bad JSON term {entry!r}") from None
            if not (isinstance(coeff, str) and _COEFF_RE.fullmatch(coeff)):
                raise ValueError(f"bad coefficient {coeff!r} in a JSON term")
            if not isinstance(exp, list) or any(isinstance(e, (str, bool)) for e in exp):
                raise ValueError(f"bad exponents {exp!r} in a JSON term")
            key = _pack(exp)
            total = terms.get(key, 0) + int(coeff)
            if total:
                terms[key] = total
            else:
                terms.pop(key, None)
        return _raw(terms)


def _monomial_text(key: int) -> str:
    """Coefficient-free text of a packed key ("" for the constant), cached."""
    text = "*".join(
        v if e == 1 else f"{v}^{e}"
        for v, s in _VAR_SHIFT.items()
        if (e := ((key >> s) & _FIELD) - _OFFSET)
    )
    if len(_MONOMIAL_TEXT) < _MONOMIAL_CACHE_MAX:
        _MONOMIAL_TEXT[key] = text
    return text


def _exp_json(key: int) -> str:
    """The JSON text that ends a term after its coefficient, cached."""
    text = '", "exp": [' + ", ".join(map(str, _unpack(key))) + "]}"
    if len(_EXP_JSON) < _MONOMIAL_CACHE_MAX:
        _EXP_JSON[key] = text
    return text


def _parse_monomial(rest: str, body: str, text: str) -> tuple[int, int]:
    """(coefficient factor, packed key) of the '*'-separated factors in `rest`.

    `rest` is the term `body` of `text` without its leading coefficient;
    both appear in the error messages.  A cleanly parsed `rest` is cached.
    """
    factor = 1
    key = _ZERO_KEY
    for part in rest.split("*"):
        part = part.strip()
        m = _FACTOR_RE.fullmatch(part)
        if m is None:
            if not _DIGITS_RE.fullmatch(part):
                raise ValueError(f"bad factor {part!r} in polynomial text {text!r}")
            factor *= int(part)
            continue
        e = int(m.group(2) or 1)
        if not EXP_MIN <= e <= EXP_MAX:
            raise _overflow(part)
        # A field kept in range by every step stays detectable:
        # one in-range exponent cannot carry past the guard bit.
        key += e << _VAR_SHIFT[m.group(1)]
        if key & _GUARD:
            raise _overflow(body)
    if len(_MONOMIAL_KEYS) < _MONOMIAL_CACHE_MAX:
        _MONOMIAL_KEYS[rest] = (factor, key)
    return factor, key


def _iter_signed_terms(s: str) -> Iterator[tuple[int, str]]:
    pieces = _TERM_SPLIT_RE.split(s)
    first = pieces[0].strip()
    sign = 1
    if first.startswith("-"):
        sign, first = -1, first[1:].strip()
    yield sign, first
    for op, body in zip(pieces[1::2], pieces[2::2]):
        yield (1 if op == "+" else -1), body.strip()


def _terms_of(x: "MPoly | int") -> dict[int, int]:
    if isinstance(x, MPoly):
        return x._terms
    x = operator.index(x)  # a float or Fraction raises TypeError, never truncates
    return {_ZERO_KEY: x} if x else {}


def lincomb(pairs: Iterable[tuple["MPoly | int", "MPoly | int"]]) -> MPoly:
    """The sum of m * x over the (m, x) pairs, built in one term map.

    Each pair is split into rows, one per term of its smaller factor: that
    term's coefficient c and key shift applied to every term of the larger
    factor.  The row over the most terms seeds the output with one
    comprehension (its keys are one shift of a term map's, so they cannot
    collide), and every other row merges into that dict in place by one
    loop, tuned for no engine: the tables are built on packed ints, and only
    the tests' reference ring (`recur._SYMBOLIC`) runs the table recurrences
    here.  Zero sums are deleted as they appear, and one guard-bit scan at
    the end catches any exponent that left the range (none can when no row
    shifts).  No pairs, or only zero products, give zero.
    """
    rows: list[tuple[int, int, dict[int, int]]] = []
    most = seed = shifted = 0
    for m, x in pairs:
        a, b = _terms_of(m), _terms_of(x)
        if len(a) > len(b):
            a, b = b, a
        if a and len(b) > most:
            most, seed = len(b), len(rows)
        for ka, ca in a.items():
            shift = ka - _ZERO_KEY
            shifted |= shift
            rows.append((shift, ca, b))
    if not rows:
        return MPoly.zero()
    rows[0], rows[seed] = rows[seed], rows[0]
    shift, c, b = rows[0]
    out = {kb + shift: c * cb for kb, cb in b.items()}
    get = out.get
    for shift, c, b in rows[1:]:
        for kb, cb in b.items():
            k = kb + shift
            s = get(k, 0) + c * cb
            if s:
                out[k] = s
            else:
                del out[k]
    if shifted and reduce(operator.or_, out, 0) & _GUARD:
        raise _overflow("in a product")
    return _raw(out)


def _raw(terms: dict[int, int]) -> MPoly:
    """Internal constructor for key maps already in canonical form."""
    poly = MPoly.__new__(MPoly)
    object.__setattr__(poly, "_terms", terms)
    return poly


class Kronecker:
    """One int per polynomial in two variables, or three with one implied (Kronecker substitution).

    With u = `outer`, v = `inner` and slots of bits = 64 * words bits, the
    polynomial f = sum c[a, b] u^a v^b is packed as its value at v = 2^bits,
    u = 2^(bits * slots): the int sum c[a, b] 2^(bits * (slots * a + b)).
    Evaluation at a point is a ring map, so a sum of monomial multiples of
    packed values is computed on the ints themselves, one shift by
    `shift(**exps)` bits per monomial, whatever the signs along the way.

    The map is one to one on the box of polynomials whose coefficients lie in
    [0, 2^bits) and whose exponents lie in 0 <= a <= outer_max, 0 <= b < slots:
    the term (a, b) fills slot slots * a + b alone, and no slot carries into
    the next.  The caller proves that the values it unpacks lie in the box;
    `unpack` refuses a negative int and one with a bit above the box, the two
    faults it can see.  Unpacked polynomials share their key objects, one per
    slot of the box.

    An `implied` variable w is packed as w = 1, so multiplying by w is a
    shift of 0 bits.  On the polynomials homogeneous of one degree d in u, v
    and w that map is one to one, since w's exponent is d - a - b: `unpack`
    reads the term (a, b) as u^a v^b w^(d - a - b) when it is given w = d in
    its base monomial.  The base monomial multiplies every term read, so it
    can carry other variables too (y^k, say).  The key table of each degree
    of w is made on its first use and kept, so the cells of one table row
    share their key objects too; other base variables cost one key
    addition per term.
    """

    __slots__ = ("_vars", "_bits", "_slots", "_words", "_keys", "_keys_of_degree")

    def __init__(self, outer: str, inner: str, outer_max: int, slots: int, words: int,
                 implied: str | None = None):
        # with w implied, w's field falls by a + b <= outer_max + slots - 1 below the base's
        if outer_max > EXP_MAX or slots > EXP_MAX + 1 or (
                implied and outer_max + slots - 1 > -EXP_MIN):
            raise _overflow(f"{outer}^{outer_max} or {inner}^{slots - 1}")
        self._vars = (outer, inner, implied)
        self._bits, self._slots, self._words = 64 * words, slots, words
        sw = (1 << _VAR_SHIFT[implied]) if implied else 0
        du, dv = (1 << _VAR_SHIFT[outer]) - sw, (1 << _VAR_SHIFT[inner]) - sw
        self._keys = [_ZERO_KEY + a * du + b * dv
                      for a in range(outer_max + 1) for b in range(slots)]
        self._keys_of_degree: dict[int, list[int]] = {}  # w's degree d -> keys times w^d

    def shift(self, **exps: int) -> int:
        """Bits that multiply a packed value by the monomial with these exponents."""
        outer, inner, implied = self._vars
        a, b = exps.get(outer, 0), exps.get(inner, 0)
        if exps.keys() - set(self._vars) or min(exps.values(), default=0) < 0:
            names = f"{outer}, {inner} and {implied}" if implied else f"{outer} and {inner}"
            raise ValueError(f"cannot pack the monomial {exps}: only nonnegative powers of {names}")
        return self._bits * (self._slots * a + b)

    def unpack(self, value: int, what: str, **base: int) -> MPoly:
        """The polynomial packed in `value` times the monomial `base`.

        A value outside the box is a ValueError naming `what`.  `base` has
        nonnegative exponents and, of the packed variables, only the implied
        one (ValueError otherwise).  The slots are read by one call of
        `kernel.unpack_slots`, with the base's other variables as a key offset.
        """
        return self._unpack_all(((value, what, base),))

    def _unpack_all(self, cells: Iterable[tuple[int, str, dict[str, int]]]) -> MPoly:
        """The sum of `unpack(value, what, **base)` over the cells, filled into one term map.

        No two cells may share a monomial: `kernel.unpack_slots` refuses a key
        already in the map (ValueError), so none is overwritten.
        """
        terms: dict[int, int] = {}
        for value, what, base in cells:
            size = value.bit_length()
            if value < 0 or size > self._bits * len(self._keys):
                raise ValueError(f"{what} is outside the packing's box: "
                                 f"{'a negative int' if value < 0 else f'bit {size - 1} is set'}")
            keys, offset = self._keys, 0
            if base:
                outer, inner, implied = self._vars
                if base.keys() & {outer, inner} or min(base.values()) < 0:
                    raise ValueError(f"bad base monomial {base} for a packing in {outer} "
                                     f"and {inner}")
                base = dict(base)
                degree = base.pop(implied, 0) if implied else 0
                if degree:
                    keys = self._keys_of_degree.get(degree)
                    if keys is None:
                        if degree > EXP_MAX:
                            raise _overflow(f"{implied}^{degree}")
                        shift = degree << _VAR_SHIFT[implied]
                        keys = self._keys_of_degree[degree] = [k + shift for k in self._keys]
                if base:
                    offset = _pack(_as_expvec(base)) - _ZERO_KEY
            data = value.to_bytes(-(-size // self._bits) * 8 * self._words, "little")
            kernel.unpack_slots(data, keys, self._words, offset, terms)
        return _raw(terms)


Y = MPoly.var("y")
P = MPoly.var("p")
Q = MPoly.var("q")
R = MPoly.var("r")
T = MPoly.var("t")
