"""Sparse multivariate Laurent polynomials over arbitrary-precision integers.

Every polynomial lives in the fixed variable set (y, p, q, r, t), in that
order.  A polynomial is stored as a map from exponent vectors (one signed
integer per variable) to nonzero integer coefficients:

    p*q^2        ->  {(0, 1, 2, 0, 0): 1}
    y*p + y^2*r  ->  {(1, 1, 0, 0, 0): 1, (2, 0, 0, 1, 0): 1}

Exponents may be negative (Laurent support), coefficients are Python ints,
and zero terms are never stored, so equality is plain term-map equality.
Values are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

VARS = ("y", "p", "q", "r", "t")
NVARS = len(VARS)
_VAR_INDEX = {v: i for i, v in enumerate(VARS)}

ExpVec = tuple[int, int, int, int, int]

_ZERO_EXP: ExpVec = (0,) * NVARS


class NegativePowerSubstitutionError(ValueError):
    """Substituting a non-monomial into a negative power of a variable."""


class MissingAssignmentError(KeyError):
    """A variable with nonzero exponent has no assigned value."""


def _as_expvec(exps: Mapping[str, int]) -> ExpVec:
    vec = [0] * NVARS
    for name, e in exps.items():
        vec[_VAR_INDEX[name]] = int(e)
    return tuple(vec)


class MPoly:
    """An immutable sparse Laurent polynomial in (y, p, q, r, t)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[ExpVec, int] | None = None):
        clean: dict[ExpVec, int] = {}
        if terms:
            for exp, c in terms.items():
                if c:
                    exp = tuple(exp)
                    if len(exp) != NVARS:
                        raise ValueError(f"exponent vector must have length {NVARS}: {exp!r}")
                    clean[exp] = clean.get(exp, 0) + c
                    if not clean[exp]:
                        del clean[exp]
        object.__setattr__(self, "_terms", clean)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "MPoly":
        return cls()

    @classmethod
    def one(cls) -> "MPoly":
        return cls({_ZERO_EXP: 1})

    @classmethod
    def const(cls, c: int) -> "MPoly":
        return cls({_ZERO_EXP: int(c)})

    @classmethod
    def var(cls, name: str) -> "MPoly":
        return cls.monomial(1, **{name: 1})

    @classmethod
    def monomial(cls, coeff: int, **exps: int) -> "MPoly":
        """Build coeff * y^a p^b q^c r^d t^e from keyword exponents."""
        return cls({_as_expvec(exps): int(coeff)})

    # -- basic protocol ----------------------------------------------------

    def items(self) -> Iterator[tuple[ExpVec, int]]:
        return iter(self._terms.items())

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
        other = _coerce(other)
        out = dict(self._terms)
        for exp, c in other._terms.items():
            s = out.get(exp, 0) + c
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return _raw(out)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return _raw({exp: -c for exp, c in self._terms.items()})

    def __sub__(self, other: "MPoly | int") -> "MPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other: int) -> "MPoly":
        return _coerce(other) + (-self)

    def __mul__(self, other: "MPoly | int") -> "MPoly":
        if isinstance(other, int):
            if not other:
                return MPoly.zero()
            return _raw({exp: c * other for exp, c in self._terms.items()})
        out: dict[ExpVec, int] = {}
        for ea, ca in self._terms.items():
            for eb, cb in other._terms.items():
                exp = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2],
                       ea[3] + eb[3], ea[4] + eb[4])
                s = out.get(exp, 0) + ca * cb
                if s:
                    out[exp] = s
                else:
                    del out[exp]
        return _raw(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            if self.as_unit_monomial() is None:
                raise ValueError("negative power of a non-monomial polynomial")
            return self._unit_monomial_pow(n)
        result = MPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- queries -----------------------------------------------------------

    def coeff(self, exps: ExpVec | Mapping[str, int] | None = None, **kw: int) -> int:
        """Coefficient of the given monomial (0 when absent)."""
        if exps is None:
            exps = _as_expvec(kw)
        elif isinstance(exps, Mapping):
            exps = _as_expvec(exps)
        else:
            exps = tuple(exps)
        return self._terms.get(exps, 0)

    def degree(self, name: str) -> int:
        """Largest exponent of `name` appearing (0 for the zero polynomial)."""
        i = _VAR_INDEX[name]
        return max((exp[i] for exp in self._terms), default=0)

    def min_degree(self, name: str) -> int:
        i = _VAR_INDEX[name]
        return min((exp[i] for exp in self._terms), default=0)

    def as_unit_monomial(self) -> ExpVec | None:
        """Exponent vector if this is a single term with coefficient +-1."""
        if len(self._terms) != 1:
            return None
        (exp, c), = self._terms.items()
        return exp if c in (1, -1) else None

    def _unit_monomial_pow(self, n: int) -> "MPoly":
        (exp, c), = self._terms.items()
        return _raw({tuple(e * n for e in exp): c if n % 2 else 1})

    def weighted_exponent_sum(self, name: str) -> int:
        """Sum of coeff * exponent-of-`name` over all terms.

        Equals the derivative with respect to `name` evaluated at the
        all-ones point; used to extract statistic totals from distributions.
        """
        i = _VAR_INDEX[name]
        return sum(c * exp[i] for exp, c in self._terms.items())

    # -- substitution and evaluation ----------------------------------------

    def substitute(self, name: str, repl: "MPoly | int") -> "MPoly":
        """Replace every occurrence of variable `name` by `repl`.

        A replacement that is a single monomial with coefficient +-1 may be
        substituted into negative powers; any other replacement requires the
        exponents of `name` to be nonnegative.
        """
        if name not in _VAR_INDEX:
            raise ValueError(f"unknown variable {name!r}")
        vi = _VAR_INDEX[name]
        repl = _coerce(repl)
        invertible = repl.as_unit_monomial() is not None
        if not invertible and any(exp[vi] < 0 for exp in self._terms):
            raise NegativePowerSubstitutionError(
                f"cannot substitute a non-monomial into a negative power of {name}"
            )
        # Group terms by the exponent of `name`, then multiply by repl^e.
        groups: dict[int, dict[ExpVec, int]] = {}
        for exp, c in self._terms.items():
            e = exp[vi]
            rest = exp[:vi] + (0,) + exp[vi + 1:]
            group = groups.setdefault(e, {})
            group[rest] = group.get(rest, 0) + c
        powers: dict[int, MPoly] = {}
        total = MPoly.zero()
        for e, sub in groups.items():
            if e not in powers:
                powers[e] = repl ** e
            total = total + _raw(sub) * powers[e]
        return total

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
        factors: list[tuple[int, dict[int, int]]] = []
        for i in range(NVARS):
            exps = {exp[i] for exp in terms}
            if exps <= {0}:
                continue
            v = values[i]
            if v is None:
                raise MissingAssignmentError(VARS[i])
            lo, hi = min(exps), max(exps)
            if not v and lo < 0:
                raise ZeroDivisionError(
                    f"zero assigned to negatively-powered variable {VARS[i]}"
                )
            a, b = v.numerator, v.denominator
            table = {e: a ** (e - lo) * b ** (hi - e) for e in range(lo, hi + 1)}
            factors.append((i, table))
            scale *= v ** lo / b ** (hi - lo)  # a^lo / b^hi
        total = 0
        for exp, c in terms.items():
            for i, table in factors:
                c *= table[exp[i]]
            total += c
        return total * scale

    # -- canonical text and JSON forms ---------------------------------------

    def to_text(self) -> str:
        """Canonical text form, terms in ascending (y,p,q,r,t) exponent order."""
        if not self._terms:
            return "0"
        parts: list[str] = []
        for exp in sorted(self._terms):
            c = self._terms[exp]
            factors = [
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(VARS, exp)
                if e
            ]
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(c))] + factors)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    @classmethod
    def from_text(cls, text: str) -> "MPoly":
        """Parse the canonical text form (inverse of to_text)."""
        s = text.strip()
        if s == "0":
            return cls.zero()
        terms: dict[ExpVec, int] = {}
        for sign, body in _iter_signed_terms(s):
            coeff = sign
            vec = [0] * NVARS
            for factor in body.split("*"):
                factor = factor.strip()
                m = re.fullmatch(r"([ypqrt])(?:\^(-?\d+))?", factor)
                if m:
                    vec[_VAR_INDEX[m.group(1)]] += int(m.group(2) or 1)
                elif re.fullmatch(r"\d+", factor):
                    coeff *= int(factor)
                else:
                    raise ValueError(f"bad factor {factor!r} in polynomial text {text!r}")
            exp = tuple(vec)
            terms[exp] = terms.get(exp, 0) + coeff
        return cls(terms)

    def to_json_obj(self) -> list[dict[str, object]]:
        return [
            {"coeff": str(self._terms[exp]), "exp": list(exp)}
            for exp in sorted(self._terms)
        ]

    @classmethod
    def from_json_obj(cls, obj: Iterable[Mapping[str, object]]) -> "MPoly":
        terms: dict[ExpVec, int] = {}
        for entry in obj:
            exp = tuple(int(e) for e in entry["exp"])  # type: ignore[union-attr]
            terms[exp] = terms.get(exp, 0) + int(str(entry["coeff"]))
        return cls(terms)


def _iter_signed_terms(s: str) -> Iterator[tuple[int, str]]:
    pieces = re.split(r"\s+([+-])\s+", s)
    first = pieces[0].strip()
    sign = 1
    if first.startswith("-"):
        sign, first = -1, first[1:].strip()
    yield sign, first
    for op, body in zip(pieces[1::2], pieces[2::2]):
        yield (1 if op == "+" else -1), body.strip()


def _coerce(x: "MPoly | int") -> MPoly:
    return x if isinstance(x, MPoly) else MPoly.const(x)


def _raw(terms: dict[ExpVec, int]) -> MPoly:
    """Internal constructor for dicts already in canonical form."""
    poly = MPoly.__new__(MPoly)
    object.__setattr__(poly, "_terms", terms)
    return poly


Y = MPoly.var("y")
P = MPoly.var("p")
Q = MPoly.var("q")
R = MPoly.var("r")
T = MPoly.var("t")
ONE = MPoly.one()
