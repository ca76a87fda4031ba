"""Pure-Python enumeration kernels, the pure scan of a packed cell, and the text codec.

These walk all n! inversion sequences of length n and accumulate joint
statistic counts.  They are the reference implementation of the compiled
walkers in ``_kernel.c``, and ``kernel`` returns the same dicts from both.
``unpack_slots`` is likewise the reference of the compiled function of the
same name, which ``mpoly.Kronecker.unpack`` calls through ``kernel``, and
``format_terms`` and ``parse_terms`` those of the compiled text codec behind
``mpoly.MPoly.to_text`` and ``from_text``.  ``parse_terms`` defines the one
text form ``from_text`` reads, the writer's, and names the fault of any
other text; the compiled reader gives None exactly there.

Conventions (shared with the compiled kernel):

* ``area_sper_counts(n)`` -> {(last, area, sper): multiplicity}
* ``lda_counts(n)``       -> {(last, levels, descents, ascents): multiplicity}

where area = sum of entries, sper = n + (rho_1 + sum |steps| + rho_n)/2,
and levels/descents/ascents count adjacent equal/falling/rising pairs.
``area_sper_box(n)`` bounds area and sper; the compiled walker writes only
inside that box, and ``recur`` packs area/sper cells into it.  This module
imports only the standard library.
"""

from __future__ import annotations

import re
import sys
from array import array
from collections.abc import Callable
from itertools import compress

# The one limit on n for both backends.  Both walks together take about
# 2.3 s at n = 12 on the compiled kernel, and each step up multiplies the
# cost by n; the pure kernel takes 3.6 s at n = 10 and 42 s at n = 11, so
# several minutes at 12.
MAX_N = 12


def _guard(n: int) -> None:
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must be in 1..{MAX_N}, got {n}")


def area_sper_box(n: int) -> tuple[int, int]:
    """(area_max, sper_slots): a sequence of length m <= n has area <= area_max, sper < sper_slots.

    Its area rho_1 + ... + rho_m is at most n(n+1)/2, since rho_k <= k.  A
    bargraph of heights rho_1..rho_m has half-perimeter
    sper = m + (rho_1 + sum_k |rho_(k+1) - rho_k| + rho_m) / 2.  Here rho_1 = 1,
    rho_m <= m, and |rho_(k+1) - rho_k| <= k since both letters lie in
    [1, k+1], so sper <= m + (1 + m(m-1)/2 + m) / 2, a bound that grows with m
    by at least one per step.
    """
    return n * (n + 1) // 2, n + (1 + n * (n - 1) // 2 + n) // 2 + 1


def area_sper_counts(n: int) -> dict[tuple[int, int, int], int]:
    _guard(n)
    if n == 1:
        return {(1, 1, 2): 1}
    counts: dict[tuple[int, int, int], int] = {}

    def walk(i: int, prev: int, area: int, boundary: int) -> None:
        # boundary = rho_1 + sum_{2<=j<=i} |rho_j - rho_{j-1}|
        nxt = i + 1
        if nxt == n:
            for v in range(1, n + 1):
                key = (v, area + v, n + (boundary + abs(v - prev) + v) // 2)
                counts[key] = counts.get(key, 0) + 1
        else:
            for v in range(1, nxt + 1):
                walk(nxt, v, area + v, boundary + abs(v - prev))

    walk(1, 1, 1, 1)
    return counts


def lda_counts(n: int) -> dict[tuple[int, int, int, int], int]:
    _guard(n)
    if n == 1:
        return {(1, 0, 0, 0): 1}
    counts: dict[tuple[int, int, int, int], int] = {}

    def walk(i: int, prev: int, lev: int, des: int, asc: int) -> None:
        nxt = i + 1
        if nxt == n:
            for v in range(1, n + 1):
                if v == prev:
                    key = (v, lev + 1, des, asc)
                elif v < prev:
                    key = (v, lev, des + 1, asc)
                else:
                    key = (v, lev, des, asc + 1)
                counts[key] = counts.get(key, 0) + 1
        else:
            for v in range(1, nxt + 1):
                if v == prev:
                    walk(nxt, v, lev + 1, des, asc)
                elif v < prev:
                    walk(nxt, v, lev, des + 1, asc)
                else:
                    walk(nxt, v, lev, des, asc + 1)

    walk(1, 1, 0, 0, 0)
    return counts


def unpack_slots(data: bytes, keys: list[int], words: int, offset: int,
                 terms: dict[int, int]) -> dict[int, int]:
    """Add {keys[i] + offset: c_i} to `terms` over the slots i whose value c_i is nonzero.

    `data` holds whole slots, each of `words` little-endian 64-bit words,
    and `keys` has at least one key per slot (ValueError otherwise).  With
    offset 0 the dict shares the list's key objects.  Every key must be new
    to `terms`: they all are exactly when its size grows by one per set
    slot, and otherwise (values are overwritten then) a ValueError counts
    those that were not.  Returns `terms`.
    """
    slot_count, rest = divmod(len(data), 8 * words)
    if rest:
        raise ValueError(f"{len(data)} bytes are not whole slots of {words} words")
    if slot_count > len(keys):
        raise ValueError(f"{slot_count} slots but only {len(keys)} keys")
    slots = array("Q", data)
    if sys.byteorder == "big":
        slots.byteswap()
    coeffs = slots[::words] if words > 1 else slots  # the low word of each slot
    for j in range(1, words):
        high = slots[j::words]
        if any(high):  # word j is set in some slots: add it to theirs
            coeffs = list(coeffs)
            s = 64 * j
            for i in compress(range(len(high)), high):
                coeffs[i] |= high[i] << s
    set_keys = compress(keys, coeffs)
    if offset:
        set_keys = map(offset.__add__, set_keys)
    before = len(terms)
    added = len(coeffs) - coeffs.count(0)
    terms.update(zip(set_keys, filter(None, coeffs)))
    if len(terms) != before + added:
        raise ValueError(f"{before + added - len(terms)} of {added} keys are already in the "
                         "term map")
    return terms


def format_terms(terms: dict[int, int], texts: dict[int, str],
                 monomial_text: Callable[[int], str]) -> str:
    """The canonical text of a term map {packed key: nonzero int}, keys in ascending order.

    A key's monomial text ("" for the constant) is read from `texts`, or on
    a miss from `monomial_text(key)`, which fills that cache.  A term is
    written "c*monomial", "monomial" for c = 1 and "c" for the constant;
    the terms are joined by " + " or " - ", and the first keeps only a
    minus sign.  The empty map is "0".
    """
    if not terms:
        return "0"
    cached = texts.get
    parts: list[str] = []
    for k in sorted(terms):
        c = terms[k]
        monomial = cached(k)
        if monomial is None:
            monomial = monomial_text(k)
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


# A polynomial text in the writer's form, after its leading "-" if any:
# terms of printable ASCII without spaces, joined by " + " or " - ".
_WRITTEN_TERMS = re.compile(r"[!-~]+(?: [+-] [!-~]+)*")
_SEPARATOR = re.compile(r" ([+-]) ")


def parse_terms(text: str, bodies: dict[str, int], parse_monomial: Callable[[str, str, str], int],
                zero_key: int, digits_max: int) -> dict[int, int]:
    """The term map {packed key: coefficient} of a text in the writer's form.

    That is the form of ``format_terms``: terms of printable ASCII without
    spaces, joined by " + " or " - ", the first led by at most one "-".
    Each term is digits, digits*rest or rest.  A rest is looked up in
    `bodies`; on a miss, ``parse_monomial(rest, term, text)`` gives its key
    and fills that cache, and its errors propagate.  A digit-only term is
    the monomial `zero_key`.  A term of coefficient 0 adds nothing.  A text
    outside the form, a coefficient of more than `digits_max` digits and a
    monomial given twice are each a ValueError that names it, raised after
    the ``parse_monomial`` calls of the terms before it, and a text that is
    not a str is a TypeError; the compiled reader gives None exactly there.
    """
    first, unsigned = ("-", text[1:]) if text[:1] == "-" else ("+", text)
    if not _WRITTEN_TERMS.fullmatch(unsigned):
        raise ValueError(f"polynomial text {text!r} is not terms of printable ASCII without "
                         "spaces joined by ' + ' or ' - '")
    pieces = _SEPARATOR.split(unsigned)
    terms: dict[int, int] = {}
    for sign, term in zip([first, *pieces[1::2]], pieces[::2]):
        head, star, rest = term.partition("*")
        if head.isdigit():  # a leading coefficient (the text is ASCII)
            if len(head) > digits_max:
                raise ValueError(f"coefficient of more than {digits_max} digits "
                                 f"in the term {term!r} of polynomial text")
            coeff = int(head)
            key = bodies.get(rest) if star else zero_key
        else:
            coeff, rest = 1, term
            key = bodies.get(rest)
        if key is None:
            key = parse_monomial(rest, term, text)
        if coeff:
            if key in terms:
                raise ValueError(f"the monomial of the term {term!r} appears twice "
                                 f"in polynomial text {text!r}")
            terms[key] = coeff if sign == "+" else -coeff
    return terms
