"""Pure-Python enumeration kernels, and the pure scan of a packed cell.

These walk all n! inversion sequences of length n and accumulate joint
statistic counts.  They are the reference implementation of the compiled
walkers in ``_kernel.c``, and ``kernel`` returns the same dicts from both.
``unpack_slots`` is likewise the reference of the compiled function of the
same name, which ``mpoly.Kronecker.unpack`` calls through ``kernel``.

Conventions (shared with the compiled kernel):

* ``area_sper_counts(n)`` -> {(last, area, sper): multiplicity}
* ``lda_counts(n)``       -> {(last, levels, descents, ascents): multiplicity}

where area = sum of entries, sper = n + (rho_1 + sum |steps| + rho_n)/2,
and levels/descents/ascents count adjacent equal/falling/rising pairs.
"""

from __future__ import annotations

import sys
from array import array
from itertools import compress

# The one limit on n for both backends.  Both walks together take about
# 2.3 s at n = 12 on the compiled kernel, and each step up multiplies the
# cost by n; the pure kernel takes 3.6 s at n = 10 and 42 s at n = 11, so
# several minutes at 12.
MAX_N = 12


def _guard(n: int) -> None:
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must be in 1..{MAX_N}, got {n}")


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
