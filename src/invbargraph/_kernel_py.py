"""Pure-Python enumeration kernels.

These walk all n! inversion sequences of length n and accumulate joint
statistic counts.  They are the reference implementation of the compiled
walkers in ``_kernel.c``, and ``kernel`` returns the same dicts from both.

Conventions (shared with the compiled kernel):

* ``area_sper_counts(n)`` -> {(last, area, sper): multiplicity}
* ``lda_counts(n)``       -> {(last, levels, descents, ascents): multiplicity}

where area = sum of entries, sper = n + (rho_1 + sum |steps| + rho_n)/2,
and levels/descents/ascents count adjacent equal/falling/rising pairs.
"""

from __future__ import annotations

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
