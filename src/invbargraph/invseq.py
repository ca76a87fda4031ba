"""Inversion sequences, their bargraph statistics, and permutation conversions.

An inversion sequence of length n is a word rho_1..rho_n with 1 <= rho_i <= i.
Drawn as a bargraph (column i has height rho_i) it carries five statistics:

* area: number of unit cells, sum(rho_i)
* sper: half the bargraph perimeter (the bottom boundary included), equal to
  n + (rho_1 + sum |rho_i - rho_{i-1}| + rho_n) / 2
* levels / descents / ascents: indices i < n with rho_i =, >, < rho_{i+1}

>>> stats(InversionSequence((1, 2, 1, 3, 5, 3)))
StatRecord(area=15, sper=12, levels=0, descents=2, ascents=3)
"""

from __future__ import annotations

import re
from itertools import count, product
from operator import index, le, sub
from typing import Callable, Iterable, Iterator, NamedTuple

from invbargraph import kernel
from invbargraph.mpoly import DIGITS_MAX, MPoly
from invbargraph.recur import DistTable, _check_size


class EmptySequenceError(ValueError):
    """Inversion sequences must have length at least 1."""


class OutOfRangeError(ValueError):
    """Entry rho_i outside 1..i; `index` is the offending 1-based position."""

    def __init__(self, index: int, value: int):
        super().__init__(f"entry {value} at position {index} is outside 1..{index}")
        self.index = index
        self.value = value


# A decimal integer as users type it: no sign but '-', no '_', 1..DIGITS_MAX ASCII digits.
INTEGER = rf"-?[0-9]{{1,{DIGITS_MAX}}}"
INT_RE = re.compile(rf"\s*{INTEGER}\s*", re.ASCII)


def parse_ints(fields: str, text: str) -> list[int]:
    """The comma-separated integers in `fields`, part of the user input `text`."""
    parts = fields.split(",")
    if not all(map(INT_RE.fullmatch, parts)):
        raise ValueError(f"not a comma-separated list of integers: {text!r}")
    return [int(part) for part in parts]


class _Word:
    """An immutable word of integers: the shared protocol of the two word types.

    Words of different types never compare equal, even with the same letters.
    """

    __slots__ = ("_letters",)

    def __len__(self) -> int:
        return len(self._letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self._letters)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._letters == other._letters

    def __hash__(self) -> int:
        return hash(self._letters)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._letters!r})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def to_text(self) -> str:
        return ",".join(map(str, self._letters))

    @classmethod
    def from_text(cls, text: str) -> "_Word":
        return cls(parse_ints(text.strip(), text))


class InversionSequence(_Word):
    """A validated sequence rho with 1 <= rho_i <= i.

    Entries must be integers (`operator.index`): a float or a string raises
    TypeError instead of being truncated or parsed.
    """

    __slots__ = ()

    def __init__(self, entries: Iterable[int]):
        entries = tuple(map(index, entries))
        if not entries:
            raise EmptySequenceError("empty sequence")
        if min(entries) < 1 or not all(map(le, entries, count(1))):
            i, v = next((i, v) for i, v in enumerate(entries, start=1) if not 1 <= v <= i)
            raise OutOfRangeError(i, v)
        object.__setattr__(self, "_letters", entries)

    @property
    def entries(self) -> tuple[int, ...]:
        return self._letters

    def __getitem__(self, i: int) -> int:
        return self._letters[i]


class Permutation(_Word):
    """A permutation of [n] in one-line notation."""

    __slots__ = ()

    def __init__(self, oneline: Iterable[int]):
        oneline = tuple(map(index, oneline))
        n = len(oneline)
        if n == 0:
            raise ValueError("empty permutation")
        if sorted(oneline) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {oneline}")
        object.__setattr__(self, "_letters", oneline)

    @property
    def oneline(self) -> tuple[int, ...]:
        return self._letters


class StatRecord(NamedTuple):
    area: int
    sper: int
    levels: int
    descents: int
    ascents: int

    def to_json_obj(self) -> dict[str, int]:
        return self._asdict()


def validate(raw: Iterable[int]) -> InversionSequence:
    """Validate a raw integer sequence (constructor alias)."""
    return InversionSequence(raw)


def from_permutation(pi: Permutation) -> InversionSequence:
    """Shifted inversion table: entry i is 1 + #{j in [i-1] right of letter i}."""
    word = list(pi.oneline)
    entries = []
    for i in range(len(word), 0, -1):  # the word holds 1..i: undo `to_permutation`
        entries.append(i - word.index(i))
        word.remove(i)
    return InversionSequence(reversed(entries))


def to_permutation(rho: InversionSequence) -> Permutation:
    """Rebuild the permutation: insert letter i with rho_i - 1 smaller letters after it."""
    word: list[int] = []
    for i, v in enumerate(rho, start=1):
        word.insert(i - v, i)
    return Permutation(word)


def enumerate_sequences(n: int) -> Iterator[InversionSequence]:
    """All inversion sequences of length n in lexicographic order (n! of them)."""
    _check_size(n)
    for entries in product(*(range(1, i + 1) for i in range(1, n + 1))):
        yield InversionSequence(entries)


def stats(rho: InversionSequence) -> StatRecord:
    """All five bargraph statistics of a sequence."""
    e = rho.entries
    n = len(e)
    steps = list(map(sub, e[1:], e))  # steps[i] = rho_{i+2} - rho_{i+1}
    levels = steps.count(0)
    ascents = sum(map((0).__lt__, steps))
    # boundary is even: the step sum telescopes to rho_n - rho_1 mod 2
    boundary = e[0] + sum(map(abs, steps)) + e[-1]
    return StatRecord(sum(e), n + boundary // 2, levels, n - 1 - levels - ascents, ascents)


def _brute_table(n: int, counts: Callable[[int], dict], pad: tuple[int, ...]) -> DistTable:
    """The table whose cell (m, i) sums the monomials of length-m sequences ending in i.

    `counts(m)` maps (last, *statistics) to multiplicities.  The statistics
    take the exponents of p, q, ... in order, and `pad` zeroes the rest.
    """
    _check_size(n)
    rows = []
    for m in range(1, n + 1):
        terms: list[dict] = [dict() for _ in range(m + 1)]
        for key, mult in counts(m).items():
            terms[key[0]][(0, *key[1:], *pad)] = mult
        rows.append(tuple(MPoly(terms[i]) for i in range(1, m + 1)))
    return DistTable(tuple(rows))


def brute_dist_area_sper(n: int) -> DistTable:
    """Joint area/sper distribution table by direct enumeration.

    Cell (m, i) is sum of p^area q^sper over all length-m sequences ending
    in i.
    """
    return _brute_table(n, kernel.area_sper_counts, (0, 0))


def brute_dist_lda(n: int) -> DistTable:
    """Joint levels/descents/ascents distribution table by direct enumeration.

    Cell (m, i) is sum of p^levels q^descents r^ascents over length-m
    sequences ending in i.
    """
    return _brute_table(n, kernel.lda_counts, (0,))


def brute_stat_totals(n: int) -> dict[str, int]:
    """Sums of each statistic over all length-n sequences, by enumeration."""
    totals = {"area": 0, "sper": 0, "levels": 0, "descents": 0, "ascents": 0}
    for (_, area, sper), mult in kernel.area_sper_counts(n).items():
        totals["area"] += mult * area
        totals["sper"] += mult * sper
    for (_, lev, des, asc), mult in kernel.lda_counts(n).items():
        totals["levels"] += mult * lev
        totals["descents"] += mult * des
        totals["ascents"] += mult * asc
    return totals
