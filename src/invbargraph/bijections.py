"""Involutions on inversion sequences and bijections onto permutations.

The two partial involutions (`sper_involution`, `levels_involution`) return
None outside their domains: the undefined inputs are expected, not errors.
The two full bijections map inversion sequences to permutations so that the
level count becomes the cycle count minus one (`f_levels_to_cycles`) and the
ascent count is preserved (`g_ascents`).
"""

from __future__ import annotations

from operator import index
from typing import Iterable, Iterator

from invbargraph.invseq import InversionSequence, Permutation, parse_ints


class TooShortError(ValueError):
    """The map needs a longer sequence."""


class MalformedCyclesError(ValueError):
    """Cycles do not form a partition of 1..n into disjoint nonempty cycles."""


class CycleForm:
    """A permutation as disjoint cycles in standard form.

    Standard form: each cycle is rotated so its smallest element comes first,
    and cycles are sorted by their smallest elements.
    """

    __slots__ = ("_cycles",)

    def __init__(self, cycles: Iterable[Iterable[int]]):
        raw = [tuple(map(index, cycle)) for cycle in cycles]
        if not raw:
            raise MalformedCyclesError("empty cycle form")
        seen: set[int] = set()
        for cycle in raw:
            if not cycle:
                raise MalformedCyclesError("empty cycle")
            for v in cycle:
                if v < 1 or v in seen:
                    raise MalformedCyclesError(f"bad or repeated element {v}")
                seen.add(v)
        n = len(seen)
        if seen != set(range(1, n + 1)):
            raise MalformedCyclesError(f"cycles do not cover 1..{n}")
        normalized = []
        for cycle in raw:
            k = cycle.index(min(cycle))
            normalized.append(cycle[k:] + cycle[:k])
        normalized.sort(key=lambda c: c[0])
        object.__setattr__(self, "_cycles", tuple(normalized))

    @property
    def cycles(self) -> tuple[tuple[int, ...], ...]:
        return self._cycles

    @property
    def n(self) -> int:
        return sum(len(c) for c in self._cycles)

    def cycle_count(self) -> int:
        return len(self._cycles)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CycleForm) and self._cycles == other._cycles

    def __hash__(self) -> int:
        return hash(self._cycles)

    def __repr__(self) -> str:
        return f"CycleForm({self.to_text()!r})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("CycleForm is immutable")

    def to_text(self) -> str:
        return "".join("(" + ",".join(map(str, c)) + ")" for c in self._cycles)

    @classmethod
    def from_text(cls, text: str) -> "CycleForm":
        s = text.strip().replace(" ", "")
        if not (s.startswith("(") and s.endswith(")")):
            raise MalformedCyclesError(f"not a cycle form: {text!r}")
        parts = s[1:-1].split(")(")
        return cls([parse_ints(part, text) for part in parts] if parts != [""] else [])

    def to_permutation(self) -> Permutation:
        succ: dict[int, int] = {}
        for cycle in self._cycles:
            for k, v in enumerate(cycle):
                succ[v] = cycle[(k + 1) % len(cycle)]
        return Permutation(succ[i] for i in range(1, self.n + 1))

    @classmethod
    def from_permutation(cls, pi: Permutation) -> "CycleForm":
        remaining = set(range(1, len(pi) + 1))
        cycles = []
        while remaining:
            start = min(remaining)
            cycle = [start]
            remaining.discard(start)
            v = pi.oneline[start - 1]
            while v != start:
                cycle.append(v)
                remaining.discard(v)
                v = pi.oneline[v - 1]
            cycles.append(cycle)
        return cls(cycles)


# -- involutions ----------------------------------------------------------------


def complement(rho: InversionSequence) -> InversionSequence:
    """Entrywise reflection rho_i -> i + 1 - rho_i.

    An involution; it swaps the ascent count with the combined level+descent
    count.
    """
    return InversionSequence(i + 1 - v for i, v in enumerate(rho, start=1))


def area_flip(rho: InversionSequence) -> InversionSequence:
    """Toggle rho_2 between 1 and 2; changes the area by exactly one."""
    if len(rho) < 2:
        raise TooShortError("need length at least 2 to flip the second entry")
    entries = list(rho)
    entries[1] = 3 - entries[1]
    return InversionSequence(entries)


def sper_involution(rho: InversionSequence) -> InversionSequence | None:
    """Semi-perimeter parity flip, defined when some rho_i avoids {i-1, i}.

    With k minimal such that rho_k is outside {k-1, k} (necessarily k >= 3),
    replaces rho_{k-1} by 2k - 3 - rho_{k-1}, toggling it between k-2 and
    k-1.  Returns None when no such k exists; those sequences are exactly the
    weakly increasing ones ending in n-1 or n.
    """
    k = next(
        (i for i, v in enumerate(rho, start=1) if v not in (i - 1, i)),
        None,
    )
    if k is None:
        return None
    entries = list(rho)
    entries[k - 2] = 2 * k - 3 - entries[k - 2]
    return InversionSequence(entries)


def levels_involution(rho: InversionSequence) -> InversionSequence | None:
    """Levels parity flip, defined when some letter exceeds 2.

    With j the first position carrying a letter > 2 (necessarily j >= 3),
    toggles rho_{j-1} between 1 and 2.  Returns None on binary sequences.
    """
    j = next((i for i, v in enumerate(rho, start=1) if v > 2), None)
    if j is None:
        return None
    entries = list(rho)
    entries[j - 2] = 3 - entries[j - 2]
    return InversionSequence(entries)


# -- levels-to-cycles bijection ---------------------------------------------------


def f_levels_to_cycles(rho: InversionSequence) -> CycleForm:
    """Map a sequence with k levels to a permutation with k+1 cycles.

    Scanning j = 2..n with l = rho_{j-1}: a level (rho_j = l) opens a new
    singleton cycle (j); otherwise rho_j is the i-th smallest member of
    {1..j} minus {l}, and j is inserted directly after the element i in its
    cycle.
    """
    cycles: list[list[int]] = [[1]]
    entries = rho.entries
    for j in range(2, len(entries) + 1):
        prev = entries[j - 2]
        v = entries[j - 1]
        if v == prev:
            cycles.append([j])
            continue
        rank = v if v < prev else v - 1  # rank of v in {1..j} minus {prev}
        for cycle in cycles:
            if rank in cycle:
                cycle.insert(cycle.index(rank) + 1, j)
                break
    return CycleForm(cycles)


def f_inverse(pi: CycleForm) -> InversionSequence:
    """Inverse of f_levels_to_cycles, rebuilt forward position by position.

    Restricting the cycles to 1..j recovers the j-th intermediate stage, so
    the element preceding j among 1..j determines the inserted rank (a
    restricted fixed point marks a level).
    """
    n = pi.n
    pred: dict[int, int] = {}
    for cycle in pi.cycles:
        for k, v in enumerate(cycle):
            pred[v] = cycle[k - 1]
    entries = [1]
    for j in range(2, n + 1):
        x = pred[j]
        while x > j:
            x = pred[x]
        prev = entries[-1]
        if x == j:
            entries.append(prev)
        else:
            entries.append(x if x < prev else x + 1)  # x-th of {1..j} minus {prev}
    return InversionSequence(entries)


# -- ascent-preserving bijection ---------------------------------------------------


def g_ascents(rho: InversionSequence) -> Permutation:
    """Ascent-preserving map onto permutations.

    For j = 2..n with l = rho_j: bump every letter of the current word lying
    in [l, j-1] up by one, then append l.
    """
    word = [1]
    for j, v in enumerate(list(rho)[1:], start=2):
        word = [w + 1 if v <= w <= j - 1 else w for w in word]
        word.append(v)
    return Permutation(word)


def g_inverse(pi: Permutation) -> InversionSequence:
    """Inverse of g_ascents: strip last letters, closing the gaps above them."""
    word = list(pi.oneline)
    entries: list[int] = []
    while word:
        v = word.pop()
        entries.append(v)
        word = [w - 1 if w > v else w for w in word]
    return InversionSequence(reversed(entries))


# -- permutation statistics ----------------------------------------------------


def cycle_count(pi: Permutation) -> int:
    """Number of cycles of the permutation i -> pi_i."""
    return CycleForm.from_permutation(pi).cycle_count()


def ascent_count(pi: Permutation) -> int:
    """Number of indices i with pi_i < pi_{i+1}."""
    word = pi.oneline
    return sum(1 for i in range(len(word) - 1) if word[i] < word[i + 1])


def iter_undefined_sper(n: int) -> Iterator[InversionSequence]:
    """The weakly increasing sequences outside the sper involution's domain.

    Every entry i >= 2 is i-1 or i; there are 2^(n-2) ending in n-1 and
    2^(n-2) ending in n (for n >= 2).
    """
    from itertools import product

    if n == 1:
        yield InversionSequence((1,))
        return
    for choices in product((0, 1), repeat=n - 1):
        yield InversionSequence([1] + [i - 1 + c for i, c in zip(range(2, n + 1), choices)])
