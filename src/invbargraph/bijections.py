"""Involutions on inversion sequences and bijections onto permutations.

The two partial involutions (`sper_involution`, `levels_involution`) return
None outside their domains: the undefined inputs are expected, not errors.
The two full bijections map inversion sequences to permutations so that the
level count becomes the cycle count minus one (`f_levels_to_cycles`) and the
ascent count is preserved (`g_ascents`).
"""

from __future__ import annotations

from operator import index, lt
from typing import Iterable

from invbargraph.invseq import InversionSequence, Permutation, parse_ints


class TooShortError(ValueError):
    """The map needs a longer sequence."""


class MalformedCyclesError(ValueError):
    """Cycles do not form a partition of 1..n into disjoint nonempty cycles."""


class CycleForm(Permutation):
    """A permutation read as disjoint cycles: letter i is the element after i in its cycle.

    The one-line form is all it stores, so equal permutations give equal cycle
    forms, and a cycle form never equals a `Permutation` with the same letters.
    `cycles` derives the standard form: each cycle starts at its smallest
    element, and cycles are sorted by their smallest elements.
    """

    __slots__ = ()

    def __init__(self, cycles: Iterable[Iterable[int]]):
        raw = [tuple(map(index, cycle)) for cycle in cycles]
        if not raw:
            raise MalformedCyclesError("empty cycle form")
        succ: dict[int, int] = {}
        for cycle in raw:
            if not cycle:
                raise MalformedCyclesError("empty cycle")
            for v, after in zip(cycle, cycle[1:] + cycle[:1]):
                if v < 1 or v in succ:
                    raise MalformedCyclesError(f"bad or repeated element {v}")
                succ[v] = after
        n = len(succ)
        if max(succ) != n:  # n distinct positive elements cover 1..n
            raise MalformedCyclesError(f"cycles do not cover 1..{n}")
        object.__setattr__(self, "_letters", tuple(succ[i] for i in range(1, n + 1)))

    @property
    def cycles(self) -> tuple[tuple[int, ...], ...]:
        succ = self._letters
        seen: set[int] = set()
        cycles = []
        for start in range(1, len(succ) + 1):
            if start not in seen:
                cycle = [start]
                v = succ[start - 1]
                while v != start:
                    cycle.append(v)
                    v = succ[v - 1]
                seen.update(cycle)
                cycles.append(tuple(cycle))
        return tuple(cycles)

    @property
    def n(self) -> int:
        return len(self._letters)

    def cycle_count(self) -> int:
        return len(self.cycles)

    def __repr__(self) -> str:
        return f"CycleForm({self.to_text()!r})"

    def to_text(self) -> str:
        return "".join("(" + ",".join(map(str, c)) + ")" for c in self.cycles)

    @classmethod
    def from_text(cls, text: str) -> "CycleForm":
        s = text.strip().replace(" ", "")
        if not (s.startswith("(") and s.endswith(")")):
            raise MalformedCyclesError(f"not a cycle form: {text!r}")
        parts = s[1:-1].split(")(")
        return cls([parse_ints(part, text) for part in parts] if parts != [""] else [])

    def to_permutation(self) -> Permutation:
        return Permutation(self.oneline)

    @classmethod
    def from_permutation(cls, pi: Permutation) -> "CycleForm":
        """The cycles of `pi`, whose letters are already checked."""
        cf = object.__new__(cls)
        object.__setattr__(cf, "_letters", pi.oneline)
        return cf


# -- involutions ----------------------------------------------------------------


def complement(rho: InversionSequence) -> InversionSequence:
    """Entrywise reflection rho_i -> i + 1 - rho_i.

    An involution; it swaps the ascent count with the combined level+descent
    count.
    """
    return InversionSequence(i + 1 - v for i, v in enumerate(rho, start=1))


def _with_entry(rho: InversionSequence, i: int, v: int) -> InversionSequence:
    """rho with its entry at 0-based index i replaced by v."""
    entries = list(rho)
    entries[i] = v
    return InversionSequence(entries)


def area_flip(rho: InversionSequence) -> InversionSequence:
    """Toggle rho_2 between 1 and 2; changes the area by exactly one."""
    if len(rho) < 2:
        raise TooShortError("need length at least 2 to flip the second entry")
    return _with_entry(rho, 1, 3 - rho[1])


def sper_involution(rho: InversionSequence) -> InversionSequence | None:
    """Semi-perimeter parity flip, defined when some rho_i avoids {i-1, i}.

    With k minimal such that rho_k is outside {k-1, k} (necessarily k >= 3),
    replaces rho_{k-1} by 2k - 3 - rho_{k-1}, toggling it between k-2 and
    k-1.  Returns None when no such k exists: exactly the 2^(n-1) sequences
    with every rho_i in {i-1, i}.
    """
    # rho_i <= i, so rho_i is outside {i-1, i} exactly when it is below i-1
    k = next((i for i, v in enumerate(rho, start=1) if v < i - 1), None)
    if k is None:
        return None
    return _with_entry(rho, k - 2, 2 * k - 3 - rho[k - 2])


def levels_involution(rho: InversionSequence) -> InversionSequence | None:
    """Levels parity flip, defined when some letter exceeds 2.

    With j the first position carrying a letter > 2 (necessarily j >= 3),
    toggles rho_{j-1} between 1 and 2.  Returns None on binary sequences.
    """
    j = next((i for i, v in enumerate(rho, start=1) if v > 2), None)
    if j is None:
        return None
    return _with_entry(rho, j - 2, 3 - rho[j - 2])


# -- levels-to-cycles bijection ---------------------------------------------------


def f_levels_to_cycles(rho: InversionSequence) -> CycleForm:
    """Map a sequence with k levels to a permutation with k+1 cycles.

    Scanning j = 2..n with l = rho_{j-1}: a level (rho_j = l) opens a new
    singleton cycle (j); otherwise rho_j is the i-th smallest member of
    {1..j} minus {l}, and j is inserted directly after the element i in its
    cycle.
    """
    entries = rho.entries
    succ = [1]  # succ[i - 1] is the element after i in its cycle
    for j, (prev, v) in enumerate(zip(entries, entries[1:]), start=2):
        if v == prev:
            succ.append(j)
        else:
            i = v if v < prev else v - 1  # rank of v in {1..j} minus {prev}
            succ.append(succ[i - 1])
            succ[i - 1] = j
    return CycleForm.from_permutation(Permutation(succ))


def f_inverse(pi: CycleForm) -> InversionSequence:
    """Inverse of f_levels_to_cycles, rebuilt forward position by position.

    Restricting the cycles to 1..j recovers the j-th intermediate stage, so
    the element preceding j among 1..j determines the inserted rank (a
    restricted fixed point marks a level).
    """
    n = pi.n
    pred = [0] * (n + 1)
    for i, after in enumerate(pi.oneline, start=1):
        pred[after] = i
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

    Letter j is the rho_j-th smallest letter that letters j+1..n have not
    taken, so it has rank rho_j among letters 1..j (the inversion-table
    construction, Knuth, TAOCP Vol. 3, 5.1.1).
    """
    free = list(range(1, len(rho) + 1))
    word = [free.pop(v - 1) for v in reversed(rho.entries)]  # letters n..1
    return Permutation(reversed(word))


def g_inverse(pi: Permutation) -> InversionSequence:
    """Inverse of g_ascents: rho_j is the rank of letter j among the letters not yet read."""
    free = list(range(1, len(pi) + 1))
    entries = []
    for v in reversed(pi.oneline):
        entries.append(1 + free.index(v))
        free.remove(v)
    return InversionSequence(reversed(entries))


# -- permutation statistics ----------------------------------------------------


def cycle_count(pi: Permutation) -> int:
    """Number of cycles of the permutation i -> pi_i."""
    return CycleForm.from_permutation(pi).cycle_count()


def ascent_count(pi: Permutation) -> int:
    """Number of indices i with pi_i < pi_{i+1}."""
    word = pi.oneline
    return sum(map(lt, word, word[1:]))

