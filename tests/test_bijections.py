import re
from collections import Counter
from itertools import permutations as all_permutations
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from invbargraph import bijections
from invbargraph.bijections import (
    CycleForm,
    MalformedCyclesError,
    TooShortError,
    area_flip,
    ascent_count,
    complement,
    cycle_count,
    f_inverse,
    f_levels_to_cycles,
    g_ascents,
    g_inverse,
    levels_involution,
    sper_involution,
)
from invbargraph.invseq import (
    InversionSequence,
    OutOfRangeError,
    Permutation,
    enumerate_sequences,
    stats,
)
from invbargraph.recur import eulerian, stirling_first

IS = InversionSequence

# Inversion sequences and permutations of length 1..40.
sequences = st.integers(1, 40).flatmap(
    lambda n: st.tuples(*(st.integers(1, i) for i in range(1, n + 1)))
)
permutations = st.integers(1, 40).flatmap(lambda n: st.permutations(range(1, n + 1)))


# -- complement ---------------------------------------------------------------


def test_complement_examples():
    assert complement(IS((1, 2, 3))) == IS((1, 1, 1))
    assert complement(IS((1, 1, 1))) == IS((1, 2, 3))
    assert complement(IS((1, 2, 1, 4, 2, 4, 7, 3))) == IS((1, 1, 3, 1, 4, 3, 1, 6))


@pytest.mark.parametrize("n", range(1, 8))
def test_complement_involution_and_transport(n):
    for rho in enumerate_sequences(n):
        image = complement(rho)
        assert complement(image) == rho
        before, after = stats(rho), stats(image)
        assert after.ascents == before.levels + before.descents
        assert after.levels + after.descents == before.ascents


# -- area flip ---------------------------------------------------------------


def test_area_flip_examples():
    assert area_flip(IS((1, 1, 1))) == IS((1, 2, 1))
    assert area_flip(IS((1, 2, 1, 3, 5, 3))) == IS((1, 1, 1, 3, 5, 3))
    with pytest.raises(TooShortError):
        area_flip(IS((1,)))


def test_area_flip_pairs_all_of_i5():
    for rho in enumerate_sequences(5):
        image = area_flip(rho)
        assert area_flip(image) == rho
        assert abs(stats(image).area - stats(rho).area) == 1
        assert image.entries[-1] == rho.entries[-1]


# -- sper involution -----------------------------------------------------------


def test_sper_involution_examples():
    assert sper_involution(IS((1, 2, 1))) == IS((1, 1, 1))
    assert sper_involution(IS((1, 1, 1))) == IS((1, 2, 1))
    assert sper_involution(IS((1, 1, 2))) is None
    # weakly increasing and ending in n-1, yet defined: rho_3 = 1 is outside {2, 3}
    assert sper_involution(IS((1, 1, 1, 3))) == IS((1, 2, 1, 3))
    assert sper_involution(IS((1,))) is None


@pytest.mark.parametrize("n", range(2, 7))
def test_sper_involution_pairing(n):
    undefined = 0
    for rho in enumerate_sequences(n):
        image = sper_involution(rho)
        if image is None:
            undefined += 1
            e = rho.entries
            assert all(v in (i - 1, i) for i, v in enumerate(e, start=1))
            assert stats(rho).sper == n + e[-1]  # 2n-1 or 2n
        else:
            assert any(v not in (i - 1, i) for i, v in enumerate(rho.entries, start=1))
            assert image != rho
            assert sper_involution(image) == rho
            assert abs(stats(image).sper - stats(rho).sper) == 1
    assert undefined == 2 ** (n - 1)


# -- levels involution -----------------------------------------------------------


def test_levels_involution_examples():
    assert levels_involution(IS((1, 1, 3))) == IS((1, 2, 3))
    assert levels_involution(IS((1, 2, 3))) == IS((1, 1, 3))
    assert levels_involution(IS((1, 2, 1))) is None  # binary sequence


@pytest.mark.parametrize("n", range(2, 7))
def test_levels_involution_pairing(n):
    undefined_by_last = Counter()
    for rho in enumerate_sequences(n):
        image = levels_involution(rho)
        if image is None:
            undefined_by_last[rho.entries[-1]] += 1
            assert max(rho.entries) <= 2
        else:
            assert image != rho
            assert levels_involution(image) == rho
            assert (stats(image).levels - stats(rho).levels) % 2 == 1
            assert image.entries[-1] == rho.entries[-1]
            assert len(image) == len(rho)
    # binary members split evenly between last letter 1 and 2
    assert undefined_by_last == Counter({1: 2 ** (n - 2), 2: 2 ** (n - 2)})


# -- levels-to-cycles bijection ------------------------------------------------------


def test_f_worked_example():
    rho = IS((1, 2, 2, 4, 3, 3, 7, 7))
    expected = CycleForm([(1, 2), (3, 5, 4), (6, 7), (8,)])
    assert f_levels_to_cycles(rho) == expected
    assert f_inverse(expected) == rho


def test_f_all_levels_and_minimal_cases():
    assert f_levels_to_cycles(IS((1, 1, 1, 1))) == CycleForm([(1,), (2,), (3,), (4,)])
    assert f_levels_to_cycles(IS((1, 2))) == CycleForm([(1, 2)])
    assert f_inverse(CycleForm([(1,), (2,), (3,)])) == IS((1, 1, 1))


@pytest.mark.parametrize("n", range(1, 8))
def test_f_bijection_exhaustive(n):
    images = set()
    cycle_dist = Counter()
    for rho in enumerate_sequences(n):
        image = f_levels_to_cycles(rho)
        assert image.cycle_count() == stats(rho).levels + 1
        assert f_inverse(image) == rho
        images.add(image)
        cycle_dist[image.cycle_count()] += 1
    assert len(images) == factorial(n)
    for k in range(1, n + 1):
        assert cycle_dist.get(k, 0) == stirling_first(n, k)


def test_cycle_form_validation():
    # the checks run in this order, each with its own message
    cases = [
        ([], "empty cycle form"),
        ([(1,), ()], "empty cycle"),
        ([(0, 1)], "bad or repeated element 0"),
        ([(1, 2), (2, 3)], "bad or repeated element 2"),
        ([(1, 3)], "cycles do not cover 1..2"),
    ]
    for cycles, message in cases:
        with pytest.raises(MalformedCyclesError, match=f"^{re.escape(message)}$"):
            CycleForm(cycles)
    with pytest.raises(TypeError):  # integers are checked before the empty cycle
        CycleForm([(), (1, "a")])


@pytest.mark.parametrize("cycles", [[(1, 2.0)], [(1.5,)], [("1",)]])
def test_cycle_form_entries_must_be_integers(cycles):
    with pytest.raises(TypeError):
        CycleForm(cycles)


def test_cycle_form_standardization_idempotent():
    raw = CycleForm([(5, 3, 4), (2, 1)])
    assert raw.to_text() == "(1,2)(3,4,5)"
    assert CycleForm(raw.cycles) == raw
    assert CycleForm.from_text(raw.to_text()) == raw


def test_cycle_form_permutation_round_trip():
    pi = Permutation((5, 2, 4, 6, 1, 3))
    assert CycleForm.from_permutation(pi).to_permutation() == pi


@given(st.integers(1, 9).flatmap(lambda n: st.permutations(range(1, n + 1))), st.data())
def test_cycle_form_is_its_permutation(oneline, data):
    """Any rotation of the cycles, listed in any order, builds the same cycle form."""
    pi = Permutation(oneline)
    cf = CycleForm.from_permutation(pi)
    cycles = cf.cycles
    # standard form: each cycle starts at its smallest element, cycles sorted by it
    assert all(c[0] == min(c) for c in cycles)
    assert [c[0] for c in cycles] == sorted(c[0] for c in cycles)
    assert all(pi.oneline[c[k] - 1] == c[(k + 1) % len(c)] for c in cycles for k in range(len(c)))
    assert sorted(v for c in cycles for v in c) == list(range(1, len(pi) + 1))
    assert cf.cycle_count() == len(cycles) == cycle_count(pi)
    assert cf.n == len(pi)
    shuffled = []
    for c in data.draw(st.permutations(cycles)):
        k = data.draw(st.integers(0, len(c) - 1))
        shuffled.append(c[k:] + c[:k])
    rebuilt = CycleForm(shuffled)
    assert rebuilt == cf and hash(rebuilt) == hash(cf)
    assert rebuilt.cycles == cycles and rebuilt.to_text() == cf.to_text()
    assert CycleForm(cycles) == cf
    assert cf.to_permutation() == pi
    assert CycleForm.from_text(cf.to_text()) == cf
    assert cf != pi


# -- ascent-preserving bijection --------------------------------------------------------


def test_g_worked_example():
    rho = IS((1, 2, 1, 4, 2, 4, 7, 3))
    pi = Permutation((4, 6, 1, 7, 2, 5, 8, 3))
    assert g_ascents(rho) == pi
    assert g_inverse(pi) == rho


def test_g_extreme_cases():
    assert g_ascents(IS((1, 1, 1, 1))) == Permutation((4, 3, 2, 1))
    assert g_ascents(IS((1, 2, 3, 4))) == Permutation((1, 2, 3, 4))
    assert g_inverse(Permutation((5, 4, 3, 2, 1))) == IS((1, 1, 1, 1, 1))


@given(sequences)
def test_g_letter_j_has_rank_rho_j_among_the_first_j(entries):
    rho = IS(entries)
    word = g_ascents(rho).oneline
    for j, v in enumerate(entries, start=1):
        assert 1 + sum(w < word[j - 1] for w in word[:j]) == v
    assert g_inverse(g_ascents(rho)) == rho


@given(permutations)
def test_g_inverse_is_undone_by_g(oneline):
    pi = Permutation(oneline)
    assert g_ascents(g_inverse(pi)) == pi


@pytest.mark.parametrize("n", range(1, 8))
def test_g_bijection_exhaustive(n):
    images = set()
    ascent_dist = Counter()
    for rho in enumerate_sequences(n):
        image = g_ascents(rho)
        word = image.oneline
        # the ascent count read off the word agrees with the bargraph ascents
        assert ascent_count(image) == stats(rho).ascents
        assert ascent_count(image) == sum(word[i] < word[i + 1] for i in range(n - 1))
        assert g_inverse(image) == rho
        images.add(image)
        ascent_dist[ascent_count(image)] += 1
    assert len(images) == factorial(n)
    for k in range(n):
        assert ascent_dist.get(k, 0) == eulerian(n, k)


# -- permutation statistics ----------------------------------------------------------


def test_cycle_and_ascent_counts():
    assert cycle_count(Permutation(range(1, 7))) == 6
    assert ascent_count(Permutation(range(1, 7))) == 5
    assert cycle_count(Permutation((5, 2, 4, 6, 1, 3))) == 3
    assert ascent_count(Permutation((4, 6, 1, 7, 2, 5, 8, 3))) == 4


@pytest.mark.parametrize("n", range(1, 8))
def test_cycle_count_is_the_number_of_cycles(n):
    for oneline in all_permutations(range(1, n + 1)):
        cf = CycleForm.from_permutation(Permutation(oneline))
        assert cf.cycle_count() == len(cf.cycles), oneline


# -- every word a map returns is a checked sequence --------------------------------


def _forged(entries):
    """A sequence object whose letters skipped the constructor's check."""
    rho = object.__new__(IS)
    object.__setattr__(rho, "_letters", tuple(entries))
    return rho


@pytest.mark.parametrize("name, position, value", [
    ("complement", 2, -2),
    ("area_flip", 2, -2),
    ("sper_involution", 2, -2),
    ("levels_involution", 1, 2),
])
def test_maps_refuse_the_letter_they_write_out_of_range(name, position, value):
    """On the forged word (1, 5, 1) each map writes one letter outside its range."""
    with pytest.raises(OutOfRangeError) as err:
        getattr(bijections, name)(_forged((1, 5, 1)))
    assert (err.value.index, err.value.value) == (position, value)


@pytest.mark.parametrize("i", range(4))
def test_with_entry_checks_the_letter_it_writes(i):
    rho = IS((1, 2, 1, 4))
    for v in (0, i + 2):
        with pytest.raises(OutOfRangeError) as err:
            bijections._with_entry(rho, i, v)
        assert (err.value.index, err.value.value) == (i + 1, v)
    for v in range(1, i + 2):
        assert bijections._with_entry(rho, i, v) == IS((*rho.entries[:i], v, *rho.entries[i + 1:]))
