import random
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from invbargraph.invseq import (
    EmptySequenceError,
    InversionSequence,
    OutOfRangeError,
    Permutation,
    brute_dist_area_sper,
    brute_dist_lda,
    brute_stat_totals,
    enumerate_sequences,
    from_permutation,
    stats,
    to_permutation,
    validate,
)
from invbargraph.mpoly import MPoly


def test_validate_accepts_valid():
    assert validate([1, 2, 1, 3, 5, 3]).entries == (1, 2, 1, 3, 5, 3)
    assert validate([1]).entries == (1,)


def test_validate_rejects():
    with pytest.raises(OutOfRangeError) as exc:
        validate([2])
    assert exc.value.index == 1
    with pytest.raises(EmptySequenceError):
        validate([])
    with pytest.raises(OutOfRangeError) as exc:
        validate([1, 3])
    assert exc.value.index == 2
    with pytest.raises(OutOfRangeError):
        validate([1, 0])


@pytest.mark.parametrize("entries", [[1, 2.9, True], [1.0], ["1"], [1, "2"]])
def test_sequence_entries_must_be_integers(entries):
    with pytest.raises(TypeError):
        InversionSequence(entries)


@pytest.mark.parametrize("oneline", [[2.5, 1], [1.0], ["1"]])
def test_permutation_entries_must_be_integers(oneline):
    with pytest.raises(TypeError):
        Permutation(oneline)


def test_word_types_differ():
    assert InversionSequence((1,)) != Permutation((1,))
    assert Permutation((1,)) != InversionSequence((1,))
    assert repr(InversionSequence((1, 2))) == "InversionSequence((1, 2))"
    assert repr(Permutation((2, 1))) == "Permutation((2, 1))"


@pytest.mark.parametrize("word", [InversionSequence((1, 2)), Permutation((2, 1))])
def test_words_are_immutable(word):
    with pytest.raises(AttributeError, match=f"^{type(word).__name__} is immutable$"):
        word.extra = 1


def test_integer_subclasses_are_integers():
    assert InversionSequence([True, 2]).entries == (1, 2)
    assert type(InversionSequence([True]).entries[0]) is int


def test_from_permutation_worked_example():
    assert from_permutation(Permutation((5, 2, 4, 6, 1, 3))).entries == (1, 2, 1, 3, 5, 3)


def test_from_permutation_identity():
    assert from_permutation(Permutation(range(1, 8))).entries == (1,) * 7


def test_from_permutation_reversal():
    # letter i has i-1 smaller letters to its right in 3,2,1
    assert from_permutation(Permutation((3, 2, 1))).entries == (1, 2, 3)


def test_to_permutation_worked_example():
    assert to_permutation(InversionSequence((1, 2, 1, 3, 5, 3))) == Permutation((5, 2, 4, 6, 1, 3))


def test_to_permutation_flat():
    assert to_permutation(InversionSequence((1, 1, 1, 1))) == Permutation((1, 2, 3, 4))


@given(st.integers(1, 40).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_from_permutation_counts_smaller_letters_to_the_right(oneline):
    pi = Permutation(oneline)
    rho = from_permutation(pi)
    for i in range(1, len(oneline) + 1):
        right = oneline[oneline.index(i) + 1:]
        assert rho[i - 1] == 1 + sum(v < i for v in right)
    assert to_permutation(rho) == pi


@given(
    st.integers(1, 40).flatmap(
        lambda n: st.tuples(*(st.integers(1, i) for i in range(1, n + 1)))
    )
)
def test_to_permutation_round_trip(entries):
    rho = InversionSequence(entries)
    assert from_permutation(to_permutation(rho)) == rho


@pytest.mark.parametrize("n", range(1, 8))
def test_permutation_round_trip_exhaustive(n):
    for rho in enumerate_sequences(n):
        assert from_permutation(to_permutation(rho)) == rho


def test_enumerate_small():
    assert [rho.to_text() for rho in enumerate_sequences(1)] == ["1"]
    assert [rho.to_text() for rho in enumerate_sequences(3)] == [
        "1,1,1", "1,1,2", "1,1,3", "1,2,1", "1,2,2", "1,2,3",
    ]


def test_enumerate_count_and_bounds():
    seqs = list(enumerate_sequences(6))
    assert len(seqs) == factorial(6)
    assert seqs[0].entries == (1,) * 6
    assert seqs[-1].entries == (1, 2, 3, 4, 5, 6)


def test_stats_worked_example():
    record = stats(InversionSequence((1, 2, 1, 3, 5, 3)))
    assert record.area == 15
    assert record.sper == 12


def test_stats_flat_and_staircase():
    flat = stats(InversionSequence((1, 1, 1)))
    assert (flat.area, flat.sper, flat.levels, flat.descents, flat.ascents) == (3, 4, 2, 0, 0)
    stairs = stats(InversionSequence((1, 2, 3)))
    assert (stairs.area, stairs.sper, stairs.levels, stairs.descents, stairs.ascents) == (6, 6, 0, 0, 2)


@pytest.mark.parametrize("n", range(1, 7))
def test_stats_invariants(n):
    for rho in enumerate_sequences(n):
        record = stats(rho)
        assert record.levels + record.descents + record.ascents == n - 1
        assert record.area >= n
        assert record.sper >= n + 1
        e = rho.entries
        boundary = e[0] + sum(abs(a - b) for a, b in zip(e, e[1:])) + e[-1]
        assert boundary % 2 == 0


def _stats_by_definition(e):
    """The five statistics counted index by index, as the module docstring defines them."""
    n = len(e)
    want = {"area": 0, "sper": 0, "levels": 0, "descents": 0, "ascents": 0}
    boundary = e[0] + e[-1]
    for i in range(n):
        want["area"] += e[i]
        if i + 1 < n:
            boundary += abs(e[i + 1] - e[i])
            if e[i] == e[i + 1]:
                want["levels"] += 1
            elif e[i] > e[i + 1]:
                want["descents"] += 1
            else:
                want["ascents"] += 1
    assert boundary % 2 == 0
    want["sper"] = n + boundary // 2
    return want


@pytest.mark.parametrize("n", range(1, 8))
def test_stats_match_their_definitions(n):
    for rho in enumerate_sequences(n):
        assert stats(rho).to_json_obj() == _stats_by_definition(rho.entries), rho


def test_stats_match_their_definitions_on_long_words():
    rng = random.Random(40)
    for _ in range(500):
        entries = [rng.randint(1, i) for i in range(1, 41)]
        assert stats(InversionSequence(entries)).to_json_obj() == _stats_by_definition(entries)


def test_brute_area_sper_small_cells():
    table = brute_dist_area_sper(3)
    assert table[1, 1] == MPoly.monomial(1, p=1, q=2)
    assert table[2, 1] == MPoly.monomial(1, p=2, q=3)
    assert table[2, 2] == MPoly.monomial(1, p=3, q=4)
    assert table[3, 2] == MPoly.monomial(1, p=4, q=5) + MPoly.monomial(1, p=5, q=5)


def test_brute_lda_small_cells():
    table = brute_dist_lda(3)
    assert table[1, 1] == MPoly.one()
    assert table[2, 1] == MPoly.var("p")
    assert table[2, 2] == MPoly.var("r")
    assert table[3, 1] == MPoly.monomial(1, q=1, r=1) + MPoly.monomial(1, p=2)
    assert table[3, 2] == MPoly.monomial(2, p=1, r=1)
    assert table[3, 3] == MPoly.monomial(1, p=1, r=1) + MPoly.monomial(1, r=2)


@pytest.mark.parametrize("kind", ["area-sper", "lda"])
def test_brute_row_sums_are_factorials(kind):
    table = brute_dist_area_sper(7) if kind == "area-sper" else brute_dist_lda(7)
    for m in range(1, 8):
        assert table.row_sum(m).eval_rational({"p": 1, "q": 1, "r": 1}) == factorial(m)


def test_brute_stat_totals_match_enumeration():
    for n in range(1, 7):
        want = {"area": 0, "sper": 0, "levels": 0, "descents": 0, "ascents": 0}
        for rho in enumerate_sequences(n):
            record = stats(rho)
            want["area"] += record.area
            want["sper"] += record.sper
            want["levels"] += record.levels
            want["descents"] += record.descents
            want["ascents"] += record.ascents
        assert brute_stat_totals(n) == want
