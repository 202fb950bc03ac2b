import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmdist import (
    CapacityError,
    DistanceBreakdown,
    HarmonicTable,
    SymbolSeq,
    distance,
    distance_decomposed,
    distance_exact,
    distances,
    harmonic,
    harmonic_diff,
    lcs_len,
)
from harmdist.propcheck import _Tier
from helpers import random_seq, seq, symbol_seqs

TABLE = HarmonicTable()


# -- fixed values, checked against the rational oracle ------------------------


def test_zero_on_equal_strings():
    # the length formula alone gives zero: both harmonic spans are empty
    rng = random.Random(5)
    long = SymbolSeq(tuple(rng.randrange(4) for _ in range(5_000)))
    wide = SymbolSeq((256, 1, 70_000, 256, 2**40))
    for a in (seq("abc"), seq(""), long, wide):
        same = SymbolSeq(a.ids)
        assert distance(a, same) == 0.0 and math.copysign(1.0, distance(a, same)) == 1.0
        assert distance_decomposed(a, same) == DistanceBreakdown(
            0.0, 0.0, 0.0
        )
        assert distance_exact(a, same) == Fraction(0)


def test_empty_versus_b_is_harmonic_of_length():
    b = seq("hello")
    assert distance(seq(""), b) == harmonic(TABLE, 5)
    assert distance_exact(seq(""), seq("ab")) == Fraction(3, 2)


def test_single_symbol_pair():
    assert distance_exact(seq("a"), seq("b")) == Fraction(1)
    assert abs(distance(seq("a"), seq("b")) - 1.0) <= 1e-12


def test_one_substitution_at_length_three():
    assert distance_exact(seq("abc"), seq("abd")) == Fraction(1, 2)
    assert abs(distance(seq("abc"), seq("abd")) - 0.5) <= 1e-12


def test_decomposition_examples():
    both = distance_decomposed(seq("abc"), seq("abc"))
    assert (both.insertion_cost, both.deletion_cost, both.total) == (0.0, 0.0, 0.0)

    del_only = distance_decomposed(seq("ab"), seq("b"))
    assert del_only.insertion_cost == 0.0
    assert abs(del_only.deletion_cost - 0.5) <= 1e-15
    assert abs(del_only.total - 0.5) <= 1e-15

    sub = distance_decomposed(seq("a"), seq("b"))
    assert abs(sub.insertion_cost - 0.5) <= 1e-15
    assert abs(sub.deletion_cost - 0.5) <= 1e-15
    assert abs(sub.total - 1.0) <= 1e-15


def test_subsequence_fast_path_examples():
    # a subsequence a of b needs no fast path: with scs = |b| the formula
    # gives H_|b| - H_|a| itself
    assert distance(seq("xy"), seq("xy")) == 0.0
    assert abs(distance(seq("b"), seq("ab")) - 0.5) <= 1e-15
    assert distance(seq(""), seq("abcd")) == harmonic(TABLE, 4)


def test_exact_capacity_guard():
    long = SymbolSeq((0,) * 6000)
    with pytest.raises(CapacityError):
        distance_exact(long, long)


# -- metric properties ---------------------------------------------------------


@given(a=symbol_seqs(4, 48), b=symbol_seqs(4, 48))
@settings(max_examples=200, deadline=None)
def test_symmetry_is_bit_identical(a, b):
    assert distance(a, b) == distance(b, a)


@given(a=symbol_seqs(2, 10), b=symbol_seqs(2, 10))
@settings(max_examples=300, deadline=None)
def test_identity_of_indiscernibles(a, b):
    value = distance(a, b)
    if a.ids == b.ids:
        assert value == 0.0
    else:
        assert value > 0.0
        assert distance_exact(a, b) > 0


@given(a=symbol_seqs(3, 24), b=symbol_seqs(3, 24), c=symbol_seqs(3, 24))
@settings(max_examples=300, deadline=None)
def test_triangle_inequality_float(a, b, c):
    assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9


@given(a=symbol_seqs(4, 40), b=symbol_seqs(4, 40))
@settings(max_examples=150, deadline=None)
def test_decomposition_consistency(a, b):
    parts = distance_decomposed(a, b)
    assert parts.insertion_cost >= 0.0
    assert parts.deletion_cost >= 0.0
    assert abs(parts.total - (parts.insertion_cost + parts.deletion_cost)) <= 1e-12
    assert abs(parts.total - distance(a, b)) <= 1e-12


@given(b=symbol_seqs(4, 40), data=st.data())
@settings(max_examples=150, deadline=None)
def test_fast_path_agrees_with_general_formula(b, data):
    # for a subsequence a of b the distance is H_|b| - H_|a| bit for bit,
    # either way round: the second harmonic span is empty, exactly 0.0
    keep = data.draw(st.lists(st.booleans(), min_size=len(b), max_size=len(b)))
    a = SymbolSeq(tuple(s for s, k in zip(b.ids, keep) if k))
    fast = harmonic_diff(TABLE, len(a.ids), len(b.ids))
    assert distance(a, b) == distance(b, a) == fast


@given(a=symbol_seqs(3, 60), b=symbol_seqs(3, 60))
@settings(max_examples=100, deadline=None)
def test_float_matches_rational_oracle(a, b):
    exact = distance_exact(a, b)
    assert abs(Fraction(distance(a, b)) - exact) <= Fraction(1, 10 ** 9)


def test_single_insertion_cost_shrinks_with_length():
    # growing a string by one trailing symbol costs 1/(n+1)
    previous = None
    for n in range(1, 60):
        a = SymbolSeq((0,) * n)
        b = SymbolSeq((0,) * n + (1,))
        value = distance(a, b)
        assert abs(value - 1.0 / (n + 1)) <= 1e-12
        if previous is not None:
            assert value < previous
        previous = value


def test_disjoint_equal_length_distance_grows_toward_2ln2():
    previous = None
    for n in (1, 2, 4, 16, 64, 256, 1024, 4096, 10_000):
        a = SymbolSeq((0,) * n)
        b = SymbolSeq((1,) * n)
        value = distance(a, b)
        assert value < 2.0 * math.log(2.0)
        if previous is not None:
            assert value > previous
        previous = value


def test_unbounded_distance_from_empty():
    # d(empty, b) = H_|b| keeps growing; no clamp to [0, 1]
    assert distance(SymbolSeq(()), SymbolSeq((0,) * 5000)) > 9.0


# -- one-vs-many distances, bit for bit ---------------------------------------


def test_distances_equal_scalar_distance_on_the_criterion_7_corpus():
    rng = random.Random(77)
    corpus = [random_seq(rng, 4, 64) for _ in range(2_000)]
    queries = [random_seq(rng, 4, 64) for _ in range(50)]
    for q in queries:
        expected = [distance(q, s) for s in corpus]
        assert distances(q, corpus) == expected


def test_distances_equal_scalar_distance_on_criterion_6_groups():
    # the criterion 6 pair stream, regrouped one-vs-many per alphabet: the
    # first string drawn over an alphabet is the query for every string
    # drawn over it
    rng = random.Random(66)
    groups: dict[int, list[SymbolSeq]] = {}
    for _ in range(120):
        alphabet = rng.choice((2, 4, 26, 256))
        for length in (rng.randint(0, 5_000), rng.randint(0, 5_000)):
            groups.setdefault(alphabet, []).append(
                SymbolSeq(tuple(rng.randrange(alphabet) for _ in range(length)))
            )
    assert sorted(groups) == [2, 4, 26, 256]
    for strings in groups.values():
        q = strings[0]
        got = distances(q, strings)
        assert got == [distance(q, s) for s in strings]
        assert got[0] == 0.0


def test_distances_equal_distance_with_each_engine():
    corpus = [seq("kitten"), seq("sitting"), seq(""), seq("kitten")]
    q = seq("mitten")
    # the batched forms take no engine; the scalar form gives their values
    # with each oracle engine
    got = distances(q, corpus)
    for engine in ("auto", "dp", "huntszymanski"):
        assert [distance(q, s, engine=engine) for s in corpus] == got
    assert distances(q, []) == []
    assert distances(seq(""), [seq("")]) == [0.0]


@given(a=symbol_seqs(4, 200), b=symbol_seqs(4, 200))
@settings(max_examples=150, deadline=None)
def test_no_table_changes_a_distance(a, b):
    # every distance reads the one harmonic table; a fresh table in the
    # float tier is only a second cache of the same entries.  Each tier's
    # distance from two harmonic spans is its own formula: bit for bit in
    # floats, exactly in Fractions.
    want = distance(a, b)
    assert distances(a, [b])[0] == want
    assert distance_decomposed(a, b).total == want
    assert _Tier(False, HarmonicTable()).dist(a, b) == want
    lengths = len(a.ids), len(b.ids), lcs_len(a, b)
    assert _Tier(False, HarmonicTable()).from_lengths(*lengths) == want
    assert _Tier(True).from_lengths(*lengths) == distance_exact(a, b)


def test_breakdown_is_an_immutable_value():
    bd = distance_decomposed(seq("abc"), seq("abd"))
    same = DistanceBreakdown(bd.insertion_cost, bd.deletion_cost, bd.total)
    assert bd == same and hash(bd) == hash(same)
    assert bd != DistanceBreakdown(bd.deletion_cost, bd.insertion_cost, bd.total + 1)
    assert repr(bd) == (
        f"DistanceBreakdown(insertion_cost={bd.insertion_cost!r}, "
        f"deletion_cost={bd.deletion_cost!r}, total={bd.total!r})"
    )
    with pytest.raises(AttributeError):
        bd.total = 0.0
    with pytest.raises(AttributeError):
        bd.extra = 1
