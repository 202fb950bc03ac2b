import importlib
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmdist import (
    CapacityError,
    Interner,
    SymbolSeq,
    is_subsequence,
    lcs_len,
    lcs_len_bitparallel,
    lcs_len_bruteforce,
    lcs_len_dp,
    lcs_len_hunt_szymanski,
    lcs_lens,
    scs_len,
)
from harmdist.metric import distance, distances
from helpers import seq, symbol_seqs

ALL_ENGINES = [
    lcs_len_dp,
    lcs_len_bitparallel,
    lcs_len_hunt_szymanski,
    lcs_len_bruteforce,
]

EXACT_ENGINES = ["dp", "bitparallel", "huntszymanski"]


# -- interner -----------------------------------------------------------------


def test_interner_assigns_dense_stable_ids():
    it = Interner()
    a = it.intern("x")
    b = it.intern("y")
    assert (a, b) == (0, 1)
    assert it.intern("x") == 0
    assert it.alphabet_size == 2


def test_interner_seq_roundtrip():
    it = Interner()
    s = it.seq("abcabc")
    assert s.ids == (0, 1, 2, 0, 1, 2)
    assert it.alphabet_size == 3


def test_symbolseq_basics():
    s = SymbolSeq((1, 2, 3))
    assert len(s) == 3
    assert list(s) == [1, 2, 3]
    assert s[1] == 2
    assert SymbolSeq([1, 2, 3]) == s  # coerced to tuple
    assert len(SymbolSeq(())) == 0


def test_symbolseq_is_an_immutable_value():
    s = SymbolSeq((1, 2, 3))
    lcs_lens(seq("ab"), [s])  # caches the lane, which is no field
    assert s == SymbolSeq((1, 2, 3)) and hash(s) == hash(SymbolSeq([1, 2, 3]))
    assert s != SymbolSeq((1, 2)) and s != (1, 2, 3)
    assert repr(s) == "SymbolSeq(ids=(1, 2, 3))"
    assert pickle.loads(pickle.dumps(s)) == s
    with pytest.raises(AttributeError):
        s.ids = (4,)
    with pytest.raises(AttributeError):
        del s.ids
    with pytest.raises(AttributeError):
        s.extra = 1


# -- fixed examples -----------------------------------------------------------


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_empty_against_anything(engine):
    assert engine(seq(""), seq("xyz")) == 0
    assert engine(seq(""), seq("")) == 0


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_identical_strings(engine):
    assert engine(seq("abc"), seq("abc")) == 3
    assert engine(seq("aaaa"), seq("aaaa")) == 4


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_classic_pair(engine):
    # brute force over all subsequences of the shorter string gives 4
    assert lcs_len_bruteforce(seq("ABCBDAB"), seq("BDCABA")) == 4
    assert engine(seq("ABCBDAB"), seq("BDCABA")) == 4


def test_disjoint_alphabets():
    assert lcs_len_hunt_szymanski(seq("abc"), seq("def")) == 0
    assert lcs_len(seq("abc"), seq("def")) == 0


def test_dispatcher_examples():
    a, b = seq("ABCBDAB"), seq("BDCABA")
    assert lcs_len(a, b, "auto") == 4
    for e in EXACT_ENGINES:
        assert lcs_len(a, b, e) == 4
    assert lcs_len(a, a, "auto") == len(a)


def test_dispatcher_rejects_unknown_engine():
    with pytest.raises(ValueError):
        lcs_len(seq("a"), seq("b"), "quantum")


def test_bruteforce_guard():
    long = seq("a" * 21)
    with pytest.raises(CapacityError):
        lcs_len(long, long, "bruteforce")


def test_scs_examples():
    assert scs_len(seq(""), seq("hello")) == 5
    assert scs_len(seq("abc"), seq("abc")) == 3
    assert scs_len(seq("abc"), seq("abd")) == 4


def test_subsequence_examples():
    assert is_subsequence(seq(""), seq("abc"))
    assert is_subsequence(seq("ace"), seq("abcde"))
    assert lcs_len(seq("ace"), seq("abcde")) == 3
    assert not is_subsequence(seq("ba"), seq("ab"))
    assert lcs_len(seq("ba"), seq("ab")) == 1
    assert not is_subsequence(seq("a"), seq(""))


# -- properties ---------------------------------------------------------------


@given(a=symbol_seqs(3, 12), b=symbol_seqs(3, 12))
@settings(max_examples=300, deadline=None)
def test_engines_agree_with_bruteforce(a, b):
    expected = lcs_len_bruteforce(a, b)
    assert lcs_len_dp(a, b) == expected
    assert lcs_len_bitparallel(a, b) == expected
    assert lcs_len_hunt_szymanski(a, b) == expected
    assert lcs_len(a, b) == expected


@given(a=symbol_seqs(4, 96), b=symbol_seqs(4, 96))
@settings(max_examples=150, deadline=None)
def test_exact_engines_agree_on_larger_inputs(a, b):
    results = {
        lcs_len_dp(a, b),
        lcs_len_bitparallel(a, b),
        lcs_len_hunt_szymanski(a, b),
    }
    assert len(results) == 1


@given(a=symbol_seqs(4, 40), b=symbol_seqs(4, 40))
@settings(max_examples=200, deadline=None)
def test_bounds_and_symmetry(a, b):
    v = lcs_len(a, b)
    assert 0 <= v <= min(len(a), len(b))
    assert v == lcs_len(b, a)
    s = scs_len(a, b)
    assert s == scs_len(b, a)
    assert max(len(a), len(b)) <= s <= len(a) + len(b)


@given(a=symbol_seqs(4, 30), b=symbol_seqs(4, 30), sym=st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_appending_shared_symbol_increments(a, b, sym):
    before = lcs_len(a, b)
    after = lcs_len(SymbolSeq(a.ids + (sym,)), SymbolSeq(b.ids + (sym,)))
    assert after == before + 1


@given(a=symbol_seqs(3, 24), b=symbol_seqs(3, 24))
@settings(max_examples=300, deadline=None)
def test_subsequence_iff_lcs_saturates(a, b):
    assert is_subsequence(a, b) == (lcs_len(a, b) == len(a))


# -- one-vs-many lengths ------------------------------------------------------

lcs_mod = importlib.import_module("harmdist.lcs")


def scalar_lens(q, corpus):
    return [lcs_len_bitparallel(q, s) for s in corpus]


def test_lcs_lens_empty_query(packed_calls):
    corpus = [seq("acgt"), seq(""), seq("a" * 40)]
    assert lcs_lens(seq(""), corpus) == [0, 0, 0] == scalar_lens(seq(""), corpus)
    assert packed_calls == [3]


def test_lcs_lens_empty_corpus_lines(packed_calls):
    corpus = [seq(""), seq("gattaca"), seq(""), seq("cat"), seq("")]
    q = seq("attack")
    assert lcs_lens(q, corpus) == scalar_lens(q, corpus) == [0, 5, 0, 2, 0]
    assert packed_calls == [5]


def test_lcs_lens_without_corpus_or_symbols():
    assert lcs_lens(seq("abc"), []) == []
    # no symbol to pack: every lane would be guard bits only
    assert lcs_lens(seq("abc"), [seq(""), seq("")]) == [0, 0]


@pytest.mark.parametrize("length", [7, 8, 9, 15, 16, 17, 64, 65])
def test_lcs_lens_lanes_at_byte_and_guard_boundaries(length, packed_calls):
    rng = random.Random(length)
    lane = SymbolSeq(tuple(rng.randrange(3) for _ in range(length)))
    # the string itself saturates its lane, so every carry reaches the guard
    corpus = [lane, SymbolSeq((0,) * length), SymbolSeq((1,) * length), lane]
    queries = [
        lane,
        SymbolSeq(lane.ids[::-1]),
        SymbolSeq((0, 1, 2) * length),
        SymbolSeq((2,) * (2 * length)),
    ]
    for q in queries:
        assert lcs_lens(q, corpus) == scalar_lens(q, corpus)
    assert lcs_lens(lane, corpus)[0] == length
    assert packed_calls == [4] * len(queries) + [4]


def test_lcs_lens_query_symbols_absent_from_corpus(packed_calls):
    corpus = [seq("aaaa"), seq("bbbbbbbbb"), seq("ab")]
    assert lcs_lens(seq("xyz"), corpus) == [0, 0, 0]
    assert lcs_lens(seq("xaybz"), corpus) == scalar_lens(seq("xaybz"), corpus)
    assert packed_calls == [3, 3]


def test_lcs_lens_corpus_holding_the_query_gives_distance_zero(packed_calls):
    q = seq("gattaca")
    corpus = [seq("gatt"), q, seq("gattacagattaca"), SymbolSeq(q.ids)]
    assert lcs_lens(q, corpus) == [4, 7, 7, 7]
    ds = distances(q, corpus)
    assert ds[1] == 0.0 and ds[3] == 0.0
    assert all(d > 0.0 for d in (ds[0], ds[2]))
    assert ds == [distance(q, s) for s in corpus]
    assert packed_calls == [4, 4]


def test_lcs_lens_one_line_corpus(packed_calls):
    assert lcs_lens(seq("ABCBDAB"), [seq("BDCABA")]) == [4]
    assert packed_calls == [1]


def test_lcs_lens_ids_of_256_or_more_run_per_pair(packed_calls, profile_calls):
    wide = SymbolSeq((1, 256, 2, 300))
    narrow = [SymbolSeq((1, 2, 3)), SymbolSeq((2, 1))]
    assert lcs_lens(SymbolSeq((1, 2)), narrow + [wide]) == [2, 1, 2]
    assert lcs_lens(wide, narrow) == [2, 1]
    assert packed_calls == []
    assert profile_calls == [3, 2]
    assert lcs_lens(SymbolSeq((1, 2)), narrow) == [2, 1]
    assert packed_calls == [2]
    assert profile_calls == [3, 2]


def test_lcs_lens_query_with_many_distinct_symbols_runs_per_pair(
    packed_calls, profile_calls
):
    rng = random.Random(5)
    corpus = [SymbolSeq(tuple(rng.randrange(200) for _ in range(40))) for _ in range(30)]
    many = SymbolSeq(tuple(range(100)))  # 100 masks of 30 lanes > 8 bytes an id
    assert lcs_lens(many, corpus) == scalar_lens(many, corpus)
    assert packed_calls == []
    assert profile_calls == [30]
    few = SymbolSeq(tuple(range(0, 200, 20)))
    assert lcs_lens(few, corpus) == scalar_lens(few, corpus)
    assert packed_calls == [30]
    assert profile_calls == [30]


@pytest.mark.parametrize("engine", ["dp", "bitparallel", "huntszymanski"])
def test_lcs_lens_runs_named_engines_per_pair(engine, packed_calls, profile_calls):
    corpus = [seq("acgt"), seq("gatc"), seq("")]
    assert lcs_lens(seq("cat"), corpus, engine) == [2, 2, 0]
    wide = [SymbolSeq((1, 256, 2)), SymbolSeq((300,))]
    assert lcs_lens(SymbolSeq((2, 300, 1)), wide, engine) == [1, 1]
    assert packed_calls == profile_calls == []


@given(
    q=symbol_seqs(6, 40),
    corpus=st.lists(symbol_seqs(6, 80), min_size=1, max_size=12),
)
@settings(max_examples=300, deadline=None)
def test_lcs_lens_matches_scalar_on_random_corpora(q, corpus):
    assert lcs_lens(q, corpus) == scalar_lens(q, corpus)


# -- the query profile --------------------------------------------------------


def assert_profile_matches_oracles(q, lines):
    lcs = lcs_mod.lcs_profile(q)
    expected = [lcs_len_dp(q, s) for s in lines]
    assert [lcs(s) for s in lines] == expected == scalar_lens(q, lines)


def test_profile_of_an_empty_query_gives_zero_for_every_line():
    lines = [seq(""), seq("acgt"), SymbolSeq((300, 1)), seq("")]
    assert [lcs_mod.lcs_profile(seq(""))(s) for s in lines] == [0, 0, 0, 0]
    assert_profile_matches_oracles(seq(""), lines)


def test_profile_against_empty_lines():
    assert_profile_matches_oracles(seq("gattaca"), [seq(""), seq("cat"), seq("")])


def test_profile_of_a_query_longer_or_shorter_than_every_line():
    lines = [seq("acgt"), seq("ttga"), seq("ca")]
    assert_profile_matches_oracles(seq("acgtacgtacgtgattaca"), lines)
    assert_profile_matches_oracles(seq("ag"), [seq("agcta" * 3), seq("ttttgggga")])


def test_profile_skips_line_symbols_absent_from_the_query():
    lines = [seq("xyz"), seq("xaybzc"), seq("cxbxax")]
    assert [lcs_mod.lcs_profile(seq("abc"))(s) for s in lines] == [0, 3, 1]
    assert_profile_matches_oracles(seq("abc"), lines)


def test_profile_with_ids_of_256_or_more():
    q = SymbolSeq((256, 1, 70_000, 256, 2**40))
    lines = [SymbolSeq((1, 256, 2**40)), SymbolSeq((70_000, 256, 0)), SymbolSeq((257,))]
    assert_profile_matches_oracles(q, lines)


def test_profile_of_a_long_query_against_short_lines():
    rng = random.Random(11)
    q = SymbolSeq(tuple(rng.randrange(4) for _ in range(4_096)))
    lines = [SymbolSeq(tuple(rng.randrange(5) for _ in range(8))) for _ in range(20)]
    assert_profile_matches_oracles(q, lines)


@given(data=st.data(), alphabet=st.integers(1, 300))
@settings(max_examples=200, deadline=None)
def test_profile_matches_the_scalar_engines(data, alphabet):
    q = data.draw(symbol_seqs(alphabet, 60))
    lines = data.draw(st.lists(symbol_seqs(alphabet, 80), max_size=8))
    assert_profile_matches_oracles(q, lines)
