import importlib
import pickle
import random

import pytest
from hypothesis import example, given, settings
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
    assert s.ids == bytes([0, 1, 2, 0, 1, 2])
    assert it.alphabet_size == 3


def test_symbolseq_basics():
    s = SymbolSeq((1, 2, 3))
    assert len(s) == 3
    assert list(s) == [1, 2, 3]
    assert s[1] == 2
    assert SymbolSeq([1, 2, 3]) == s  # coerced to the canonical bytes
    assert len(SymbolSeq(())) == 0


def test_symbolseq_is_an_immutable_value():
    s = SymbolSeq((1, 2, 3))
    lcs_lens(seq("ab"), [s])  # packing s leaves the value as it was
    assert s == SymbolSeq((1, 2, 3)) and hash(s) == hash(SymbolSeq([1, 2, 3]))
    assert s != SymbolSeq((1, 2)) and s != (1, 2, 3)
    assert repr(s) == r"SymbolSeq(ids=b'\x01\x02\x03')"
    assert repr(SymbolSeq((1, 256))) == "SymbolSeq(ids=(1, 256))"
    assert pickle.loads(pickle.dumps(s)) == s
    with pytest.raises(AttributeError):
        s.ids = (4,)
    with pytest.raises(AttributeError):
        del s.ids
    with pytest.raises(AttributeError):
        s.extra = 1


# Alphabets on both sides of 256, so that ids take both canonical forms.
ALPHABETS = st.one_of(st.integers(1, 8), st.integers(250, 262), st.integers(263, 600))


@given(data=st.data(), alphabet=ALPHABETS)
@settings(max_examples=200, deadline=None)
def test_symbolseq_has_one_canonical_form(data, alphabet):
    ids = data.draw(st.lists(st.integers(0, alphabet - 1), max_size=40))
    forms = [SymbolSeq(tuple(ids)), SymbolSeq(list(ids)), SymbolSeq(i for i in ids)]
    wide = any(i >= 256 for i in ids)
    if not wide:
        forms.append(SymbolSeq(bytes(ids)))
    assert all(s == forms[0] and hash(s) == hash(forms[0]) for s in forms)
    assert all((type(s.ids) is bytes) == (not wide) for s in forms)
    assert all(list(s.ids) == ids for s in forms)


@st.composite
def corpora(draw):
    """(mode, lines, prefix): lines in one CLI tokenization mode over a
    drawn alphabet, and lines interned before them.  ``codepoints``
    alphabets start at U+0000 (NUL and control characters), in ASCII,
    Latin-1 or CJK, at U+FFF0 (through U+FFFE and U+FFFF) or at U+1F600
    (astral).  One line may hold the whole alphabet, so that more than
    256 symbols occur; or the alphabet may arrive over several lines, the
    first of them holding up to 256 symbols, so that the 256th symbol
    can first appear partway through the corpus."""
    mode = draw(st.sampled_from(["codepoints", "bytes", "words"]))
    alphabet = min(256, draw(ALPHABETS)) if mode == "bytes" else draw(ALPHABETS)
    if mode == "codepoints":
        base = draw(st.sampled_from([0x0, 0x20, 0xA0, 0x4E00, 0xFFF0, 0x1F600]))
        tokens = [chr(base + i) for i in range(alphabet)]
    elif mode == "bytes":
        tokens = list(range(alphabet))
    else:
        tokens = [f"w{i}" for i in range(alphabet)]
    index_lines = st.lists(st.integers(0, alphabet - 1), max_size=30)
    lines = draw(st.lists(index_lines, max_size=12))
    if draw(st.booleans()):
        lines.append(draw(st.permutations(range(alphabet))))
    if draw(st.booleans()):
        order = draw(st.permutations(range(alphabet)))
        cut = draw(st.integers(200, 256))
        lines += [order[:cut], *draw(st.lists(index_lines, max_size=2)), order[cut:]]
    prefix = draw(st.lists(index_lines, max_size=3))

    def form(ix):
        ts = [tokens[i] for i in ix]
        return {"codepoints": "".join, "bytes": bytes, "words": list}[mode](ts)

    return mode, [form(ix) for ix in lines], [form(ix) for ix in prefix]


@given(case=corpora())
@settings(max_examples=200, deadline=None)
def test_interner_seqs_matches_seq_line_by_line(case):
    mode, lines, prefix = case
    one, batched = Interner(), Interner()
    for line in prefix:
        assert one.seq(line) == batched.seq(line)
    expected = [one.seq(line) for line in lines]
    got = batched.seqs(lines)
    assert got == expected
    assert [type(s.ids) for s in got] == [type(s.ids) for s in expected]
    assert batched.alphabet_size == one.alphabet_size
    # every token keeps its id: the interners map the same tokens alike
    assert [batched.intern(t) for t in one._ids] == list(one._ids.values())


@pytest.mark.parametrize(
    "odd", ["\0", "\ufffe", "\U0001f600"], ids=["nul", "u+fffe", "astral"]
)
def test_interner_seqs_takes_code_points_the_codec_map_cannot_hold(odd):
    # U+0000 would encode to byte 0 without an error; the others cannot be
    # mapped.  Each arrives here as the one new symbol of its line.
    lines = ["ab", f"b{odd}a", "ca", odd, "abc"]
    one = Interner()
    assert Interner().seqs(lines) == [one.seq(line) for line in lines]


def test_interner_seqs_stops_the_codec_where_its_map_is_full(monkeypatch):
    # one new code point a line: the codec map is rebuilt for each of the
    # first 256 lines, and the 256th symbol sends the rest of the corpus
    # to the general path at once, not line by line
    builds = []
    codec = lcs_mod._codec
    monkeypatch.setattr(
        lcs_mod, "_codec", lambda ids: builds.append(len(ids)) or codec(ids)
    )
    lines = [chr(0x4E00 + i) * 3 for i in range(600)]
    one = Interner()
    assert Interner().seqs(lines) == [one.seq(line) for line in lines]
    assert builds[1:] == list(range(1, 257))  # after the build at the start


def test_interner_seqs_needs_a_map_of_few_blocks():
    # charmap_build gives a fast map only while the symbols lie in at most
    # 254 distinct 128-code-point blocks; the 255th block takes the
    # general path, with the same ids
    lines = [chr(0x80 * i + 0x41) * 2 for i in range(1, 300)]
    one = Interner()
    assert Interner().seqs(lines) == [one.seq(line) for line in lines]
    assert len(Interner()._encode(lines)) == 254


def test_query_adding_the_257th_symbol_takes_the_profile(packed_calls, profile_calls):
    # a 256-symbol corpus packs; a query that brings the 257th symbol has
    # an id of 256, so lcs_lens runs its profile over the corpus instead
    interner = Interner()
    rng = random.Random(7)
    alphabet = [chr(0x100 + i) for i in range(256)]
    lines = ["".join(alphabet)] + [
        "".join(rng.choices(alphabet, k=rng.randint(0, 60))) for _ in range(30)
    ]
    corpus = interner.seqs(lines)
    assert all(type(s.ids) is bytes for s in corpus) and interner.alphabet_size == 256
    query = interner.seq(alphabet[5:40] + [chr(0x4E00)] + alphabet[90:99])
    assert type(query.ids) is tuple and 256 in query.ids
    # the scalar engine is one profile per pair
    expected = [lcs_len(query, s) for s in corpus]
    assert profile_calls == [1] * len(corpus)
    profile_calls.clear()
    assert lcs_lens(query, corpus) == expected
    assert packed_calls == [] and profile_calls == [len(corpus)]
    narrow = interner.seq(alphabet[:50])
    expected = [lcs_len(narrow, s) for s in corpus]
    profile_calls.clear()
    assert lcs_lens(narrow, corpus) == expected
    assert packed_calls == [len(corpus)] and profile_calls == []


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
    after = lcs_len(SymbolSeq((*a.ids, sym)), SymbolSeq((*b.ids, sym)))
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
    # every lane is guard bits only
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


def test_lcs_lens_query_with_many_distinct_symbols_packs(
    packed_calls, profile_calls, mask_calls
):
    # every packed call takes its masks as one AND of two part masks, so
    # a query with 100 distinct symbols keeps two mask sets, as one with
    # 10 does, within the budget of 8 bytes an id
    rng = random.Random(5)
    corpus = [SymbolSeq(tuple(rng.randrange(200) for _ in range(40))) for _ in range(30)]
    budget = 8 * sum(map(len, corpus))
    text_bytes = sum(len(s) // 8 + 1 for s in corpus)
    many = SymbolSeq(tuple(range(100)))
    few = SymbolSeq(tuple(range(0, 200, 20)))
    for q in (many, few):
        expected = scalar_lens(q, corpus)
        profile_calls.clear()
        assert lcs_lens(q, corpus) == expected
        assert packed_calls[-1] == 30 and profile_calls == []
        _, sets, held = mask_calls[-1]
        assert sets == 2 and held <= 32 * text_bytes <= budget
    assert len(mask_calls) == 2
    # an id of 256 or more still runs the query's profile, built once
    wide = SymbolSeq((*many.ids, 256))
    expected = scalar_lens(wide, corpus)
    profile_calls.clear()
    assert lcs_lens(wide, corpus) == expected
    assert packed_calls == [30, 30] and profile_calls == [30]
    assert len(mask_calls) == 2


@st.composite
def wide_queries(draw):
    # alphabets up to 256 ids and queries with 100 or more distinct symbols,
    # each symbol's mask an AND of two of at most 16 + 16 part masks; lines
    # come from a drawn seed, as in slices
    alphabet = draw(st.integers(100, 256))
    rng = random.Random(draw(st.integers(0, 2**32)))
    distinct = rng.sample(range(alphabet), rng.randint(100, alphabet))
    q = SymbolSeq(tuple(distinct + rng.choices(distinct, k=rng.randint(0, 100))))
    longest = draw(st.sampled_from([0, 8, 64, 300]))
    corpus = [
        SymbolSeq(tuple(rng.randrange(alphabet) for _ in range(rng.randint(0, longest))))
        for _ in range(draw(st.integers(1, 12)))
    ]
    return q, corpus


@given(case=wide_queries())
@settings(max_examples=100, deadline=None)
def test_lcs_lens_with_many_distinct_query_symbols_matches_scalar(case):
    q, corpus = case
    assert lcs_lens(q, corpus) == scalar_lens(q, corpus)


def _translate_masks(text, symbols):
    # the reference builder: one translate pass over the text per symbol
    zeros = b"0" * 256
    masks = {}
    for s in symbols:
        mask = int(text.translate(zeros[:s] + b"1" + zeros[s + 1 :]), 2)
        if mask:
            masks[s] = mask
    return masks


@st.composite
def packed_texts(draw):
    # lanes of random ids, empty ones included, below a drawn bound, and
    # query ids below another: text bytes may carry bits no query id has,
    # and query symbols may be absent from the text
    text_top = draw(st.sampled_from([1, 2, 4, 200, 256]))
    query_top = draw(st.sampled_from([1, 2, 4, 16, 256]))
    lines = draw(
        st.lists(st.lists(st.integers(0, text_top - 1), max_size=20), min_size=1, max_size=8)
    )
    text = b"".join(lcs_mod._lane(SymbolSeq(ids)) for ids in lines)
    symbols = draw(st.sets(st.integers(0, query_top - 1), max_size=40))
    return text, symbols


@given(case=packed_texts())
@example(case=(lcs_mod._lane(SymbolSeq((0, 255, 7, 0))), {0, 255}))
@example(case=(lcs_mod._lane(SymbolSeq((200, 3, 64, 1))) * 2, {0, 1, 3}))
@example(case=(lcs_mod._lane(SymbolSeq(())) * 3, {0, 5}))
@example(case=(lcs_mod._lane(SymbolSeq((9, 9))), {10, 11, 254}))
@settings(max_examples=300, deadline=None)
def test_plane_masks_equal_one_translate_pass_per_symbol(case):
    text, symbols = case
    oracle = _translate_masks(text, symbols)
    if symbols:
        root, planes = lcs_mod._bit_planes(text, max(symbols))
        assert lcs_mod._plane_masks(root, planes, symbols) == oracle
        mask_of = lcs_mod._stepped_masks(text, symbols)
        assert {s: mask_of(s) for s in symbols} == {s: oracle.get(s, 0) for s in symbols}


@given(
    q=symbol_seqs(6, 40),
    corpus=st.lists(symbol_seqs(6, 80), min_size=1, max_size=12),
)
@settings(max_examples=300, deadline=None)
def test_lcs_lens_matches_scalar_on_random_corpora(q, corpus):
    assert lcs_lens(q, corpus) == scalar_lens(q, corpus)
    assert lcs_lens(q, corpus) == lcs_mod.lcs_rows([q, *corpus])[0]


# -- the row form -------------------------------------------------------------


def _long_lines(n, seed, alphabet=200):
    # long lines over a wide alphabet: many distinct symbols a row, and
    # far more over the slice
    rng = random.Random(seed)
    return [
        SymbolSeq(tuple(rng.randrange(alphabet) for _ in range(rng.randint(100, 300))))
        for _ in range(n)
    ]


@st.composite
def slices(draw):
    # drawn lists of hundreds of ids overrun hypothesis's buffer, so the
    # lines come from a drawn seed
    alphabet = draw(st.one_of(st.integers(1, 255), st.integers(257, 400)))
    longest = draw(st.sampled_from([0, 8, 64, 300]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    lines = [
        SymbolSeq(tuple(rng.randrange(alphabet) for _ in range(rng.randint(0, longest))))
        for _ in range(draw(st.integers(0, 40)))
    ]
    repeats = draw(st.lists(st.sampled_from(lines), max_size=5)) if lines else []
    return draw(st.permutations(lines + repeats))


@given(seqs=slices())
@example(seqs=[])
@example(seqs=[seq("")])
@example(seqs=[seq("gattaca")])
@example(seqs=[seq(""), seq("acgt"), seq(""), seq("acgt"), seq("t"), seq("")])
@example(seqs=[seq(""), seq(""), seq(""), seq("gattaca")])  # no row has a symbol
@example(seqs=[SymbolSeq(bytes(n)) for n in (3, 0, 9, 1, 9)])  # one symbol, id 0
@example(seqs=_long_lines(40, 9))
@example(seqs=_long_lines(30, 4) + _long_lines(2, 4) + [SymbolSeq((256, 3))])
@example(  # the only wide id in the first line: later rows pack or profile
    seqs=[SymbolSeq((256, 0, 1)), seq("acgt" * 3), seq("gattaca"), seq("")]
    + _long_lines(4, 7)
)
@settings(max_examples=300, deadline=None)
def test_lcs_rows_match_scalar_pair_by_pair(seqs):
    rows = lcs_mod.lcs_rows(seqs)
    assert len(rows) == len(seqs)
    for i, row in enumerate(rows):
        assert row == scalar_lens(seqs[i], seqs[i + 1 :])


def test_lcs_rows_of_long_lines_pack_the_slice_once(mask_calls, packed_calls):
    # one build of part masks over the whole slice, within the budget of
    # 8 bytes a symbol, and row i over the lanes after line i; the rows'
    # table adds one mask per distinct symbol on top of them
    seqs = _long_lines(40, 9)
    lcs_mod.lcs_rows(seqs)
    assert packed_calls == list(range(39, 0, -1))
    [(text, sets, held)] = mask_calls
    assert text == b"".join(map(lcs_mod._lane, seqs))
    assert sets == 2 and held <= 8 * sum(map(len, seqs))


@pytest.mark.parametrize(
    "seqs",
    [
        _long_lines(40, 9),
        [
            SymbolSeq(bytes(random.Random(i).choices(b"acgt", k=8 + 7 * i % 57)))
            for i in range(30)
        ],
    ],
    ids=["long-40", "acgt-30"],
)
def test_lcs_rows_read_one_table_of_masks(seqs, packed_calls):
    # every row reads the same table: one match mask for each symbol of
    # the rows before the last, zero masks dropped, as one translate pass
    # per symbol builds it; lcs_lens keeps stepping its part masks
    text = b"".join(map(lcs_mod._lane, seqs))
    symbols = set().union(*[s.ids for s in seqs[:-1]])
    assert lcs_mod.lcs_rows(seqs)[0] == lcs_lens(seqs[0], seqs[1:])
    table, stepped = packed_calls.sources
    assert table.__self__ == _translate_masks(text, symbols)
    assert not isinstance(getattr(stepped, "__self__", None), dict)


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
