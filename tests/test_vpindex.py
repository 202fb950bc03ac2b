import hashlib
import random
from array import array

import pytest

from harmdist import HarmonicTable, IndexFormatError, SymbolSeq, VpTree, distance
from harmdist import vpindex
from harmdist.vpindex import LEAF_SIZE, corpus_fingerprint
from helpers import (
    BAD_INDEXES_OF_12,
    V1_INDEX_OF_12,
    V2_INDEX_OF_12,
    corpus_bytes,
    hvpt_bytes,
    random_seq,
)

TABLE = HarmonicTable(10_000)


def make_corpus(n, seed=0, alphabet=4, max_length=48):
    rng = random.Random(seed)
    return [random_seq(rng, alphabet, max_length) for _ in range(n)]


def wide_alphabet_corpus(n, seed):
    """Lines of 100-400 ids below 200, as in the long-sparse benchmark."""
    rng = random.Random(seed)
    return [
        SymbolSeq(tuple(rng.randrange(200) for _ in range(rng.randint(100, 400))))
        for _ in range(n)
    ]


def linear_range(corpus, q, r):
    return {
        i for i, s in enumerate(corpus) if distance(q, s, table=TABLE) <= r
    }


def linear_knn(corpus, q, k):
    ranked = sorted(
        (distance(q, s, table=TABLE), i) for i, s in enumerate(corpus)
    )
    return [(i, d) for d, i in ranked[:k]]


def pairwise_distances(q, corpus, *, table=None):
    """``metric.distances`` pair by pair, through the scalar bit-parallel
    engine."""
    return [distance(q, s, table=table, engine="bitparallel") for s in corpus]


def pairwise_profile(q, *, table=None):
    """``metric.distance_profile`` pair by pair, through the scalar
    bit-parallel engine."""
    return lambda s: distance(q, s, table=table, engine="bitparallel")


@pytest.fixture(scope="module")
def corpus():
    return make_corpus(300, seed=5)


@pytest.fixture(scope="module")
def tree(corpus):
    return VpTree.build(corpus, seed=7, table=TABLE)


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        VpTree.build([], seed=0, table=TABLE)


def test_single_string_is_one_leaf():
    t = VpTree.build([SymbolSeq((1, 2))], seed=0, table=TABLE)
    assert t.order == t.pivots == array("I", [0])
    assert t.radii == array("d", [0.0])


def test_duplicate_corpus_queries_return_everything():
    corpus = [SymbolSeq((0, 1, 0))] * 20
    t = VpTree.build(corpus, seed=3, table=TABLE)
    t.validate()
    assert t.range_query(corpus[0], 0.0) == set(range(20))
    hits = t.knn(corpus[0], 5)
    assert hits == [(i, 0.0) for i in range(5)]  # ties break by index


def test_node_invariants_hold(tree):
    tree.validate()


def test_build_is_deterministic(corpus, tree):
    again = VpTree.build(corpus, seed=7, table=TABLE)
    assert again.order == tree.order
    assert again.pivots == tree.pivots
    assert again.radii == tree.radii


@pytest.mark.parametrize(
    "name, corpus_of",
    [
        # the criterion 7 corpus: every pivot's distances are packed
        ("acgt", lambda: make_corpus(2_000, seed=77, max_length=64)),
        # ids of 256 and more: every pivot's distances run through a profile
        ("wide-ids", lambda: make_corpus(300, seed=3, alphabet=1_000)),
        # long lines, ids below 200: each pivot's many distinct symbols get
        # their masks a step at a time, from part masks
        ("wide-alphabet", lambda: wide_alphabet_corpus(300, seed=4)),
    ],
)
def test_packed_build_equals_the_scalar_build(name, corpus_of, tmp_path, monkeypatch):
    corpus = corpus_of()
    packed = VpTree.build(corpus, seed=7)
    packed.validate()
    monkeypatch.setattr(vpindex, "distances", pairwise_distances)
    scalar = VpTree.build(corpus, seed=7)
    assert packed.order == scalar.order
    assert packed.pivots == scalar.pivots
    assert packed.radii == scalar.radii
    packed.save(tmp_path / "packed.hvpt")
    scalar.save(tmp_path / "scalar.hvpt")
    assert (tmp_path / "packed.hvpt").read_bytes() == (
        tmp_path / "scalar.hvpt"
    ).read_bytes()


def test_profiled_search_equals_the_scalar_search(monkeypatch):
    # long lines over a wide alphabet: the search evaluates each distance
    # through the query's profile, the fakes pair by pair
    corpus = wide_alphabet_corpus(300, seed=4)
    queries = [corpus[0], corpus[150], *wide_alphabet_corpus(4, seed=9)]
    wide = sorted(distance(queries[2], s, table=TABLE) for s in corpus)[30]

    def run_all():
        t = VpTree.build(corpus, seed=7, table=TABLE)
        return [
            [t.knn(q, k) for q in queries] + [t.stats(queries, k=k)] for k in (1, 10)
        ] + [
            [t.range_query(q, r) for q in queries] + [t.stats(queries, radius=r)]
            for r in (0.0, wide)
        ]

    profiled = run_all()
    monkeypatch.setattr(vpindex, "distances", pairwise_distances)
    monkeypatch.setattr(vpindex, "distance_profile", pairwise_profile)
    assert run_all() == profiled
    # radius 0 prunes, and the wide radius finds 31 lines around query 2
    assert sum(profiled[2][-1].evaluations) < len(queries) * len(corpus)
    assert len(profiled[3][2]) == 31


def test_different_seed_changes_nothing_about_results(corpus, tree):
    other = VpTree.build(corpus, seed=8, table=TABLE)
    rng = random.Random(2)
    for _ in range(10):
        q = random_seq(rng, 4, 48)
        assert other.range_query(q, 0.4) == tree.range_query(q, 0.4)


def test_range_matches_linear_scan(corpus, tree):
    rng = random.Random(1)
    for _ in range(25):
        q = random_seq(rng, 4, 48)
        for r in (0.0, 0.1, 0.3, 1.0):
            assert tree.range_query(q, r) == linear_range(corpus, q, r)


def test_range_r_zero_contains_self(corpus, tree):
    assert 0 in tree.range_query(corpus[0], 0.0)


def test_range_infinite_radius_returns_all(corpus, tree):
    assert tree.range_query(corpus[0], float("inf")) == set(range(len(corpus)))


def test_range_rejects_negative_radius(tree, corpus):
    with pytest.raises(ValueError):
        tree.range_query(corpus[0], -0.1)


def test_knn_matches_linear_scan(corpus, tree):
    rng = random.Random(9)
    for _ in range(25):
        q = random_seq(rng, 4, 48)
        for k in (1, 3, 10):
            assert tree.knn(q, k) == linear_knn(corpus, q, k)


def test_knn_query_in_corpus(corpus, tree):
    idx, d = tree.knn(corpus[17], 1)[0]
    assert d == 0.0
    assert corpus[idx] == corpus[17]
    assert idx == min(i for i, s in enumerate(corpus) if s == corpus[17])


def test_knn_k_beyond_corpus(corpus, tree):
    out = tree.knn(corpus[0], len(corpus) + 50)
    assert out == linear_knn(corpus, corpus[0], len(corpus))


def test_knn_rejects_nonpositive_k(tree, corpus):
    with pytest.raises(ValueError):
        tree.knn(corpus[0], 0)


def test_stats_single_leaf_scans_everything():
    corpus = make_corpus(LEAF_SIZE, seed=2)
    t = VpTree.build(corpus, seed=0, table=TABLE)
    stats = t.stats(corpus[:3], radius=0.5)
    assert stats.evaluations == (LEAF_SIZE,) * 3
    assert stats.mean_fraction_scanned == 1.0


def test_stats_duplicate_corpus_never_prunes():
    corpus = [SymbolSeq((2, 2))] * 40
    t = VpTree.build(corpus, seed=1, table=TABLE)
    stats = t.stats([corpus[0]], radius=0.0)
    assert stats.mean_fraction_scanned == 1.0


def test_stats_spread_corpus_prunes(corpus, tree):
    rng = random.Random(3)
    queries = [random_seq(rng, 4, 48) for _ in range(20)]
    stats = tree.stats(queries, radius=0.2)
    assert max(stats.evaluations) <= len(corpus)
    assert stats.mean_fraction_scanned < 1.0


def test_stats_requires_exactly_one_parameter(tree, corpus):
    with pytest.raises(ValueError):
        tree.stats([corpus[0]])
    with pytest.raises(ValueError):
        tree.stats([corpus[0]], radius=0.1, k=2)


def _near(rng, s, alphabet):
    ids = list(s.ids)
    for _ in range(2):
        ids.insert(rng.randint(0, len(ids)), rng.randrange(alphabet))
    return SymbolSeq(tuple(ids))


#: Per corpus: distance evaluations per query of stats(radius=0.2),
#: stats(radius=0.5), stats(k=1) and stats(k=10), then the SHA-256 of the
#: range_query(q, 0.5) and knn(q, 10) results; recorded from the separate
#: range and knn traversals that the shared one replaced.
PINNED_SEARCHES = {
    (4, 400, 48): (
        (138, 45, 236, 207, 269, 227, 182, 220),
        (343, 118, 349, 280, 285, 285, 274, 279),
        (343, 45, 349, 79, 67, 60, 89, 142),
        (377, 140, 361, 280, 285, 285, 285, 285),
        "3d04727b6ff7b6bd2d8665e9c6f68c2a880737aa8ca16f47bddb79f463a70b53",
    ),
    (200, 150, 120): (
        (66, 123, 71, 108, 76, 39, 39, 113),
        (150, 150, 150, 108, 76, 75, 75, 141),
        (150, 150, 150, 17, 26, 35, 30, 38),
        (150, 150, 150, 150, 76, 150, 150, 150),
        "48da4205a1dc2c28fbbf01329598a1e999a07489e0bc6f783d7c8c7f2b410768",
    ),
}


@pytest.mark.parametrize("alphabet, n, max_length", sorted(PINNED_SEARCHES))
def test_search_evaluates_and_returns_what_was_pinned(alphabet, n, max_length):
    corpus = make_corpus(n, seed=11, alphabet=alphabet, max_length=max_length)
    tree = VpTree.build(corpus, seed=3, table=TABLE)
    rng = random.Random(13)
    queries = [random_seq(rng, alphabet, max_length) for _ in range(3)]
    queries += [_near(rng, corpus[rng.randrange(n)], alphabet) for _ in range(5)]
    *evaluations, digest = PINNED_SEARCHES[alphabet, n, max_length]
    assert [
        tree.stats(queries, radius=0.2).evaluations,
        tree.stats(queries, radius=0.5).evaluations,
        tree.stats(queries, k=1).evaluations,
        tree.stats(queries, k=10).evaluations,
    ] == evaluations
    ranges = [sorted(tree.range_query(q, 0.5)) for q in queries]
    knns = [[(i, d.hex()) for i, d in tree.knn(q, 10)] for q in queries]
    assert hashlib.sha256(repr((ranges, knns)).encode()).hexdigest() == digest


# -- serialization --------------------------------------------------------------


def test_save_load_roundtrip(tmp_path, corpus, tree):
    path = tmp_path / "corpus.hvpt"
    tree.save(path)
    loaded = VpTree.load(path, corpus, table=TABLE)
    assert loaded.order == tree.order
    assert loaded.pivots == tree.pivots
    assert loaded.radii == tree.radii
    assert loaded.build_seed == tree.build_seed
    rng = random.Random(4)
    q = random_seq(rng, 4, 48)
    assert loaded.knn(q, 5) == tree.knn(q, 5)


def test_trees_and_stats_compare_by_value(tmp_path, corpus, tree):
    # a tree equals another over the same corpus, arrays and seed, whatever
    # table it computes with; stats are immutable values
    path = tmp_path / "corpus.hvpt"
    tree.save(path)
    assert VpTree.load(path, corpus, table=TABLE) == tree == VpTree.load(path, corpus)
    assert VpTree.build(corpus, seed=8, table=TABLE) != tree
    with pytest.raises(TypeError):
        hash(tree)
    stats = tree.stats(corpus[:3], k=2)
    assert stats == tree.stats(corpus[:3], k=2) != tree.stats(corpus[:2], k=2)
    assert hash(stats) == hash(tree.stats(corpus[:3], k=2))
    assert repr(stats) == f"PruningStats(corpus_size=300, evaluations={stats.evaluations})"
    with pytest.raises(AttributeError):
        stats.corpus_size = 1


def test_load_rejects_bad_magic(tmp_path, corpus):
    path = tmp_path / "bad.hvpt"
    path.write_bytes(b"NOPE" + bytes(30))
    with pytest.raises(IndexFormatError):
        VpTree.load(path, corpus, table=TABLE)


def test_load_rejects_wrong_version(tmp_path, corpus, tree):
    path = tmp_path / "v2.hvpt"
    tree.save(path)
    data = bytearray(path.read_bytes())
    data[4:6] = (99).to_bytes(2, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(IndexFormatError):
        VpTree.load(path, corpus, table=TABLE)


def test_load_rejects_corpus_mismatch(tmp_path, corpus, tree):
    path = tmp_path / "tree.hvpt"
    tree.save(path)
    with pytest.raises(IndexFormatError):
        VpTree.load(path, corpus[:-1], table=TABLE)


def test_load_rejects_an_edited_corpus_of_the_same_size(tmp_path, corpus, tree):
    path = tmp_path / "tree.hvpt"
    tree.save(path)
    edited = list(corpus)
    edited[42] = SymbolSeq(edited[42].ids + (0,))
    with pytest.raises(IndexFormatError, match="different corpus"):
        VpTree.load(path, edited, table=TABLE)


def test_fingerprint_differs_when_a_length_or_an_id_does():
    corpora = [
        [(1, 2), (3,)],
        [(1,), (2, 3)],
        [(1, 2), (3, 0)],
        [(1, 258), (3,)],
        [(1, 255), (3,)],
        [(1, 256), (3,)],
        [(1, 65_535), (3,)],
        [(1, 65_536), (3,)],
        [(1, 2), (3 + 2**40,)],
        [(1, 2)],
        [],
    ]
    fingerprints = {
        corpus_fingerprint([SymbolSeq(ids) for ids in corpus]) for corpus in corpora
    }
    assert len(fingerprints) == len(corpora)


def test_fingerprint_hashes_ids_at_the_narrowest_width():
    for ids in [(0, 255), (0, 256), (65_535,), (65_536, 1), (2**64 - 1,), ()]:
        corpus = [SymbolSeq((1, 2)), SymbolSeq(ids)]
        assert corpus_fingerprint(corpus) == hashlib.sha256(corpus_bytes(corpus)).digest()


def test_load_rejects_a_version_1_file(tmp_path):
    path = tmp_path / "v1.hvpt"
    path.write_bytes(V1_INDEX_OF_12)
    with pytest.raises(IndexFormatError, match="version 1 .*delete the file"):
        VpTree.load(path, make_corpus(12), table=TABLE)


def test_load_rejects_a_version_2_file(tmp_path):
    path = tmp_path / "v2.hvpt"
    path.write_bytes(V2_INDEX_OF_12)
    with pytest.raises(IndexFormatError, match="version 2 .*delete the file"):
        VpTree.load(path, make_corpus(12), table=TABLE)


def test_load_rejects_truncation(tmp_path, corpus, tree):
    path = tmp_path / "cut.hvpt"
    tree.save(path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(IndexFormatError):
        VpTree.load(path, corpus, table=TABLE)


def test_load_rejects_any_flipped_byte(tmp_path):
    corpus = make_corpus(12)
    path = tmp_path / "tree.hvpt"
    VpTree.build(corpus, seed=5, table=TABLE).save(path)
    data = path.read_bytes()
    for offset in range(4, len(data)):
        flipped = bytearray(data)
        flipped[offset] ^= 0xFF
        path.write_bytes(bytes(flipped))
        with pytest.raises(IndexFormatError):
            VpTree.load(path, corpus, table=TABLE)


@pytest.mark.parametrize("case", sorted(BAD_INDEXES_OF_12))
def test_load_rejects_indices_that_do_not_partition_the_corpus(tmp_path, case):
    arrays, defect = BAD_INDEXES_OF_12[case]
    corpus = make_corpus(12)
    path = tmp_path / f"{case}.hvpt"
    path.write_bytes(hvpt_bytes(corpus, *arrays))
    with pytest.raises(IndexFormatError, match=defect):
        VpTree.load(path, corpus, table=TABLE)


def test_load_accepts_a_hand_made_partition(tmp_path):
    # 12 strings: the root splits at slot 7 into leaves order[:7] and
    # order[7:]; a leaf may list its elements in any order
    corpus = make_corpus(12)
    ranked = sorted(
        (distance(corpus[11], s, table=TABLE), i) for i, s in enumerate(corpus[:11])
    )
    order = [11] + [i for _, i in reversed(ranked[:6])] + [i for _, i in ranked[6:]]
    pivots = [0] * 7 + [11] + [0] * 4
    radii = [0.0] * 7 + [ranked[5][0]] + [0.0] * 4
    path = tmp_path / "good.hvpt"
    path.write_bytes(hvpt_bytes(corpus, order, pivots, radii, seed=9))
    loaded = VpTree.load(path, corpus, table=TABLE)
    loaded.validate()
    assert loaded.build_seed == 9
    for q in corpus[:4]:
        for k in (1, 3, 12):
            assert loaded.knn(q, k) == linear_knn(corpus, q, k)
    again = tmp_path / "again.hvpt"
    loaded.save(again)
    assert again.read_bytes() == path.read_bytes()
