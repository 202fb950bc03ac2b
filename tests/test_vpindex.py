import hashlib
import os
import pickle
import random
from array import array

import pytest

from harmdist import IndexFormatError, SymbolSeq, VpTree, distance
from harmdist import vpindex
from harmdist.vpindex import LEAF_SIZE
from helpers import (
    BAD_INDEXES_OF_12,
    V1_INDEX_OF_12,
    V2_INDEX_OF_12,
    V3_INDEX_OF_12,
    V4_INDEX_OF_12,
    hvpt_bytes,
    random_seq,
)


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
        i for i, s in enumerate(corpus) if distance(q, s) <= r
    }


def linear_knn(corpus, q, k):
    ranked = sorted(
        (distance(q, s), i) for i, s in enumerate(corpus)
    )
    return [(i, d) for d, i in ranked[:k]]


def pairwise_distances(q, corpus):
    """``metric.distances`` pair by pair, through the scalar bit-parallel
    engine."""
    return [distance(q, s, engine="bitparallel") for s in corpus]


def oracle_distance(a, b):
    """``metric.distance`` through the Hunt-Szymanski oracle engine."""
    return distance(a, b, engine="huntszymanski")


@pytest.fixture(scope="module")
def corpus():
    return make_corpus(300, seed=5)


@pytest.fixture(scope="module")
def tree(corpus):
    return VpTree.build(corpus, seed=7)


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        VpTree.build([], seed=0)


def test_single_string_is_one_leaf():
    t = VpTree.build([SymbolSeq((1, 2))], seed=0)
    assert t.order == array("I", [0])
    assert t.radii == array("d", [0.0])


def test_duplicate_corpus_queries_return_everything():
    corpus = [SymbolSeq((0, 1, 0))] * 20
    t = VpTree.build(corpus, seed=3)
    t.validate()
    assert t.range_query(corpus[0], 0.0) == set(range(20))
    hits = t.knn(corpus[0], 5)
    assert hits == [(i, 0.0) for i in range(5)]  # ties break by index


@pytest.mark.parametrize("seed", range(5))
def test_ties_across_several_leaves_match_the_scan(seed):
    # 200 lines of 3 distinct strings make inner nodes whose pivots tie
    # with many of their members, on both sides of the radius
    distinct = [SymbolSeq((0, 1, 0)), SymbolSeq((2, 2)), SymbolSeq((1, 0, 3, 3))]
    rng = random.Random(seed)
    corpus = [rng.choice(distinct) for _ in range(200)]
    t = VpTree.build(corpus, seed=seed)
    t.validate()
    for q in [*distinct, SymbolSeq(())]:
        for k in (1, 10, len(corpus)):
            assert t.knn(q, k) == linear_knn(corpus, q, k)
        for r in (0.0, 0.3, 10.0):
            assert t.range_query(q, r) == linear_range(corpus, q, r)


def test_node_invariants_hold(tree):
    tree.validate()


def test_build_is_deterministic(corpus, tree):
    again = VpTree.build(corpus, seed=7)
    assert again.order == tree.order
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
    assert packed.radii == scalar.radii
    packed.save(tmp_path / "packed.hvpt")
    scalar.save(tmp_path / "scalar.hvpt")
    assert (tmp_path / "packed.hvpt").read_bytes() == (
        tmp_path / "scalar.hvpt"
    ).read_bytes()


def test_search_equals_the_oracle_search(monkeypatch):
    # the search takes each pivot's distance through the scalar distance and
    # each leaf's through one lcs_lens call; the fakes go through an oracle
    # engine and pair by pair.  Long lines over a wide alphabet pack the
    # leaves, and ids of 256 and more send them through the profile that
    # lcs_lens falls back to
    for corpus_of, hits in (
        (lambda seed, n: wide_alphabet_corpus(n, seed), 31),
        (lambda seed, n: make_corpus(n, seed=seed, alphabet=1_000), 35),
    ):
        corpus = corpus_of(4, 300)
        queries = [corpus[0], corpus[150], *corpus_of(9, 4)]
        wide = sorted(distance(queries[2], s) for s in corpus)[30]

        def run_all():
            t = VpTree.build(corpus, seed=7)
            return [
                [t.knn(q, k) for q in queries] + [t.stats(queries, k=k)]
                for k in (1, 10)
            ] + [
                [t.range_query(q, r) for q in queries] + [t.stats(queries, radius=r)]
                for r in (0.0, wide)
            ]

        searched = run_all()
        with monkeypatch.context() as m:
            m.setattr(vpindex, "distances", pairwise_distances)
            m.setattr(vpindex, "distance", oracle_distance)
            assert run_all() == searched
        # radius 0 prunes, and the wide radius finds the 31 lines around
        # query 2, and on the short wide-id lines 4 more tied with the 31st
        assert sum(searched[2][-1].evaluations) < len(queries) * len(corpus)
        assert len(searched[3][2]) == hits


def test_a_search_takes_each_leaf_in_one_packed_call(packed_calls, monkeypatch):
    corpus = make_corpus(600, seed=6)
    tree = VpTree.build(corpus, seed=1)
    leaves, pivots, stack = [], set(), [(0, len(corpus))]
    while stack:
        lo, hi = stack.pop()
        if hi - lo <= LEAF_SIZE:
            leaves.append(list(tree.order[lo:hi]))
        else:
            pivots.add(tree.order[lo])
            p = vpindex._split(lo, hi)
            stack += ((lo + 1, p), (p, hi))
    index_of = {id(s): i for i, s in enumerate(corpus)}
    leaf_calls, pivot_calls = [], []
    real_distances, real_distance = vpindex.distances, vpindex.distance

    def distances(q, seqs):
        leaf_calls.append([index_of[id(s)] for s in seqs])
        return real_distances(q, seqs)

    def distance(q, s):
        pivot_calls.append(index_of[id(s)])
        return real_distance(q, s)

    monkeypatch.setattr(vpindex, "distances", distances)
    monkeypatch.setattr(vpindex, "distance", distance)
    rng = random.Random(8)
    visits = []
    for q in [random_seq(rng, 4, 48) for _ in range(3)] + [corpus[5], corpus[400]]:
        expected = linear_knn(corpus, q, 10)
        for calls in (packed_calls, leaf_calls, pivot_calls):
            calls.clear()
        assert tree.knn(q, 10) == expected
        # each pivot reached once through distance, one packed call over
        # the whole of each leaf reached, and no line evaluated twice
        assert pivot_calls and set(pivot_calls) <= pivots
        assert packed_calls == [len(lanes) for lanes in leaf_calls]
        assert all(lanes in leaves for lanes in leaf_calls)
        evaluated = [i for lanes in leaf_calls for i in lanes] + pivot_calls
        assert len(set(evaluated)) == len(evaluated)
        visits.append(len(leaf_calls))
        assert tree.stats([q], k=10).evaluations == (len(evaluated),)
    # the searches reach several leaves, and some prune leaves away
    assert min(visits) > 1 and min(visits) < len(leaves)


def test_criterion_7_evaluation_counts_are_pinned(monkeypatch):
    # the acceptance suite's seeded corpus and queries (criterion 7): every
    # distance a search evaluates goes once through distance (a pivot) or
    # distances (a leaf), and the scanned fractions are 0.684 (knn) and
    # 0.529 (range)
    rng = random.Random(77)
    corpus = [random_seq(rng, 4, 64) for _ in range(2_000)]
    queries = [random_seq(rng, 4, 64) for _ in range(50)]
    tree = VpTree.build(corpus, seed=7)
    calls = []
    real_distances, real_distance = vpindex.distances, vpindex.distance

    def distances(q, seqs):
        calls.extend(seqs)
        return real_distances(q, seqs)

    def distance(q, s):
        calls.append(s)
        return real_distance(q, s)

    monkeypatch.setattr(vpindex, "distances", distances)
    monkeypatch.setattr(vpindex, "distance", distance)
    knn = tree.stats(queries, k=10)
    assert len(calls) == sum(knn.evaluations) == 68_367
    assert knn.evaluations[:10] == (
        1565, 1876, 1690, 1565, 1690, 501, 1565, 1439, 1315, 128
    )
    assert round(knn.mean_fraction_scanned, 3) == 0.684
    calls.clear()
    near = tree.stats(queries, radius=0.3)
    assert len(calls) == sum(near.evaluations) == 52_913
    assert near.evaluations[:10] == (
        1315, 1442, 1565, 1315, 1380, 252, 1315, 943, 1065, 128
    )
    assert round(near.mean_fraction_scanned, 3) == 0.529


def test_different_seed_changes_nothing_about_results(corpus, tree):
    other = VpTree.build(corpus, seed=8)
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
    t = VpTree.build(corpus, seed=0)
    stats = t.stats(corpus[:3], radius=0.5)
    assert stats.evaluations == (LEAF_SIZE,) * 3
    assert stats.mean_fraction_scanned == 1.0


def test_stats_duplicate_corpus_never_prunes():
    corpus = [SymbolSeq((2, 2))] * 40
    t = VpTree.build(corpus, seed=1)
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
#: stats(radius=0.5), stats(k=1) and stats(k=10) with 64-line leaves and
#: each pivot in neither of its children, then
#: the SHA-256 of the range_query(q, 0.5) and knn(q, 10) results, recorded
#: from the separate range and knn traversals that the shared one replaced.
PINNED_SEARCHES = {
    (4, 400, 48): (
        (200, 102, 351, 252, 252, 203, 252, 252),
        (400, 151, 400, 252, 351, 351, 252, 252),
        (400, 102, 400, 102, 151, 104, 152, 52),
        (400, 200, 400, 351, 351, 351, 351, 351),
        "3d04727b6ff7b6bd2d8665e9c6f68c2a880737aa8ca16f47bddb79f463a70b53",
    ),
    (200, 150, 120): (
        (75, 150, 75, 150, 76, 75, 75, 150),
        (150, 150, 150, 150, 76, 75, 75, 150),
        (150, 150, 150, 39, 39, 75, 38, 39),
        (150, 150, 150, 150, 76, 150, 150, 150),
        "48da4205a1dc2c28fbbf01329598a1e999a07489e0bc6f783d7c8c7f2b410768",
    ),
}


@pytest.mark.parametrize("alphabet, n, max_length", sorted(PINNED_SEARCHES))
def test_search_evaluates_and_returns_what_was_pinned(alphabet, n, max_length):
    corpus = make_corpus(n, seed=11, alphabet=alphabet, max_length=max_length)
    tree = VpTree.build(corpus, seed=3)
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
    loaded = VpTree.load(path, corpus)
    assert loaded.order == tree.order
    assert loaded.radii == tree.radii
    assert loaded.build_seed == tree.build_seed
    rng = random.Random(4)
    q = random_seq(rng, 4, 48)
    assert loaded.knn(q, 5) == tree.knn(q, 5)


def test_trees_and_stats_compare_by_value(tmp_path, corpus, tree):
    # a tree equals another over the same corpus, arrays and seed, survives
    # pickling, names its fields in its repr and has read-only fields;
    # stats are immutable values
    path = tmp_path / "corpus.hvpt"
    tree.save(path)
    assert VpTree.load(path, corpus) == tree
    assert VpTree.build(corpus, seed=8) != tree
    with pytest.raises(TypeError):
        hash(tree)
    with pytest.raises(AttributeError):
        tree.build_seed = 8
    assert pickle.loads(pickle.dumps(tree)) == tree
    small = VpTree.build(corpus[:2], 0)
    assert small == VpTree(
        corpus=small.corpus, order=small.order, radii=small.radii, build_seed=0
    )
    assert repr(small) == (
        f"VpTree(corpus={small.corpus!r}, order={small.order!r}, "
        f"radii={small.radii!r}, build_seed=0)"
    )
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
        VpTree.load(path, corpus)


def test_load_rejects_wrong_version(tmp_path, corpus, tree):
    path = tmp_path / "v2.hvpt"
    tree.save(path)
    data = bytearray(path.read_bytes())
    data[4:6] = (99).to_bytes(2, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(IndexFormatError):
        VpTree.load(path, corpus)


def test_load_rejects_corpus_mismatch(tmp_path, corpus, tree):
    path = tmp_path / "tree.hvpt"
    tree.save(path)
    with pytest.raises(IndexFormatError):
        VpTree.load(path, corpus[:-1])


def test_load_rejects_an_edited_corpus_of_the_same_size(tmp_path, corpus, tree):
    path = tmp_path / "tree.hvpt"
    tree.save(path)
    edited = list(corpus)
    edited[42] = SymbolSeq((*edited[42].ids, 0))
    with pytest.raises(IndexFormatError, match="different corpus"):
        VpTree.load(path, edited)


def _assert_bound_to_its_corpus(corpora, tmp_path):
    # a file written over each corpus loads against it alone among the
    # corpora of its line count
    corpora = [[SymbolSeq(ids) for ids in corpus] for corpus in corpora]
    path = tmp_path / "tree.hvpt"
    for corpus in corpora:
        n = len(corpus)
        path.write_bytes(hvpt_bytes(corpus, range(n), [0.0] * n))
        assert VpTree.load(path, corpus).order == array("I", range(n))
        for other in corpora:
            if other != corpus and len(other) == n:
                with pytest.raises(IndexFormatError, match="different corpus"):
                    VpTree.load(path, other)


def test_load_binds_a_file_to_the_lengths_and_ids_of_its_corpus(tmp_path):
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
    _assert_bound_to_its_corpus(corpora, tmp_path)


def test_load_hashes_ids_at_the_narrowest_width(tmp_path):
    # hvpt_bytes hashes each string's ids at the narrowest width that holds
    # them, independently of load
    corpora = [
        [(1, 2), ids]
        for ids in [(0, 255), (0, 256), (65_535,), (65_536, 1), (2**64 - 1,), ()]
    ]
    _assert_bound_to_its_corpus(corpora, tmp_path)


def test_load_rejects_a_version_1_file(tmp_path):
    path = tmp_path / "v1.hvpt"
    path.write_bytes(V1_INDEX_OF_12)
    with pytest.raises(IndexFormatError, match="version 1 .*delete the file"):
        VpTree.load(path, make_corpus(12))


def test_load_rejects_a_version_2_file(tmp_path):
    path = tmp_path / "v2.hvpt"
    path.write_bytes(V2_INDEX_OF_12)
    with pytest.raises(IndexFormatError, match="version 2 .*delete the file"):
        VpTree.load(path, make_corpus(12))


def test_load_rejects_a_version_3_file(tmp_path):
    path = tmp_path / "v3.hvpt"
    path.write_bytes(V3_INDEX_OF_12)
    with pytest.raises(IndexFormatError, match="version 3 .*delete the file"):
        VpTree.load(path, make_corpus(12))


def test_load_rejects_a_version_4_file(tmp_path):
    path = tmp_path / "v4.hvpt"
    path.write_bytes(V4_INDEX_OF_12)
    with pytest.raises(IndexFormatError, match="version 4 .*delete the file"):
        VpTree.load(path, make_corpus(12))


def test_load_rejects_truncation(tmp_path, corpus, tree):
    path = tmp_path / "cut.hvpt"
    tree.save(path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(IndexFormatError):
        VpTree.load(path, corpus)


def test_load_rejects_any_flipped_byte(tmp_path):
    corpus = make_corpus(12)
    path = tmp_path / "tree.hvpt"
    VpTree.build(corpus, seed=5).save(path)
    data = path.read_bytes()
    for offset in range(4, len(data)):
        flipped = bytearray(data)
        flipped[offset] ^= 0xFF
        path.write_bytes(bytes(flipped))
        with pytest.raises(IndexFormatError):
            VpTree.load(path, corpus)


@pytest.mark.parametrize("case", sorted(BAD_INDEXES_OF_12))
def test_load_rejects_indices_that_do_not_partition_the_corpus(tmp_path, case):
    arrays, defect = BAD_INDEXES_OF_12[case]
    corpus = make_corpus(12)
    path = tmp_path / f"{case}.hvpt"
    path.write_bytes(hvpt_bytes(corpus, *arrays))
    with pytest.raises(IndexFormatError, match=defect):
        VpTree.load(path, corpus)


def test_load_accepts_a_hand_made_partition(tmp_path):
    # LEAF_SIZE + 4 strings: the root's pivot, the last string, sits at
    # slot 0 with its radius, and the leaves order[1:p] and order[p:] hold
    # the rest; a leaf may list its elements in any order
    n = LEAF_SIZE + 4
    p = vpindex._split(0, n)
    assert p - 1 <= LEAF_SIZE and n - p <= LEAF_SIZE
    corpus = make_corpus(n)
    ranked = sorted(
        (distance(corpus[-1], s), i) for i, s in enumerate(corpus[:-1])
    )
    order = [n - 1] + [i for _, i in reversed(ranked[: p - 1])]
    order += [i for _, i in ranked[p - 1 :]]
    radii = [ranked[p - 2][0]] + [0.0] * (n - 1)
    path = tmp_path / "good.hvpt"
    path.write_bytes(hvpt_bytes(corpus, order, radii, seed=9))
    loaded = VpTree.load(path, corpus)
    loaded.validate()
    assert loaded.build_seed == 9
    for q in corpus[:4]:
        for k in (1, 3, n):
            assert loaded.knn(q, k) == linear_knn(corpus, q, k)
    again = tmp_path / "again.hvpt"
    loaded.save(again)
    assert again.read_bytes() == path.read_bytes()


def test_save_replaces_the_file_in_one_step(tmp_path, tree, monkeypatch):
    # a failed move leaves neither the file nor its temporary sibling
    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    path = tmp_path / "tree.hvpt"
    with pytest.raises(OSError, match="disk full"):
        tree.save(path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["missing/tree.hvpt"], ids=["missing-directory"])
def test_a_failed_save_names_the_path(tmp_path, tree, name):
    path = tmp_path / name
    with pytest.raises(OSError) as info:
        tree.save(path)
    assert info.value.filename == str(path) and info.value.filename2 is None
    assert list(tmp_path.iterdir()) == []


def test_a_save_at_the_name_length_limit_succeeds(tmp_path, corpus, tree):
    # a 255-byte name leaves no room to extend it, so the temporary file
    # takes a short name of its own; the saved file gets the mode a plain
    # write gives a new file
    path = tmp_path / ("x" * 250 + ".hvpt")
    tree.save(path)
    assert VpTree.load(path, corpus) == tree
    assert list(tmp_path.iterdir()) == [path]
    plain = tmp_path / "plain"
    plain.write_bytes(b"")
    assert path.stat().st_mode == plain.stat().st_mode


def test_save_overwrites_an_existing_file(tmp_path, corpus, tree):
    path = tmp_path / "tree.hvpt"
    path.write_bytes(b"stale")
    tree.save(path)
    assert VpTree.load(path, corpus) == tree
    assert [f.name for f in tmp_path.iterdir()] == ["tree.hvpt"]
    assert path.stat().st_size == 46 + 12 * len(corpus)
