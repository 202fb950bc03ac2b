"""Vantage-point tree over a corpus of symbol sequences.

Because the harmonic edit distance is a true metric, a subtree whose
elements all lie within (or beyond) a pivot radius can be skipped
whenever the triangle inequality proves no member can qualify.  Prune
decisions carry a safety margin of PRUNE_MARGIN so float rounding can
never cause a false prune; query results are therefore exactly what a
linear scan returns.

The tree is three flat arrays of n slots.  ``order`` lists the corpus
indices leaf by leaf, so every node owns a range ``order[lo:hi]``.  A
range of more than LEAF_SIZE elements is an inner node; it splits at
``_split(lo, hi)``, which depends on the range's size alone, and slot
``p = _split(lo, hi)`` of ``pivots`` and ``radii`` holds its pivot and
radius.  The tree's shape therefore follows from n, and no node links
are stored.

Trees are immutable after ``build`` and safe for concurrent queries;
building is single-threaded and fully determined by (corpus order, seed).

Optional on-disk format, version 3 (little-endian): magic ``HVPT``,
version u16, seed u64, a SHA-256 over the seed, the corpus (as in
``corpus_fingerprint``) and the body, then the body: ``order`` as u32,
``pivots`` as u32 and ``radii`` as f64, n of each.
"""

from __future__ import annotations

import heapq
import math
import random
import struct
from array import array
from pathlib import Path
from typing import NamedTuple

try:  # CPython's own SHA-256; hashlib loads OpenSSL, 3.6 MB more resident
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from .errors import IndexFormatError
from .harmonic import HarmonicTable, default_table
from .lcs import SymbolSeq
from .metric import distance_profile, distances

LEAF_SIZE = 8
PRUNE_MARGIN = 1e-9

MAGIC = b"HVPT"
FORMAT_VERSION = 3
_HEADER = struct.Struct("<HQ32s")  # version, seed, digest


def _split(lo: int, hi: int) -> int:
    """Where the inner node over ``order[lo:hi]`` ends its inside child:
    the pivot plus the lower half of the rest, median included."""
    return lo + (hi - lo - 2) // 2 + 2


def _hash_corpus(h, corpus):
    h.update(struct.pack(f"<{len(corpus)}Q", *[len(s.ids) for s in corpus]))
    for s in corpus:
        try:  # a byte per id hashes eight times faster than a u64
            h.update(b"B" + bytes(s.ids))
        except ValueError:
            tag = "H" if max(s.ids) < 65536 else "Q"
            h.update(tag.encode() + struct.pack(f"<{len(s.ids)}{tag}", *s.ids))
    return h


def corpus_fingerprint(corpus) -> bytes:
    """SHA-256 over the lengths and symbol ids of the corpus strings, the
    only inputs the tree's distances depend on.

    The lengths come first, as little-endian u64; then each string's ids
    at the narrowest width that holds them all: tagged ``B`` and one byte
    each below 256, ``H`` and a little-endian u16 each below 65,536, else
    ``Q`` and a little-endian u64 each.
    """
    return _hash_corpus(sha256(), corpus).digest()


def _digest(seed: int, corpus, body: bytes) -> bytes:
    h = _hash_corpus(sha256(struct.pack("<Q", seed)), corpus)
    h.update(body)
    return h.digest()


class PruningStats(NamedTuple):
    """Distance-evaluation counts for a query batch; an immutable named
    tuple of its two fields."""

    corpus_size: int
    evaluations: tuple[int, ...]

    @property
    def mean_fraction_scanned(self) -> float:
        if not self.evaluations:
            return 0.0
        total = sum(self.evaluations)
        return total / (len(self.evaluations) * self.corpus_size)


# the fields that make two trees equal: the table changes how a query is
# computed, never what it returns
_TREE_FIELDS = ("corpus", "order", "pivots", "radii", "build_seed")


class VpTree:
    """A vantage-point tree over ``corpus``; ``build`` or ``load`` one.

    Equal exactly when corpus, ``order``, ``pivots``, ``radii`` and
    ``build_seed`` are.
    """

    __slots__ = (*_TREE_FIELDS, "table")

    def __init__(
        self,
        corpus: tuple[SymbolSeq, ...],
        order: array,  # 'I': corpus indices, leaf by leaf
        pivots: array,  # 'I': slot _split(lo, hi) holds that node's pivot
        radii: array,  # 'd': slot _split(lo, hi) holds that node's radius
        build_seed: int,
        table: HarmonicTable,
    ):
        self.corpus = corpus
        self.order = order
        self.pivots = pivots
        self.radii = radii
        self.build_seed = build_seed
        self.table = table

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in _TREE_FIELDS)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    __hash__ = None  # mutable, like the arrays it holds

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in _TREE_FIELDS)
        return f"VpTree({fields})"

    @classmethod
    def build(
        cls,
        corpus,
        seed: int,
        *,
        table: HarmonicTable | None = None,
    ) -> "VpTree":
        """Build a tree over the corpus.

        Pivots are seeded pseudo-random draws; the radius is the lower
        median of the distances from the pivot to the node's remaining
        elements, which follow the pivot inside when at or under the
        radius (ties resolved by corpus index).  Splitting stops at
        LEAF_SIZE elements.  Inside children are split before outside
        ones, which fixes the order of the seeded draws.
        """
        corpus = tuple(corpus)
        if not corpus:
            raise ValueError("cannot build an index over an empty corpus")
        if not 0 <= seed < 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if table is None:
            table = default_table()
        rng = random.Random(seed)
        n = len(corpus)
        order = array("I", range(n))
        pivots = array("I", bytes(4 * n))
        radii = array("d", bytes(8 * n))
        stack = [(0, n)]
        while stack:
            lo, hi = stack.pop()
            if hi - lo <= LEAF_SIZE:
                continue
            members = order[lo:hi]
            pivot = members[rng.randrange(hi - lo)]
            rest = [i for i in members if i != pivot]
            ds = distances(corpus[pivot], [corpus[i] for i in rest], table=table)
            ranked = sorted(zip(ds, rest))
            p = _split(lo, hi)
            pivots[p] = pivot
            radii[p] = ranked[p - lo - 2][0]
            order[lo:hi] = array("I", [pivot] + [i for _, i in ranked])
            stack += ((p, hi), (lo, p))
        return cls(corpus, order, pivots, radii, seed, table)

    def range_query(self, q: SymbolSeq, r: float) -> set[int]:
        """Exactly the corpus indices within distance r of q."""
        if r < 0:
            raise ValueError("radius must be nonnegative")
        hits: set[int] = set()

        def offer(i: int, d: float) -> None:
            if d <= r:
                hits.add(i)

        self._search(q, offer, lambda: r)
        return hits

    def knn(self, q: SymbolSeq, k: int) -> list[tuple[int, float]]:
        """The k nearest corpus elements, ascending by (distance, index)."""
        if k < 1:
            raise ValueError("k must be positive")
        best, _ = self._knn(q, k)
        return best

    def _knn(self, q: SymbolSeq, k: int) -> tuple[list[tuple[int, float]], int]:
        # max-heap over (distance, index) via negation; heap[0] is the
        # current worst of the k best
        heap: list[tuple[float, int]] = []

        def offer(i: int, d: float) -> None:
            if len(heap) < k:
                heapq.heappush(heap, (-d, -i))
            elif (d, i) < (-heap[0][0], -heap[0][1]):
                heapq.heapreplace(heap, (-d, -i))

        def bound() -> float:
            return -heap[0][0] if len(heap) == k else float("inf")

        evaluated = self._search(q, offer, bound)
        out = sorted((-d, -i) for d, i in heap)
        return [(i, d) for d, i in out], evaluated

    def _search(self, q: SymbolSeq, offer, bound) -> int:
        """Hand every leaf element i that may lie within ``bound()`` of q to
        ``offer(i, d(q, i))``; return how many distances were evaluated.

        Each distance is evaluated at most once per query, so a pivot that
        also sits in a leaf below it costs one evaluation.
        """
        corpus, order, pivots, radii = self.corpus, self.order, self.pivots, self.radii
        to_q = distance_profile(q, table=self.table)
        cache: dict[int, float] = {}

        def dist(i: int) -> float:
            v = cache.get(i)
            if v is None:
                v = cache[i] = to_q(corpus[i])
            return v

        # Entries are (lo, hi, parent's pivot distance, parent's radius,
        # whether the range is the inside child); the prune bound is
        # tested when an entry is popped, so it reflects every subtree
        # searched before it.  The root has no parent and is never pruned.
        stack: list[tuple[int, int, float, float, bool | None]] = [
            (0, len(order), 0.0, 0.0, None)
        ]
        while stack:
            lo, hi, dp, radius, is_inside = stack.pop()
            if is_inside is not None:
                r = bound()
                if is_inside:
                    if not dp - r <= radius + PRUNE_MARGIN:
                        continue
                elif not dp + r >= radius - PRUNE_MARGIN:
                    continue
            if hi - lo <= LEAF_SIZE:
                for i in order[lo:hi]:
                    offer(i, dist(i))
                continue
            p = _split(lo, hi)
            dp, radius = dist(pivots[p]), radii[p]
            inside = (lo, p, dp, radius, True)
            outside = (p, hi, dp, radius, False)
            # the side holding q is pushed last, so it is searched first
            stack += (outside, inside) if dp <= radius else (inside, outside)
        return len(cache)

    def stats(
        self,
        queries,
        *,
        radius: float | None = None,
        k: int | None = None,
    ) -> PruningStats:
        """Run a query batch and report distance evaluations per query."""
        if (radius is None) == (k is None):
            raise ValueError("provide exactly one of radius= or k=")
        counts = []
        for q in queries:
            if radius is not None:
                counts.append(self._search(q, lambda i, d: None, lambda: radius))
            else:
                counts.append(self._knn(q, k)[1])
        return PruningStats(len(self.corpus), tuple(counts))

    def validate(self) -> None:
        """Sweep every node and fail loudly on any structural breach."""
        n = len(self.corpus)
        if sorted(self.order) != list(range(n)):
            raise ValueError("corpus elements are not partitioned across leaves")
        stack = [(0, n)]
        while stack:
            lo, hi = stack.pop()
            if hi - lo <= LEAF_SIZE:
                continue
            p = _split(lo, hi)
            pivot, radius = self.corpus[self.pivots[p]], self.radii[p]
            members = self.order[lo:hi]
            ds = distances(pivot, [self.corpus[i] for i in members], table=self.table)
            for j, i, d in zip(range(lo, hi), members, ds):
                if j < p and d > radius:
                    raise ValueError(
                        f"inside element {i} at distance {d} exceeds radius {radius}"
                    )
                if j >= p and d < radius:
                    raise ValueError(
                        f"outside element {i} at distance {d} undercuts radius "
                        f"{radius}"
                    )
            stack += ((p, hi), (lo, p))

    # ------------------------------------------------------------------
    # serialization

    def save(self, path) -> None:
        n = len(self.order)
        body = struct.pack(f"<{n}I{n}I{n}d", *self.order, *self.pivots, *self.radii)
        digest = _digest(self.build_seed, self.corpus, body)
        header = _HEADER.pack(FORMAT_VERSION, self.build_seed, digest)
        Path(path).write_bytes(MAGIC + header + body)

    @classmethod
    def load(
        cls,
        path,
        corpus,
        *,
        table: HarmonicTable | None = None,
    ) -> "VpTree":
        """Load a saved tree and bind it to the corpus it was built from.

        Rejects wrong magic, other format versions, a truncated header, a
        body that is not 16 bytes per corpus string, a digest that does
        not match the seed, corpus and body, and, in a file whose digest
        matches, an ``order`` that is not a permutation of the corpus
        indices, pivots outside the corpus and non-finite radii.
        """
        corpus = tuple(corpus)
        data = Path(path).read_bytes()
        if data[:4] != MAGIC:
            raise IndexFormatError("not a harmdist index file (bad magic)")
        try:
            (version,) = struct.unpack_from("<H", data, 4)
            if version != FORMAT_VERSION:
                raise IndexFormatError(
                    f"index format version {version} is not {FORMAT_VERSION}; "
                    "delete the file so that it is rebuilt"
                )
            _, seed, digest = _HEADER.unpack_from(data, 4)
        except struct.error as exc:
            raise IndexFormatError("truncated index header") from exc
        n = len(corpus)
        body = data[4 + _HEADER.size :]
        if len(body) != 16 * n:
            raise IndexFormatError(
                f"index body holds {len(body)} bytes, not the {16 * n} of a "
                f"corpus of {n} strings; delete the file so that it is rebuilt"
            )
        if digest != _digest(seed, corpus, body):
            raise IndexFormatError(
                "index was built over a different corpus or tokenization, or "
                "is damaged; delete the file so that it is rebuilt"
            )
        order = array("I", struct.unpack_from(f"<{n}I", body))
        pivots = array("I", struct.unpack_from(f"<{n}I", body, 4 * n))
        radii = array("d", struct.unpack_from(f"<{n}d", body, 8 * n))
        ranks = sorted(order)
        if ranks != list(range(n)):
            if ranks[-1] >= n:
                raise IndexFormatError(f"order index {ranks[-1]} outside the corpus")
            missing = min(set(range(n)).difference(ranks))
            repeated = next(a for a, b in zip(ranks, ranks[1:]) if a == b)
            raise IndexFormatError(
                f"order index {repeated} repeats and corpus index {missing} "
                "is in no leaf"
            )
        if max(pivots, default=0) >= n:
            raise IndexFormatError(f"pivot {max(pivots)} outside the corpus")
        if not all(map(math.isfinite, radii)):
            bad = next(r for r in radii if not math.isfinite(r))
            raise IndexFormatError(f"index holds radius {bad}")
        if table is None:
            table = default_table()
        return cls(corpus, order, pivots, radii, seed, table)
