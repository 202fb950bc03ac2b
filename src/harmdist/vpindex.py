"""Vantage-point tree over a corpus of symbol sequences.

Because the harmonic edit distance is a true metric, a subtree whose
elements all lie within (or beyond) a pivot radius can be skipped
whenever the triangle inequality proves no member can qualify.  Prune
decisions carry a safety margin of PRUNE_MARGIN so float rounding can
never cause a false prune; query results are therefore exactly what a
linear scan returns.

Trees are immutable after ``build`` and safe for concurrent queries;
building is single-threaded and fully determined by (corpus order, seed).

Optional on-disk format, version 2 (little-endian): magic ``HVPT``,
version u16, seed u64, the 32-byte ``corpus_fingerprint``, then the
nodes in post-order (inside subtree, outside subtree, node).  A leaf is
kind 0, count u32 and its corpus indices (u32 each); an inner node is
kind 1, pivot u32 and radius f64, and its two children are the two
subtrees just before it.  Without child links, a file can only describe
trees: a node cannot be shared or be its own descendant.
"""

from __future__ import annotations

import heapq
import math
import random
import struct
from dataclasses import dataclass, field
from pathlib import Path

try:  # CPython's own SHA-256; hashlib loads OpenSSL, 3.6 MB more resident
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from .errors import IndexFormatError
from .harmonic import HarmonicTable, default_table
from .lcs import Engine, SymbolSeq
from .metric import distance

LEAF_SIZE = 8
PRUNE_MARGIN = 1e-9

MAGIC = b"HVPT"
FORMAT_VERSION = 2
_HEADER = struct.Struct("<HQ32s")  # version, seed, corpus fingerprint
_LEAF = struct.Struct("<BI")  # kind 0, count; then count u32 indices
_INNER = struct.Struct("<BId")  # kind 1, pivot, radius


@dataclass(frozen=True, slots=True)
class _Leaf:
    indices: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class _Inner:
    pivot: int
    radius: float
    inside: "_Leaf | _Inner"
    outside: "_Leaf | _Inner"


_Node = _Leaf | _Inner


def _preorder(root: _Node):
    """Every node below root, parents first, outside before inside; read
    backwards, this is the post-order of the file format."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _Inner):
            stack += (node.inside, node.outside)


def _leaf_indices(root: _Node) -> list[int]:
    leaves = (node for node in _preorder(root) if isinstance(node, _Leaf))
    return [i for leaf in leaves for i in leaf.indices]


def corpus_fingerprint(corpus) -> bytes:
    """SHA-256 over the lengths and symbol ids of the corpus strings, the
    only inputs the tree's distances depend on.

    The lengths come first, as little-endian u64; then each string's ids,
    tagged ``B`` and one byte each when all are below 256, else tagged
    ``Q`` and a little-endian u64 each.
    """
    h = sha256(struct.pack(f"<{len(corpus)}Q", *[len(s.ids) for s in corpus]))
    for s in corpus:
        try:  # a byte per id hashes eight times faster than a u64
            h.update(b"B" + bytes(s.ids))
        except ValueError:
            h.update(b"Q" + struct.pack(f"<{len(s.ids)}Q", *s.ids))
    return h.digest()


@dataclass(frozen=True, slots=True)
class PruningStats:
    """Distance-evaluation counts for a query batch."""

    corpus_size: int
    evaluations: tuple[int, ...]

    @property
    def mean_fraction_scanned(self) -> float:
        if not self.evaluations:
            return 0.0
        total = sum(self.evaluations)
        return total / (len(self.evaluations) * self.corpus_size)


@dataclass
class VpTree:
    corpus: tuple[SymbolSeq, ...]
    root: _Node
    build_seed: int
    table: HarmonicTable = field(compare=False, repr=False)
    engine: Engine = field(default="auto", compare=False)

    @classmethod
    def build(
        cls,
        corpus,
        seed: int,
        *,
        table: HarmonicTable | None = None,
        engine: Engine = "auto",
    ) -> "VpTree":
        """Build a tree over the corpus.

        Pivots are seeded pseudo-random draws; the radius is the lower
        median of the distances from the pivot to the node's remaining
        elements, which follow the pivot inside when at or under the
        radius (ties resolved by corpus index).  Recursion stops at
        LEAF_SIZE elements.
        """
        corpus = tuple(corpus)
        if not corpus:
            raise ValueError("cannot build an index over an empty corpus")
        if not 0 <= seed < 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if table is None:
            table = default_table()
        rng = random.Random(seed)

        def split(indices: list[int]) -> _Node:
            if len(indices) <= LEAF_SIZE:
                return _Leaf(tuple(indices))
            pivot = indices[rng.randrange(len(indices))]
            ranked = sorted(
                (distance(corpus[pivot], corpus[i], table=table, engine=engine), i)
                for i in indices
                if i != pivot
            )
            mid = (len(ranked) - 1) // 2
            radius = ranked[mid][0]
            inside = [pivot] + [i for _, i in ranked[: mid + 1]]
            outside = [i for _, i in ranked[mid + 1 :]]
            return _Inner(pivot, radius, split(inside), split(outside))

        root = split(list(range(len(corpus))))
        return cls(corpus, root, seed, table, engine)

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
        corpus, table, engine = self.corpus, self.table, self.engine
        cache: dict[int, float] = {}

        def dist(i: int) -> float:
            v = cache.get(i)
            if v is None:
                v = cache[i] = distance(q, corpus[i], table=table, engine=engine)
            return v

        # Entries are (node, parent's pivot distance, parent's radius,
        # whether node is the inside child); the prune bound is tested
        # when an entry is popped, so it reflects every subtree searched
        # before it.  The root has no parent and is never pruned.
        stack: list[tuple[_Node, float, float, bool | None]] = [
            (self.root, 0.0, 0.0, None)
        ]
        while stack:
            node, dp, radius, is_inside = stack.pop()
            if is_inside is not None:
                r = bound()
                if is_inside:
                    if not dp - r <= radius + PRUNE_MARGIN:
                        continue
                elif not dp + r >= radius - PRUNE_MARGIN:
                    continue
            if isinstance(node, _Leaf):
                for i in node.indices:
                    offer(i, dist(i))
                continue
            dp = dist(node.pivot)
            inside = (node.inside, dp, node.radius, True)
            outside = (node.outside, dp, node.radius, False)
            # the side holding q is pushed last, so it is searched first
            stack += (outside, inside) if dp <= node.radius else (inside, outside)
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
        seen: list[int] = []
        for node in _preorder(self.root):
            if isinstance(node, _Leaf):
                seen.extend(node.indices)
                continue
            pivot = self.corpus[node.pivot]
            for i in _leaf_indices(node.inside):
                d = distance(pivot, self.corpus[i], table=self.table, engine=self.engine)
                if d > node.radius:
                    raise ValueError(
                        f"inside element {i} at distance {d} exceeds radius "
                        f"{node.radius}"
                    )
            for i in _leaf_indices(node.outside):
                d = distance(pivot, self.corpus[i], table=self.table, engine=self.engine)
                if d < node.radius:
                    raise ValueError(
                        f"outside element {i} at distance {d} undercuts radius "
                        f"{node.radius}"
                    )
        if sorted(seen) != list(range(len(self.corpus))):
            raise ValueError("corpus elements are not partitioned across leaves")

    # ------------------------------------------------------------------
    # serialization

    def save(self, path) -> None:
        header = (FORMAT_VERSION, self.build_seed, corpus_fingerprint(self.corpus))
        chunks = [MAGIC, _HEADER.pack(*header)]
        for node in reversed(list(_preorder(self.root))):
            if isinstance(node, _Leaf):
                count = len(node.indices)
                chunks.append(_LEAF.pack(0, count))
                chunks.append(struct.pack(f"<{count}I", *node.indices))
            else:
                chunks.append(_INNER.pack(1, node.pivot, node.radius))
        Path(path).write_bytes(b"".join(chunks))

    @classmethod
    def load(
        cls,
        path,
        corpus,
        *,
        table: HarmonicTable | None = None,
        engine: Engine = "auto",
    ) -> "VpTree":
        """Load a saved tree and bind it to the corpus it was built from.

        One pass over the post-order records: a leaf is pushed on a stack,
        and an inner node pops its outside and then its inside child and is
        pushed in their place.  Rejects wrong magic, other format versions,
        a fingerprint that does not match the corpus, truncated or unknown
        records, an inner node without two children, pivots outside the
        corpus, non-finite radii, anything but exactly one tree, and leaves
        that do not hold every corpus index exactly once.
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
            _, seed, fingerprint = _HEADER.unpack_from(data, 4)
        except struct.error as exc:
            raise IndexFormatError("truncated index header") from exc
        if fingerprint != corpus_fingerprint(corpus):
            raise IndexFormatError(
                "index was built over a different corpus or tokenization; "
                "delete the file so that it is rebuilt"
            )
        n = len(corpus)
        held = bytearray(n)
        stack: list[_Node] = []
        offset = 4 + _HEADER.size
        try:
            while offset < len(data):
                kind = data[offset]
                if kind == 0:
                    _, count = _LEAF.unpack_from(data, offset)
                    offset += _LEAF.size
                    indices = struct.unpack_from(f"<{count}I", data, offset)
                    offset += 4 * count
                    for i in indices:
                        if i >= n:
                            raise IndexFormatError(f"leaf index {i} outside the corpus")
                        if held[i]:
                            raise IndexFormatError(f"leaf index {i} repeats")
                        held[i] = 1
                    stack.append(_Leaf(indices))
                elif kind == 1:
                    _, pivot, radius = _INNER.unpack_from(data, offset)
                    offset += _INNER.size
                    if pivot >= n:
                        raise IndexFormatError(f"pivot {pivot} outside the corpus")
                    if not math.isfinite(radius):
                        raise IndexFormatError(f"pivot {pivot} has radius {radius}")
                    if len(stack) < 2:
                        raise IndexFormatError(f"pivot {pivot} lacks a child")
                    outside, inside = stack.pop(), stack.pop()
                    stack.append(_Inner(pivot, radius, inside, outside))
                else:
                    raise IndexFormatError(f"unknown node kind {kind}")
        except struct.error as exc:
            raise IndexFormatError("truncated node record") from exc
        if len(stack) != 1:
            raise IndexFormatError(f"index holds {len(stack)} trees, not one")
        if not all(held):
            raise IndexFormatError(f"corpus index {held.index(0)} is in no leaf")
        if table is None:
            table = default_table()
        return cls(corpus, stack[0], seed, table, engine)
