"""Vantage-point tree over a corpus of symbol sequences.

Because the harmonic edit distance is a true metric, a subtree whose
elements all lie within (or beyond) a pivot radius can be skipped
whenever the triangle inequality proves no member can qualify.  Prune
decisions carry a safety margin of PRUNE_MARGIN so float rounding can
never cause a false prune; query results are therefore exactly what a
linear scan returns.

Trees are immutable after ``build`` and safe for concurrent queries;
building is single-threaded and fully determined by (corpus order, seed).

Optional on-disk format (little-endian): magic ``HVPT``, version u16,
seed u64, corpus size u64, node count u64, then one record per node with
explicit child offsets into the node array.
"""

from __future__ import annotations

import heapq
import random
import struct
from dataclasses import dataclass, field
from pathlib import Path

from .errors import IndexFormatError
from .harmonic import HarmonicTable, default_table
from .lcs import Engine, SymbolSeq
from .metric import distance

LEAF_SIZE = 8
PRUNE_MARGIN = 1e-9

MAGIC = b"HVPT"
FORMAT_VERSION = 1


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
    """Every node below root, parents first, inside before outside."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _Inner):
            stack += (node.outside, node.inside)


def _leaf_indices(root: _Node) -> list[int]:
    leaves = (node for node in _preorder(root) if isinstance(node, _Leaf))
    return [i for leaf in leaves for i in leaf.indices]


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

    def _cached_distance(self, q: SymbolSeq, cache: dict[int, float]):
        corpus, table, engine = self.corpus, self.table, self.engine

        def dist(i: int) -> float:
            v = cache.get(i)
            if v is None:
                v = distance(q, corpus[i], table=table, engine=engine)
                cache[i] = v
            return v

        return dist

    def range_query(self, q: SymbolSeq, r: float) -> set[int]:
        """Exactly the corpus indices within distance r of q."""
        if r < 0:
            raise ValueError("radius must be nonnegative")
        hits, _ = self._range(q, r)
        return hits

    def _range(self, q: SymbolSeq, r: float) -> tuple[set[int], int]:
        cache: dict[int, float] = {}
        dist = self._cached_distance(q, cache)
        hits: set[int] = set()
        stack: list[_Node] = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, _Leaf):
                for i in node.indices:
                    if dist(i) <= r:
                        hits.add(i)
                continue
            dp = dist(node.pivot)
            if dp - r <= node.radius + PRUNE_MARGIN:
                stack.append(node.inside)
            if dp + r >= node.radius - PRUNE_MARGIN:
                stack.append(node.outside)
        return hits, len(cache)

    def knn(self, q: SymbolSeq, k: int) -> list[tuple[int, float]]:
        """The k nearest corpus elements, ascending by (distance, index)."""
        if k < 1:
            raise ValueError("k must be positive")
        best, _ = self._knn(q, k)
        return best

    def _knn(self, q: SymbolSeq, k: int) -> tuple[list[tuple[int, float]], int]:
        cache: dict[int, float] = {}
        dist = self._cached_distance(q, cache)
        # max-heap over (distance, index) via negation; heap[0] is the
        # current worst of the k best
        heap: list[tuple[float, int]] = []

        def offer(i: int) -> None:
            di = dist(i)
            if len(heap) < k:
                heapq.heappush(heap, (-di, -i))
            else:
                worst_d, worst_i = -heap[0][0], -heap[0][1]
                if (di, i) < (worst_d, worst_i):
                    heapq.heapreplace(heap, (-di, -i))

        def bound() -> float:
            return -heap[0][0] if len(heap) == k else float("inf")

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
                    offer(i)
                continue
            dp = dist(node.pivot)
            inside = (node.inside, dp, node.radius, True)
            outside = (node.outside, dp, node.radius, False)
            # the side holding q is pushed last, so it is searched first
            stack += (outside, inside) if dp <= node.radius else (inside, outside)
        out = sorted((-d, -i) for d, i in heap)
        return [(i, d) for d, i in out], len(cache)

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
                _, evals = self._range(q, radius)
            else:
                _, evals = self._knn(q, k)
            counts.append(evals)
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
        # pre-order numbering, so the root is record 0
        nodes = list(_preorder(self.root))
        position = {id(node): idx for idx, node in enumerate(nodes)}
        chunks = [
            MAGIC,
            struct.pack(
                "<HQQQ",
                FORMAT_VERSION,
                self.build_seed,
                len(self.corpus),
                len(nodes),
            ),
        ]
        for node in nodes:
            if isinstance(node, _Leaf):
                chunks.append(struct.pack("<BI", 0, len(node.indices)))
                chunks.append(struct.pack(f"<{len(node.indices)}I", *node.indices))
            else:
                inside, outside = position[id(node.inside)], position[id(node.outside)]
                chunks.append(
                    struct.pack("<BIdQQ", 1, node.pivot, node.radius, inside, outside)
                )
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

        Rejects wrong magic, unsupported versions, corpus size mismatches,
        malformed node arrays, pivot or leaf indices outside the corpus,
        and leaves that do not hold every corpus index exactly once.
        """
        corpus = tuple(corpus)
        data = Path(path).read_bytes()
        if data[:4] != MAGIC:
            raise IndexFormatError("not a harmdist index file (bad magic)")
        try:
            version, seed, corpus_size, node_count = struct.unpack_from(
                "<HQQQ", data, 4
            )
        except struct.error as exc:
            raise IndexFormatError("truncated index header") from exc
        if version != FORMAT_VERSION:
            raise IndexFormatError(
                f"unsupported index version {version}; expected {FORMAT_VERSION}"
            )
        if corpus_size != len(corpus):
            raise IndexFormatError(
                f"index was built over {corpus_size} strings, corpus has "
                f"{len(corpus)}"
            )
        offset = 4 + struct.calcsize("<HQQQ")
        records = []
        try:
            for _ in range(node_count):
                (kind,) = struct.unpack_from("<B", data, offset)
                offset += 1
                if kind == 0:
                    (count,) = struct.unpack_from("<I", data, offset)
                    offset += 4
                    indices = struct.unpack_from(f"<{count}I", data, offset)
                    offset += 4 * count
                    records.append(("leaf", indices))
                elif kind == 1:
                    pivot, radius, inside, outside = struct.unpack_from(
                        "<IdQQ", data, offset
                    )
                    offset += struct.calcsize("<IdQQ")
                    records.append(("inner", pivot, radius, inside, outside))
                else:
                    raise IndexFormatError(f"unknown node kind {kind}")
        except struct.error as exc:
            raise IndexFormatError("truncated node array") from exc
        if offset != len(data):
            raise IndexFormatError("trailing bytes after node array")

        # every corpus index must sit in exactly one leaf: a missing one
        # would never be returned, a repeated one returned twice
        held = bytearray(corpus_size)

        def check_index(i: int, what: str) -> None:
            if i >= corpus_size:
                raise IndexFormatError(
                    f"{what} index {i} outside a corpus of {corpus_size}"
                )

        if not records:
            raise IndexFormatError("index contains no nodes")
        # Depth-first from record 0, inside before outside.  An entry
        # (idx, depth, None) asks to read record idx; (idx, depth, rec)
        # comes back once both children are built and on ``built``.
        built: list[_Node] = []
        stack: list[tuple[int, int, tuple | None]] = [(0, 0, None)]
        while stack:
            idx, depth, rec = stack.pop()
            if rec is not None:
                outside_node, inside_node = built.pop(), built.pop()
                built.append(_Inner(rec[1], rec[2], inside_node, outside_node))
                continue
            if not 0 <= idx < len(records):
                raise IndexFormatError(f"child offset {idx} out of range")
            if depth > len(records):
                raise IndexFormatError("node links form a cycle")
            rec = records[idx]
            if rec[0] == "leaf":
                for i in rec[1]:
                    check_index(i, "leaf")
                    if held[i]:
                        raise IndexFormatError(f"corpus index {i} repeats in the leaves")
                    held[i] = 1
                built.append(_Leaf(tuple(rec[1])))
                continue
            _, pivot, _, inside, outside = rec
            check_index(pivot, "pivot")
            stack.append((idx, depth, rec))
            stack += ((outside, depth + 1, None), (inside, depth + 1, None))
        (root,) = built
        if not all(held):
            raise IndexFormatError(f"corpus index {held.index(0)} is in no leaf")
        if table is None:
            table = default_table()
        return cls(corpus, root, seed, table, engine)
