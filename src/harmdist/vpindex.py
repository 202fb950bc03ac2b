"""Vantage-point tree over a corpus of symbol sequences.

Because the harmonic edit distance is a true metric, a subtree whose
elements all lie within (or beyond) a pivot radius can be skipped
whenever the triangle inequality proves no member can qualify.  Prune
decisions carry a safety margin of PRUNE_MARGIN so float rounding can
never cause a false prune; query results are therefore exactly what a
linear scan returns.

The tree is two flat arrays of n slots.  ``order`` lists the corpus
indices so that every node owns a range ``order[lo:hi]``.  A range of
more than LEAF_SIZE elements is an inner node: its pivot sits at
``order[lo]`` and its radius at ``radii[lo]``, and its children are the
inside range ``[lo + 1, p)`` and the outside range ``[p, hi)``, where
``p = _split(lo, hi)`` depends on the range's size alone.  As in
Yianilos's vantage-point tree (SODA 1993), a pivot is in neither child,
so a query evaluates each element at most once.  The tree's shape
follows from n and LEAF_SIZE, and no node links are stored.

Leaves are buckets of up to LEAF_SIZE = 64 lines, and a query takes each
leaf it reaches in one packed ``distances`` call, whose per-pair cost is
a fraction of that of the scalar ``distance`` a pivot goes through.
Coarser leaves prune less.  In a leaf-size sweep on the benchmark's two
corpora (8 to 256, seed 1, 2-core x86-64, medians of 15), a knn query
evaluated about 88 % of the short-dense corpus at 64 against 82 % at 8,
and the whole long-sparse corpus at both.  Going from 8 to 64 cut the
build to 0.38-0.53 of its time and a loaded knn query to 0.35-0.41.
Beyond 64 the build kept falling but the search gained only about 15 %
more at 128, while pruning kept falling: the acceptance suite's knn
queries over 2,000 ``acgt`` lines (criterion 7) evaluate 0.603 of them
at 8, 0.686 at 64 and 0.749 at 128, and at 256 a short-dense query
evaluates the whole corpus.  That sweep kept each pivot in a leaf below
it as well.  With the pivot out of its children, criterion 7's knn
queries evaluate 0.684 at 64, and over the benchmark's seed-1 queries a
knn query evaluates 0.876 of short-dense and 0.917 of long-sparse, a
range query 0.740 and 0.917 (``VpTree.stats``).

Trees are immutable after ``build`` and safe for concurrent queries;
building is single-threaded and fully determined by (corpus order, seed).

Optional on-disk format, version 5 (little-endian): magic ``HVPT``,
version u16, seed u64, a SHA-256 over the seed, the corpus and the
body, then the body: ``order`` as u32 and ``radii`` as f64, n of each.
The corpus is hashed as its lengths (u64), then each string's ids at the
narrowest width that holds them all: tagged ``B`` and a byte each below
256, ``H`` and a u16 each below 65,536, else ``Q`` and a u64 each.
Versions 1-4 are rejected.
"""

from __future__ import annotations

import heapq
import math
import os
import random
import struct
import threading
from array import array
from contextlib import suppress
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
from .lcs import SymbolSeq
from .metric import distance, distances

LEAF_SIZE = 64
PRUNE_MARGIN = 1e-9

MAGIC = b"HVPT"
FORMAT_VERSION = 5
_HEADER = struct.Struct("<HQ32s")  # version, seed, digest


def _split(lo: int, hi: int) -> int:
    """Where the inner node over ``order[lo:hi]`` ends its inside child
    ``[lo + 1, p)``: the lower half of the elements after the pivot,
    median included."""
    return lo + (hi - lo - 2) // 2 + 2


def _inner_nodes(n: int):
    """Yield ``(lo, p, hi)`` for every inner node of a tree over n
    elements, each before its children and the inside child's subtree
    before the outside one's."""
    stack = [(0, n)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo > LEAF_SIZE:
            p = _split(lo, hi)
            yield lo, p, hi
            stack += ((p, hi), (lo + 1, p))


def _digest(seed: int, corpus, body: bytes) -> bytes:
    h = sha256(struct.pack("<Q", seed))
    h.update(struct.pack(f"<{len(corpus)}Q", *[len(s.ids) for s in corpus]))
    for s in corpus:
        if type(s.ids) is bytes:  # a byte per id hashes eight times faster than a u64
            h.update(b"B" + s.ids)
        else:
            tag = "H" if max(s.ids) < 65536 else "Q"
            h.update(tag.encode() + struct.pack(f"<{len(s.ids)}{tag}", *s.ids))
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


class VpTree(NamedTuple):
    """A vantage-point tree over ``corpus``; ``build`` or ``load`` one.

    A named tuple of its four fields, so equal exactly when they are; the
    arrays make it unhashable.
    """

    corpus: tuple[SymbolSeq, ...]
    order: array  # 'I': corpus indices; slot lo holds an inner node's pivot
    radii: array  # 'd': slot lo holds that node's radius
    build_seed: int

    @classmethod
    def build(cls, corpus, seed: int) -> "VpTree":
        """Build a tree over the corpus.

        Pivots are seeded pseudo-random draws; the radius is the lower
        median of the distances from the pivot to the node's other
        elements, which go inside when at or under the radius (ties
        resolved by corpus index).  Splitting stops at LEAF_SIZE
        elements.  Inside children are split before outside ones, which
        fixes the order of the seeded draws.
        """
        corpus = tuple(corpus)
        if not corpus:
            raise ValueError("cannot build an index over an empty corpus")
        if not 0 <= seed < 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")
        rng = random.Random(seed)
        n = len(corpus)
        order = array("I", range(n))
        radii = array("d", bytes(8 * n))
        for lo, p, hi in _inner_nodes(n):
            members = order[lo:hi]
            pivot = members[rng.randrange(hi - lo)]
            rest = [i for i in members if i != pivot]
            ds = distances(corpus[pivot], [corpus[i] for i in rest])
            ranked = sorted(zip(ds, rest))
            radii[lo] = ranked[p - lo - 2][0]
            order[lo:hi] = array("I", [pivot] + [i for _, i in ranked])
        return cls(corpus, order, radii, seed)

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
        """Hand every element i that may lie within ``bound()`` of q to
        ``offer(i, d(q, i))``; return how many distances were evaluated.

        A pivot's distance comes from the scalar ``distance``, one at a
        time, since it decides which child is searched first; a leaf
        takes all of its distances in one ``distances`` call.  A pivot is
        in neither of its children, so no distance is evaluated twice.
        """
        corpus, order, radii = self.corpus, self.order, self.radii
        evaluated = 0
        # Entries are (lo, hi, floor), floor a lower bound on d(q, x) over
        # the range by the triangle inequality; it is tested against the
        # bound when the entry is popped, so it reflects every subtree
        # searched before it.
        stack = [(0, len(order), -math.inf)]
        while stack:
            lo, hi, floor = stack.pop()
            if floor > bound() + PRUNE_MARGIN:
                continue
            if hi - lo <= LEAF_SIZE:
                leaf = order[lo:hi]
                for i, d in zip(leaf, distances(q, [corpus[i] for i in leaf])):
                    offer(i, d)
                evaluated += hi - lo
                continue
            radius = radii[lo]
            dp = distance(q, corpus[order[lo]])
            offer(order[lo], dp)
            evaluated += 1
            p = _split(lo, hi)
            inside, outside = (lo + 1, p, dp - radius), (p, hi, radius - dp)
            # the side holding q is pushed last, so it is searched first
            stack += (outside, inside) if dp <= radius else (inside, outside)
        return evaluated

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
            raise ValueError("order is not a permutation of the corpus indices")
        for lo, p, hi in _inner_nodes(n):
            pivot, radius = self.corpus[self.order[lo]], self.radii[lo]
            members = self.order[lo + 1 : hi]
            ds = distances(pivot, [self.corpus[i] for i in members])
            for j, i, d in zip(range(lo + 1, hi), members, ds):
                if j < p and d > radius:
                    raise ValueError(
                        f"inside element {i} at distance {d} exceeds radius {radius}"
                    )
                if j >= p and d < radius:
                    raise ValueError(
                        f"outside element {i} at distance {d} undercuts radius "
                        f"{radius}"
                    )

    # ------------------------------------------------------------------
    # serialization

    def save(self, path) -> None:
        """Write the tree to a temporary file in ``path``'s directory, then
        move it over ``path`` in one step, so no reader sees a partial file.
        The temporary name is short and its own, not ``path``'s name
        extended, so a name at the length limit saves too; the process and
        thread ids keep concurrent saves apart.  An OSError on the
        temporary file names ``path`` instead."""
        n = len(self.order)
        body = struct.pack(f"<{n}I{n}d", *self.order, *self.radii)
        digest = _digest(self.build_seed, self.corpus, body)
        header = _HEADER.pack(FORMAT_VERSION, self.build_seed, digest)
        path = Path(path)
        tmp = path.with_name(f".{os.getpid()}.{threading.get_ident()}.hvpt.tmp")
        try:
            tmp.write_bytes(MAGIC + header + body)
            os.replace(tmp, path)
        except BaseException as exc:
            # a failed unlink must not hide the error that brought us here
            with suppress(OSError):
                tmp.unlink(missing_ok=True)
            if isinstance(exc, OSError) and exc.filename == str(tmp):
                raise OSError(exc.errno, exc.strerror, str(path)) from None
            raise

    @classmethod
    def load(cls, path, corpus) -> "VpTree":
        """Load a saved tree and bind it to the corpus it was built from.

        Rejects wrong magic, other format versions, a truncated header, a
        body that is not 12 bytes per corpus string, a digest that does
        not match the seed, corpus and body, and, in a file whose digest
        matches, an ``order`` that is not a permutation of the corpus
        indices and non-finite radii.
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
        if len(body) != 12 * n:
            raise IndexFormatError(
                f"index body holds {len(body)} bytes, not the {12 * n} of a "
                f"corpus of {n} strings; delete the file so that it is rebuilt"
            )
        if digest != _digest(seed, corpus, body):
            raise IndexFormatError(
                "index was built over a different corpus or tokenization, or "
                "is damaged; delete the file so that it is rebuilt"
            )
        order = array("I", struct.unpack_from(f"<{n}I", body))
        radii = array("d", struct.unpack_from(f"<{n}d", body, 4 * n))
        ranks = sorted(order)
        if ranks != list(range(n)):
            if ranks[-1] >= n:
                raise IndexFormatError(f"order index {ranks[-1]} outside the corpus")
            missing = min(set(range(n)).difference(ranks))
            repeated = next(a for a, b in zip(ranks, ranks[1:]) if a == b)
            raise IndexFormatError(
                f"order index {repeated} repeats and corpus index {missing} "
                "is absent"
            )
        if not all(map(math.isfinite, radii)):
            bad = next(r for r in radii if not math.isfinite(r))
            raise IndexFormatError(f"index holds radius {bad}")
        return cls(corpus, order, radii, seed)
