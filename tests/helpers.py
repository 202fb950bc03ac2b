"""Shared test helpers and hypothesis strategies."""

from __future__ import annotations

import random
import struct
from fractions import Fraction

from hypothesis import strategies as st

from harmdist import Interner, SymbolSeq
from harmdist.vpindex import FORMAT_VERSION, MAGIC, corpus_fingerprint


def seq(text: str) -> SymbolSeq:
    """ASCII text as a symbol sequence (one symbol per character)."""
    return SymbolSeq(tuple(text.encode("ascii")))


def rational_harmonic(n: int) -> Fraction:
    """Independent exact oracle: direct rational summation."""
    return sum((Fraction(1, i) for i in range(1, n + 1)), Fraction(0))


def random_seq(rng: random.Random, alphabet: int, max_length: int) -> SymbolSeq:
    return SymbolSeq(
        tuple(rng.randrange(alphabet) for _ in range(rng.randint(0, max_length)))
    )


def symbol_seqs(alphabet: int = 4, max_size: int = 32):
    return st.builds(
        SymbolSeq,
        st.lists(
            st.integers(0, alphabet - 1), max_size=max_size
        ).map(tuple),
    )


def interned(lines) -> list[SymbolSeq]:
    """Lines as ``knn`` interns them in its default codepoints mode."""
    interner = Interner()
    return [interner.seq(line) for line in lines]


def hvpt_bytes(corpus, nodes) -> bytes:
    """A hand-made index file over the corpus: nodes are ``("leaf",
    indices)`` or ``("inner", pivot, radius)``, in post-order."""
    header = struct.pack("<HQ32s", FORMAT_VERSION, 0, corpus_fingerprint(corpus))
    chunks = [MAGIC, header]
    for node in nodes:
        if node[0] == "leaf":
            indices = node[1]
            chunks.append(struct.pack(f"<BI{len(indices)}I", 0, len(indices), *indices))
        else:
            chunks.append(struct.pack("<BId", 1, *node[1:]))
    return b"".join(chunks)


#: A format-1 index file (child offsets, bound to a corpus of 12 by size
#: alone) holding one leaf with the whole corpus.
V1_INDEX_OF_12 = (
    MAGIC + struct.pack("<HQQQ", 1, 0, 12, 1) + struct.pack("<BI12I", 0, 12, *range(12))
)

_HALVES = [("leaf", tuple(range(6))), ("leaf", tuple(range(6, 12)))]

#: Index files over a 12-string corpus that must be rejected, each as
#: (post-order nodes, a pattern of the error naming its own defect): a
#: pivot or a leaf index outside the corpus, one index listed twelve
#: times, one index missing, a NaN radius, an inner node with one child,
#: two roots.
BAD_INDEXES_OF_12 = {
    "pivot-out-of-range": (_HALVES + [("inner", 999, 0.5)], "pivot 999 outside"),
    "leaf-out-of-range": (
        [("leaf", tuple(range(11)) + (12,))], "leaf index 12 outside"
    ),
    "repeated-index": ([("leaf", (0,) * 12)], "leaf index 0 repeats"),
    "missing-index": (
        [("leaf", tuple(range(6))), ("leaf", tuple(range(6, 11))), ("inner", 0, 0.5)],
        "corpus index 11 is in no leaf",
    ),
    "nan-radius": (_HALVES + [("inner", 0, float("nan"))], "radius nan"),
    "missing-child": ([("leaf", tuple(range(12))), ("inner", 0, 0.5)], "lacks a child"),
    "two-trees": (_HALVES, "2 trees"),
}


def chain_index_nodes(depth: int):
    """A valid index over ``depth + 1`` distinct strings that is one chain
    of ``depth`` inner nodes: node k has pivot k, radius 0, the leaf
    ``(k,)`` inside and node k + 1 outside; the last leaf holds ``depth``.
    In post-order that is every leaf, then the inner nodes from the
    deepest up."""
    leaves = [("leaf", (k,)) for k in range(depth + 1)]
    return leaves + [("inner", k, 0.0) for k in reversed(range(depth))]
