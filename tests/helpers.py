"""Shared test helpers and hypothesis strategies."""

from __future__ import annotations

import random
import struct
from fractions import Fraction

from hypothesis import strategies as st

from harmdist import SymbolSeq
from harmdist.vpindex import FORMAT_VERSION, MAGIC


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


def hvpt_bytes(corpus_size: int, nodes) -> bytes:
    """A hand-made index file: nodes are ``("leaf", indices)`` or
    ``("inner", pivot, radius, inside, outside)``, the root first."""
    chunks = [MAGIC, struct.pack("<HQQQ", FORMAT_VERSION, 0, corpus_size, len(nodes))]
    for node in nodes:
        if node[0] == "leaf":
            indices = node[1]
            chunks.append(struct.pack(f"<BI{len(indices)}I", 0, len(indices), *indices))
        else:
            chunks.append(struct.pack("<BIdQQ", 1, *node[1:]))
    return b"".join(chunks)


#: Index files over a 12-string corpus that must be rejected: a pivot or
#: a leaf index outside the corpus, one index listed twelve times, one
#: index missing, a node that is its own child.
BAD_INDEXES_OF_12 = {
    "pivot-out-of-range": [
        ("inner", 999, 0.5, 1, 2),
        ("leaf", tuple(range(6))),
        ("leaf", tuple(range(6, 12))),
    ],
    "leaf-out-of-range": [("leaf", tuple(range(11)) + (12,))],
    "repeated-index": [("leaf", (0,) * 12)],
    "missing-index": [
        ("inner", 0, 0.5, 1, 2),
        ("leaf", tuple(range(6))),
        ("leaf", tuple(range(6, 11))),
    ],
    "self-cycle": [("inner", 0, 0.5, 0, 0)],
}


def chain_index_nodes(depth: int):
    """A valid index over ``depth + 1`` distinct strings that is one chain
    of ``depth`` inner nodes: node k has pivot k, radius 0, the leaf
    ``(k,)`` inside and node k + 1 outside; the last leaf holds ``depth``."""
    nodes = []
    for k in range(depth):
        nodes += [("inner", k, 0.0, 2 * k + 1, 2 * k + 2), ("leaf", (k,))]
    return nodes + [("leaf", (depth,))]
