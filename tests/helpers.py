"""Shared test helpers and hypothesis strategies."""

from __future__ import annotations

import math
import random
import struct
from fractions import Fraction
from hashlib import sha256

from hypothesis import strategies as st

from harmdist import Interner, SymbolSeq
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


def interned(lines, mode="codepoints") -> list[SymbolSeq]:
    """Lines as the CLI interns them, in order: a symbol per code point in
    its default ``codepoints`` mode, a symbol per word in ``words`` mode."""
    interner = Interner()
    return [interner.seq(line.split() if mode == "words" else line) for line in lines]


def corpus_bytes(corpus) -> bytes:
    """What an index digest hashes of the corpus: the lengths as u64, then
    each string's ids tagged ``B``, ``H`` or ``Q`` by the narrowest
    little-endian width that holds them."""
    chunks = [struct.pack(f"<{len(corpus)}Q", *(len(s.ids) for s in corpus))]
    for s in corpus:
        top = max(s.ids, default=0)
        tag = "B" if top < 2**8 else "H" if top < 2**16 else "Q"
        chunks.append(tag.encode() + struct.pack(f"<{len(s.ids)}{tag}", *s.ids))
    return b"".join(chunks)


def hvpt_bytes(corpus, order, pivots, radii, seed=0) -> bytes:
    """A hand-made index file over the corpus, with a valid digest."""
    body = (
        struct.pack(f"<{len(order)}I", *order)
        + struct.pack(f"<{len(pivots)}I", *pivots)
        + struct.pack(f"<{len(radii)}d", *radii)
    )
    seeded = struct.pack("<Q", seed) + corpus_bytes(corpus) + body
    header = struct.pack("<HQ32s", FORMAT_VERSION, seed, sha256(seeded).digest())
    return MAGIC + header + body


#: A format-1 index file (child offsets, bound to a corpus of 12 by size
#: alone) holding one leaf with the whole corpus.
V1_INDEX_OF_12 = (
    MAGIC + struct.pack("<HQQQ", 1, 0, 12, 1) + struct.pack("<BI12I", 0, 12, *range(12))
)

#: A format-2 index file (post-order node records after a corpus
#: fingerprint) holding one leaf with the whole corpus.
V2_INDEX_OF_12 = (
    MAGIC
    + struct.pack("<HQ32s", 2, 0, bytes(32))
    + struct.pack("<BI12I", 0, 12, *range(12))
)

#: The arrays of an index over 12 strings: the root splits at slot 7.
_ORDER, _PIVOTS, _RADII = tuple(range(12)), (0,) * 12, (0.0,) * 12

#: Index files over a 12-string corpus that must be rejected although
#: their digests match, each as (order, pivots, radii) and a pattern of
#: the error naming its own defect: an index outside the corpus in
#: ``order``, index 0 listed twelve times, index 11 missing, a pivot
#: outside the corpus, a NaN radius, a body short or long by one slot.
BAD_INDEXES_OF_12 = {
    "leaf-out-of-range": (
        (tuple(range(11)) + (12,), _PIVOTS, _RADII), "order index 12 outside"
    ),
    "repeated-index": (((0,) * 12, _PIVOTS, _RADII), "order index 0 repeats"),
    "missing-index": (
        (tuple(range(11)) + (10,), _PIVOTS, _RADII), "corpus index 11 is in no leaf"
    ),
    "pivot-out-of-range": (
        (_ORDER, _PIVOTS[:7] + (999,) + _PIVOTS[8:], _RADII), "pivot 999 outside"
    ),
    "nan-radius": (
        (_ORDER, _PIVOTS, _RADII[:7] + (math.nan,) + _RADII[8:]), "radius nan"
    ),
    "short-body": (
        (_ORDER[:11], _PIVOTS[:11], _RADII[:11]), "holds 176 bytes, not the 192"
    ),
    "long-body": (
        (_ORDER + (0,), _PIVOTS + (0,), _RADII + (0.0,)), "holds 208 bytes, not the 192"
    ),
}
