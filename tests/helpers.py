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
    return SymbolSeq(text.encode("ascii"))


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
    """Lines as the CLI interns them, through the same ``Interner.seqs``
    call: a symbol per code point in its default ``codepoints`` mode, a
    symbol per word in ``words`` mode."""
    tokens = [line.split() for line in lines] if mode == "words" else lines
    return Interner().seqs(tokens)


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


def hvpt_bytes(corpus, order, radii, seed=0) -> bytes:
    """A hand-made index file over the corpus, with a valid digest."""
    body = struct.pack(f"<{len(order)}I{len(radii)}d", *order, *radii)
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

#: The arrays of an index over 12 strings, one leaf holding them all.
_ORDER, _RADII = tuple(range(12)), (0.0,) * 12


def _three_array_index(version: int) -> bytes:
    """A file of formats 3 and 4 (order, pivots and radii, each pivot in
    a leaf below it) holding one leaf with the whole corpus under a zeroed
    digest."""
    return (
        MAGIC
        + struct.pack("<HQ32s", version, 0, bytes(32))
        + struct.pack("<12I12I12d", *_ORDER, *(0,) * 12, *_RADII)
    )


#: Format 3 had 8-line leaves, format 4 the 64-line leaves of format 5.
V3_INDEX_OF_12 = _three_array_index(3)
V4_INDEX_OF_12 = _three_array_index(4)

#: Index files over a 12-string corpus that must be rejected although
#: their digests match, each as (order, radii) and a pattern of the error
#: naming its own defect: an index outside the corpus in ``order``, index
#: 0 listed twelve times, index 11 missing, a NaN radius, a body short or
#: long by one slot.  The 12 strings make one leaf, whose node uses no
#: radius slot; ``load`` checks every slot all the same.
BAD_INDEXES_OF_12 = {
    "leaf-out-of-range": ((tuple(range(11)) + (12,), _RADII), "order index 12 outside"),
    "repeated-index": (((0,) * 12, _RADII), "order index 0 repeats"),
    "missing-index": ((tuple(range(11)) + (10,), _RADII), "corpus index 11 is absent"),
    "nan-radius": ((_ORDER, _RADII[:7] + (math.nan,) + _RADII[8:]), "radius nan"),
    "short-body": ((_ORDER[:11], _RADII[:11]), "holds 132 bytes, not the 144"),
    "long-body": ((_ORDER + (0,), _RADII + (0.0,)), "holds 156 bytes, not the 144"),
}
