"""Longest-common-subsequence lengths over interned symbol sequences.

Several engines share one contract (the exact LCS length).  The
bit-parallel engine (Allison & Dix 1986; Hyyro 2004) is the production
one.  One row update, ``_advance``, serves it in two forms; it is
Hyyro's u = row & mask, row = (row + u) | (row - u), with ``row ^ u``
for ``row - u``, which is equal because u is a subset of row:

* scalar: one string along the bits of one integer, with its match masks
  built once.  ``lcs_profile(q)`` lays q along the bits for every string
  it then meets.  ``lcs_len_bitparallel(a, b)`` is the profile of the
  shorter input run over the longer one, and ``lcs_len`` runs it for
  ``auto``; ``lcs_lens`` runs q's profile over every string when an id
  of 256 or more keeps the input from packing;
* packed: many strings, each one lane of a single packed integer, so one
  row update per query symbol advances every pair at once.  One kernel,
  ``_lcs_packed``, runs a list of queries over one packed text, each
  from its own start lane, all reading their masks from one source; a
  row's ``full`` alone selects the lanes it advances.
  ``lcs_lens(q, corpus)`` is one row over every lane, for the knn scan
  and the vp-tree's build and leaves.
  ``lcs_rows(seqs)`` packs a slice once and runs row i over the lanes
  after lane i, for the CLI's ``matrix``.  A slice that does not pack
  goes row by row to ``lcs_lens``.

An engine is named only to ``lcs_len``, one pair at a time, and
through it to ``metric.distance`` and ``distance_exact``.  ``dp``,
``huntszymanski`` and ``bruteforce`` stay there as oracles, and
``bitparallel`` names the same scalar code as ``auto``.
The one-vs-many and row forms take no engine: every engine returns the
same length, so the choice could change only their time.  Only lengths
are ever computed: every quantity the distance needs collapses to |lcs|
and |scs| = |a| + |b| - |lcs|, so no traceback is kept.  Memory differs
by engine: ``dp`` keeps two rows over the shorter input, the scalar
bit-parallel engine one match mask per distinct symbol of the shorter
input, and Hunt-Szymanski occurrence lists over all of ``b`` plus at
most min(|a|, |b|) tails.

Packing rule.  The text packs whenever every id is below 256, that is
whenever every sequence holds its ids as ``bytes`` (a lane is then pad
bytes and one reversed slice of them); an id of 256 or more sends
``lcs_lens`` to q's profile.

Packed masks.  Every packed mask comes from the part masks of
``_stepped_masks``, built once per packed text.  They come from the
text's bit planes: plane k marks the bytes whose bit k is set, one
``translate`` and one ``int(..., 2)`` pass over the text, and at most 8
planes (as many as the largest query id has bits).  A part mask selects
the bytes whose high (or low) half of the bits equals one value: the AND
of each plane of that half or its complement, and a high part mask also
clears the bytes with a bit set above the planes.  A symbol's mask is
one AND of its high and its low part mask.  With ids below 256 that
keeps at most 16 + 16 part masks, each one bit per packed symbol plus
byte-aligned guard bits, however many distinct symbols the queries hold.
``lcs_lens`` takes that AND at each step: its one row uses a mask once
or a few times.  The rows of ``lcs_rows`` share one table of the masks
of their symbols, each one AND, built once per slice and read through
the table's ``dict.get``; on a slice of long lines each mask serves
about 180 steps.  The table holds at most 256 masks, so at most 32
bytes per packed symbol, guard bits included, on top of the part
masks.

Interning.  ``Interner.seqs`` gives a corpus the ids line-by-line
``seq`` gives it.  Lines of ``str`` go through one charmap codec map of
the symbols seen so far (``_codec``): a line is encoded to its ids plus
one in one C call, and one ``bytes.translate`` shifts them back.  A line
that brings new symbols fails to encode; they get their ids in order of
first appearance and the map is rebuilt.  The fast map holds at most 255
BMP code points, so from the first line the codec cannot take (one that
holds U+0000, U+FFFE or a code point above U+FFFF, brings a 256th
symbol, or is not a ``str``) the rest of the corpus takes the general
path in one pass: one pass over its tokens for the ids, then one
``translate`` a line for ``bytes`` lines while every id fits in a byte,
else the ids of each token, which ``SymbolSeq`` stores as bytes when
they fit.

Engines are pure functions of immutable inputs.  An ``Interner`` is
mutated only while ingesting text; once built it may be shared freely
between concurrent distance computations.
"""

from __future__ import annotations

from bisect import bisect_left
from codecs import charmap_build, charmap_encode
from collections.abc import Callable, Hashable, Iterable, Sequence
from itertools import accumulate, chain
from typing import Literal

from .errors import CapacityError

Engine = Literal["auto", "dp", "bitparallel", "huntszymanski", "bruteforce"]

ENGINES = ("auto", "dp", "bitparallel", "huntszymanski", "bruteforce")

#: Brute force enumerates 2^min subsequences; refuse beyond this.
BRUTE_FORCE_LIMIT = 20


class SymbolSeq:
    """An immutable sequence of nonnegative integer symbol ids.

    ``ids`` takes one canonical form, decided here: ``bytes`` when every id
    is below 256, a tuple otherwise.  Equal ids therefore always have the
    same form, and the sequence is equal, and hashed alike, exactly when
    the ids are.  Consumers read the width from the type of ``ids``.
    """

    __slots__ = ("ids",)

    def __init__(self, ids):
        if type(ids) is not bytes:
            ids = tuple(ids)
            if max(ids, default=0) < 256:
                ids = bytes(ids)
        object.__setattr__(self, "ids", ids)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.ids == other.ids
        return NotImplemented

    def __hash__(self):
        return hash((self.ids,))

    def __repr__(self) -> str:
        return f"SymbolSeq(ids={self.ids!r})"

    def __reduce__(self):
        return SymbolSeq, (self.ids,)

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return iter(self.ids)

    def __getitem__(self, i: int) -> int:
        return self.ids[i]


class Interner:
    """Maps raw tokens (bytes values, code points, words, ...) to dense ids.

    Distinct tokens get distinct ids, assigned 0, 1, 2, ... in order of
    first appearance, so ids are always gap-free below ``alphabet_size``.
    """

    __slots__ = ("_ids",)

    def __init__(self):
        self._ids: dict[Hashable, int] = {}

    @property
    def alphabet_size(self) -> int:
        return len(self._ids)

    def intern(self, token: Hashable) -> int:
        return self._ids.setdefault(token, len(self._ids))

    def seq(self, tokens: Iterable[Hashable]) -> SymbolSeq:
        ids = self._ids
        return SymbolSeq(tuple(ids.setdefault(t, len(ids)) for t in tokens))

    def seqs(self, lines: Sequence[Iterable[Hashable]]) -> list[SymbolSeq]:
        """``[self.seq(line) for line in lines]``, with the same ids.

        The new tokens get their ids in order of first appearance across
        the lines, as line-by-line interning gives them.  Leading lines of
        ``str`` go through the charmap codec map of ``_codec``: each line
        is encoded in one C call to its ids plus one, and one
        ``translate`` shifts them down.  A line that brings new symbols
        fails to encode; its new symbols get their ids, and only then is
        the map rebuilt.  From the first line the map cannot take (it
        holds U+0000, U+FFFE or a code point above U+FFFF, brings a 256th
        symbol, or is not a ``str``) the rest of the lines take the
        general path in one pass: one pass over their tokens for the ids,
        then, while every id fits in a byte, each ``bytes`` line becomes
        its id bytes with one ``translate``; other lines map token by
        token.
        """
        done = self._encode(lines)
        return done + self._seqs(lines[len(done) :])

    def _encode(self, lines: Sequence[Iterable[Hashable]]) -> list[SymbolSeq]:
        """The sequences of the leading ``str`` lines whose symbols the map
        of ``_codec`` can hold, each line encoded through it in one call."""
        ids, out = self._ids, []
        if not all(type(t) is str and len(t) == 1 for t in ids):
            return out  # tokens interned before that are not code points
        cmap = _codec(ids)
        for line in lines:
            # U+0000 encodes to 0 without an error, so it stops the codec too
            if cmap is None or type(line) is not str or "\0" in line:
                break
            try:
                code = charmap_encode(line, None, cmap)[0]
            except UnicodeEncodeError:  # new symbols: their ids, then a new map
                for t in dict.fromkeys(line):
                    ids.setdefault(t, len(ids))
                cmap = _codec(ids)
                if cmap is None:
                    break
                code = charmap_encode(line, None, cmap)[0]
            out.append(SymbolSeq(code.translate(_DOWN)))
        return out

    def _seqs(self, lines: Sequence[Iterable[Hashable]]) -> list[SymbolSeq]:
        """The general path of ``seqs``, for lines of any tokens."""
        ids = self._ids
        for t in dict.fromkeys(chain.from_iterable(lines)):  # first appearance first
            ids.setdefault(t, len(ids))
        if len(ids) <= 256 and all(type(line) is bytes for line in lines):
            table = bytes([ids.get(b, 0) for b in range(256)])
            return [SymbolSeq(line.translate(table)) for line in lines]
        return [SymbolSeq(tuple(map(ids.__getitem__, line))) for line in lines]


# byte b -> b - 1: a codec byte back to its id
_DOWN = bytes([0, *range(255)])


def _codec(ids: dict[str, int]):
    """The charmap encoding map of interned code points, under which a
    string of them encodes to its ids plus one; or None when no fast map
    can hold them.

    ``charmap_build`` returns a fast ``EncodingMap`` only for a table of
    256 BMP characters with U+0000 at position 0, in which U+FFFE marks a
    position unmapped.  For any other table it silently returns a dict,
    which encodes no faster than ``str.translate``.  So the table is
    U+0000, the code point of each id in id order, then U+FFFE up to 256:
    it holds at most 255 symbols, none of them U+0000, U+FFFE or above
    U+FFFF, in at most 254 distinct blocks of 128 code points.
    """
    if len(ids) > 255 or "\ufffe" in ids:
        return None
    cmap = charmap_build("\0" + "".join(ids) + "\ufffe" * (255 - len(ids)))
    return None if type(cmap) is dict else cmap


def lcs_len_dp(a: SymbolSeq, b: SymbolSeq) -> int:
    """Classic row-by-row recurrence with two-row memory.

    Each row obeys cur[j] = max(prev[j], prev[j-1] + match, cur[j-1]);
    the cur[j-1] dependency is a running maximum, so a row is computed as
    an elementwise candidate followed by a prefix maximum.  Rows are kept
    over the shorter input: O(|a|*|b|) time, O(min) space.  numpy is
    imported here, so only callers of this oracle pay for loading it; it
    comes with the ``test`` extra, and without it this raises ImportError.
    """
    try:
        import numpy as np
    except ImportError as exc:
        raise ImportError(
            "the dp engine needs numpy, which the 'test' extra installs: "
            "pip install 'harmdist[test]'"
        ) from exc

    xs, ys = a.ids, b.ids
    if len(xs) < len(ys):
        xs, ys = ys, xs
    n = len(ys)
    if n == 0:
        return 0
    row = np.fromiter(ys, dtype=np.int64, count=n)
    prev = np.zeros(n + 1, dtype=np.int64)
    cur = np.zeros(n + 1, dtype=np.int64)
    for s in xs:
        np.maximum(prev[1:], prev[:-1] + (row == s), out=cur[1:])
        np.maximum.accumulate(cur[1:], out=cur[1:])
        prev, cur = cur, prev
    return int(prev[n])


def lcs_len_bitparallel(a: SymbolSeq, b: SymbolSeq) -> int:
    """Bit-vector LCS: the profile of the shorter input (``lcs_profile``)
    run over the longer one.

    Python integers chunk the row into machine words internally, so each
    of the row updates, one per symbol of the longer input, costs
    O(ceil(min_len / wordsize)) word operations.
    """
    if len(a.ids) > len(b.ids):
        a, b = b, a
    return lcs_profile(a)(b)


def _advance(
    ids: Iterable[int], mask_of: Callable[[int], int | None], full: int
) -> int:
    """The row after one update per symbol of ids that has a mask:

        u = row & mask;  row = ((row + u) | (row ^ u)) & full

    starting from ``full``, where the carry propagation of ``row + u``
    performs the per-run merge the classic recurrence does cell by cell.
    Hyyro's form subtracts u, but u is a subset of row, so ``row - u``
    never borrows and equals ``row ^ u`` (row AND NOT mask), which
    Python computes without a carry chain.
    The same update serves one string along the bits and every lane of
    the packed text that ``full`` selects.  ``mask_of`` gives a symbol's
    mask: the ``get`` of a dict of masks (the profile's, or the table
    the rows of ``lcs_rows`` share), or the function of
    ``_stepped_masks`` that computes it at each step.  Symbols without a
    mask (None or 0) are dropped by ``filter`` and ``map`` without a
    Python-level step.
    """
    row = full
    for mask in filter(None, map(mask_of, ids)):
        u = row & mask
        row = ((row + u) | (row ^ u)) & full
    return row


def lcs_profile(q: SymbolSeq) -> Callable[[SymbolSeq], int]:
    """The function s -> |lcs(q, s)|, equal to ``lcs_len(q, s)``.

    The query profile of database search (Rognes & Seeberg 2000): q lies
    along the bits, and the match mask of each distinct symbol of q (bit i
    set where q[i] is that symbol) and the mask ``full`` of all |q| bits
    are built once, here, in one pass over q, for every string the
    function then meets.  Each string costs one row update per symbol it
    shares with q; zero bits in the final row count matched positions.
    """
    masks: dict[int, int] = {}
    bit = 1
    for s in q.ids:
        masks[s] = masks.get(s, 0) | bit
        bit <<= 1
    mask_of, full, m = masks.get, bit - 1, len(q.ids)
    return lambda s: m - _advance(s.ids, mask_of, full).bit_count()


def lcs_len_hunt_szymanski(a: SymbolSeq, b: SymbolSeq) -> int:
    """Sparse-match LCS in O((r + n) log n), r = number of matching pairs.

    Matching positions are consumed row by row in decreasing column
    order; ``tails[k]`` holds the least end column of any common
    subsequence of length k+1, maintained by binary search, so the final
    number of tails is the LCS length.
    """
    xs, ys = a.ids, b.ids
    if not xs or not ys:
        return 0
    occurrences: dict[int, list[int]] = {}
    for j, s in enumerate(ys):
        occurrences.setdefault(s, []).append(j)
    tails: list[int] = []
    for s in xs:
        js = occurrences.get(s)
        if not js:
            continue
        # descending columns so matches in one row never chain together
        for j in reversed(js):
            k = bisect_left(tails, j)
            if k == len(tails):
                tails.append(j)
            elif tails[k] > j:
                tails[k] = j
    return len(tails)


def lcs_len_bruteforce(a: SymbolSeq, b: SymbolSeq) -> int:
    """Exponential oracle: try every subsequence of the shorter input."""
    xs, ys = a.ids, b.ids
    if len(xs) > len(ys):
        xs, ys = ys, xs
    m = len(xs)
    if m > BRUTE_FORCE_LIMIT:
        raise CapacityError(
            f"brute-force LCS is limited to min length {BRUTE_FORCE_LIMIT}, "
            f"got {m}"
        )
    best = 0
    for mask in range(1 << m):
        size = mask.bit_count()
        if size <= best:
            continue
        sub = [xs[i] for i in range(m) if mask >> i & 1]
        it = iter(ys)
        if all(any(t == s for t in it) for s in sub):
            best = size
    return best


def lcs_len(a: SymbolSeq, b: SymbolSeq, engine: Engine = "auto") -> int:
    """LCS length via the requested engine.

    ``auto`` is the bit-parallel engine; every engine returns the same
    value.
    """
    if engine == "auto" or engine == "bitparallel":
        return lcs_len_bitparallel(a, b)
    if engine == "dp":
        return lcs_len_dp(a, b)
    if engine == "huntszymanski":
        return lcs_len_hunt_szymanski(a, b)
    if engine == "bruteforce":
        return lcs_len_bruteforce(a, b)
    raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")


def lcs_lens(q: SymbolSeq, corpus: Sequence[SymbolSeq]) -> list[int]:
    """LCS lengths of q against every corpus string, in corpus order.

    Whenever every id of q and the corpus is below 256, the packed form of
    the bit-parallel engine: one row over every lane, its masks the part
    masks of ``_stepped_masks``.  Otherwise q's profile (``lcs_profile``),
    built once and run over every string, which on corpora of wide ids is
    faster than the scalar engine pair by pair.  Whichever form runs, each
    length equals ``lcs_len(q, s)``.
    """
    if not corpus:  # an empty packed text has no planes to build
        return []
    if type(q.ids) is bytes and _packs(corpus):
        text = b"".join([_lane(s) for s in corpus])
        mask_of = _stepped_masks(text, set(q.ids))
        return _lcs_packed([(q.ids, 0)], mask_of, corpus)[0]
    return list(map(lcs_profile(q), corpus))


def lcs_rows(seqs: Sequence[SymbolSeq]) -> list[list[int]]:
    """The upper triangle of the LCS-length matrix of seqs: row i is
    ``lcs_lens(seqs[i], seqs[i + 1:])``, for every i, so the last row is
    empty.

    With every id below 256 the slice is packed once, and row i is one
    row of the packed form over the lanes after lane i.  All rows read
    one table: the match mask of each symbol of the rows before the last,
    one AND of its part masks from ``_stepped_masks``, zero masks
    dropped.  Every symbol in it occurs in some row, so it costs no more
    ANDs than stepping would.  Any other slice runs ``lcs_lens`` row by
    row.  Whichever form runs, each length equals ``lcs_len(seqs[i], seqs[j])``.
    """
    if len(seqs) < 2:
        return [[] for _ in seqs]
    if not _packs(seqs):
        return [lcs_lens(q, seqs[i + 1 :]) for i, q in enumerate(seqs)]
    text = b"".join([_lane(s) for s in seqs])
    queries = [(q.ids, i + 1) for i, q in enumerate(seqs[:-1])]
    symbols = set().union(*[q.ids for q in seqs[:-1]])
    stepped = _stepped_masks(text, symbols)
    table = {s: mask for s in symbols if (mask := stepped(s))}
    return _lcs_packed(queries, table.get, seqs) + [[]]


def _packs(seqs: Sequence[SymbolSeq]) -> bool:
    """Whether every id of seqs is below 256, so that they pack."""
    return all(type(s.ids) is bytes for s in seqs)


def _lane(s: SymbolSeq) -> bytes:
    """The lane of s in the packed text, most significant bit first: one
    to eight zero pad bytes (the guard bits), then the id bytes last to
    first."""
    return bytes(8 - len(s.ids) % 8) + s.ids[::-1]


_ZEROS = b"0" * 256
_ONES = b"1" * 256
_BYTES = bytes(range(256))
# byte b -> "1" where b has bit k set, else "0"
_PLANES = [(_ZEROS[: 1 << k] + _ONES[: 1 << k]) * (128 >> k) for k in range(8)]

# The packed text.  Lane j spans widths[j] bytes and holds string j in its
# low lengths[j] bits; the first lane is the most significant.  The text
# of the lanes has one byte per bit, so translating it to ASCII digits
# gives a mask over every lane at once: a bit plane of the text, from
# which ``_stepped_masks`` builds each symbol's match mask.  A mask may
# have guard bits set (pad bytes are zero, like symbol 0), but the row's
# guard bits stay clear, so u never has them: a carry out of a lane stops
# in its first guard bit and is masked off by ``full``.  Lanes that
# ``full`` clears stay clear in the row, so ``full`` alone selects which
# lanes a row update advances.


def _lcs_packed(
    queries: list[tuple[bytes, int]],
    mask_of: Callable[[int], int | None],
    corpus: Sequence[SymbolSeq],
) -> list[list[int]]:
    """For each query (ids, start), its LCS lengths against the corpus
    strings from lane ``start`` on, one row of updates over the packed
    text of the corpus.  Every row takes its masks from ``mask_of``,
    which gives each query id's match mask over the whole text: the
    function of ``_stepped_masks``, or the ``get`` of a table of masks."""
    lengths = [len(s.ids) for s in corpus]
    widths = [n // 8 + 1 for n in lengths]
    full = _packed_full(lengths, widths)
    rows = []
    for ids, start in queries:
        ws = widths[start:]
        part = full & ((1 << 8 * sum(ws)) - 1) if start else full
        rows.append(_packed_decode(_advance(ids, mask_of, part), part, ws))
    return rows


def _stepped_masks(lanes: bytes, symbols: set[int]) -> Callable[[int], int | None]:
    """The function s -> the match mask of s over the packed text
    ``lanes`` (0 where s does not occur), computed at each call as one AND
    of two part masks: one for the high half of the id's bits and one for
    the low half, each prebuilt for the halves the symbols have.  With
    ids below 256 that is at most 16 + 16 part masks, however many
    distinct symbols there are.  With no symbols no step has a mask, and
    the function is ``{}.get``."""
    if not symbols:  # an empty set has no planes to build
        return {}.get
    root, planes = _bit_planes(lanes, max(symbols))
    h = len(planes) // 2
    low = (1 << h) - 1
    highs = _plane_masks(root, planes[h:], {s >> h for s in symbols}).get
    lows = _plane_masks((1 << len(lanes)) - 1, planes[:h], {s & low for s in symbols}).get
    return lambda s: highs(s >> h, 0) & lows(s & low, 0)


def _bit_planes(lanes: bytes, top: int) -> tuple[int, list[int]]:
    """The bit planes of the packed text below the bit length of top, and
    the root: the mask of the bytes with no bit set above the planes.

    Plane k is the mask whose bit j is set where byte j of the text has its
    bit k set: one ``translate`` and one ``int(..., 2)`` pass over the
    text.  The root is every byte unless some byte has a higher bit set.
    """
    nbits = top.bit_length()
    planes = [int(lanes.translate(_PLANES[k]), 2) for k in range(nbits)]
    below = 1 << nbits
    if below < 256 and lanes.translate(None, _BYTES[:below]):
        return int(lanes.translate(_ONES[:below] + _ZEROS[below:]), 2), planes
    return (1 << len(lanes)) - 1, planes


def _plane_masks(root: int, planes: list[int], values: Iterable[int]) -> dict[int, int]:
    """The mask of each value below 2 ** len(planes) that has one: root
    AND, for each bit k, plane k where the value has bit k set and its
    complement where it has not.  Each plane is paired once with
    root ^ plane, which within root is its complement, so a value's mask
    is root and one AND per plane.  Only masks that are not 0 are kept.
    """
    pairs = [(root ^ plane, plane) for plane in planes]
    masks: dict[int, int] = {}
    for v in values:
        mask = root
        for k, pair in enumerate(pairs):
            mask &= pair[v >> k & 1]
        if mask:
            masks[v] = mask
    return masks


def _packed_full(lengths: list[int], widths: list[int]) -> int:
    """The string bits of every lane set, its guard bits clear."""
    return int.from_bytes(
        b"".join([((1 << n) - 1).to_bytes(w, "big") for n, w in zip(lengths, widths)]),
        "big",
    )


def _packed_decode(row: int, full: int, widths: list[int]) -> list[int]:
    """Each lane's LCS: the number of its string bits cleared in the row,
    for the lanes of the low sum(widths) bytes, counted one lane slice at
    a time so that no per-byte list is built."""
    matched, count = (row ^ full).to_bytes(sum(widths), "big"), int.from_bytes
    return [
        count(matched[end - w : end], "big").bit_count()
        for w, end in zip(widths, accumulate(widths))
    ]


def scs_len(a: SymbolSeq, b: SymbolSeq) -> int:
    """Shortest-common-supersequence length, |a| + |b| - |lcs(a, b)|."""
    return len(a.ids) + len(b.ids) - lcs_len(a, b)


def is_subsequence(a: SymbolSeq, b: SymbolSeq) -> bool:
    """True iff a is obtained from b by deleting zero or more symbols."""
    it = iter(b.ids)
    for s in a.ids:
        for t in it:
            if t == s:
                break
        else:
            return False
    return True
