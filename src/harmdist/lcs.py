"""Longest-common-subsequence lengths over interned symbol sequences.

Several engines share one contract (the exact LCS length).  The
bit-parallel engine (Allison & Dix 1986; Hyyro 2004) is the production
one.  One row update, ``_advance``, serves it in two forms:

* scalar or profile: one string along the bits of one integer, with its
  match masks built once.  ``lcs_len_bitparallel(a, b)`` lays the
  shorter input along the bits and advances it over the longer one;
  ``lcs_len`` runs it for ``auto``.  ``lcs_profile(q)`` lays q along the
  bits once for every string it then meets; ``lcs_lens`` runs it when
  an id of 256 or more keeps the input from packing, and
  ``metric.distance_profile`` for the vp-tree search;
* packed: many strings, each one lane of a single packed integer, so one
  row update per query symbol advances every pair at once.  It has two
  callers.  ``lcs_lens(q, corpus)`` takes one query against many
  strings, for the knn scan and the vp-tree build.  ``lcs_rows(seqs)``
  takes every line of a slice against the lines after it, for the CLI's
  ``matrix``: the slice is packed once and its columns cut into blocks
  of consecutive lanes; each symbol's mask over a block is built once and
  shared by every row that reaches the block, and a row's ``full`` alone
  selects the lanes after its own line.  A slice that the row caller does
  not pack goes row by row to ``lcs_lens``.

Both packed callers share one kernel: the mask builder, the row update
and the lane decode.

An engine is named only to ``lcs_len`` (and ``scs_len``), one pair at a
time.  ``dp``, ``huntszymanski`` and ``bruteforce`` stay there as
oracles, and ``bitparallel`` names the same scalar code as ``auto``.
The one-vs-many and row forms take no engine: every engine returns the
same length, so the choice could change only their time.  Only lengths
are ever computed: every quantity the distance needs collapses to |lcs|
and |scs| = |a| + |b| - |lcs|, so no traceback is kept.  Memory differs
by engine: ``dp`` keeps two rows over the shorter input, the scalar
bit-parallel engine one match mask per distinct symbol of the shorter
input, and Hunt-Szymanski occurrence lists over all of ``b`` plus at
most min(|a|, |b|) tails.

Packed masks.  Every packed mask comes from the bit planes of the packed
text: plane k marks the bytes whose bit k is set, one ``translate`` and
one ``int(..., 2)`` pass over the text, and at most 8 planes (as many as
the largest query id has bits) serve every symbol.  A symbol's mask is
the AND, over its id's bits, of each plane or its complement; ids that
share their high bits share the ANDs that select them, which costs about
two big-integer operations a symbol.  The passes over the text are thus
set by the largest id, not by the number of distinct symbols.

Packing rule.  Both packed callers pack whenever every id is below 256
(a lane is built from the ids as bytes); an id of 256 or more sends
``lcs_lens`` to q's profile.  Both bound the masks they keep for the row
updates, one per distinct symbol at one bit per packed symbol plus
byte-aligned guard bits, by the bytes of the packed strings' own ids (8
bytes per symbol).  ``lcs_lens`` prebuilds a mask per distinct query
symbol while they fit that budget; otherwise it computes each step's
mask as one AND of two part masks, for the high and the low half of the
id's bits.  That keeps at most 16 + 16 part masks however many distinct
symbols the query has, within the budget whenever every line has at
least 4 symbols.  ``lcs_rows`` sizes each column block so that the masks
of the block's distinct symbols fit the budget of the whole slice, and
holds one block's masks at a time (a block holds at least one line).  On
the benchmark's 150-line long-sparse slice (200 symbols) the masks over
all lanes would take 933 kB against a 293 kB budget, and the slice is cut
into four blocks; its 120-line short-dense slice (4 symbols) is one
block.  A fresh ``matrix`` over the long-sparse slice took 0.24 s with
the row form against 0.57 s with a profile per row (2-core x86-64
machine, medians of 8 alternating pairs).

Measured on a 2-core x86-64 machine as the median of 61 alternating
pairs, lane building included, packed time over profile time was 0.48
for a 36-symbol query with 4 distinct symbols against 2,000 lines of
8-64 ``acgt`` symbols (prebuilt masks).  Against 400 lines of 100-400
symbols over an alphabet of 200 it was 0.74 for a 40-symbol query with
36 distinct symbols (prebuilt masks) and 0.44 for a 250-symbol query
with 150 distinct (part masks); with one pass over the text per symbol
the same two took 1.88 and 2.97.  Memory favours the profile: its masks
take |q| bits each, and the peak of traced Python allocations during a
call was at most 0.02 MB at every point above, against 0.51 MB packed on
the short lines and 0.86 and 0.77 MB on the long ones.

Engines are pure functions of immutable inputs.  An ``Interner`` is
mutated only while ingesting text; once built it may be shared freely
between concurrent distance computations.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Hashable, Iterable, Sequence
from itertools import accumulate
from typing import Literal

from .errors import CapacityError

Engine = Literal["auto", "dp", "bitparallel", "huntszymanski", "bruteforce"]

ENGINES = ("auto", "dp", "bitparallel", "huntszymanski", "bruteforce")

#: Brute force enumerates 2^min subsequences; refuse beyond this.
BRUTE_FORCE_LIMIT = 20


class SymbolSeq:
    """An immutable sequence of nonnegative integer symbol ids.

    Equal, and hashed alike, exactly when the ids are.  The packed form
    of ``lcs_lens`` caches the sequence's lane bytes on first use.
    """

    __slots__ = ("ids", "_lane")

    def __init__(self, ids):
        _set(self, "ids", ids if type(ids) is tuple else tuple(ids))

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


_set = object.__setattr__


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


def lcs_len_dp(a: SymbolSeq, b: SymbolSeq) -> int:
    """Classic row-by-row recurrence with two-row memory.

    Each row obeys cur[j] = max(prev[j], prev[j-1] + match, cur[j-1]);
    the cur[j-1] dependency is a running maximum, so a row is computed as
    an elementwise candidate followed by a prefix maximum.  Rows are kept
    over the shorter input: O(|a|*|b|) time, O(min) space.  numpy is
    imported here, so only callers of this oracle pay for loading it.
    """
    import numpy as np

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
    """Bit-vector LCS: one row state packed into a single big integer.

    The shorter input is laid out along the bits, with one match mask per
    distinct symbol (``_match_masks``), and ``_advance`` runs one row
    update per symbol of the longer input.  Python integers chunk the row
    into machine words internally, so each update costs
    O(ceil(min_len / wordsize)) word operations.  Zero bits in the final
    row count matched positions.
    """
    xs, ys = a.ids, b.ids
    if len(xs) > len(ys):
        xs, ys = ys, xs
    masks, full = _match_masks(xs)
    return len(xs) - _advance(ys, masks.get, full).bit_count()


def _match_masks(xs: tuple[int, ...]) -> tuple[dict[int, int], int]:
    """The match mask of each distinct symbol of xs, whose bit i is set
    where xs[i] is that symbol, and the mask ``full`` of all len(xs) bits;
    built in one pass over xs."""
    masks: dict[int, int] = {}
    bit = 1
    for s in xs:
        masks[s] = masks.get(s, 0) | bit
        bit <<= 1
    return masks, bit - 1


def _advance(
    ids: Iterable[int], mask_of: Callable[[int], int | None], full: int
) -> int:
    """The row after one update per symbol of ids that has a mask:

        u = row & mask;  row = ((row + u) | (row - u)) & full

    starting from ``full``, where the carry propagation of ``row + u``
    performs the per-run merge the classic recurrence does cell by cell.
    The same update serves one string along the bits and every lane of
    the packed text that ``full`` selects.  ``mask_of`` gives a symbol's
    mask: the ``get`` of a dict of prebuilt masks, or a function that
    computes it at each step.  Symbols without a mask (None or 0) are
    dropped by ``filter`` and ``map`` without a Python-level step.
    """
    row = full
    for mask in filter(None, map(mask_of, ids)):
        u = row & mask
        row = ((row + u) | (row - u)) & full
    return row


def lcs_profile(q: SymbolSeq) -> Callable[[SymbolSeq], int]:
    """The function s -> |lcs(q, s)|, equal to ``lcs_len(q, s)``.

    The query profile of database search (Rognes & Seeberg 2000): q lies
    along the bits, and its match masks and ``full`` are built once, here,
    for every string the function then meets.  Each string costs one row
    update per symbol it shares with q.
    """
    masks, full = _match_masks(q.ids)
    mask_of, m = masks.get, len(q.ids)
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

    The packed form of the bit-parallel engine whenever every id of q and
    the corpus is below 256, and q's profile (``lcs_profile``) run over
    every string otherwise.  The packed form prebuilds a mask per distinct
    symbol of q while they fit the packing rule's budget, and computes
    each step's mask from part masks otherwise (see the module
    docstring).  Whichever form runs, each length equals
    ``lcs_len(q, s)``.
    """
    if not corpus:  # an empty packed text has no planes to build
        return []
    symbols = set(q.ids)
    if symbols <= _BYTE_IDS:
        try:
            lanes = b"".join([_lane(s) for s in corpus])
        except ValueError:  # a corpus id of 256 or more
            pass
        else:
            lengths = [len(s.ids) for s in corpus]
            widths = [n // 8 + 1 for n in lengths]
            return _lcs_lens_packed(q.ids, symbols, lengths, widths, lanes)
    return list(map(lcs_profile(q), corpus))


def lcs_rows(seqs: Sequence[SymbolSeq]) -> list[list[int]]:
    """The upper triangle of the LCS-length matrix of seqs: row i is
    ``lcs_lens(seqs[i], seqs[i + 1:])``, for every i, so the last row is
    empty.

    With every id below 256 this is the row caller of the packed form
    (see the module docstring): each symbol's mask is built once per
    column block and shared by every row that reaches the block.  Any
    other slice runs ``lcs_lens`` row by row.  Whichever form runs, each
    length equals ``lcs_len(seqs[i], seqs[j])``.
    """
    try:
        lanes = [_lane(s) for s in seqs]
    except ValueError:  # an id of 256 or more
        return [lcs_lens(q, seqs[i + 1 :]) for i, q in enumerate(seqs)]
    return _lcs_rows_packed(seqs, lanes)


def _lane(s: SymbolSeq) -> bytes:
    """The lane of s in the packed text, most significant bit first: one
    to eight zero pad bytes (the guard bits), then the ids last to first.

    Made once per sequence and cached on it; raises ValueError for an id
    of 256 or more.
    """
    try:
        return s._lane
    except AttributeError:
        ids = s.ids
        lane = bytes(8 - len(ids) % 8) + bytes(ids[::-1])
        _set(s, "_lane", lane)
        return lane


_BYTE_IDS = frozenset(range(256))
_ZEROS = b"0" * 256
_ONES = b"1" * 256
_BYTES = bytes(range(256))
# byte b -> "1" where b has bit k set, else "0"
_PLANES = [(_ZEROS[: 1 << k] + _ONES[: 1 << k]) * (128 >> k) for k in range(8)]

# The packed text.  Lane j spans widths[j] bytes and holds string j in its
# low lengths[j] bits; the first lane is the most significant.  The text
# of the lanes has one byte per bit, so translating it to ASCII digits
# gives a mask over every lane at once: a bit plane of the text, from
# which ``_plane_masks`` builds each symbol's match mask.  A mask may
# have guard bits set (pad bytes are zero, like symbol 0), but the row's
# guard bits stay clear, so u never has them: a carry out of a lane stops
# in its first guard bit and is masked off by ``full``.  Lanes that
# ``full`` clears stay clear in the row, so ``full`` alone selects which
# lanes a row update advances.


def _lcs_lens_packed(
    qids: tuple[int, ...],
    symbols: set[int],
    lengths: list[int],
    widths: list[int],
    lanes: bytes,
) -> list[int]:
    full = _packed_full(lengths, widths)
    if len(symbols) * sum(widths) <= 8 * sum(lengths):
        mask_of = _packed_masks(lanes, symbols).get
    else:
        mask_of = _stepped_masks(lanes, symbols)
    return _packed_decode(_advance(qids, mask_of, full), full, widths)


def _lcs_rows_packed(seqs: Sequence[SymbolSeq], lanes: list[bytes]) -> list[list[int]]:
    # Columns are cut into blocks of consecutive lines, each as large as
    # the budget allows: its masks, one per distinct symbol at its lanes'
    # bytes, take no more bytes than the ids of the whole slice (8 bytes a
    # symbol), as in the packing rule.  A block holds at least one line.
    # Row i runs against every block that holds a line after i, with the
    # block's lanes up to line i cleared from ``full``.
    lengths = [len(s.ids) for s in seqs]
    widths = [len(lane) // 8 for lane in lanes]
    budget = 8 * sum(lengths)
    rows: list[list[int]] = [[] for _ in seqs]
    lo, n = 0, len(seqs)
    while lo < n:
        symbols, held, hi = set(seqs[lo].ids), widths[lo], lo + 1
        while hi < n:
            grown = symbols.union(seqs[hi].ids)
            if len(grown) * (held + widths[hi]) > budget:
                break
            symbols, held, hi = grown, held + widths[hi], hi + 1
        peq = _packed_masks(b"".join(lanes[lo:hi]), symbols)
        full = _packed_full(lengths[lo:hi], widths[lo:hi])
        for i in range(hi - 1):
            ws = widths[max(i + 1, lo) : hi]
            part = full & ((1 << 8 * sum(ws)) - 1)
            rows[i] += _packed_decode(_advance(seqs[i].ids, peq.get, part), part, ws)
        del peq  # before the next block's masks are built
        lo = hi
    return rows


def _packed_masks(lanes: bytes, symbols: Iterable[int]) -> dict[int, int]:
    """The match mask over the packed text ``lanes`` of each symbol that
    occurs in it, built from the text's bit planes (``_bit_planes``) by
    ``_plane_masks``."""
    symbols = list(symbols)
    if not symbols:
        return {}
    root, planes = _bit_planes(lanes, max(symbols))
    return _plane_masks(root, planes, symbols)


def _stepped_masks(lanes: bytes, symbols: set[int]) -> Callable[[int], int]:
    """The function s -> the match mask of s over the packed text
    ``lanes`` (0 where s does not occur), computed at each step as one AND
    of two part masks: one for the high half of the id's bits and one for
    the low half, each prebuilt for the halves the symbols have.  With
    ids below 256 that is at most 16 + 16 part masks, however many
    distinct symbols there are."""
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
    complement where it has not.  Values are split on their bits from the
    highest down, as in a binary trie, so values that share high bits
    share the ANDs that select them: a split costs an AND for the ones
    side and an XOR for the zeros side, and a branch whose mask is 0
    stops.  Only masks that are not 0 are kept.
    """
    masks: dict[int, int] = {}
    stack = [(root, len(planes), sorted(values))]
    while stack:
        mask, k, vs = stack.pop()
        if not k:
            masks[vs[0]] = mask
            continue
        k -= 1
        ones = mask & planes[k]
        cut = bisect_left(vs, (vs[0] >> k | 1) << k)
        if cut < len(vs) and ones:
            stack.append((ones, k, vs[cut:]))
        if cut:
            zeros = mask ^ ones
            if zeros:
                stack.append((zeros, k, vs[:cut]))
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


def scs_len(a: SymbolSeq, b: SymbolSeq, engine: Engine = "auto") -> int:
    """Shortest-common-supersequence length, |a| + |b| - |lcs(a, b)|."""
    return len(a.ids) + len(b.ids) - lcs_len(a, b, engine)


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
