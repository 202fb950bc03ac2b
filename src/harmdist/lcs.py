"""Longest-common-subsequence lengths over interned symbol sequences.

Several engines share one contract (the exact LCS length).  The
bit-parallel engine (Allison & Dix 1986; Hyyro 2004) is the production
one, in three forms:

* scalar, ``lcs_len_bitparallel(a, b)``: one pair, the shorter input
  along the bits of one integer; ``lcs_len`` runs it for ``auto``;
* packed, inside ``lcs_lens(q, corpus)``: one query against many strings,
  each corpus string one lane of a single packed integer, so one row
  update per query symbol advances every pair at once;
* profile, ``lcs_profile(q)``: one query against many strings, one string
  at a time, with q along the bits and its match masks built once for
  all of them.  ``lcs_lens`` runs it for ``auto`` when the packing rule
  refuses, and ``metric.distance_profile`` for the vp-tree search.

``lcs_lens`` serves every one-vs-many caller: the knn scan, the vp-tree
build, and each row of the CLI's ``matrix`` (a line against the lines
after it).

``dp``, ``huntszymanski`` and ``bruteforce`` stay as named oracles and
always run per pair, and so does ``bitparallel`` when named.  Only
lengths are ever computed: every quantity the distance needs collapses to
|lcs| and |scs| = |a| + |b| - |lcs|, so no traceback is kept.  Memory
differs by engine: ``dp`` keeps two rows over the shorter input, the
scalar bit-parallel engine one match mask per distinct symbol of the
shorter input, and Hunt-Szymanski occurrence lists over all of ``b``
plus at most min(|a|, |b|) tails.

Packing rule.  ``lcs_lens`` packs only for ``auto``, only when every id,
in the query and in the corpus, is below 256 (a lane is built from the
ids as bytes), and only while the masks it holds at once, one per
distinct query symbol at one bit per corpus symbol plus byte-aligned
guard bits, take no more bytes than the corpus's own ids (8 bytes per
symbol).  Otherwise it runs q's profile over every string.  Each packed
mask costs a pass over the packed corpus, so the rule keeps packing to
few distinct query symbols.  Measured on a 2-core x86-64 machine as the
median of 61 alternating pairs, lane building included, packed time over
profile time was 0.50 for a 36-symbol query with 4 distinct symbols
against 2,000 lines of 8-64 ``acgt`` symbols, and 0.64, 0.73 and 0.93
at 14, 20 and 30 distinct symbols.  Against 400 lines of 100-400
symbols over an alphabet of 200, a 250-symbol query (146 distinct) took
2.98 times as long packed; the rule refuses it.  The rule still admits a
short query with a few dozen distinct symbols against such long lines,
where packing is slower (1.80 at 37 distinct of 40).  Memory favours the
profile: its masks take |q| bits each, and the peak of traced Python
allocations during a call was at most 0.02 MB at every point above,
against 0.89 MB packed on the short lines and 1.32 and 2.86 MB on the
long ones.

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

    The shorter input is laid out along the bits; per symbol s a match
    mask marks its positions, all built in one pass over that input.  For
    each symbol of the longer input the row update is

        u = row & mask;  row = ((row + u) | (row - u)) & full

    where the carry propagation of ``row + u`` performs the per-run merge
    the classic recurrence does cell by cell.  Python integers chunk the
    row into machine words internally, so each update costs
    O(ceil(min_len / wordsize)) word operations.  Zero bits in the final
    row count matched positions.
    """
    xs, ys = a.ids, b.ids
    if len(xs) > len(ys):
        xs, ys = ys, xs
    if not xs:
        return 0
    masks, full = _match_masks(xs)
    # not lcs_profile(xs)(ys): on one pair its closure and filter cost
    # more than they save (16.5 against 14.9 us a pair over 120 short acgt
    # lines, 2-core x86-64)
    row = full
    for s in ys:
        mask = masks.get(s)
        if mask:
            u = row & mask
            row = ((row + u) | (row - u)) & full
    return len(xs) - row.bit_count()


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


def lcs_profile(q: SymbolSeq) -> Callable[[SymbolSeq], int]:
    """The function s -> |lcs(q, s)|, equal to ``lcs_len(q, s)``.

    The query profile of database search (Rognes & Seeberg 2000): q lies
    along the bits, and its match masks and ``full`` are built once, here,
    for every string the function then meets.  Each string costs one row
    update per symbol it shares with q; its other symbols are dropped by
    ``filter`` and ``map`` without a Python-level step.
    """
    masks, full = _match_masks(q.ids)
    m = len(q.ids)
    mask_of = masks.get

    def lcs(s: SymbolSeq) -> int:
        row = full
        for mask in filter(None, map(mask_of, s.ids)):
            u = row & mask
            row = ((row + u) | (row - u)) & full
        return m - row.bit_count()

    return lcs


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


def lcs_lens(
    q: SymbolSeq, corpus: Sequence[SymbolSeq], engine: Engine = "auto"
) -> list[int]:
    """LCS lengths of q against every corpus string, in corpus order.

    For ``auto`` this is the packed form of the bit-parallel engine when
    the packing rule admits the input (see the module docstring), and q's
    profile (``lcs_profile``) run over every string otherwise; every other
    engine, ``bitparallel`` included, runs per pair.  Whichever form runs,
    each length equals ``lcs_len(q, s, engine)``.
    """
    if engine == "auto" and corpus:
        symbols = set(q.ids)
        lengths = [len(s.ids) for s in corpus]
        widths = [n // 8 + 1 for n in lengths]
        if symbols <= _BYTE_IDS and len(symbols) * sum(widths) <= 8 * sum(lengths):
            try:
                lanes = b"".join([_lane(s) for s in corpus])
            except ValueError:  # a corpus id of 256 or more
                pass
            else:
                return _lcs_lens_packed(q.ids, symbols, lengths, widths, lanes)
        return list(map(lcs_profile(q), corpus))
    return [lcs_len(q, s, engine) for s in corpus]


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
_POPCOUNT = bytes(bin(i).count("1") for i in range(256))


def _lcs_lens_packed(
    qids: tuple[int, ...],
    symbols: set[int],
    lengths: list[int],
    widths: list[int],
    lanes: bytes,
) -> list[int]:
    # Lane j spans widths[j] bytes and holds string j in its low
    # lengths[j] bits; lane 0 is the most significant.  The text ``lanes``
    # has one byte per bit, so translating it to ASCII digits gives the
    # match mask of one symbol over every lane at once.  A mask may have
    # guard bits set (pad bytes are zero, like symbol 0), but the row's
    # guard bits stay clear, so u never has them: a carry out of a lane
    # stops in its first guard bit and is masked off.
    peq = {}
    for s in symbols:
        mask = int(lanes.translate(_ZEROS[:s] + b"1" + _ZEROS[s + 1 :]), 2)
        if mask:
            peq[s] = mask
    full = int.from_bytes(
        b"".join([((1 << n) - 1).to_bytes(w, "big") for n, w in zip(lengths, widths)]),
        "big",
    )
    row = full
    for s in qids:
        mask = peq.get(s)
        if mask:
            u = row & mask
            row = ((row + u) | (row - u)) & full
    # a lane's LCS is the number of its string bits cleared in the row
    matched = (row ^ full).to_bytes(len(lanes) // 8, "big").translate(_POPCOUNT)
    cum = [0, *accumulate(matched)]
    return [cum[end] - cum[end - w] for w, end in zip(widths, accumulate(widths))]


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
