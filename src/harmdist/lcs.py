"""Longest-common-subsequence lengths over interned symbol sequences.

Several engines share one contract (the exact LCS length).  The
bit-parallel engine is the production one, run by ``lcs_len`` for
``auto``; ``dp``, ``huntszymanski`` and ``bruteforce`` stay as named
oracles.  Only lengths are ever computed: every quantity the distance
needs collapses to |lcs| and |scs| = |a| + |b| - |lcs|, so no traceback
is kept.  Memory differs by engine: ``dp`` keeps two rows over the
shorter input, the bit-parallel engine one match mask per distinct
symbol of the shorter input, and Hunt-Szymanski occurrence lists over
all of ``b`` plus at most min(|a|, |b|) tails.

Engines are pure functions of immutable inputs.  An ``Interner`` is
mutated only while ingesting text; once built it may be shared freely
between concurrent distance computations.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Hashable, Iterable
from dataclasses import dataclass
from typing import Literal

from .errors import CapacityError

Engine = Literal["auto", "dp", "bitparallel", "huntszymanski", "bruteforce"]

ENGINES = ("auto", "dp", "bitparallel", "huntszymanski", "bruteforce")

#: Brute force enumerates 2^min subsequences; refuse beyond this.
BRUTE_FORCE_LIMIT = 20


@dataclass(frozen=True, slots=True)
class SymbolSeq:
    """An immutable sequence of nonnegative integer symbol ids."""

    ids: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.ids, tuple):
            object.__setattr__(self, "ids", tuple(self.ids))

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
    m = len(xs)
    if m == 0 or len(ys) == 0:
        return 0
    masks: dict[int, int] = {}
    bit = 1
    for s in xs:
        masks[s] = masks.get(s, 0) | bit
        bit <<= 1
    full = bit - 1
    row = full
    for s in ys:
        mask = masks.get(s)
        if mask:
            u = row & mask
            row = ((row + u) | (row - u)) & full
    return m - row.bit_count()


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
