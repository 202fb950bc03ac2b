"""The harmonic edit distance.

    d(a, b) = 2 * H_scs - H_|a| - H_|b|,   scs = |a| + |b| - |lcs(a, b)|

Equivalently: grow ``a`` symbol by symbol into a shortest common
supersequence, then shrink that to ``b``, where an edit touching a
string of length k costs 1/k.  The distance satisfies the three metric
axioms (see ``propcheck`` for the executable verification) and is
evaluated here as a sum of two harmonic differences, which is
algebraically identical to the defining formula but avoids cancellation
between large harmonic values.

Values are unbounded: d(empty, b) = H_|b| grows with |b|.  Clamping to
[0, 1] would break the triangle inequality, so none is applied.

All functions are pure; a shared HarmonicTable may be used concurrently.
"""

from __future__ import annotations

from array import array
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING, NamedTuple

from .errors import CapacityError
from .harmonic import default_table, harmonic_diff, harmonic_exact, HarmonicTable
from .lcs import (
    Engine,
    SymbolSeq,
    is_subsequence,
    lcs_len,
    lcs_lens,
    lcs_profile,
    lcs_rows,
)

if TYPE_CHECKING:
    from fractions import Fraction

#: Exact evaluation is guarded at |a| + |b| <= this (rational blowup).
EXACT_LENGTH_LIMIT = 10_000


class DistanceBreakdown(NamedTuple):
    """Insertion and deletion halves of one distance value.

    ``insertion_cost`` grows the first string into a shortest common
    supersequence, ``deletion_cost`` shrinks that back to the second;
    ``total`` is their sum and equals the distance.  An immutable named
    tuple of the three fields.
    """

    insertion_cost: float
    deletion_cost: float
    total: float


def distance(
    a: SymbolSeq,
    b: SymbolSeq,
    *,
    table: HarmonicTable | None = None,
    engine: Engine = "auto",
) -> float:
    """The harmonic edit distance; zero exactly when a == b.

    Zero comes from the length formula itself: for equal strings both
    harmonic spans are empty, so each summand is exactly 0.0.  Symmetric
    bit for bit: the LCS length is an exact integer, so swapping a and b
    only swaps the two summands, and IEEE addition commutes.
    """
    if table is None:
        table = default_table()
    return _distance_from_lengths(
        len(a.ids), len(b.ids), lcs_len(a, b, engine), table
    )


def distances(
    q: SymbolSeq,
    corpus: Sequence[SymbolSeq],
    *,
    table: HarmonicTable | None = None,
) -> list[float]:
    """``[distance(q, s, table=table) for s in corpus]``, bit for bit, with
    the LCS lengths taken one-vs-many by ``lcs_lens``.  It takes no
    engine: every engine gives the same distance.

    The knn scan and the vp-tree build run through here; the CLI's
    ``matrix`` runs through ``distance_rows``.  A string equal to q gets
    exactly 0.0 from the length formula itself: both harmonic spans are
    empty.
    """
    if table is None:
        table = default_table()
    la = len(q.ids)
    return [
        _distance_from_lengths(la, len(s.ids), lcs, table)
        for s, lcs in zip(corpus, lcs_lens(q, corpus))
    ]


def distance_rows(
    seqs: Sequence[SymbolSeq],
    *,
    table: HarmonicTable | None = None,
) -> list[array]:
    """The upper triangle of the distance matrix of seqs: row i is
    ``distances(seqs[i], seqs[i + 1:], table=table)``, bit for bit, as an
    ``array('d')``, with the LCS lengths of every row taken at once by
    ``lcs_rows``.  The last row is empty.
    """
    if table is None:
        table = default_table()
    lens = [len(s.ids) for s in seqs]
    return [
        array(
            "d",
            [
                _distance_from_lengths(la, lb, lcs, table)
                for lb, lcs in zip(lens[i + 1 :], row)
            ],
        )
        for i, (la, row) in enumerate(zip(lens, lcs_rows(seqs)))
    ]


def distance_profile(
    q: SymbolSeq,
    *,
    table: HarmonicTable | None = None,
) -> Callable[[SymbolSeq], float]:
    """The function s -> ``distance(q, s, table=table)``, bit for bit.

    It runs q's LCS profile (``lcs_profile``), built once here, and the
    length formula, which gives exactly 0.0 for a string equal to q.
    """
    if table is None:
        table = default_table()
    lcs, la = lcs_profile(q), len(q.ids)
    return lambda s: _distance_from_lengths(la, len(s.ids), lcs(s), table)


def distance_decomposed(
    a: SymbolSeq,
    b: SymbolSeq,
    *,
    table: HarmonicTable | None = None,
    engine: Engine = "auto",
) -> DistanceBreakdown:
    """Split the distance into its insertion and deletion components.

    Components are tied to the argument order (grow ``a``, then shrink to
    ``b``); the total is order-independent and equals ``distance(a, b)``.
    """
    if table is None:
        table = default_table()
    la, lb = len(a.ids), len(b.ids)
    scs = la + lb - lcs_len(a, b, engine)
    ins = harmonic_diff(table, la, scs)
    dele = harmonic_diff(table, lb, scs)
    return DistanceBreakdown(ins, dele, ins + dele)


def distance_subsequence(
    a: SymbolSeq,
    b: SymbolSeq,
    *,
    table: HarmonicTable | None = None,
) -> float:
    """Fast path when a is a subsequence of b: d = H_|b| - H_|a|.

    The caller owns the precondition; it is asserted here, so violations
    surface in normal runs and are skipped under ``python -O``.
    """
    assert is_subsequence(a, b), "distance_subsequence requires a subseq of b"
    if table is None:
        table = default_table()
    return harmonic_diff(table, len(a.ids), len(b.ids))


def distance_exact(
    a: SymbolSeq,
    b: SymbolSeq,
    engine: Engine = "auto",
) -> Fraction:
    """The defining formula in exact rational arithmetic."""
    la, lb = len(a.ids), len(b.ids)
    if la + lb > EXACT_LENGTH_LIMIT:
        raise CapacityError(
            f"exact distance is limited to |a| + |b| <= {EXACT_LENGTH_LIMIT}, "
            f"got {la + lb}"
        )
    return _distance_exact_from_lengths(la, lb, lcs_len(a, b, engine))


def _distance_from_lengths(
    la: int, lb: int, lcs: int, table: HarmonicTable
) -> float:
    """Distance forced by the three lengths alone (shared with propcheck)."""
    scs = la + lb - lcs
    return harmonic_diff(table, la, scs) + harmonic_diff(table, lb, scs)


def _distance_exact_from_lengths(la: int, lb: int, lcs: int) -> Fraction:
    scs = la + lb - lcs
    return 2 * harmonic_exact(scs) - harmonic_exact(la) - harmonic_exact(lb)
