"""The harmonic edit distance.

    d(a, b) = 2 * H_scs - H_|a| - H_|b|,   scs = |a| + |b| - |lcs(a, b)|

Equivalently: grow ``a`` symbol by symbol into a shortest common
supersequence, then shrink that to ``b``, where an edit touching a
string of length k costs 1/k.  The distance satisfies the three metric
axioms (see ``propcheck`` for the executable verification).

The closed form is written once per arithmetic, over the three lengths:
``_distance_from_lengths`` in floats, a sum of two harmonic differences,
which is algebraically identical to the defining formula but avoids
cancellation between large harmonic values; ``_exact_from_lengths`` in
exact rationals.  Every distance here, and every distance ``propcheck``
verifies, is a call to one of the two.

Values are unbounded: d(empty, b) = H_|b| grows with |b|.  Clamping to
[0, 1] would break the triangle inequality, so none is applied.

All functions are pure and read the one process-wide harmonic table,
which is safe to share across threads; no distance function takes a
table.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from typing import TYPE_CHECKING, NamedTuple

from .errors import CapacityError
from .harmonic import EXACT_LIMIT, HarmonicTable, default_table
from .harmonic import harmonic_diff, harmonic_exact
from .lcs import (
    Engine,
    SymbolSeq,
    lcs_len,
    lcs_lens,
    lcs_rows,
)

if TYPE_CHECKING:
    from fractions import Fraction


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


def distance(a: SymbolSeq, b: SymbolSeq, *, engine: Engine = "auto") -> float:
    """The harmonic edit distance; zero exactly when a == b.

    It reads the default table, as every distance function does, so its
    value depends on the three lengths alone.  Every engine gives the same
    LCS length and so the same bits; ``engine`` names an oracle for tests.

    Zero comes from the length formula itself: for equal strings both
    harmonic spans are empty, so each summand is exactly 0.0.  Symmetric
    bit for bit: the LCS length is an exact integer, so swapping a and b
    only swaps the two summands, and IEEE addition commutes.
    """
    return _distance_from_lengths(
        len(a.ids), len(b.ids), lcs_len(a, b, engine), default_table()
    )


def distances(q: SymbolSeq, corpus: Sequence[SymbolSeq]) -> list[float]:
    """``[distance(q, s) for s in corpus]``, bit for bit, with the LCS
    lengths taken one-vs-many by ``lcs_lens``.  Like every batched form it
    takes no engine, since every engine gives the same distance.

    The knn scan, the vp-tree build and each leaf that a vp-tree search
    reaches run through here; a search's pivots go through ``distance``
    and the CLI's ``matrix`` through ``distance_rows``.  A string equal
    to q gets exactly 0.0 from the length formula itself: both harmonic
    spans are empty.
    """
    table, la = default_table(), len(q.ids)
    return [
        _distance_from_lengths(la, len(s.ids), lcs, table)
        for s, lcs in zip(corpus, lcs_lens(q, corpus))
    ]


def distance_rows(seqs: Sequence[SymbolSeq]) -> list[array]:
    """The upper triangle of the distance matrix of seqs: row i is
    ``distances(seqs[i], seqs[i + 1:])``, bit for bit, as an
    ``array('d')``.  The LCS lengths of every row come from ``lcs_rows``,
    one packed call whenever every id is below 256.  The last row is
    empty.
    """
    table, lens = default_table(), [len(s.ids) for s in seqs]
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


def distance_decomposed(a: SymbolSeq, b: SymbolSeq) -> DistanceBreakdown:
    """Split the distance into its insertion and deletion components.

    Components are tied to the argument order: d(a, S) grows ``a`` into a
    shortest common supersequence S, and d(S, b) shrinks S to ``b``; each
    is the closed form over lengths, with one span empty.  The total is
    order-independent and equals ``distance(a, b)`` bit for bit.
    """
    table = default_table()
    la, lb = len(a.ids), len(b.ids)
    scs = la + lb - lcs_len(a, b)
    ins = _distance_from_lengths(la, scs, la, table)
    dele = _distance_from_lengths(scs, lb, lb, table)
    return DistanceBreakdown(ins, dele, ins + dele)


def distance_exact(
    a: SymbolSeq,
    b: SymbolSeq,
    engine: Engine = "auto",
) -> Fraction:
    """The defining formula in exact rational arithmetic, guarded at
    |a| + |b| <= ``EXACT_LIMIT``, the bound of ``harmonic_exact``."""
    la, lb = len(a.ids), len(b.ids)
    if la + lb > EXACT_LIMIT:
        raise CapacityError(
            f"exact distance is limited to |a| + |b| <= {EXACT_LIMIT}, "
            f"got {la + lb}"
        )
    return _exact_from_lengths(la, lb, lcs_len(a, b, engine))


def _distance_from_lengths(
    la: int, lb: int, lcs: int, table: HarmonicTable
) -> float:
    """Distance forced by the three lengths alone: the float closed form,
    a sum of two harmonic spans."""
    scs = la + lb - lcs
    return harmonic_diff(table, la, scs) + harmonic_diff(table, lb, scs)


def _exact_from_lengths(la: int, lb: int, lcs: int) -> Fraction:
    """The exact twin of ``_distance_from_lengths``: the same two spans,
    (H_scs - H_la) + (H_scs - H_lb), with an empty span skipped, so that a
    distance to a sub- or supersequence costs one ``Fraction`` operation."""
    scs = la + lb - lcs
    if scs in (la, lb):  # one span is empty: the other runs from the shorter
        return harmonic_exact(scs) - harmonic_exact(min(la, lb))
    h = harmonic_exact(scs)
    return (h - harmonic_exact(la)) + (h - harmonic_exact(lb))
