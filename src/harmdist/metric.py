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

from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

from .errors import CapacityError
from .harmonic import default_table, harmonic_diff, harmonic_exact, HarmonicTable
from .lcs import Engine, SymbolSeq, is_subsequence, lcs_len, lcs_lens, lcs_profile

if TYPE_CHECKING:
    from fractions import Fraction

#: Exact evaluation is guarded at |a| + |b| <= this (rational blowup).
EXACT_LENGTH_LIMIT = 10_000

_FIELDS = ("insertion_cost", "deletion_cost", "total")


class DistanceBreakdown:
    """Insertion and deletion halves of one distance value.

    ``insertion_cost`` grows the first string into a shortest common
    supersequence, ``deletion_cost`` shrinks that back to the second;
    ``total`` is their sum and equals the distance.  Immutable; equal,
    and hashed alike, exactly when the three fields are.
    """

    __slots__ = _FIELDS

    def __init__(self, insertion_cost: float, deletion_cost: float, total: float):
        _set(self, "insertion_cost", insertion_cost)
        _set(self, "deletion_cost", deletion_cost)
        _set(self, "total", total)

    def _fields(self) -> tuple[float, float, float]:
        return self.insertion_cost, self.deletion_cost, self.total

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(_FIELDS, self._fields()))
        return f"DistanceBreakdown({fields})"

    def __reduce__(self):
        return DistanceBreakdown, self._fields()


_set = object.__setattr__


def distance(
    a: SymbolSeq,
    b: SymbolSeq,
    *,
    table: HarmonicTable | None = None,
    engine: Engine = "auto",
) -> float:
    """The harmonic edit distance; zero exactly when a == b.

    Symmetric bit for bit: the LCS length is an exact integer, so swapping
    a and b only swaps the two summands, and IEEE addition commutes.
    """
    if a.ids == b.ids:
        return 0.0
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
    engine: Engine = "auto",
) -> list[float]:
    """``[distance(q, s, table=table, engine=engine) for s in corpus]``,
    bit for bit, with the LCS lengths taken one-vs-many by ``lcs_lens``.

    The knn scan, the vp-tree build and each row of the CLI's ``matrix``
    run through here.  A string equal to q gets exactly 0.0 from the
    length formula itself: both harmonic spans are empty.
    """
    if table is None:
        table = default_table()
    la = len(q.ids)
    return [
        _distance_from_lengths(la, len(s.ids), lcs, table)
        for s, lcs in zip(corpus, lcs_lens(q, corpus, engine))
    ]


def distance_profile(
    q: SymbolSeq,
    *,
    table: HarmonicTable | None = None,
    engine: Engine = "auto",
) -> Callable[[SymbolSeq], float]:
    """The function s -> ``distance(q, s, table=table, engine=engine)``,
    bit for bit.

    For ``auto`` it runs q's LCS profile (``lcs_profile``), built once
    here, and the length formula, which gives exactly 0.0 for a string
    equal to q; every other engine runs ``distance`` pair by pair.
    """
    if table is None:
        table = default_table()
    if engine != "auto":
        return lambda s: distance(q, s, table=table, engine=engine)
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
    if a.ids == b.ids:
        return DistanceBreakdown(0.0, 0.0, 0.0)
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
    if a.ids == b.ids:
        return harmonic_exact(0)
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
