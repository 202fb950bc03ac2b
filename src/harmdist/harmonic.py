"""Harmonic numbers H_n = sum(1/i for i in 1..n), precomputed and exact.

Three tiers serve the rest of the library:

* ``HarmonicTable`` holds double-precision prefix values H_0..H_N, and
  next to them an exact fixed-point prefix of the rounded terms, from
  which short spans H_hi - H_lo are read off correctly rounded.
* Beyond the table, a four-term asymptotic expansion takes over.
* ``harmonic_exact`` returns H_n as an exact rational, the reference
  oracle for every floating-point tolerance in this package.

The table is fixed, not a setting: every ``HarmonicTable`` covers
H_0..H_MAX_CAPACITY and holds the same entries, so H_n, and with it every
distance, depends on n alone.  A table materializes entries on demand;
growth is locked and published by swapping in a grown copy, so a table is
safe to share across threads.  Every function here returns the same value
whatever table it is given and whatever that table has materialized so
far; the ``table`` argument only picks which cache grows.  The library
reads ``default_table()``.

Exact rationals are plain stdlib fractions, imported on first use, so the
float tiers load without ``fractions``.
"""

from __future__ import annotations

import math
import threading
from array import array
from typing import TYPE_CHECKING

from .errors import CapacityError

if TYPE_CHECKING:
    from fractions import Fraction

EULER_GAMMA = 0.57721566490153286060651209008240243104215933593992

#: Consecutive table entries must satisfy |H_n - H_{n-1} - 1/n| <= this.
STEP_BOUND = 2.0 ** -50

#: Spans up to this many terms are summed directly instead of differenced.
DIRECT_SUM_SPAN = 64

#: Largest index served by exact rational arithmetic.
EXACT_LIMIT = 10_000

# The step bound pins each entry to within half an ulp of its neighbour,
# so the stored sequence behaves like rounded single additions and its
# deviation from H_n grows as a bounded random walk.  Measured over the
# full range, the walk stays under 1e-12 only through about 2^20 entries,
# so every table ends at MAX_CAPACITY and the asymptotic tail serves the
# rest.  MIN_CAPACITY is only the first growth step.
MIN_CAPACITY = 64
MAX_CAPACITY = 1 << 20

#: Scale of the exact prefix: fl(1/i) is a multiple of 2^-(52 + bit_length(i)),
#: so every term fl(1/i) * 2^FIXED_POINT_SHIFT with i <= MAX_CAPACITY is an
#: integer.
FIXED_POINT_SHIFT = 53 + MAX_CAPACITY.bit_length() + 2


class HarmonicTable:
    """Prefix table of H_0..H_N in double precision, grown on demand.

    N is always ``MAX_CAPACITY``; every table holds the same entries, so
    a second table is only a second cache.  Entries are materialized only
    up to the largest index requested so far, doubling each time; reading
    ``values`` materializes all of them.

    Entries come from error-feedback summation: the exact running sum is
    carried in a hi/lo double-double pair, and each stored entry is the
    representable value nearest that sum among those within ``STEP_BOUND``
    of ``previous + 1/n``.  The clamp makes the per-step invariant hold by
    construction; the feedback steers the stored sequence toward the true
    prefix sums wherever the float grid allows.  Growth resumes the
    summation from its saved state, so every entry is bit-identical to a
    table built in one pass, whatever order the requests came in.

    Alongside, ``_prefix[n]`` is the exact integer
    sum(fl(1/i) * 2^FIXED_POINT_SHIFT for i in 1..n).  A difference of two
    prefixes is the exact sum of the rounded terms of a span, so
    converting it to float rounds that sum once.  The prefixes grow under
    the same lock, but only as far as short spans ask: at about 48 bytes
    per entry, against 8 for a float, reading ``values`` does not build
    them.
    """

    __slots__ = ("_values", "_prefix", "_state", "_lock")

    def __init__(self):
        self._values = array("d", [0.0])
        self._prefix = [0]
        self._state = (0.0, 0.0, 0.0)  # (hi, lo, v) after the last entry
        self._lock = threading.Lock()

    @property
    def values(self) -> array:
        """All entries H_0..H_MAX_CAPACITY (materializes the whole table)."""
        return self._grow(MAX_CAPACITY)

    def _grow(self, n: int) -> array:
        """Materialize entries through at least index n <= MAX_CAPACITY.

        Readers hold whichever array they loaded; a grown copy is swapped
        in whole, so no reader ever sees a half-written entry.
        """
        with self._lock:
            values = self._values
            done = len(values) - 1
            if n <= done:
                return values
            target = min(max(n, 2 * done, MIN_CAPACITY), MAX_CAPACITY)
            values = array("d", values)
            hi, lo, v = self._state
            nextafter = math.nextafter
            append = values.append
            for i in range(done + 1, target + 1):
                x = 1.0 / i
                # two-sum of hi + x, error folded into lo
                s = hi + x
                b = s - hi
                lo += (hi - (s - b)) + (x - b)
                t = s + lo
                lo -= t - s
                hi = t
                # plain rounded step, nudged toward the exact sum when the
                # neighbouring float still honours the step bound
                c = v + x
                if c != hi:
                    nb = nextafter(c, hi)
                    if abs((nb - v) - x) <= STEP_BOUND:
                        c = nb
                v = c
                append(v)
            self._state = (hi, lo, v)
            self._values = values
            return values

    def _grow_prefix(self, n: int) -> list[int]:
        """Build exact prefixes through at least index n <= MAX_CAPACITY,
        doubling as ``_grow`` does, and swap the grown copy in whole."""
        with self._lock:
            prefix = self._prefix
            done = len(prefix) - 1
            if n <= done:
                return prefix
            target = min(max(n, 2 * done, MIN_CAPACITY), MAX_CAPACITY)
            prefix = prefix[:]
            p = prefix[-1]
            ldexp = math.ldexp
            for i in range(done + 1, target + 1):
                p += int(ldexp(1.0 / i, FIXED_POINT_SHIFT))
                prefix.append(p)
            self._prefix = prefix
            return prefix

    def __repr__(self) -> str:
        return "HarmonicTable()"


_DEFAULT_TABLE = HarmonicTable()  # materializes entries only when read


def default_table() -> HarmonicTable:
    """The process-wide table, which every distance function reads."""
    return _DEFAULT_TABLE


def _tail(n: int) -> float:
    # ln(n) + gamma + 1/(2n) - 1/(12n^2) + 1/(120n^4); next term is
    # -1/(252 n^6), far below 1e-12 for every n past MIN_CAPACITY.
    inv = 1.0 / n
    inv2 = inv * inv
    return (
        math.log(n)
        + EULER_GAMMA
        + inv / 2.0
        - inv2 / 12.0
        + inv2 * inv2 / 120.0
    )


def harmonic(table: HarmonicTable, n: int) -> float:
    """H_n from the table, or from the asymptotic expansion for n beyond it.

    Every table holds the same entries, so ``table`` picks only which
    cache grows, never the value.
    """
    if n < 0:
        raise ValueError(f"harmonic index must be nonnegative, got {n}")
    if n <= MAX_CAPACITY:
        try:
            return table._values[n]
        except IndexError:
            return table._grow(n)[n]
    return _tail(n)


def harmonic_diff(table: HarmonicTable, lo: int, hi: int) -> float:
    """H_hi - H_lo, summed exactly over short spans to avoid cancellation.

    Signed: with lo > hi it is -(H_lo - H_hi), so a closed form fed an
    impossible LCS length still gives a value to check.  A span of at most
    DIRECT_SUM_SPAN terms inside the table is the difference of two exact
    fixed-point prefixes, rounded to float once: the correctly rounded sum
    of fl(1/i) for i in lo+1..hi, the value ``math.fsum`` gives for those
    terms (int-to-float conversion rounds half to even, and scaling by a
    power of two is exact).  Longer spans fall back to differencing two
    harmonic values.  As in ``harmonic``, ``table`` picks only which cache
    grows.
    """
    if lo < 0:
        raise ValueError(f"harmonic index must be nonnegative, got {lo}")
    if lo > hi:
        return -harmonic_diff(table, hi, lo)
    if lo == hi:
        return 0.0
    if hi - lo <= DIRECT_SUM_SPAN and hi <= MAX_CAPACITY:
        prefix = table._prefix
        try:
            span = prefix[hi] - prefix[lo]
        except IndexError:
            prefix = table._grow_prefix(hi)
            span = prefix[hi] - prefix[lo]
        return math.ldexp(float(span), -FIXED_POINT_SHIFT)
    return harmonic(table, hi) - harmonic(table, lo)


_exact_cache: list[Fraction] = []
_exact_lock = threading.Lock()


def harmonic_exact(n: int) -> Fraction:
    """H_n as an exact rational in lowest terms; guarded at EXACT_LIMIT.

    The cache of H_0..H_k grows under a lock, and a grown copy is swapped
    in whole, as ``HarmonicTable._grow`` does, so concurrent callers never
    append the same entry twice.
    """
    global _exact_cache
    if n < 0:
        raise ValueError(f"harmonic index must be nonnegative, got {n}")
    if n > EXACT_LIMIT:
        raise CapacityError(
            f"exact harmonic numbers are limited to n <= {EXACT_LIMIT}, got {n}"
        )
    cache = _exact_cache
    if len(cache) <= n:
        from fractions import Fraction

        with _exact_lock:
            cache = _exact_cache[:] or [Fraction(0)]
            while len(cache) <= n:
                cache.append(cache[-1] + Fraction(1, len(cache)))
            _exact_cache = cache
    return cache[n]
