import hashlib
import importlib
import math
import random
import sys
import threading
from array import array
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmdist import (
    CapacityError,
    HarmonicTable,
    default_table,
    harmonic,
    harmonic_diff,
    harmonic_exact,
)

hmod = importlib.import_module("harmdist.harmonic")
from harmdist.harmonic import (
    DIRECT_SUM_SPAN,
    EXACT_LIMIT,
    FIXED_POINT_SHIFT,
    MAX_CAPACITY,
    MIN_CAPACITY,
    STEP_BOUND,
)
from helpers import rational_harmonic

TABLE = HarmonicTable()


def _first_entries() -> list[float]:
    """H_0..H_10000 read from TABLE, without materializing the rest."""
    return [harmonic(TABLE, n) for n in range(10_001)]


def _fsum_span(lo: int, hi: int) -> float:
    return math.fsum(1.0 / i for i in range(lo + 1, hi + 1))


def test_first_value_is_exactly_zero():
    assert harmonic(TABLE, 0) == 0.0


def test_values_strictly_increasing():
    vals = _first_entries()
    assert all(vals[i] > vals[i - 1] for i in range(1, len(vals)))


def test_per_step_increment_within_bound():
    vals = _first_entries()
    worst = max(
        abs(vals[i] - vals[i - 1] - 1.0 / i) for i in range(1, len(vals))
    )
    assert worst <= STEP_BOUND


def test_table_matches_exact_oracle():
    # float(Fraction) rounds correctly, so the float comparison resolves
    # errors down to one ulp, far below the 1e-12 budget
    vals = _first_entries()
    worst = max(abs(vals[n] - float(harmonic_exact(n))) for n in range(10_001))
    assert worst <= 1e-12


def test_larger_table_stays_within_tolerance_of_expansion():
    values = default_table().values
    worst = max(
        abs(values[n] - hmod._tail(n))
        for n in range(MIN_CAPACITY, MAX_CAPACITY + 1, 101)
    )
    assert worst <= 1e-12


def test_reverse_resummation_agrees():
    for n in (10_000, MAX_CAPACITY):
        reverse = math.fsum(1.0 / i for i in range(n, 0, -1))
        assert abs(harmonic(default_table(), n) - reverse) <= 1e-12


def test_harmonic_known_values():
    assert harmonic(TABLE, 0) == 0.0
    assert harmonic(TABLE, 1) == 1.0
    assert abs(harmonic(TABLE, 4) - float(Fraction(25, 12))) < 1e-15


def test_harmonic_negative_rejected():
    with pytest.raises(ValueError):
        harmonic(TABLE, -1)


def test_a_fresh_table_gives_the_default_tables_bits():
    # every table holds the same entries: a second one is only a second cache
    fresh, default = HarmonicTable(), default_table()
    ns = (0, 64, 10_000, MAX_CAPACITY, MAX_CAPACITY + 1)
    assert [harmonic(fresh, n).hex() for n in ns] == [
        harmonic(default, n).hex() for n in ns
    ]
    spans = [
        (lo, lo + span)
        for span in (63, 64, 65)
        for lo in (0, 9_999, MAX_CAPACITY - 64, MAX_CAPACITY - 10)
    ]
    assert [harmonic_diff(fresh, lo, hi).hex() for lo, hi in spans] == [
        harmonic_diff(default, lo, hi).hex() for lo, hi in spans
    ]


# -- the asymptotic tail, against the exact oracle wherever it reaches ----------


def test_tail_matches_exact_oracle_beyond_small_table():
    worst = max(
        abs(hmod._tail(n) - float(harmonic_exact(n)))
        for n in range(MIN_CAPACITY + 1, EXACT_LIMIT + 1, 37)
    )
    assert worst <= 1e-12


@pytest.mark.parametrize("n", [64, 200, 1000, 10_000])
def test_tail_continuity_at_boundary(n):
    # were the table to end at n, the tail would take over at n + 1
    assert abs(hmod._tail(n) - float(harmonic_exact(n))) <= 1e-12
    step = hmod._tail(n + 1) - float(harmonic_exact(n))
    assert abs(step - 1.0 / (n + 1)) <= 1e-12


def test_tail_continuity_at_the_table_end():
    # past EXACT_LIMIT the oracle is fsum of the rounded terms fl(1/i),
    # within 2^-53 * H_n plus one rounding (about 3e-15) of H_n
    n = MAX_CAPACITY
    assert abs(hmod._tail(n + 1) - _fsum_span(0, n + 1)) <= 1e-12
    step = harmonic(default_table(), n + 1) - harmonic(default_table(), n)
    assert abs(step - 1.0 / (n + 1)) <= 1e-12


def test_monotone_across_boundary():
    n = MIN_CAPACITY
    values = [float(harmonic_exact(i)) for i in range(n - 3, n + 1)]
    values += [hmod._tail(i) for i in range(n + 1, n + 10)]
    assert all(b > a for a, b in zip(values, values[1:]))
    n = MAX_CAPACITY
    values = [harmonic(default_table(), i) for i in range(n - 3, n + 10)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_diff_examples():
    assert harmonic_diff(TABLE, 7, 7) == 0.0
    assert harmonic_diff(TABLE, 1, 2) == 0.5
    assert abs(harmonic_diff(TABLE, 10, 11) - float(Fraction(1, 11))) < 1e-15


def test_diff_precondition():
    assert harmonic_diff(TABLE, 3, 2) == -harmonic_diff(TABLE, 2, 3)
    with pytest.raises(ValueError):
        harmonic_diff(TABLE, -1, 2)


@given(lo=st.integers(0, 9_000), span=st.integers(0, DIRECT_SUM_SPAN))
@settings(max_examples=200)
def test_diff_direct_sum_matches_oracle(lo, span):
    hi = lo + span
    expected = float(harmonic_exact(hi) - harmonic_exact(lo))
    assert abs(harmonic_diff(TABLE, lo, hi) - expected) <= 1e-15


@given(
    lo=st.integers(0, 10_000),
    mid=st.integers(0, 10_000),
    hi=st.integers(0, 10_000),
)
@settings(max_examples=300)
def test_diff_additivity(lo, mid, hi):
    lo, mid, hi = sorted((lo, mid, hi))
    lhs = harmonic_diff(TABLE, lo, hi)
    rhs = harmonic_diff(TABLE, lo, mid) + harmonic_diff(TABLE, mid, hi)
    assert abs(lhs - rhs) <= 1e-12


def test_short_spans_equal_fsum_exhaustively_over_a_low_range():
    table = HarmonicTable()
    mismatches = [
        (lo, lo + span)
        for lo in range(4096)
        for span in range(1, DIRECT_SUM_SPAN + 1)
        if harmonic_diff(table, lo, lo + span) != _fsum_span(lo, lo + span)
    ]
    assert mismatches == []


def test_short_spans_equal_fsum_near_max_index():
    table = HarmonicTable()
    rng = random.Random(13)
    spans = []
    for _ in range(20_000):
        hi = MAX_CAPACITY - rng.randrange(100_000)
        spans.append((hi - rng.randint(1, DIRECT_SUM_SPAN), hi))
    spans.append((MAX_CAPACITY - DIRECT_SUM_SPAN, MAX_CAPACITY))
    assert [harmonic_diff(table, lo, hi) for lo, hi in spans] == [
        _fsum_span(lo, hi) for lo, hi in spans
    ]


def test_every_prefix_term_is_an_exact_integer():
    # the shift leaves no fractional bit of fl(1/i) anywhere in the table
    for i in (1, 3, 7, 1000, 65_537, MAX_CAPACITY - 1, MAX_CAPACITY):
        scaled = math.ldexp(1.0 / i, FIXED_POINT_SHIFT)
        assert scaled == int(scaled)
        assert Fraction(int(scaled), 2**FIXED_POINT_SHIFT) == Fraction(1.0 / i)


def test_diff_spanning_the_table_boundary():
    # were the table to end at 64, this span would be tail minus table
    lo, hi = MIN_CAPACITY - 5, MIN_CAPACITY + 40
    expected = float(harmonic_exact(hi) - harmonic_exact(lo))
    assert abs(hmod._tail(hi) - float(harmonic_exact(lo)) - expected) <= 1e-12
    # the table does end at MAX_CAPACITY
    lo, hi = MAX_CAPACITY - 5, MAX_CAPACITY + 40
    assert abs(harmonic_diff(default_table(), lo, hi) - _fsum_span(lo, hi)) <= 1e-12


def test_exact_known_values():
    assert harmonic_exact(0) == Fraction(0)
    assert harmonic_exact(2) == Fraction(3, 2)
    assert harmonic_exact(4) == Fraction(25, 12)


@pytest.mark.parametrize("n", [1, 7, 50, 500])
def test_exact_matches_independent_summation(n):
    assert harmonic_exact(n) == rational_harmonic(n)


def test_exact_is_in_lowest_terms():
    for n in (3, 10, 96):
        h = harmonic_exact(n)
        assert h.denominator > 0
        assert math.gcd(h.numerator, h.denominator) == 1


def test_exact_capacity_guard():
    with pytest.raises(CapacityError):
        harmonic_exact(EXACT_LIMIT + 1)


def test_concurrent_exact_growth_keeps_every_entry(monkeypatch):
    # four threads grow a cleared cache at once; an unlocked read-then-append
    # would add some H_k twice and shift every later entry
    n = 400
    expected = [rational_harmonic(k) for k in range(n + 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            monkeypatch.setattr(hmod, "_exact_cache", [])
            barrier = threading.Barrier(4)
            results = []

            def work():
                barrier.wait(timeout=30)
                results.append(harmonic_exact(n))

            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert results == [expected[n]] * 4
            assert list(hmod._exact_cache) == expected
    finally:
        sys.setswitchinterval(interval)


# -- lazy growth -----------------------------------------------------------------

#: SHA-256 of the little-endian bytes of all 2^20 + 1 entries, as built in
#: one eager pass before the table grew on demand.
FULL_TABLE_SHA256 = "fff4b0dd55199a0dd14e8f67a1f5bfa46c67c284c9648fb514ab93af6981a9f7"


def _le_bytes(values) -> bytes:
    values = array("d", values)
    if sys.byteorder == "big":
        values.byteswap()
    return values.tobytes()


def test_construction_materializes_nothing():
    table = HarmonicTable()
    assert len(table._values) == 1
    assert harmonic(table, 5) == table._values[5]
    assert len(table._values) < 1000


def _one_pass_prefix(n: int):
    """The exact prefixes through n, summed in one pass independently of
    the table."""
    terms = (int(math.ldexp(1.0 / i, FIXED_POINT_SHIFT)) for i in range(1, n + 1))
    return accumulate(terms, initial=0)


def _int_digest(prefix) -> str:
    h = hashlib.sha256()
    for p in prefix:
        h.update(p.to_bytes(16, "little"))
    return h.hexdigest()


def test_growth_in_irregular_steps_is_bit_identical():
    grown = HarmonicTable()
    for n in (10, 1000, 70_000, 3, 70_001):
        harmonic(grown, n)
        harmonic_diff(grown, n - 1, n)
    assert len(grown._values) - 1 < MAX_CAPACITY  # not yet full
    prefix = grown._prefix
    assert 70_001 < len(prefix) - 1 < MAX_CAPACITY
    one_step = HarmonicTable()
    assert one_step._grow_prefix(len(prefix) - 1) == prefix
    assert prefix == list(_one_pass_prefix(len(prefix) - 1))
    whole = HarmonicTable()
    assert _le_bytes(grown.values) == _le_bytes(whole.values)
    assert hashlib.sha256(_le_bytes(whole.values)).hexdigest() == FULL_TABLE_SHA256
    assert len(whole._prefix) == 1  # reading values builds no prefix


def test_concurrent_growth_gives_same_values():
    reference = HarmonicTable().values
    reference_prefix = _int_digest(_one_pass_prefix(MAX_CAPACITY))
    table = HarmonicTable()
    threads_n = 8
    barrier = threading.Barrier(threads_n)
    results: list = [None] * threads_n
    rng = random.Random(11)
    # small, large and boundary indices in a different order per thread
    indices = [rng.randrange(MAX_CAPACITY + 1) for _ in range(300)]
    indices += [0, 1, MIN_CAPACITY, MAX_CAPACITY]

    def work(k: int) -> None:
        order = indices[:]
        random.Random(k).shuffle(order)
        barrier.wait(timeout=30)
        results[k] = [
            (n, harmonic(table, n), harmonic_diff(table, max(n - 5, 0), n))
            for n in order
        ]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for result in results:
        assert result is not None
        assert all(value == reference[n] for n, value, _ in result)
        assert all(span == _fsum_span(max(n - 5, 0), n) for n, _, span in result)
    assert _le_bytes(table.values) == _le_bytes(reference)
    assert _int_digest(table._prefix) == reference_prefix
