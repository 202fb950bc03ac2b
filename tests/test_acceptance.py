"""Acceptance suite: one test per release criterion.

Each criterion prints a single pass/fail line; run with

    pytest tests/test_acceptance.py -s

to see them.  Tolerances are fixed here, not configurable.
"""

import gc
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from harmdist import (
    GenConfig,
    SymbolSeq,
    VpTree,
    distance,
    distance_exact,
    lcs_len,
    lcs_len_bitparallel,
    lcs_len_bruteforce,
    lcs_len_dp,
    lcs_len_hunt_szymanski,
    shrink,
    universe,
    verify_lemma_chain,
    verify_lemma_lcs_triangle,
    verify_lemma_scs,
    verify_metric_axioms,
)
from harmdist.propcheck import all_pairs, broken_min_lcs_distance, random_chains
from helpers import random_seq, seq


def verdict(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status}  {detail}".rstrip())
    assert passed, f"criterion {criterion}: {detail}"


def rand_pair(rng, la, lb, alphabet):
    return (
        SymbolSeq(tuple(rng.randrange(alphabet) for _ in range(la))),
        SymbolSeq(tuple(rng.randrange(alphabet) for _ in range(lb))),
    )


def test_criterion_1_exhaustive_axioms_binary_alphabet():
    t0 = time.perf_counter()
    cfg = GenConfig(alphabet_size=2, max_length=4, mode="exhaustive")
    report = verify_metric_axioms(cfg, rational=True)
    elapsed = time.perf_counter() - t0
    triangle = report.properties[2]
    ok = (
        len(universe(2, 4)) == 31
        and triangle.checked == 29_791
        and report.total_violations == 0
        and elapsed < 30.0
    )
    verdict(
        "1",
        ok,
        f"31 strings, {triangle.checked} triples, "
        f"{report.total_violations} violations, {elapsed:.1f}s",
    )


def test_criterion_2_exhaustive_axioms_ternary_alphabet():
    t0 = time.perf_counter()
    cfg = GenConfig(alphabet_size=3, max_length=3, mode="exhaustive")
    report = verify_metric_axioms(cfg, rational=True)
    elapsed = time.perf_counter() - t0
    triangle = report.properties[2]
    ok = (
        len(universe(3, 3)) == 40
        and triangle.checked == 64_000
        and report.total_violations == 0
        and elapsed < 60.0
    )
    verdict(
        "2",
        ok,
        f"40 strings, {triangle.checked} triples, "
        f"{report.total_violations} violations, {elapsed:.1f}s",
    )


def test_criterion_3_lemma_suites():
    u1 = universe(2, 4)
    u2 = universe(3, 3)

    scs_report = verify_lemma_scs(all_pairs(u1), rational=True)
    scs_prop = scs_report.properties[0]

    cfg = GenConfig(
        alphabet_size=4, max_length=100, sample_count=10_000, seed=2024,
        mode="random",
    )
    chain_report = verify_lemma_chain(random_chains(cfg), rational=False, seed=2024)
    chain_prop = chain_report.properties[0]

    lcs_tri_1 = verify_lemma_lcs_triangle(all_pairs(u1), rational=True)
    lcs_tri_2 = verify_lemma_lcs_triangle(all_pairs(u2), rational=True)

    ok = (
        scs_prop.checked == 961
        and scs_prop.violations == 0
        and chain_prop.checked == 10_000
        and chain_prop.violations == 0
        and lcs_tri_1.properties[0].violations == 0
        and lcs_tri_1.properties[0].checked == 961
        and lcs_tri_2.properties[0].violations == 0
        and lcs_tri_2.properties[0].checked == 1_600
        and lcs_tri_1.properties[0].min_slack_exact >= 0
        and lcs_tri_2.properties[0].min_slack_exact >= 0
    )
    verdict(
        "3",
        ok,
        f"scs split {scs_prop.checked} pairs, chains {chain_prop.checked}, "
        f"lcs-triangle {lcs_tri_1.properties[0].checked}+"
        f"{lcs_tri_2.properties[0].checked} pairs, 0 violations",
    )


def test_criterion_4_forced_values():
    checks = []

    def agree(a, b, expected: Fraction):
        exact = distance_exact(a, b)
        value = distance(a, b)
        checks.append(exact == expected and abs(value - float(expected)) <= 1e-12)
        return value

    d_n1 = agree(seq("a"), seq("b"), Fraction(1))
    agree(seq("abc"), seq("abd"), Fraction(1, 2))
    agree(seq(""), seq("ab"), Fraction(3, 2))
    # two length-10 strings differing in the trailing symbol: lcs 9, scs 11
    long_a = SymbolSeq((0,) * 9 + (1,))
    long_b = SymbolSeq((0,) * 9 + (2,))
    d_n10 = agree(long_a, long_b, Fraction(2, 11))
    checks.append(d_n10 < d_n1)
    verdict(
        "4",
        all(checks),
        f"d(a,b)=1, d(abc,abd)=1/2, d(eps,ab)=3/2, trailing@10={d_n10:.12f}"
        f" < {d_n1:.12f}",
    )


@pytest.mark.slow
def test_criterion_5_engine_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(51)

    mismatches = 0
    for _ in range(1_000):
        alphabet = rng.choice((2, 4, 26))
        a, b = rand_pair(rng, rng.randint(0, 12), rng.randint(0, 30), alphabet)
        expected = lcs_len_bruteforce(a, b)
        if not (
            lcs_len_dp(a, b)
            == lcs_len_bitparallel(a, b)
            == lcs_len_hunt_szymanski(a, b)
            == lcs_len(a, b)
            == expected
        ):
            mismatches += 1

    for alphabet in (2, 4, 26):
        for _ in range(334):
            a, b = rand_pair(
                rng, rng.randint(0, 512), rng.randint(0, 512), alphabet
            )
            r = lcs_len_dp(a, b)
            if not (
                r == lcs_len_bitparallel(a, b) == lcs_len_hunt_szymanski(a, b)
            ):
                mismatches += 1

    for _ in range(100):
        a, b = rand_pair(rng, 5_000, 5_000, 256)
        r = lcs_len_dp(a, b)
        if not (r == lcs_len_bitparallel(a, b) == lcs_len_hunt_szymanski(a, b)):
            mismatches += 1

    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 120.0
    verdict(
        "5",
        ok,
        f"1000 oracle pairs + 1002 pairs <=512 + 100 pairs @5000, "
        f"{mismatches} mismatches, {elapsed:.1f}s",
    )


@pytest.mark.slow
def test_criterion_6_float_matches_rational():
    rng = random.Random(66)
    budget = Fraction(1, 10 ** 9)
    worst = Fraction(0)
    for _ in range(10_000):
        alphabet = rng.choice((2, 4, 26, 256))
        a, b = rand_pair(
            rng, rng.randint(0, 5_000), rng.randint(0, 5_000), alphabet
        )
        gap = abs(Fraction(distance(a, b)) - distance_exact(a, b))
        if gap > worst:
            worst = gap
    ok = worst <= budget
    verdict("6", ok, f"10^4 pairs, worst |float - exact| = {float(worst):.3e}")


def test_criterion_7_index_matches_linear_scan():
    rng = random.Random(77)
    corpus = [random_seq(rng, 4, 64) for _ in range(2_000)]
    queries = [random_seq(rng, 4, 64) for _ in range(50)]
    tree = VpTree.build(corpus, seed=7)

    def linear_knn(q, k):
        ranked = sorted((distance(q, s), i) for i, s in enumerate(corpus))
        return [(i, d) for d, i in ranked[:k]]

    def linear_range(q, r):
        return {i for i, s in enumerate(corpus) if distance(q, s) <= r}

    knn_ok = all(tree.knn(q, 10) == linear_knn(q, 10) for q in queries)
    range_ok = all(
        tree.range_query(q, 0.3) == linear_range(q, 0.3) for q in queries
    )
    knn_stats = tree.stats(queries, k=10)
    range_stats = tree.stats(queries, radius=0.3)
    ok = (
        knn_ok
        and range_ok
        and knn_stats.mean_fraction_scanned < 1.0
        and range_stats.mean_fraction_scanned < 1.0
    )
    verdict(
        "7",
        ok,
        f"50 knn + 50 range queries exact; scanned fraction "
        f"knn={knn_stats.mean_fraction_scanned:.3f} "
        f"range={range_stats.mean_fraction_scanned:.3f}",
    )


def _fixture_axiom_report():
    cfg = GenConfig(alphabet_size=2, max_length=4, mode="exhaustive")
    dist = broken_min_lcs_distance(rational=True)
    return verify_metric_axioms(cfg, rational=True, dist=dist)


def test_criterion_8_planted_bug_detection_and_shrinking():
    report = _fixture_axiom_report()
    detected = report.total_violations >= 1

    cx = report.counterexamples()[0]
    small = shrink(cx)
    minimal = small.checker(small.triple)[0]
    for which in range(3):
        ids = small.triple[which].ids
        for pos in range(len(ids)):
            cand = list(small.triple)
            cand[which] = SymbolSeq(ids[:pos] + ids[pos + 1 :])
            if small.checker(tuple(cand))[0]:
                minimal = False

    cli = subprocess.run(
        [
            sys.executable, "-m", "harmdist", "check",
            "--exhaustive", "--alphabet", "2", "--maxlen", "4",
            "--rational", "--fixture", "broken-lcs",
        ],
        capture_output=True,
    )
    exit_ok = cli.returncode == 3 and b"counterexample" in cli.stdout
    verdict(
        "8 (detectability)",
        detected and minimal and exit_ok,
        f"{report.total_violations} violations, shrunken witness "
        f"locally minimal, exit code {cli.returncode}",
    )


def test_criterion_8_planted_bug_triangle_counterexample():
    # Literal criterion: the min-length fixture must yield a *triangle*
    # counterexample.  It cannot: with lcs := min(|a|, |b|) the distance
    # collapses to |H_|a|| - H_|b|||, the pullback of |x - y| on the reals,
    # for which the triangle inequality holds unconditionally.  The
    # fixture is caught through identity-of-indiscernibles instead (see
    # the detectability test above).  Kept failing rather than weakened.
    report = _fixture_axiom_report()
    triangle = report.properties[2]
    verdict(
        "8",
        triangle.violations >= 1,
        f"triangle counterexamples: {triangle.violations} "
        f"(identity counterexamples: {report.properties[1].violations}; "
        f"min-lcs distance is a pseudometric, so a triangle witness "
        f"cannot exist)",
    )


def test_criterion_9_performance_sanity():
    rng = random.Random(99)
    a, b = rand_pair(rng, 4_096, 4_096, 4)

    distance(a, b)  # warm the harmonic table before timing

    def paired(fa, fb, runs):
        # Interleaved with the collector off: no collection pause lands in
        # a sample, and each pair times A and B back to back, A first in
        # even pairs and B first in odd ones, so the host's speed drift and
        # any cost of running second hit both runs of a pair alike.  The
        # cost ratio is the median of the per-pair ratios B/A.
        ta, tb = [], []
        gc.disable()
        try:
            for k in range(runs):
                pair = ((fa, ta), (fb, tb))
                for f, times in pair if k % 2 == 0 else pair[::-1]:
                    t0 = time.perf_counter()
                    f()
                    times.append(time.perf_counter() - t0)
        finally:
            gc.enable()
        ratio = statistics.median(y / x for x, y in zip(ta, tb))
        return statistics.median(ta), statistics.median(tb), ratio

    dp_med, bp_med, bp_per_dp = paired(
        lambda: lcs_len_dp(a, b), lambda: lcs_len_bitparallel(a, b), 20
    )
    speedup = 1.0 / bp_per_dp

    # The two costs differ by a few harmonic lookups against about 3 ms of
    # LCS, and host noise spreads a single pair's ratio by several percent;
    # the median of 100 pairs keeps that noise well inside the 5 % bound.
    _, _, overhead = paired(lambda: lcs_len(a, b), lambda: distance(a, b), 100)

    ok = speedup >= 5.0 and overhead <= 1.05
    verdict(
        "9",
        ok,
        f"bitparallel {speedup:.1f}x faster than dp at 4096 "
        f"(dp {dp_med * 1e3:.1f}ms, bp {bp_med * 1e3:.2f}ms); "
        f"distance/lcs cost ratio {overhead:.3f}",
    )
