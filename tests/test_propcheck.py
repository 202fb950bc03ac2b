import importlib
import json
import math
from fractions import Fraction

import pytest

from harmdist import (
    CapacityError,
    GenConfig,
    HarmonicTable,
    SymbolSeq,
    VerificationReport,
    distance_decomposed,
    harmonic_diff,
    harmonic_exact,
    lcs_len,
    shrink,
    universe,
    verify_lemma_chain,
    verify_lemma_lcs_triangle,
    verify_lemma_scs,
    verify_metric_axioms,
)
from harmdist.propcheck import (
    AXIOM_TOLERANCE,
    EMPTY,
    _Collector,
    _Tier,
    _identity_gap,
    all_pairs,
    broken_min_lcs_distance,
    random_chains,
    random_pairs,
    random_triples,
    verify_all,
)
from helpers import seq

TABLE = HarmonicTable()

lcs_mod = importlib.import_module("harmdist.lcs")
metric_mod = importlib.import_module("harmdist.metric")


# -- generators ----------------------------------------------------------------


def test_universe_sizes_and_order():
    u1 = universe(2, 4)
    assert len(u1) == 31
    u2 = universe(3, 3)
    assert len(u2) == 40
    lengths = [len(s) for s in u1]
    assert lengths == sorted(lengths)
    assert u1[0] == EMPTY


def test_universe_capacity_guard():
    with pytest.raises(CapacityError):
        universe(26, 4)


def test_genconfig_validation():
    with pytest.raises(ValueError):
        GenConfig(alphabet_size=0, max_length=3)
    with pytest.raises(ValueError):
        GenConfig(alphabet_size=2, max_length=-1)
    with pytest.raises(ValueError):
        GenConfig(alphabet_size=2, max_length=3, seed=2 ** 64)
    with pytest.raises(ValueError):
        GenConfig(alphabet_size=2, max_length=3, sample_count=5, mode="exhaustiv")


def test_generators_are_seed_deterministic():
    cfg = GenConfig(alphabet_size=3, max_length=12, sample_count=50, seed=9, mode="random")
    assert list(random_triples(cfg)) == list(random_triples(cfg))
    assert list(random_chains(cfg)) == list(random_chains(cfg))
    assert list(random_pairs(cfg)) == list(random_pairs(cfg))
    other = GenConfig(alphabet_size=3, max_length=12, sample_count=50, seed=10, mode="random")
    assert list(random_triples(cfg)) != list(random_triples(other))


def test_chains_generator_produces_chains():
    from harmdist import is_subsequence

    cfg = GenConfig(alphabet_size=3, max_length=40, sample_count=100, seed=4, mode="random")
    for a, b, c in random_chains(cfg):
        assert is_subsequence(a, b) and is_subsequence(b, c)


# -- axiom verification ---------------------------------------------------------


def test_exhaustive_axioms_hold_rational():
    cfg = GenConfig(alphabet_size=2, max_length=3, mode="exhaustive")
    report = verify_metric_axioms(cfg, rational=True, table=TABLE)
    names = [p.name for p in report.properties]
    assert names == ["symmetry", "identity", "triangle"]
    assert report.total_violations == 0
    triangle = report.properties[2]
    assert triangle.checked == 15 ** 3
    assert triangle.min_slack_exact == Fraction(0)


def test_exhaustive_axioms_hold_float():
    cfg = GenConfig(alphabet_size=2, max_length=3, mode="exhaustive")
    report = verify_metric_axioms(cfg, rational=False, table=TABLE)
    assert report.total_violations == 0


def test_degenerate_universe_single_string():
    cfg = GenConfig(alphabet_size=1, max_length=0, mode="exhaustive")
    report = verify_metric_axioms(cfg, rational=True, table=TABLE)
    assert report.total_violations == 0
    assert report.properties[2].checked == 1  # the triple (eps, eps, eps)


def test_random_axioms_deterministic_and_clean():
    cfg = GenConfig(alphabet_size=8, max_length=30, sample_count=300, seed=123, mode="random")
    first = verify_metric_axioms(cfg, rational=False, table=TABLE)
    second = verify_metric_axioms(cfg, rational=False, table=TABLE)
    assert first.as_dict() == second.as_dict()
    assert first.total_violations == 0
    assert all(p.seed == 123 for p in first.properties)


def test_report_serialization_shapes():
    cfg = GenConfig(alphabet_size=2, max_length=2, mode="exhaustive")
    report = verify_metric_axioms(cfg, rational=True, table=TABLE)
    text = report.as_text()
    for line in text.splitlines():
        assert "checked=" in line and "violations=" in line and "min_slack=" in line
    payload = json.dumps(report.as_dict())
    parsed = json.loads(payload)
    assert parsed["total_violations"] == 0
    assert len(parsed["properties"]) == 3


# -- lemma suites ---------------------------------------------------------------


def test_lemma_scs_examples_and_exhaustive():
    pairs = [(seq("abc"), seq("abc")), (seq("abc"), seq("abd"))]
    report = verify_lemma_scs(pairs, rational=True, table=TABLE)
    assert report.total_violations == 0

    strings = universe(2, 4)
    report = verify_lemma_scs(all_pairs(strings), rational=True, table=TABLE)
    prop = report.properties[0]
    assert prop.checked == 961
    assert prop.violations == 0
    assert prop.min_slack_exact == Fraction(0)


def test_lemma_chain_example_values():
    # d(ghost of "b" -> "ab" -> "abc"): H3-H1 = (H2-H1) + (H3-H2), 5/6 = 1/2 + 1/3
    chains = [(seq("b"), seq("ab"), seq("abc"))]
    report = verify_lemma_chain(chains, rational=True, table=TABLE)
    assert report.total_violations == 0

    from harmdist import distance_exact

    assert distance_exact(seq("b"), seq("abc")) == Fraction(5, 6)
    assert distance_exact(seq("b"), seq("ab")) == Fraction(1, 2)
    assert distance_exact(seq("ab"), seq("abc")) == Fraction(1, 3)


def test_lemma_chain_rejects_non_chains():
    # the message names the ids as tuples, whatever form they are held in
    with pytest.raises(ValueError, match=r"triple: \(120,\) \(121,\) \(120, 121\)$"):
        verify_lemma_chain([(seq("x"), seq("y"), seq("xy"))], rational=True, table=TABLE)


def test_lemma_chain_random_float():
    cfg = GenConfig(alphabet_size=4, max_length=50, sample_count=500, seed=11, mode="random")
    report = verify_lemma_chain(random_chains(cfg), rational=False, table=TABLE, seed=11)
    assert report.total_violations == 0
    assert report.properties[0].checked == 500


def test_lemma_lcs_triangle_examples_and_exhaustive():
    report = verify_lemma_lcs_triangle(
        [(seq("ab"), seq("ab")), (seq("a"), seq("b"))], rational=True, table=TABLE
    )
    prop = report.properties[0]
    assert prop.violations == 0
    # slack for ("a", "b"): rhs 2, lhs 1
    assert prop.min_slack_exact == Fraction(0)

    strings = universe(3, 3)
    report = verify_lemma_lcs_triangle(all_pairs(strings), rational=True, table=TABLE)
    assert report.properties[0].checked == 1600
    assert report.total_violations == 0


# -- the verified code is metric's ------------------------------------------------


def test_float_axioms_evaluate_metrics_closed_form(monkeypatch):
    # a skew planted in metric's float closed form reaches the float tier,
    # which calls metric instead of a copy of the formula
    closed_form = metric_mod._distance_from_lengths

    def skewed(la, lb, lcs, table):
        return closed_form(la, lb, lcs, table) + (1e-6 if la > lb else 0.0)

    monkeypatch.setattr(metric_mod, "_distance_from_lengths", skewed)
    report = verify_metric_axioms(GenConfig(2, 3), rational=False)
    # every pair of unequal lengths: 105 pairs less 35 of equal length
    assert report.properties[0].violations == 70


@pytest.mark.parametrize("rational", [True, False], ids=["rational", "float"])
def test_exhaustive_axioms_compare_the_batched_kernel_with_the_scalar(
    rational, monkeypatch
):
    # one match dropped from the first lane of each packed row: the upper
    # triangle comes from lcs_rows and the lower from the scalar kernel,
    # so symmetry and the triangle inequality catch the batched path
    decode = lcs_mod._packed_decode

    def undercount(row, full, widths):
        first, *rest = decode(row, full, widths)
        return [max(first - 1, 0), *rest]

    monkeypatch.setattr(lcs_mod, "_packed_decode", undercount)
    report = verify_metric_axioms(GenConfig(2, 3), rational=rational)
    by_name = {p.name: p.violations for p in report.properties}
    assert by_name == {"symmetry": 10, "identity": 0, "triangle": 26}


def test_float_axioms_take_the_upper_triangle_from_distance_rows(monkeypatch):
    # the rows that matrix prints are the rows the float tier verifies: a
    # skew in them breaks symmetry at every pair, and the rational tier,
    # which does not read them, sees none
    propcheck_mod = importlib.import_module("harmdist.propcheck")
    rows = propcheck_mod.distance_rows

    def skewed(seqs):
        return [[x + 1e-6 for x in row] for row in rows(seqs)]

    monkeypatch.setattr(propcheck_mod, "distance_rows", skewed)
    config = GenConfig(2, 3)
    assert verify_metric_axioms(config, rational=False).properties[0].violations == 105
    assert verify_metric_axioms(config, rational=True).total_violations == 0


@pytest.mark.parametrize("rational", [True, False], ids=["rational", "float"])
def test_sums_of_distances_equal_the_harmonic_spans_they_replace(rational):
    # the lemma gaps, the identity bound and the halves of
    # distance_decomposed are sums of metric's distances, each with one
    # empty span; with no tolerance, each equals the harmonic-span
    # expression it replaced
    tier = _Tier(rational)
    if rational:
        def span(lo, hi):
            return harmonic_exact(hi) - harmonic_exact(lo)

        def slack(report):
            return report.properties[0].min_slack_exact
    else:
        def span(lo, hi):
            return harmonic_diff(TABLE, lo, hi)

        def slack(report):
            return report.properties[0].min_slack

    for a, b in all_pairs(universe(2, 4)):
        la, lb, lcs = len(a), len(b), lcs_len(a, b)
        scs, dab = la + lb - lcs, tier.dist(a, b)
        scs_gap = -abs(dab - (span(la, scs) + span(lb, scs)))
        assert slack(verify_lemma_scs([(a, b)], rational=rational)) == scs_gap
        lcs_gap = span(lcs, la) + span(lcs, lb) - dab
        assert slack(verify_lemma_lcs_triangle([(a, b)], rational=rational)) == lcs_gap
        if a != b:
            least = la + lb - (min(la, lb) - (la == lb))
            bound = span(la, least) + span(lb, least)
            assert _identity_gap(tier, a, b, dab) == dab - bound
        if not rational:
            halves = span(la, scs), span(lb, scs)
            assert distance_decomposed(a, b) == (*halves, sum(halves))


# -- everything check runs ---------------------------------------------------------


@pytest.mark.parametrize("rational", [True, False], ids=["rational", "float"])
@pytest.mark.parametrize(
    "config",
    [GenConfig(2, 3), GenConfig(2, 8, sample_count=50, seed=4, mode="random")],
    ids=["exhaustive", "random"],
)
def test_verify_all_runs_the_four_suites_in_order(config, rational):
    if config.mode == "exhaustive":
        strings = universe(config.alphabet_size, config.max_length)
        pairs, seed = (lambda: all_pairs(strings)), None
    else:
        pairs, seed = (lambda: random_pairs(config)), config.seed
    reports = [
        verify_metric_axioms(config, rational=rational),
        verify_lemma_scs(pairs(), seed=seed, rational=rational),
        verify_lemma_lcs_triangle(pairs(), seed=seed, rational=rational),
        verify_lemma_chain(random_chains(config), seed=config.seed, rational=rational),
    ]
    expected = VerificationReport([p for rep in reports for p in rep.properties])
    assert verify_all(config, rational=rational).as_dict() == expected.as_dict()


def test_verify_all_passes_the_distance_to_the_axioms_only():
    dist = broken_min_lcs_distance(rational=True)
    report = verify_all(GenConfig(2, 4), dist=dist)
    by_name = {p.name: p.violations for p in report.properties}
    assert by_name["identity"] == 155
    assert by_name["triangle"] == 0
    assert report.total_violations == 155


# -- planted bug and shrinking ---------------------------------------------------


def fixture_report():
    cfg = GenConfig(alphabet_size=2, max_length=4, mode="exhaustive")
    dist = broken_min_lcs_distance(rational=True)
    return verify_metric_axioms(cfg, rational=True, dist=dist, table=TABLE)


def test_planted_bug_is_detected():
    report = fixture_report()
    assert report.total_violations > 0
    # the broken formula zeroes out distinct same-length pairs
    identity = report.properties[1]
    assert identity.violations == 155
    assert all(cx.exact_slack < 0 for cx in identity.counterexamples)


def test_planted_bug_float_tier_also_fires():
    cfg = GenConfig(alphabet_size=2, max_length=3, mode="exhaustive")
    dist = broken_min_lcs_distance(rational=False)
    report = verify_metric_axioms(cfg, rational=False, dist=dist, table=TABLE)
    assert report.total_violations > 0


def test_gaps_are_judged_once_at_the_floor(monkeypatch):
    judged = []
    judge = _Tier.judge

    def spy(self, gap, floor):
        judged.append(gap)
        return judge(self, gap, floor)

    monkeypatch.setattr(_Tier, "judge", spy)
    verify_metric_axioms(GenConfig(2, 3), rational=True)
    assert len(judged) == 3  # the three minima
    judged.clear()
    fixture_report()
    assert len(judged) == 3 + 155  # and the stored identity counterexamples

    # a gap at the floor is no violation, and the next one below it is
    below_tolerance = math.nextafter(-AXIOM_TOLERANCE, -math.inf)
    for tier, at, below in (
        (_Tier(False), -AXIOM_TOLERANCE, below_tolerance),
        (_Tier(True), Fraction(0), Fraction(-1, 10**30)),
    ):
        collector = _Collector("edge", tier, AXIOM_TOLERANCE, gap=None)
        collector.record((EMPTY, EMPTY, EMPTY), at)
        assert collector.violations == 0
        collector.record((EMPTY, EMPTY, EMPTY), below)
        assert collector.violations == 1
        assert collector.counterexamples[0].slack == float(below)


def test_shrink_reaches_local_minimum():
    report = fixture_report()
    cx = report.properties[1].counterexamples[-1]
    small = shrink(cx)
    checker = small.checker
    assert checker(small.triple)[0]
    for which in range(3):
        ids = small.triple[which].ids
        for pos in range(len(ids)):
            cand = list(small.triple)
            cand[which] = SymbolSeq(ids[:pos] + ids[pos + 1 :])
            assert not checker(tuple(cand))[0]


def test_shrink_is_idempotent():
    report = fixture_report()
    cx = report.properties[1].counterexamples[0]
    once = shrink(cx)
    twice = shrink(once)
    assert once.triple == twice.triple
    assert once.slack == twice.slack


def test_shrink_rejects_non_violations():
    report = fixture_report()
    cx = report.properties[1].counterexamples[0]
    healthy = type(cx)(
        triple=(seq("ab"), seq("ab"), EMPTY),
        property=cx.property,
        slack=0.0,
        exact_slack=Fraction(0),
        checker=cx.checker,
    )
    with pytest.raises(ValueError):
        shrink(healthy)
