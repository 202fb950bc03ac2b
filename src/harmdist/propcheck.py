"""Executable verification of the metric axioms and supporting identities.

Every property is written once, as a gap: a signed margin, negative
meaning broken.  One private arithmetic tier evaluates the gaps, and no
tier states the closed form itself: the tiers differ in which ``metric``
functions they call, in the floor below which a gap is a violation, and
in how a reported gap is judged.  The rational tier calls
``distance_exact`` and ``_exact_from_lengths``, so every distance is
exact and any negative gap is a violation; it is the authority.  The
float tier calls ``distance`` and ``_distance_from_lengths``, the code
the CLI runs, and tolerates bounded rounding (AXIOM_TOLERANCE for
axioms, LEMMA_TOLERANCE for the equalities).  The exhaustive axioms take
the upper triangle of the distance matrix from one batched ``lcs_rows``
call (in floats, ``distance_rows``, the rows ``harmdist matrix``
prints), and the diagonal and lower triangle from the scalar distance,
so symmetry compares the packed LCS kernel with the scalar one; their
counterexamples re-read that matrix, so shrinking, which only deletes
symbols and so stays in the universe, sees the values the check saw.  A
gap is counted against the floor and judged only when it is reported: as
a stored counterexample or as a property's minimum.  A suite's ``table``
is the harmonic cache that the float ``from_lengths`` grows; the float
``dist`` and ``distance_rows`` grow ``default_table()``, as every
distance in ``metric`` does.  Every table holds the same entries, so no
report depends on it.
Checks run either exhaustively over every string on a small alphabet or
statistically over seeded random samples; both modes feed the same gap
definitions, and in both the report is a pure function of (config, seed).
``verify_all`` runs every suite, in the order ``harmdist check`` prints
them.  ``FIXTURES`` maps the name of each planted-bug distance to its
factory, and is the only list of those names.

The gap of each property, reported as the counterexample's slack:

* symmetry          -|d(a,b) - d(b,a)|
* identity          -d(a,a) on the diagonal; off it, d(a,b) minus the
                    smallest distance the formula permits for distinct
                    strings of those lengths
* triangle          d(a,b) + d(b,c) - d(a,c)
* supersequence split   -|d(a,b) - (d(a,S) + d(S,b))|, S a shortest
                        common supersequence
* chain additivity      -|d(a,c) - d(a,b) - d(b,c)|
* lcs triangle          d(a,L) + d(L,b) - d(a,b), L a longest common
                        subsequence

Pair-scoped properties pad their witness to a triple with the empty
string.  Checking is embarrassingly parallel in principle; this
implementation is sequential, and counterexamples are canonically
sorted so any future parallel runner must produce the identical report.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Literal, get_args

from .errors import CapacityError
from .harmonic import HarmonicTable, default_table
from .lcs import SymbolSeq, is_subsequence, lcs_len, lcs_rows
from .metric import _distance_from_lengths, _exact_from_lengths
from .metric import distance, distance_exact, distance_rows

AXIOM_TOLERANCE = 1e-9
LEMMA_TOLERANCE = 1e-12

#: Exhaustive enumeration refuses universes larger than this.
MAX_UNIVERSE = 100_000

#: Counterexamples kept per property; counting continues past the cap.
MAX_STORED = 1_000

EMPTY = SymbolSeq(())

Mode = Literal["exhaustive", "random"]

# A checker re-evaluates one property on an arbitrary triple and returns
# (violated, slack, exact_slack); shrink uses it to test deletions.
Checker = Callable[
    [tuple[SymbolSeq, SymbolSeq, SymbolSeq]],
    tuple[bool, float, Fraction | None],
]


@dataclass(frozen=True)
class GenConfig:
    """Generation parameters for one verification run."""

    alphabet_size: int
    max_length: int
    sample_count: int = 1_000
    seed: int = 0
    mode: Mode = "exhaustive"

    def __post_init__(self):
        if self.alphabet_size < 1:
            raise ValueError("alphabet_size must be positive")
        if self.max_length < 0:
            raise ValueError("max_length must be nonnegative")
        if self.sample_count < 0:
            raise ValueError("sample_count must be nonnegative")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.mode not in get_args(Mode):
            raise ValueError(f"mode must be one of {get_args(Mode)}, not {self.mode!r}")


@dataclass
class Counterexample:
    """A witness triple for one violated property."""

    triple: tuple[SymbolSeq, SymbolSeq, SymbolSeq]
    property: str
    slack: float
    exact_slack: Fraction | None = None
    checker: Checker | None = field(default=None, repr=False, compare=False)


@dataclass
class PropertyReport:
    name: str
    checked: int
    violations: int
    counterexamples: list[Counterexample]  # capped at MAX_STORED entries
    min_slack: float | None
    min_slack_exact: Fraction | None = None
    seed: int | None = None


@dataclass
class VerificationReport:
    properties: list[PropertyReport]

    @property
    def total_violations(self) -> int:
        return sum(p.violations for p in self.properties)

    def counterexamples(self) -> list[Counterexample]:
        return [cx for p in self.properties for cx in p.counterexamples]

    def as_text(self) -> str:
        lines = []
        for p in self.properties:
            slack = "n/a" if p.min_slack is None else f"{p.min_slack:.12e}"
            if p.min_slack_exact is not None:
                slack += f" (exact {p.min_slack_exact})"
            seed = "n/a" if p.seed is None else str(p.seed)
            lines.append(
                f"{p.name}: checked={p.checked} violations={p.violations} "
                f"min_slack={slack} seed={seed}"
            )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "properties": [
                {
                    "property": p.name,
                    "checked": p.checked,
                    "violations": p.violations,
                    "min_slack": p.min_slack,
                    "min_slack_exact": (
                        None
                        if p.min_slack_exact is None
                        else str(p.min_slack_exact)
                    ),
                    "seed": p.seed,
                }
                for p in self.properties
            ],
            "total_violations": self.total_violations,
        }


# ---------------------------------------------------------------------------
# generators


def universe(alphabet_size: int, max_length: int) -> list[SymbolSeq]:
    """Every string of length <= max_length, ordered by length then ids."""
    total = 0
    count = 1
    for _ in range(max_length + 1):
        total += count
        count *= alphabet_size
        if total > MAX_UNIVERSE:
            raise CapacityError(
                f"exhaustive universe exceeds {MAX_UNIVERSE} strings"
            )
    out = []
    for length in range(max_length + 1):
        for ids in itertools.product(range(alphabet_size), repeat=length):
            out.append(SymbolSeq(ids))
    return out


def _random_seq(rng: random.Random, alphabet_size: int, max_length: int) -> SymbolSeq:
    length = rng.randint(0, max_length)
    return SymbolSeq(tuple(rng.randrange(alphabet_size) for _ in range(length)))


def _mutate(rng: random.Random, seq: SymbolSeq, alphabet_size: int) -> SymbolSeq:
    ids = list(seq.ids)
    for _ in range(rng.randint(0, len(ids) // 4 + 1)):
        if ids and rng.random() < 0.5:
            del ids[rng.randrange(len(ids))]
        else:
            ids.insert(rng.randint(0, len(ids)), rng.randrange(alphabet_size))
    return SymbolSeq(tuple(ids))


def random_triples(
    config: GenConfig,
) -> Iterable[tuple[SymbolSeq, SymbolSeq, SymbolSeq]]:
    """Seeded triples, alternating independent draws with mutated copies of
    a common ancestor (near-equal triples have the tightest triangles)."""
    rng = random.Random(config.seed)
    k, ml = config.alphabet_size, config.max_length
    for i in range(config.sample_count):
        if i % 2 == 0:
            yield (
                _random_seq(rng, k, ml),
                _random_seq(rng, k, ml),
                _random_seq(rng, k, ml),
            )
        else:
            root = _random_seq(rng, k, ml)
            yield (
                _mutate(rng, root, k),
                _mutate(rng, root, k),
                _mutate(rng, root, k),
            )


def _delete_some(rng: random.Random, ids: tuple[int, ...]) -> tuple[int, ...]:
    keep = rng.random()
    return tuple(s for s in ids if rng.random() < keep)


def random_chains(
    config: GenConfig,
) -> Iterable[tuple[SymbolSeq, SymbolSeq, SymbolSeq]]:
    """Seeded chains a <= b <= c under the subsequence order, generated by
    random deletions from a random top string."""
    rng = random.Random(config.seed)
    for _ in range(config.sample_count):
        c = _random_seq(rng, config.alphabet_size, config.max_length)
        b = _delete_some(rng, c.ids)
        a = _delete_some(rng, b)
        yield SymbolSeq(a), SymbolSeq(b), c


def all_pairs(
    strings: Sequence[SymbolSeq],
) -> Iterable[tuple[SymbolSeq, SymbolSeq]]:
    return itertools.product(strings, strings)


def random_pairs(config: GenConfig) -> Iterable[tuple[SymbolSeq, SymbolSeq]]:
    rng = random.Random(config.seed)
    for _ in range(config.sample_count):
        yield (
            _random_seq(rng, config.alphabet_size, config.max_length),
            _random_seq(rng, config.alphabet_size, config.max_length),
        )


# ---------------------------------------------------------------------------
# arithmetic tier

Dist = Callable[[SymbolSeq, SymbolSeq], float | Fraction]


class _Tier:
    """Exact or float arithmetic.

    The tiers differ in the ``metric`` functions that ``dist`` and
    ``from_lengths`` call, in ``judge`` and in the floor a ``_Collector``
    counts violations against.  The rational tier calls
    ``distance_exact`` (with its length guard) and ``_exact_from_lengths``,
    computes with ``Fraction`` and its floor is 0; the float tier calls
    ``distance`` and ``_distance_from_lengths``, the production code, and
    its floor is ``-tolerance``.
    """

    def __init__(self, rational: bool, table: HarmonicTable | None = None):
        self.rational = rational
        self.table = table if table is not None else default_table()

    def dist(self, a: SymbolSeq, b: SymbolSeq):
        return distance_exact(a, b) if self.rational else distance(a, b)

    def from_lengths(self, la: int, lb: int, lcs: int):
        """The distance forced by the three lengths alone."""
        if self.rational:
            return _exact_from_lengths(la, lb, lcs)
        return _distance_from_lengths(la, lb, lcs, self.table)

    def rows(self, strings: Sequence[SymbolSeq]):
        """The upper triangle of the distance matrix, row i against
        ``strings[i + 1:]``, from one ``lcs_rows`` call: in floats, the
        rows of ``distance_rows``, which ``harmdist matrix`` prints."""
        if not self.rational:
            return distance_rows(strings)
        lens = [len(s.ids) for s in strings]
        return [
            [_exact_from_lengths(la, lb, lcs) for lb, lcs in zip(lens[i + 1 :], row)]
            for i, (la, row) in enumerate(zip(lens, lcs_rows(strings)))
        ]

    def judge(self, gap, floor) -> tuple[bool, float, Fraction | None]:
        """(violated, slack, exact_slack) of one gap against a floor."""
        if self.rational:
            return gap < floor, float(gap), gap
        gap += 0.0  # normalize -0.0 away
        return gap < floor, gap, None


def broken_min_lcs_distance(*, rational: bool) -> Dist:
    """Deliberately wrong distance with the LCS length replaced by
    min(|a|, |b|); exists to prove the harness catches planted bugs.  Its
    float tier reads ``default_table()``, as ``distance`` does."""
    tier = _Tier(rational)
    return lambda a, b: tier.from_lengths(
        len(a.ids), len(b.ids), min(len(a.ids), len(b.ids))
    )


FIXTURES: dict[str, Callable[..., Dist]] = {
    "broken-lcs": broken_min_lcs_distance,
}


# ---------------------------------------------------------------------------
# axioms as gaps over distances, shared by the exhaustive and random runs


def _symmetry_gap(dab, dba):
    return -abs(dab - dba)


def _identity_gap(tier: _Tier, a: SymbolSeq, b: SymbolSeq, dab):
    if a.ids == b.ids:
        return -dab
    # Smallest distance the formula allows for distinct strings of these
    # lengths: lcs <= min, and lcs <= min-1 when the lengths coincide.
    la, lb = len(a.ids), len(b.ids)
    return dab - tier.from_lengths(la, lb, min(la, lb) - (la == lb))


def _triangle_gap(dab, dbc, dac):
    return dab + dbc - dac


# ---------------------------------------------------------------------------
# harness plumbing


class _Collector:
    """Counts the gaps of one property below its violation floor: 0 in
    the rational tier, ``-tolerance`` in the float tier.

    A gap is judged only when it is reported, as a stored counterexample
    or as the minimum.  ``gap`` evaluates the property on any triple; it
    makes the checker that counterexamples carry for shrinking.
    """

    def __init__(self, name: str, tier: _Tier, tolerance: float, gap):
        self.name = name
        self.tier = tier
        self.gap = gap
        self.floor = 0 if tier.rational else -tolerance
        self.checker: Checker = lambda t: tier.judge(gap(t), self.floor)
        self.checked = 0
        self.violations = 0
        self.counterexamples: list[Counterexample] = []  # the first MAX_STORED
        self.min_gap = None  # the first minimum

    def record(self, triple, gap) -> None:
        self.checked += 1
        if self.min_gap is None or gap < self.min_gap:
            self.min_gap = gap
        if gap < self.floor:
            self.violations += 1
            if len(self.counterexamples) < MAX_STORED:
                _, slack, exact = self.tier.judge(gap, self.floor)
                self.counterexamples.append(
                    Counterexample(triple, self.name, slack, exact, self.checker)
                )

    def run(self, triples, seed: int | None) -> VerificationReport:
        """Record ``gap`` over every triple: the report of one property."""
        for triple in triples:
            self.record(triple, self.gap(triple))
        return VerificationReport([self.report(seed)])

    def report(self, seed: int | None) -> PropertyReport:
        # ids as tuples, so that byte and tuple ids compare alike
        cxs = sorted(
            self.counterexamples,
            key=lambda cx: (cx.slack, *[tuple(s.ids) for s in cx.triple]),
        )
        slack = exact = None
        if self.min_gap is not None:
            _, slack, exact = self.tier.judge(self.min_gap, self.floor)
        return PropertyReport(
            self.name, self.checked, self.violations, cxs, slack, exact, seed
        )


def verify_metric_axioms(
    config: GenConfig,
    *,
    rational: bool = True,
    dist: Dist | None = None,
    table: HarmonicTable | None = None,
) -> VerificationReport:
    """Check symmetry, identity of indiscernibles, and the triangle
    inequality, exhaustively or over seeded random triples.

    Violations are data, not errors: they come back as counterexamples
    inside the report.
    """
    tier = _Tier(rational, table)
    d = scalar = dist if dist is not None else tier.dist
    if config.mode == "exhaustive":
        strings = universe(config.alphabet_size, config.max_length)
        if dist is None:  # the upper triangle batched, as matrix prints it
            upper = tier.rows(strings)
        else:
            upper = [[d(a, b) for b in strings[i + 1 :]] for i, a in enumerate(strings)]
        # the diagonal and the lower triangle by the scalar distance, so
        # that symmetry compares the batched LCS kernel with the scalar one
        lower = [[d(a, b) for b in strings[: i + 1]] for i, a in enumerate(strings)]
        matrix = [[*lo, *up] for lo, up in zip(lower, upper)]
        # the checkers read the matrix too, so that a counterexample made
        # from a batched entry still violates when shrinking re-checks it
        at = {s: i for i, s in enumerate(strings)}
        d = lambda a, b: matrix[at[a]][at[b]] if a in at and b in at else scalar(a, b)
    sym = _Collector(
        "symmetry", tier, AXIOM_TOLERANCE,
        lambda t: _symmetry_gap(d(t[0], t[1]), d(t[1], t[0])),
    )
    ident = _Collector(
        "identity", tier, AXIOM_TOLERANCE,
        lambda t: _identity_gap(tier, t[0], t[1], d(t[0], t[1])),
    )
    tri = _Collector(
        "triangle", tier, AXIOM_TOLERANCE,
        lambda t: _triangle_gap(d(t[0], t[1]), d(t[1], t[2]), d(t[0], t[2])),
    )
    if config.mode == "exhaustive":
        for i, a in enumerate(strings):
            ident.record((a, a, EMPTY), _identity_gap(tier, a, a, matrix[i][i]))
        for i, a in enumerate(strings):
            for j in range(i + 1, len(strings)):
                b, dab = strings[j], matrix[i][j]
                sym.record((a, b, EMPTY), _symmetry_gap(dab, matrix[j][i]))
                ident.record((a, b, EMPTY), _identity_gap(tier, a, b, dab))
        # _triangle_gap inlined: this loop runs n^3 times
        for i, a in enumerate(strings):
            di = matrix[i]
            for j, b in enumerate(strings):
                dab, dj = di[j], matrix[j]
                for k, c in enumerate(strings):
                    tri.record((a, b, c), dab + dj[k] - di[k])
        seed = None
    else:
        for a, b, c in random_triples(config):
            dab = d(a, b)
            sym.record((a, b, EMPTY), _symmetry_gap(dab, d(b, a)))
            ident.record((a, a, EMPTY), _identity_gap(tier, a, a, d(a, a)))
            ident.record((a, b, EMPTY), _identity_gap(tier, a, b, dab))
            tri.record((a, b, c), _triangle_gap(dab, d(b, c), d(a, c)))
        seed = config.seed
    return VerificationReport([c.report(seed) for c in (sym, ident, tri)])


# ---------------------------------------------------------------------------
# lemma suites


def verify_lemma_scs(
    pairs: Iterable[tuple[SymbolSeq, SymbolSeq]],
    *,
    rational: bool = True,
    table: HarmonicTable | None = None,
    seed: int | None = None,
) -> VerificationReport:
    """The distance splits exactly at a shortest common supersequence:
    d(a, b) = d(a, scs) + d(scs, b), both terms needing only lengths.

    Both sides of the gap are the same expression of |a|, |b| and the
    LCS length, in both tiers, so this suite cannot fail: with
    ``lcs_len`` replaced by min(|a|, |b|) it still reports no violation
    and a minimum slack of 0, while the identity axiom catches that bug
    155 times over alphabet 2, length 4.  Only a check that an edit path
    attains the formula would test the split itself.
    """
    tier = _Tier(rational, table)

    def gap(t):
        a, b = t[0], t[1]
        la, lb = len(a.ids), len(b.ids)
        scs = la + lb - lcs_len(a, b)
        split = tier.from_lengths(la, scs, la) + tier.from_lengths(scs, lb, lb)
        return -abs(tier.dist(a, b) - split)

    triples = ((a, b, EMPTY) for a, b in pairs)
    return _Collector("lemma_scs", tier, LEMMA_TOLERANCE, gap).run(triples, seed)


def verify_lemma_chain(
    chains: Iterable[tuple[SymbolSeq, SymbolSeq, SymbolSeq]],
    *,
    rational: bool = True,
    table: HarmonicTable | None = None,
    seed: int | None = None,
) -> VerificationReport:
    """Distances add along subsequence chains a <= b <= c:
    d(a, c) = d(a, b) + d(b, c).

    Every chain must satisfy the subsequence precondition; a violation is
    a generator bug and raises immediately.
    """
    tier = _Tier(rational, table)
    d = tier.dist

    def gap(t):
        a, b, c = t
        if not (is_subsequence(a, b) and is_subsequence(b, c)):
            return 0  # shrinking left the chain: nothing to check
        return -abs(d(a, c) - d(a, b) - d(b, c))

    def validated():
        for a, b, c in chains:
            if not (is_subsequence(a, b) and is_subsequence(b, c)):
                raise ValueError(
                    "chain generator produced a non-chain triple: "
                    f"{tuple(a)} {tuple(b)} {tuple(c)}"
                )
            yield a, b, c

    collector = _Collector("lemma_chain", tier, LEMMA_TOLERANCE, gap)
    return collector.run(validated(), seed)


def verify_lemma_lcs_triangle(
    pairs: Iterable[tuple[SymbolSeq, SymbolSeq]],
    *,
    rational: bool = True,
    table: HarmonicTable | None = None,
    seed: int | None = None,
) -> VerificationReport:
    """Routing through a longest common subsequence never undercuts the
    direct distance: d(a, b) <= d(a, lcs) + d(lcs, b); slack must be >= 0."""
    tier = _Tier(rational, table)

    def gap(t):
        a, b = t[0], t[1]
        la, lb, lcs = len(a.ids), len(b.ids), lcs_len(a, b)
        routed = tier.from_lengths(la, lcs, lcs) + tier.from_lengths(lcs, lb, lcs)
        return routed - tier.dist(a, b)

    triples = ((a, b, EMPTY) for a, b in pairs)
    collector = _Collector("lemma_lcs_triangle", tier, AXIOM_TOLERANCE, gap)
    return collector.run(triples, seed)


def verify_all(
    config: GenConfig, *, rational: bool = True, dist: Dist | None = None
) -> VerificationReport:
    """Everything ``harmdist check`` verifies, in its order: the axioms
    (over ``dist`` when given), the two pair lemmas over every pair of the
    universe or over seeded random pairs, then the chain lemma."""
    if config.mode == "exhaustive":
        strings = universe(config.alphabet_size, config.max_length)
        pairs, seed = (lambda: all_pairs(strings)), None
    else:
        pairs, seed = (lambda: random_pairs(config)), config.seed
    reports = [
        verify_metric_axioms(config, dist=dist, rational=rational),
        verify_lemma_scs(pairs(), seed=seed, rational=rational),
        verify_lemma_lcs_triangle(pairs(), seed=seed, rational=rational),
        verify_lemma_chain(random_chains(config), seed=config.seed, rational=rational),
    ]
    return VerificationReport([p for rep in reports for p in rep.properties])


# ---------------------------------------------------------------------------
# shrinking


def _deletions(triple):
    """Each triple one symbol shorter: the first string's positions in
    ascending order, then the second string's, then the third's."""
    for which, seq in enumerate(triple):
        for pos in range(len(seq.ids)):
            shorter = SymbolSeq(seq.ids[:pos] + seq.ids[pos + 1 :])
            yield (*triple[:which], shorter, *triple[which + 1 :])


def shrink(cx: Counterexample) -> Counterexample:
    """Greedily delete single symbols while the violation persists.

    The input must genuinely violate its property (checked, errors
    otherwise).  The result is locally minimal: no further single-symbol
    deletion keeps the property violated, which also makes shrinking
    idempotent.
    """
    if cx.checker is None:
        raise ValueError("counterexample carries no checker; cannot shrink")

    def violates(t) -> bool:
        return cx.checker(t)[0]

    triple = tuple(cx.triple)
    if not violates(triple):
        raise ValueError("shrink requires a violating counterexample")
    while smaller := next(filter(violates, _deletions(triple)), None):
        triple = smaller
    _, slack, exact = cx.checker(triple)
    return Counterexample(triple, cx.property, float(slack), exact, cx.checker)
