"""Workload definitions, seeded inputs and the oracles that check outputs.

Every workload exercises every CLI command, so that each run reports every
end-to-end metric; what differs between workloads is the input regime and
how the measuring time is shared between the commands.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction

from harmdist import Interner, distance, distance_exact

#: 200 code points of Latin Extended-A/B: non-ASCII, no whitespace.
WIDE = "".join(chr(0x100 + i) for i in range(200))

#: Command kinds the timed loop draws from, in scheduling order.  ``setup``
#: is ``knn --index P`` run with no file at ``P``: it builds and saves the
#: index that the ``knn_index`` commands after it load.
KINDS = ("setup", "dist", "knn_index", "knn_scan", "matrix", "check_exhaustive",
         "check_random")

K = 10          # neighbours per knn query
RADIUS = 0.3    # radius of the library range queries
PRECISION = 12  # the CLI's default printed decimals
KNN_ROUNDS = 3  # distinct knn rounds, each one near and one fresh query

#: Kinds whose one sample is a round of consecutive commands, and its size.
ROUNDS = {"knn_index": 2, "knn_scan": 2}


@dataclass(frozen=True)
class Workload:
    name: str
    symbols: str
    corpus_size: int
    min_len: int
    max_len: int
    matrix_lines: int
    exhaustive: tuple[int, int]          # check --exhaustive: (alphabet, maxlen)
    random_check: tuple[int, int, int]   # check --random: (alphabet, maxlen, samples)
    oracle_engine: str                   # an engine `auto` does not pick here
    primary: str                         # command kind timed in-process as cli.main_s
    shares: dict = field(default_factory=dict)  # kind -> share of measuring time; kinds run
    universe_corpus: bool = False        # corpus is every string up to max_len
    dist_pairs: int = 8
    layer_pairs: int = 300
    probes: int = 5
    cli_reps: int = 5                    # untraced/traced pairs and fresh runs of the primary
    matrix_cells_checked: int = 64

    @property
    def kinds(self) -> tuple[str, ...]:
        """The command kinds the timed loop runs, in scheduling order."""
        return tuple(k for k in KINDS if k in self.shares)

    def tiny(self) -> "Workload":
        """The same workload at sizes small enough for a unit test."""
        return replace(
            self,
            name=f"{self.name}-tiny",
            corpus_size=min(self.corpus_size, 40),
            max_len=min(self.max_len, 24),
            min_len=min(self.min_len, 4),
            matrix_lines=8,
            exhaustive=(2, 2),
            random_check=(self.random_check[0], 8, 10),
            universe_corpus=False,
            dist_pairs=2,
            layer_pairs=6,
            probes=1,
            cli_reps=1,
            matrix_cells_checked=8,
        )


#: The check sizes of ``verify``: the exhaustive rational check over the
#: binary universe up to length 5, and random float triples of binary strings
#: up to length 64.  ``short-dense`` and ``long-sparse`` run no check command
#: in their timed loop; their traced runs time propcheck at these sizes.
VERIFY_EXHAUSTIVE = (2, 5)
VERIFY_RANDOM_LEN = 64

WORKLOADS = {
    w.name: w
    for w in (
        # Every call pays import plus the 2^20-entry harmonic table, and LCS
        # takes microseconds: start-up cost dominates every command, the
        # checks included, so they run at small sizes here.
        Workload(
            name="cold-start",
            symbols="abcdefgh",
            corpus_size=200,
            min_len=0,
            max_len=16,
            matrix_lines=50,
            exhaustive=(2, 3),
            random_check=(8, 16, 200),
            oracle_engine="bitparallel",
            primary="dist",
            shares={"setup": 0.04, "dist": 0.6, "knn_index": 0.072, "knn_scan": 0.072,
                    "matrix": 0.072, "check_exhaustive": 0.072, "check_random": 0.072},
            dist_pairs=16,
        ),
        # Short dense strings: `auto` sends every pair to numpy dp, so the
        # LCS layer does almost all the work; half the queries are near a
        # corpus line (pruning works), half are fresh (pruning is weak).
        # The timed loop runs the commands of this regime: set-up,
        # knn with the index and without, and matrix; plus dist, whose
        # fresh-process cost every command pays.  The matrix slice is 120
        # lines, not 200: a 200-line matrix takes about 5 s, a 60 s run then
        # holds three or four of them, and their median spread past the
        # benchmark's bound from run to run.
        Workload(
            name="short-dense",
            symbols="acgt",
            corpus_size=2000,
            min_len=0,
            max_len=64,
            matrix_lines=120,
            exhaustive=VERIFY_EXHAUSTIVE,
            random_check=(2, VERIFY_RANDOM_LEN, 300),
            oracle_engine="bitparallel",
            primary="knn_index",
            shares={"setup": 0.23, "dist": 0.09, "knn_index": 0.22, "knn_scan": 0.23,
                    "matrix": 0.23},
        ),
        # Long strings over a wide alphabet: `auto` already picks the
        # multi-word bit-parallel kernel and harmonic_diff its long-span
        # branch, so a change tuned for short lanes must show no loss here.
        # The same commands as short-dense.
        Workload(
            name="long-sparse",
            symbols=WIDE,
            corpus_size=400,
            min_len=100,
            max_len=400,
            matrix_lines=150,
            exhaustive=VERIFY_EXHAUSTIVE,
            random_check=(2, VERIFY_RANDOM_LEN, 300),
            oracle_engine="huntszymanski",
            primary="knn_index",
            shares={"setup": 0.1, "dist": 0.12, "knn_index": 0.25, "knn_scan": 0.24,
                    "matrix": 0.29},
            layer_pairs=100,
        ),
        # The verification suites: Fraction arithmetic, the triangle loop and
        # per-triple distance calls in propcheck; the corpus is the same
        # binary universe the exhaustive check enumerates.
        Workload(
            name="verify",
            symbols="ab",
            corpus_size=63,
            min_len=0,
            max_len=5,
            matrix_lines=63,
            exhaustive=VERIFY_EXHAUSTIVE,
            random_check=(2, VERIFY_RANDOM_LEN, 600),
            oracle_engine="bitparallel",
            primary="check_exhaustive",
            shares={"setup": 0.04, "dist": 0.1, "knn_index": 0.09, "knn_scan": 0.09,
                    "matrix": 0.08, "check_exhaustive": 0.3, "check_random": 0.3},
            universe_corpus=True,
            cli_reps=1,
        ),
    )
}


@dataclass
class Inputs:
    corpus: list[str]
    queries: list[str]
    pairs: list[tuple[str, str]]          # dist arguments
    layer_pairs: list[tuple[int, int]]    # corpus indices for per-pair layer timings


def make_inputs(w: Workload, seed: int) -> Inputs:
    """Inputs are a pure function of (workload, seed)."""
    rng = random.Random(f"harmdist-bench:{w.name}:{seed}")

    def fresh() -> str:
        n = rng.randint(w.min_len, w.max_len)
        return "".join(rng.choice(w.symbols) for _ in range(n))

    def near(s: str) -> str:
        chars = list(s)
        for _ in range(rng.randint(1, 3)):
            op = rng.randrange(3) if chars else 0
            if op == 0:
                chars.insert(rng.randint(0, len(chars)), rng.choice(w.symbols))
            elif op == 1:
                del chars[rng.randrange(len(chars))]
            else:
                chars[rng.randrange(len(chars))] = rng.choice(w.symbols)
        return "".join(chars)

    if w.universe_corpus:
        corpus = [
            "".join(t)
            for n in range(w.max_len + 1)
            for t in itertools.product(w.symbols, repeat=n)
        ]
        rng.shuffle(corpus)
    else:
        corpus = [fresh() for _ in range(w.corpus_size)]
    # A knn query's cost follows its length and whether it is near a corpus
    # line, so every query has the middle length of [min_len, max_len] and
    # the queries come in rounds of one near and one fresh: a corpus line of
    # about that length with 1-3 edits, then a fresh string of exactly that
    # length.  The timed loop runs a round at a time, so each knn sample
    # holds the same near/fresh mix whatever the number of samples.
    target = w.min_len + round((w.max_len - w.min_len) / 2)
    gap = min(abs(len(s) - target) for s in corpus)
    middle = [s for s in corpus if abs(len(s) - target) == gap]
    queries = []
    for _ in range(KNN_ROUNDS):
        queries.append(near(rng.choice(middle)))
        queries.append("".join(rng.choice(w.symbols) for _ in range(target)))
    pairs = []
    for i in range(w.dist_pairs):
        a = fresh()
        pairs.append((a, near(a) if i % 2 == 0 else fresh()))
    n = len(corpus)
    layer_pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(w.layer_pairs)]
    return Inputs(corpus, queries, pairs, layer_pairs)


# ---------------------------------------------------------------------------
# oracles: in-process results the CLI output must reproduce


def fmt(d: float) -> str:
    return f"{d:.{PRECISION}f}"


def oracle_knn(corpus: list[str], query: str, engine: str) -> bytes:
    """The CLI's knn stdout, recomputed by a full scan with a non-auto engine."""
    interner = Interner()
    seqs = [interner.seq(line) for line in corpus]
    q = interner.seq(query)
    ranked = sorted((distance(q, s, engine=engine), i) for i, s in enumerate(seqs))
    out = [
        f"{rank}\t{i}\t{fmt(d)}\t{corpus[i]}\n"
        for rank, (d, i) in enumerate(ranked[:K], start=1)
    ]
    return "".join(out).encode("utf-8")


def check_dist(a: str, b: str, stdout: bytes) -> str | None:
    """``dist`` must match the exact rational distance (dp engine) within
    1e-9 plus half a unit of the last printed decimal."""
    interner = Interner()
    exact = distance_exact(interner.seq(a), interner.seq(b), engine="dp")
    text = stdout.decode("utf-8", "replace").strip()
    try:
        got = Fraction(text)
    except ValueError:
        return f"dist printed {text!r}"
    if abs(got - exact) > Fraction(1, 10 ** 9) + Fraction(1, 2 * 10 ** PRECISION):
        return f"dist {a!r} {b!r}: printed {text}, exact {float(exact)!r}"
    return None


def check_matrix(lines: list[str], stdout: bytes, cells: list[tuple[int, int]],
                 engine: str) -> str | None:
    """Shape, zero diagonal, and seeded cells (both halves) against the oracle."""
    rows = stdout.decode("utf-8", "replace").split("\n")
    n = len(lines)
    if rows[-1] != "" or len(rows) != n + 2:
        return f"matrix has {len(rows) - 1} lines, expected {n + 1}"
    if rows[0] != "\t".join(str(i) for i in range(n)):
        return "matrix header is wrong"
    grid = [r.split("\t") for r in rows[1:-1]]
    if any(len(r) != n for r in grid):
        return "matrix row has the wrong width"
    zero = fmt(0.0)
    for i in range(n):
        if grid[i][i] != zero:
            return f"matrix diagonal cell {i} is {grid[i][i]}"
    interner = Interner()
    seqs = [interner.seq(line) for line in lines]
    for i, j in cells:
        want = fmt(distance(seqs[i], seqs[j], engine=engine))
        if grid[i][j] != want or grid[j][i] != want:
            return f"matrix cell ({i}, {j}) is {grid[i][j]}/{grid[j][i]}, expected {want}"
    return None


def matrix_cells(w: Workload, seed: int, n: int) -> list[tuple[int, int]]:
    rng = random.Random(f"harmdist-bench-cells:{w.name}:{seed}")
    return [tuple(sorted(rng.sample(range(n), 2))) for _ in range(w.matrix_cells_checked)]


# ---------------------------------------------------------------------------
# the commands of a run and the check of their stdout


def commands(w: Workload, inputs: Inputs, seed: int, files: dict) -> dict:
    """Every distinct CLI command of a run, by kind; argv without the program.

    ``files`` maps "corpus", "matrix" and "index" to paths.  The set-up
    command is ``knn_index`` number 0, to be run with no index file present.
    """
    corpus, index = str(files["corpus"]), str(files["index"])
    ex_alpha, ex_len = w.exhaustive
    rnd_alpha, rnd_len, rnd_samples = w.random_check
    knn = ["--k", str(K)]
    knn_index = [["knn", corpus, q, *knn, "--index", index] for q in inputs.queries]
    return {
        "setup": knn_index[:1],
        "dist": [["dist", a, b] for a, b in inputs.pairs],
        "knn_index": knn_index,
        "knn_scan": [["knn", corpus, q, *knn, "--no-index"] for q in inputs.queries],
        "matrix": [["matrix", str(files["matrix"])]],
        "check_exhaustive": [[
            "check", "--exhaustive", "--rational", "--alphabet", str(ex_alpha),
            "--maxlen", str(ex_len), "--json",
        ]],
        "check_random": [[
            "check", "--random", "--float", "--alphabet", str(rnd_alpha),
            "--maxlen", str(rnd_len), "--samples", str(rnd_samples),
            "--seed", str(seed % 2 ** 64), "--json",
        ]],
    }


def write_files(w: Workload, inputs: Inputs, work) -> dict:
    files = {"corpus": work / "corpus.txt", "matrix": work / "matrix.txt",
             "index": work / "corpus.hvpt"}
    files["corpus"].write_text("\n".join(inputs.corpus) + "\n", encoding="utf-8")
    lines = inputs.corpus[: w.matrix_lines]
    files["matrix"].write_text("\n".join(lines) + "\n", encoding="utf-8")
    return files


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()[:16]


class OutputCheck:
    """Checks one command's exit code and stdout against the oracles and,
    when this (workload, seed) has recorded digests, against the stdout
    digest recorded for it."""

    def __init__(self, w: Workload, seed: int, inputs: Inputs, recorded: dict | None):
        self.w, self.seed, self.inputs = w, seed, inputs
        self.recorded = recorded
        self.digests_checked = 0
        self._knn = {}

    def knn_oracle(self, idx: int) -> bytes:
        if idx not in self._knn:
            self._knn[idx] = oracle_knn(
                self.inputs.corpus, self.inputs.queries[idx], self.w.oracle_engine
            )
        return self._knn[idx]

    def __call__(self, kind: str, idx: int, code: int, stdout: bytes) -> str | None:
        if code != 0:
            return f"{kind}:{idx} exited with {code}"
        if kind == "setup":  # building the index must not change what knn prints
            error = self("knn_index", idx, code, stdout)
            return error and f"setup: {error}"
        if self.recorded is not None:
            want = self.recorded.get(f"{kind}:{idx}")
            if want is not None:
                self.digests_checked += 1
                if digest(stdout) != want:
                    return f"{kind}:{idx} stdout digest changed"
        if kind == "dist":
            return check_dist(*self.inputs.pairs[idx], stdout)
        if kind in ("knn_index", "knn_scan"):
            if stdout != self.knn_oracle(idx):
                return f"{kind}:{idx} differs from the full-scan oracle"
            return None
        if kind == "matrix":
            lines = self.inputs.corpus[: self.w.matrix_lines]
            cells = matrix_cells(self.w, self.seed, len(lines))
            return check_matrix(lines, stdout, cells, self.w.oracle_engine)
        try:
            report = json.loads(stdout)
        except ValueError:
            return f"{kind} printed no JSON"
        if not report.get("properties") or report.get("total_violations") != 0:
            return f"{kind} reported violations: {report.get('total_violations')}"
        return None
