"""Command-line frontend.

Subcommands: ``dist`` (one pair), ``matrix`` (pairwise TSV over a file),
``knn`` (nearest neighbours by linear scan, or through a saved
vantage-point index), ``check`` (the metric-axiom and lemma verification
suites).

Exit codes: 0 success, 1 usage or infeasible request, 2 I/O or encoding
failure, 3 verification found violations.

Tokenization modes: ``codepoints`` (default, one symbol per Unicode
scalar), ``bytes`` (one symbol per byte, accepts arbitrary data),
``words`` (whitespace-separated).  Output uses fixed-precision decimals
so results diff cleanly across runs and platforms.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import CapacityError, IndexFormatError
from .lcs import Interner, SymbolSeq
from .metric import distance, distance_rows, distances

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VIOLATIONS = 3


class _Parser(argparse.ArgumentParser):
    # usage errors are exit code 1 in this tool, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _check_text(text: str) -> str:
    # invalid UTF-8 in argv arrives as lone surrogates (surrogateescape)
    if any(0xD800 <= ord(ch) <= 0xDFFF for ch in text):
        raise CliError("argument is not valid UTF-8", EXIT_IO)
    return text


def _tokens(text: str, mode: str):
    if mode == "bytes":
        return text.encode("utf-8", "surrogateescape")
    if mode == "codepoints":
        return _check_text(text)
    return _check_text(text).split()


def _read_corpus(
    path: str, mode: str, interner: Interner
) -> tuple[list[str] | list[bytes], list[SymbolSeq]]:
    """The lines of the file at path, a trailing newline optional, and
    their symbol sequences through ``interner``."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_IO) from exc
    if mode == "bytes":
        lines = data.split(b"\n")
    else:
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CliError(f"{path} is not valid UTF-8: {exc}", EXIT_IO) from exc
        lines = text.split("\n")
    if lines and not lines[-1]:
        lines.pop()
    return lines, interner.seqs(
        [line.split() for line in lines] if mode == "words" else lines
    )


def _fmt(value: float, precision: int) -> str:
    return f"{value:.{precision}f}"


def _seq_label(seq: SymbolSeq) -> str:
    if all(i < 26 for i in seq.ids):
        return "".join(chr(ord("a") + i) for i in seq.ids)
    return ".".join(str(i) for i in seq.ids)


# ---------------------------------------------------------------------------
# subcommands


def cmd_dist(args) -> int:
    interner = Interner()
    a = interner.seq(_tokens(args.a, args.mode))
    b = interner.seq(_tokens(args.b, args.mode))
    print(_fmt(distance(a, b), args.precision))
    return EXIT_OK


def cmd_matrix(args) -> int:
    _, seqs = _read_corpus(args.input, args.mode, Interner())
    rows = distance_rows(seqs)
    out = sys.stdout
    out.write("\t".join(str(i) for i in range(len(seqs))) + "\n")
    # one format operation per row; %.Nf prints exactly what _fmt does
    line = "\t".join([f"%.{args.precision}f"] * len(seqs)) + "\n"
    for i, row in enumerate(rows):
        # cell (i, j) below the diagonal is cell (j, i) of the earlier row j
        out.write(line % (*[rows[j][i - j - 1] for j in range(i)], 0.0, *row))
    return EXIT_OK


def cmd_knn(args) -> int:
    interner = Interner()
    lines, seqs = _read_corpus(args.corpus, args.mode, interner)
    if not lines:
        raise CliError("corpus is empty", EXIT_USAGE)
    query = interner.seq(_tokens(args.query, args.mode))

    if args.index:
        from .vpindex import VpTree

        if Path(args.index).exists():
            tree = VpTree.load(args.index, seqs)
        else:
            tree = VpTree.build(seqs, 0)
            tree.save(args.index)
        results = tree.knn(query, args.k)
    else:
        from heapq import nsmallest

        ds = distances(query, seqs)
        # the k smallest (distance, index) pairs, in the order a full sort gives
        ranked = nsmallest(args.k, zip(ds, range(len(ds))))
        results = [(i, d) for d, i in ranked]

    for rank, (idx, d) in enumerate(results, start=1):
        line = lines[idx]
        text = line.decode("utf-8", "backslashreplace") if isinstance(line, bytes) else line
        print(f"{rank}\t{idx}\t{_fmt(d, args.precision)}\t{text}")
    return EXIT_OK


def cmd_check(args) -> int:
    import json

    from .propcheck import FIXTURES, GenConfig, shrink, verify_all

    config = GenConfig(
        alphabet_size=args.alphabet,
        max_length=args.maxlen,
        sample_count=args.samples,
        seed=args.seed,
        mode="exhaustive" if args.exhaustive else "random",
    )
    if args.fixture is not None and args.fixture not in FIXTURES:
        known = ", ".join(sorted(FIXTURES))
        raise CliError(f"unknown fixture {args.fixture!r}; known: {known}", EXIT_USAGE)
    rational = not args.use_float
    dist = FIXTURES[args.fixture](rational=rational) if args.fixture else None
    report = verify_all(config, rational=rational, dist=dist)
    if args.json:
        print(json.dumps(report.as_dict(), sort_keys=True))
    else:
        print(report.as_text())

    if report.total_violations == 0:
        return EXIT_OK
    for prop in report.properties:
        if not prop.counterexamples:
            continue
        cx = shrink(prop.counterexamples[0])
        a, b, c = (_seq_label(s) for s in cx.triple)
        print(
            f"counterexample property={cx.property} slack={cx.slack:.12e} "
            f"a='{a}' b='{b}' c='{c}'"
        )
    return EXIT_VIOLATIONS


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    # dist, matrix and knn read strings and print distances
    strings = _Parser(add_help=False)
    strings.add_argument(
        "--mode",
        choices=("bytes", "codepoints", "words"),
        default="codepoints",
        help="tokenization mode (default: codepoints)",
    )
    strings.add_argument(
        "--precision",
        type=int,
        default=12,
        metavar="N",
        help="decimal places in printed distances (1..17, default 12)",
    )

    parser = _Parser(prog="harmdist", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", parents=[strings], help="distance between two strings")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser(
        "matrix", parents=[strings], help="pairwise distance matrix of a line file"
    )
    p.add_argument("input", help="newline-delimited corpus file")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser(
        "knn", parents=[strings], help="k nearest corpus lines to a query"
    )
    p.add_argument("corpus", help="newline-delimited corpus file")
    p.add_argument("query")
    p.add_argument("--k", type=int, default=10)
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--index",
        metavar="PATH",
        help="query a vantage-point index loaded from PATH, building and saving "
        "it first if missing",
    )
    group.add_argument(
        "--no-index", action="store_true", help="linear scan (the default)"
    )
    p.set_defaults(func=cmd_knn)

    p = sub.add_parser("check", help="verify the metric axioms and lemmas")
    p.add_argument("--seed", type=int, default=0, metavar="U64")
    kind = p.add_mutually_exclusive_group()
    kind.add_argument("--exhaustive", action="store_true")
    kind.add_argument("--random", action="store_true")
    p.add_argument("--alphabet", type=int, default=2, metavar="K")
    p.add_argument("--maxlen", type=int, default=4, metavar="L")
    p.add_argument("--samples", type=int, default=1000, metavar="N")
    tier = p.add_mutually_exclusive_group()
    tier.add_argument("--rational", action="store_true", default=True)
    tier.add_argument(
        "--float", dest="use_float", action="store_true", help="tolerant float tier"
    )
    p.add_argument("--json", action="store_true", help="machine-readable summary")
    p.add_argument("--fixture", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_check)

    return parser


def _validate(args, parser: argparse.ArgumentParser) -> None:
    if not 1 <= getattr(args, "precision", 12) <= 17:
        parser.error("--precision must be between 1 and 17")
    if not 0 <= getattr(args, "seed", 0) < 2 ** 64:
        parser.error("--seed must fit in 64 unsigned bits")
    if getattr(args, "k", 1) < 1:
        parser.error("--k must be positive")
    if getattr(args, "samples", 0) < 0:
        parser.error("--samples must be nonnegative")
    if getattr(args, "alphabet", 1) < 1:
        parser.error("--alphabet must be positive")
    if getattr(args, "maxlen", 0) < 0:
        parser.error("--maxlen must be nonnegative")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(args, parser)
    try:
        return args.func(args)
    except BrokenPipeError:  # an OSError, so it comes first
        # stdout's reader has gone: say nothing, and point stdout at the
        # null device so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO
    except (CliError, CapacityError, IndexFormatError, OSError) as exc:
        print(f"harmdist: {exc}", file=sys.stderr)
        if isinstance(exc, CliError):
            return exc.code
        return EXIT_USAGE if isinstance(exc, CapacityError) else EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
