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
import sys
from pathlib import Path

from .errors import CapacityError, IndexFormatError
from .harmonic import default_table
from .lcs import Interner, SymbolSeq
from .metric import distance, distance_rows, distances

# The planted-bug fixtures of ``propcheck.FIXTURES``, named here so that
# building the parser does not import ``propcheck``.
FIXTURE_NAMES = ("broken-lcs",)

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


def _read_lines(path: str, mode: str) -> list[str] | list[bytes]:
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
        lines.pop()  # trailing newline is optional
    return lines


def _line_seq(line, mode: str, interner: Interner) -> SymbolSeq:
    if mode == "words":
        return interner.seq(line.split())
    return interner.seq(line)


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
    lines = _read_lines(args.input, args.mode)
    interner = Interner()
    seqs = [_line_seq(line, args.mode, interner) for line in lines]
    rows = distance_rows(seqs)
    precision = args.precision
    out = sys.stdout
    out.write("\t".join(str(i) for i in range(len(seqs))) + "\n")
    for i, row in enumerate(rows):
        # cell (i, j) below the diagonal is cell (j, i) of the earlier row j
        cells = [_fmt(rows[j][i - j - 1], precision) for j in range(i)]
        cells.append(_fmt(0.0, precision))
        cells += [_fmt(d, precision) for d in row]
        out.write("\t".join(cells) + "\n")
    return EXIT_OK


def cmd_knn(args) -> int:
    lines = _read_lines(args.corpus, args.mode)
    if not lines:
        raise CliError("corpus is empty", EXIT_USAGE)
    interner = Interner()
    seqs = [_line_seq(line, args.mode, interner) for line in lines]
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
        ds = distances(query, seqs)
        ranked = sorted(zip(ds, range(len(ds))))
        results = [(i, d) for d, i in ranked[: args.k]]

    for rank, (idx, d) in enumerate(results, start=1):
        line = lines[idx]
        text = line.decode("utf-8", "backslashreplace") if isinstance(line, bytes) else line
        print(f"{rank}\t{idx}\t{_fmt(d, args.precision)}\t{text}")
    return EXIT_OK


def cmd_check(args) -> int:
    import json

    from .propcheck import (
        FIXTURES,
        GenConfig,
        VerificationReport,
        all_pairs,
        random_chains,
        random_pairs,
        shrink,
        universe,
        verify_lemma_chain,
        verify_lemma_lcs_triangle,
        verify_lemma_scs,
        verify_metric_axioms,
    )

    seed = args.seed
    mode = "exhaustive" if args.exhaustive else "random"
    config = GenConfig(
        alphabet_size=args.alphabet,
        max_length=args.maxlen,
        sample_count=args.samples,
        seed=seed,
        mode=mode,
    )
    tier = {"rational": not args.use_float, "table": default_table()}
    dist = FIXTURES[args.fixture](**tier) if args.fixture else None
    if mode == "exhaustive":
        strings = universe(config.alphabet_size, config.max_length)
        pairs, pair_seed = (lambda: all_pairs(strings)), None
    else:
        pairs, pair_seed = (lambda: random_pairs(config)), seed
    reports = [
        verify_metric_axioms(config, dist=dist, **tier),
        verify_lemma_scs(pairs(), seed=pair_seed, **tier),
        verify_lemma_lcs_triangle(pairs(), seed=pair_seed, **tier),
        verify_lemma_chain(random_chains(config), seed=seed, **tier),
    ]
    report = VerificationReport([p for rep in reports for p in rep.properties])
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
    p.add_argument("--fixture", choices=FIXTURE_NAMES, help=argparse.SUPPRESS)
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
    except CliError as exc:
        print(f"harmdist: {exc}", file=sys.stderr)
        return exc.code
    except IndexFormatError as exc:
        print(f"harmdist: {exc}", file=sys.stderr)
        return EXIT_IO
    except CapacityError as exc:
        print(f"harmdist: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"harmdist: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
