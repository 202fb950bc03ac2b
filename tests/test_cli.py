import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import (
    BAD_INDEXES_OF_12,
    V1_INDEX_OF_12,
    V2_INDEX_OF_12,
    V3_INDEX_OF_12,
    V4_INDEX_OF_12,
    hvpt_bytes,
    interned,
)

PKG = [sys.executable, "-m", "harmdist"]
DATA = Path(__file__).parent / "data"


def run(*args, env_extra=None, raw_args=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    argv = PKG + (raw_args if raw_args is not None else list(args))
    return subprocess.run(argv, capture_output=True, env=env)


def out(result):
    return result.stdout.decode()


# -- dist ------------------------------------------------------------------------


def test_dist_identical():
    r = run("dist", "abc", "abc")
    assert r.returncode == 0
    assert out(r) == "0.000000000000\n"


def test_dist_leaves_numpy_unloaded():
    # numpy is imported only by the dp oracle
    probe = (
        "import sys; from harmdist import cli; "
        "assert cli.main(['dist', 'abc', 'abd']) == 0; "
        "print('numpy' in sys.modules); "
        "import harmdist; i = harmdist.Interner(); "
        "print('%.12f' % harmdist.distance(i.seq('abc'), i.seq('abd'), engine='dp')); "
        "print('numpy' in sys.modules)"
    )
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True)
    assert r.returncode == 0, r.stderr
    assert out(r) == "0.500000000000\nFalse\n0.500000000000\nTrue\n"


def test_every_command_runs_without_numpy(tmp_path):
    # numpy comes with the test extra alone: with it blocked, the package
    # and every public name import, every command runs, and only the dp
    # oracle fails, with an error that names the extra
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("acgt\nacca\ngatt\n")
    c, index = str(corpus), str(tmp_path / "corpus.hvpt")
    commands = [
        ["dist", "abc", "abd"],
        ["matrix", c],
        ["knn", c, "acg", "--k", "2"],
        ["knn", c, "acg", "--k", "2", "--index", index],  # builds the index
        ["knn", c, "acg", "--k", "2", "--index", index],  # loads it
        ["check", "--exhaustive", "--alphabet", "2", "--maxlen", "3"],
        ["check", "--random", "--float", "--samples", "20", "--json"],
    ]
    probe = (
        "import sys; sys.modules['numpy'] = None\n"
        "import harmdist\n"
        "from harmdist import *\n"
        "from harmdist import cli\n"
        f"codes = [cli.main(argv) for argv in {commands!r}]\n"
        "i = harmdist.Interner()\n"
        "try:\n"
        "    harmdist.distance(i.seq('ab'), i.seq('ba'), engine='dp')\n"
        "except ImportError as exc:\n"
        "    print(codes, exc)\n"
    )
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True)
    assert r.returncode == 0, r.stderr
    assert out(r).splitlines()[-1] == (
        "[0, 0, 0, 0, 0, 0, 0] the dp engine needs numpy, which the 'test' extra "
        "installs: pip install 'harmdist[test]'"
    )


def test_dist_and_knn_load_only_what_they_run(tmp_path):
    # propcheck only for check, vpindex only under --index, fractions only
    # for exact values, numpy only for the dp oracle
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("acgt\nacca\ngatt\n")
    probe = (
        "import sys; from harmdist import cli; "
        "assert cli.main(['dist', 'abc', 'abd']) == 0; "
        f"assert cli.main(['knn', {str(corpus)!r}, 'acg', '--k', '2']) == 0; "
        "print(sorted(m for m in ('harmdist.propcheck', 'harmdist.vpindex', "
        "'fractions', 'numpy', 'dataclasses') if m in sys.modules))"
    )
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True)
    assert r.returncode == 0, r.stderr
    assert out(r).splitlines()[-1] == "[]"


def test_knn_index_leaves_dataclasses_unloaded(tmp_path):
    # the first run builds and saves the index, the second loads it
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("acgt\nacca\ngatt\n")
    index = tmp_path / "corpus.hvpt"
    probe = (
        "import sys; from harmdist import cli; "
        f"assert cli.main(['knn', {str(corpus)!r}, 'acg', '--k', '2', "
        f"'--index', {str(index)!r}]) == 0; "
        "print(sorted(m for m in ('harmdist.propcheck', 'fractions', 'numpy', "
        "'dataclasses') if m in sys.modules))"
    )
    for built in (False, True):
        assert index.exists() == built
        r = subprocess.run([sys.executable, "-c", probe], capture_output=True)
        assert r.returncode == 0, r.stderr
        assert out(r).splitlines()[-1] == "[]"


def test_every_public_name_resolves():
    probe = (
        "import sys, harmdist; "
        "assert not any(m in sys.modules for m in ('harmdist.propcheck', "
        "'harmdist.vpindex', 'fractions')); "
        "missing = [n for n in harmdist.__all__ if not hasattr(harmdist, n)]; "
        "from harmdist import *; "
        "print(len(harmdist.__all__), missing, callable(harmdist.harmonic), "
        "harmdist.vpindex.__name__)"
    )
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True)
    assert r.returncode == 0, r.stderr
    assert out(r) == "36 [] True harmdist.vpindex\n"


def test_dist_substitution():
    r = run("dist", "abc", "abd")
    assert out(r) == "0.500000000000\n"


def test_dist_empty_versus_two():
    r = run("dist", "", "ab")
    assert out(r) == "1.500000000000\n"


def test_dist_precision_flag():
    r = run("dist", "abc", "abd", "--precision", "3")
    assert out(r) == "0.500\n"
    r = run("dist", "abc", "abd", "--precision", "0")
    assert r.returncode == 1


def test_dist_words_mode():
    # two-word sentences differing in one word: 2 * (H_3 - H_2) = 2/3
    r = run("dist", "hello world", "hello there", "--mode", "words")
    assert out(r) == "0.666666666667\n"


def test_dist_bytes_mode_accepts_invalid_utf8():
    r = run(raw_args=[b"dist", b"\xff\xfe", b"\xff\xfe", b"--mode", b"bytes"])
    assert r.returncode == 0
    assert out(r) == "0.000000000000\n"


def test_dist_codepoints_mode_rejects_invalid_utf8():
    r = run(raw_args=[b"dist", b"\xff", b"a", b"--mode", b"codepoints"])
    assert r.returncode == 2
    assert b"UTF-8" in r.stderr


def test_dist_ignores_table_size_env_var():
    # the harmonic table's size is fixed; the variable that once set it
    # is ignored
    pair = ("dist", "", "a" * 5000)
    garbage = run(*pair, env_extra={"HARMDIST_TABLE_SIZE": "abc"})
    assert garbage.returncode == 0
    assert garbage.stdout == run(*pair).stdout != b""
    assert b"Traceback" not in garbage.stderr


# -- matrix ----------------------------------------------------------------------


def test_matrix_single_line(tmp_path):
    path = tmp_path / "one.txt"
    path.write_text("abc\n")
    r = run("matrix", str(path))
    assert out(r) == "0\n0.000000000000\n"


def test_matrix_two_lines(tmp_path):
    path = tmp_path / "two.txt"
    path.write_text("a\nb\n")
    r = run("matrix", str(path))
    lines = out(r).splitlines()
    assert lines[0] == "0\t1"
    assert lines[1] == "0.000000000000\t1.000000000000"
    assert lines[2] == "1.000000000000\t0.000000000000"


def test_matrix_duplicate_lines_give_equal_rows(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("abc\nabd\nabc\n")
    lines = out(run("matrix", str(path))).splitlines()
    assert lines[1] == lines[3]


def test_matrix_entry_matches_dist_formatting(tmp_path):
    path = tmp_path / "pair.txt"
    path.write_text("abc\nabd\n")
    matrix = out(run("matrix", str(path))).splitlines()
    entry = matrix[1].split("\t")[1]
    assert entry == out(run("dist", "abc", "abd")).strip()


def test_matrix_empty_lines_are_empty_strings(tmp_path):
    path = tmp_path / "gaps.txt"
    path.write_text("\nab\n")
    lines = out(run("matrix", str(path))).splitlines()
    assert lines[1].split("\t")[1] == "1.500000000000"


def test_matrix_is_deterministic(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("abc\nabd\nxy\n\nabcd\n")
    assert run("matrix", str(path)).stdout == run("matrix", str(path)).stdout


def test_matrix_unreadable_file():
    r = run("matrix", "/does/not/exist.txt")
    assert r.returncode == 2


# -- knn -------------------------------------------------------------------------


@pytest.fixture()
def corpus_file(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("apple\napricot\nbanana\ncherry\napple\n")
    return path


def test_knn_exact_match_first(corpus_file):
    r = run("knn", str(corpus_file), "apple", "--k", "1")
    rank, idx, dist, text = out(r).strip().split("\t")
    assert (rank, idx, dist, text) == ("1", "0", "0.000000000000", "apple")


def test_knn_k_beyond_corpus_lists_everything(corpus_file):
    r = run("knn", str(corpus_file), "apple", "--k", "100")
    lines = out(r).splitlines()
    assert len(lines) == 5
    dists = [line.split("\t")[2] for line in lines]
    assert dists == sorted(dists)


def test_knn_with_and_without_index_agree(corpus_file, tmp_path):
    index = str(tmp_path / "corpus.hvpt")
    query = ("knn", str(corpus_file), "apricots", "--k", "3")
    indexed = run(*query, "--index", index)
    linear = run(*query, "--no-index")
    assert indexed.stdout == linear.stdout == run(*query).stdout


def _acgt_lines(n, seed):
    rng = random.Random(seed)
    return ["".join(rng.choice("acgt") for _ in range(rng.randint(8, 64))) for _ in range(n)]


def _word_lines(n, seed):
    # 600 distinct words, so ids run well past 255
    rng = random.Random(seed)
    words = [f"w{i}" for i in range(600)]
    return [" ".join(rng.choice(words) for _ in range(rng.randint(1, 12))) for _ in range(n)]


def _wide_lines(n, seed):
    # 300 code points from U+0100 and 100-400 of them a line: ids run past
    # 255, so nothing packs
    rng = random.Random(seed)
    return [
        "".join(chr(0x100 + rng.randrange(300)) for _ in range(rng.randint(100, 400)))
        for _ in range(n)
    ]


def _sparse_lines(n, seed):
    # 200 code points and 100-400 of them a line, as in the benchmark's
    # long-sparse corpus: ids stay below 256, so every call packs, and a
    # line has many distinct symbols
    rng = random.Random(seed)
    return [
        "".join(chr(0x100 + rng.randrange(200)) for _ in range(rng.randint(100, 400)))
        for _ in range(n)
    ]


def _edge_lines(n, seed):
    # 254 code points from U+0100 in the first half; the second half adds
    # NUL, U+FFFE, an astral code point and U+4E00, so that the 256th
    # symbol arrives late and the map of the codec cannot hold the rest
    rng = random.Random(seed)
    early = [chr(0x100 + i) for i in range(254)]
    late = early + ["\0", "\ufffe", "\U0001f600", "\u4e00"]
    alphabets = [early] * (n // 2) + [late] * (n - n // 2)
    return [
        "".join(rng.choice(symbols) for _ in range(rng.randint(20, 80)))
        for symbols in alphabets
    ]


@pytest.mark.parametrize(
    "lines, mode, query",
    [
        (_acgt_lines(2_000, 1), "codepoints", "acgtacgtaacctgca"),
        (_word_lines(400, 2), "words", "w1 w300 w599 w2 w450"),
        (_wide_lines(400, 3), "codepoints", _wide_lines(1, 4)[0]),
        (_sparse_lines(400, 10), "codepoints", _sparse_lines(1, 11)[0]),
        (_edge_lines(400, 12), "codepoints", "\u0101\ufffe\u0105\U0001f600\u4e00"),
    ],
    ids=["acgt-2000", "words-600", "wide-400", "sparse-400", "edge-code-points"],
)
def test_knn_stdout_is_the_same_under_every_engine(lines, mode, query, tmp_path):
    # plain, building the index and loading it, knn prints the ranking of a
    # full scan under the huntszymanski oracle; the index it saves is the
    # one built in process with seed 0
    from harmdist import VpTree, distance

    corpus = tmp_path / "corpus.txt"
    corpus.write_text("\n".join(lines) + "\n")
    index = tmp_path / "corpus.hvpt"
    base = ("knn", str(corpus), query, "--k", "15", "--mode", mode)
    plain = run(*base)
    built = run(*base, "--index", str(index))
    loaded = run(*base, "--index", str(index))
    assert plain.returncode == built.returncode == loaded.returncode == 0
    *seqs, q = interned([*lines, query], mode)
    ranked = sorted((distance(q, s, engine="huntszymanski"), i) for i, s in enumerate(seqs))
    oracle = "".join(
        f"{rank}\t{i}\t{d:.12f}\t{lines[i]}\n"
        for rank, (d, i) in enumerate(ranked[:15], start=1)
    )
    assert plain.stdout == built.stdout == loaded.stdout == oracle.encode("utf-8")
    VpTree.build(seqs, 0).save(tmp_path / "oracle.hvpt")
    assert index.read_bytes() == (tmp_path / "oracle.hvpt").read_bytes()


@pytest.mark.parametrize(
    "lines, mode",
    [
        (_acgt_lines(2_000, 1)[:150], "codepoints"),
        (_word_lines(400, 2), "words"),
        pytest.param(_wide_lines(400, 3), "codepoints", marks=pytest.mark.slow),
        (_sparse_lines(150, 8), "codepoints"),
        (_edge_lines(150, 13), "codepoints"),
    ],
    ids=["acgt-150", "words-600", "wide-400", "sparse-150", "edge-code-points"],
)
def test_matrix_stdout_is_the_same_under_every_engine(lines, mode, tmp_path):
    # matrix prints the distances of the huntszymanski oracle, each pair
    # computed once and written to both halves
    from harmdist import distance

    corpus = tmp_path / "corpus.txt"
    corpus.write_text("\n".join(lines) + "\n")
    r = run("matrix", str(corpus), "--mode", mode)
    assert r.returncode == 0
    seqs = interned(lines, mode)
    n = len(seqs)
    grid = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            grid[i][j] = grid[j][i] = distance(seqs[i], seqs[j], engine="huntszymanski")
    rows = ["\t".join(map(str, range(n)))]
    rows += ["\t".join(f"{d:.12f}" for d in row) for row in grid]
    assert r.stdout == "".join(row + "\n" for row in rows).encode("utf-8")
    assert len(r.stdout.splitlines()) == len(lines) + 1


@pytest.mark.parametrize(
    "lines, calls",
    [(_acgt_lines(12, 5), 1), (_sparse_lines(40, 9), 1), (_wide_lines(12, 6), 0)],
    ids=["acgt-auto", "sparse-auto", "wide-auto"],
)
def test_matrix_takes_each_row_in_one_call(
    lines, calls, mask_calls, packed_calls, profile_calls, tmp_path, capsys
):
    # With ids below 256, matrix packs the slice once and runs each row
    # over the lanes after its own line, every row sharing one table of
    # masks (on acgt and on the sparse lines alike); with an id
    # of 256 or more each row goes to lcs_lens, which runs these wide
    # rows' profiles over the lines after them.
    from harmdist import cli
    from harmdist.lcs import _lane

    corpus = tmp_path / "corpus.txt"
    corpus.write_text("\n".join(lines) + "\n")
    assert cli.main(["matrix", str(corpus)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == len(lines) + 1
    seqs = interned(lines)
    rows = list(range(len(lines) - 1, 0, -1))
    assert (packed_calls, profile_calls) == ((rows, []) if calls else ([], rows))
    assert len(mask_calls) == calls
    # the part masks are built from the whole slice and stay within the
    # budget of 8 bytes a symbol; the rows' table adds one mask per
    # distinct symbol on top of them
    for text, _, held in mask_calls:
        assert text == b"".join(map(_lane, seqs))
        assert held <= 8 * sum(map(len, seqs))


def test_matrix_into_a_closed_pipe_exits_quietly(tmp_path):
    # the reader takes one line of a 1.3 MB matrix and goes away: matrix
    # exits with code 2 and writes nothing to stderr, neither a message
    # nor a traceback from the flush at exit
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("\n".join(_acgt_lines(300, 3)) + "\n")
    proc = subprocess.Popen(
        PKG + ["matrix", str(corpus)], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    assert proc.stdout.readline() == ("\t".join(map(str, range(300))) + "\n").encode()
    proc.stdout.close()
    assert proc.stderr.read() == b""
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2


def test_knn_index_file_roundtrip(corpus_file, tmp_path):
    index = tmp_path / "corpus.hvpt"
    first = run("knn", str(corpus_file), "cherry", "--k", "2", "--index", str(index))
    assert first.returncode == 0
    assert index.exists()
    second = run("knn", str(corpus_file), "cherry", "--k", "2", "--index", str(index))
    assert second.stdout == first.stdout


def test_knn_index_in_a_missing_directory_names_its_path(corpus_file, tmp_path):
    # the error names PATH, not the temporary file written beside it, and
    # nothing is left behind
    index = tmp_path / "no" / "such" / "x.hvpt"
    r = run("knn", str(corpus_file), "cherry", "--index", str(index))
    assert r.returncode == 2 and r.stdout == b""
    message = f"harmdist: [Errno 2] No such file or directory: '{index}'\n"
    assert r.stderr.decode() == message
    assert list(tmp_path.iterdir()) == [corpus_file]


def test_knn_corrupt_index_file(corpus_file, tmp_path):
    index = tmp_path / "bad.hvpt"
    index.write_bytes(b"garbage bytes")
    r = run("knn", str(corpus_file), "cherry", "--index", str(index))
    assert r.returncode == 2


def assert_rejected(r):
    assert r.returncode == 2
    assert r.stdout == b""
    assert b"Traceback" not in r.stderr


@pytest.mark.parametrize("case", sorted(BAD_INDEXES_OF_12))
def test_knn_rejects_index_that_does_not_partition_the_corpus(tmp_path, case):
    lines = [f"line{i}" for i in range(12)]
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("".join(f"{line}\n" for line in lines))
    index = tmp_path / "bad.hvpt"
    arrays, defect = BAD_INDEXES_OF_12[case]
    index.write_bytes(hvpt_bytes(interned(lines), *arrays))
    r = run("knn", str(corpus), "line3", "--k", "3", "--index", str(index))
    assert_rejected(r)
    assert defect.encode() in r.stderr


def test_knn_rejects_a_version_1_index(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("".join(f"line{i}\n" for i in range(12)))
    index = tmp_path / "v1.hvpt"
    index.write_bytes(V1_INDEX_OF_12)
    r = run("knn", str(corpus), "line3", "--index", str(index))
    assert_rejected(r)
    assert b"delete the file" in r.stderr


def test_knn_rejects_a_version_2_index(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("".join(f"line{i}\n" for i in range(12)))
    index = tmp_path / "v2.hvpt"
    index.write_bytes(V2_INDEX_OF_12)
    r = run("knn", str(corpus), "line3", "--index", str(index))
    assert_rejected(r)
    assert b"version 2" in r.stderr


def test_knn_rejects_a_version_3_index(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("".join(f"line{i}\n" for i in range(12)))
    index = tmp_path / "v3.hvpt"
    index.write_bytes(V3_INDEX_OF_12)
    r = run("knn", str(corpus), "line3", "--index", str(index))
    assert_rejected(r)
    assert b"version 3" in r.stderr
    assert b"delete the file so that it is rebuilt" in r.stderr


def test_knn_rejects_a_version_4_index(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("".join(f"line{i}\n" for i in range(12)))
    index = tmp_path / "v4.hvpt"
    index.write_bytes(V4_INDEX_OF_12)
    r = run("knn", str(corpus), "line3", "--index", str(index))
    assert_rejected(r)
    assert b"version 4" in r.stderr
    assert b"delete the file so that it is rebuilt" in r.stderr


def test_knn_rejects_an_index_whose_radii_are_zeroed(tmp_path):
    # a finite but wrong radius would prune the query's own line away
    rng = random.Random(4)
    lines = ["".join(rng.choices("acgt", k=rng.randint(4, 24))) for _ in range(200)]
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("".join(f"{line}\n" for line in lines))
    index = tmp_path / "corpus.hvpt"
    query = ("knn", str(corpus), lines[17], "--k", "3", "--index", str(index))
    assert run(*query).returncode == 0
    data = index.read_bytes()
    index.write_bytes(data[: -8 * len(lines)] + bytes(8 * len(lines)))
    assert_rejected(run(*query))


def test_knn_rejects_an_index_of_an_edited_corpus(tmp_path):
    rng = random.Random(4)
    lines = ["".join(rng.choices("acgt", k=rng.randint(4, 24))) for _ in range(200)]
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("".join(f"{line}\n" for line in lines))
    index = str(tmp_path / "corpus.hvpt")
    query = "acgtacgtacgtacgt"
    assert run("knn", str(corpus), query, "--index", index).returncode == 0
    lines[57] = query  # the line count stays
    corpus.write_text("".join(f"{line}\n" for line in lines))
    assert_rejected(run("knn", str(corpus), query, "--index", index))


def test_knn_rejects_an_index_built_under_another_mode(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("ab cd\ncd ab\nab ab ab\ncd\n")
    index = str(tmp_path / "corpus.hvpt")
    assert run("knn", str(corpus), "ab cd", "--index", index).returncode == 0
    words = run("knn", str(corpus), "ab cd", "--mode", "words", "--index", index)
    assert_rejected(words)


def test_knn_empty_corpus(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    r = run("knn", str(path), "query")
    assert r.returncode == 1


#: flags that a subcommand does not read, and so does not accept
UNREAD_FLAGS = {
    "check-mode": ("check", "--mode", "bytes"),
    "check-precision": ("check", "--precision", "3"),
    "check-engine": ("check", "--engine", "dp"),
    "dist-engine": ("dist", "a", "b", "--engine", "dp"),
    "dist-seed": ("dist", "a", "b", "--seed", "1"),
    "knn-engine": ("knn", "corpus.txt", "a", "--engine", "dp"),
    "knn-seed": ("knn", "corpus.txt", "a", "--seed", "1"),
    "matrix-engine": ("matrix", "corpus.txt", "--engine", "dp"),
    "matrix-seed": ("matrix", "corpus.txt", "--seed", "1"),
}


@pytest.mark.parametrize("case", sorted(UNREAD_FLAGS))
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(case):
    r = run(*UNREAD_FLAGS[case])
    assert r.returncode == 1
    assert r.stdout == b""
    assert b"unrecognized arguments" in r.stderr


# -- check -----------------------------------------------------------------------


def test_check_exhaustive_rational_clean():
    r = run(
        "check", "--exhaustive", "--alphabet", "2", "--maxlen", "3", "--rational"
    )
    assert r.returncode == 0
    text = out(r)
    assert "triangle: checked=3375 violations=0" in text


def test_check_random_zero_samples_vacuous():
    r = run("check", "--random", "--samples", "0")
    assert r.returncode == 0


def test_check_float_tier():
    r = run(
        "check", "--random", "--samples", "200", "--seed", "3",
        "--alphabet", "6", "--maxlen", "24", "--float",
    )
    assert r.returncode == 0


def test_check_json_output():
    r = run(
        "check", "--exhaustive", "--alphabet", "2", "--maxlen", "2", "--json"
    )
    payload = json.loads(out(r))
    assert payload["total_violations"] == 0
    names = {p["property"] for p in payload["properties"]}
    assert {"symmetry", "identity", "triangle", "lemma_scs"} <= names


def test_check_fixture_exits_three_with_counterexample():
    r = run(
        "check", "--exhaustive", "--alphabet", "2", "--maxlen", "4",
        "--rational", "--fixture", "broken-lcs",
    )
    assert r.returncode == 3
    assert "counterexample property=identity" in out(r)


def test_check_unknown_fixture_is_a_usage_error_naming_the_known_ones():
    r = run("check", "--fixture", "no-such-fixture")
    assert r.returncode == 1
    assert r.stdout == b""
    assert b"broken-lcs" in r.stderr
    assert b"Traceback" not in r.stderr


@pytest.mark.parametrize("tier", ["--rational", "--float"])
def test_check_reports_and_shrinks_a_batched_kernel_bug(tier):
    # one match dropped from the first lane of each packed row: only the
    # upper triangle, from lcs_rows, sees it, and the counterexamples it
    # gives still violate when shrinking re-checks them
    probe = (
        "import sys; from harmdist import cli, lcs; "
        "decode = lcs._packed_decode; "
        "lcs._packed_decode = lambda *a: "
        "(lambda first, *rest: [max(first - 1, 0), *rest])(*decode(*a)); "
        "sys.exit(cli.main(['check', '--exhaustive', '--alphabet', '2', "
        f"'--maxlen', '3', '{tier}']))"
    )
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True)
    assert r.returncode == 3, r.stderr
    assert b"Traceback" not in r.stderr
    text = out(r)
    assert "symmetry: checked=105 violations=10 " in text
    assert "triangle: checked=3375 violations=26 " in text
    assert "counterexample property=symmetry " in text
    assert "counterexample property=triangle " in text


@pytest.mark.slow
def test_check_fixture_over_mixed_id_widths_reports_counterexamples():
    # over 300 symbols the universe holds byte ids (below 256) and tuple
    # ids (256 or more), and the counterexamples are sorted across both
    r = run(
        "check", "--exhaustive", "--alphabet", "300", "--maxlen", "1",
        "--fixture", "broken-lcs", "--float",
    )
    assert r.returncode == 3
    assert "counterexample property=identity" in out(r)
    assert b"Traceback" not in r.stderr


def test_check_infeasible_universe():
    r = run("check", "--exhaustive", "--alphabet", "26", "--maxlen", "4")
    assert r.returncode == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--alphabet", "0"),
        ("check", "--maxlen", "-1"),
        ("check", "--random", "--alphabet", "0"),
        ("check", "--random", "--maxlen", "-1"),
    ],
    ids=["alphabet-0", "maxlen-minus-1", "random-alphabet-0", "random-maxlen-minus-1"],
)
def test_check_out_of_range_universe_is_a_usage_error(argv):
    r = run(*argv)
    assert r.returncode == 1
    assert r.stdout == b""
    assert b"Traceback" not in r.stderr
    assert b"must be" in r.stderr


def test_check_is_deterministic():
    args = ("check", "--random", "--samples", "150", "--seed", "77", "--maxlen", "20")
    assert run(*args).stdout == run(*args).stdout


#: check commands whose stdout and exit code are pinned byte for byte;
#: the expected stdout is ``data/check-<name>.out``
PINNED_CHECKS = {
    "exhaustive-rational-json": (
        "check --exhaustive --rational --alphabet 2 --maxlen 5 --json", 0
    ),
    "random-float-json": (
        "check --random --float --alphabet 2 --maxlen 64 --samples 300 --seed 3 --json",
        0,
    ),
    "exhaustive-float": ("check --exhaustive --float --alphabet 3 --maxlen 3", 0),
    "random-rational": (
        "check --random --alphabet 8 --maxlen 16 --samples 200 --seed 5", 0
    ),
    "fixture-exhaustive": (
        "check --fixture broken-lcs --exhaustive --alphabet 2 --maxlen 4", 3
    ),
    "fixture-random-float": (
        "check --fixture broken-lcs --random --float --alphabet 3 --maxlen 12 "
        "--samples 500 --seed 1",
        3,
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_CHECKS))
def test_check_stdout_is_pinned(name):
    command, code = PINNED_CHECKS[name]
    r = run(*command.split())
    assert r.returncode == code
    assert r.stdout == (DATA / f"check-{name}.out").read_bytes()
