#!/usr/bin/env python3
"""The harmdist benchmark: one command, seeded inputs, checked outputs.

Run from the root of a source checkout:

    python3 bench/run.py --workload short-dense --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 60 --out bench/results/BENCH_1.json
    python3 bench/run.py --record-digests 0-19

With ``--trace 0`` the run drives the real CLI (``python -m harmdist`` with
``src`` on PYTHONPATH) in a closed loop with one client: each command is a
fresh process that starts only after the previous one has exited.  It
reports the end-to-end metrics.  With ``--trace 1`` it makes the separate
traced in-process run of ``layers.py`` and reports the per-layer metrics.

Every command's stdout is checked (see ``workloads.OutputCheck``); a failed
check, a non-zero exit or a timeout counts in ``failed``.  The last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the full result with the
environment, sample counts and percentiles, also written under
``bench/_run/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = BENCH / "_run"
DIGESTS = BENCH / "digests.json"

#: A command still running after this long is killed and counts as failed;
#: its time enters the timings as this value.
OP_TIMEOUT_S = 60.0

#: The timed loop starts no new command after this long, whatever the budget.
LOOP_LIMIT_S = 110.0

#: Samples beyond a tail percentile, at the least.
TAIL_BEYOND = 10

#: The timed loop runs each kind at least this often (once if not named).
MIN_SAMPLES = {"setup": 3}

def child_env() -> dict:
    env = dict(os.environ)
    env.pop("HARMDIST_TABLE_SIZE", None)  # measure the default program
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUTF8"] = "1"  # argv and stdout are UTF-8 whatever the locale
    return env


class Op:
    __slots__ = ("kind", "idx", "wall_s", "code", "stdout", "maxrss_kb", "error")

    def __init__(self, kind, idx, wall_s, code, stdout, maxrss_kb):
        self.kind, self.idx, self.wall_s = kind, idx, wall_s
        self.code, self.stdout, self.maxrss_kb = code, stdout, maxrss_kb
        self.error = None


# Runs one command and reports its wall time, exit code and max RSS.  A child
# started straight from the benchmark would inherit the benchmark's own RSS
# high-water mark in its rusage, because Linux carries it across exec; a
# small interpreter in between keeps the child's figure its own.
_LAUNCHER = """
import os, sys, threading, time
report, timeout, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
t0 = time.perf_counter()
pid = os.posix_spawn(argv[0], argv, os.environ)
timer = threading.Timer(timeout, os.kill, (pid, 9))
timer.start()
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - t0
timer.cancel()
with open(report, "w") as fh:
    fh.write(f"{wall!r} {os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}")
"""


def spawn(kind: str, idx: int, argv: list[str], work: Path, env: dict) -> Op:
    """Run ``python -m harmdist argv`` as a fresh process and wait for it.

    Wall time spans process creation to reaping; max RSS comes from the
    child's own rusage.
    """
    report = work / "report"
    report.unlink(missing_ok=True)
    cmd = [sys.executable, "-I", "-S", "-c", _LAUNCHER, str(report), str(OP_TIMEOUT_S),
           sys.executable, "-m", "harmdist", *argv]
    with open(work / "stdout", "w+b") as out:
        subprocess.run(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.DEVNULL,
                       env=env, cwd=work, timeout=OP_TIMEOUT_S + 30)
        out.seek(0)
        stdout = out.read()
    wall, code, maxrss_kb = report.read_text().split()
    return Op(kind, idx, float(wall), int(code), stdout, int(maxrss_kb))


# ---------------------------------------------------------------------------
# statistics


def timing(samples: list[float]) -> dict:
    """Median, and the highest percentile with TAIL_BEYOND samples beyond it.

    With fewer than 2 * TAIL_BEYOND + 1 samples no percentile at or above
    the median has that many beyond it, and the tail is the median.
    """
    ordered = sorted(samples)
    n = len(ordered)
    out = {"n": n, "p50": statistics.median(ordered), "tail_pct": 50.0}
    out["tail"] = out["p50"]
    if n > 2 * TAIL_BEYOND:
        rank = n - TAIL_BEYOND  # 1-based nearest rank
        out["tail"] = ordered[rank - 1]
        out["tail_pct"] = round(100.0 * rank / n, 2)
    return out


# ---------------------------------------------------------------------------
# environment


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# end-to-end run


def run_e2e(w, seed: int, seconds: float, work: Path, recorded: dict | None) -> dict:
    """Closed loop over fresh CLI processes; returns the result record."""
    from workloads import ROUNDS, OutputCheck, commands, make_inputs, write_files

    inputs = make_inputs(w, seed)
    files = write_files(w, inputs, work)
    cmds = commands(w, inputs, seed, files)
    check = OutputCheck(w, seed, inputs, recorded)
    env = child_env()
    ops: list[Op] = []
    failures: list[str] = []

    def execute(kind: str, idx: int, argv: list[str]) -> Op:
        op = spawn(kind, idx, argv, work, env)
        op.error = check(kind, idx, op.code, op.stdout)
        if op.error is not None:
            failures.append(op.error)
            op.wall_s = max(op.wall_s, OP_TIMEOUT_S)
        ops.append(op)
        return op

    # warm-up, untimed: one dist process brings the interpreter, numpy and
    # the sources into the page cache before the first timed command.
    execute("dist", 0, cmds["dist"][0])

    # timed loop: each kind once, in order, then the kind furthest behind its
    # share of time among those whose median sample still fits in the time
    # left; when none fits, kinds short of MIN_SAMPLES finish.  Set-up is one
    # of the kinds, so its samples spread over the run like the others.  A
    # sample of a kind in ROUNDS is that many consecutive commands (a knn
    # round: one near query, one fresh), and its time is their mean.
    kinds = w.kinds
    spent = dict.fromkeys(kinds, 0.0)
    walls: dict[str, list[float]] = {k: [] for k in kinds}
    start = time.perf_counter()
    while True:
        left = seconds - (time.perf_counter() - start)
        if left < seconds - LOOP_LIMIT_S:
            break
        never = [k for k in kinds if not walls[k]]
        fits = [k for k in kinds
                if walls[k] and statistics.median(walls[k]) * ROUNDS.get(k, 1) <= left]
        short = [k for k in kinds if len(walls[k]) < MIN_SAMPLES.get(k, 1)]
        pool = never or fits or short
        if not pool:
            break
        kind = min(pool, key=lambda k: spent[k] / w.shares[k])
        per = ROUNDS.get(kind, 1)
        first = len(walls[kind]) * per % len(cmds[kind])
        if kind == "setup":
            files["index"].unlink(missing_ok=True)
        done = [execute(kind, i, cmds[kind][i]) for i in range(first, first + per)]
        if kind == "setup" and done[0].error is None and not files["index"].exists():
            done[0].error = "set-up saved no index file"
            failures.append(done[0].error)
            done[0].wall_s = OP_TIMEOUT_S
        wall = statistics.fmean(op.wall_s for op in done)
        walls[kind].append(wall)
        spent[kind] += wall * per

    t = {k: timing(v) for k, v in walls.items() if v}

    def entry(value: float, unit: str, kind: str, stat: str = "p50") -> dict:
        return {"value": value, "unit": unit, "samples": t[kind]["n"],
                "percentile": 50.0 if stat == "p50" else t[kind]["tail_pct"]}

    n_matrix = min(w.matrix_lines, len(inputs.corpus))
    matrix_pairs = n_matrix * (n_matrix - 1) // 2
    metrics = {"setup_s": entry(t["setup"]["p50"], "s", "setup")}
    for kind in ("dist", "knn_index", "knn_scan"):
        metrics[f"{kind}_p50_s"] = entry(t[kind]["p50"], "s", kind)
        metrics[f"{kind}_tail_s"] = entry(t[kind]["tail"], "s", kind, "tail")
    metrics["matrix_pairs_per_s"] = entry(matrix_pairs / t["matrix"]["p50"], "1/s", "matrix")
    if "check_exhaustive" in t:
        metrics["check_exhaustive_s"] = entry(
            t["check_exhaustive"]["p50"], "s", "check_exhaustive")
    if "check_random" in t:
        metrics["check_random_triples_per_s"] = entry(
            w.random_check[2] / t["check_random"]["p50"], "1/s", "check_random")
    metrics["peak_rss_mb"] = {"value": max(op.maxrss_kb for op in ops) / 1024.0,
                              "unit": "MB", "samples": len(ops)}
    failed = sum(op.error is not None for op in ops)
    return {
        "metrics": metrics,
        "attempted": len(ops),
        "failed": failed,
        "failed_frac": failed / len(ops),
        "failures": failures[:20],
        "measured_s": time.perf_counter() - start,
        "matrix_pairs": matrix_pairs,
        "random_triples": w.random_check[2],
        "ops": {
            k: {"samples": len(v), "commands_per_sample": ROUNDS.get(k, 1), "walls_s": v}
            for k, v in walls.items()
        },
        "digests_checked": check.digests_checked,
    }


# ---------------------------------------------------------------------------
# command line


def load_digests() -> dict:
    try:
        return json.loads(DIGESTS.read_text())
    except FileNotFoundError:
        return {}


def run_one(w, seed: int, seconds: float, trace: bool) -> dict:
    """One measured run of one workload; the full result record."""
    RUN_DIR.mkdir(exist_ok=True)
    work = RUN_DIR / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    recorded = load_digests().get(w.name, {}).get(str(seed))
    load_before = os.getloadavg()
    try:
        if trace:
            from layers import run_layers

            body = run_layers(w, seed, work, recorded, RUN_DIR)
        else:
            body = run_e2e(w, seed, seconds, work, recorded)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "workload": w.name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "closed_loop_clients": 1,
        "environment": environment(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "digests_recorded": recorded is not None,
        **body,
    }


def summary(result: dict) -> dict:
    """The last line of stdout: correct, attempted, failed and the metrics."""
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in result["metrics"].items()
        },
    }


def print_table(result: dict) -> None:
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"failed_frac={result['failed_frac']:.4f}")
    for name, m in result["metrics"].items():
        extra = ""
        if "samples" in m:
            extra = f"  (n={m['samples']}"
            if "percentile" in m:
                extra += f", p{m['percentile']:g}"
            extra += ")"
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}{extra}")
    for line in result.get("failures", []):
        print(f"FAILED: {line}")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record_digests(seeds: list[int]) -> int:
    """Record the stdout digest of every command for the given seeds.

    The commands run in-process through ``cli.main``; each stdout is first
    checked against the oracles, so only verified output is recorded.
    """
    from layers import cli_stdout
    from workloads import WORKLOADS, OutputCheck, commands, digest, make_inputs, write_files

    table = load_digests()
    RUN_DIR.mkdir(exist_ok=True)
    work = RUN_DIR / f"record-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    bad = 0
    try:
        for w in WORKLOADS.values():
            for seed in seeds:
                inputs = make_inputs(w, seed)
                files = write_files(w, inputs, work)
                cmds = commands(w, inputs, seed, files)
                check = OutputCheck(w, seed, inputs, None)
                files["index"].unlink(missing_ok=True)
                entry = {}
                for kind, argvs in cmds.items():
                    if kind == "setup":  # knn_index:0 builds the index and is checked
                        continue
                    for idx, argv in enumerate(argvs):
                        code, stdout = cli_stdout(argv)
                        error = check(kind, idx, code, stdout)
                        if error:
                            print(f"{w.name} seed {seed}: {error}", file=sys.stderr)
                            bad += 1
                        entry[f"{kind}:{idx}"] = digest(stdout)
                table.setdefault(w.name, {})[str(seed)] = entry
                print(f"recorded {w.name} seed {seed}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if bad:
        return 1
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: write the results here")
    parser.add_argument("--record-digests", metavar="SEEDS",
                        help="record stdout digests for seeds like 0-19 and exit")
    args = parser.parse_args(argv)

    if not (SRC / "harmdist" / "__init__.py").is_file():
        print(f"bench: no harmdist sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("HARMDIST_TABLE_SIZE", None)
    from workloads import WORKLOADS

    if args.record_digests:
        return record_digests(parse_seeds(args.record_digests))
    if args.workload == "all":
        results = []
        for w in WORKLOADS.values():
            for trace in (False, True):
                result = run_one(w, args.seed, args.seconds, trace)
                print_table(result)
                results.append(result)
        if args.out:
            Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
        failed = sum(r["failed"] for r in results)
        print(json.dumps({"correct": failed == 0,
                          "attempted": sum(r["attempted"] for r in results),
                          "failed": failed}))
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")

    result = run_one(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    RUN_DIR.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RUN_DIR / name).write_text(json.dumps(result, indent=1) + "\n")
    print_table(result)
    print(json.dumps(result))
    print(json.dumps(summary(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
