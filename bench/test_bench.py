"""The benchmark's own test, at tiny sizes.

    python3 -m pytest bench/test_bench.py -q

Every workload runs clean, untraced and traced, and reports the metrics
BENCHMARK.json declares (cold-start and verify add the two check metrics); a corrupted stdout of any command kind is
counted as a failure, so the output checks are not vacuous.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
from harmdist import Interner, distance  # noqa: E402
from workloads import KINDS, WORKLOADS, OutputCheck, make_inputs  # noqa: E402

DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
CHECK_METRICS = {"check_exhaustive_s": "s", "check_random_triples_per_s": "1/s"}


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_clean(name, trace):
    result = run.run_one(WORKLOADS[name].tiny(), seed=3, seconds=0, trace=trace)
    assert result["failures"] == []
    assert result["failed"] == 0 and result["attempted"] > 0
    key = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in DECLARED[key]}
    if not trace and name not in {w["name"] for w in DECLARED["workloads"]}:
        units |= CHECK_METRICS  # cold-start and verify also run the checks
    assert set(result["metrics"]) == set(units)
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == units[metric]
    summary = run.summary(result)
    assert summary["correct"] is True
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}


CORRUPT = {
    "setup": lambda out: out.replace(b"\t", b" ", 1),
    "dist": lambda out: b"1" + out,
    "knn_index": lambda out: out.replace(b"\t", b" ", 1),
    "knn_scan": lambda out: out.replace(b"\t", b" ", 1),
    "matrix": lambda out: out.replace(b"0.000000000000", b"1.000000000000", 1),
    "check_exhaustive": lambda out: out.replace(b'"total_violations": 0', b'"total_violations": 1'),
    "check_random": lambda out: out.replace(b'"total_violations": 0', b'"total_violations": 1'),
}


def test_corrupted_stdout_counts_as_failed(monkeypatch):
    real_spawn = run.spawn

    def corrupting_spawn(kind, idx, argv, work, env):
        op = real_spawn(kind, idx, argv, work, env)
        op.stdout = CORRUPT[kind](op.stdout)
        return op

    monkeypatch.setattr(run, "spawn", corrupting_spawn)
    result = run.run_one(WORKLOADS["cold-start"].tiny(), seed=3, seconds=0, trace=False)
    assert set(result["ops"]) == set(KINDS)
    assert result["failed"] == result["attempted"]
    assert result["failed_frac"] == 1.0
    assert run.summary(result)["correct"] is False


def test_recorded_digest_mismatch_fails():
    w = WORKLOADS["cold-start"].tiny()
    inputs = make_inputs(w, 3)
    interner = Interner()
    a, b = (interner.seq(s) for s in inputs.pairs[0])
    stdout = f"{distance(a, b):.12f}\n".encode()
    assert OutputCheck(w, 3, inputs, None)("dist", 0, 0, stdout) is None
    pinned = OutputCheck(w, 3, inputs, {"dist:0": "0" * 16})
    assert "digest" in pinned("dist", 0, 0, stdout)


def test_tail_is_the_sample_with_ten_beyond_it():
    t = run.timing([float(i) for i in range(1, 31)])
    assert (t["n"], t["tail"], t["tail_pct"]) == (30, 20.0, 66.67)
    small = run.timing([3.0, 1.0, 2.0])
    assert (small["tail"], small["tail_pct"]) == (2.0, 50.0)
