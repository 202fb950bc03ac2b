"""Per-layer metrics from a traced in-process run.

The layers are harmdist's modules: harmonic, lcs, metric, vpindex,
propcheck and cli.  Each layer is timed through its public functions on the
workload's own inputs, every timed call sitting inside a span.  Then each
CLI command of the workload runs in-process through ``cli.main`` with every
public function and method of every layer wrapped, so that each call
records a span (name, start, end, parent and the id of the operation it
belongs to).  Self time per layer comes from those spans.  The workload's
primary command runs untraced and traced in turn, and the median of the
paired differences is the tracing overhead.  Spans stay in memory and are
written out, gzipped, at the end.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gzip
import importlib
import inspect
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import harmdist
from harmdist import (
    GenConfig,
    Interner,
    VpTree,
    default_table,
    distance,
    harmonic_diff,
    harmonic_exact,
    lcs_len,
    universe,
    verify_lemma_chain,
    verify_lemma_lcs_triangle,
    verify_lemma_scs,
    verify_metric_axioms,
)
from harmdist.propcheck import all_pairs, random_chains, random_pairs

# by module path: the package re-exports a function named ``harmonic``
LAYERS = tuple(
    importlib.import_module(f"harmdist.{name}")
    for name in ("harmonic", "lcs", "metric", "vpindex", "propcheck", "cli")
)
ENGINES = ("auto", "dp", "bitparallel", "huntszymanski")
MICRO_REPS = 5


class Tracer:
    """Spans in parallel arrays; a span's id is its position."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.ops: list[str] = []  # operation id -> label
        self.op = -1
        self.span_op = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]

    def begin_op(self, label: str) -> int:
        self.ops.append(label)
        self.op = len(self.ops) - 1
        return self.op

    def _open(self, label: str) -> int:
        nid = self._name_ids.setdefault(label, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(label)
        sid = len(self.start)
        self.span_op.append(self.op)
        self.parent.append(self._stack[-1])
        self.name.append(nid)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, label: str):
        sid = self._open(label)
        try:
            yield
        finally:
            self._close(sid)

    def duration_s(self, label: str) -> float:
        """Duration of the last span with this label."""
        nid = self._name_ids[label]
        for sid in range(len(self.name) - 1, -1, -1):
            if self.name[sid] == nid:
                return (self.end[sid] - self.start[sid]) / 1e9
        raise KeyError(label)

    def wrap(self, label: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._open(label)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", label)
        return traced

    def self_s_by_layer(self, ops: set[int]) -> dict[str, float]:
        """Span duration minus the part its child spans cover, per layer."""
        n = len(self.start)
        child = [0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        layer_of = [label.split(".", 1)[0] for label in self.names]
        totals: dict[str, int] = defaultdict(int)
        for sid in range(n):
            if self.span_op[sid] in ops:
                dur = self.end[sid] - self.start[sid]
                totals[layer_of[self.name[sid]]] += dur - child[sid]
        return {layer: ns / 1e9 for layer, ns in totals.items()}

    def dump(self, path: Path, meta: dict) -> None:
        spans = [
            [self.span_op[i], self.parent[i], self.name[i], self.start[i], self.end[i]]
            for i in range(len(self.start))
        ]
        doc = {**meta, "names": self.names, "ops": self.ops,
               "span_fields": ["op", "parent", "name", "start_ns", "end_ns"],
               "spans": spans}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


@contextlib.contextmanager
def traced_layers(tracer: Tracer):
    """Wrap every public function and method of every layer in a span.

    Functions are rebound wherever a harmdist module imported them by name;
    everything is restored on exit.
    """
    undo = []
    wrapped = {}
    for mod in LAYERS:
        layer = mod.__name__.rsplit(".", 1)[1]
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[id(obj)] = tracer.wrap(f"{layer}.{name}", obj)
            elif inspect.isclass(obj):
                for attr, member in list(vars(obj).items()):
                    is_init = attr == "__init__" and not dataclasses.is_dataclass(obj)
                    if attr.startswith("_") and not is_init:
                        continue
                    label = f"{layer}.{name}.{attr}"
                    if isinstance(member, classmethod):
                        new = classmethod(tracer.wrap(label, member.__func__))
                    elif inspect.isfunction(member):
                        new = tracer.wrap(label, member)
                    else:
                        continue
                    undo.append((obj, attr, member))
                    setattr(obj, attr, new)
    for modname, mod in list(sys.modules.items()):
        if modname != "harmdist" and not modname.startswith("harmdist."):
            continue
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and id(obj) in wrapped:
                undo.append((mod, name, obj))
                setattr(mod, name, wrapped[id(obj)])
    try:
        yield
    finally:
        for target, attr, value in reversed(undo):
            setattr(target, attr, value)


def cli_stdout(argv: list[str]) -> tuple[int, bytes]:
    """``cli.main(argv)`` in-process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = harmdist.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue().encode("utf-8")


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# the traced run


def run_layers(w, seed: int, work: Path, recorded: dict | None, out_dir: Path) -> dict:
    from run import child_env, spawn
    from workloads import K, KINDS, RADIUS, OutputCheck, commands, make_inputs, write_files

    inputs = make_inputs(w, seed)
    files = write_files(w, inputs, work)
    cmds = commands(w, inputs, seed, files)
    check = OutputCheck(w, seed, inputs, recorded)
    tracer = Tracer()
    m: dict[str, tuple[float, str]] = {}
    failures: list[str] = []
    attempted = 0

    def expect(ok: bool, message: str) -> None:
        nonlocal attempted
        attempted += 1
        if not ok:
            failures.append(message)

    def expect_output(kind: str, code: int, stdout: bytes) -> None:
        error = check(kind, 0, code, stdout)
        expect(error is None, error or "")

    # --- cli.import_s, harmonic.table_build_s: fresh interpreters
    probe = (
        "import time; t0 = time.perf_counter(); import harmdist; "
        "t1 = time.perf_counter(); harmdist.HarmonicTable(); "
        "t2 = time.perf_counter(); print(t1 - t0, t2 - t1)"
    )
    env = child_env()
    imports, builds = [], []
    tracer.begin_op("probe")
    for _ in range(w.probes):
        with tracer.span("cli.fresh_interpreter_probe"):
            proc = subprocess.run([sys.executable, "-c", probe], env=env, cwd=work,
                                  capture_output=True, timeout=60)
        expect(proc.returncode == 0, "import probe failed")
        if proc.returncode == 0:
            a, b = proc.stdout.split()
            imports.append(float(a))
            builds.append(float(b))
    m["cli.import_s"] = (statistics.median(imports), "s")
    m["harmonic.table_build_s"] = (statistics.median(builds), "s")

    # --- harmonic
    table = default_table()
    rng = random.Random(f"harmdist-bench-layers:{w.name}:{seed}")
    short = [(lo, lo + rng.randint(1, 64)) for lo in
             (rng.randint(0, w.max_len) for _ in range(2000))]
    long_ = [(lo, lo + rng.randint(65, 65 + 2 * w.max_len)) for lo in
             (rng.randint(0, w.max_len) for _ in range(2000))]
    exact_ns = [rng.randint(0, 2 * w.max_len) for _ in range(2000)]

    def per_call(label, calls, fn):
        tracer.begin_op(label)
        with tracer.span(label):
            return _median_time(lambda: [fn(*c) for c in calls], MICRO_REPS) / len(calls)

    m["harmonic.diff_short_ns"] = (
        per_call("harmonic.harmonic_diff[span<=64]", short,
                 lambda lo, hi: harmonic_diff(table, lo, hi)) * 1e9, "ns")
    m["harmonic.diff_long_ns"] = (
        per_call("harmonic.harmonic_diff[span>64]", long_,
                 lambda lo, hi: harmonic_diff(table, lo, hi)) * 1e9, "ns")
    m["harmonic.exact_us"] = (
        per_call("harmonic.harmonic_exact", [(n,) for n in exact_ns], harmonic_exact) * 1e6,
        "us")

    # --- lcs and metric, on the workload's seeded pair sample
    tracer.begin_op("lcs.intern")
    with tracer.span("lcs.Interner.seq[corpus]"):
        m["lcs.intern_s"] = (_median_time(
            lambda: [Interner().seq(line) for line in inputs.corpus], 3), "s")
    interner = Interner()
    seqs = [interner.seq(line) for line in inputs.corpus]
    pairs = [(seqs[i], seqs[j]) for i, j in inputs.layer_pairs]
    m["lcs.pairs"] = (len(pairs), "count")
    per_engine: dict[str, list[float]] = defaultdict(list)
    tracer.begin_op("lcs.engines")
    for rep in range(3):
        for engine in ENGINES:
            with tracer.span(f"lcs.lcs_len[{engine}]"):
                t0 = time.perf_counter()
                values = [lcs_len(a, b, engine) for a, b in pairs]
                per_engine[engine].append(time.perf_counter() - t0)
            if rep == 0:
                if engine == "auto":
                    reference = values
                expect(values == reference, f"lcs engine {engine} disagrees with auto")
    us = {e: statistics.median(v) / len(pairs) * 1e6 for e, v in per_engine.items()}
    for engine in ENGINES:
        m[f"lcs.{engine}_us_per_pair"] = (us[engine], "us")
    # metric: distance() as the CLI calls it, and distance() with its LCS
    # call answered from a table of the values computed above, which leaves
    # the metric layer's own work (canonical order, lengths, two
    # harmonic_diff lookups) in the time
    metric_mod = LAYERS[2]
    lcs_of = {}
    for (a, b), v in zip(pairs, reference):
        lcs_of[id(a), id(b)] = lcs_of[id(b), id(a)] = v
    tracer.begin_op("metric.distance")
    with tracer.span("metric.distance[pairs]"):
        dist_s = _median_time(lambda: [distance(a, b) for a, b in pairs], 3)
        expected = [distance(a, b) for a, b in pairs]
    m["metric.distance_us_per_pair"] = (dist_s / len(pairs) * 1e6, "us")
    real_lcs_len = metric_mod.lcs_len
    metric_mod.lcs_len = lambda a, b, engine="auto": lcs_of[id(a), id(b)]
    try:
        with tracer.span("metric.distance[pairs, lcs looked up]"):
            own_s = _median_time(lambda: [distance(a, b) for a, b in pairs], 15)
            own = [distance(a, b) for a, b in pairs]
    finally:
        metric_mod.lcs_len = real_lcs_len
    expect(own == expected, "distance with looked-up LCS values differs")
    m["metric.self_us_per_pair"] = (own_s / len(pairs) * 1e6, "us")

    # --- vpindex: built with the CLI's default seed and saved where the
    # CLI's knn --index commands below load it
    tracer.begin_op("vpindex")
    with tracer.span("vpindex.VpTree.build"):
        tree = VpTree.build(seqs, 0)
    m["vpindex.build_s"] = (tracer.duration_s("vpindex.VpTree.build"), "s")
    with tracer.span("vpindex.VpTree.save[x3]"):
        save_s = _median_time(lambda: tree.save(files["index"]), 3)
    m["vpindex.save_s"] = (save_s, "s")
    m["vpindex.file_bytes"] = (os.path.getsize(files["index"]), "B")
    with tracer.span("vpindex.VpTree.load[x3]"):
        load_s = _median_time(lambda: VpTree.load(files["index"], seqs), 3)
    m["vpindex.load_s"] = (load_s, "s")
    queries = [interner.seq(q) for q in inputs.queries]
    with tracer.span("vpindex.VpTree.knn[queries]"):
        t0 = time.perf_counter()
        knn_results = [tree.knn(q, K) for q in queries]
        m["vpindex.knn_ms_per_query"] = ((time.perf_counter() - t0) / len(queries) * 1e3, "ms")
    with tracer.span("vpindex.VpTree.range_query[queries]"):
        t0 = time.perf_counter()
        range_results = [tree.range_query(q, RADIUS) for q in queries]
        m["vpindex.range_ms_per_query"] = (
            (time.perf_counter() - t0) / len(queries) * 1e3, "ms")
    with tracer.span("vpindex.VpTree.stats"):
        m["vpindex.knn_scanned_frac"] = (
            tree.stats(queries, k=K).mean_fraction_scanned, "ratio")
        m["vpindex.range_scanned_frac"] = (
            tree.stats(queries, radius=RADIUS).mean_fraction_scanned, "ratio")
    with tracer.span("vpindex.linear_scan[queries]"):
        t0 = time.perf_counter()
        scans = [sorted((distance(q, s), i) for i, s in enumerate(seqs)) for q in queries]
        m["vpindex.scan_ms_per_query"] = ((time.perf_counter() - t0) / len(queries) * 1e3, "ms")
    for q_idx, ranked in enumerate(scans):
        expect(knn_results[q_idx] == [(i, d) for d, i in ranked[:K]],
               f"vp-tree knn differs from the linear scan on query {q_idx}")
        expect(range_results[q_idx] == {i for d, i in ranked if d <= RADIUS},
               f"vp-tree range query differs from the linear scan on query {q_idx}")

    # --- propcheck, configured as the workload's check commands
    ex_alpha, ex_len = w.exhaustive
    rnd_alpha, rnd_len, rnd_samples = w.random_check
    ex_cfg = GenConfig(ex_alpha, ex_len, mode="exhaustive")
    rnd_cfg = GenConfig(rnd_alpha, rnd_len, sample_count=rnd_samples,
                        seed=seed % 2 ** 64, mode="random")
    tracer.begin_op("propcheck")
    with tracer.span("propcheck.verify_metric_axioms[exhaustive]"):
        rep_ex = verify_metric_axioms(ex_cfg, rational=True, table=table)
    with tracer.span("propcheck.verify_metric_axioms[random]"):
        rep_rnd = verify_metric_axioms(rnd_cfg, rational=False, table=table)
    m["propcheck.axioms_exhaustive_s"] = (
        tracer.duration_s("propcheck.verify_metric_axioms[exhaustive]"), "s")
    m["propcheck.axioms_random_s"] = (
        tracer.duration_s("propcheck.verify_metric_axioms[random]"), "s")
    strings = universe(ex_alpha, ex_len)
    with tracer.span("propcheck.verify_lemma_*"):
        lemmas = [
            verify_lemma_scs(all_pairs(strings), rational=True, table=table),
            verify_lemma_lcs_triangle(all_pairs(strings), rational=True, table=table),
            verify_lemma_chain(random_chains(ex_cfg), rational=True, table=table, seed=0),
            verify_lemma_scs(random_pairs(rnd_cfg), rational=False, table=table,
                             seed=rnd_cfg.seed),
            verify_lemma_lcs_triangle(random_pairs(rnd_cfg), rational=False, table=table,
                                      seed=rnd_cfg.seed),
            verify_lemma_chain(random_chains(rnd_cfg), rational=False, table=table,
                               seed=rnd_cfg.seed),
        ]
    m["propcheck.lemmas_s"] = (tracer.duration_s("propcheck.verify_lemma_*"), "s")
    for report in (rep_ex, rep_rnd, *lemmas):
        expect(report.total_violations == 0, "propcheck reported violations")

    # --- cli: the primary command in-process, untraced and traced in turn
    # (the order alternates), and as a fresh process; every other command
    # kind once, traced.  Self time per layer comes from one traced run of
    # each kind.
    def run_kind(kind: str, traced: bool) -> float:
        if kind == "setup":
            files["index"].unlink(missing_ok=True)
        with traced_layers(tracer) if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            code, stdout = cli_stdout(cmds[kind][0])
            elapsed = time.perf_counter() - t0
        expect_output(kind, code, stdout)
        return elapsed

    traced_ops = set()
    main_times, overheads = [], []
    for rep in range(w.cli_reps):
        op_id = tracer.begin_op(f"cli.main[{w.primary}] traced")
        if rep == 0:
            traced_ops.add(op_id)
        if rep % 2 == 0:
            untraced = run_kind(w.primary, False)
            traced = run_kind(w.primary, True)
        else:
            traced = run_kind(w.primary, True)
            untraced = run_kind(w.primary, False)
        main_times.append(untraced)
        overheads.append(traced - untraced)
    main_s = statistics.median(main_times)
    m["cli.main_s"] = (main_s, "s")
    m["cli.trace_overhead_s"] = (statistics.median(overheads), "s")
    walls = []
    for _ in range(w.cli_reps):
        op = spawn(w.primary, 0, cmds[w.primary][0], work, env)
        expect_output(w.primary, op.code, op.stdout)
        walls.append(op.wall_s)
    m["cli.spawn_overhead_s"] = (statistics.median(walls) - main_s, "s")
    for kind in KINDS:
        if kind != w.primary:
            traced_ops.add(tracer.begin_op(f"cli.main[{kind}] traced"))
            run_kind(kind, True)
    self_s = tracer.self_s_by_layer(traced_ops)
    for mod in LAYERS:
        layer = mod.__name__.rsplit(".", 1)[1]
        m[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")

    trace_path = out_dir / f"trace-{w.name}-seed{seed}.json.gz"
    tracer.dump(trace_path, {"workload": w.name, "seed": seed})
    return {
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in m.items()},
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures[:20],
        "spans": len(tracer.start),
        "trace_file": str(trace_path.relative_to(out_dir.parent.parent)),
        "digests_checked": check.digests_checked,
    }
