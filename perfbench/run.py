"""filtropt benchmark: drive the CLI in-process on one workload and measure it.

    python3 perfbench/run.py --workload census --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 38 --trace 0

A run times a cold set-up (fresh interpreters, median of SETUP_REPS), runs
one untimed traced warm-up op, then calls `filtropt.cli.main(argv)` back to
back at `--jobs 1` for `--seconds` (and at least MIN_OPS ops), capturing
each op's stdout.  After the timed section it checks every op against the
workload's cross-checks and the program's JSON schemas, and runs a
correctness pass: tracing must not change an op's output (the warm-up
against the first timed op), `sample` must give the same bytes at --jobs 1 and
--jobs 2, and `prob -L 257 -k 128` must stay in log-domain mode above
0.998.  With `--trace 1` each op runs twice, plain and traced, and the run
reports per-layer figures from the traced copies and the tracing overhead.

The last stdout line is one JSON object {correct, attempted, failed,
metrics}; the lines before it are a human-readable report.  `--workload
all` runs every workload in its own process and prints them together.
See perfbench/README.md for what each workload and metric is for.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SETUP_REPS = 5
MIN_OPS = 11          # the tail percentile needs ten ops beyond it
MIN_TRACED_OPS = 3
MAX_LOOP_S = 120      # stop a much slower program well inside the 180 s limit
JOBS_CHECK_ARGV = ["sample", "-L", "7", "-k", "3", "--trials", "400"]
PROB_CHECK_ARGV = ["prob", "-L", "257", "-k", "128"]

END_TO_END = {
    "setup_s": "s",
    "filters_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}

# set-up layers, timed by the cold set-up probes rather than by spans
SETUP_LAYERS = {"filtropt.import_s": "import_s", "polytable.context_s": "context_s",
                "lfsr.window_table_s": "window_table_s", "cosets.table_s": "cosets_s"}

PER_LAYER = {
    "complexity.periodic_lc_s": "s",
    "complexity.periodic_lc_calls": "count",
    "complexity.lc_over_period": "ratio",
    "complexity.min_period_s": "s",
    "complexity.min_period_candidates": "count",
    "anf.enumerate_s": "s",
    "anf.random_filter_s": "s",
    "experiment.vector_s": "s",
    "experiment.vector_calls": "count",
    "experiment.vector_hit_ratio": "ratio",
    "experiment.filter_output_s": "s",
    "anf.filter_sequence_s": "s",
    "spectral.dft_s": "s",
    "spectral.dft_cosets": "count",
    "spectral.dft_lines": "count",
    **{name: "s" for name in SETUP_LAYERS},
    "likelihood.pr_report_s": "s",
    "likelihood.pr_exact_s": "s",
    "experiment.self_s": "s",
    "cli.self_s": "s",
    "cli.op_s": "s",
    "bench.trace_overhead": "%",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or dependencies)."""


@dataclass
class Op:
    argv: list[str]
    rc: int | None          # None: the op raised
    out: str
    err: str
    seconds: float
    payload: dict | None = None
    failure: str | None = None


class Program:
    """The checkout's filtropt, its CLI entry and its JSON schemas."""

    def __init__(self):
        try:
            import jsonschema
            from filtropt import cli
        except ImportError as exc:
            raise BenchError(f"cannot import the program or jsonschema: {exc}") from None
        if not Path(cli.__file__).resolve().is_relative_to(SRC):
            raise BenchError(f"filtropt imported from {cli.__file__}, not from {SRC}")
        self.cli = cli
        self._validators = {}
        for name in ("experiment", "analyze", "prob"):
            path = SRC / "filtropt" / "schemas" / f"{name}.schema.json"
            try:
                schema = json.loads(path.read_text(encoding="utf-8"))
            except OSError as exc:
                raise BenchError(f"missing schema: {exc}") from None
            self._validators[name] = jsonschema.Draft202012Validator(schema)

    def invoke(self, argv: list[str]) -> Op:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(argv)
            except Exception:  # a crashing op is a failed op, not a crashed run
                traceback.print_exc()
                rc = None
        return Op(argv, rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0)

    def parse(self, op: Op, schema: str) -> str | None:
        """Fill op.payload; a reason when the op crashed or broke its schema."""
        if op.rc is None:
            return "raised " + op.err.strip().splitlines()[-1]
        try:
            op.payload = json.loads(op.out)
        except ValueError:
            return f"exit {op.rc} without JSON: {op.err.strip()[:200]}"
        error = next(iter(self._validators[schema].iter_errors(op.payload)), None)
        return None if error is None else f"schema {schema}: {error.message}"


def judge(program: Program, wl: Workload, op: Op) -> None:
    op.failure = program.parse(op, wl.schema) or wl.check(op.argv, op.rc, op.payload)


# --- measurement ---------------------------------------------------------

def measure_setup(wl: Workload) -> dict[str, float]:
    """Median over SETUP_REPS fresh interpreters of each cold set-up step."""
    runs = []
    for _ in range(SETUP_REPS):
        res = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(wl.L),
             "1" if wl.setup_cosets else "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if res.returncode != 0:
            raise BenchError(f"set-up probe failed: {res.stderr.strip()[-300:]}")
        rec = json.loads(res.stdout.splitlines()[-1])
        if not Path(rec["module"]).resolve().is_relative_to(SRC):
            raise BenchError(f"set-up probe imported {rec['module']}")
        runs.append(rec)
    return {key: statistics.median(r[key] for r in runs)
            for key in ("total_s", "import_s", "context_s", "window_table_s", "cosets_s")}


def _loop_done(start: float, seconds: int, n: int, min_ops: int) -> bool:
    elapsed = time.perf_counter() - start
    return elapsed >= max(seconds, MAX_LOOP_S) or (elapsed >= seconds and n >= min_ops)


def timed_ops(program: Program, wl: Workload, rng: random.Random, seconds: int,
              first: list[str]) -> tuple[list[Op], float]:
    ops: list[Op] = []
    start = time.perf_counter()
    while not _loop_done(start, seconds, len(ops), MIN_OPS):
        ops.append(program.invoke(wl.argv(rng) if ops else first))
    return ops, time.perf_counter() - start


def traced_invoke(program: Program, tr: tracing.Tracer, targets, argv) -> Op:
    with tracing.installed(targets), tr.span("cli"):
        return program.invoke(argv)


def paired_ops(program: Program, wl: Workload, rng: random.Random, seconds: int,
               tr: tracing.Tracer) -> list[tuple[Op, Op]]:
    """Each input run plain and traced, alternating which goes first."""
    targets = tracing.pipeline_targets(tr)
    pairs: list[tuple[Op, Op]] = []
    start = time.perf_counter()
    while not _loop_done(start, seconds, len(pairs), MIN_TRACED_OPS):
        argv = wl.argv(rng)
        tr.op = len(pairs)
        if tr.op % 2:
            traced = traced_invoke(program, tr, targets, argv)
            plain = program.invoke(argv)
        else:
            plain = program.invoke(argv)
            traced = traced_invoke(program, tr, targets, argv)
        pairs.append((plain, traced))
    return pairs


def same_output(a: Op, b: Op) -> bool:
    return (a.rc, a.out) == (b.rc, b.out)


def correctness_pass(program: Program, rng: random.Random) -> dict[str, str]:
    checks = {}
    jobs = min(2, len(os.sched_getaffinity(0)))
    if jobs < 2:
        checks["jobs_1_vs_2"] = "skipped: one CPU available"
    else:
        argv = JOBS_CHECK_ARGV + ["--seed", str(rng.getrandbits(63))]
        one = program.invoke(argv + ["--jobs", "1"])
        two = program.invoke(argv + ["--jobs", str(jobs)])
        ok = same_output(one, two) and one.rc in (0, 2)
        checks["jobs_1_vs_2"] = "pass" if ok else f"fail: exit {one.rc} vs {two.rc}"
    op = program.invoke(PROB_CHECK_ARGV)
    reason = program.parse(op, "prob")
    if reason is None and op.payload["mode"] != "log-domain":
        reason = f"mode {op.payload['mode']}"
    if reason is None and not float(op.payload["pr_float"]) > 0.998:
        reason = f"pr_float {op.payload['pr_float']}"
    checks["prob_L257_k128"] = "pass" if reason is None else f"fail: {reason}"
    return checks


# --- reporting -----------------------------------------------------------

def machine_info(seed: int) -> dict:
    import mpmath
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, "git": git_sha(), "seed": seed}


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
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
    return None


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) of the op with exactly ten ops beyond it.

    With fewer than eleven ops there is no such op and the slowest stands in.
    """
    lat = sorted(latencies)
    rank = len(lat) - 10 if len(lat) > 10 else len(lat)
    return lat[rank - 1], 100.0 * rank / len(lat)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(tr: tracing.Tracer, n_ops: int, setup: dict,
                  overhead_pct: float) -> dict[str, float]:
    def per_op(span):
        return tr.inclusive(span) / n_ops

    def per_call(counter, span):
        calls = tr.calls(span)
        return tr.counters.get(counter, 0) / calls if calls else 0.0

    return {
        "complexity.periodic_lc_s": per_op("complexity.periodic_lc"),
        "complexity.periodic_lc_calls": tr.calls("complexity.periodic_lc") / n_ops,
        "complexity.lc_over_period": per_call("lc_over_period", "complexity.periodic_lc"),
        "complexity.min_period_s": per_op("complexity.min_period"),
        "complexity.min_period_candidates":
            per_call("min_period_candidates", "complexity.min_period"),
        "anf.enumerate_s": per_op("anf.enumerate"),
        "anf.random_filter_s": per_op("anf.random_filter"),
        "experiment.vector_s": per_op("experiment.vector"),
        "experiment.vector_calls": tr.calls("experiment.vector") / n_ops,
        "experiment.vector_hit_ratio": per_call("vector_hits", "experiment.vector"),
        "experiment.filter_output_s": per_op("experiment.filter_output"),
        "anf.filter_sequence_s": per_op("anf.filter_sequence"),
        "spectral.dft_s": per_op("spectral.dft"),
        "spectral.dft_cosets": per_call("dft_cosets", "spectral.dft"),
        "spectral.dft_lines": per_call("dft_lines", "spectral.dft"),
        **{name: setup[key] for name, key in SETUP_LAYERS.items()},
        "likelihood.pr_report_s": per_op("likelihood.pr_report"),
        "likelihood.pr_exact_s": per_op("likelihood.pr_exact"),
        "experiment.self_s": tr.self_time("experiment") / n_ops,
        "cli.self_s": tr.self_time("cli") / n_ops,
        "cli.op_s": per_op("cli"),
        "bench.trace_overhead": overhead_pct,
    }


def dump_spans(tr: tracing.Tracer, wl: Workload, seed: int, machine: dict) -> Path:
    out_dir = ROOT / "perfbench_out"
    out_dir.mkdir(exist_ok=True)
    t0 = tr.spans[0][3] if tr.spans else 0.0
    path = out_dir / f"spans-{wl.name}-seed{seed}.json"
    path.write_text(json.dumps({
        "workload": wl.name, "machine": machine,
        "totals": {name: dict(zip(("inclusive_s", "calls", "self_s"), agg))
                   for name, agg in tr.totals.items()},
        "counters": tr.counters,
        "spans": [[op, name, parent, start - t0, end - t0]
                  for op, name, parent, start, end in tr.spans],
    }), encoding="utf-8")
    return path


def run_workload(wl: Workload, seed: int, seconds: int, trace: bool) -> tuple[list[str], dict]:
    """Run one workload; returns (report lines, result object)."""
    program = Program()
    machine = machine_info(seed)
    setup = measure_setup(wl)
    rng = random.Random(f"{wl.name}:{seed}")
    tr = tracing.Tracer()
    if trace:
        pairs = paired_ops(program, wl, rng, seconds, tr)
        ops = [op for pair in pairs for op in pair]
        plain_ops = [p for p, _ in pairs]
        plain_s = sum(p.seconds for p, _ in pairs)
        traced_s = sum(t.seconds for _, t in pairs)
        identical = sum(same_output(p, t) for p, t in pairs)
        checks = {"trace_identity": f"pass: {identical} of {len(pairs)} inputs identical"
                  if identical == len(pairs) else
                  f"fail: {len(pairs) - identical} of {len(pairs)} inputs differ"}
    else:
        # The first input runs once traced before the timed loop: that warms
        # the program's caches and lazy imports, and its output must match
        # the timed, untraced run of the same input.
        first = wl.argv(rng)
        scratch = tracing.Tracer()
        warm = traced_invoke(program, scratch, tracing.pipeline_targets(scratch), first)
        ops, wall = timed_ops(program, wl, rng, seconds, first)
        plain_ops = ops
        checks = {"trace_identity": "pass" if same_output(ops[0], warm)
                  else "fail: traced warm-up of the first op differs"}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for op in ops:
        judge(program, wl, op)
    checks.update(correctness_pass(program, rng))
    good = [op for op in plain_ops if op.failure is None]
    checks.update(wl.run_checks([op.payload for op in good]))
    failed = [op for op in ops if op.failure is not None]
    if trace:
        attempted = len(pairs)
        n_failed = sum(bool(p.failure or t.failure) for p, t in pairs)
    else:
        attempted, n_failed = len(ops), len(failed)
    correct = n_failed == 0 and not any(v.startswith("fail") for v in checks.values())

    lines = [f"perfbench {wl.name}: trace={int(trace)} seed={seed} seconds={seconds}",
             "  machine: " + " ".join(f"{k}={v}" for k, v in machine.items()),
             f"  set-up: {setup['total_s']:.4f} s median of {SETUP_REPS} cold set-ups "
             f"(import {setup['import_s']:.4f}, context {setup['context_s']:.4f}, "
             f"windows {setup['window_table_s']:.4f}, cosets {setup['cosets_s']:.4f})"]
    if trace:
        overhead = 100.0 * (traced_s / plain_s - 1.0)
        values = layer_metrics(tr, len(pairs), setup, overhead)
        metrics = {name: metric(values[name], unit) for name, unit in PER_LAYER.items()}
        op_s = values["cli.op_s"]
        lines.append(f"  traced: {len(pairs)} inputs, each run plain and traced; "
                     f"overhead {overhead:.1f}% ({traced_s:.2f} s vs {plain_s:.2f} s)")
        for name, unit in PER_LAYER.items():
            share = (f"  {100 * values[name] / op_s:5.1f}% of op"
                     if unit == "s" and name not in SETUP_LAYERS else "")
            lines.append(f"  {name:34s} {values[name]:14.6g} {unit}{share}")
        lines.append(f"  spans: {dump_spans(tr, wl, seed, machine).relative_to(ROOT)}")
    else:
        latencies = [op.seconds for op in ops]
        tail_s, tail_pct = tail(latencies)
        filters = sum(wl.filters(op.payload) for op in good)
        values = {"setup_s": setup["total_s"], "filters_per_s": filters / wall,
                  "op_p50_s": statistics.median(latencies), "op_tail_s": tail_s,
                  "peak_rss_mb": peak_rss_mb}
        metrics = {name: metric(values[name], unit) for name, unit in END_TO_END.items()}
        notes = {"filters_per_s": f"{filters} filters in {wall:.3f} s",
                 "op_p50_s": f"{len(ops)} ops",
                 "op_tail_s": f"p{tail_pct:.1f} of {len(ops)} ops",
                 "setup_s": f"median of {SETUP_REPS}"}
        for name, unit in END_TO_END.items():
            lines.append(f"  {name:16s} {values[name]:14.6g} {unit:4s} {notes.get(name, '')}")
        lines.append(f"  {'failed_ops_frac':16s} {len(failed) / len(ops):14.6g} "
                     f"{'frac':4s} {len(failed)} of {len(ops)} ops")
    for name, status in checks.items():
        lines.append(f"  check {name}: {status}")
    for op in failed[:5]:
        lines.append(f"  failed op {' '.join(op.argv)[:80]}: {op.failure}")
    result = {"correct": correct, "attempted": attempted, "failed": n_failed,
              "metrics": metrics}
    return lines, result


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Every workload in its own process (so peak RSS is the workload's own)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        res = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        if res.returncode != 0:
            print(res.stderr, file=sys.stderr)
            return res.returncode
        *report, last = res.stdout.strip().splitlines()
        print("\n".join(report))
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric_name, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric_name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        lines, result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                     bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
