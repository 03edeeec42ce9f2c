"""Self-test of the benchmark at a tiny size (a few seconds, no arguments).

    python3 perfbench/selftest.py

Checks that a run prints every metric BENCHMARK.json names, with its unit,
untraced and traced, and that a deliberately corrupted measurement (a
periodic linear complexity reported one too high) is counted as failed ops
and makes the run incorrect without crashing it.  Exits 1 on any failure.
"""
from __future__ import annotations

import json
import sys
from contextlib import contextmanager

import run
from workloads import Census, Explain, Sample

TINY = [
    Census("census", L=3, k=2),
    Sample("sample", L=5, k=2, trials=4),
    Explain("explain", L=5, k=2),
]


@contextmanager
def lc_off_by_one():
    """Every periodic lc measurement, packed or from a bit list, reads lc + 1."""
    from filtropt import complexity, experiment
    saved = [(experiment, "periodic_lc_packed"), (complexity, "linear_complexity_periodic")]
    originals = [getattr(owner, attr) for owner, attr in saved]
    try:
        for (owner, attr), fn in zip(saved, originals):
            setattr(owner, attr, lambda *a, _fn=fn: _fn(*a) + 1)
        yield
    finally:
        for (owner, attr), fn in zip(saved, originals):
            setattr(owner, attr, fn)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []

    def expect(cond: bool, what: str) -> None:
        print(("PASS " if cond else "FAIL ") + what)
        if not cond:
            problems.append(what)

    for wl in TINY:
        for trace, listed in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            _, result = run.run_workload(wl, seed=7, seconds=1, trace=trace)
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in listed}
            expect(printed == wanted,
                   f"{wl.name} trace={int(trace)}: every listed metric printed with its unit")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{wl.name} trace={int(trace)}: correct, no failed ops")

    with lc_off_by_one():
        for wl in (TINY[0], TINY[2]):
            lines, result = run.run_workload(wl, seed=7, seconds=1, trace=False)
            frac = next(line for line in lines if "failed_ops_frac" in line).split()[1]
            expect(result["failed"] == result["attempted"] >= 1 and float(frac) == 1.0
                   and not result["correct"],
                   f"{wl.name}: lc + 1 counted in failed_ops_frac ({frac}), run not correct")
        # four trials that all miss are plausible for one op; pooled they are not
        lines, result = run.run_workload(TINY[1], seed=7, seconds=1, trace=False)
        expect(not result["correct"] and any("pooled_binomial: fail" in line for line in lines),
               "sample: lc + 1 fails the pooled binomial check, run not correct")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
