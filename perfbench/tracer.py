"""Spans around the pipeline's calls, recorded from outside the program.

The CLI and the experiment loop look their callees up as module (or class)
attributes at call time, so replacing those attributes with timing wrappers
for the length of a traced op puts a span around every call into a layer
without touching the program's source.  Wrappers cost time on every call
(tens of percent on the census, which makes ~10 calls per filter), so
end-to-end figures never come from a traced op; the run reports that cost
as `bench.trace_overhead`.

Two of the wrapped names are private and have no public entry yet:
`experiment._SequenceLab._vector` and `_SequenceLab.filter_period_packed`.
Their spans (`experiment.vector`, `experiment.filter_output`) must follow
them when `_SequenceLab` is promoted to a public producer.
"""
from __future__ import annotations

import bisect
import functools
import math
from contextlib import contextmanager
from time import perf_counter

SPAN_CAP = 20_000  # span records kept for the dump; aggregates count every span


class Tracer:
    """Nested spans with inclusive and self time, plus per-layer counters."""

    def __init__(self):
        self.totals: dict[str, list] = {}   # name -> [inclusive s, calls, self s]
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []        # (op, name, parent, start, end)
        self.op = -1
        self._stack: list[list] = []        # [name, start, child seconds]

    def enter(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def exit(self) -> None:
        end = perf_counter()
        name, start, child = self._stack.pop()
        dur = end - start
        agg = self.totals.get(name)
        if agg is None:
            agg = self.totals[name] = [0.0, 0, 0.0]
        agg[0] += dur
        agg[1] += 1
        agg[2] += dur - child
        parent = None
        if self._stack:
            self._stack[-1][2] += dur
            parent = self._stack[-1][0]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((self.op, name, parent, start, end))

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def inclusive(self, name: str) -> float:
        return self.totals.get(name, [0.0, 0, 0.0])[0]

    def calls(self, name: str) -> int:
        return self.totals.get(name, [0.0, 0, 0.0])[1]

    def self_time(self, name: str) -> float:
        return self.totals.get(name, [0.0, 0, 0.0])[2]


def _wrap(tracer: Tracer, fn, name: str, before=None, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before is not None:
            before(args)
        tracer.enter(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(args, out)
        return out
    return traced


def _wrap_generator(tracer: Tracer, fn, name: str):
    """Span around each next() of a generator, where its work happens."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            tracer.enter(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.exit()
            yield item
    return traced


@functools.lru_cache(maxsize=None)
def _divisors(n: int) -> tuple[int, ...]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return tuple(sorted(set(small + [n // d for d in small])))


def pipeline_targets(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, wrapper) for every layer boundary the pipeline crosses."""
    from filtropt import anf, complexity, cosets, experiment, likelihood, spectral

    def lc_packed(args, lc):       # periodic_lc_packed(packed, period)
        tracer.count("lc_over_period", lc / args[1])

    def lc_bits(args, lc):         # linear_complexity_periodic(bits)
        tracer.count("lc_over_period", lc / len(args[0]))

    def candidates(length, period):
        # the divisors of the length a smallest-first scan tries
        tracer.count("min_period_candidates", bisect.bisect_right(_divisors(length), period))

    def vector_hit(args):          # _SequenceLab._vector(self, mask)
        tracer.count("vector_hits", args[1] in args[0]._vectors)

    n_cosets = functools.lru_cache(maxsize=None)(
        lambda L: len(cosets.cosets_up_to_weight(L, L)))

    def dft_shape(args, spectrum):  # dft(z, ctx)
        tracer.count("dft_cosets", n_cosets(args[1].L))
        tracer.count("dft_lines", len(spectrum.lines))

    lab = experiment._SequenceLab
    return [
        (experiment, "run_exhaustive", _wrap(tracer, experiment.run_exhaustive, "experiment")),
        (experiment, "run_monte_carlo", _wrap(tracer, experiment.run_monte_carlo, "experiment")),
        (experiment, "enumerate_filters",
         _wrap_generator(tracer, experiment.enumerate_filters, "anf.enumerate")),
        (experiment, "random_filter", _wrap(tracer, experiment.random_filter, "anf.random_filter")),
        (lab, "filter_period_packed",
         _wrap(tracer, lab.filter_period_packed, "experiment.filter_output")),
        (lab, "_vector", _wrap(tracer, lab._vector, "experiment.vector", before=vector_hit)),
        (experiment, "periodic_lc_packed",
         _wrap(tracer, experiment.periodic_lc_packed, "complexity.periodic_lc", after=lc_packed)),
        (experiment, "min_period_packed",
         _wrap(tracer, experiment.min_period_packed, "complexity.min_period",
               after=lambda args, d: candidates(args[1], d))),
        (experiment, "pr_exact", _wrap(tracer, experiment.pr_exact, "likelihood.pr_exact")),
        (likelihood, "pr_report", _wrap(tracer, likelihood.pr_report, "likelihood.pr_report")),
        (anf, "filter_sequence", _wrap(tracer, anf.filter_sequence, "anf.filter_sequence")),
        (complexity, "linear_complexity_periodic",
         _wrap(tracer, complexity.linear_complexity_periodic, "complexity.periodic_lc",
               after=lc_bits)),
        (complexity, "min_period",
         _wrap(tracer, complexity.min_period, "complexity.min_period",
               after=lambda args, d: candidates(len(args[0]), d))),
        (spectral, "dft", _wrap(tracer, spectral.dft, "spectral.dft", after=dft_shape)),
    ]


@contextmanager
def installed(targets):
    """Swap the wrappers in for the body of the with-block, then restore."""
    saved = []
    try:
        for owner, attr, wrapper in targets:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
