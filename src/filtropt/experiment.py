"""Empirical census and Monte Carlo measurement of filter quality.

Every trial builds one period of the filtered sequence and measures its
linear complexity and its exact minimal period.  A run tallies one
histogram of (lc, period) pairs, and reads off it how many filters reach
the ceiling nk(L, k) and the full period 2^L - 1.

A run is cut into chunks, and a chunk returns numbers only,
lc * (N + 1) + period per filter, which the parent process adds to the
histogram.  A census of periods N <= WORD_MAX_PERIOD (L <= 6) is cut into
census blocks of at most 2^CENSUS_BLOCK_BITS filters, whose outputs come
from xor-ing the monomial vectors by subset doubling and are measured at
once by the word kernels, one uint64 lane per filter; each block's first
filter is measured again by the scalar kernels as a spot check.  A longer
census, and Monte Carlo, measure chunks of at most 2^CENSUS_BLOCK_BITS
filters one at a time, more and smaller ones for more workers.  Monte
Carlo seeds each trial's generator by blake2b over master seed and trial
index, so both modes give bit-identical results for a given (L, k, seed,
trials) at any worker count.

A row sink, if given, gets each filter's TrialRecord in census or trial
order from the parent process, which derives each chunk's filters again.
"""
from __future__ import annotations

import hashlib
import os
import random
from collections import Counter, deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import sqrt
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import polytable
from .anf import (FilterFunction, _check_field, _decode_selector, census_size,
                  enumerate_filters, format_anf, random_filter, selectable_masks)
from .complexity import (WORD_MAX_PERIOD, min_period_packed, min_period_words,
                         periodic_lc_packed, periodic_lc_words)
from .cosets import nk
from .field import FieldContext
from .lfsr import window_table
from .likelihood import LikelihoodReport, pr_exact
from .limits import (CENSUS_BLOCK_BITS, ENUMERATION_CAP, SEED_LIMIT, VECTOR_CACHE_BYTES,
                     check_order)

DEFAULT_TRIALS = 20000
_WILSON_Z = 1.959963984540054  # two-sided 95%


class TrialRecord(NamedTuple):
    """One measured filter, in the field order of a --csv row."""

    filter_anf: str
    lc: int
    period: int
    is_max: int  # 1 if lc reaches nk(L, k), else 0


RowSink = Callable[[TrialRecord], object]


@dataclass
class ExperimentSummary:
    """Aggregated run outcome; reproducible bit-for-bit from (L, k, seed, trials)."""

    L: int
    k: int
    mode: str
    trials: int
    hits_max_lc: int
    hits_max_period: int
    max_lc_target: int
    empirical_pr: float
    ci_low: float | None
    ci_high: float | None
    seed: int | None
    analytic_pr: float
    z_score: float | None
    histogram: dict[tuple[int, int], int] = field(repr=False)  # (lc, period): filters


@dataclass
class Verdict:
    """Comparison of a run against the analytic report.

    ok is the mode's primary criterion: census counts must match nfm
    exactly, sampling must land within 3 sigma (a z_score of None does
    not).  bound_respected compares against the exponential approximation
    bound_general (with 3 sigma of sampling slack); it is reported for
    context, not gating, since that approximation sits above the true
    probability: slightly at prime L, far above it at composite L.
    """

    exact_match: bool | None
    within_3_sigma: bool | None
    bound_respected: bool
    ok: bool


class _SequenceLab:
    """The one producer of filter output: windows and monomial value vectors.

    A period of output is a packed int with z_n at bit n, the xor of one
    value vector per monomial.  A monomial's vector is the AND of its taps'
    vectors, since its value is the product of those window bits; the first
    limits.VECTOR_CACHE_BYTES of vectors built are cached.
    A census of word-sized periods takes the same xors a block of filters
    at a time (census_block) and measures each block at once
    (measure_block).
    """

    def __init__(self, ctx: FieldContext, initial_state: int = 1):
        self.ctx = ctx
        self.period = ctx.order
        windows = window_table(ctx, initial_state)
        self._ones = (1 << self.period) - 1
        self._taps = [int.from_bytes(np.packbits(windows >> t & 1, bitorder="little").tobytes(),
                                     "little") for t in range(ctx.L)]
        self._vectors: dict[int, int] = {}
        self._vector_room = VECTOR_CACHE_BYTES // -(-self.period // 8)  # vectors it may keep
        self._tables: dict[int, np.ndarray] = {}  # census_block's, per order k

    def _vector(self, mask: int) -> int:
        vec = self._vectors.get(mask)
        if vec is None:
            vec = self._ones
            for t, tap in enumerate(self._taps):
                if mask >> t & 1:
                    vec &= tap
            if len(self._vectors) < self._vector_room:
                self._vectors[mask] = vec
        return vec

    def filter_period_packed(self, f: FilterFunction) -> int:
        """One period of the filter output as a packed int."""
        _check_field(f, self.ctx)
        out = 0
        for mask in f.masks:
            out ^= self._vector(mask)
        return out

    def measure(self, z: int) -> tuple[int, int]:
        """(linear complexity, minimal period) of a packed output period."""
        return periodic_lc_packed(z, self.period), min_period_packed(z, self.period)

    def census_block(self, k: int, start: int, stop: int) -> np.ndarray:
        """Output periods of census filters start..stop-1, all in one census block
        (a range that leaves it is refused).

        Census index i is selector s = i + 2^n_low (anf.selectable_masks), and
        its output is the xor of the vectors of the selector's set bits.  A
        table over the low CENSUS_BLOCK_BITS selector bits is built once per k
        by subset doubling, table[j | 1 << t] = table[j] ^ vec[t]; a block is
        that table xor the vectors of the block's shared high bits.  Lanes
        are uint64, so the period must be at most WORD_MAX_PERIOD bits.
        """
        pool, n_low = selectable_masks(self.ctx.L, k)
        if k not in self._tables:
            table = np.zeros(1, np.uint64)
            for mask, _ in sorted(pool, key=lambda pair: pair[1])[:CENSUS_BLOCK_BITS]:
                table = np.concatenate([table, table ^ np.uint64(self._vector(mask))])
            self._tables[k] = table
        table = self._tables[k]
        first, last = start + (1 << n_low), stop + (1 << n_low)
        base = first & -len(table)
        if not first <= last <= base + len(table):
            raise ValueError(f"census filters {start}..{stop - 1} leave census block "
                             f"{base // len(table)}")
        head = 0
        for mask in _decode_selector(pool, base):
            head ^= self._vector(mask)
        return table[first - base:last - base] ^ np.uint64(head)

    def measure_block(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(linear complexities, minimal periods) of a census block, as int64 arrays.

        The word kernels, spot-checked against the scalar kernels on the
        block's first filter (a mismatch is a bug, raised as AssertionError).
        """
        lcs, periods = periodic_lc_words(z, self.period), min_period_words(z, self.period)
        first = int(z[0])
        scalar = self.measure(first)
        if scalar != (lcs[0], periods[0]):
            raise AssertionError(
                f"word kernels give (lc, period) = ({lcs[0]}, {periods[0]}) but the "
                f"scalar kernels {scalar} for the output {first:#x}")
        return lcs, periods


def trial_seed(master_seed: int, index: int) -> int:
    """Counter-based 64-bit sub-seed: blake2b over (master seed, index)."""
    payload = master_seed.to_bytes(16, "little", signed=True) + index.to_bytes(8, "little")
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")


def wilson_interval(hits: int, trials: int, z: float = _WILSON_Z) -> tuple[float, float]:
    """95% Wilson score interval; well behaved near probability 1."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    phat = hits / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


_lab = lru_cache(maxsize=1)(_SequenceLab)  # a run's lab, once per process; _measure clears it


def _filters(L: int, k: int, seed: int | None, lo: int, hi: int) -> Iterator[FilterFunction]:
    """Filters lo..hi-1 of a run: census indices if seed is None, else seeded draws."""
    if seed is None:
        return enumerate_filters(L, k, start=lo, stop=hi)
    return (random_filter(L, k, random.Random(trial_seed(seed, i))) for i in range(lo, hi))


def _measure_chunk(args: tuple[FieldContext, int, int | None, int, int]) -> np.ndarray:
    """lc * (N + 1) + period of each of filters lo..hi-1, in order, as int64."""
    ctx, k, seed, lo, hi = args
    lab, n = _lab(ctx), ctx.order
    if seed is None and n <= WORD_MAX_PERIOD:
        lcs, periods = lab.measure_block(lab.census_block(k, lo, hi))
        return lcs * (n + 1) + periods
    return np.array([lc * (n + 1) + per for lc, per in
                     (lab.measure(lab.filter_period_packed(f))
                      for f in _filters(ctx.L, k, seed, lo, hi))], np.int64)


def _chunks(ctx: FieldContext, k: int, seed: int | None, total: int,
            jobs: int) -> list[tuple[int, int]]:
    """[lo, hi) ranges of a run: its census blocks for word-sized periods, else
    at most 2^CENSUS_BLOCK_BITS and total / (4 * min(jobs, cpu count)) filters."""
    if seed is None and ctx.order <= WORD_MAX_PERIOD:
        pool, n_low = selectable_masks(ctx.L, k)
        step = 1 << min(CENSUS_BLOCK_BITS, len(pool))
        first = -(1 << n_low) % step or step
    else:
        workers = min(jobs, os.cpu_count() or 1)
        step = first = max(1, min(1 << CENSUS_BLOCK_BITS, total // (4 * workers)))
    edges = [0, *range(first, total, step), total]
    return list(zip(edges, edges[1:]))


def _in_order(pool: ProcessPoolExecutor, chunks: list, ahead: int) -> Iterator[np.ndarray]:
    """_measure_chunk of each chunk in order, with at most `ahead` submitted and unread."""
    pending: deque = deque()
    for chunk in chunks:
        if len(pending) == ahead:
            yield pending.popleft().result()
        pending.append(pool.submit(_measure_chunk, chunk))
    yield from (future.result() for future in pending)


def _measure(ctx: FieldContext, k: int, seed: int | None, total: int, jobs: int,
             rows: RowSink | None) -> Counter:
    """(lc, period) histogram of filters 0..total-1 from min(jobs, chunks, cpu count)
    processes, which run at most two chunks per process ahead of the parent; rows,
    if given, gets each filter's record as its chunk comes back."""
    chunks = [(ctx, k, seed, lo, hi) for lo, hi in _chunks(ctx, k, seed, total, jobs)]
    workers = min(jobs, len(chunks), os.cpu_count() or 1)
    n, target = ctx.order, nk(ctx.L, k)
    hist = Counter()
    try:
        with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
            results = (_in_order(pool, chunks, 2 * workers) if pool
                       else map(_measure_chunk, chunks))
            for (*_, lo, hi), cells in zip(chunks, results):
                values, counts = np.unique(cells, return_counts=True)
                hist.update({divmod(v, n + 1): m for v, m in zip(values.tolist(), counts.tolist())})
                if rows is not None:
                    for f, cell in zip(_filters(ctx.L, k, seed, lo, hi), cells.tolist()):
                        lc, per = divmod(cell, n + 1)
                        rows(TrialRecord(format_anf(f), lc, per, int(lc == target)))
    finally:
        _lab.cache_clear()
    return hist


def _z_score(empirical, analytic, trials: int) -> float | None:
    """(empirical - analytic) in standard errors of a trials-filter rate.

    A prediction of probability 0 or 1 has no spread: it is met (z 0.0)
    only by an equal rate, and any other rate has no finite z (None).
    """
    if empirical == analytic:
        return 0.0
    se = sqrt(float(analytic) * (1 - float(analytic)) / trials)
    return float(empirical - analytic) / se if se else None


def check_run(L: int, k: int, jobs: int, trials: int | None = None,
              seed: int | None = None) -> int:
    """Filters a run measures: the census if trials is None, else trials draws.

    Refuses a bad order, a census past limits.ENUMERATION_CAP, trials outside
    [1, that cap], a seed outside [-2^127, 2^127) and jobs < 1, before any
    work starts.
    """
    check_order(L, k)
    if trials is None:
        trials = census_size(L, k)
    elif not 1 <= trials <= ENUMERATION_CAP:
        raise ValueError(f"trials must lie in [1, {ENUMERATION_CAP}], got {trials}")
    elif not -SEED_LIMIT <= seed < SEED_LIMIT:
        raise ValueError(f"seed must lie in [-2^127, 2^127), got {seed}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return trials


def _run(L: int, k: int, ctx: FieldContext | None, seed: int | None, trials: int, jobs: int,
         rows: RowSink | None) -> ExperimentSummary:
    """Measure on ctx (default: L's table field); read the hits off the histogram."""
    if ctx is not None and ctx.L != L:
        raise ValueError(f"the run is for L={L} but the field has L={ctx.L}")
    ctx = polytable.context_for(L) if ctx is None else ctx
    hist = _measure(ctx, k, seed, trials, jobs, rows)
    target = nk(L, k)
    hits_lc = sum(m for (lc, _), m in hist.items() if lc == target)
    hits_period = sum(m for (_, per), m in hist.items() if per == ctx.order)
    if seed is None:  # a census: exact rates, no interval
        analytic, empirical, ci = pr_exact(L, k), Fraction(hits_lc, trials), (None, None)
    else:
        analytic, empirical = float(pr_exact(L, k)), hits_lc / trials
        ci = wilson_interval(hits_lc, trials)
    return ExperimentSummary(
        L=L, k=k, mode="exhaustive" if seed is None else "monte-carlo", trials=trials,
        hits_max_lc=hits_lc, hits_max_period=hits_period, max_lc_target=target,
        empirical_pr=float(empirical), ci_low=ci[0], ci_high=ci[1], seed=seed,
        analytic_pr=float(analytic), z_score=_z_score(empirical, analytic, trials),
        histogram=dict(sorted(hist.items())))


def run_exhaustive(L: int, k: int, ctx: FieldContext | None = None, *,
                   jobs: int = 1, rows: RowSink | None = None) -> ExperimentSummary:
    """Measure every order-k filter; the census against which nfm is judged.

    rows, if given, is called with each filter's TrialRecord in census order.
    """
    return _run(L, k, ctx, None, check_run(L, k, jobs), jobs, rows)


def run_monte_carlo(L: int, k: int, trials: int = DEFAULT_TRIALS, seed: int = 0,
                    ctx: FieldContext | None = None, *, jobs: int = 1,
                    rows: RowSink | None = None) -> ExperimentSummary:
    """trials uniform filter draws with reproducible per-trial sub-seeds.

    rows, if given, is called with each draw's TrialRecord in trial order.
    """
    return _run(L, k, ctx, seed, check_run(L, k, jobs, trials, seed), jobs, rows)


def compare(summary: ExperimentSummary, report: LikelihoodReport) -> Verdict:
    """Judge a run against the analytic report for the same (L, k)."""
    if (summary.L, summary.k) != (report.L, report.k):
        raise ValueError(
            f"summary is for (L={summary.L}, k={summary.k}) but report is for "
            f"(L={report.L}, k={report.k})")
    exact_match = None
    within = None
    if summary.mode == "exhaustive":
        if report.nfm is None:
            raise ValueError("exhaustive comparison needs an exact-mode report")
        exact_match = summary.hits_max_lc == report.nfm
        ok = exact_match
        slack = 0.0
    else:
        within = summary.z_score is not None and abs(summary.z_score) <= 3.0
        ok = within
        p = summary.analytic_pr
        slack = 3.0 * sqrt(p * (1 - p) / summary.trials)
    bound_respected = summary.empirical_pr > float(report.bound_general) - slack
    return Verdict(exact_match=exact_match, within_3_sigma=within,
                   bound_respected=bound_respected, ok=ok)
