"""Empirical census and Monte Carlo measurement of filter quality.

Every trial builds one period of the filtered sequence, measures its linear
complexity and its exact minimal period, and counts how many filters reach
the ceiling nk(L, k) and the full period 2^L - 1.

Exhaustive mode walks the whole filter space in census blocks of at most
2^CENSUS_BLOCK_BITS filters: a block's outputs come from xor-ing the
monomial vectors by subset doubling in census order, and the block is
measured at once by the word kernels, Berlekamp-Massey over 2N bits and
the prime-factor period descent in one uint64 lane per filter; the first
filter of every block is measured again by the scalar kernels as a spot
check.  That takes periods N <= complexity.WORD_MAX_PERIOD (L <= 6); a
longer census walks its filters one at a time, like Monte Carlo.  Census
filter objects are built only when records are asked for or the period is
long.

Monte Carlo mode draws uniformly with a per-trial generator seeded by a
counter-based mix (blake2b over master seed and trial index) and measures
each draw with the scalar kernels.  Both modes give bit-identical results
for a given (L, k, seed, trials) no matter how filters are scheduled or how
many workers run them.
"""
from __future__ import annotations

import hashlib
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from math import sqrt
from typing import Iterator

import numpy as np

from . import polytable
from .anf import (ENUMERATION_CAP, FilterFunction, _check_field, census_size,
                  enumerate_filters, format_anf, random_filter, selectable_masks)
from .complexity import (WORD_MAX_PERIOD, min_period_packed, min_period_words,
                         periodic_lc_packed, periodic_lc_words)
from .cosets import nk
from .field import FieldContext
from .lfsr import window_table
from .likelihood import LikelihoodReport, pr_exact

SEED_LIMIT = 1 << 127  # trial_seed packs the master seed into 16 signed bytes
DEFAULT_TRIALS = 20000
CENSUS_BLOCK_BITS = 11  # a census block holds at most 2^11 filters: bounded working memory
_WILSON_Z = 1.959963984540054  # two-sided 95%


@dataclass
class TrialRecord:
    filter_anf: str
    lc: int
    period: int
    is_max: bool


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
    records: list[TrialRecord] | None = field(default=None, repr=False)


@dataclass
class Verdict:
    """Comparison of a run against the analytic report.

    ok is the mode's primary criterion: census counts must match nfm
    exactly, sampling must land within 3 sigma (a z_score of None does
    not).  bound_respected compares against the exponential approximation
    bound_general (with 3 sigma of sampling slack); it is reported for
    context, not gating, since that approximation can sit slightly above
    the true probability.
    """

    exact_match: bool | None
    within_3_sigma: bool | None
    bound_respected: bool
    ok: bool


class _SequenceLab:
    """The one producer of filter output: windows and monomial value vectors.

    A period of output is a packed int with z_n at bit n, the xor of one
    cached value vector per monomial.  A monomial's vector is the AND of its
    taps' vectors, since its value is the product of those window bits.
    A census of word-sized periods takes the same xors a block of filters
    at a time (census_outputs) and measures each block at once
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

    def _vector(self, mask: int) -> int:
        vec = self._vectors.get(mask)
        if vec is None:
            vec = self._ones
            for t, tap in enumerate(self._taps):
                if mask >> t & 1:
                    vec &= tap
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

    def census_outputs(self, k: int, start: int, stop: int) -> Iterator[np.ndarray]:
        """Output periods of census filters start..stop-1, in census blocks.

        Census index i is selector s = i + 2^n_low (anf.selectable_masks), and
        its output is the xor of the vectors of the selector's set bits.  A
        table over the low CENSUS_BLOCK_BITS selector bits is built by subset
        doubling, table[j | 1 << t] = table[j] ^ vec[t]; an aligned block of
        selectors is that table xor the vectors of its shared high bits.
        Lanes are uint64, so the period must be at most WORD_MAX_PERIOD bits.
        """
        pool, n_low = selectable_masks(self.ctx.L, k)
        vecs = [0] * len(pool)
        for mask, bit in pool:
            vecs[bit] = self._vector(mask)
        width = min(CENSUS_BLOCK_BITS, len(pool))
        table = np.zeros(1, np.uint64)
        for vec in vecs[:width]:
            table = np.concatenate([table, table ^ np.uint64(vec)])
        size = 1 << width
        selector, last = start + (1 << n_low), stop + (1 << n_low)
        while selector < last:
            base = selector & -size
            end = min(base + size, last)
            head = 0
            for t in range(width, len(pool)):
                if base >> t & 1:
                    head ^= vecs[t]
            yield table[selector - base:end - base] ^ np.uint64(head)
            selector = end

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


def _measure_chunk(args: tuple[FieldContext, int, int | None, int, int, bool]
                   ) -> tuple[int, int, list | None]:
    """Measure filters lo..hi-1: census indices if seed is None, else seeded draws."""
    ctx, k, seed, lo, hi, collect = args
    lab = _SequenceLab(ctx)
    L = ctx.L
    target = nk(L, k)
    hits_lc = 0
    hits_period = 0
    records = [] if collect else None
    if seed is None and lab.period <= WORD_MAX_PERIOD:
        filters = enumerate_filters(L, k, start=lo, stop=hi) if collect else None
        for z in lab.census_outputs(k, lo, hi):
            lcs, periods = lab.measure_block(z)
            hits_lc += int(np.count_nonzero(lcs == target))
            hits_period += int(np.count_nonzero(periods == lab.period))
            if collect:
                records += [TrialRecord(format_anf(f), lc, per, lc == target)
                            for f, lc, per in zip(islice(filters, len(z)), lcs.tolist(),
                                                  periods.tolist())]
        return hits_lc, hits_period, records
    if seed is None:
        filters = enumerate_filters(L, k, start=lo, stop=hi)
    else:
        filters = (random_filter(L, k, random.Random(trial_seed(seed, i)))
                   for i in range(lo, hi))
    for f in filters:
        lc, per = lab.measure(lab.filter_period_packed(f))
        is_max = lc == target
        hits_lc += is_max
        hits_period += per == lab.period
        if collect:
            records.append(TrialRecord(format_anf(f), lc, per, is_max))
    return hits_lc, hits_period, records


def _measure(ctx: FieldContext, k: int, seed: int | None, total: int, jobs: int,
             collect: bool) -> tuple[int, int, list | None]:
    """Hit counts (and records) over filters 0..total-1, split across workers.

    At most min(jobs, total, cpu count) worker processes; the split never
    changes the result.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    workers = min(jobs, total, os.cpu_count() or 1)
    step = (total + workers - 1) // workers
    chunks = [(ctx, k, seed, lo, min(lo + step, total), collect)
              for lo in range(0, total, step)]
    if len(chunks) == 1:
        results = [_measure_chunk(chunks[0])]
    else:
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            results = list(pool.map(_measure_chunk, chunks))
    records = [rec for r in results for rec in r[2]] if collect else None
    return sum(r[0] for r in results), sum(r[1] for r in results), records


def _z_score(empirical, analytic, trials: int) -> float | None:
    """(empirical - analytic) in standard errors of a trials-filter rate.

    A prediction of probability 0 or 1 has no spread: it is met (z 0.0)
    only by an equal rate, and any other rate has no finite z (None).
    """
    if empirical == analytic:
        return 0.0
    se = sqrt(float(analytic) * (1 - float(analytic)) / trials)
    return float(empirical - analytic) / se if se else None


def _context(L: int, ctx: FieldContext | None) -> FieldContext:
    """The table's field for L, or ctx, which must have length L."""
    if ctx is not None and ctx.L != L:
        raise ValueError(f"the run is for L={L} but the field has L={ctx.L}")
    return polytable.context_for(L) if ctx is None else ctx


def run_exhaustive(L: int, k: int, ctx: FieldContext | None = None, *,
                   jobs: int = 1, collect_records: bool = False) -> ExperimentSummary:
    """Measure every order-k filter; the census against which nfm is judged."""
    ctx = _context(L, ctx)
    total = census_size(L, k)
    hits_lc, hits_period, records = _measure(ctx, k, None, total, jobs, collect_records)
    analytic = pr_exact(L, k)
    empirical = Fraction(hits_lc, total)
    return ExperimentSummary(
        L=L, k=k, mode="exhaustive", trials=total,
        hits_max_lc=hits_lc, hits_max_period=hits_period,
        max_lc_target=nk(L, k), empirical_pr=float(empirical),
        ci_low=None, ci_high=None, seed=None,
        analytic_pr=float(analytic), z_score=_z_score(empirical, analytic, total),
        records=records)


def run_monte_carlo(L: int, k: int, trials: int = DEFAULT_TRIALS, seed: int = 0,
                    ctx: FieldContext | None = None, *, jobs: int = 1,
                    collect_records: bool = False) -> ExperimentSummary:
    """trials uniform filter draws with reproducible per-trial sub-seeds.

    trials is refused past anf.ENUMERATION_CAP, the census's cap, before any
    work starts.
    """
    if not 1 <= trials <= ENUMERATION_CAP:
        raise ValueError(f"trials must lie in [1, {ENUMERATION_CAP}], got {trials}")
    if not -SEED_LIMIT <= seed < SEED_LIMIT:
        raise ValueError(f"seed must lie in [-2^127, 2^127), got {seed}")
    ctx = _context(L, ctx)
    hits_lc, hits_period, records = _measure(ctx, k, seed, trials, jobs, collect_records)
    analytic = float(pr_exact(L, k))
    empirical = hits_lc / trials
    ci_low, ci_high = wilson_interval(hits_lc, trials)
    return ExperimentSummary(
        L=L, k=k, mode="monte-carlo", trials=trials,
        hits_max_lc=hits_lc, hits_max_period=hits_period,
        max_lc_target=nk(L, k), empirical_pr=empirical,
        ci_low=ci_low, ci_high=ci_high, seed=seed,
        analytic_pr=analytic, z_score=_z_score(empirical, analytic, trials),
        records=records)


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
