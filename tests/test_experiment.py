import dataclasses
import random
import tracemalloc
import types

import numpy as np
import pytest

from filtropt import (compare, context_for, count_filters, enumerate_filters,
                      filter_sequence, format_anf, linear_complexity_periodic, min_period, nfm,
                      parse_anf, pr_report, random_filter, run_exhaustive,
                      run_monte_carlo, wilson_interval)
from filtropt import cli, experiment
from filtropt.complexity import bits_to_int
from filtropt.experiment import TrialRecord, _SequenceLab, trial_seed
from filtropt.limits import CENSUS_BLOCK_BITS, ENUMERATION_CAP


def test_census_l3_k2():
    rows = []
    s = run_exhaustive(3, 2, rows=rows.append)
    assert s.mode == "exhaustive"
    assert s.trials == 56
    assert s.hits_max_lc == 49 == nfm(3, 2)
    assert s.hits_max_period == 56
    assert s.max_lc_target == 6
    assert s.empirical_pr == 49 / 56
    assert s.z_score == 0.0
    assert len(rows) == 56
    for rec in rows:
        assert rec.is_max == (rec.lc == 6)
        if rec.is_max:
            assert rec.period == 7


def test_census_l4_k2_non_prime():
    s = run_exhaustive(4, 2)
    assert (s.trials, s.hits_max_lc) == (1008, 675)
    # period < 15 forces the spectrum into a single short coset: 3 filters
    # live on the cardinal-2 coset (period 3) and 15 on coset 3 (period 5)
    assert s.hits_max_period == 1008 - 18
    assert s.hits_max_period >= s.hits_max_lc
    assert s.hits_max_period == sum(n for (_, per), n in s.histogram.items() if per == 15)


# the (lc, period) census histogram, measured; the same for every primitive polynomial
CENSUS_HISTOGRAMS = {
    (4, 2): {(2, 3): 3, (4, 5): 15, (6, 15): 90, (8, 15): 225, (10, 15): 675},
    (4, 3): {(4, 15): 15, (6, 15): 45, (8, 15): 450, (10, 15): 1350, (12, 15): 3375,
             (14, 15): 10125},
    (5, 2): {(5, 31): 62, (10, 31): 2883, (15, 31): 29791},
}
PRIMITIVE_POLYS = {4: [0x13, 0x19], 5: [0x25, 0x29, 0x2F, 0x37, 0x3B, 0x3D]}


def test_primitive_polys_are_all_of_their_degree():
    for L, polys in PRIMITIVE_POLYS.items():
        found = []
        for poly in range((1 << L) + 1, 2 << L, 2):
            try:
                context_for(L, poly)
            except ValueError:
                continue
            found.append(poly)
        assert found == polys


@pytest.mark.parametrize("L, k", sorted(CENSUS_HISTOGRAMS))
def test_census_histogram_is_polynomial_independent(L, k):
    for poly in PRIMITIVE_POLYS[L]:
        s = run_exhaustive(L, k, context_for(L, poly))
        assert s.histogram == CENSUS_HISTOGRAMS[L, k], hex(poly)
        assert sum(s.histogram.values()) == s.trials
        assert s.hits_max_lc == s.histogram[s.max_lc_target, (1 << L) - 1] == nfm(L, k)


def test_rows_stream_before_the_next_census_block(monkeypatch):
    events = []
    measure_block = _SequenceLab.measure_block
    monkeypatch.setattr(_SequenceLab, "measure_block",
                        lambda self, z: events.append("block") or measure_block(self, z))
    run_exhaustive(5, 2, rows=events.append)
    assert events.count("block") == 16
    assert isinstance(events[1], TrialRecord) and events.index("block", 1) > 1


def test_census_cap():
    with pytest.raises(ValueError, match="cap"):
        run_exhaustive(16, 8)


def test_census_jobs_invariance():
    # (5, 2) is 16 census blocks, so jobs=4 starts real worker processes
    a_rows, b_rows = [], []
    a = run_exhaustive(5, 2, rows=a_rows.append)
    b = run_exhaustive(5, 2, jobs=4, rows=b_rows.append)
    assert (a.hits_max_lc, a.hits_max_period) == (b.hits_max_lc, b.hits_max_period)
    assert a.histogram == b.histogram
    assert [r.filter_anf for r in a_rows] == [r.filter_anf for r in b_rows]


def test_monte_carlo_determinism_and_jobs_invariance():
    a_rows, c_rows = [], []
    a = run_monte_carlo(5, 2, 300, 11, rows=a_rows.append)
    b = run_monte_carlo(5, 2, 300, 11)
    c = run_monte_carlo(5, 2, 300, 11, jobs=3, rows=c_rows.append)
    assert a.hits_max_lc == b.hits_max_lc == c.hits_max_lc
    assert a.hits_max_period == c.hits_max_period
    assert [r.filter_anf for r in a_rows] == [r.filter_anf for r in c_rows]
    assert (a.ci_low, a.ci_high, a.z_score) == (c.ci_low, c.ci_high, c.z_score)


def test_monte_carlo_different_seeds_differ():
    a, b = [], []
    run_monte_carlo(5, 2, 300, 11, rows=a.append)
    run_monte_carlo(5, 2, 300, 12, rows=b.append)
    assert [r.filter_anf for r in a] != [r.filter_anf for r in b]


def test_monte_carlo_validation():
    with pytest.raises(ValueError):
        run_monte_carlo(5, 2, 0, 1)
    with pytest.raises(ValueError, match="capped"):
        run_monte_carlo(17, 2, 10, 1)


def test_monte_carlo_seed_range():
    for seed in (-(1 << 127), (1 << 127) - 1):
        assert run_monte_carlo(4, 2, 5, seed).trials == 5
    for seed in (1 << 127, -(1 << 127) - 1):
        with pytest.raises(ValueError, match="seed"):
            run_monte_carlo(4, 2, 5, seed)


def test_runs_refuse_a_field_of_another_length():
    # a field of another length would measure filters of that length while
    # the counts, the target nk and the verdict stayed those of L
    with pytest.raises(ValueError, match="L=5 but the field has L=6"):
        run_exhaustive(5, 2, context_for(6))
    with pytest.raises(ValueError, match="L=5 but the field has L=7"):
        run_monte_carlo(5, 2, 50, 1, context_for(7))
    assert run_exhaustive(5, 2, context_for(5)).hits_max_lc == nfm(5, 2)


def test_lab_refuses_a_filter_of_another_length(ctx5):
    lab = _SequenceLab(ctx5)
    for L in (4, 6):
        f = random_filter(L, 2, random.Random(L))
        with pytest.raises(ValueError, match=f"filter has L={L} but the field has L=5"):
            lab.filter_period_packed(f)
        with pytest.raises(ValueError, match=f"filter has L={L} but the field has L=5"):
            filter_sequence(f, ctx5)


@pytest.mark.parametrize("L", [3, 4, 5, 7, 11])
def test_lab_matches_per_bit_producer(L):
    ctx = context_for(L)
    rng = random.Random(300 + L)
    for _ in range(6):
        state = rng.randrange(1, 1 << L)
        lab = _SequenceLab(ctx, state)
        for _ in range(4):
            f = random_filter(L, rng.randrange(1, min(L, 4) + 1), rng)
            want = filter_sequence(f, ctx, state)
            assert lab.filter_period_packed(f) == bits_to_int(want)


def test_vector_cache_stays_within_its_bound(monkeypatch):
    # room for 10 of the 16-byte L = 7 vectors; a k = 4 draw has ~50 monomials
    unbounded = _SequenceLab(context_for(7))
    monkeypatch.setattr(experiment, "VECTOR_CACHE_BYTES", 10 * 16)
    bounded = _SequenceLab(context_for(7))
    rng = random.Random(7)
    for _ in range(20):
        f = random_filter(7, 4, rng)
        want = bits_to_int(filter_sequence(f, context_for(7)))
        assert bounded.filter_period_packed(f) == unbounded.filter_period_packed(f) == want
        assert len(bounded._vectors) <= 10
    assert len(bounded._vectors) == 10 < len(unbounded._vectors)
    capped = run_monte_carlo(7, 4, 200, 3)
    monkeypatch.undo()
    assert capped == run_monte_carlo(7, 4, 200, 3)


def test_records_follow_non_default_poly():
    ctx = context_for(5, 0x29)
    assert ctx.modulus != context_for(5).modulus

    def oracle(rec):
        z = filter_sequence(parse_anf(rec.filter_anf, 5), ctx)
        return rec.lc == linear_complexity_periodic(z) and rec.period == min_period(z)

    census, mc = [], []
    run_exhaustive(5, 2, ctx, rows=census.append)
    assert all(oracle(rec) for rec in random.Random(29).sample(census, 600))
    run_monte_carlo(5, 2, 300, 29, ctx, rows=mc.append)
    assert all(oracle(rec) for rec in mc)


class _FakePool:
    """Stands in for ProcessPoolExecutor: records max_workers and the most calls
    submitted and not yet read, and runs each call in-process when it is read."""

    sizes: list[int] = []
    most_unread: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)
        self.most_unread.append(0)
        self.unread = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.unread += 1
        self.most_unread[-1] = max(self.most_unread[-1], self.unread)
        return types.SimpleNamespace(result=lambda: self._read(fn, args))

    def _read(self, fn, args):
        self.unread -= 1
        return fn(*args)


def test_jobs_clamped_to_chunks_and_cpus(monkeypatch):
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", _FakePool)
    monkeypatch.setattr(_FakePool, "sizes", [])
    monkeypatch.setattr(experiment.os, "cpu_count", lambda: 4)
    serial, pooled = [], []
    run_exhaustive(5, 2, rows=serial.append)  # 16 census blocks: 4 workers
    run_exhaustive(5, 2, jobs=8, rows=pooled.append)
    assert pooled == serial
    run_monte_carlo(5, 2, 3, 1, jobs=8)  # 3 one-draw chunks: 3 workers
    assert _FakePool.sizes == [4, 3]
    monkeypatch.setattr(experiment.os, "cpu_count", lambda: None)
    run_monte_carlo(5, 2, 3, 1, jobs=8)
    assert _FakePool.sizes == [4, 3]


def test_workers_run_at_most_two_chunks_each_ahead(monkeypatch):
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", _FakePool)
    monkeypatch.setattr(_FakePool, "sizes", [])
    monkeypatch.setattr(_FakePool, "most_unread", [])
    monkeypatch.setattr(experiment.os, "cpu_count", lambda: 2)
    for run in (lambda **kw: run_exhaustive(5, 2, **kw),  # 16 census blocks
                lambda **kw: run_monte_carlo(5, 2, 400, 3, **kw)):  # 8 or more draws
        serial, pooled = [], []
        assert run(jobs=2, rows=pooled.append) == run(rows=serial.append)
        assert pooled == serial
    assert _FakePool.sizes == [2, 2] and _FakePool.most_unread == [4, 4]


def _record_chunks(monkeypatch) -> list[tuple[int, int]]:
    """The (lo, hi) of every chunk measured from now on, in the order measured."""
    chunks = []
    measure_chunk = experiment._measure_chunk
    monkeypatch.setattr(experiment, "_measure_chunk",
                        lambda args: chunks.append(args[3:5]) or measure_chunk(args))
    return chunks


def test_monte_carlo_chunks_leave_every_worker_some(monkeypatch):
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", _FakePool)
    monkeypatch.setattr(_FakePool, "sizes", [])
    monkeypatch.setattr(experiment.os, "cpu_count", lambda: 2)
    chunks = _record_chunks(monkeypatch)
    run_monte_carlo(5, 2, 400, 3, jobs=2)
    assert len(chunks) >= 8 and _FakePool.sizes == [2]
    assert [lo for lo, _ in chunks[1:]] == [hi for _, hi in chunks[:-1]]
    assert (chunks[0][0], chunks[-1][1]) == (0, 400)


@pytest.mark.parametrize("L, first", [(5, 2016), (6, 1984)])
def test_each_census_chunk_is_one_census_block(monkeypatch, L, first):
    # census index i is selector i + 2^L here, and a block is 2^11 selectors
    chunks = _record_chunks(monkeypatch)
    blocks = []
    monkeypatch.setattr(_SequenceLab, "measure_block", lambda self, z: blocks.append(len(z))
                        or (np.zeros(len(z), np.int64),) * 2)
    run_exhaustive(L, 2)
    assert blocks == [hi - lo for lo, hi in chunks]
    assert chunks[0] == (0, first) and chunks[-1][1] == count_filters(L, 2)
    assert all((lo + (1 << L)) % (1 << CENSUS_BLOCK_BITS) == 0
               for lo, _ in chunks[1:])
    assert [lo for lo, _ in chunks[1:]] == [hi for _, hi in chunks[:-1]]


def test_max_lc_implies_max_period_per_trial():
    rows = []
    s = run_monte_carlo(6, 3, 400, 5, rows=rows.append)
    period = (1 << 6) - 1
    for rec in rows:
        assert rec.is_max == (rec.lc == s.max_lc_target)
        if rec.is_max:
            assert rec.period == period
    assert s.hits_max_period >= s.hits_max_lc


def test_compare_census_exact_match():
    s = run_exhaustive(3, 2)
    rep = pr_report(3, 2)
    v = compare(s, rep)
    assert v.exact_match is True
    assert v.within_3_sigma is None
    assert v.ok is True


def test_compare_census_against_corrupted_report():
    s = run_exhaustive(3, 2)
    rep = pr_report(3, 2)
    bad = dataclasses.replace(rep, nfm=rep.nfm + 1)
    v = compare(s, bad)
    assert v.exact_match is False
    assert v.ok is False


def test_compare_monte_carlo_sigma_gate():
    s = run_monte_carlo(5, 2, 500, 3)
    rep = pr_report(5, 2)
    assert compare(s, rep).within_3_sigma == (abs(s.z_score) <= 3)
    forged = dataclasses.replace(s, z_score=10.0)
    v = compare(forged, rep)
    assert v.within_3_sigma is False
    assert v.ok is False


def test_compare_requires_matching_parameters():
    s = run_exhaustive(3, 2)
    with pytest.raises(ValueError):
        compare(s, pr_report(4, 2))


def test_compare_exhaustive_needs_exact_report():
    s = run_exhaustive(3, 2)
    rep = pr_report(3, 2)
    log_only = dataclasses.replace(rep, nfm=None, mode="log-domain")
    with pytest.raises(ValueError, match="exact-mode"):
        compare(s, log_only)


def test_wilson_interval_behavior():
    lo, hi = wilson_interval(490, 500)
    assert 0 < lo < 490 / 500 < hi < 1
    lo, hi = wilson_interval(500, 500)
    assert hi == 1.0 and lo > 0.98
    with pytest.raises(ValueError):
        wilson_interval(1, 0)


def test_trial_seed_mixing():
    assert trial_seed(42, 0) == trial_seed(42, 0)
    seen = {trial_seed(42, i) for i in range(1000)}
    assert len(seen) == 1000
    assert trial_seed(42, 1) != trial_seed(43, 1)
    assert trial_seed(-5, 7) != trial_seed(5, 7)


@pytest.mark.parametrize("L, k", [(L, k) for L in range(2, 6) for k in range(1, L + 1)
                                  if count_filters(L, k) <= ENUMERATION_CAP])
def test_census_outputs_match_per_filter_producer(L, k):
    ctx = context_for(L)
    lab = _SequenceLab(ctx)
    total = count_filters(L, k)
    want = [lab.filter_period_packed(f) for f in enumerate_filters(L, k)]
    chunks = experiment._chunks(ctx, k, None, total, 1)
    blocks = [lab.census_block(k, lo, hi) for lo, hi in chunks]
    assert all(1 <= len(z) <= 1 << CENSUS_BLOCK_BITS for z in blocks)
    assert [int(v) for z in blocks for v in z] == want
    # a part of a block
    lo, hi = chunks[-1]
    assert [int(v) for v in lab.census_block(k, lo + 1, hi - 1)] == want[lo + 1:hi - 1]


def test_census_past_one_word_measures_each_filter():
    # L = 7: 127-bit periods do not fit a word lane, so the census walks its
    # filters one at a time through the scalar kernels, in census order
    rows = []
    census = run_exhaustive(7, 1, rows=rows.append)
    lab = _SequenceLab(context_for(7))
    want = [lab.measure(lab.filter_period_packed(f)) for f in enumerate_filters(7, 1)]
    assert [(rec.lc, rec.period) for rec in rows] == want
    assert [rec.filter_anf for rec in rows] == [
        format_anf(f) for f in enumerate_filters(7, 1)]
    assert (census.hits_max_lc, census.hits_max_period) == (nfm(7, 1), 127)


def test_census_split_identity_l5(monkeypatch):
    # 32736 filters in 16 census blocks, the first 2016 long; the same cuts
    # at any worker count
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", _FakePool)
    monkeypatch.setattr(experiment.os, "cpu_count", lambda: 2)
    chunks = _record_chunks(monkeypatch)
    serial_rows, pooled_rows = [], []
    serial = run_exhaustive(5, 2, rows=serial_rows.append)
    pooled = run_exhaustive(5, 2, jobs=2, rows=pooled_rows.append)
    cuts = [(0, 2016)] + [(lo, lo + 2048) for lo in range(2016, 32736, 2048)]
    assert chunks == cuts + cuts and len(cuts) == 16
    assert pooled == serial
    assert pooled_rows == serial_rows and len(serial_rows) == 32736
    assert (serial.hits_max_lc, serial.hits_max_period) == (nfm(5, 2), 32736)


@pytest.mark.parametrize("patched", ["periodic_lc_packed", "min_period_packed"])
def test_census_spot_check_catches_a_disagreeing_kernel(monkeypatch, patched):
    original = getattr(experiment, patched)
    monkeypatch.setattr(experiment, patched, lambda z, n: original(z, n) + 1)
    with pytest.raises(AssertionError, match="word kernels"):
        run_exhaustive(3, 2)
    assert cli.main(["enumerate", "-L", "3", "-k", "2"]) == 3


def test_census_working_memory_is_bounded():
    run_exhaustive(5, 2)  # warm the per-(L, k) caches
    tracemalloc.start()
    try:
        run_exhaustive(5, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_census_outputs_of_an_empty_range():
    lab = _SequenceLab(context_for(4))
    assert len(lab.census_block(2, 7, 7)) == 0


@pytest.mark.parametrize("start, stop", [(0, 3000), (2000, 2100)])
def test_census_block_refuses_a_range_that_leaves_it(start, stop):
    # at L = 5 census index i is selector i + 32, and block 0 is selectors 0..2047
    lab = _SequenceLab(context_for(5))
    with pytest.raises(ValueError, match="census block 0"):
        lab.census_block(2, start, stop)
