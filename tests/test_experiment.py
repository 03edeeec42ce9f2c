import dataclasses
import random
import tracemalloc

import pytest

from filtropt import (compare, context_for, count_filters, enumerate_filters,
                      filter_sequence, format_anf, linear_complexity_periodic, min_period, nfm,
                      parse_anf, pr_report, random_filter, run_exhaustive,
                      run_monte_carlo, wilson_interval)
from filtropt import cli, experiment
from filtropt.anf import ENUMERATION_CAP
from filtropt.complexity import bits_to_int
from filtropt.experiment import _SequenceLab, trial_seed


def test_census_l3_k2():
    s = run_exhaustive(3, 2, collect_records=True)
    assert s.mode == "exhaustive"
    assert s.trials == 56
    assert s.hits_max_lc == 49 == nfm(3, 2)
    assert s.hits_max_period == 56
    assert s.max_lc_target == 6
    assert s.empirical_pr == 49 / 56
    assert s.z_score == 0.0
    assert len(s.records) == 56
    for rec in s.records:
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


def test_census_cap():
    with pytest.raises(ValueError, match="cap"):
        run_exhaustive(16, 8)


def test_census_jobs_invariance():
    a = run_exhaustive(4, 2, collect_records=True)
    b = run_exhaustive(4, 2, jobs=4, collect_records=True)
    assert (a.hits_max_lc, a.hits_max_period) == (b.hits_max_lc, b.hits_max_period)
    assert [r.filter_anf for r in a.records] == [r.filter_anf for r in b.records]


def test_monte_carlo_determinism_and_jobs_invariance():
    a = run_monte_carlo(5, 2, 300, 11, collect_records=True)
    b = run_monte_carlo(5, 2, 300, 11, collect_records=True)
    c = run_monte_carlo(5, 2, 300, 11, jobs=3, collect_records=True)
    assert a.hits_max_lc == b.hits_max_lc == c.hits_max_lc
    assert a.hits_max_period == c.hits_max_period
    assert [r.filter_anf for r in a.records] == [r.filter_anf for r in c.records]
    assert (a.ci_low, a.ci_high, a.z_score) == (c.ci_low, c.ci_high, c.z_score)


def test_monte_carlo_different_seeds_differ():
    a = run_monte_carlo(5, 2, 300, 11, collect_records=True)
    b = run_monte_carlo(5, 2, 300, 12, collect_records=True)
    assert [r.filter_anf for r in a.records] != [r.filter_anf for r in b.records]


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


def test_records_follow_non_default_poly():
    ctx = context_for(5, 0x29)
    assert ctx.modulus != context_for(5).modulus

    def oracle(rec):
        z = filter_sequence(parse_anf(rec.filter_anf, 5), ctx)
        return rec.lc == linear_complexity_periodic(z) and rec.period == min_period(z)

    census = run_exhaustive(5, 2, ctx, collect_records=True)
    assert all(oracle(rec) for rec in random.Random(29).sample(census.records, 600))
    mc = run_monte_carlo(5, 2, 300, 29, ctx, collect_records=True)
    assert all(oracle(rec) for rec in mc.records)


class _FakePool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs in-process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_jobs_clamped_to_chunks_and_cpus(monkeypatch):
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", _FakePool)
    monkeypatch.setattr(_FakePool, "sizes", [])
    monkeypatch.setattr(experiment.os, "cpu_count", lambda: 4)
    serial = run_exhaustive(4, 2, collect_records=True)
    pooled = run_exhaustive(4, 2, jobs=8, collect_records=True)
    assert pooled.records == serial.records
    run_monte_carlo(5, 2, 3, 1, jobs=8)
    assert _FakePool.sizes == [4, 3]
    monkeypatch.setattr(experiment.os, "cpu_count", lambda: None)
    run_monte_carlo(5, 2, 3, 1, jobs=8)
    assert _FakePool.sizes == [4, 3]


def test_max_lc_implies_max_period_per_trial():
    s = run_monte_carlo(6, 3, 400, 5, collect_records=True)
    period = (1 << 6) - 1
    for rec in s.records:
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
    lab = _SequenceLab(context_for(L))
    total = count_filters(L, k)
    want = [lab.filter_period_packed(f) for f in enumerate_filters(L, k)]
    for lo, hi in {(0, total), (total // 3, total - 1), (5, min(total, 2100))}:
        blocks = list(lab.census_outputs(k, lo, hi))
        assert all(1 <= len(z) <= 1 << experiment.CENSUS_BLOCK_BITS for z in blocks)
        assert [int(v) for z in blocks for v in z] == want[lo:hi]


def test_census_past_one_word_measures_each_filter():
    # L = 7: 127-bit periods do not fit a word lane, so the census walks its
    # filters one at a time through the scalar kernels, in census order
    census = run_exhaustive(7, 1, collect_records=True)
    lab = _SequenceLab(context_for(7))
    want = [lab.measure(lab.filter_period_packed(f)) for f in enumerate_filters(7, 1)]
    assert [(rec.lc, rec.period) for rec in census.records] == want
    assert [rec.filter_anf for rec in census.records] == [
        format_anf(f) for f in enumerate_filters(7, 1)]
    assert (census.hits_max_lc, census.hits_max_period) == (nfm(7, 1), 127)


def test_census_split_identity_l5(monkeypatch):
    # two workers split 32736 filters at 16368, inside a census block
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", _FakePool)
    monkeypatch.setattr(experiment.os, "cpu_count", lambda: 2)
    chunks = []
    measure_chunk = experiment._measure_chunk
    monkeypatch.setattr(experiment, "_measure_chunk",
                        lambda args: chunks.append(args[3:5]) or measure_chunk(args))
    serial = run_exhaustive(5, 2, collect_records=True)
    pooled = run_exhaustive(5, 2, jobs=2, collect_records=True)
    assert chunks == [(0, 32736), (0, 16368), (16368, 32736)]
    assert 16368 % (1 << experiment.CENSUS_BLOCK_BITS)
    assert pooled == serial
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
    assert list(lab.census_outputs(2, 7, 7)) == []
