import random

import pytest
from hypothesis import given, strategies as st

from filtropt import (LfsrGenerator, berlekamp_massey, context_for,
                      linear_complexity_periodic, min_period, random_filter)
from filtropt.complexity import (berlekamp_massey_packed, bits_to_int,
                                 min_period_packed, periodic_lc_packed,
                                 regenerates)
from filtropt.experiment import _SequenceLab

from oracles import brute_force_lfsr_length, naive_min_period, reciprocal


def test_bm_zero_sequence():
    r = berlekamp_massey([0] * 12)
    assert r.lc == 0
    assert r.minimal_poly == 1
    assert berlekamp_massey([]).lc == 0


def test_bm_alternating():
    bits = [1, 0] * 8
    r = berlekamp_massey(bits)
    assert r.lc == 2
    assert brute_force_lfsr_length(bits) == 2
    assert regenerates(bits, r)


def test_bm_m_sequence(ctx3):
    bits = LfsrGenerator(ctx3).output_bits(14)
    r = berlekamp_massey(bits)
    assert r.lc == 3
    assert r.minimal_poly == reciprocal(ctx3.modulus, 3)
    assert brute_force_lfsr_length(bits) == 3


def test_bm_leading_zeros():
    r = berlekamp_massey([0, 0, 1])
    assert r.lc == 3
    assert brute_force_lfsr_length([0, 0, 1]) == 3


def test_bm_matches_brute_force_randomized():
    rng = random.Random(404)
    for _ in range(100):
        n = rng.randrange(1, 41)
        bits = [rng.getrandbits(1) for _ in range(n)]
        r = berlekamp_massey(bits)
        assert r.lc == brute_force_lfsr_length(bits)
        assert regenerates(bits, r)


def test_bm_packed_agrees_with_list_form():
    rng = random.Random(405)
    for _ in range(50):
        n = rng.randrange(1, 60)
        bits = [rng.getrandbits(1) for _ in range(n)]
        packed = bits_to_int(bits)
        r = berlekamp_massey(bits)
        assert berlekamp_massey_packed(packed, n) == (r.lc, r.minimal_poly)


def test_periodic_lc_m_sequence(ctx5):
    bits = LfsrGenerator(ctx5).period_bits()
    assert linear_complexity_periodic(bits) == 5
    assert periodic_lc_packed(bits_to_int(bits), len(bits)) == 5


def test_periodic_lc_all_ones():
    assert linear_complexity_periodic([1] * 9) == 1


def test_periodic_lc_empty_rejected():
    with pytest.raises(ValueError):
        linear_complexity_periodic([])


def test_periodic_lc_cross_module(ctx3):
    # order-2 filter output: complexity is at most nk(3,2) = 6, and exactly 6
    # iff both weight-<=2 cosets carry a nonzero coefficient
    from filtropt import dft, filter_sequence, lc_from_spectrum, parse_anf

    gen = LfsrGenerator(ctx3)
    z = filter_sequence(parse_anf("x0 + x0*x1", 3), gen, 7)
    lc = linear_complexity_periodic(z)
    assert 1 <= lc <= 6
    spec = dft(bits_to_int(z), ctx3)
    assert lc == lc_from_spectrum(spec)
    assert (lc == 6) == (set(spec.lines) == {1, 3})


def test_min_period_examples():
    assert min_period([1] * 6) == 1
    assert min_period([1, 0, 1, 1, 0, 1]) == 3
    for L in (3, 5, 8):
        bits = LfsrGenerator(context_for(L)).period_bits()
        assert min_period(bits) == (1 << L) - 1
    with pytest.raises(ValueError):
        min_period([])


def test_min_period_matches_naive():
    rng = random.Random(406)
    for _ in range(100):
        d = rng.randrange(1, 7)
        reps = rng.randrange(1, 5) * 2
        block = [rng.getrandbits(1) for _ in range(d)]
        bits = block * reps
        assert min_period(bits) == naive_min_period(bits)
        assert min_period_packed(bits_to_int(bits), len(bits)) == naive_min_period(bits)


def test_minimal_poly_degree_tracks_lc_when_oldest_tap_used():
    # m-sequences always use their oldest tap; degenerate prefixes may not
    bits = LfsrGenerator(context_for(4)).output_bits(30)
    r = berlekamp_massey(bits)
    assert r.minimal_poly.bit_length() - 1 == r.lc


@pytest.mark.parametrize("measure", [periodic_lc_packed, min_period_packed])
@pytest.mark.parametrize("z, period", [(7, 0), (0, 0), (1, -3), (-5, 3), (0b1111, 2)])
def test_packed_measurements_reject_bad_period(measure, z, period):
    with pytest.raises(ValueError):
        measure(z, period)


def _bits(z, n):
    return [z >> i & 1 for i in range(n)]


def _assert_packed_match_oracles(z, n):
    bits = _bits(z, n)
    assert periodic_lc_packed(z, n) == linear_complexity_periodic(bits)
    assert min_period_packed(z, n) == naive_min_period(bits)


# Lengths up to 1100 span one to nine Berlekamp-Massey blocks of the doubled
# period and include 2^L - 1 (L <= 10) as well as lengths of every other shape.
_lengths = st.integers(1, 1100)


@given(st.data(), _lengths)
def test_packed_match_oracles_on_random_strings(data, n):
    # lc near n: the certificate never fires and every block is read
    _assert_packed_match_oracles(data.draw(st.integers(0, (1 << n) - 1)), n)


@given(st.data(), _lengths, st.randoms(use_true_random=False))
def test_packed_match_oracles_on_short_periods(data, n, rng):
    # every divisor d of n, optionally with one bit flipped: a long
    # low-complexity prefix whose connection polynomial then fails the
    # certificate once before the flip is read
    flip = data.draw(st.none() | st.integers(0, n - 1))
    for d in (d for d in range(1, n + 1) if n % d == 0):
        block = rng.getrandbits(d)
        z = sum(block << s for s in range(0, n, d))
        if flip is not None:
            z ^= 1 << flip
        _assert_packed_match_oracles(z, n)


@pytest.mark.parametrize("n", [1, 2, 7, 128, 129, 255, 600, 1023, 1100])
def test_packed_match_oracles_on_constant_and_single_one(n):
    for z in (0, (1 << n) - 1, 1, 1 << (n - 1), 1 << (n // 2)):
        _assert_packed_match_oracles(z, n)


@given(st.integers(6, 10), st.integers(1, 5), st.randoms(use_true_random=False))
def test_periodic_lc_packed_matches_full_bm_on_filter_outputs(L, k, rng):
    ctx = context_for(L)
    lab = _SequenceLab(ctx)
    z = lab.filter_period_packed(random_filter(L, k, rng))
    assert periodic_lc_packed(z, ctx.order) == linear_complexity_periodic(_bits(z, ctx.order))


def test_packed_match_oracles_exhaustive_period_15():
    for z in range(1 << 15):
        _assert_packed_match_oracles(z, 15)
