import random

import pytest

from filtropt import (LfsrGenerator, berlekamp_massey, context_for,
                      linear_complexity_periodic, min_period)
from filtropt.complexity import (berlekamp_massey_packed, bits_to_int,
                                 min_period_packed, periodic_lc_packed,
                                 regenerates)

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
