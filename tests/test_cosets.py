import time
from math import comb

import pytest

from filtropt import (CyclotomicCoset, cardinal_counts, coset_period, cosets_up_to_weight,
                      nk, pr_report)

from oracles import cardinal_counts_reference, coset_reference


def _coset(e, L):
    return CyclotomicCoset(*coset_reference(e, L))


def test_coset_of_examples():
    # the coset table holds, for each exponent, the entry the oracle names
    def table_coset(e, L):
        entry = {c.leader: c for c in cosets_up_to_weight(L, L)}[coset_reference(e, L)[0]]
        assert entry == _coset(e, L)
        return entry

    c = table_coset(1, 5)
    assert (c.leader, c.cardinal, c.weight) == (1, 5, 1)
    assert all(table_coset(e, 5) == c for e in (1, 2, 4, 8, 16))
    c = table_coset(5, 4)
    assert (c.leader, c.cardinal, c.weight) == (5, 2, 2)
    assert table_coset(10, 4) == c
    assert table_coset(6, 5) == table_coset(3, 5)
    assert table_coset(6, 5).leader == 3
    # every member of an orbit, reached by doubling, maps back to its leader
    c = table_coset(11, 6)
    orbit = {(11 << i) % 63 for i in range(6)}
    assert len(orbit) == c.cardinal == 6 and c.leader == min(orbit) == 11
    assert all(table_coset(e, 6) == c for e in orbit)


def test_cosets_up_to_weight_examples():
    assert [c.leader for c in cosets_up_to_weight(5, 2)] == [1, 3, 5]
    assert [c.leader for c in cosets_up_to_weight(3, 2)] == [1, 3]
    l4 = cosets_up_to_weight(4, 2)
    assert [c.leader for c in l4] == [1, 3, 5]
    assert [c.cardinal for c in l4] == [4, 4, 2]
    with pytest.raises(ValueError):
        cosets_up_to_weight(4, 0)


def test_constant_coset_only_at_full_weight():
    full = cosets_up_to_weight(4, 4)
    assert full[-1] == CyclotomicCoset(15, 1, 4)
    assert all(c.leader != 15 for c in cosets_up_to_weight(4, 3))
    assert coset_period(full[-1], 4) == 1


def test_nk_examples():
    assert nk(5, 2) == 15
    assert nk(3, 2) == 6
    for L in (3, 4, 7):
        assert nk(L, L) == (1 << L) - 1
    with pytest.raises(ValueError):
        nk(5, 6)


def test_coset_period_examples():
    for L in (3, 4, 6):
        assert coset_period(_coset(1, L), L) == (1 << L) - 1
    assert coset_period(_coset(5, 4), 4) == 3
    for c in cosets_up_to_weight(6, 6):
        assert ((1 << 6) - 1) % coset_period(c, 6) == 0


@pytest.mark.parametrize("L", [3, 5, 7, 11, 13])
def test_prime_length_cardinals(L):
    cs = cosets_up_to_weight(L, L - 1)  # leave out the weight-L constant coset
    assert all(c.cardinal == L for c in cs)
    for k in range(1, L):
        assert nk(L, k) % L == 0
        assert len(cosets_up_to_weight(L, k)) == nk(L, k) // L


@pytest.mark.parametrize("L", range(2, 17))
def test_weight_classes_cover_binomials(L):
    per_weight = {}
    for c in cosets_up_to_weight(L, L):
        per_weight[c.weight] = per_weight.get(c.weight, 0) + c.cardinal
    for w in range(1, L + 1):
        assert per_weight.get(w, 0) == comb(L, w)


@pytest.mark.parametrize("L", range(2, 17))
def test_cosets_partition_exponent_range(L):
    n = (1 << L) - 1
    table = {c.leader: c for c in cosets_up_to_weight(L, L - 1)}
    for e in range(1, n):
        c = _coset(e, L)
        assert table[c.leader] == c
    assert sum(c.cardinal for c in table.values()) == n - 1


@pytest.mark.parametrize("L", range(2, 17))
def test_cardinal_counts_match_enumeration(L):
    for k in {1, 2, L // 2, L - 1, L}:
        if k < 1:
            continue
        enumerated = {}
        for c in cosets_up_to_weight(L, k):
            enumerated[c.cardinal] = enumerated.get(c.cardinal, 0) + 1
        assert cardinal_counts(L, k) == enumerated
        assert sum(cardinal_counts(L, k).values()) == len(cosets_up_to_weight(L, k))


def test_cardinal_counts_large_prime_length():
    counts = cardinal_counts(257, 128)
    assert set(counts) == {257}
    assert counts[257] == (2**256 - 1) // 257
    assert sum(d * c for d, c in counts.items()) == nk(257, 128)


def test_cardinal_counts_large_composite_length():
    # L = 24: orbit sizes must divide 24 and cover all binomials up to weight 3
    counts = cardinal_counts(24, 3)
    assert sum(d * c for d, c in counts.items()) == nk(24, 3)
    assert all(24 % d == 0 for d in counts)


def test_cardinal_counts_bounded_range_matches_unbounded():
    # the oracle inverts by Moebius, with the block weight running over all
    # of 1..d and the blocks too heavy for weight k filtered out; the package
    # subtracts smaller orbit sizes and stops each block weight at k // rep
    for L in range(2, 49):
        for k in range(1, L + 1):
            assert cardinal_counts(L, k) == cardinal_counts_reference(L, k), (L, k)


@pytest.mark.parametrize("k", [2, 3])
def test_cardinal_counts_many_divisors(k):
    # 720720 = 2^4 3^2 5 7 11 13 has 240 divisors, each of whose orbit
    # counts subtracts those of all its own divisors
    assert cardinal_counts(720720, k) == cardinal_counts_reference(720720, k)


def test_cardinal_counts_huge_length():
    # 10^8 has 81 divisors; the block-weight sums stop at k // rep
    L = 10**8
    counts = cardinal_counts(L, 3)
    assert sum(d * c for d, c in counts.items()) == nk(L, 3)
    assert all(L % d == 0 for d in counts)


def test_large_length_and_order_is_fast():
    # prob -L 10000 -k 5000 must answer interactively: each binomial sum
    # steps one binomial from the last instead of calling comb per term
    L, k = 10_000, 5_000
    t0 = time.perf_counter()
    counts = cardinal_counts(L, k)
    report = pr_report(L, k)
    elapsed = time.perf_counter() - t0
    # C(L,0) + ... + C(L,L/2) = (2^L + C(L,L/2)) / 2 for even L
    assert nk(L, k) == (2**L + comb(L, k)) // 2 - 1
    assert sum(d * c for d, c in counts.items()) == nk(L, k) == report.nk_value
    assert report.mode == "log-domain"
    assert elapsed < 5.0


def test_enumeration_cap():
    with pytest.raises(ValueError, match="capped"):
        cosets_up_to_weight(24, 3)
