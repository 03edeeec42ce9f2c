import pytest

from filtropt import context_for, min_period, window_table
from filtropt.field import PRIMITIVE
from filtropt.complexity import berlekamp_massey_packed, bits_to_int

from oracles import (m_sequence_reference, poly_list_mulmod, reciprocal, trace_reference,
                     trace_sequence_reference, x_has_full_order)


def _bits(ctx, state=1):
    return (window_table(ctx, state) & 1).tolist()


def test_canonical_l3_sequence(ctx3):
    bits = _bits(ctx3)
    assert bits == [1, 0, 0, 1, 0, 1, 1]
    # the last window wraps: its bit 1 is a_7 = a_0
    assert window_table(ctx3)[-1] >> 1 & 1 == bits[0]


@pytest.mark.parametrize("L", [3, 5, 8, 11])
def test_minimal_period_is_full(L):
    ctx = context_for(L)
    assert min_period(_bits(ctx)) == ctx.order


def test_seeds_are_cyclic_shifts(ctx5):
    period = ctx5.order
    base = _bits(ctx5)
    rotations = {tuple(base[r:] + base[:r]) for r in range(period)}
    for seed in range(1, 1 << 5):
        assert tuple(_bits(ctx5, seed)) in rotations


def test_window_basics(ctx3):
    bits = _bits(ctx3)
    assert window_table(ctx3)[0] == sum(b << i for i, b in enumerate(bits[:3]))


@pytest.mark.parametrize("L", [3, 5, 8, 12])
def test_windows_enumerate_nonzero_vectors(L):
    ctx = context_for(L)
    wins = window_table(ctx)
    assert len(set(wins)) == ctx.order
    assert set(wins) == set(range(1, 1 << L))
    bits = _bits(ctx)
    for n in (0, 1, ctx.order - 1):
        assert wins[n] == sum(bits[(n + i) % ctx.order] << i for i in range(L))


def test_window_table_matches_recurrence():
    # the default moduli, then every other primitive modulus of degree <= 6:
    # the context reads its windows off alpha's powers under any modulus
    contexts = [context_for(L) for L in range(2, 17)]
    contexts += [context_for(L, poly) for L in range(2, 7) for poly in range(1 << L, 2 << L)
                 if poly != PRIMITIVE[L] and x_has_full_order(poly, L)]
    assert len(contexts) == 15 + 17 - 5  # 17 primitive moduli of degree 2..6, 5 in the table
    for ctx in contexts:
        L = ctx.L
        for state in range(1, 1 << L) if L <= 6 else (1, 3, (1 << L) - 1):
            wins = window_table(ctx, state)
            want = m_sequence_reference(ctx.modulus, L, state, ctx.order + L)
            windows, w = [], state
            for n in range(ctx.order):  # window n + 1 drops a_n and takes in a_(n+L)
                windows.append(w)
                w = w >> 1 | want[n + L] << (L - 1)
            assert wins.tolist() == windows
            assert not wins.flags.writeable


def test_zero_or_oversized_state_rejected(ctx3):
    for bad in (0, 1 << 3, -1, 1.0):
        with pytest.raises(ValueError, match="initial state"):
            window_table(ctx3, bad)


@pytest.mark.parametrize("L", range(2, 17))
def test_bm_recovers_register(L):
    ctx = context_for(L)
    z = bits_to_int(_bits(ctx))
    lc, poly = berlekamp_massey_packed(z | z << ctx.order, 2 * ctx.order)
    assert lc == L
    assert poly == reciprocal(ctx.modulus, L)


@pytest.mark.parametrize("L", range(2, 17))
def test_period_balance(L):
    bits = _bits(context_for(L))
    assert sum(bits) == 1 << (L - 1)
    assert len(bits) - sum(bits) == (1 << (L - 1)) - 1


def _trace_shift(bits, trace_seq):
    """The t with bits[n] = trace_seq[(t + n) % N] for every n, or None."""
    s = bytes(trace_seq)
    t = (s + s).find(bytes(bits))
    return t if len(bits) == len(s) and t >= 0 else None


def test_trace_consistency_small():
    # brute force: exactly one nonzero c has Tr(c alpha^n) equal to the whole period
    for L in (3, 5, 8):
        ctx = context_for(L)
        bits = _bits(ctx)
        mod = [ctx.modulus >> i & 1 for i in range(L + 1)]
        matches = []
        for c in range(1, 1 << L):
            v = [c >> i & 1 for i in range(L)]
            for bit in bits:
                if trace_reference(v, mod, L) != bit:
                    break
                v = poly_list_mulmod(v, [0, 1], mod)
            else:
                matches.append(c)
        assert len(matches) == 1, (L, matches)


@pytest.mark.parametrize("L", range(2, 17))
def test_trace_consistency_all_table_lengths(L):
    ctx = context_for(L)
    assert _trace_shift(_bits(ctx), trace_sequence_reference(ctx.modulus, L)) is not None


@pytest.mark.parametrize("L", [2, 3, 4, 7, 10])
def test_trace_consistency_every_phase_and_no_corruption(L):
    # every state is a phase of the one trace sequence; flipping any one bit
    # of a period, or sending a non-m-sequence, leaves the trace form
    ctx = context_for(L)
    trace_seq = trace_sequence_reference(ctx.modulus, L)
    shifts = set()
    for state in range(1, 1 << L) if L <= 4 else (1, 2, (1 << L) - 1):
        bits = _bits(ctx, state)
        shifts.add(_trace_shift(bits, trace_seq))
        for n in range(0, ctx.order, max(1, ctx.order // 9)):
            bits[n] ^= 1
            assert _trace_shift(bits, trace_seq) is None
            bits[n] ^= 1
    assert None not in shifts and len(shifts) == (ctx.order if L <= 4 else 3)
    for constant in (0, 1):
        assert _trace_shift([constant] * ctx.order, trace_seq) is None
