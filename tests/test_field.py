import random

import numpy as np
import pytest

from filtropt import FieldContext, context_for, is_primitive, supported_lengths
from filtropt.field import poly_degree, poly_gcd, poly_mulmod, poly_powmod

from oracles import trace_reference


MOD3 = 0b1011  # x^3 + x + 1, the embedded cubic


def _trace(ctx, a):
    return (a & ctx.trace_mask).bit_count() & 1


def _coeffs(a, L):
    return [a >> i & 1 for i in range(L)]


def test_add_is_xor(ctx3):
    # xor is the addition multiplication distributes over, in characteristic 2
    assert 0b011 ^ 0b010 == 1
    for a in range(8):
        assert poly_mulmod(a, 1 ^ 1, MOD3) == 0
        for b in range(8):
            for c in range(8):
                assert (poly_mulmod(a ^ b, c, MOD3)
                        == poly_mulmod(a, c, MOD3) ^ poly_mulmod(b, c, MOD3))


def test_mul_defining_relation(ctx3):
    # modulus x^3 + x + 1 forces x * x^2 = x + 1
    assert ctx3.modulus == MOD3
    assert poly_mulmod(0b010, 0b100, MOD3) == 0b011
    for a in range(8):
        assert poly_mulmod(a, 1, MOD3) == a
    exp, log = ctx3.exp_table, ctx3.log_table
    for a in range(1, 8):
        assert poly_mulmod(a, poly_powmod(a, ctx3.order - 1, MOD3), MOD3) == 1
        for b in range(1, 8):  # the tables multiply by adding logs
            assert exp[(log[a] + log[b]) % ctx3.order] == poly_mulmod(a, b, MOD3)


def test_pow_basics(ctx3):
    alpha = 0b010
    assert poly_powmod(alpha, 2**3 - 1, MOD3) == 1
    assert poly_powmod(alpha, ctx3.order + 1, MOD3) == alpha
    assert poly_powmod(0b010, 3, MOD3) == 0b011  # x^3 = x + 1
    for a in range(1, 8):
        assert poly_powmod(a, 0, MOD3) == 1
        assert poly_powmod(a, 2, MOD3) == poly_mulmod(a, a, MOD3)
    assert poly_powmod(0, 5, MOD3) == 0
    assert poly_powmod(0, 0, MOD3) == 1
    with pytest.raises(ValueError, match="negative exponent"):
        poly_powmod(0, -1, MOD3)
    for n in range(2 * ctx3.order):
        assert poly_powmod(alpha, n, MOD3) == ctx3.exp_table[n % ctx3.order]


def test_trace_examples(ctx3):
    assert _trace(ctx3, 0) == 0
    # L odd: trace(1) = L mod 2
    assert _trace(ctx3, 1) == 1
    # independent coefficient-list oracle for trace(x) in GF(2^3)/x^3+x+1
    mod = [1, 1, 0, 1]
    assert trace_reference([0, 1, 0], mod, 3) == 0
    assert _trace(ctx3, 0b010) == 0


def test_trace_matches_definition_randomized():
    rng = random.Random(101)
    for L in (5, 8, 13):
        ctx = context_for(L)
        mod = _coeffs(ctx.modulus, L + 1)
        for _ in range(50):
            a = rng.randrange(1 << L)
            assert _trace(ctx, a) == trace_reference(_coeffs(a, L), mod, L)
            assert _trace(ctx, poly_mulmod(a, a, ctx.modulus)) == _trace(ctx, a)


def test_frobenius_is_additive():
    rng = random.Random(102)
    for L in (5, 8, 13):
        ctx = context_for(L)
        exp, log = ctx.exp_table, ctx.log_table
        for _ in range(50):
            a = rng.randrange(1 << L)
            b = rng.randrange(1 << L)
            sq_a, sq_b = poly_mulmod(a, a, ctx.modulus), poly_mulmod(b, b, ctx.modulus)
            assert poly_mulmod(a ^ b, a ^ b, ctx.modulus) == sq_a ^ sq_b
            if a:  # squaring doubles the log
                assert exp[2 * log[a] % ctx.order] == sq_a


def test_trace_balanced_exhaustively():
    for L in range(2, 17):
        ctx = context_for(L)
        zeros = sum(1 for a in range(1 << L) if _trace(ctx, a) == 0)
        assert zeros == 1 << (L - 1)


@pytest.mark.parametrize("L", [4, 8, 12, 16])
def test_alpha_generates_all_nonzero(L):
    ctx = context_for(L)
    exp, log = ctx.exp_table, ctx.log_table
    assert exp.dtype == log.dtype == np.int64
    assert len(exp) == ctx.order and len(log) == 1 << L
    assert sorted(exp.tolist()) == list(range(1, 1 << L))
    assert (log[exp] == np.arange(ctx.order)).all()
    assert exp[1] == 2 and poly_mulmod(int(exp[-1]), 2, ctx.modulus) == 1
    with pytest.raises(ValueError):
        exp[0] = 0  # shared read-only tables


def test_exp_log_tables_capped():
    with pytest.raises(ValueError, match="capped at L <= 20"):
        context_for(21).exp_table


def test_field_context_surface(ctx3):
    public = {name for name in dir(ctx3) if not name.startswith("_")}
    assert public == {"L", "modulus", "order", "factorization",
                      "exp_table", "log_table", "trace_mask"}


def test_is_primitive_examples():
    assert is_primitive(3, 0b1011, [7]) is True
    # x^3 + x^2 + x + 1 is divisible by x + 1
    assert is_primitive(3, 0b1111, [7]) is False
    # x^4 + x^3 + x^2 + x + 1 is irreducible but x has order 5, not 15
    assert is_primitive(4, 0b11111, [3, 5]) is False
    assert poly_powmod(2, 5, 0b11111) == 1


def test_is_primitive_validation_errors():
    with pytest.raises(ValueError, match="degree"):
        is_primitive(4, 0b1011, [3, 5])
    with pytest.raises(ValueError, match="product"):
        is_primitive(3, 0b1011, [3])
    with pytest.raises(ValueError, match="not prime"):
        is_primitive(4, 0b10011, [15])
    with pytest.raises(ValueError, match="factorization"):
        is_primitive(3, 0b1011, [])


def test_field_context_requires_primitive():
    with pytest.raises(ValueError, match="not primitive"):
        FieldContext(4, 0b11111, [3, 5])


def test_poly_helpers():
    assert poly_degree(0) == -1
    assert poly_degree(0b1011) == 3
    assert poly_gcd(0b110, 0b10) == 0b10  # gcd(x^2+x, x) = x
    assert poly_mulmod(0b010, 0b100, 0b1011) == 0b011


def test_embedded_table_is_fully_primitive():
    from filtropt.polytable import factorization_for, polynomial_for

    lengths = supported_lengths()
    assert lengths == [*range(2, 33), 61, 89, 107, 127, 257]
    for L in lengths:
        poly = polynomial_for(L)
        factors = factorization_for(L)
        prod = 1
        for p in factors:
            prod *= p
        assert prod == (1 << L) - 1
        assert is_primitive(L, poly, factors)


def test_context_for_unknown_length():
    with pytest.raises(ValueError, match="supported lengths"):
        context_for(40)


def test_context_for_caches_and_compares():
    a = context_for(5)
    b = context_for(5)
    assert a is b
    assert a == FieldContext(5, a.modulus, a.factorization)
    assert hash(a) == hash(FieldContext(5, a.modulus, a.factorization))


def test_env_table_override(tmp_path, monkeypatch):
    import json

    from filtropt import polytable

    # x^3 + x^2 + 1 (0xd) is the other primitive cubic
    custom = {"3": {"poly": "0xd", "factors": ["7"]}}
    path = tmp_path / "table.json"
    path.write_text(json.dumps(custom))
    monkeypatch.setenv(polytable.ENV_TABLE_VAR, str(path))
    assert polytable.supported_lengths() == [3]
    assert polytable.polynomial_for(3) == 0xD
    ctx = polytable.context_for(3)
    assert ctx.modulus == 0xD
    monkeypatch.delenv(polytable.ENV_TABLE_VAR)
    assert polytable.polynomial_for(3) == 0xB
