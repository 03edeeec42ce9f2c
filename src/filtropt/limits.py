"""Every resource cap, each with the cost that sets it, and the two size checks.

A size past a cap is refused before the work it bounds starts.  The sequence
cap DESK_MAX_L is the default polynomial table's largest key, so field
defines it and its constructor checks it.  Timings: one Xeon core, Python 3.11.
"""
from __future__ import annotations

from .field import DESK_MAX_L  # noqa: F401  (re-exported)

# Most filters one run measures, a census or sample --trials: the census of
# 2^21 filters at L = 6, k = 2 takes 2.5 s.
ENUMERATION_CAP = 1 << 24
# Filters in one census block or Monte Carlo chunk: 16 KB of uint64 lanes.
CENSUS_BLOCK_BITS = 11
# Largest L of a coset table, which walks all 2^L - 1 exponents: 0.3 s at L = 20.
ENUMERATION_MAX_L = 20
# Largest k * L a report accepts.  cardinal_counts' exact binomial sums cost
# about k * L: 3.6 s at k = L = 10^5, the slowest the cap admits, and 7.5 s
# at L = 2 * 10^5, k = 10^5.  At k = 1, trial division of L stops by 10^5.
MAX_REPORT_KL = 10 ** 10
# Largest nk(L, k) = log2(nfk) in exact big-integer mode, and the widest count
# anf.count_filters builds: 3 s at L = 21, k = 10.
EXACT_NK_BIT_CAP = 1 << 20
# Largest `digits` a report accepts: 0.25 s at L = 257, k = 128, while
# 100 000 digits take 27 s even at L = 5.
MAX_DIGITS = 10_000
# Longest --bits input in characters, whitespace included: Berlekamp-Massey
# is quadratic, 0.7 s at 2^17 bits and 3.7 s at 2^18.
LC_MAX_BITS = 1 << 18
# Master seeds lie in [-SEED_LIMIT, SEED_LIMIT): trial_seed packs one in 16 bytes.
SEED_LIMIT = 1 << 127
# Most bytes of monomial value vectors a sequence lab keeps: L = 13, k = 7 needs
# 6 MB, every monomial at L = 16 would take 512 MB in each worker.
VECTOR_CACHE_BYTES = 64 << 20


def check_order(L: int, k: int) -> None:
    """The one order check: 2 <= L and 1 <= k <= L."""
    if not (2 <= L and 1 <= k <= L):
        raise ValueError(f"need 2 <= L and 1 <= k <= L, got L={L}, k={k}")


def check_report(L: int, k: int) -> None:
    """check_order, then k * L <= MAX_REPORT_KL, before any factoring or binomial sum."""
    check_order(L, k)
    if k * L > MAX_REPORT_KL:
        raise ValueError(f"k*L = {k}*{L} exceeds the report cap of {MAX_REPORT_KL}")
