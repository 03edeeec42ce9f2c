"""The benchmark's workloads: the CLI argv of each op, and its cross-checks.

Each workload draws its op inputs from a seeded generator and hands the
program only generated text (MC seeds, ANF filters).  The oracles here
(coset orbits, nfm, the filter-space size) are computed independently of
filtropt, so a wrong count in the program cannot also be wrong in the check.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import ClassVar
from itertools import combinations

# An op's hit count, or a run's pooled miss count, is declared implausible
# when its binomial tail under the exact probability falls below this.  At
# this level a correct program is flagged about once in 10^9 runs, while a
# measurement that is off by one (every trial a miss) is flagged at once.
BINOMIAL_TAIL_FLOOR = 1e-9


# --- independent oracles -------------------------------------------------

@lru_cache(maxsize=None)
def orbit_sizes(L: int, k: int) -> tuple[int, ...]:
    """Sizes of the cyclotomic cosets mod 2^L - 1 with leader weight 1..k.

    Doubling mod 2^L - 1 rotates the L-bit word, so a coset is a rotation
    orbit of the L-bit words of popcount 1..k (k < L).
    """
    full = (1 << L) - 1
    seen: set[int] = set()
    sizes = []
    for w in range(1, k + 1):
        for taps in combinations(range(L), w):
            e = sum(1 << t for t in taps)
            if e in seen:
                continue
            orbit = {e}
            x = ((e << 1) | (e >> (L - 1))) & full
            while x != e:
                orbit.add(x)
                x = ((x << 1) | (x >> (L - 1))) & full
            seen |= orbit
            sizes.append(len(orbit))
    return tuple(sizes)


def nk(L: int, k: int) -> int:
    return sum(math.comb(L, d) for d in range(1, k + 1))


def nfm(L: int, k: int) -> int:
    """Order-k filters reaching lc = nk: every weight-<=k coset present."""
    out = 1
    for size in orbit_sizes(L, k):
        out *= (1 << size) - 1
    return out


def nfk(L: int, k: int) -> int:
    """Size of the order-k filter space (a nonzero degree-k part)."""
    lower = sum(math.comb(L, d) for d in range(1, k))
    return ((1 << math.comb(L, k)) - 1) << lower


def pr_max(L: int, k: int) -> Fraction:
    return Fraction(nfm(L, k), nfk(L, k))


def binomial_tails(n: int, m: int, q: float) -> tuple[float, float]:
    """(P[X <= m], P[X >= m]) for X ~ Binomial(n, q), 0 < q < 1."""
    def pmf(j: int) -> float:
        return math.exp(math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                        + j * math.log(q) + (n - j) * math.log1p(-q))
    low = sum(pmf(j) for j in range(0, m + 1))
    high = sum(pmf(j) for j in range(m, n + 1))
    return min(1.0, low), min(1.0, high)


def _implausible(n: int, misses: int, q: float) -> str | None:
    low, high = binomial_tails(n, misses, q)
    if min(low, high) < BINOMIAL_TAIL_FLOOR:
        return f"{misses} misses in {n} trials: P[<=]={low:.3g} P[>=]={high:.3g}"
    return None


def random_anf(L: int, k: int, rng: random.Random) -> str:
    """Uniform order-k filter as canonical ANF text (the CLI's own format).

    Same law as the program's random_filter: a uniform nonzero subset of the
    degree-k monomials, each lower monomial present with probability 1/2.
    Monomials are ordered by (size, taps), the form `analyze` echoes back.
    """
    monos = []
    for d in range(1, k + 1):
        pool = list(combinations(range(L), d))
        bits = rng.getrandbits(len(pool))
        while d == k and bits == 0:
            bits = rng.getrandbits(len(pool))
        monos += [m for i, m in enumerate(pool) if bits >> i & 1]
    return " + ".join("*".join(f"x{t}" for t in m) for m in monos)


# --- workloads -----------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    `argv(rng)` gives the next op's CLI arguments; `check(argv, rc, payload)`
    returns None for a correct op or a one-line reason; `filters(payload)`
    counts the filters whose (lc, period) the op measured; `run_checks`
    judges the run's ops taken together.
    """

    name: str
    L: int
    schema: ClassVar[str] = "experiment"   # the op's JSON schema
    setup_cosets: ClassVar[bool] = False   # set-up builds the full coset table

    def argv(self, rng: random.Random) -> list[str]:
        raise NotImplementedError

    def check(self, argv: list[str], rc: int, payload: dict) -> str | None:
        raise NotImplementedError

    def filters(self, payload: dict) -> int:
        raise NotImplementedError

    def run_checks(self, payloads: list[dict]) -> dict[str, str]:
        return {}


@dataclass(frozen=True)
class Census(Workload):
    k: int = 2

    def argv(self, rng):
        return ["enumerate", "-L", str(self.L), "-k", str(self.k)]

    def check(self, argv, rc, payload):
        want = nfm(self.L, self.k)
        if rc != 0:
            return f"exit code {rc}"
        if payload["trials"] != nfk(self.L, self.k):
            return f"trials {payload['trials']} != nfk {nfk(self.L, self.k)}"
        if payload["hits_max_lc"] != want:
            return f"hits_max_lc {payload['hits_max_lc']} != nfm {want}"
        if payload["hits_max_period"] < payload["hits_max_lc"]:
            return "a max-lc filter without full period"
        if not (payload["verdict"]["ok"] and payload["verdict"]["exact_match"]):
            return "verdict not ok"
        return None

    def filters(self, payload):
        return payload["trials"]


@dataclass(frozen=True)
class Sample(Workload):
    k: int = 3
    trials: int = 1

    def argv(self, rng):
        return ["sample", "-L", str(self.L), "-k", str(self.k),
                "--trials", str(self.trials), "--seed", str(rng.getrandbits(63))]

    def check(self, argv, rc, payload):
        # A sample of a few trials lands outside 3 sigma by chance (the
        # program then exits 2); that is a correct answer, so the check is
        # that the verdict follows from the counts, not that it is ok.
        p = float(pr_max(self.L, self.k))
        t = self.trials
        if rc not in (0, 2):
            return f"exit code {rc}"
        if payload["trials"] != t or payload["seed"] != int(argv[-1]):
            return "payload does not echo trials/seed"
        if not 0 <= payload["hits_max_lc"] <= payload["hits_max_period"] <= t:
            return "hit counts out of order (max lc must imply full period)"
        if abs(payload["analytic_pr"] - p) > 1e-12:
            return f"analytic_pr {payload['analytic_pr']} != nfm/nfk {p}"
        z = (payload["hits_max_lc"] / t - p) / math.sqrt(p * (1 - p) / t)
        if abs(z - payload["z_score"]) > 1e-9 * max(1.0, abs(z)):
            return f"z_score {payload['z_score']} != {z}"
        ok = abs(payload["z_score"]) <= 3.0
        if payload["verdict"]["ok"] != ok or rc != (0 if ok else 2):
            return "verdict does not follow from the counts"
        return _implausible(t, t - payload["hits_max_lc"], 1 - p)

    def filters(self, payload):
        return payload["trials"]

    def run_checks(self, payloads):
        n = sum(p["trials"] for p in payloads)
        misses = sum(p["trials"] - p["hits_max_lc"] for p in payloads)
        if n == 0:
            return {}
        reason = _implausible(n, misses, 1.0 - float(pr_max(self.L, self.k)))
        return {"pooled_binomial": f"fail: {reason}" if reason
                else f"pass: {misses} misses in {n} trials"}


@dataclass(frozen=True)
class Explain(Workload):
    k: int = 3
    schema = "analyze"
    setup_cosets = True

    def argv(self, rng):
        return ["analyze", "-L", str(self.L), "--filter", random_anf(self.L, self.k, rng)]

    def check(self, argv, rc, payload):
        if rc != 0:
            return f"exit code {rc}"
        if payload["filter"] != argv[-1]:
            return "analyzed filter differs from the one sent"
        if payload["lc_bm"] != payload["lc_spectral"]:
            return f"lc_bm {payload['lc_bm']} != lc_spectral {payload['lc_spectral']}"
        if payload["period_measured"] != payload["period_spectral"]:
            return (f"period_measured {payload['period_measured']} != "
                    f"period_spectral {payload['period_spectral']}")
        if sum(line["cardinal"] for line in payload["lines"]) != payload["lc_spectral"]:
            return "line cardinals do not sum to lc_spectral"
        if payload["lc_bm"] > nk(self.L, self.k):
            return f"lc_bm {payload['lc_bm']} exceeds nk {nk(self.L, self.k)}"
        if ((1 << self.L) - 1) % payload["period_measured"]:
            return "period does not divide 2^L - 1"
        optimal = (payload["lc_bm"] == nk(self.L, self.k)
                   and payload["period_measured"] == (1 << self.L) - 1)
        if payload["optimal"] != optimal:
            return "optimal flag does not follow from lc and period"
        return None

    def filters(self, payload):
        return 1


# Why each workload is here: BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Census("census", L=5, k=2),
    Sample("sample-dense", L=13, k=7, trials=24),
    Explain("explain", L=15, k=3),
)}
