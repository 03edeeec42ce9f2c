"""Analysis toolkit for nonlinearly filtered m-sequences.

Builds GF(2^L) over verified primitive polynomials, runs maximal-length
LFSRs through order-k ANF filters, measures linear complexity and period
(one GF(2)[x] gcd per period, with Berlekamp-Massey for explicit bit
strings, and the exact minimal period), cross-checks both against the
coset spectrum of the output, and evaluates exact and high-precision
formulas for the probability that a uniformly chosen filter attains the
maximum complexity nk(L, k) and full period 2^L - 1.
"""

from .anf import (FilterFunction, count_filters, enumerate_filters, evaluate,
                  filter_sequence, format_anf, parse_anf, random_filter)
from .complexity import linear_complexity_periodic, min_period
from .cosets import (CyclotomicCoset, cardinal_counts, coset_of, coset_period,
                     cosets_up_to_weight, nk)
from .field import FieldContext, FieldElement, is_primitive
from .lfsr import trace_consistency, window_table
from .likelihood import LikelihoodReport, ln_probability_parts, nfm, pr_exact, pr_report
from .polytable import context_for, polynomial_for, supported_lengths
from .spectral import (SpectralLine, Spectrum, dft, lc_from_spectrum,
                       period_from_spectrum, reconstruct_period, verify_subfield)
from .experiment import (ExperimentSummary, TrialRecord, Verdict, compare,
                         run_exhaustive, run_monte_carlo, wilson_interval)

__version__ = "0.1.0"

__all__ = [
    "FieldContext", "FieldElement", "is_primitive",
    "trace_consistency", "window_table",
    "FilterFunction", "evaluate", "filter_sequence", "count_filters",
    "random_filter", "enumerate_filters", "parse_anf", "format_anf",
    "CyclotomicCoset", "coset_of", "cosets_up_to_weight", "nk",
    "coset_period", "cardinal_counts",
    "linear_complexity_periodic", "min_period",
    "SpectralLine", "Spectrum", "dft", "reconstruct_period",
    "verify_subfield", "lc_from_spectrum", "period_from_spectrum",
    "LikelihoodReport", "nfm", "pr_exact", "pr_report", "ln_probability_parts",
    "ExperimentSummary", "TrialRecord", "Verdict", "run_exhaustive",
    "run_monte_carlo", "compare", "wilson_interval",
    "context_for", "polynomial_for", "supported_lengths",
]
