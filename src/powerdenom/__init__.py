"""Exact denominators of power sums of arithmetic progressions and of
Bernoulli polynomials, each computed two independent ways: direct rational
arithmetic and closed-form digit-sum products.
"""

from .bernoulli import BernoulliCache, RationalPoly
from .cli import BenchRecord, run_bench
from .denom import (
    DenomTriple,
    denominator_triple,
    first_index_digit_sum_reaches,
    full_denom,
    full_denom_direct,
    full_denom_quotient,
    full_denom_split_product,
    full_denom_via_successor,
    nonconstant_denom,
    nonconstant_denom_all_primes,
    nonconstant_denom_direct,
    nonconstant_quotient,
    number_denom,
    number_denom_direct,
)
from .digits import (
    DigitExpansion,
    SquarefreeProduct,
    digit_sum,
    expand,
    is_prime,
    p_valuation,
    primes_up_to,
    radical,
)
from .errors import SearchCapExceeded, TheoremViolationError
from .powersum import (
    AMInteger,
    ProgressionSpec,
    am_congruence_check,
    am_integer,
    c_coeff,
    is_integral,
    power_sum_denominator,
    power_sum_difference,
    power_sum_naive,
    power_sum_poly,
)
from .verify import SweepReport, available_sweeps, run_sweep

__all__ = [
    "AMInteger",
    "BenchRecord",
    "BernoulliCache",
    "DenomTriple",
    "DigitExpansion",
    "ProgressionSpec",
    "RationalPoly",
    "SearchCapExceeded",
    "SquarefreeProduct",
    "SweepReport",
    "TheoremViolationError",
    "am_congruence_check",
    "am_integer",
    "available_sweeps",
    "c_coeff",
    "denominator_triple",
    "digit_sum",
    "expand",
    "first_index_digit_sum_reaches",
    "full_denom",
    "full_denom_direct",
    "full_denom_quotient",
    "full_denom_split_product",
    "full_denom_via_successor",
    "is_integral",
    "is_prime",
    "nonconstant_denom",
    "nonconstant_denom_all_primes",
    "nonconstant_denom_direct",
    "nonconstant_quotient",
    "number_denom",
    "number_denom_direct",
    "p_valuation",
    "power_sum_denominator",
    "power_sum_difference",
    "power_sum_naive",
    "power_sum_poly",
    "primes_up_to",
    "radical",
    "run_bench",
    "run_sweep",
]
