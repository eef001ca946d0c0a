"""Exact denominators of power sums of arithmetic progressions and of
Bernoulli polynomials, each computed two independent ways: direct rational
arithmetic and closed-form digit-sum products.

The root holds the library API only: digit helpers and full-scan references
stay in their modules, the sweeps in ``verify``, ``run_bench`` in ``cli``.
"""

from .bernoulli import BernoulliCache, RationalPoly
from .denom import (
    full_denom,
    full_denom_direct,
    full_denom_quotient,
    nonconstant_denom,
    nonconstant_denom_direct,
    nonconstant_quotient,
    number_denom,
    number_denom_direct,
)
from .errors import TheoremViolationError
from .powersum import (
    ProgressionSpec,
    am_integer,
    is_integral,
    power_sum_denominator,
    power_sum_poly,
)

__all__ = [
    "BernoulliCache",
    "ProgressionSpec",
    "RationalPoly",
    "TheoremViolationError",
    "am_integer",
    "full_denom",
    "full_denom_direct",
    "full_denom_quotient",
    "is_integral",
    "nonconstant_denom",
    "nonconstant_denom_direct",
    "nonconstant_quotient",
    "number_denom",
    "number_denom_direct",
    "power_sum_denominator",
    "power_sum_poly",
]
