"""Error types shared across the package.

Plain ``ValueError`` is used for bad input (out-of-domain arguments, wrong
parity, unknown identifiers).  The one class below marks the condition that
is *not* an input error.
"""


class TheoremViolationError(Exception):
    """A proven identity failed to hold for a concrete input.

    This always indicates a bug in the implementation, never bad input: the
    quantities involved (integrality of scaled Bernoulli values, divisibility
    of denominator quotients, formula/oracle agreement) are theorems.  The
    test harness and the CLI treat it as a hard failure distinct from usage
    errors.
    """
