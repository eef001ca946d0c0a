"""Fixtures shared by the test modules."""

import pytest

from powerdenom import digits


@pytest.fixture
def fresh_sieve(monkeypatch):
    """Empty sieve for the test; the whole cache comes back afterwards."""
    for name in ("_sieve_limit", "_sieve_flags", "_sieve_primes"):
        monkeypatch.setattr(digits, name, getattr(digits, name))

    def reset():
        # what perfbench does before a repetition: a fresh interpreter's state
        digits._sieve_limit = 0
        digits._sieve_primes = []

    reset()
    return reset
