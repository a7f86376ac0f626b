"""Fixtures and brute-force oracles shared by the test modules."""

from math import isqrt

import numpy as np
import pytest

from radimichael.arith import Factorization

ORACLE_LIMIT = 10**6

# fermat_oracle_is_carmichael does n modular exponentiations; beyond this it
# is a test-only tool and must be forced explicitly.
FERMAT_ORACLE_LIMIT = 10**6


@pytest.fixture(scope="session")
def oracle_factorize():
    """Factorization of any n in [1, 10**6], by chasing smallest prime
    factors through a sieve of its own. Its base primes are the ones it
    finds itself, so it shares nothing with arith (SMALL_PRIMES, trial
    division, rho) or with survey.build_spf."""
    spf = np.zeros(ORACLE_LIMIT + 1, dtype=np.int64)
    for p in range(2, isqrt(ORACLE_LIMIT) + 1):
        if spf[p] == 0:  # no smaller prime divides p
            multiples = spf[p * p::p]
            multiples[multiples == 0] = p
    spf = np.where(spf == 0, np.arange(ORACLE_LIMIT + 1), spf).tolist()

    def factorize(n):
        factors, m = [], n
        while m > 1:
            p, e = spf[m], 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        return Factorization(n, tuple(factors))

    return factorize


def fermat_oracle_is_carmichael(n: int, *, force: bool = False) -> bool:
    """Exhaustive Fermat check: a^n == a (mod n) for every a in [0, n).

    This is the definitional oracle that is_carmichael is tested against.
    Early exit on the first failing base does not change the result.
    """
    if n < 4:
        raise ValueError(f"{n} is not composite")
    if n > FERMAT_ORACLE_LIMIT and not force:
        raise ValueError(f"n={n} exceeds the oracle cost bound {FERMAT_ORACLE_LIMIT}")
    # a = 0 and a = 1 satisfy a^n = a for every n >= 1
    for a in range(2, n):
        if pow(a, n, n) != a:
            return False
    return True
