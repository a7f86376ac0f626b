"""Carmichael, radimichael, and k-Lehmer decisions with brute-force oracles.

The Lehmer index of a composite n is the minimal k with phi(n) | (n-1)^k,
encoded here as an int, or None when no such k exists (n not radimichael).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .arith import (
    Factorization,
    carmichael_lambda,
    euler_phi,
    factorize,
    radical,
    valuation,
)

# fermat_oracle_is_carmichael does n modular exponentiations; beyond this it
# is a test-only tool and must be forced explicitly.
FERMAT_ORACLE_LIMIT = 10**6


@dataclass(frozen=True)
class NumberClass:
    """Full classification record for a single integer."""
    n: int
    category: str  # "unit" | "prime" | "composite"
    carmichael: bool
    radimichael: bool
    lehmer_index: int | None
    omega: int
    squarefree: bool


def _check_composite(n: int, f: Factorization) -> None:
    if f.value != n:
        raise ValueError(f"factorization is of {f.value}, not {n}")
    if n < 4:
        raise ValueError(f"{n} is not composite")
    if f.omega == 1 and f.factors[0][1] == 1:
        raise ValueError(f"{n} is prime; predicate defined for composites only")


def is_carmichael(n: int, f: Factorization) -> bool:
    """Korselt's criterion: n squarefree and lambda(n) | n-1 (composite n)."""
    _check_composite(n, f)
    return f.squarefree and (n - 1) % carmichael_lambda(f) == 0


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


def is_radimichael(n: int, f: Factorization) -> bool:
    """True iff rad(phi(n)) divides n-1 (composite n)."""
    _check_composite(n, f)
    k = radical(factorize(euler_phi(f)))
    return (n - 1) % k == 0


def lehmer_index_from_factors(phi_factors: Iterable[tuple[int, int]],
                              n_minus_1: int) -> int | None:
    """Minimal k with phi | (n-1)^k, given phi's prime-power pairs (q, e).

    phi | (n-1)^k iff k * v_q(n-1) >= e for every pair; minimality makes k
    the max of the ceilings, and a q not dividing n-1 means no k works
    (None). The test suite pins this formula against the is_k_lehmer
    big-integer oracle.
    """
    k = 1
    for q, e in phi_factors:
        t = valuation(q, n_minus_1)
        if t == 0:
            return None
        k = max(k, -(-e // t))
    return k


def lehmer_index(n: int, f: Factorization) -> int | None:
    """Minimal k with phi(n) | (n-1)^k, or None if no k works."""
    _check_composite(n, f)
    return lehmer_index_from_factors(factorize(euler_phi(f)).factors, n - 1)


def is_k_lehmer(n: int, k: int, f: Factorization | None = None) -> bool:
    """Direct oracle: does phi(n) divide (n-1)**k?

    The divisibility is tested as (n-1)**k mod phi(n) == 0, reduced at every
    step so the full power is never built. Pass f to skip factoring (required
    when n >= 2**64 but its factorization is known). This is deliberately the
    dumb route, with no factoring of phi(n); lehmer_index is checked against it.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if f is None:
        f = factorize(n)
    _check_composite(n, f)
    return pow(n - 1, k, euler_phi(f)) == 0


def classify(n: int) -> NumberClass:
    """Classify any n >= 1; units and primes get all-false predicate fields.

    The narrow predicates above reject non-composite input; classify is the
    tolerant entry point so surveys can stream every integer.
    """
    if n < 1:
        raise ValueError("classify requires n >= 1")
    f = factorize(n)
    if n == 1:
        return NumberClass(1, "unit", False, False, None, 0, True)
    if f.omega == 1 and f.factors[0][1] == 1:
        return NumberClass(n, "prime", False, False, None, 1, True)
    idx = lehmer_index(n, f)
    return NumberClass(
        n=n,
        category="composite",
        carmichael=is_carmichael(n, f),
        radimichael=idx is not None,
        lehmer_index=idx,
        omega=f.omega,
        squarefree=f.squarefree,
    )
