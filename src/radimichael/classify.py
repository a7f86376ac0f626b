"""Carmichael, radimichael, and k-Lehmer decisions, and the is_k_lehmer oracle.

The Lehmer index of a composite n is the minimal k with phi(n) | (n-1)^k,
encoded here as an int, or None when no such k exists (n not radimichael).
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import Factorization, carmichael_lambda, euler_phi, factorize


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


def lehmer_index_from_phi(phi: int, n_minus_1: int) -> int | None:
    """Minimal k with phi | (n-1)^k, or None if no k works.

    k is the number of steps r -> r // gcd(r, n-1) that take r = phi to 1
    (at least 1): a step lowers every v_q(r) by v_q(n-1), or to 0, so k
    steps leave phi / gcd(phi, (n-1)^k). Rather than take k steps, square
    (n-1)^(2^j) mod phi until it is 0, then read k below that 2^j off bit
    by bit from the powers: O(log k) products mod phi. Every v_q(phi) is
    below phi's bit length, so a power still nonzero there means no k works.
    """
    powers = [n_minus_1 % phi]
    while powers[-1]:
        if 1 << (len(powers) - 1) >= phi.bit_length():
            return None
        powers.append(powers[-1] ** 2 % phi)
    # the largest e below 2^j with (n-1)^e mod phi nonzero; k = e + 1
    e, acc = 0, 1
    for j in range(len(powers) - 2, -1, -1):
        if x := acc * powers[j] % phi:
            e, acc = e + (1 << j), x
    return e + 1


def lehmer_index(n: int, f: Factorization) -> int | None:
    """Minimal k with phi(n) | (n-1)^k, or None if no k works."""
    _check_composite(n, f)
    return lehmer_index_from_phi(euler_phi(f), n - 1)


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
