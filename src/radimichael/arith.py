"""Exact integer arithmetic: primality, factorization, phi and lambda."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import gcd, isqrt
from typing import Iterable

U64_LIMIT = 1 << 64

# factorize() trial-divides by the primes below TRIAL_LIMIT and hands any
# cofactor of TRIAL_LIMIT**2 or more to Pollard-Brent.
TRIAL_LIMIT = 1 << 14


def _primes_below(limit: int) -> tuple[int, ...]:
    sieve = bytearray(b"\x01") * limit
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit, p)))
    return tuple(compress(range(limit), sieve))


# Every prime below TRIAL_LIMIT, ascending; sieved once at import, never mutated.
SMALL_PRIMES = _primes_below(TRIAL_LIMIT)


# ---------------------------------------------------------------------------
# primality
# ---------------------------------------------------------------------------

# Deterministic strong-pseudoprime witness tiers (published bounds).
# Each base set has no strong pseudoprime below its threshold; the last set
# is valid beyond 3.3e24, which covers all of [0, 2**64).
_MR_TIERS = (
    (2047, (2,)),
    (1373653, (2, 3)),
    (25326001, (2, 3, 5)),
    (3215031751, (2, 3, 5, 7)),
    (3474749660383, (2, 3, 5, 7, 11, 13)),
    (341550071728321, (2, 3, 5, 7, 11, 13, 17)),
    (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (U64_LIMIT, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
)

# 2 .. 37: a number with none of these factors is coprime to every witness base
_SCREEN_PRIMES = SMALL_PRIMES[:12]


def _strong_probable_prime(n: int, a: int) -> bool:
    # n odd, n >= 3
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _u64_verdict(n: int) -> bool:
    """True iff n is prime, for 0 <= n < 2**64 (deterministic witness tiers)."""
    if n < 2:
        return False
    for p in _SCREEN_PRIMES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True
    for bound, bases in _MR_TIERS:
        if n < bound:
            break
    for a in bases:
        if not _strong_probable_prime(n, a):
            return False
    return True


def _pocklington(n: int, pm1_primes: Iterable[int]) -> bool:
    """True iff n >= 2 is prime, proved from every distinct prime of n - 1.

    Pocklington's theorem (Brillhart, Lehmer and Selfridge 1975): if for
    each prime q of n - 1 some w has w^(n-1) = 1 (mod n) and
    gcd(w^((n-1)/q) - 1, n) = 1, every prime factor of n is 1 mod n - 1, so
    n is prime. For each q, ascending, the least w >= 2 with
    x = w^((n-1)/q) != 1 (mod n) is taken; x^q != 1, or a factor shared by
    x - 1 and n, proves n composite.

    Each q must be a prime below 2**64, and together they must divide n - 1
    down to 1. The w search stops at 2 * bits(n)^2; a q left without a w
    raises ValueError unless another q proved n composite. No verdict is
    guessed.
    """
    primes = sorted(set(pm1_primes))
    rest = n - 1
    for q in primes:
        if type(q) is not int or not 1 < q < U64_LIMIT or not _u64_verdict(q):
            raise ValueError(f"{q!r} is not a prime below 2**64")
        if rest % q:
            raise ValueError(f"{q} does not divide {n} - 1")
        while rest % q == 0:
            rest //= q
    if rest != 1:
        raise ValueError(f"the primes given for {n} - 1 leave its factor {rest}")
    w_max = 2 * n.bit_length() ** 2
    unproved = []
    for q in primes:
        e = (n - 1) // q
        for w in range(2, w_max + 1):
            if (x := pow(w, e, n)) != 1:
                if pow(x, q, n) != 1 or gcd(x - 1, n) != 1:
                    return False
                break
        else:
            unproved.append(q)
    if unproved:
        raise ValueError(f"no w in [2, {w_max}] has w^(({n} - 1)/q) != 1 for "
                         f"q in {unproved}, and none proved {n} composite")
    return True


def prime_verdict(n: int, pm1_primes: Iterable[int] = ()) -> bool:
    """True iff n is prime, exactly at every size.

    Below 2**64 deterministic Miller-Rabin witness tiers decide, and
    pm1_primes is not read. At or above 2**64, pm1_primes must be every
    distinct prime of n - 1, and Pocklington's theorem decides; without
    them, or when no verdict can be proved, ValueError is raised.
    """
    if type(n) is not int:
        raise ValueError(f"prime_verdict needs an int, got {n!r}")
    if n < U64_LIMIT:
        return _u64_verdict(n)
    return _pocklington(n, pm1_primes)


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Factorization:
    """Prime-power decomposition of `value`, primes strictly increasing."""
    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.value < 1:
            raise ValueError("Factorization value must be >= 1")
        prod = 1
        last = 1
        for p, e in self.factors:
            if p <= last:
                raise ValueError("factor primes must be strictly increasing")
            if e < 1:
                raise ValueError("factor exponents must be >= 1")
            last = p
            prod *= p**e
        if prod != self.value:
            raise ValueError(f"factors do not multiply to {self.value}")

    @property
    def omega(self) -> int:
        """Number of distinct prime factors."""
        return len(self.factors)

    @property
    def squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)


def _pollard_brent(n: int) -> int:
    """Return a nontrivial factor of odd composite n (no factors < TRIAL_LIMIT).

    Brent-cycle rho with batched gcds; the polynomial constant steps on
    failure, so the routine is deterministic.
    """
    for c in range(1, 10_000):
        y, m_batch, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m_batch, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m_batch
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")  # pragma: no cover


def _factor_hard(n: int, out: dict[int, int]) -> None:
    # n > 1 with no prime factor < TRIAL_LIMIT
    stack = [n]
    while stack:
        m = stack.pop()
        if prime_verdict(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_brent(m)
        stack.append(d)
        stack.append(m // d)


def factorize(n: int) -> Factorization:
    """Full prime-power factorization of n (1 <= n < 2**64).

    Trial division by SMALL_PRIMES, then Brent rho for a surviving cofactor
    of TRIAL_LIMIT**2 or more. Values at or above 2**64 raise ValueError.
    """
    if type(n) is not int or n < 1:
        raise ValueError(f"factorize requires an int n >= 1, got {n!r}")
    if n >= U64_LIMIT:
        raise ValueError(f"{n} >= 2**64; factorize only handles 64-bit inputs")
    if n == 1:
        return Factorization(1, ())

    factors: dict[int, int] = {}
    m = n
    for p in SMALL_PRIMES:
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors[p] = e
    # a cofactor below TRIAL_LIMIT**2 has no prime factor up to its square
    # root, so it is prime
    if 1 < m < TRIAL_LIMIT * TRIAL_LIMIT:
        factors[m] = 1
    elif m > 1:
        _factor_hard(m, factors)
    return Factorization(n, tuple(sorted(factors.items())))


# ---------------------------------------------------------------------------
# multiplicative functions
# ---------------------------------------------------------------------------

def euler_phi(f: Factorization) -> int:
    """Euler totient from a factorization: prod p^(e-1) * (p-1)."""
    result = 1
    for p, e in f.factors:
        result *= p ** (e - 1) * (p - 1)
    return result


def carmichael_lambda(f: Factorization) -> int:
    """Carmichael lambda (unit-group exponent) from a factorization.

    lambda(2)=1, lambda(4)=2, lambda(2^e)=2^(e-2) for e >= 3, and
    lambda(p^e)=p^(e-1)(p-1) for odd p; combined by lcm.
    """
    result = 1
    for p, e in f.factors:
        if p == 2:
            block = 1 if e == 1 else 2 if e == 2 else 1 << (e - 2)
        else:
            block = p ** (e - 1) * (p - 1)
        result = result * block // gcd(result, block)
    return result

