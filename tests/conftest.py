"""Fixtures and brute-force oracles shared by the test modules."""

import json
from math import isqrt

import numpy as np
import pytest

from radimichael.arith import Factorization, euler_phi, factorize
from radimichael.classify import _check_composite
from radimichael.survey import report_write

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


def radical(f: Factorization) -> int:
    """Largest squarefree divisor: product of the distinct primes."""
    result = 1
    for p, _ in f.factors:
        result *= p
    return result


def is_radimichael(n: int, f: Factorization) -> bool:
    """True iff rad(phi(n)) divides n-1 (composite n)."""
    _check_composite(n, f)
    k = radical(factorize(euler_phi(f)))
    return (n - 1) % k == 0


# sieve_window_counts factors this many integers at a time
SIEVE_SEGMENT = 1 << 17


def sieve_window_counts(lo: int, hi: int, k_max: int) -> list[int]:
    """Class counts over the integers in (lo, hi], from a segmented sieve.

    Returns composites, Carmichael, radimichael, then the radimichael n of
    Lehmer index <= k for k = 1..k_max, then those with omega 2, 3 and 4 or
    more. Each n is factored by dividing out the base primes up to
    isqrt(hi), found by a sieve of its own, once each; what is left above 1
    is its one prime above isqrt(hi). An odd squarefree composite n is
    radimichael iff r = phi(n) reaches 1 under r -> r / gcd(r, n-1), its
    Lehmer index being the number of steps, and Carmichael iff also
    lambda(n) | n-1. It shares nothing with the survey's enumeration of
    the radimichael numbers.
    """
    root = isqrt(hi)
    is_base = np.ones(root + 1, dtype=bool)
    is_base[:2] = False
    for p in range(2, isqrt(root) + 1):
        if is_base[p]:
            is_base[p * p::p] = False
    base = np.flatnonzero(is_base)[1:].tolist()  # odd primes <= root
    totals = np.zeros(3 + k_max + 3, dtype=np.int64)
    for start in range(lo, hi, SIEVE_SEGMENT):
        stop = min(start + SIEVE_SEGMENT, hi)
        # an even n above 2 is composite and never radimichael: phi(n) is
        # even and n-1 odd
        totals[0] += stop // 2 - start // 2 - (start < 2 <= stop)
        n = np.arange((start + 1) | 1, stop + 1, 2, dtype=np.int64)
        if not n.size:
            continue
        rest, phi, lam = n.copy(), np.ones_like(n), np.ones_like(n)
        omega, squarefree = np.zeros_like(n), np.ones(len(n), dtype=bool)
        for p in base:
            # the n = 0 (mod p): n[i] = n[0] + 2i, and 1/2 = (p+1)/2 (mod p)
            sl = slice(-int(n[0]) * (p + 1) // 2 % p, None, p)
            rest[sl] //= p
            squarefree[sl] &= rest[sl] % p != 0
            omega[sl] += 1
            phi[sl] *= p - 1
            lam[sl] = np.lcm(lam[sl], p - 1)
        big = rest > 1
        omega[big] += 1
        phi[big] *= rest[big] - 1
        lam[big] = np.lcm(lam[big], rest[big] - 1)
        composite = (n > 1) & ~(squarefree & (omega == 1))
        # step the odd squarefree composites with r > 1 and gcd(r, n-1) > 1;
        # one whose r reaches 1 is radimichael, its index the step count
        index = np.zeros_like(n)
        live = np.flatnonzero(composite & squarefree)
        r, nm1 = phi[live], n[live] - 1
        step = 0
        while live.size:
            g = np.gcd(r, nm1)
            step += 1
            go = g > 1
            live, r, nm1 = live[go], r[go] // g[go], nm1[go]
            index[live[r == 1]] = step
            go = r > 1
            live, r, nm1 = live[go], r[go], nm1[go]
        radi = index > 0
        idx, om = index[radi], omega[radi]
        totals += [composite.sum(), (radi & ((n - 1) % lam == 0)).sum(), radi.sum(),
                   *((idx <= k).sum() for k in range(1, k_max + 1)),
                   (om == 2).sum(), (om == 3).sum(), (om >= 4).sum()]
    return totals.tolist()


def assert_json_lines_equal_csv(report) -> None:
    """Each json-lines record of report, read back by json.loads, holds
    JSON integers equal to the csv row of the same report, after a
    {"limit", "k_max"} header."""
    head, *records = map(json.loads, report_write(report, "json-lines").splitlines())
    header, *rows = (line.split(",")
                     for line in report_write(report, "csv").decode().splitlines())
    assert head == {"limit": report.limit, "k_max": report.k_max}
    assert all(type(v) is int for record in records for v in record.values())
    assert records == [dict(zip(header, map(int, row))) for row in rows]
