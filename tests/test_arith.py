"""Arithmetic primitives against independent brute-force oracles."""

import random
from math import gcd, isqrt, lcm, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import radical
from radimichael.arith import (
    SMALL_PRIMES,
    TRIAL_LIMIT,
    Factorization,
    U64_LIMIT,
    carmichael_lambda,
    euler_phi,
    factorize,
    prime_verdict,
    _pocklington,
)


# ---------------------------------------------------------------------------
# oracles: deliberately dumb, independent of the implementation under test
# ---------------------------------------------------------------------------

def trial_is_prime(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, isqrt(n) + 1))


def trial_factor(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def phi_by_counting(n):
    return sum(1 for a in range(1, n + 1) if gcd(a, n) == 1)


def order_by_walking(a, n):
    """The order of the unit a mod n, by repeated multiplication."""
    cur, order = a, 1
    while cur != 1:
        cur = cur * a % n
        order += 1
    return order


def lambda_by_orders(n):
    """Group exponent as the lcm of element orders, walked directly."""
    exponent = 1
    for a in range(2, n):
        if gcd(a, n) != 1:
            continue
        if pow(a, exponent, n) == 1:
            continue
        exponent = lcm(exponent, order_by_walking(a, n))
    return exponent


def lambda_by_orders_batched(n):
    """lambda_by_orders(n), each pass finding in numpy the units that the
    running exponent leaves unannihilated (int64 is exact for n < 3 * 10^9)."""
    units = np.arange(2, n, dtype=np.int64)
    units = units[np.gcd(units, n) == 1]
    exponent = 1
    while True:
        power = units
        for bit in bin(exponent)[3:]:  # square-and-multiply, top bit first
            power = power * power % n
            if bit == "1":
                power = power * units % n
        units = units[power != 1]
        if not units.size:
            return exponent
        # units before this one are annihilated by every later exponent
        exponent = lcm(exponent, order_by_walking(int(units[0]), n))
        units = units[1:]


# ---------------------------------------------------------------------------
# primality
# ---------------------------------------------------------------------------

def test_is_prime_examples():
    assert prime_verdict(2)
    assert not prime_verdict(561)  # 3 * 11 * 17
    assert prime_verdict(257)


def test_is_prime_matches_trial_division_small():
    for n in range(200_000):
        assert prime_verdict(n) == trial_is_prime(n), n


def test_is_prime_matches_trial_division_random_large():
    rng = random.Random(42)
    for _ in range(300):
        n = rng.randrange(10**9, 10**10)
        assert prime_verdict(n) == trial_is_prime(n), n


def test_is_prime_strong_pseudoprime_traps():
    # composites famous for fooling small-base Fermat/Miller tests
    for a, b in [(23, 89), (29, 113), (151, 751)]:
        assert not prime_verdict(a * b)
    assert not prime_verdict(151 * 751 * 28351)  # 3215031751, spsp to 2,3,5,7
    assert trial_is_prime(151) and trial_is_prime(751) and trial_is_prime(28351)


def pm1_primes(n, *parts):
    """The distinct primes of n - 1, from factors of it below 2**64."""
    assert prod(parts) == n - 1
    return {p for part in parts for p, _ in factorize(part).factors}


# a Chernick Carmichael number (6k+1)(12k+1)(18k+1) above 2**64, at
# k = 300615, and the primes of its n - 1 = 36k * (36k^2 + 11k + 1)
K = 300615
CHERNICK = (6 * K + 1) * (12 * K + 1) * (18 * K + 1)
CHERNICK_PM1_PRIMES = pm1_primes(CHERNICK, 36 * K, 36 * K * K + 11 * K + 1)


def test_prime_verdict_probable_flag():
    # verdicts on both sides of 2**64, where Pocklington's proof takes over
    assert prime_verdict(2**61 - 1) is True
    assert prime_verdict(2**89 - 1, pm1_primes(2**89 - 1, 2, 2**44 - 1, 2**44 + 1)) is True
    assert prime_verdict(9 * 2**65 + 1, (2, 3)) is True
    assert prime_verdict(9 * 2**66 + 1, (2, 3)) is False
    assert prime_verdict((2**61 - 1) ** 2, pm1_primes((2**61 - 1) ** 2, 2**62, 2**60 - 1)) is False
    # Fermat's F6 = 274177 * 67280421310721, with n - 1 = 2**64
    assert prime_verdict(2**64 + 1, (2,)) is False
    # a Carmichael number passes the Fermat test to every base prime to it:
    # a shared factor of x - 1 and n shows it composite
    assert CHERNICK >= U64_LIMIT and all(prime_verdict(6 * j * K + 1) for j in (1, 2, 3))
    assert prime_verdict(CHERNICK, CHERNICK_PM1_PRIMES) is False


def test_prime_verdict_deterministic():
    # above 2**64 the verdict is a proof from the primes of n - 1: the same
    # on every call, whatever was tested before, and in any order of primes
    cases = [
        (2**89 - 1, pm1_primes(2**89 - 1, 2, 2**44 - 1, 2**44 + 1)),
        (2**127 - 1, pm1_primes(2**127 - 1, 2, 2**63 - 1, 2**63 + 1)),
        (CHERNICK, CHERNICK_PM1_PRIMES),
        (2**64 + 1, {2}),
        (2**64 + 13, pm1_primes(2**64 + 13, 4, 2**62 + 3)),
    ]
    first = [prime_verdict(n, primes) for n, primes in cases]
    again = [prime_verdict(n, sorted(primes, reverse=True)) for n, primes in reversed(cases)]
    assert first == again[::-1] == [True, True, False, False, True]


@pytest.mark.parametrize("n, primes", [
    (9 * 2**65 + 1, ()),            # no primes of n - 1
    (9 * 2**65 + 1, (2,)),          # 3 is missing
    (9 * 2**65 + 1, (3,)),          # 2 is missing
    (9 * 2**65 + 1, (2, 3, 5)),     # 5 does not divide n - 1
    (9 * 2**65 + 1, (2, 9)),        # 9 is not prime
    (9 * 2**65 + 1, (2, 3.0)),      # nor an int
    (2**89 - 1, (2, 3)),            # 2**88 - 1 has primes above 3
    (3.0, ()),                      # n a float
    (True, ()),                     # or a bool
])
def test_prime_verdict_refuses_what_it_cannot_prove(n, primes):
    with pytest.raises(ValueError):
        prime_verdict(n, primes)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(data=st.data())
def test_pocklington_agrees_with_miller_rabin_below_2_64(data):
    # the proof used at or above 2**64, run on tuple candidates a^l * n + 1
    # that the witness tiers decide exactly: a composite never passes it
    a = data.draw(st.integers(2, 12))
    l_max = 1
    while a ** (l_max + 1) < U64_LIMIT - 1:
        l_max += 1
    l = data.draw(st.integers(1, l_max))
    n = data.draw(st.integers(1, (U64_LIMIT - 2) // a**l))
    p = a**l * n + 1
    primes = {q for m in (a, n) for q, _ in factorize(m).factors}
    assert _pocklington(p, primes) == prime_verdict(p)


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------

def test_factorize_examples():
    assert factorize(1) == Factorization(1, ())
    assert factorize(85).factors == ((5, 1), (17, 1))
    assert factorize(320).factors == ((2, 6), (5, 1))


def test_factorize_rejects_bad_input():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError, match=r"2\*\*64"):
        factorize(U64_LIMIT)
    with pytest.raises(ValueError, match=r"2\*\*64"):
        factorize(U64_LIMIT + 12345)
    # only ints: a float would be factored into a float "prime", a bool as 1
    for bad in (12.0, True, np.int64(12)):
        with pytest.raises(ValueError, match="int"):
            factorize(bad)


def test_factorize_matches_trial_division():
    rng = random.Random(1)
    ns = list(range(1, 3000)) + [rng.randrange(1, 10**6) for _ in range(2000)]
    for n in ns:
        f = factorize(n)
        assert dict(f.factors) == trial_factor(n)
        assert prod(p**e for p, e in f.factors) == n


def test_factorize_hard_cofactors():
    # primes verified by trial division, products exercise the rho path
    p, q = 1_000_000_007, 1_000_000_009
    assert trial_is_prime(p) and trial_is_prime(q)
    assert factorize(p * q).factors == ((p, 1), (q, 1))
    assert factorize(p * p).factors == ((p, 2),)
    assert factorize(2 * p * q).factors == ((2, 1), (p, 1), (q, 1))


def test_small_primes_are_every_prime_below_the_trial_limit():
    assert SMALL_PRIMES == tuple(p for p in range(TRIAL_LIMIT) if trial_is_prime(p))


def test_factorize_rho_path_just_above_the_trial_limit():
    # factors in [TRIAL_LIMIT, 10**6) are found by Brent rho, not trial division
    primes = [p for p in range(TRIAL_LIMIT, TRIAL_LIMIT + 600) if trial_is_prime(p)]
    assert len(primes) > 50
    for i, p in enumerate(primes):
        for q in primes[i + 1:]:
            assert factorize(p * q).factors == ((p, 1), (q, 1))
        assert factorize(p**2).factors == ((p, 2),)
        assert factorize(p**3).factors == ((p, 3),)
        assert factorize(SMALL_PRIMES[-1] * p).factors == ((SMALL_PRIMES[-1], 1), (p, 1))


def test_factorize_full_64bit_value():
    f = factorize(U64_LIMIT - 1)
    assert prod(p**e for p, e in f.factors) == U64_LIMIT - 1
    assert all(trial_is_prime(p) for p, _ in f.factors if p < 10**7)
    assert all(prime_verdict(p) for p, _ in f.factors)


def test_factorization_invariants():
    with pytest.raises(ValueError):
        Factorization(10, ((5, 1), (2, 1)))  # primes out of order
    with pytest.raises(ValueError):
        Factorization(10, ((2, 1),))  # wrong product
    with pytest.raises(ValueError):
        Factorization(4, ((2, 0),))  # exponent < 1
    assert Factorization(1, ()).omega == 0
    assert Factorization(12, ((2, 2), (3, 1))).squarefree is False
    assert Factorization(15, ((3, 1), (5, 1))).squarefree is True


# ---------------------------------------------------------------------------
# multiplicative functions
# ---------------------------------------------------------------------------

def test_euler_phi_examples():
    assert euler_phi(factorize(85)) == 64
    assert euler_phi(factorize(1)) == 1
    assert euler_phi(factorize(561)) == 320


def test_euler_phi_matches_counting():
    for n in range(1, 1500):
        assert euler_phi(factorize(n)) == phi_by_counting(n), n


def test_carmichael_lambda_examples():
    assert carmichael_lambda(factorize(85)) == 16
    assert carmichael_lambda(factorize(8)) == 2
    assert carmichael_lambda(factorize(561)) == 80


def test_lambda_power_of_two_ladder():
    assert [carmichael_lambda(factorize(2**e)) for e in range(1, 8)] == \
        [1, 2, 2, 4, 8, 16, 32]


def test_lambda_is_group_exponent_small():
    for n in range(2, 600):
        assert carmichael_lambda(factorize(n)) == lambda_by_orders(n), n


def test_radical_examples():
    assert radical(factorize(64)) == 2
    assert radical(factorize(320)) == 10
    assert radical(factorize(1)) == 1


def test_kappa_examples():
    def kappa(n):  # rad(phi(n)), the modulus of the radimichael condition
        return radical(factorize(euler_phi(factorize(n))))

    assert kappa(85) == 2   # rad(64); divides 84
    assert kappa(561) == 10  # rad(320)
    assert kappa(3) == 2


# ---------------------------------------------------------------------------
# cross-function invariants
# ---------------------------------------------------------------------------

def test_lambda_divides_phi_and_equal_radicals_up_to_1e5():
    for n in range(2, 10**5 + 1):
        f = factorize(n)
        phi = euler_phi(f)
        lam = carmichael_lambda(f)
        assert phi % lam == 0, n
        assert radical(factorize(phi)) == radical(factorize(lam)), n
        # hence kappa(n) divides lambda(n)
        assert lam % radical(factorize(phi)) == 0, n


def test_lambda_annihilates_and_is_minimal_up_to_1e4():
    for n in range(2, 10**4 + 1):
        lam = carmichael_lambda(factorize(n))
        assert lambda_by_orders_batched(n) == lam, n


def test_phi_and_radical_multiplicative_on_coprime_pairs():
    rng = random.Random(13)
    tried = 0
    while tried < 300:
        a = rng.randrange(2, 10**6)
        b = rng.randrange(2, 10**6)
        if gcd(a, b) != 1:
            continue
        tried += 1
        assert euler_phi(factorize(a * b)) == \
            euler_phi(factorize(a)) * euler_phi(factorize(b))
        assert radical(factorize(a * b)) == \
            radical(factorize(a)) * radical(factorize(b))


def test_factorize_left_inverse_for_all_n_up_to_1e6(oracle_factorize):
    # sieve-based oracle, fully independent of the trial/rho path
    for n in range(1, 10**6 + 1):
        f = factorize(n)
        assert f == oracle_factorize(n), n
