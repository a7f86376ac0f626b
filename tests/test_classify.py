"""Classification predicates against the Fermat and big-integer oracles."""

from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fermat_oracle_is_carmichael, is_radimichael
from radimichael.arith import euler_phi, factorize
from radimichael.classify import (
    NumberClass,
    classify,
    is_carmichael,
    is_k_lehmer,
    lehmer_index,
    lehmer_index_from_phi,
)
from radimichael.construct import TupleSpec, search_radimichael

CARMICHAEL_BELOW_1E4 = [561, 1105, 1729, 2465, 2821, 6601, 8911]


def composites(limit):
    for n in range(4, limit + 1):
        f = factorize(n)
        if f.omega > 1 or f.factors[0][1] > 1:
            yield n, f


# ---------------------------------------------------------------------------
# is_carmichael and the Fermat oracle
# ---------------------------------------------------------------------------

def test_is_carmichael_examples():
    assert fermat_oracle_is_carmichael(561)
    assert is_carmichael(561, factorize(561))
    assert not is_carmichael(85, factorize(85))
    assert not is_carmichael(9, factorize(9))  # not squarefree


def test_is_carmichael_domain_errors():
    with pytest.raises(ValueError):
        is_carmichael(7, factorize(7))
    with pytest.raises(ValueError):
        is_carmichael(3, factorize(3))
    with pytest.raises(ValueError):
        is_carmichael(85, factorize(86))


def test_fermat_oracle_examples():
    assert not fermat_oracle_is_carmichael(15)  # 2^15 mod 15 = 8
    assert not fermat_oracle_is_carmichael(4)   # 2^4 mod 4 = 0
    assert fermat_oracle_is_carmichael(561)


def test_fermat_oracle_cost_bound():
    n = 10**6 + 15  # composite: 5 * 200003
    assert n % 5 == 0
    with pytest.raises(ValueError):
        fermat_oracle_is_carmichael(n)
    # the force flag lifts the bound; 2 is a Fermat witness so this is fast
    assert pow(2, n, n) != 2
    assert not fermat_oracle_is_carmichael(n, force=True)


def test_oracle_equivalence_up_to_2000():
    for n, f in composites(2000):
        assert is_carmichael(n, f) == fermat_oracle_is_carmichael(n), n


# ---------------------------------------------------------------------------
# radimichael and the Lehmer index
# ---------------------------------------------------------------------------

def test_is_radimichael_examples():
    assert is_radimichael(85, factorize(85))
    assert is_radimichael(15, factorize(15))  # kappa(15) = rad(8) = 2 | 14
    assert not is_radimichael(9, factorize(9))
    with pytest.raises(ValueError):
        is_radimichael(13, factorize(13))


def test_lehmer_index_examples():
    # brute-force checks inline: 64 does not divide 84^2 but divides 84^3
    assert 84**2 % 64 != 0 and 84**3 % 64 == 0
    assert lehmer_index(85, factorize(85)) == 3
    assert 560**1 % 320 != 0 and 560**2 % 320 == 0
    assert lehmer_index(561, factorize(561)) == 2
    assert lehmer_index(4, factorize(4)) is None  # (4-1)^k is odd
    assert lehmer_index_from_phi(1, 6) == 1
    assert lehmer_index_from_phi(2**5 * 3**2, 6) == 5
    assert lehmer_index_from_phi(2**5 * 3, 10) is None  # 3 does not divide 10


def test_lehmer_index_from_phi_around_powers_of_two_and_in_the_thousands():
    # k = v_2(phi) when n-1 = 2 * odd; at and around each 2^j the search
    # for k changes its number of squarings
    for k in range(1, 70):
        assert lehmer_index_from_phi(2**k, 2 * 3**5) == k
        assert lehmer_index_from_phi(2**k * 3**k, 6 * 3) == k
        assert lehmer_index_from_phi(2**k * 5, 6) is None
    # the index of construct's (a, n) = (2, 1) at exponents (1, 1000, 2000),
    # and the largest an N under the certificate cap can have
    big_n = 3 * (2**1000 + 1) * (2**2000 + 1)
    assert lehmer_index_from_phi(2**3001, big_n - 1) == 3001
    assert lehmer_index_from_phi(2**14283, 2) == 14283
    assert lehmer_index_from_phi(2**14283 * 7, 2) is None


def least_power_index(phi, n_minus_1):
    """The least k with phi | (n-1)^k, found by trying each k, or None if
    none up to phi.bit_length() works: were there one, the least would be
    at most the largest exponent in phi, which is below its bit length."""
    return next((k for k in range(1, phi.bit_length() + 1)
                 if pow(n_minus_1, k, phi) == 0), None)


def test_lehmer_index_from_phi_on_certificates_past_2_64():
    # N = p1*p2*p3 with p_i = 2^l_i * n + 1, so phi(N) = prod (p_i - 1)
    certs = search_radimichael(TupleSpec(a=2, b=0, s=64, m=3, n_min=1, n_max=10),
                               all_subsets=True)
    phis = [prod(p - 1 for p in cert.primes) for cert in certs]
    big = [(phi, cert) for phi, cert in zip(phis, certs) if phi >= 2**64]
    assert len(big) > 250
    for phi, cert in big:
        k = lehmer_index_from_phi(phi, cert.N - 1)
        assert k == cert.lehmer_index == least_power_index(phi, cert.N - 1), cert.N


PHI_PRIMES = (2, 3, 5, 7, 11, 13)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(PHI_PRIMES), st.integers(0, 40),
                          st.integers(0, 6)), min_size=1, max_size=6),
       st.integers(1, 10**6))
def test_lehmer_index_from_phi_matches_least_power(powers, cofactor):
    # phi = prod q^e and n-1 = prod q^t * cofactor; a t of 0 leaves q to the
    # cofactor, which may not supply it, the None case
    phi = prod(q**e for q, e, _ in powers)
    n_minus_1 = prod(q**t for q, _, t in powers) * cofactor
    assert lehmer_index_from_phi(phi, n_minus_1) == least_power_index(phi, n_minus_1)


def test_is_k_lehmer_examples():
    assert is_k_lehmer(15, 3)   # 14^3 = 2744 = 8 * 343
    assert not is_k_lehmer(15, 2)  # 196 / 8 is not integral
    with pytest.raises(ValueError):
        is_k_lehmer(7, 2)
    with pytest.raises(ValueError):
        is_k_lehmer(15, 0)


def test_is_k_lehmer_equals_full_power_divisibility_up_to_3000():
    # the modular check against the literal definition, big power and all
    for n, f in composites(3000):
        phi = euler_phi(f)
        for k in range(1, 7):
            assert is_k_lehmer(n, k, f) == ((n - 1) ** k % phi == 0), (n, k)


def test_is_k_lehmer_monotone():
    for n in (15, 85, 561, 91, 255):
        f = factorize(n)
        k = lehmer_index(n, f)
        for extra in range(4):
            assert is_k_lehmer(n, k + extra, f)


def test_index_agrees_with_big_integer_oracle_up_to_1e5():
    checked = 0
    for n, f in composites(10**5):
        k = lehmer_index(n, f)
        if k is None:
            continue
        checked += 1
        assert is_k_lehmer(n, k, f), n
        if k >= 2:
            assert not is_k_lehmer(n, k - 1, f), n
    assert checked > 400  # 422 radimichael numbers below 1e5


def test_not_radimichael_iff_index_none_up_to_2e4():
    for n, f in composites(2 * 10**4):
        assert is_radimichael(n, f) == (lehmer_index(n, f) is not None), n


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_examples():
    c85 = classify(85)
    assert c85 == NumberClass(85, "composite", False, True, 3, 2, True)
    c561 = classify(561)
    assert c561.carmichael and c561.radimichael and c561.lehmer_index == 2
    assert c561.omega == 3 and c561.squarefree
    assert classify(7) == NumberClass(7, "prime", False, False, None, 1, True)
    assert classify(1).category == "unit"
    with pytest.raises(ValueError):
        classify(0)
    with pytest.raises(ValueError, match="int"):
        classify(561.0)


def test_classify_category_consistency():
    for n in range(1, 500):
        record = classify(n)
        if record.category != "composite":
            assert not record.carmichael and not record.radimichael
            assert record.lehmer_index is None
        assert record.radimichael == (record.lehmer_index is not None)
        if record.carmichael:
            assert record.radimichael


# ---------------------------------------------------------------------------
# class-structure invariants (unit-scale; the acceptance suite pushes the
# full bounds)
# ---------------------------------------------------------------------------

def test_subset_chain_and_parity_up_to_1e5():
    for n, f in composites(10**5):
        record = classify(n)
        if record.carmichael:
            assert record.radimichael, n
        if record.radimichael:
            assert n % 2 == 1, n


def test_known_carmichael_list_below_1e4():
    found = [n for n, f in composites(10**4) if is_carmichael(n, f)]
    assert found == CARMICHAEL_BELOW_1E4


def test_carmichael_shape_up_to_1e5():
    for n, f in composites(10**5):
        if is_carmichael(n, f):
            assert n % 2 == 1 and f.squarefree and f.omega >= 3, n


def test_no_low_index_semiprimes_up_to_1e5():
    for n, f in composites(10**5):
        if f.omega == 2 and f.squarefree:
            k = lehmer_index(n, f)
            assert k is None or k >= 3, n


def test_no_lehmer_numbers_up_to_1e6():
    from radimichael.survey import survey
    report = survey(10**6)
    assert all(row.lehmer[0] == 0 for row in report.rows)


def test_no_even_radimichael_up_to_1e6(oracle_factorize):
    # phi(n) is even for n >= 3, so kappa(n) is even and cannot divide
    # the odd n-1 of an even n; checked definitionally over every even
    # composite
    for n in range(4, 10**6 + 1, 2):
        assert not is_radimichael(n, oracle_factorize(n)), n
