"""Tuple scans, certificate construction, verification, and searches."""

import io
import json
import time
import types
from dataclasses import fields, replace
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import radical
from radimichael.arith import U64_LIMIT, factorize
from radimichael import construct
from radimichael.classify import is_carmichael, lehmer_index
from radimichael.construct import (
    CertificateViolationError,
    RadimichaelCertificate,
    TupleSpec,
    build_radimichael,
    certificate_from_line,
    certificate_to_line,
    read_certificates,
    scan_tuple,
    search_radimichael,
    stream_theorem2,
    theorem2_search,
    verify_certificate,
    write_certificates,
)


def spec_2_0_4(m=2, n_max=10):
    return TupleSpec(a=2, b=0, s=4, m=m, n_min=1, n_max=n_max)


# ---------------------------------------------------------------------------
# TupleSpec and scan_tuple
# ---------------------------------------------------------------------------

def test_tuple_spec_window_defaults_and_validation():
    spec = TupleSpec(a=2, b=3, s=5, m=2, n_min=1, n_max=9)
    assert spec.window == (4, 8)
    with pytest.raises(ValueError):
        TupleSpec(a=2, b=0, s=3, m=6, n_min=1, n_max=1)  # 6 > the 3 slots of (1, 3)
    with pytest.raises(ValueError):
        TupleSpec(a=1, b=0, s=3, m=2, n_min=1, n_max=1)
    with pytest.raises(ValueError):
        TupleSpec(a=2, b=0, s=3, m=2, n_min=5, n_max=2)
    with pytest.raises(ValueError):
        TupleSpec(a=2, b=0, s=9, m=4, n_min=1, n_max=1, window=(1, 3))
    # exponents start at 1: a negative one makes a^l * n + 1 a float, and at
    # 0, p - 1 = n is not divisible by a*n
    for window in ((-2, 3), (0, 3), (4, 3)):
        with pytest.raises(ValueError, match="empty or starts below 1"):
            TupleSpec(a=2, b=0, s=4, m=2, n_min=1, n_max=5, window=window)
    # the slots of an explicit window decide how many exponents fit, not s
    assert TupleSpec(a=2, b=0, s=1, m=3, n_min=1, n_max=5, window=(1, 5)).window == (1, 5)
    # a and every n are factored, so each must lie below 2^64
    TupleSpec(a=U64_LIMIT - 1, b=0, s=2, m=2, n_min=1, n_max=1)
    TupleSpec(a=2, b=0, s=2, m=2, n_min=1, n_max=U64_LIMIT - 1)
    for a, n_max in ((U64_LIMIT, 1), (2, U64_LIMIT)):
        with pytest.raises(ValueError, match="2\\*\\*64"):
            TupleSpec(a=a, b=0, s=2, m=2, n_min=1, n_max=n_max)
    # every field is an int, and window a tuple of two: no bool, float,
    # string or numpy integer
    good = dict(a=2, b=0, s=4, m=2, n_min=1, n_max=10)
    for field, bad in (("a", 2.0), ("a", np.int64(2)), ("b", 0.0), ("b", "0"), ("s", 4.0),
                       ("m", 2.0), ("n_min", 1.0), ("n_max", 10.0), ("n_max", True),
                       ("window", (1.0, 3)), ("window", (1, np.int64(3))),
                       ("window", [1, 3]), ("window", (1, 2, 3)), ("window", 3)):
        with pytest.raises(ValueError, match="ints"):
            TupleSpec(**{**good, field: bad})


def test_scan_tuple_examples():
    assert scan_tuple(spec_2_0_4(), 1) == ((1, 3), (2, 5), (4, 17))  # 2^3+1 = 9 is composite
    assert scan_tuple(spec_2_0_4(), 7) == ((2, 29), (4, 113))  # 15 and 57 are composite
    # 2*31+1 = 63 and 4*31+1 = 125 are both composite
    assert scan_tuple(TupleSpec(a=2, b=0, s=2, m=2, n_min=31, n_max=31), 31) == ()
    # outside the n range, or not an int: a float n would give float
    # components, and a bool n would pass for 1. build refuses the same n
    for n in (0, 11, 1.0, True, np.int64(1)):
        with pytest.raises(ValueError):
            scan_tuple(spec_2_0_4(), n)
        with pytest.raises(ValueError):
            build_radimichael(spec_2_0_4(), n, (1, 2))


def test_scan_tuple_monotone_in_window():
    for n in range(1, 30):
        small = TupleSpec(a=2, b=0, s=4, m=2, n_min=1, n_max=30)
        large = TupleSpec(a=2, b=0, s=9, m=2, n_min=1, n_max=30)
        assert set(scan_tuple(small, n)) <= set(scan_tuple(large, n))


# ---------------------------------------------------------------------------
# build_radimichael
# ---------------------------------------------------------------------------

def test_build_smallest_pair_gives_15():
    cert = build_radimichael(spec_2_0_4(), 1, (1, 2))
    assert cert.N == 15 and cert.primes == (3, 5)
    assert cert.kappa_N == 2 and (cert.N - 1) % cert.kappa_N == 0
    assert cert.non_carmichael_modulus == 4
    assert cert.non_carmichael_residue == 15 % 4 == 3 == cert.primes[0]
    assert cert.lehmer_index == 3
    assert not cert.probable_prime_flag and cert.gcd_a_n == 1


def test_build_triple_gives_255():
    cert = build_radimichael(spec_2_0_4(m=3), 1, (1, 2, 4))
    assert cert.N == 255 and cert.primes == (3, 5, 17)
    assert cert.kappa_N == 2 and 254 % 2 == 0
    # lambda(255) = 16 does not divide 254, so 255 is not Carmichael
    assert not is_carmichael(255, factorize(255))
    assert verify_certificate(cert)


def test_build_insufficient_hits():
    # exponents the scan found no prime at: 2^3 * 1 + 1 = 9, and
    # 2 * 7 + 1 = 15; the self-check refuses the composite component
    with pytest.raises(CertificateViolationError):
        build_radimichael(spec_2_0_4(m=4), 1, (1, 2, 3, 4))
    with pytest.raises(CertificateViolationError):
        build_radimichael(spec_2_0_4(), 7, (1, 2))


def test_build_explicit_subset():
    spec = TupleSpec(a=2, b=0, s=10, m=2, n_min=1, n_max=1, window=(1, 10))
    cert = build_radimichael(spec, 1, (4, 8))
    assert cert.N == 4369 and cert.primes == (17, 257)
    assert cert.lehmer_index == 3  # phi = 2^12, v2(4368) = 4, ceil(12/4)
    with pytest.raises(ValueError, match="strictly increasing"):
        build_radimichael(spec, 1, (0, 1))


# exponents malformed in their shape alone, whatever the spec: no spec
# admits them, so verify_certificate refuses each on a record's own spec
MALFORMED_SHAPES = {
    "zero": (0, 2),         # p - 1 = n is not divisible by a*n
    "repeated": (2, 2),
    "decreasing": (4, 2),
    "bool": (True, 2),      # a bool exponent would be written as true
    "float": (1, 2.0),
    "numpy": (1, np.int64(2)),
}


@pytest.mark.parametrize("n, exponents", [
    (1, MALFORMED_SHAPES["zero"]),
    (1, (2, 5)),         # above the window (1, 4)
    (1, MALFORMED_SHAPES["repeated"]),
    (1, MALFORMED_SHAPES["decreasing"]),
    (1, (2,)),           # a single exponent
    (1, (1, 2, 4)),      # more exponents than the spec's m = 2
    (1, ()),
    (1, (1, 10**9)),     # far above it: refused before 2^(10^9) is built
    (0, (1, 2)),         # n below the spec's range
    (11, (1, 2)),        # n above it
    (1, MALFORMED_SHAPES["bool"]),
    (True, (1, 2)),      # and a bool n as well
    (1, MALFORMED_SHAPES["float"]),
    (1, MALFORMED_SHAPES["numpy"]),
])
def test_build_refuses_a_malformed_request(n, exponents):
    start = time.perf_counter()
    with pytest.raises(ValueError):
        build_radimichael(spec_2_0_4(), n, exponents)
    assert time.perf_counter() - start < 0.5


def test_scan_build_and_verify_share_one_request_rule(monkeypatch):
    cert = build_radimichael(spec_2_0_4(), 1, (1, 2))
    admitted = []

    def refuse(spec, n, exponents=None):
        admitted.append((spec.window, n, exponents))
        raise ValueError("refused")

    monkeypatch.setattr(TupleSpec, "admit", refuse)
    with pytest.raises(ValueError, match="refused"):
        scan_tuple(spec_2_0_4(), 1)
    with pytest.raises(ValueError, match="refused"):
        build_radimichael(spec_2_0_4(), 1, [1, 2])
    assert not verify_certificate(cert)
    # verify asks the spec over the window the record's exponents span
    assert admitted == [((1, 4), 1, None), ((1, 4), 1, (1, 2)), ((1, 2), 1, (1, 2))]


def test_build_equals_every_all_subsets_certificate():
    spec = TupleSpec(a=2, b=0, s=8, m=3, n_min=1, n_max=40)
    certs = search_radimichael(spec, all_subsets=True)
    assert len({c.n for c in certs}) > 10
    for cert in certs:
        assert build_radimichael(spec, cert.n, cert.exponents) == cert


def test_build_tests_each_selected_prime_once(monkeypatch):
    # the only primality tests during building are the self-verify's, one
    # per selected prime
    calls = []
    inside_verify = [False]
    real_verdict, real_verify = construct.prime_verdict, construct.verify_certificate

    def counting_verdict(n, pm1_primes=()):
        calls.append((n, inside_verify[0]))
        return real_verdict(n, pm1_primes)

    def tracking_verify(cert):
        inside_verify[0] = True
        try:
            return real_verify(cert)
        finally:
            inside_verify[0] = False

    monkeypatch.setattr(construct, "prime_verdict", counting_verdict)
    monkeypatch.setattr(construct, "verify_certificate", tracking_verify)
    cert = build_radimichael(spec_2_0_4(m=3), 1, (1, 2, 4))
    assert len(calls) == 3
    assert sorted(n for n, _ in calls) == sorted(cert.primes)
    assert all(inside for _, inside in calls)


def test_certificate_index_matches_classify_for_small_n():
    spec = TupleSpec(a=3, b=1, s=6, m=2, n_min=1, n_max=40)
    for cert in search_radimichael(spec):
        if cert.N < U64_LIMIT:
            assert cert.lehmer_index == lehmer_index(cert.N, factorize(cert.N))


# ---------------------------------------------------------------------------
# witness and verification
# ---------------------------------------------------------------------------

def test_non_carmichael_witness_and_negative_control():
    cert = build_radimichael(spec_2_0_4(), 1, (1, 2))
    assert verify_certificate(cert)
    assert not verify_certificate(replace(cert, non_carmichael_residue=1))
    assert not verify_certificate(replace(cert, non_carmichael_modulus=2))


def test_verify_certificate_needs_korselt_to_agree(monkeypatch):
    # the Korselt test on the listed primes is a route of its own: were it
    # to call N Carmichael, a genuine record would fail
    cert = build_radimichael(spec_2_0_4(m=3), 1, (1, 2, 4))
    assert verify_certificate(cert)
    monkeypatch.setattr(construct, "is_carmichael", lambda n, f: True)
    assert not verify_certificate(cert)


def test_verify_certificate_round_trip_and_tampering():
    cert = build_radimichael(spec_2_0_4(m=3), 1, (1, 2, 4))
    assert verify_certificate(cert)
    assert not verify_certificate(replace(cert, primes=(3, 7, 17), N=3 * 7 * 17))
    assert not verify_certificate(replace(cert, N=cert.N + 2))
    assert not verify_certificate(replace(cert, kappa_N=6))
    assert not verify_certificate(replace(cert, lehmer_index=cert.lehmer_index + 1))
    assert not verify_certificate(replace(cert, lehmer_index=None))
    assert not verify_certificate(replace(cert, probable_prime_flag=True))
    assert not verify_certificate(replace(cert, sufficient_condition_held=True))
    assert not verify_certificate(replace(cert, gcd_a_n=3))
    assert not verify_certificate(replace(cert, exponents=(0, 2, 4)))


def test_verify_certificate_oracle_on_4369():
    spec = TupleSpec(a=2, b=0, s=10, m=2, n_min=1, n_max=1, window=(1, 10))
    cert = build_radimichael(spec, 1, (4, 8))
    assert 4368**3 % 4096 == 0 and 4368**2 % 4096 != 0
    assert verify_certificate(cert)


def test_lemma_identities_on_search_output():
    spec = TupleSpec(a=2, b=0, s=16, m=2, n_min=1, n_max=300)
    certs = search_radimichael(spec)
    assert len(certs) > 10
    for cert in certs:
        assert cert.kappa_N == radical(factorize(cert.a * cert.n))
        assert cert.N % (cert.a * cert.n) == 1
        assert (cert.N - 1) % cert.kappa_N == 0
        assert cert.N == prod(cert.primes)
        if cert.N < U64_LIMIT:
            assert not is_carmichael(cert.N, factorize(cert.N))


def test_probable_prime_certificates_are_flagged():
    # primes 2^65*9+1 and 2^67*9+1 exceed 2^64
    spec = TupleSpec(a=2, b=64, s=8, m=2, n_min=9, n_max=9)
    assert [l for l, _ in scan_tuple(spec, 9)][:2] == [65, 67]
    cert = build_radimichael(spec, 9, (65, 67))
    assert cert.probable_prime_flag
    assert cert.exponents == (65, 67)
    assert verify_certificate(cert)
    # a component at or above 2^64 must carry the flag
    assert not verify_certificate(replace(cert, probable_prime_flag=False))


def test_scan_factors_n_only_once_a_component_reaches_2_64(monkeypatch):
    calls = []
    real = construct.factorize
    monkeypatch.setattr(construct, "factorize", lambda m: calls.append(m) or real(m))
    scan_tuple(spec_2_0_4(), 7)
    assert calls == []
    # 9 * 2^65 + 1 onward: the primes of a and n, once for the whole window
    scan_tuple(TupleSpec(a=2, b=64, s=8, m=2, n_min=9, n_max=9), 9)
    assert calls == [2, 9]


def test_certificate_with_a_times_n_above_64_bits():
    # a*n = 2^40 * 16777482 passes 2^64 although a and n are both below it;
    # rad(a*n) comes from a and n apart, so the self-check holds
    spec = TupleSpec(a=2**40, b=0, s=4, m=2, n_min=16777482, n_max=16777482)
    assert spec.a * spec.n_max >= U64_LIMIT
    [cert] = search_radimichael(spec)
    assert cert.exponents == (1, 4)
    assert cert.kappa_N == radical(factorize(16777482))
    assert cert.lehmer_index == 5
    assert verify_certificate(cert)
    assert not verify_certificate(replace(cert, kappa_N=2 * cert.kappa_N))


# ---------------------------------------------------------------------------
# searches
# ---------------------------------------------------------------------------

def test_search_smallest_vs_all_subsets():
    spec = TupleSpec(a=2, b=0, s=8, m=2, n_min=1, n_max=50)
    default = search_radimichael(spec)
    everything = search_radimichael(spec, all_subsets=True)
    assert {c.n for c in default} <= {c.n for c in everything}
    assert len(everything) >= len(default)
    by_n = {}
    for c in default:
        assert by_n.setdefault(c.n, c) is c  # one cert per n in default mode


def test_search_worker_partition_is_deterministic():
    spec = TupleSpec(a=2, b=0, s=8, m=2, n_min=1, n_max=80)
    serial = search_radimichael(spec)
    parallel = search_radimichael(spec, workers=3)
    assert serial == parallel


def test_theorem2_k3_emits_known_products():
    certs = theorem2_search(2, 3, 10, range(1, 2))
    ns = sorted(c.N for c in certs)
    assert ns == [15, 85, 4369]
    for cert in certs:
        assert len(cert.primes) == 2
        assert cert.lehmer_index == 3
        assert verify_certificate(cert)


def test_theorem2_rejects_small_k_and_empty_range():
    with pytest.raises(ValueError):
        theorem2_search(2, 2, 10, range(1, 100))
    # an empty range breaks TupleSpec's n-range rule, as it does for construct
    with pytest.raises(ValueError, match="need 1 <= n_min <= n_max"):
        theorem2_search(2, 3, 10, range(5, 5))


def test_theorem2_reads_only_the_ends_of_a_range_past_2_63(monkeypatch):
    # len(range(1, 2**63 + 1)) overflows; the range's ends alone are needed
    def no_fork_map(work, workers):
        raise AssertionError("a worker started")

    monkeypatch.setattr(construct, "fork_map", no_fork_map)
    certs = stream_theorem2(2, 3, 4, range(1, 2**63 + 1), workers=2)
    assert isinstance(certs, types.GeneratorType)
    certs.close()


def test_theorem2_refuses_a_stepped_range():
    # the search covers [n_range[0], n_range[-1]], so a stepped range would
    # also certify the n it skips
    with pytest.raises(ValueError, match="step 1"):
        theorem2_search(2, 3, 10, range(1, 60, 2))
    with pytest.raises(ValueError, match="step 1"):
        theorem2_search(2, 3, 10, range(59, 0, -1))
    # only a range: a list, tuple or None has no step to check
    for bad in ([1, 2, 3], (1, 60), None):
        with pytest.raises(ValueError, match="step 1"):
            theorem2_search(2, 3, 10, bad)


def test_theorem2_k4_emits_verified_certificates():
    certs = theorem2_search(2, 4, 10, range(1, 61))
    assert certs  # n=3 yields N = 97 * 193 * 769 = 14396449 among others
    assert any(c.N == 14396449 for c in certs)
    for cert in certs:
        assert len(cert.primes) == 3
        assert cert.lehmer_index == 4
        assert verify_certificate(cert)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(a=st.integers(2, 30), n=st.integers(1, 10**4), b=st.integers(0, 40),
       slack=st.integers(0, 3), gaps=st.lists(st.integers(1, 4), min_size=1, max_size=4))
def test_no_selection_has_index_below_m_plus_1(a, n, b, slack, gaps):
    # stream_theorem2's bound: for any a >= 2, n >= 1 and m >= 2 strictly
    # increasing exponents >= 1, phi(N) does not divide (N-1)^m; no
    # component need be prime. With l_1 >= b and sum(l_i - b) < b, phi(N)
    # divides (N-1)^(m+1), so such a selection has index exactly m+1
    exponents = [max(b + slack, 1)]
    for gap in gaps:
        exponents.append(exponents[-1] + gap)
    m = len(exponents)
    components = [a**l * n + 1 for l in exponents]
    phi, big_n = prod(p - 1 for p in components), prod(components)
    assert pow(big_n - 1, m, phi) != 0
    if sum(l - b for l in exponents) < b:
        assert pow(big_n - 1, m + 1, phi) == 0


def _certify_everything(a, k, s, n_range, b, workers):
    """Every size-(k-1) selection of theorem2's window, certified."""
    spec = TupleSpec(a=a, b=b, s=s, m=k - 1, n_min=n_range[0],
                     n_max=n_range[-1], window=(max(b, 1), b + s))
    return search_radimichael(spec, all_subsets=True, workers=workers)


def test_theorem2_sufficient_condition_bounds_index():
    # b = 12: window (12, 18), where sum(l_i - b) < b can hold and caps the
    # index at 3, the least any selection has
    held = [c for c in _certify_everything(2, 3, 6, range(1, 400), 12, 1)
            if c.sufficient_condition_held]
    assert held, "expected at least one selection with the condition held"
    assert all(cert.lehmer_index == 3 for cert in held)


THEOREM2_RUNS = [
    ((2, 3, 10, range(1, 301)), 0),
    ((2, 4, 16, range(1, 301)), 0),
    ((3, 5, 12, range(1, 201)), 4),
    ((2, 3, 6, range(1, 400)), 12),
]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("args, b", THEOREM2_RUNS)
def test_theorem2_matches_certify_everything_oracle(args, b, workers):
    k = args[1]
    certs = _certify_everything(*args, b, workers)
    assert theorem2_search(*args, b=b, workers=workers) == [
        c for c in certs if c.lehmer_index == k]
    # no selection holds the sufficient condition off index k
    assert [c for c in certs
            if c.sufficient_condition_held and c.lehmer_index != k] == []


def test_theorem2_certifies_only_emitted_products(monkeypatch):
    built = []
    real_build = construct.build_radimichael

    def counting_build(*args, **kwargs):
        built.append(real_build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(construct, "build_radimichael", counting_build)
    for args, b in THEOREM2_RUNS:
        built.clear()
        emitted = theorem2_search(*args, b=b)
        assert emitted
        assert built == emitted


# ---------------------------------------------------------------------------
# component size cap
# ---------------------------------------------------------------------------

def test_tuple_spec_refuses_components_above_the_cap():
    cap = construct.MAX_COMPONENT_BITS
    # 2^(cap-1) * 1 + 1 has exactly cap bits
    TupleSpec(a=2, b=0, s=cap - 1, m=2, n_min=1, n_max=1)
    with pytest.raises(ValueError, match="exceeds"):
        TupleSpec(a=2, b=0, s=cap, m=2, n_min=1, n_max=1)
    with pytest.raises(ValueError, match="exceeds"):
        TupleSpec(a=2, b=0, s=cap - 1, m=2, n_min=1, n_max=2)
    # a huge window is refused without building a^hi
    with pytest.raises(ValueError, match="exceeds"):
        TupleSpec(a=3, b=0, s=10**15, m=2, n_min=1, n_max=1)


def test_tuple_spec_refuses_certificates_over_the_digit_limit():
    limit = construct.MAX_CERTIFICATE_BITS
    assert 2**limit < 10**4300 < 2**(limit + 1)
    # components up to 2^2047 + 1: six fit, seven could give 14,336 bits
    TupleSpec(a=2, b=2030, s=17, m=6, n_min=1, n_max=1)
    with pytest.raises(ValueError, match="4,300 decimal digit"):
        TupleSpec(a=2, b=2030, s=17, m=7, n_min=1, n_max=1)


def test_theorem2_never_scans_exponent_zero(monkeypatch):
    calls = []
    real_verdict = construct.prime_verdict

    def counting_verdict(n, pm1_primes=()):
        calls.append(n)
        return real_verdict(n, pm1_primes)

    monkeypatch.setattr(construct, "prime_verdict", counting_verdict)
    # b = 0: the window is 1..s, so s verdicts per n, plus the self-verify's
    # m per certificate
    certs = theorem2_search(2, 3, 10, range(1, 101))
    assert certs
    assert len(calls) == 100 * 10 + 2 * len(certs)
    # b >= 1: exponent b is selectable, so the window keeps its s+1 slots
    calls.clear()
    certs = theorem2_search(2, 3, 6, range(1, 101), b=12)
    assert len(calls) == 100 * 7 + 2 * len(certs)
    # m = k-1 = s+1 selections need exponent 0 at b = 0: refused up front
    with pytest.raises(ValueError, match="exceeds"):
        theorem2_search(2, 18, 16, range(1, 2))


def test_verify_fails_an_over_cap_component_before_any_primality_test(monkeypatch):
    # 2^2208 * 3 + 1 and 2^2816 * 3 + 1: 2,210 and 2,818 bits, N far under
    # its own cap, so only the component cap stops the costly verdicts
    cert = construct._certificate(2, 0, 3, (2208, 2816))
    assert construct.oversize(cert) == "a 2818-bit component exceeds the 2048-bit cap"
    calls = []
    monkeypatch.setattr(construct, "prime_verdict",
                        lambda p, pm1_primes=(): calls.append(p) or True)
    assert not verify_certificate(cert)
    assert calls == []


def test_korselt_cross_check_runs_past_2_64(monkeypatch):
    certs = theorem2_search(2, 4, 16, range(2000, 2100))
    big = [cert for cert in certs if cert.N >= U64_LIMIT]
    assert big
    calls = []
    real = construct.is_carmichael

    def counting(n, f):
        calls.append(n)
        return real(n, f)

    monkeypatch.setattr(construct, "is_carmichael", counting)
    assert all(verify_certificate(cert) for cert in big)
    assert calls == [cert.N for cert in big]


def test_verify_rejects_huge_exponent_without_building_the_power():
    cert = build_radimichael(spec_2_0_4(), 1, (1, 2))
    assert not verify_certificate(replace(cert, exponents=(1, 10**9)))


def test_verify_refuses_a_product_past_the_cap_before_building_it(monkeypatch):
    # 2047 components 2^l + 1, each under the component cap: phi of their
    # product is 2^2096128, which would cost its Lehmer index to build
    cert = build_radimichael(spec_2_0_4(), 1, (1, 2))
    exponents = tuple(range(1, construct.MAX_COMPONENT_BITS))
    primes = tuple(2**l + 1 for l in exponents)
    built = []
    monkeypatch.setattr(construct, "_certificate", lambda *args: built.append(args))
    for big_n in (3, 2**construct.MAX_CERTIFICATE_BITS):
        assert not verify_certificate(
            replace(cert, n=1, exponents=exponents, primes=primes, N=big_n))
    # a listed prime that is not a^l * n + 1 stops the check before the rest
    assert not verify_certificate(
        replace(cert, n=2**10**6, exponents=exponents, primes=primes))
    assert built == []


def test_verify_fails_a_record_no_spec_admits_before_building_it(monkeypatch):
    # N has 2,070 bits, but a spec with 7 components of up to 2,048 bits
    # could reach past the N cap, so no search emits this record
    exponents = (1, 2, 3, 4, 5, 6, 2047)
    cert = construct._certificate(2, 0, 1, exponents)
    assert cert.N.bit_length() == 2070
    assert construct.oversize(cert) is None
    assert 7 * construct.MAX_COMPONENT_BITS > construct.MAX_CERTIFICATE_BITS
    built = []
    monkeypatch.setattr(construct, "_certificate", lambda *args: built.append(args))
    assert not verify_certificate(cert)
    assert not verify_certificate(replace(cert, exponents=()))
    for exponents in MALFORMED_SHAPES.values():
        assert not verify_certificate(replace(cert, exponents=exponents))
    assert built == []


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_certificate_line_round_trip():
    certs = search_radimichael(TupleSpec(a=2, b=0, s=16, m=2, n_min=1, n_max=60))
    for cert in certs:
        line = certificate_to_line(cert)
        assert certificate_from_line(line) == cert
    buffer = io.StringIO()
    assert write_certificates(certs, buffer) == len(certs)
    buffer.seek(0)
    assert read_certificates(buffer) == certs


def test_certificate_parse_rejects_malformed():
    with pytest.raises(ValueError):
        certificate_from_line("not json at all")
    with pytest.raises(ValueError):
        certificate_from_line('{"a": 2}')
    with pytest.raises(ValueError):
        certificate_from_line('[1, 2, 3]')
    with pytest.raises(ValueError):
        read_certificates(io.StringIO('{"a": 2}\n'))
    # json.loads alone keeps the last of a repeated field
    line = certificate_to_line(build_radimichael(spec_2_0_4(), 1, (1, 2)))
    with pytest.raises(ValueError, match="repeats a field"):
        certificate_from_line('{"a":2,' + line[1:])


def test_certificate_line_keys_are_the_dataclass_fields_in_order():
    line = certificate_to_line(build_radimichael(spec_2_0_4(), 1, (1, 2)))
    assert list(json.loads(line)) == [f.name for f in fields(RadimichaelCertificate)]


# for each field annotation, a JSON value of another type
WRONG_WIRE_TYPE = {"int": 3.0, "tuple[int, ...]": 3, "int | None": "3", "bool": None}


@pytest.mark.parametrize("field, value", [
    ("N", 15.9),
    ("N", "15"),
    ("lehmer_index", 3.99),
    ("sufficient_condition_held", 0),
    ("unknown_field", 1),
    ("gcd_a_n", True),
    ("primes", [3, "5"]),
    *((f.name, WRONG_WIRE_TYPE[f.type]) for f in fields(RadimichaelCertificate)),
])
def test_certificate_parse_accepts_only_wire_types(field, value):
    cert = build_radimichael(spec_2_0_4(), 1, (1, 2))
    record = json.loads(certificate_to_line(cert))
    record[field] = value
    with pytest.raises(ValueError):
        certificate_from_line(json.dumps(record))


def test_tampered_line_fails_verification():
    cert = build_radimichael(spec_2_0_4(), 1, (1, 2))
    line = certificate_to_line(cert)
    tampered = line.replace('"primes":[3,5]', '"primes":[5,7]')
    parsed = certificate_from_line(tampered)
    assert not verify_certificate(parsed)
