"""Tuple scans, certificate construction, verification, and searches."""

import io
import json
from dataclasses import replace
from math import gcd, prod

import pytest

from radimichael.arith import U64_LIMIT, factorize, radical
from radimichael import construct
from radimichael.classify import is_carmichael, lehmer_index
from radimichael.construct import (
    CertificateViolationError,
    InsufficientHitsError,
    TupleSpec,
    build_radimichael,
    certificate_from_line,
    certificate_to_line,
    non_carmichael_check,
    read_certificates,
    scan_tuple,
    search_radimichael,
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
        TupleSpec(a=2, b=0, s=3, m=6, n_min=1, n_max=1)  # m > s+1
    with pytest.raises(ValueError):
        TupleSpec(a=1, b=0, s=3, m=2, n_min=1, n_max=1)
    with pytest.raises(ValueError):
        TupleSpec(a=2, b=0, s=3, m=2, n_min=5, n_max=2)
    with pytest.raises(ValueError):
        TupleSpec(a=2, b=0, s=9, m=4, n_min=1, n_max=1, window=(1, 3))
    # a and every n are factored, so each must lie below 2^64
    TupleSpec(a=U64_LIMIT - 1, b=0, s=2, m=2, n_min=1, n_max=1)
    TupleSpec(a=2, b=0, s=2, m=2, n_min=1, n_max=U64_LIMIT - 1)
    for a, n_max in ((U64_LIMIT, 1), (2, U64_LIMIT)):
        with pytest.raises(ValueError, match="2\\*\\*64"):
            TupleSpec(a=a, b=0, s=2, m=2, n_min=1, n_max=n_max)


def test_scan_tuple_examples():
    hit = scan_tuple(spec_2_0_4(), 1)
    assert hit.hits == ((1, 3), (2, 5), (4, 17))  # 2^3+1 = 9 is composite
    hit7 = scan_tuple(spec_2_0_4(), 7)
    assert hit7.hits == ((2, 29), (4, 113))  # 15 and 57 are composite
    # 2*31+1 = 63 and 4*31+1 = 125 are both composite
    empty = scan_tuple(TupleSpec(a=2, b=0, s=2, m=2, n_min=31, n_max=31), 31)
    assert empty.hits == ()
    with pytest.raises(ValueError):
        scan_tuple(spec_2_0_4(), 11)  # outside the n range


def test_scan_tuple_monotone_in_window():
    for n in range(1, 30):
        small = TupleSpec(a=2, b=0, s=4, m=2, n_min=1, n_max=30)
        large = TupleSpec(a=2, b=0, s=9, m=2, n_min=1, n_max=30)
        hits_small = set(scan_tuple(small, n).hits)
        hits_large = set(scan_tuple(large, n).hits)
        assert hits_small <= hits_large


# ---------------------------------------------------------------------------
# build_radimichael
# ---------------------------------------------------------------------------

def test_build_smallest_pair_gives_15():
    cert = build_radimichael(scan_tuple(spec_2_0_4(), 1), 2)
    assert cert.N == 15 and cert.primes == (3, 5)
    assert cert.kappa_N == 2 and (cert.N - 1) % cert.kappa_N == 0
    assert cert.non_carmichael_modulus == 4
    assert cert.non_carmichael_residue == 15 % 4 == 3 == cert.primes[0]
    assert cert.lehmer_index == 3
    assert not cert.probable_prime_flag and cert.gcd_a_n == 1


def test_build_triple_gives_255():
    cert = build_radimichael(scan_tuple(spec_2_0_4(), 1), 3)
    assert cert.N == 255 and cert.primes == (3, 5, 17)
    assert cert.kappa_N == 2 and 254 % 2 == 0
    # lambda(255) = 16 does not divide 254, so 255 is not Carmichael
    assert not is_carmichael(255, factorize(255))
    assert non_carmichael_check(cert)


def test_build_insufficient_hits():
    with pytest.raises(InsufficientHitsError):
        build_radimichael(scan_tuple(spec_2_0_4(), 1), 4)
    with pytest.raises(InsufficientHitsError):
        build_radimichael(scan_tuple(spec_2_0_4(m=2), 7), 2, subset=(1, 2))


def test_build_explicit_subset():
    hit = scan_tuple(TupleSpec(a=2, b=0, s=10, m=2, n_min=1, n_max=1,
                               window=(0, 10)), 1)
    cert = build_radimichael(hit, 2, subset=(4, 8))
    assert cert.N == 4369 and cert.primes == (17, 257)
    assert cert.lehmer_index == 3  # phi = 2^12, v2(4368) = 4, ceil(12/4)
    # exponent-0 entries are reported by the scan but never selectable
    assert (0, 2) in hit.hits
    with pytest.raises(InsufficientHitsError):
        build_radimichael(hit, 2, subset=(0, 1))


def test_build_tests_each_selected_prime_once(monkeypatch):
    # the only primality tests during building are the self-verify's, one
    # per selected prime
    hit = scan_tuple(spec_2_0_4(m=3), 1)
    calls = []
    inside_verify = [False]
    real_verdict, real_verify = construct.prime_verdict, construct.verify_certificate

    def counting_verdict(n):
        calls.append((n, inside_verify[0]))
        return real_verdict(n)

    def tracking_verify(cert):
        inside_verify[0] = True
        try:
            return real_verify(cert)
        finally:
            inside_verify[0] = False

    monkeypatch.setattr(construct, "prime_verdict", counting_verdict)
    monkeypatch.setattr(construct, "verify_certificate", tracking_verify)
    cert = build_radimichael(hit, 3)
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

def test_non_carmichael_check_and_negative_control():
    cert = build_radimichael(scan_tuple(spec_2_0_4(), 1), 2)
    assert non_carmichael_check(cert)
    fake = replace(cert, non_carmichael_residue=1)
    assert not non_carmichael_check(fake)


def test_verify_certificate_round_trip_and_tampering():
    cert = build_radimichael(scan_tuple(spec_2_0_4(), 1), 3)
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
    hit = scan_tuple(TupleSpec(a=2, b=0, s=10, m=2, n_min=1, n_max=1,
                               window=(0, 10)), 1)
    cert = build_radimichael(hit, 2, subset=(4, 8))
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
    cert = build_radimichael(scan_tuple(spec, 9), 2)
    assert cert.probable_prime_flag
    assert cert.exponents == (65, 67)
    assert verify_certificate(cert)
    # a component at or above 2^64 must carry the flag
    assert not verify_certificate(replace(cert, probable_prime_flag=False))


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
    assert theorem2_search(2, 3, 10, range(5, 5)) == []


def test_theorem2_refuses_a_stepped_range():
    # the search covers [n_range[0], n_range[-1]], so a stepped range would
    # also certify the n it skips
    with pytest.raises(ValueError, match="step 1"):
        theorem2_search(2, 3, 10, range(1, 60, 2))
    with pytest.raises(ValueError, match="step 1"):
        theorem2_search(2, 3, 10, range(59, 0, -1))


def test_theorem2_k4_emits_verified_certificates():
    certs = theorem2_search(2, 4, 10, range(1, 61))
    assert certs  # n=3 yields N = 97 * 193 * 769 = 14396449 among others
    assert any(c.N == 14396449 for c in certs)
    for cert in certs:
        assert len(cert.primes) == 3
        assert cert.lehmer_index == 4
        assert verify_certificate(cert)


def test_theorem2_sufficient_condition_bounds_index():
    # b = m*s style run: window (12, 18), condition sum(l-b) < b can hold
    diagnostics = []
    certs = theorem2_search(2, 3, 6, range(1, 400), b=12,
                            diagnostics=diagnostics)
    held = [c for c in certs + diagnostics if c.sufficient_condition_held]
    assert held, "expected at least one certificate with the condition held"
    for cert in held:
        assert cert.lehmer_index is not None and cert.lehmer_index <= 3
    # diagnostics are exactly the held-but-off-target certificates
    for cert in diagnostics:
        assert cert.sufficient_condition_held and cert.lehmer_index != 3


def _certify_everything_oracle(a, k, s, n_range, b, workers):
    """theorem2 by certifying every size-(k-1) selection, then filtering."""
    spec = TupleSpec(a=a, b=b, s=s, m=k - 1, n_min=n_range[0],
                     n_max=n_range[-1], window=(b, b + s))
    certs = search_radimichael(spec, all_subsets=True, workers=workers)
    emitted = [c for c in certs if c.lehmer_index == k]
    held = [c for c in certs
            if c.lehmer_index != k and c.sufficient_condition_held]
    return emitted, held


THEOREM2_RUNS = [
    ((2, 3, 10, range(1, 301)), 0),
    ((2, 4, 16, range(1, 301)), 0),
    ((3, 5, 12, range(1, 201)), 4),
    ((2, 3, 6, range(1, 400)), 12),
]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("args, b", THEOREM2_RUNS)
def test_theorem2_matches_certify_everything_oracle(args, b, workers):
    diagnostics = []
    emitted = theorem2_search(*args, b=b, workers=workers,
                              diagnostics=diagnostics)
    assert (emitted, diagnostics) == _certify_everything_oracle(*args, b, workers)


def test_theorem2_certifies_only_emitted_and_diagnostic_products(monkeypatch):
    built = []
    real_build = construct.build_radimichael

    def counting_build(*args, **kwargs):
        built.append(args)
        return real_build(*args, **kwargs)

    monkeypatch.setattr(construct, "build_radimichael", counting_build)
    for args, b in THEOREM2_RUNS:
        built.clear()
        diagnostics = []
        emitted = theorem2_search(*args, b=b, diagnostics=diagnostics)
        assert emitted
        assert len(built) == len(emitted) + len(diagnostics)


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

    def counting_verdict(n):
        calls.append(n)
        return real_verdict(n)

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


def test_verify_rejects_huge_exponent_without_building_the_power():
    cert = build_radimichael(scan_tuple(spec_2_0_4(), 1), 2)
    assert not verify_certificate(replace(cert, exponents=(1, 10**9)))


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


@pytest.mark.parametrize("field, value", [
    ("N", 15.9),
    ("N", "15"),
    ("lehmer_index", 3.99),
    ("sufficient_condition_held", 0),
    ("unknown_field", 1),
    ("gcd_a_n", True),
    ("primes", [3, "5"]),
])
def test_certificate_parse_accepts_only_wire_types(field, value):
    cert = build_radimichael(scan_tuple(spec_2_0_4(), 1), 2)
    record = json.loads(certificate_to_line(cert))
    record[field] = value
    with pytest.raises(ValueError):
        certificate_from_line(json.dumps(record))


def test_tampered_line_fails_verification():
    cert = build_radimichael(scan_tuple(spec_2_0_4(), 1), 2)
    line = certificate_to_line(cert)
    tampered = line.replace('"primes":[3,5]', '"primes":[5,7]')
    parsed = certificate_from_line(tampered)
    assert not verify_certificate(parsed)
