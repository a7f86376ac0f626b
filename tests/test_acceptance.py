"""Acceptance criteria, one test per criterion, each printing a PASS line.

Criteria 4 and 8 share a single survey(10^7) run through a session fixture.
Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines live.
"""

import os
import random
import statistics
import time

import pytest

from conftest import fermat_oracle_is_carmichael
from radimichael.arith import U64_LIMIT, Factorization, factorize
from radimichael.classify import (
    classify,
    is_carmichael,
    is_k_lehmer,
    lehmer_index,
)
from radimichael.cli import main
from radimichael.construct import certificate_from_line, verify_certificate
from radimichael.survey import report_write, survey

CARMICHAEL_BELOW_1E4 = [561, 1105, 1729, 2465, 2821, 6601, 8911]


def _report(label, detail):
    print(f"[acceptance {label}] PASS: {detail}", flush=True)


@pytest.fixture(scope="module")
def survey_1e7():
    """One-worker survey(10^7) with its wall time, shared by criteria 4 and 8."""
    start = time.perf_counter()
    report = survey(10**7, workers=1)
    elapsed = time.perf_counter() - start
    return report, elapsed


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_criterion_1_classify_85(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "classify", "85")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert "radimichael=true" in out
    assert "carmichael=false" in out
    assert "lehmer_index=3" in out
    # the index claim, re-derived by the big-integer oracle
    assert is_k_lehmer(85, 3) and not is_k_lehmer(85, 2)
    assert elapsed < 1.0, f"classify 85 took {elapsed:.3f}s"
    _report(1, f"classify 85 -> radimichael, not carmichael, index 3 "
               f"({elapsed * 1000:.0f} ms)")


def test_criterion_2_korselt_oracle_equivalence():
    start = time.perf_counter()
    found = []
    for n in range(4, 10**4 + 1):
        f = factorize(n)
        if f.omega == 1 and f.factors[0][1] == 1:
            continue
        korselt = is_carmichael(n, f)
        assert korselt == fermat_oracle_is_carmichael(n), n
        if korselt:
            found.append(n)
    elapsed = time.perf_counter() - start
    assert found == CARMICHAEL_BELOW_1E4
    assert len(found) == 7 and found[0] == 561
    assert elapsed < 120, f"sweep took {elapsed:.1f}s"
    _report(2, f"all composites <= 1e4 agree with the Fermat oracle; "
               f"7 Carmichael numbers, smallest 561 ({elapsed:.1f} s)")


def test_criterion_3_index_correct_for_all_radimichael_below_1e6(oracle_factorize):
    start = time.perf_counter()
    checked = 0
    for n in range(9, 10**6 + 1, 2):
        f = oracle_factorize(n)
        if f.factors == ((n, 1),):
            continue
        k = lehmer_index(n, f)
        if k is None:
            continue
        checked += 1
        nm1_pow = (n - 1) ** k
        phi = 1
        for p, e in f.factors:
            phi *= p ** (e - 1) * (p - 1)
        assert nm1_pow % phi == 0, n
        if k >= 2:
            assert (n - 1) ** (k - 1) % phi != 0, n
    elapsed = time.perf_counter() - start
    assert checked == 1559  # radimichael count below 1e6
    assert elapsed < 300, f"sweep took {elapsed:.1f}s"
    _report(3, f"valuation-formula index verified by big-integer division "
               f"for all {checked} radimichael n <= 1e6, zero discrepancies "
               f"({elapsed:.1f} s)")


def test_criterion_4_finite_shadows(oracle_factorize, survey_1e7):
    carmichael_seen = 0
    for n in range(4, 10**6 + 1):
        if n % 2 == 0:
            continue
        f = oracle_factorize(n)
        if f.factors == ((n, 1),):
            continue
        k = lehmer_index(n, f)
        if is_carmichael(n, f):
            carmichael_seen += 1
            assert k is not None, n          # carmichael => radimichael
            assert n % 2 == 1, n             # odd
            assert f.squarefree, n
            assert f.omega >= 3, n
        if f.omega == 2 and f.squarefree and k is not None:
            assert k >= 3, n  # no 2-Lehmer semiprimes
    assert carmichael_seen == 43  # Carmichael count below 1e6
    report, _ = survey_1e7
    assert all(row.lehmer[0] == 0 for row in report.rows)
    assert report.rows[-1].checkpoint == 10**7
    _report(4, "every Carmichael <= 1e6 is an odd squarefree radimichael "
               "with omega >= 3; no semiprime index <= 2; no index-1 "
               "composite up to 1e7")


def test_criterion_5_construction_certificates(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "construct", "--a", "2", "--b", "0",
                           "--s", "16", "--m", "2", "--n-max", "10000")
    elapsed = time.perf_counter() - start
    assert code == 0
    certs = [certificate_from_line(line) for line in out.splitlines()]
    assert len(certs) >= 10
    n1 = [c for c in certs if c.n == 1]
    assert len(n1) == 1 and n1[0].N == 15 and n1[0].primes == (3, 5)
    for cert in certs:
        assert verify_certificate(cert)
        assert cert.kappa_N == _radical_of(cert.a * cert.n)
        assert cert.N % (cert.a * cert.n) == 1
        assert cert.N % cert.non_carmichael_modulus == cert.primes[0] != 1
        if cert.N < U64_LIMIT:
            f = Factorization(cert.N, tuple((p, 1) for p in cert.primes))
            assert not is_carmichael(cert.N, f)
    # independent Korselt re-derivation (fresh factorization) on a sample
    rng = random.Random(5)
    for cert in rng.sample(certs, 50):
        assert not is_carmichael(cert.N, factorize(cert.N))
    assert elapsed < 60, f"construct run took {elapsed:.1f}s"
    _report(5, f"{len(certs)} certificates incl. N=15; all verify, satisfy "
               f"the product/witness identities and fail Korselt "
               f"({elapsed:.1f} s)")


def _radical_of(value):
    out = 1
    for p, _ in factorize(value).factors:
        out *= p
    return out


def test_criterion_6_theorem2_mode(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "theorem2", "--a", "2", "--k", "3",
                           "--s", "10", "--n-max", "100")
    assert code == 0
    k3_certs = [certificate_from_line(line) for line in out.splitlines()]
    target = [c for c in k3_certs if c.N == 4369]
    assert target, "expected N = 4369 = 17 * 257 in the k=3 output"
    assert target[0].primes == (17, 257)
    # derived check: phi = 2^12, v2(4368) = 4, ceil(12/4) = 3
    assert 4368 % 16 == 0 and 4368 % 32 != 0
    code, out, _ = run_cli(capsys, "theorem2", "--a", "2", "--k", "4",
                           "--s", "10", "--n-max", "60")
    assert code == 0
    k4_certs = [certificate_from_line(line) for line in out.splitlines()]
    assert k4_certs, "expected k=4 certificates by n = 60"
    for k, certs in ((3, k3_certs), (4, k4_certs)):
        for cert in certs:
            assert len(cert.primes) == k - 1
            assert cert.lehmer_index == k
            f = Factorization(cert.N, tuple((p, 1) for p in cert.primes))
            assert is_k_lehmer(cert.N, k, f)
            assert not is_k_lehmer(cert.N, k - 1, f)
            if cert.sufficient_condition_held:
                assert cert.lehmer_index <= k
    # a shifted-window run where the recorded sufficient condition can hold:
    # every size-(k-1) selection that holds it has index exactly k, and the
    # run emits each one
    from radimichael.construct import TupleSpec, search_radimichael, theorem2_search
    shifted = theorem2_search(2, 3, 6, range(1, 400), b=12)
    spec = TupleSpec(a=2, b=12, s=6, m=2, n_min=1, n_max=399, window=(12, 18))
    held = [c for c in search_radimichael(spec, all_subsets=True)
            if c.sufficient_condition_held]
    assert held, "expected selections with the sufficient condition held"
    assert all(c.lehmer_index == 3 for c in held)
    assert all(c in shifted for c in held)
    elapsed = time.perf_counter() - start
    assert elapsed < 120, f"theorem2 runs took {elapsed:.1f}s"
    _report(6, f"k=3 emits N=4369 with index 3; {len(k3_certs)} k=3 and "
               f"{len(k4_certs)} k=4 certificates all have k-1 factors and "
               f"oracle-verified index k; condition-held selections ({len(held)}) "
               f"all have index k and are emitted ({elapsed:.1f} s)")


def test_criterion_7_survey_exactness_and_worker_identity(oracle_factorize):
    report = survey(100)
    assert report.rows[-1].radimichael == 4
    found = []
    for n in range(4, 101):
        f = oracle_factorize(n)
        if f.factors == ((n, 1),):
            continue
        if lehmer_index(n, f) is not None:
            found.append(n)
    assert found == [15, 51, 85, 91]
    outputs = {report_write(survey(10**5, workers=w), "csv")
               for w in (1, 2, 8)}
    assert len(outputs) == 1
    small = {report_write(survey(100, workers=w), "csv") for w in (1, 2, 8)}
    assert len(small) == 1
    _report(7, "survey(100) radimichael set is exactly {15, 51, 85, 91}; "
               "output byte-identical for workers 1, 2, 8")


def test_criterion_8_survey_performance(survey_1e7):
    report, elapsed = survey_1e7
    assert elapsed < 120, f"survey(1e7) took {elapsed:.1f}s on one worker"
    assert report.rows[-1].checkpoint == 10**7
    # memory: the configured budget admits the 1e7 table; a tight budget
    # must be refused rather than silently exceeded
    from radimichael.survey import MemoryBudgetError
    with pytest.raises(MemoryBudgetError):
        survey(10**7, memory_budget=10**6)
    _report(8, f"survey(1e7) in {elapsed:.1f}s on one worker (< 120 s); "
               f"tight memory budgets are refused up front")


def test_criterion_8_parallel_speedup():
    cpus = os.cpu_count() or 1
    if cpus < 2:
        pytest.skip("single-CPU host: a parallel run cannot beat one worker "
                    "here; multi-worker correctness is covered by criterion 7")
    workers = min(4, cpus)
    # at 10^7 a serial survey takes about 0.06 s, and the fork and
    # copy-on-write costs of the parallel run leave it a thin margin; at
    # 10^8 each run does enough work for the speed-up to decide. One run is
    # still open to scheduling noise, so compare medians of five runs each,
    # taken in alternating order
    times = {1: [], workers: []}
    expected = None
    for _ in range(5):
        for w in times:
            start = time.perf_counter()
            report = survey(10**8, workers=w)
            times[w].append(time.perf_counter() - start)
            expected = expected or report_write(report, "csv")
            assert report_write(report, "csv") == expected
    serial, parallel = statistics.median(times[1]), statistics.median(times[workers])
    assert parallel < serial, (
        f"workers={workers} took a median {parallel:.2f}s vs "
        f"{serial:.2f}s on one worker")
    _report("8-speedup", f"median {serial:.2f}s on one worker vs "
                         f"{parallel:.2f}s with {workers} workers")
