"""Sieve correctness, survey counts, rendering, and worker determinism."""

import os
import random
import subprocess
import sys
import textwrap
from itertools import accumulate
from math import gcd, isqrt, lcm, prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import assert_json_lines_equal_csv, sieve_window_counts
import radimichael
import radimichael.survey as survey_module
import radimichael.workers as workers_module
from radimichael.arith import TRIAL_LIMIT, carmichael_lambda, euler_phi, factorize
from radimichael.classify import classify, is_carmichael, is_k_lehmer
from radimichael.survey import (
    DEFAULT_K_MAX,
    K_MAX_LIMIT,
    SURVEY_LIMIT,
    CheckpointRow,
    SurveyReport,
    _memory_charge,
    build_spf,
    default_checkpoints,
    report_write,
    survey,
)


def smallest_factor(n):
    for d in range(2, isqrt(n) + 1):
        if n % d == 0:
            return d
    return n


# ---------------------------------------------------------------------------
# sieve
# ---------------------------------------------------------------------------

def test_sieve_spf_first_decade():
    spf = build_spf(10)
    assert {n: int(spf[n]) for n in range(2, 11)} == {
        2: 2, 3: 3, 4: 2, 5: 5, 6: 2, 7: 7, 8: 2, 9: 3, 10: 2}


def test_sieve_spf_named_values():
    spf = build_spf(5000)
    assert int(spf[561]) == 3
    assert int(spf[4369]) == 17
    assert (int(spf[4373]) == 4373) == (smallest_factor(4373) == 4373)


def test_sieve_spf_offset_segment_matches_trial_division():
    # a window at the far end of a table of 10^6 + 51 entries
    lo, hi = 999_950, 1_000_050
    spf = build_spf(hi)
    for n in range(lo, hi + 1):
        assert int(spf[n]) == smallest_factor(n), n


def test_sieve_spf_matches_full_table_across_bases():
    # each limit sieves by the odd primes up to its square root, so limits
    # at p^2 - 1, p^2 and p^2 + 1 add or drop a base prime
    full = build_spf(10_000)
    for limit in (1, 2, 3, 4, 8, 9, 10, 24, 25, 26, 48, 49, 50, 97, 120, 121,
                  128, 5000, 9408, 9409, 9999):
        assert (build_spf(limit) == full[:limit + 1]).all(), limit


def test_sieve_budget_enforced():
    with pytest.raises(ValueError):
        build_spf(0)
    with pytest.raises(ValueError):
        build_spf(10**8 + 1)


def test_sieve_refuses_a_limit_past_its_base_primes(monkeypatch):
    # SMALL_PRIMES stop below TRIAL_LIMIT, so a table at TRIAL_LIMIT**2
    # would call TRIAL_LIMIT**2 prime; raising SURVEY_LIMIT must not admit
    # it, and the refusal must come before its 1 GiB is allocated
    monkeypatch.setattr(survey_module, "SURVEY_LIMIT", 10**12)

    def allocating(shape, *args, **kwargs):
        raise AssertionError(f"a table of {shape} entries was about to be built")

    monkeypatch.setattr(survey_module.np, "zeros", allocating)
    with pytest.raises(ValueError):
        build_spf(TRIAL_LIMIT**2)


# ---------------------------------------------------------------------------
# survey counts
# ---------------------------------------------------------------------------

def test_default_checkpoints():
    assert default_checkpoints(1) == []
    assert default_checkpoints(7) == [7]
    assert default_checkpoints(100) == [10, 100]
    assert default_checkpoints(5000) == [10, 100, 1000, 5000]


def test_survey_100_exact():
    report = survey(100)
    row = report.rows[-1]
    assert row.checkpoint == 100
    assert row.radimichael == 4  # {15, 51, 85, 91}
    assert row.carmichael == 0
    assert row.radimichael_not_carmichael == 4
    assert row.omega2 == 4 and row.omega3 == 0 and row.omega4plus == 0
    assert row.composites == 74


def test_survey_10_has_no_classes():
    report = survey(10)
    row = report.rows[-1]
    assert row.composites == 5  # 4, 6, 8, 9, 10
    assert row.carmichael == row.radimichael == 0
    assert all(v == 0 for v in row.lehmer)


def test_survey_1e4_carmichael_count():
    report = survey(10**4)
    assert report.rows[-1].carmichael == 7


def test_survey_matches_naive_classify_loop_at_1e4():
    report = survey(10**4)
    naive = [classify(n) for n in range(1, 10**4 + 1)]
    for row in report.rows:
        upto = [c for c in naive if c.n <= row.checkpoint]
        assert row.composites == sum(1 for c in upto if c.category == "composite")
        assert row.carmichael == sum(1 for c in upto if c.carmichael)
        assert row.radimichael == sum(1 for c in upto if c.radimichael)
        for k in range(1, report.k_max + 1):
            expected = sum(1 for c in upto
                           if c.lehmer_index is not None and c.lehmer_index <= k)
            assert row.lehmer[k - 1] == expected
        assert row.omega2 == sum(1 for c in upto if c.radimichael and c.omega == 2)
        assert row.omega3 == sum(1 for c in upto if c.radimichael and c.omega == 3)
        assert row.omega4plus == sum(1 for c in upto
                                     if c.radimichael and c.omega >= 4)


def test_survey_matches_naive_classify_loop_across_segment_edges():
    # checkpoints at and beside multiples of 1024; none is 3 * 10^4 // i, so
    # each takes a prime count of its own
    edges = [1023, 1024, 2046, 2047, 5120, 10239, 10240, 20479, 29696]
    assert all(3 * 10**4 // (3 * 10**4 // x) != x for x in edges)
    report = survey(3 * 10**4, checkpoints=edges)
    assert [row.checkpoint for row in report.rows] == edges + [3 * 10**4]
    naive = [classify(n) for n in range(1, 3 * 10**4 + 1)]
    for row in report.rows:
        upto = naive[:row.checkpoint]
        radi = [c for c in upto if c.radimichael]
        assert row.composites == sum(c.category == "composite" for c in upto)
        assert row.carmichael == sum(c.carmichael for c in upto)
        assert row.radimichael == len(radi)
        assert row.radimichael_not_carmichael == sum(not c.carmichael for c in radi)
        assert row.lehmer == tuple(sum(c.lehmer_index <= k for c in radi)
                                   for k in range(1, report.k_max + 1))
        assert row.omega2 == sum(c.omega == 2 for c in radi)
        assert row.omega3 == sum(c.omega == 3 for c in radi)
        assert row.omega4plus == sum(c.omega >= 4 for c in radi)


def naive_rows(limits, k_max=DEFAULT_K_MAX):
    """The CheckpointRow at each x in limits, from the naive classify loop."""
    wanted = sorted(set(limits))
    rows = {}
    comp = carm = radi = o2 = o3 = o4 = 0
    hist = [0] * k_max  # hist[k-1]: radimichael numbers of index exactly k
    for n in range(1, wanted[-1] + 1):
        c = classify(n)
        comp += c.category == "composite"
        carm += c.carmichael
        if c.radimichael:
            radi += 1
            o2 += c.omega == 2
            o3 += c.omega == 3
            o4 += c.omega >= 4
            if c.lehmer_index <= k_max:
                hist[c.lehmer_index - 1] += 1
        if n == wanted[len(rows)]:
            rows[n] = CheckpointRow(n, comp, carm, radi, radi - carm,
                                    tuple(accumulate(hist)), o2, o3, o4)
    return rows


def test_survey_matches_naive_prefix_counts_at_every_limit_and_square_edges():
    # the enumeration splits at p vs isqrt(limit), so every limit up to 2000
    # and q^2 - 1, q^2, q^2 + 1 for odd primes q < 200 sit on both sides
    squares = [x for q in range(3, 200, 2) if smallest_factor(q) == q
               for x in (q * q - 1, q * q, q * q + 1)]
    limits = list(range(2, 2001)) + squares
    expected = naive_rows(limits)
    for limit in limits:
        assert survey(limit).rows[-1] == expected[limit], limit


def test_survey_1e8_row_equals_the_full_sieve_survey():
    # the row the full-length spf/oddrad sieve survey printed for 10^8
    row = ("100000000,94238544,255,19329,19074,0,165,2511,5115,7957,10363,"
           "12429,13909,4773,7561,6995")
    csv = report_write(survey(10**8), "csv").decode()
    assert csv.splitlines()[-1] == row


def test_survey_rows_equal_the_window_sieve_oracle():
    # every column at seeded checkpoints, against a segmented sieve that
    # factors each n; the checkpoints 561, 41041 and 1909001 are Carmichael
    # numbers, where a bucket off by one shows
    limit = 2 * 10**6 + 11
    checkpoints = sorted({561, 41041, 1909001, limit,
                          *random.Random(27).sample(range(1, limit), 16)})
    expected, total, lo = [], np.zeros(6 + DEFAULT_K_MAX, dtype=np.int64), 0
    for cp in checkpoints:
        total += sieve_window_counts(lo, cp, DEFAULT_K_MAX)
        comp, carm, radi, *lehmer = total.tolist()
        expected.append(CheckpointRow(cp, comp, carm, radi, radi - carm,
                                      tuple(lehmer[:DEFAULT_K_MAX]),
                                      *lehmer[DEFAULT_K_MAX:]))
        lo = cp
    assert survey(limit, checkpoints=checkpoints).rows == tuple(expected)


def test_survey_row_invariants():
    report = survey(10**5)
    prev = None
    for row in report.rows:
        assert row.carmichael <= row.radimichael
        assert row.radimichael == row.omega2 + row.omega3 + row.omega4plus
        assert all(a <= b for a, b in zip(row.lehmer, row.lehmer[1:]))
        assert row.lehmer[-1] <= row.radimichael
        if prev is not None:
            assert row.composites >= prev.composites
            assert row.radimichael >= prev.radimichael
            assert all(a >= b for a, b in zip(row.lehmer, prev.lehmer))
        prev = row


def test_survey_custom_checkpoints_and_validation():
    report = survey(200, checkpoints=[50, 100])
    assert [row.checkpoint for row in report.rows] == [50, 100, 200]
    with pytest.raises(ValueError):
        survey(100, checkpoints=[500])
    # an empty list means the default checkpoints, as None does
    assert survey(100, checkpoints=[]) == survey(100)
    # only ints: no bool, float or numeric string reaches numpy
    for bad in (True, 50.0, "50"):
        with pytest.raises(ValueError, match="ints"):
            survey(100, checkpoints=[bad])
    # and so for limit and k_max: a bool k_max would reach the json-lines
    # header as true, and a float or numpy limit has no bit_length
    for limit, k_max in ((100, True), (100, 3.0), (100.0, 3), (np.int64(100), 3), (True, 3)):
        with pytest.raises(ValueError, match="ints"):
            survey(limit, k_max)
    # and for memory_budget: neither a string nor a bool is a byte count
    for budget in ("1000", True, 2.0**40):
        with pytest.raises(ValueError, match="ints"):
            survey(100, memory_budget=budget)
    # and a negative budget is a bad parameter, not a survey too big
    with pytest.raises(ValueError, match="memory_budget must be >= 0"):
        survey(100, memory_budget=-1)
    with pytest.raises(ValueError):
        survey(0)
    with pytest.raises(ValueError):
        survey(10**8 + 1)
    with pytest.raises(ValueError):
        survey(100, k_max=0)


def test_survey_k_max_cap():
    assert len(survey(100, k_max=K_MAX_LIMIT).rows[-1].lehmer) == K_MAX_LIMIT
    with pytest.raises(ValueError, match="k_max"):
        survey(100, k_max=K_MAX_LIMIT + 1)


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_survey_deterministic_across_workers(workers):
    base = report_write(survey(10**5), "csv")
    assert report_write(survey(10**5, workers=workers), "csv") == base


def test_worker_moves_to_the_next_cpu_and_keeps_its_affinity():
    cpu = workers_module._current_cpu()
    if cpu is None or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs Linux's /proc/self/stat and two allowed CPUs")
    allowed = sorted(os.sched_getaffinity(0))
    workers_module._move_off_parent_cpu(1, cpu)
    assert workers_module._current_cpu() != cpu
    assert sorted(os.sched_getaffinity(0)) == allowed
    # a unit count of the CPUs comes back to the parent's CPU, and stays
    here = workers_module._current_cpu()
    workers_module._move_off_parent_cpu(len(allowed), here)
    assert workers_module._current_cpu() == here
    assert sorted(os.sched_getaffinity(0)) == allowed


@settings(derandomize=True, max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10**12), st.integers(2, 10**11 - 1)),
                min_size=1, max_size=64))
def test_inverse_matches_pow(pairs):
    pairs = [(a, m) for a, m in pairs if gcd(a, m) == 1]
    assume(pairs)
    a, m = (np.array(column, dtype=np.int64) for column in zip(*pairs))
    assert survey_module._inverse(a, m).tolist() == [pow(x, -1, y) for x, y in pairs]


def naive_radimichael_records(limit, oracle_factorize):
    """(n, phi(n), lambda(n), omega(n), largest prime) of every radimichael
    n <= limit, ascending: odd, composite, squarefree, rad(q-1) | n-1 for
    each prime q | n."""
    found = []
    for n in range(3, limit + 1, 2):
        factors = oracle_factorize(n).factors
        qs = [q for q, _ in factors]
        if (len(qs) > 1 and all(e == 1 for _, e in factors)
                and all((n - 1) % ell == 0 for q in qs
                        for ell, _ in oracle_factorize(q - 1).factors)):
            found.append((n, prod(q - 1 for q in qs), lcm(*(q - 1 for q in qs)),
                          len(qs), qs[-1]))
    return found


def sorted_records(parts):
    parts = list(parts)
    return sorted(map(tuple, np.hstack(parts).T.tolist())) if parts else []


def test_both_parts_enumerate_exactly_the_naive_radimichael_numbers(monkeypatch,
                                                                   oracle_factorize):
    # every limit up to 1500 and 20 seeded ones up to 2 * 10^5; the p > root
    # part must give exactly the n whose largest prime p exceeds isqrt(limit)
    limits = list(range(1, 1501)) + random.Random(18).sample(range(1501, 2 * 10**5), 19)
    limits.append(2 * 10**5)
    naive = naive_radimichael_records(2 * 10**5, oracle_factorize)
    # some limit is itself a radimichael n from the p > root part
    assert any(n in limits and p > isqrt(n) for n, *_, p in naive)
    for limit in limits:
        plan = survey_module._plan(limit, [limit], DEFAULT_K_MAX)
        cs = np.flatnonzero(plan.cofactors[0, 3:limit // (plan.root + 1) + 1]) + 3
        large = sorted_records(survey_module._large_prime_part(plan, cs))
        small = sorted_records(survey_module._small_prime_part(plan, plan.primes))
        below = [r for r in naive if r[0] <= limit]
        assert large == [r[:4] for r in below if r[4] > plan.root], limit
        assert sorted(large + small) == [r[:4] for r in below], limit
        if limit > 1500:
            # the same records when the c values come 7 at a time
            with monkeypatch.context() as patch:
                patch.setattr(survey_module, "_CHUNK", 7)
                assert sorted_records(survey_module._large_prime_part(plan, cs)) == large


def test_plan_tables_at_1e8_match_the_oracle_for_every_m_up_to_the_root(oracle_factorize):
    # root 10^4: every column of the factor table and of cofactors, whose L
    # is rad(q-1) at every odd prime q
    plan = survey_module._plan(10**8, [10**8], DEFAULT_K_MAX)
    assert plan.root == 10**4
    factors, cofactors = plan.factors.T.tolist(), plan.cofactors.T.tolist()

    def primes_of(m):
        return [q for q, _ in oracle_factorize(m).factors] if m else []

    primes = [m for m in range(2, plan.root + 1) if primes_of(m) == [m]]
    assert plan.primes.tolist() == primes[1:]
    for m in range(plan.root + 1):
        qs = primes_of(m)
        assert factors[m] == qs + [1] * (len(factors[m]) - len(qs)), m
        L = lcm(*(prod(primes_of(q - 1)) for q in qs))
        if m % 2 and prod(qs) == m and gcd(L, m) == 1:
            want = [L, max(qs, default=1), prod(q - 1 for q in qs),
                    lcm(*(q - 1 for q in qs)), len(qs)]
        else:
            want = [0] * 5
        assert cofactors[m] == want, m


def test_tally_index_and_carmichael_rule_match_classify():
    # an even n >= 4 has 2 | phi(n) but not n-1, so only odd n can qualify;
    # with one checkpoint per number, each tally column holds one n
    limit = 2 * 10**5
    found = [c.n for c in map(classify, range(3, limit + 1, 2)) if c.radimichael]
    facts = [factorize(n) for n in found]
    records = np.array([found, [euler_phi(f) for f in facts],
                        [carmichael_lambda(f) for f in facts],
                        [f.omega for f in facts]], dtype=np.int64)
    # the least k <= K_MAX_LIMIT with phi(n) | (n-1)^k, else K_MAX_LIMIT + 1
    indices = [next((k for k in range(1, K_MAX_LIMIT + 1) if is_k_lehmer(n, k, f)),
                    K_MAX_LIMIT + 1) for n, f in zip(found, facts)]
    for k_max in (1, 4, DEFAULT_K_MAX, K_MAX_LIMIT):
        plan = survey_module._plan(limit, found, k_max)
        counts = np.zeros((survey_module._HIST + k_max + 1, len(found)), dtype=np.int64)
        survey_module._tally(counts, plan, records)
        for n, f, index, column in zip(found, facts, indices, counts.T.tolist()):
            hist = [0] * (k_max + 1)
            hist[min(index, k_max + 1) - 1] = 1
            omegas = [f.omega == 2, f.omega == 3, f.omega >= 4]
            assert column == [is_carmichael(n, f), 1, *omegas, *hist], (n, k_max)


def bytearray_prime_counts(limit):
    """pi(x) for every x <= limit, by a sieve of Eratosthenes."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit + 1, p)))
    return list(accumulate(sieve))


def test_prime_counts_match_a_sieve():
    pi = bytearray_prime_counts(5000)
    for x in range(1, 5001):
        small, large = survey_module._prime_counts(x)
        root = isqrt(x)
        assert small[1:].tolist() == pi[1:root + 1], x
        assert large[1:].tolist() == [pi[x // i] for i in range(1, root + 1)], x


def test_survey_composites_match_a_bytearray_sieve_on_every_lookup_branch():
    # pi at a checkpoint x is small[x] for x <= isqrt(limit), large[limit // x]
    # when x = limit // (limit // x), and otherwise a count of its own
    for limit in (10**5, 654_321, 999_983):
        root = isqrt(limit)
        small = [1, 2, 3, 4, 97, root]
        large = [limit // i for i in (root - 1, 29, 12, 2)]
        other = [54_321, limit // 3 + 1, limit // 2 + 1, limit - 1]
        assert all(limit // (limit // x) == x > root for x in large), limit
        assert all(limit // (limit // x) != x > root for x in other), limit
        pi = bytearray_prime_counts(limit)
        report = survey(limit, checkpoints=small + large + other)
        assert len(report.rows) == len(small + large + other) + 1
        for row in report.rows:
            assert row.composites == row.checkpoint - 1 - pi[row.checkpoint]


def peak_rss_growth(call):
    """Bytes that running `call` (after `import numpy` and the package) adds
    to the peak RSS of a fresh process. The child reads VmHWM, which starts
    at its exec; its ru_maxrss would start at the RSS of this test process,
    which is above the child's whole peak, so every growth would read 0."""
    if sys.platform != "linux":
        pytest.skip("VmHWM is read from Linux's /proc/self/status")
    code = textwrap.dedent(f"""
        import numpy
        from radimichael.survey import survey
        def peak():
            with open("/proc/self/status") as status:
                return next(int(line.split()[1]) for line in status
                            if line.startswith("VmHWM:"))
        before = peak()
        {call}
        print((peak() - before) * 1024)
    """)
    src = str(Path(radimichael.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    return int(proc.stdout)


@pytest.mark.parametrize("limit", [2 * 10**6, SURVEY_LIMIT])
def test_survey_peak_memory_within_budget_model(limit):
    growth = peak_rss_growth(f"survey({limit})")
    charge = _memory_charge(limit)
    assert growth <= charge, f"peak RSS grew {growth} bytes, model charges {charge}"


def test_first_factorize_builds_no_table_and_small_primes_cover_the_sieve():
    # the primes factorize() trial-divides by are sieved at import, so a
    # first call allocates only its result; they also hold every base prime
    # of the spf sieve
    code = textwrap.dedent("""
        import tracemalloc
        from radimichael.arith import factorize
        tracemalloc.start()
        factorize(2 * 4001)
        print(tracemalloc.get_traced_memory()[1])
    """)
    src = str(Path(radimichael.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    peak = int(proc.stdout)
    assert peak < 64 * 1024, f"first factorize call peaked at {peak} bytes"
    assert isqrt(SURVEY_LIMIT) < TRIAL_LIMIT


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def test_csv_schema():
    data = report_write(survey(100, k_max=3), "csv").decode()
    lines = data.splitlines()
    assert lines[0] == ("checkpoint,composites,carmichael,radimichael,"
                        "radimichael_not_carmichael,L1,L2,L3,"
                        "omega2_radimichael,omega3_radimichael,"
                        "omega4plus_radimichael")
    assert lines[2].startswith("100,74,0,4,4,")
    assert len(lines) == 3


def test_header_only_report_at_limit_1():
    report = survey(1)
    assert report.rows == ()
    csv = report_write(report, "csv").decode()
    assert csv.splitlines() == [csv.splitlines()[0]]  # header only


def test_report_write_deterministic_and_formats():
    report = survey(1000)
    for fmt in ("table", "csv", "json-lines"):
        assert report_write(report, fmt) == report_write(report, fmt)
    with pytest.raises(ValueError):
        report_write(report, "xml")


def test_json_lines_round_trip():
    for limit in (1, 10, 100, 5000):
        assert_json_lines_equal_csv(survey(limit))


def test_table_format_alignment():
    text = report_write(survey(100), "table").decode()
    lines = text.splitlines()
    assert lines[0].split() == report_write(survey(100), "csv").decode() \
        .splitlines()[0].split(",")
    assert len({len(line) for line in lines}) == 1  # fixed-width rows
