"""Exact class counts up to a limit, from an enumeration of the radimichael numbers.

A composite n is radimichael when rad(phi(n)) | n-1. Such an n is odd
(phi(n) is even for n >= 3) and squarefree (a squared prime divides phi(n)
but not n-1), so the condition reads rad(q-1) | n-1 for every prime q | n.
Write n = p*c with p the largest prime of n. As p = 1 (mod rad(p-1)), the
condition at p is rad(p-1) | c-1. With r = isqrt(limit), the survey finds
every such n in two parts, from one spf table over [0, r]:

- p > r, so c <= r. p-1 = d is built from the primes of c-1 only; each d
  with r <= d < limit // c that meets the congruence the primes of c
  impose gets one deterministic primality verdict on d+1.
- p <= r. A depth-first search over descending primes carries the product
  P of the primes taken and L = lcm rad(q-1) over them, pruning a prime q
  that divides L or whose rad(q-1) meets P. The rest of n is a cofactor
  c = P^-1 (mod L); once that progression is short, it is walked instead
  of recursing, and a c above r is divided down into the table by the
  primes below min(P).

Korselt, omega and the exact Lehmer index of each radimichael number come
from its known primes: phi(n) = prod(q-1), and each q-1 is factored by the
table, or is d, built from known primes. Every number is tallied into its
checkpoint bucket as it is found. The work is split into units (c values
and top-level primes, interleaved) whose integer tallies are summed, so
the report is identical for any worker count. Composites up to a checkpoint
x number x - 1 - pi(x): one prime count by Lucy's method, in O(limit^(3/4))
time and O(isqrt(limit)) memory, gives pi at every limit // i, and any
other checkpoint above isqrt(limit) takes a count of its own.
"""

from __future__ import annotations

import json
import multiprocessing
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import gcd, isqrt, prod
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .arith import SMALL_PRIMES, Factorization, prime_verdict, valuation
from .classify import lehmer_index_from_factors

if TYPE_CHECKING:  # an import for annotations only: it costs the CLI 6 ms
    from multiprocessing.connection import Connection

DEFAULT_MEMORY_BUDGET = 2 << 30     # bytes
DEFAULT_K_MAX = 8
# cap on k_max: no n <= SURVEY_LIMIT has an index above 26, as phi(n) < 2**27
K_MAX_LIMIT = 64
SURVEY_LIMIT = 10**8                # desk-scale cap

# Memory charges, from peak RSS growth measured on Linux (Python 3.11,
# numpy 2.4): a first survey or build_spf call grows 0.5-0.7 MB whatever
# its size; build_spf grows 5.6-5.8 bytes per entry at 10**6-10**8, its
# 4-byte entries plus the zero mask and prime indices of its last step; the
# survey's table and enumeration state take 170-190 bytes per integer of
# [0, isqrt(limit)] in each process, and its prime counts peak at 32 more
# (tracemalloc) in the calling process.
_BASE_BYTES = 1 << 20
_SPF_BYTES_PER_ENTRY = 6
_PLAN_BYTES_PER_ROOT_ENTRY = 256


class MemoryBudgetError(RuntimeError):
    """The requested sieve or survey exceeds the configured memory budget."""


# ---------------------------------------------------------------------------
# smallest-prime-factor sieve
# ---------------------------------------------------------------------------

@dataclass
class SpfTable:
    """Smallest prime factor of n at entries[n]; entry == n iff n prime.

    Entries for 0 and 1 are sentinels equal to themselves.
    """
    entries: np.ndarray

    @property
    def limit(self) -> int:
        return len(self.entries) - 1

    def factorize(self, n: int) -> Factorization:
        """Factor n by chasing smallest prime factors."""
        if n < 1 or n > self.limit:
            raise ValueError(f"{n} outside table range")
        entries = self.entries
        factors = []
        m = n
        while m > 1:
            p = int(entries[m])
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        return Factorization(n, tuple(factors))


def _spf_charge(limit: int) -> int:
    """Bytes for build_spf(limit)."""
    return _BASE_BYTES + _SPF_BYTES_PER_ENTRY * (limit + 1)


def _memory_charge(limit: int, workers: int = 1) -> int:
    """Bytes for survey(limit): in each of `workers` processes, the table and
    enumeration state over [0, isqrt(limit)]."""
    return _BASE_BYTES + workers * _PLAN_BYTES_PER_ROOT_ENTRY * (isqrt(limit) + 1)


def _check_budget(charge: int, memory_budget: int | None) -> None:
    budget = DEFAULT_MEMORY_BUDGET if memory_budget is None else memory_budget
    if charge > budget:
        raise MemoryBudgetError(f"tables plus scratch need {charge} bytes, "
                                f"budget is {budget}")


def build_spf(limit: int, *, memory_budget: int | None = None) -> SpfTable:
    """Table for [0, limit], sieved in one pass. SMALL_PRIMES covers
    isqrt(SURVEY_LIMIT) = 10**4, so every base prime is there."""
    if limit < 1 or limit > SURVEY_LIMIT:
        raise ValueError(f"need 1 <= limit <= {SURVEY_LIMIT}")
    _check_budget(_spf_charge(limit), memory_budget)
    entries = np.zeros(limit + 1, dtype=np.uint32)
    entries[4::2] = 2
    for p in SMALL_PRIMES[1:bisect_right(SMALL_PRIMES, isqrt(limit))]:
        view = entries[p * p::2 * p]  # odd multiples; evens belong to 2
        view[view == 0] = p
    # remaining zeros are primes (or the 0/1 sentinels)
    idx = np.flatnonzero(entries == 0)
    entries[idx] = idx
    return SpfTable(entries)


# ---------------------------------------------------------------------------
# survey
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckpointRow:
    """Cumulative counts of each class up to `checkpoint`."""
    checkpoint: int
    composites: int
    carmichael: int
    radimichael: int
    radimichael_not_carmichael: int
    lehmer: tuple[int, ...]  # lehmer[k-1] = #composites with index <= k
    omega2: int
    omega3: int
    omega4plus: int


@dataclass(frozen=True)
class SurveyReport:
    limit: int
    k_max: int
    rows: tuple[CheckpointRow, ...]


def default_checkpoints(limit: int) -> list[int]:
    """Powers of 10 up to limit, with limit itself as the final checkpoint."""
    if limit < 2:
        return []
    return [10**e for e in range(1, limit.bit_length()) if 10**e < limit] + [limit]


# rows of a work unit's tally array, whose columns are checkpoint buckets;
# rows _HIST.. hold the index histogram, k = 1..k_max exact, then "> k_max"
_CARMICHAEL, _RADIMICHAEL, _OMEGA2, _HIST = 0, 1, 2, 5

# the search walks a cofactor progression of at most this many terms
# rather than recursing; 64 was fastest at 10**7 and within 20% at 10**8
_WALK_TERMS = 64


class _Plan(NamedTuple):
    """What every work unit reads, all derived from the table over [0, root].
    (A NamedTuple: creating a frozen dataclass costs the CLI 1-2 ms.)"""
    limit: int
    root: int
    checkpoints: tuple[int, ...]
    k_max: int
    table: SpfTable
    primes: tuple[int, ...]                         # odd primes <= root
    pm1: dict[int, tuple[tuple[int, int], ...]]     # q -> factors of q-1
    rad: tuple[int, ...]                            # rad[q] = rad(q-1), q prime
    # cofactors[c] = (lcm of rad(q-1) over q | c, largest prime of c, primes
    # of c) for every odd c <= root that can divide a radimichael number:
    # squarefree, coprime to that lcm, which is below the limit; else None
    cofactors: tuple[tuple[int, int, tuple[int, ...]] | None, ...]


def _plan(limit: int, checkpoints: list[int], k_max: int) -> _Plan:
    root = isqrt(limit)
    table = build_spf(root)
    odd = np.arange(3, root + 1, 2)
    primes = tuple(odd[table.entries[3::2] == odd].tolist())
    pm1 = {q: table.factorize(q - 1).factors for q in primes}
    rad = [0] * (root + 1)
    for q in primes:
        rad[q] = prod(f for f, _ in pm1[q])
    cofactors: list = [None] * (root + 1)
    cofactors[1] = (1, 1, ())
    for c in range(3, root + 1, 2):
        factors = table.factorize(c).factors
        if any(e > 1 for _, e in factors):
            continue
        lcm = 1
        for q, _ in factors:
            lcm = lcm // gcd(lcm, rad[q]) * rad[q]
        if lcm < limit and gcd(lcm, c) == 1:
            cofactors[c] = (lcm, factors[-1][0], tuple(q for q, _ in factors))
    return _Plan(limit, root, tuple(checkpoints), k_max, table, primes, pm1,
                 tuple(rad), tuple(cofactors))


def _tally(counts: list[list[int]], plan: _Plan, n: int, ps: tuple[int, ...],
           d_factors: tuple[tuple[int, int], ...] = ()) -> None:
    """Count the radimichael number n with primes ps. phi(n) = prod(q-1):
    each q <= root brings its table factors of q-1, and the one prime above
    root, if any, is d+1 with d = prod of d_factors."""
    phi = dict(d_factors)
    for q in ps:
        for f, e in plan.pm1.get(q, ()):
            phi[f] = phi.get(f, 0) + e
    nm1 = n - 1
    bucket = bisect_left(plan.checkpoints, n)
    counts[_RADIMICHAEL][bucket] += 1
    counts[_OMEGA2 + min(len(ps), 4) - 2][bucket] += 1
    if all(nm1 % (q - 1) == 0 for q in ps):  # Korselt, squarefree case
        counts[_CARMICHAEL][bucket] += 1
    k = lehmer_index_from_factors(phi.items(), nm1)
    counts[_HIST + min(k, plan.k_max + 1) - 1][bucket] += 1


def _large_prime_part(counts: list[list[int]], plan: _Plan, cs: list[int]) -> None:
    """Every radimichael n = p*c with c in cs and prime p > root."""
    limit, root = plan.limit, plan.root
    for c in cs:
        lcm, _, cps = plan.cofactors[c]
        # p*c = 1 (mod lcm), so d = p-1 = c^-1 - 1 (mod lcm). lcm is
        # squarefree, so a prime ell of both lcm and c-1 divides d exactly
        # when it divides the residue: it is forced into d or kept out.
        # 2 is always forced, as p is odd.
        residue = (pow(c, -1, lcm) - 1) % lcm
        ells = [f for f, _ in plan.table.factorize(c - 1).factors
                if lcm % f or residue % f == 0]
        ds = [prod(f for f in ells if lcm % f == 0)]
        top = limit // c - 1
        for ell in ells:
            grown = []
            for d in ds:
                d *= ell
                while d <= top:
                    grown.append(d)
                    d *= ell
            ds += grown
        for d in ds:
            if d >= root and d % lcm == residue and prime_verdict(d + 1):
                d_factors = tuple((f, v) for f in ells if (v := valuation(f, d)))
                _tally(counts, plan, c * (d + 1), cps + (d + 1,), d_factors)


def _cofactor_primes(plan: _Plan, n: int, c: int, least: int
                     ) -> tuple[int, ...] | None:
    """The primes of c, if c is squarefree with every prime below `least`
    and rad(q-1) | n-1 for each of them; else None."""
    root, head = plan.root, ()
    if c > root:  # divide out primes until the rest is in the table
        for ell in plan.primes:
            if ell >= least or ell * ell > c:
                return None
            if c % ell == 0:
                c //= ell
                if c % ell == 0 or (n - 1) % plan.rad[ell]:
                    return None
                head += (ell,)
                if c <= root:
                    break
    entry = plan.cofactors[c]
    if entry is None or entry[1] >= least or (n - 1) % entry[0]:
        return None
    return head + entry[2]


def _small_prime_part(counts: list[list[int]], plan: _Plan, tops: list[int]) -> None:
    """Every radimichael n whose largest prime is in tops (all <= root)."""
    limit, primes, rad = plan.limit, plan.primes, plan.rad
    for top in tops:
        # n = P*c with L = lcm rad(q-1) over q | P dividing n-1, so
        # c = P^-1 (mod L), and every prime of c lies below min(P)
        stack = [(top, rad[top], (top,))]
        while stack:
            P, L, ps = stack.pop()
            cmax = limit // P
            if cmax // L <= _WALK_TERMS:
                c = pow(P, -1, L)
                if c == 1 and len(ps) == 1:  # n = P is prime
                    c += L
                for c in range(c, cmax + 1, L):
                    cps = _cofactor_primes(plan, P * c, c, ps[-1])
                    if cps is not None:
                        _tally(counts, plan, P * c, ps + cps)
                continue
            if len(ps) > 1 and P % L == 1:
                _tally(counts, plan, P, ps)
            for q in primes[:bisect_left(primes, ps[-1])]:
                if P * q > limit:
                    break
                rq = rad[q]
                # q | L or a prime of P dividing rad(q-1) would divide both
                # n and n-1
                if L % q == 0 or gcd(rq, P) != 1:
                    continue
                L2 = L // gcd(L, rq) * rq
                if L2 < limit:  # n = 1 (mod L2) and 1 < n <= limit
                    stack.append((P * q, L2, ps + (q,)))


def _prime_counts(x: int) -> tuple[np.ndarray, np.ndarray]:
    """pi at every x // i, by Lucy's method: small[v] = pi(v) for v <= r =
    isqrt(x), and large[i] = pi(x // i) for 1 <= i <= r.

    S(v) starts at v - 1. Each prime p <= r in turn applies S(v) -= S(v // p)
    - S(p - 1) to every v >= p*p, dropping the composites whose least prime
    is p. Every read sees the values from before p: large, which reads
    small, goes first, and each right-hand side is computed before it is
    assigned.
    """
    r = isqrt(x)
    small = np.arange(-1, r, dtype=np.int64)
    small[0] = 0
    large = np.zeros(r + 1, dtype=np.int64)
    large[1:] = x // np.arange(1, r + 1, dtype=np.int64) - 1
    for p in range(2, r + 1):
        below = small[p - 1]
        if small[p] == below:  # p has a smaller prime factor
            continue
        # v = x // i for i <= x // p^2; v // p = x // (i*p) is large[i*p]
        # while i*p <= r, else small[x // (i*p)]
        top = min(r, x // (p * p))
        mid = min(top, r // p)
        large[1:mid + 1] -= large[p:mid * p + 1:p] - below
        if mid < top:  # an empty numpy step still costs microseconds
            large[mid + 1:top + 1] -= small[x // (np.arange(mid + 1, top + 1) * p)] - below
        if p * p <= r:
            small[p * p:] -= small[np.arange(p * p, r + 1) // p] - below
    return small, large


def _unit_counts(plan: _Plan, unit: int, units: int) -> np.ndarray:
    """Tallies of work unit `unit` of `units`: every units-th c value and
    top prime, starting at the unit-th."""
    counts = [[0] * len(plan.checkpoints) for _ in range(_HIST + plan.k_max + 1)]
    cs = [c for c in range(3, plan.limit // (plan.root + 1) + 1, 2)
          if plan.cofactors[c]]
    _large_prime_part(counts, plan, cs[unit::units])
    _small_prime_part(counts, plan, list(plan.primes[unit::units]))
    return np.array(counts, dtype=np.int64)


def _unit_worker(sender: Connection, plan: _Plan, unit: int, units: int) -> None:
    with sender:
        sender.send(_unit_counts(plan, unit, units))


def _forked_counts(ctx: multiprocessing.context.BaseContext, plan: _Plan,
                   workers: int) -> np.ndarray:
    """Summed tallies of `workers` units: forked children inherit the plan
    and compute units 1.., each sending its tallies through a pipe, while
    this process computes unit 0."""
    children = []
    try:
        for unit in range(1, workers):
            receiver, sender = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_unit_worker, args=(sender, plan, unit, workers))
            child.start()
            sender.close()
            children.append((child, receiver))
        total = _unit_counts(plan, 0, workers)
        for _, receiver in children:
            try:
                total += receiver.recv()
            except EOFError:
                raise RuntimeError("a survey worker exited without its tallies") from None
        return total
    finally:
        # every tally has arrived, or the survey failed: stop what is left
        for child, receiver in children:
            receiver.close()
            child.terminate()
            child.join()


def survey(limit: int, k_max: int = DEFAULT_K_MAX, *, workers: int = 1,
           checkpoints: list[int] | None = None,
           memory_budget: int | None = None) -> SurveyReport:
    """Exact class counts for all integers up to `limit` (<= 10**8).

    The table and enumeration state over [0, isqrt(limit)], in each of
    `workers` processes, are charged to `memory_budget` up front; the prime
    counts are taken in this process. Work units are pure and their integer
    tallies are summed, so the report is identical for any `workers`.
    """
    if limit < 1:
        raise ValueError("survey requires limit >= 1")
    if limit > SURVEY_LIMIT:
        raise ValueError(f"survey limit capped at {SURVEY_LIMIT}")
    if not 1 <= k_max <= K_MAX_LIMIT:
        raise ValueError(f"k_max must lie in [1, {K_MAX_LIMIT}], got {k_max}")
    if checkpoints is None:
        checkpoints = default_checkpoints(limit)
    else:
        checkpoints = sorted(set(checkpoints))
        if any(c < 1 or c > limit for c in checkpoints):
            raise ValueError("checkpoints must lie in [1, limit]")
        if checkpoints and checkpoints[-1] != limit:
            checkpoints.append(limit)
    if not checkpoints:
        return SurveyReport(limit, k_max, ())

    _check_budget(_memory_charge(limit, max(workers, 1)), memory_budget)
    plan = _plan(limit, checkpoints, k_max)
    ctx = None
    if workers > 1:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-forking platform
            pass
    total = (_unit_counts(plan, 0, 1) if ctx is None
             else _forked_counts(ctx, plan, workers))
    # pi at each checkpoint; one that is not limit // i needs its own count
    small, large = _prime_counts(limit)
    pis = [small[cp] if cp <= plan.root
           else large[limit // cp] if limit // (limit // cp) == cp
           else _prime_counts(cp)[1][1] for cp in checkpoints]
    composites = [cp - 1 - int(pi) for cp, pi in zip(checkpoints, pis)]
    running = total.cumsum(axis=1).tolist()  # cumulative over checkpoints
    lehmer = np.cumsum(running[_HIST:_HIST + k_max], axis=0).T.tolist()
    rows = [CheckpointRow(cp, comp, carm, radi, radi - carm, tuple(lk), o2, o3, o4)
            for cp, comp, carm, radi, o2, o3, o4, lk
            in zip(checkpoints, composites, *running[:_HIST], lehmer)]
    return SurveyReport(limit, k_max, tuple(rows))


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

REPORT_FORMATS = ("table", "csv", "json-lines")


def _columns(k_max: int) -> list[str]:
    return (["checkpoint", "composites", "carmichael", "radimichael",
             "radimichael_not_carmichael"]
            + [f"L{k}" for k in range(1, k_max + 1)]
            + ["omega2_radimichael", "omega3_radimichael", "omega4plus_radimichael"])


def _row_values(row: CheckpointRow) -> list[int]:
    return ([row.checkpoint, row.composites, row.carmichael, row.radimichael,
             row.radimichael_not_carmichael]
            + list(row.lehmer)
            + [row.omega2, row.omega3, row.omega4plus])


def report_write(report: SurveyReport, fmt: str) -> bytes:
    """Render a report deterministically; byte-identical for equal reports."""
    cols = _columns(report.k_max)
    if fmt == "csv":
        lines = [",".join(cols)]
        lines += [",".join(str(v) for v in _row_values(row)) for row in report.rows]
        return ("\n".join(lines) + "\n").encode()
    if fmt == "table":
        str_rows = [[str(v) for v in _row_values(row)] for row in report.rows]
        widths = [max(len(col), *(len(r[i]) for r in str_rows)) if str_rows
                  else len(col) for i, col in enumerate(cols)]
        lines = ["  ".join(col.rjust(w) for col, w in zip(cols, widths))]
        lines += ["  ".join(v.rjust(w) for v, w in zip(r, widths)) for r in str_rows]
        return ("\n".join(lines) + "\n").encode()
    if fmt == "json-lines":
        lines = [json.dumps({"limit": report.limit, "k_max": report.k_max},
                            separators=(",", ":"))]
        for row in report.rows:
            record = dict(zip(cols, _row_values(row)))
            lines.append(json.dumps(record, separators=(",", ":")))
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown report format {fmt!r}; expected one of {REPORT_FORMATS}")


def _int_record(line: str, names: list[str]) -> list[int]:
    """The values of a JSON object with exactly the fields `names`, each a
    JSON integer (not a bool, float or numeric string)."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not a JSON record: {exc}") from exc
    if not isinstance(record, dict):
        raise ValueError("report record must be a JSON object")
    missing = [name for name in names if name not in record]
    unknown = sorted(set(record) - set(names))
    if missing or unknown:
        raise ValueError(f"report record fields: missing {missing}, unknown {unknown}")
    bad = [name for name in names if type(record[name]) is not int]
    if bad:
        raise ValueError(f"report fields that are not JSON integers: {bad}")
    return [record[name] for name in names]


def report_parse(data: bytes) -> SurveyReport:
    """Parse the json-lines rendering back into a SurveyReport.

    Only what report_write writes is accepted; anything else raises
    ValueError.
    """
    lines = [line for line in data.decode().splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty report data")
    limit, k_max = _int_record(lines[0], ["limit", "k_max"])
    if limit < 1 or not 1 <= k_max <= K_MAX_LIMIT:
        raise ValueError(f"report header out of range: limit={limit}, k_max={k_max}")
    rows = []
    for line in lines[1:]:
        v = _int_record(line, _columns(k_max))
        row = CheckpointRow(*v[:5], tuple(v[5:5 + k_max]), *v[5 + k_max:])
        if (min(v) < 0
                or row.radimichael_not_carmichael != row.radimichael - row.carmichael):
            raise ValueError(f"report row with a negative or inconsistent count: {line}")
        rows.append(row)
    points = [0] + [row.checkpoint for row in rows]
    if rows and (points[-1] != limit
                 or any(a >= b for a, b in zip(points, points[1:]))):
        raise ValueError("report checkpoints must increase strictly to the limit")
    return SurveyReport(limit, k_max, tuple(rows))
