"""Segmented smallest-prime-factor sieve and bulk classification counts.

The survey walks every integer up to a limit, counts composites, Carmichael,
radimichael, and L_k members at each checkpoint, and breaks radimichael
counts down by number of distinct prime factors. A vectorised filter
over the odd composites of each segment (spf chase against one read-only
table, plus a table of odd radicals of p-1) leaves only the radimichael
numbers, which the exact index kernel then classifies one by one. Segments
are pure and merged in order, so output is identical for any worker count.
"""

from __future__ import annotations

import json
import multiprocessing
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .arith import SMALL_PRIMES, Factorization
from .classify import lehmer_index_from_factors

DEFAULT_SEGMENT_SIZE = 1 << 20      # table entries per sieve/classify segment
DEFAULT_MEMORY_BUDGET = 2 << 30     # bytes; each uint32 table is 4 bytes per integer
DEFAULT_K_MAX = 8
# cap on k_max: no n <= SURVEY_LIMIT has an index above 26, as phi(n) < 2**27
K_MAX_LIMIT = 64
SURVEY_LIMIT = 10**8                # desk-scale cap

# transient numpy scratch per segment entry: peak RSS over the two tables
# measured 18-21 bytes per entry at the default segment size
_SCRATCH_BYTES_PER_ENTRY = 24


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

    def spf(self, n: int) -> int:
        if not 0 <= n <= self.limit:
            raise ValueError(f"{n} outside table range [0, {self.limit}]")
        return int(self.entries[n])

    def is_prime(self, n: int) -> bool:
        return n >= 2 and self.spf(n) == n

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


def _sieve_into(entries: np.ndarray, lo: int) -> None:
    """Fill entries with smallest prime factors for [lo, lo+len). SMALL_PRIMES
    covers isqrt(SURVEY_LIMIT) = 10**4, so every base prime is there."""
    hi = lo + len(entries) - 1
    # evens first: spf 2 for every even n >= 2
    first_even = max(lo, 2)
    first_even += first_even & 1
    if first_even <= hi:
        entries[first_even - lo::2] = 2
    root = isqrt(hi)
    for p in SMALL_PRIMES[1:bisect_right(SMALL_PRIMES, root)]:
        start = max(p * p, -(-lo // p) * p)
        if start % 2 == 0:  # only odd multiples; evens already owned by 2
            start += p
        if start > hi:
            continue
        view = entries[start - lo::2 * p]
        view[view == 0] = p
    # remaining zeros are primes (or the 0/1 sentinels)
    idx = np.nonzero(entries == 0)[0]
    entries[idx] = (idx + lo).astype(entries.dtype)


def _check_segment_size(segment_size: int) -> None:
    if segment_size < 1:
        raise ValueError(f"segment size must be >= 1, got {segment_size}")


def _memory_charge(limit: int, in_flight: int, *, oddrad: bool) -> int:
    """Bytes for the uint32 spf table over [0, limit], the oddrad table over
    [0, limit // 3] if `oddrad`, and the scratch of `in_flight` segment
    entries (one segment per worker)."""
    width = limit + 1
    entries = width + (limit // 3 + 1 if oddrad else 0)
    return 4 * entries + min(width, in_flight) * _SCRATCH_BYTES_PER_ENTRY


def _check_budget(charge: int, memory_budget: int | None) -> None:
    budget = DEFAULT_MEMORY_BUDGET if memory_budget is None else memory_budget
    if charge > budget:
        raise MemoryBudgetError(f"tables plus segment scratch need {charge} bytes, "
                                f"budget is {budget}")


def build_spf(limit: int, *, segment_size: int = DEFAULT_SEGMENT_SIZE,
              memory_budget: int | None = None) -> SpfTable:
    """Full table for [0, limit], sieved segment by segment."""
    if limit < 1 or limit > SURVEY_LIMIT:
        raise ValueError(f"need 1 <= limit <= {SURVEY_LIMIT}")
    _check_segment_size(segment_size)
    _check_budget(_memory_charge(limit, segment_size, oddrad=False), memory_budget)
    width = limit + 1
    entries = np.zeros(width, dtype=np.uint32)
    for lo in range(0, width, segment_size):
        hi = min(lo + segment_size - 1, limit)
        _sieve_into(entries[lo:hi + 1], lo)
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
    points = []
    power = 10
    while power < limit:
        points.append(power)
        power *= 10
    points.append(limit)
    return points


# rows of a segment's tally array, whose columns are checkpoint buckets;
# rows _HIST.. hold the index histogram, k = 1..k_max exact, then "> k_max"
_COMPOSITES, _CARMICHAEL, _RADIMICHAEL, _OMEGA2, _HIST = 0, 1, 2, 3, 6


def build_oddrad(table: SpfTable, segment_size: int = DEFAULT_SEGMENT_SIZE
                 ) -> np.ndarray:
    """oddrad[p] = odd part of rad(p-1) for every odd prime p; 1 elsewhere.

    The table stops at limit // 3, the largest prime factor an odd composite
    up to the limit can have. The primes are chased through the spf table in
    numpy, one segment at a time, so no temporary spans the whole table.
    """
    entries = table.entries
    oddrad = np.ones(table.limit // 3 + 1, dtype=np.uint32)
    for lo in range(3, len(oddrad), segment_size):
        hi = min(lo + segment_size, len(oddrad))
        odd = np.arange(lo | 1, hi, 2, dtype=np.uint32)
        p = odd[entries[lo | 1:hi:2] == odd]
        m = p - 1
        m //= m & (~m + 1)  # divide out the lowest set bit: the odd part
        r = np.ones_like(m)
        q = entries[m]
        while p.size:
            m //= q
            nxt = entries[m]
            # each prime once, at the last step that divides it out
            np.multiply(r, q, out=r, where=nxt != q)
            done = nxt == 1
            oddrad[p[done]] = r[done]
            live = ~done
            p, m, r, q = p[live], m[live], r[live], nxt[live]
    return oddrad


def _radimichael_in(entries: np.ndarray, oddrad: np.ndarray,
                    lo: int, hi: int) -> np.ndarray:
    """The radimichael numbers in [lo, hi], in no particular order.

    Even composites never qualify: phi(n) is even for n >= 3, and 2 cannot
    divide the odd n-1. An odd composite is chased p by p through the spf
    table and dropped at a repeated p (a squared prime divides phi(n) but
    not n-1) or when oddrad[p] does not divide n-1.
    """
    n = np.arange(lo | 1, hi + 1, 2, dtype=np.uint32)
    q = entries[lo | 1:hi + 1:2]
    composite = q != n  # the 0/1 sentinels and primes equal themselves
    n, q = n[composite], q[composite]
    m = n.copy()
    found = []
    while n.size:
        m //= q
        nxt = entries[m]
        keep = (nxt != q) & ((n - 1) % oddrad[q] == 0)
        done = nxt == 1
        found.append(n[keep & done])
        keep &= ~done
        n, m, q = n[keep], m[keep], nxt[keep]
    return np.concatenate(found) if found else n


def _segment_counts(table: SpfTable, oddrad: np.ndarray, checkpoints: list[int],
                    k_max: int, lo: int, hi: int) -> np.ndarray:
    """Per-segment tally array, bucketed by checkpoint interval."""
    entries = table.entries
    counts = np.zeros((_HIST + k_max + 1, len(checkpoints)), dtype=np.int64)
    composite = entries[lo:hi + 1] != np.arange(lo, hi + 1, dtype=np.uint32)
    start = lo
    for bucket in range(bisect_left(checkpoints, lo), len(checkpoints)):
        end = min(checkpoints[bucket], hi)
        counts[_COMPOSITES, bucket] = np.count_nonzero(
            composite[start - lo:end - lo + 1])
        if end == hi:
            break
        start = end + 1

    for n in _radimichael_in(entries, oddrad, lo, hi).tolist():
        ps = [p for p, _ in table.factorize(n).factors]  # squarefree
        nm1 = n - 1
        bucket = bisect_left(checkpoints, n)
        counts[_RADIMICHAEL, bucket] += 1
        counts[_OMEGA2 + min(len(ps), 4) - 2, bucket] += 1
        if all(nm1 % (p - 1) == 0 for p in ps):  # Korselt, squarefree case
            counts[_CARMICHAEL, bucket] += 1
        # exact minimal index; phi(n) = prod(p-1) < n lies in the table
        phi = 1
        for p in ps:
            phi *= p - 1
        k = lehmer_index_from_factors(table.factorize(phi).factors, nm1)
        counts[_HIST + min(k, k_max + 1) - 1, bucket] += 1
    return counts


# _segment_counts' leading arguments, set in each pool worker by its initializer
_WORK: dict = {}


def _segment_worker(bounds: tuple[int, int]) -> np.ndarray:
    return _segment_counts(*_WORK["args"], *bounds)


def survey(limit: int, k_max: int = DEFAULT_K_MAX, *, workers: int = 1,
           segment_size: int = DEFAULT_SEGMENT_SIZE,
           checkpoints: list[int] | None = None,
           memory_budget: int | None = None) -> SurveyReport:
    """Exact class counts for all integers up to `limit` (<= 10**8).

    Every composite is classified from the spf table; per-segment tallies are
    pure values summed in segment order, so the report is identical for any
    `workers` setting. The spf and oddrad tables (4 + 4/3 bytes per integer)
    plus one segment's scratch per worker are charged to `memory_budget` up
    front.
    """
    if limit < 1:
        raise ValueError("survey requires limit >= 1")
    if limit > SURVEY_LIMIT:
        raise ValueError(f"survey limit capped at {SURVEY_LIMIT}")
    if not 1 <= k_max <= K_MAX_LIMIT:
        raise ValueError(f"k_max must lie in [1, {K_MAX_LIMIT}], got {k_max}")
    _check_segment_size(segment_size)
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

    _check_budget(_memory_charge(limit, segment_size * max(workers, 1), oddrad=True),
                  memory_budget)
    table = build_spf(limit, segment_size=segment_size, memory_budget=memory_budget)
    args = (table, build_oddrad(table, segment_size), checkpoints, k_max)
    total = np.zeros((_HIST + k_max + 1, len(checkpoints)), dtype=np.int64)
    segments = [(lo, min(lo + segment_size - 1, limit))
                for lo in range(0, limit + 1, segment_size)]

    ctx = None
    if workers > 1 and len(segments) > 1:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-forking platform
            pass
    if ctx is None:
        for lo, hi in segments:
            total += _segment_counts(*args, lo, hi)
    else:
        # forked workers inherit the tables; only the bounds are pickled
        with ctx.Pool(workers, initializer=_WORK.update,
                      initargs=({"args": args},)) as pool:
            for part in pool.map(_segment_worker, segments):
                total += part

    running = total.cumsum(axis=1).tolist()  # cumulative over checkpoints
    lehmer = np.cumsum(running[_HIST:_HIST + k_max], axis=0).T.tolist()
    rows = [CheckpointRow(cp, comp, carm, radi, radi - carm, tuple(lk), o2, o3, o4)
            for cp, comp, carm, radi, o2, o3, o4, lk
            in zip(checkpoints, *running[:_HIST], lehmer)]
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
        rows.append(CheckpointRow(*v[:5], tuple(v[5:5 + k_max]), *v[5 + k_max:]))
    return SurveyReport(limit, k_max, tuple(rows))
