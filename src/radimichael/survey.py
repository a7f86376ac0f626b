"""Segmented smallest-prime-factor sieve and bulk classification counts.

The survey walks every integer up to a limit, counts composites, Carmichael,
radimichael, and L_k members at each checkpoint, and breaks radimichael
counts down by number of distinct prime factors. Factoring inside the sweep
is spf-chasing against one read-only table; segments are pure and merged in
order, so output is identical for any worker count.
"""

from __future__ import annotations

import json
import multiprocessing
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .arith import Factorization, prime_table
from .classify import lehmer_index_from_factors

DEFAULT_SEGMENT_SIZE = 1 << 22      # table entries per sieve/classify segment
DEFAULT_MEMORY_BUDGET = 2 << 30     # bytes; table is 4 bytes per integer
DEFAULT_K_MAX = 8
SURVEY_LIMIT = 10**8                # desk-scale cap

# transient numpy scratch per segment entry (masks, index arrays)
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
    """Fill entries with smallest prime factors for [lo, lo+len)."""
    hi = lo + len(entries) - 1
    # evens first: spf 2 for every even n >= 2
    first_even = max(lo, 2)
    first_even += first_even & 1
    if first_even <= hi:
        entries[first_even - lo::2] = 2
    root = isqrt(hi)
    primes = prime_table()
    for p in primes[1:bisect_right(primes, root)]:
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


def build_spf(limit: int, *, segment_size: int = DEFAULT_SEGMENT_SIZE,
              memory_budget: int | None = None) -> SpfTable:
    """Full table for [0, limit], sieved segment by segment."""
    if limit < 1 or limit > SURVEY_LIMIT:
        raise ValueError(f"need 1 <= limit <= {SURVEY_LIMIT}")
    _check_segment_size(segment_size)
    budget = DEFAULT_MEMORY_BUDGET if memory_budget is None else memory_budget
    width = limit + 1
    scratch = min(width, segment_size) * _SCRATCH_BYTES_PER_ENTRY
    if width * 4 + scratch > budget:
        raise MemoryBudgetError(
            f"table to {limit} needs {width * 4} bytes plus {scratch} scratch, "
            f"budget is {budget}")
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


def _zero_counts(buckets: int, k_max: int) -> dict:
    return {
        "composites": [0] * buckets,
        "carmichael": [0] * buckets,
        "radimichael": [0] * buckets,
        "omega2": [0] * buckets,
        "omega3": [0] * buckets,
        "omega4plus": [0] * buckets,
        # index histogram: rows 1..k_max exact, final row is "> k_max"
        "index_hist": [[0] * buckets for _ in range(k_max + 1)],
    }


def _factor_pm1(p: int, entries: np.ndarray, cache: dict) -> tuple[tuple[int, int], ...]:
    got = cache.get(p)
    if got is None:
        factors = []
        m = p - 1
        while m > 1:
            q = int(entries[m])
            e = 0
            while m % q == 0:
                m //= q
                e += 1
            factors.append((q, e))
        got = tuple(factors)
        cache[p] = got
    return got


def _segment_counts(table: SpfTable, lo: int, hi: int, checkpoints: list[int],
                    k_max: int, cache: dict) -> dict:
    """Per-segment tallies, bucketed by checkpoint interval.

    `cache` memoizes p-1 factorizations; it only saves work, so the tallies
    depend on the segment alone.
    """
    buckets = len(checkpoints)
    entries = table.entries
    nums = np.arange(lo, hi + 1, dtype=np.uint32)
    seg = entries[lo:hi + 1]
    comp_mask = (seg != nums) & (nums >= 4)
    comp_nums = nums[comp_mask]
    cp_arr = np.asarray(checkpoints, dtype=np.int64)
    composites = np.bincount(
        np.searchsorted(cp_arr, comp_nums, side="left"), minlength=buckets)

    counts = _zero_counts(buckets, k_max)
    counts["composites"] = composites.tolist()
    # even composites can never be Carmichael or radimichael: phi(n) is even
    # for n >= 3, so 2 | kappa(n) must divide the odd n-1
    odd_list = comp_nums[(comp_nums & 1) == 1].tolist()

    item = entries.item
    carm_counts = counts["carmichael"]
    radi_counts = counts["radimichael"]
    omega_counts = (counts["omega2"], counts["omega3"], counts["omega4plus"])
    hist = counts["index_hist"]

    for n in odd_list:
        m = n
        ps = []
        squarefree = True
        while m > 1:
            p = item(m)
            m //= p
            if m % p == 0:
                # a squared prime divides phi(n) but not n-1: not radimichael
                squarefree = False
                break
            ps.append(p)
        if not squarefree:
            continue
        nm1 = n - 1
        radi = True
        for p in ps:
            for q, _ in _factor_pm1(p, entries, cache):
                if q != 2 and nm1 % q:
                    radi = False
                    break
            if not radi:
                break
        if not radi:
            continue
        bucket = bisect_left(checkpoints, n)
        radi_counts[bucket] += 1
        omega_counts[min(len(ps), 4) - 2][bucket] += 1
        if all(nm1 % (p - 1) == 0 for p in ps):  # Korselt, squarefree case
            carm_counts[bucket] += 1
        # exact minimal index from valuations of phi(n) = prod(p-1)
        vq: dict[int, int] = {}
        for p in ps:
            for q, e in _factor_pm1(p, entries, cache):
                vq[q] = vq.get(q, 0) + e
        k = lehmer_index_from_factors(vq.items(), nm1)
        hist[min(k, k_max + 1) - 1][bucket] += 1
    return counts


def _merge_counts(total: dict, part: dict) -> None:
    for key, value in part.items():
        if key == "index_hist":
            for row_t, row_p in zip(total[key], value):
                for i, v in enumerate(row_p):
                    row_t[i] += v
        else:
            acc = total[key]
            for i, v in enumerate(value):
                acc[i] += v


# fork hand-off for pool workers; set and cleared inside one survey() call
_WORK: dict = {}


def _segment_worker(bounds: tuple[int, int]) -> dict:
    lo, hi = bounds
    return _segment_counts(_WORK["table"], lo, hi, _WORK["checkpoints"],
                           _WORK["k_max"], _WORK["memo"])


def survey(limit: int, k_max: int = DEFAULT_K_MAX, *, workers: int = 1,
           segment_size: int = DEFAULT_SEGMENT_SIZE,
           checkpoints: list[int] | None = None,
           memory_budget: int | None = None) -> SurveyReport:
    """Exact class counts for all integers up to `limit` (<= 10**8).

    Every composite is classified from the spf table; per-segment tallies are
    pure values merged in segment order, so the report is identical for any
    `workers` setting.
    """
    if limit < 1:
        raise ValueError("survey requires limit >= 1")
    if limit > SURVEY_LIMIT:
        raise ValueError(f"survey limit capped at {SURVEY_LIMIT}")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
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

    table = build_spf(limit, segment_size=segment_size, memory_budget=memory_budget)
    total = _zero_counts(len(checkpoints), k_max)
    segments = [(lo, min(lo + segment_size - 1, limit))
                for lo in range(0, limit + 1, segment_size)]
    memo: dict = {}  # p -> factors of p-1, for this call (each worker its own copy)

    ctx = None
    if workers > 1 and len(segments) > 1:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-forking platform
            pass
    if ctx is None:
        for lo, hi in segments:
            _merge_counts(total, _segment_counts(table, lo, hi, checkpoints,
                                                 k_max, memo))
    else:
        _WORK.update(table=table, checkpoints=checkpoints, k_max=k_max, memo=memo)
        try:
            with ctx.Pool(workers) as pool:
                for part in pool.map(_segment_worker, segments):
                    _merge_counts(total, part)
        finally:
            _WORK.clear()

    rows = []
    running = {key: 0 for key in
               ("composites", "carmichael", "radimichael",
                "omega2", "omega3", "omega4plus")}
    hist_running = [0] * (k_max + 1)
    for i, cp in enumerate(checkpoints):
        for key in running:
            running[key] += total[key][i]
        for k in range(k_max + 1):
            hist_running[k] += total["index_hist"][k][i]
        lehmer = []
        acc = 0
        for k in range(k_max):
            acc += hist_running[k]
            lehmer.append(acc)
        rows.append(CheckpointRow(
            checkpoint=cp,
            composites=running["composites"],
            carmichael=running["carmichael"],
            radimichael=running["radimichael"],
            radimichael_not_carmichael=running["radimichael"] - running["carmichael"],
            lehmer=tuple(lehmer),
            omega2=running["omega2"],
            omega3=running["omega3"],
            omega4plus=running["omega4plus"],
        ))
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


def report_parse(data: bytes) -> SurveyReport:
    """Parse the json-lines rendering back into a SurveyReport."""
    lines = [line for line in data.decode().splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty report data")
    head = json.loads(lines[0])
    limit, k_max = int(head["limit"]), int(head["k_max"])
    cols = _columns(k_max)
    rows = []
    for line in lines[1:]:
        record = json.loads(line)
        missing = [c for c in cols if c not in record]
        if missing:
            raise ValueError(f"report row missing columns: {missing}")
        rows.append(CheckpointRow(
            checkpoint=int(record["checkpoint"]),
            composites=int(record["composites"]),
            carmichael=int(record["carmichael"]),
            radimichael=int(record["radimichael"]),
            radimichael_not_carmichael=int(record["radimichael_not_carmichael"]),
            lehmer=tuple(int(record[f"L{k}"]) for k in range(1, k_max + 1)),
            omega2=int(record["omega2_radimichael"]),
            omega3=int(record["omega3_radimichael"]),
            omega4plus=int(record["omega4plus_radimichael"]),
        ))
    return SurveyReport(limit, k_max, tuple(rows))
