"""Helpers shared by the benchmark runner, the traced child and their tests.

Nothing here imports radimichael: the runner loads the package from the
checkout's own source tree only where it has to (correctness checks and the
traced child).
"""

from __future__ import annotations

import functools
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import random
import statistics
import time
from bisect import bisect_right
from collections import Counter
from pathlib import Path

# ---------------------------------------------------------------------------
# sample statistics
# ---------------------------------------------------------------------------

TAIL_MIN_BEYOND = 10


def tail_percentile(values) -> tuple[int, float] | None:
    """Highest integer percentile with at least ten samples strictly beyond it.

    Percentiles are nearest-rank. Returns (p, value), or None when there are
    too few samples for any percentile to have ten samples above it.
    """
    xs = sorted(values)
    n = len(xs)
    for p in range(99, 0, -1):
        value = xs[math.ceil(p * n / 100) - 1] if n else None
        if n and n - bisect_right(xs, value) >= TAIL_MIN_BEYOND:
            return p, value
    return None


def describe(values) -> dict:
    """Median, tail percentile and sample count of a list of timings."""
    tail = tail_percentile(values)
    return {
        "median": statistics.median(values),
        "tail_p": None if tail is None else tail[0],
        "tail": None if tail is None else tail[1],
        "n": len(values),
    }


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory span recorder for single-threaded code.

    Each closed span is a tuple (name, start, end, parent), where parent is
    the index of the enclosing span or -1; an open span's slot holds its
    name. Spans stay in memory until `summary()` is taken at the end of the
    run. Tuples of plain values drop out of the cycle collector's tracking,
    so a few hundred thousand spans do not slow the traced program's
    garbage collection. `counts` holds work counters bumped by result hooks.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def parent_name(self) -> str:
        """Name of the span open around the current call, or ''."""
        return self.spans[self._stack[-1]] if self._stack else ""

    def wrap(self, name: str, fn, on_result=None):
        """Return fn wrapped in a span; on_result(tracer, args, result) runs after."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(name)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def summary(self) -> dict:
        return {"spans": summarize(self.spans), "counts": dict(self.counts)}


def summarize(spans) -> dict:
    """Per-name calls, inclusive and self time, and inclusive time per parent.

    Self time is a span's duration minus the time its child spans cover.
    Inclusive time counts only the outermost span of a name, so a recursive
    call is not counted twice. `by_parent` keys are "name<parent" ('' for a
    root).
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    by_name: dict[str, dict] = {}
    by_parent: Counter = Counter()
    for i, (name, start, end, parent) in enumerate(spans):
        rec = by_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["self_s"] += (end - start) - child_time[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            rec["total_s"] += end - start
            by_parent[f"{name}<{spans[parent][0] if parent >= 0 else ''}"] += end - start
    return {"by_name": by_name, "by_parent": dict(by_parent)}


# ---------------------------------------------------------------------------
# planted certificate mutations
# ---------------------------------------------------------------------------

def _bump_last(values: list) -> list:
    return values[:-1] + [values[-1] + 1]


def _bump_one(values: list, rng: random.Random) -> list:
    j = rng.randrange(len(values))
    return values[:j] + [values[j] + 2] + values[j + 1:]


# Each mutation keeps the field's JSON type, so a strict parser still reads
# the record, and each breaks an identity the verifier checks
# unconditionally. `b` is left out: it enters only through
# sufficient_condition_held, which a shifted b often leaves unchanged.
MUTATIONS = {
    "a": lambda v, rng: v + 1,                    # p_i != a^l_i * n + 1
    "n": lambda v, rng: v + 1,                    # p_i != a^l_i * n + 1
    "exponents": lambda v, rng: _bump_last(v),    # last p != a^l * n + 1
    "primes": _bump_one,                          # p_j != a^l_j * n + 1
    "N": lambda v, rng: v + 2,                    # N != product of primes
    "kappa_N": lambda v, rng: v + 1,              # kappa_N != rad(a*n)
    "lehmer_index": lambda v, rng: v + rng.choice((-1, 1)),  # not the minimal k
    "non_carmichael_modulus": lambda v, rng: v + 1,  # != a^l_2 * n
    "non_carmichael_residue": lambda v, rng: v + 1,  # != N mod modulus
    "sufficient_condition_held": lambda v, rng: not v,
    "probable_prime_flag": lambda v, rng: not v,
    "gcd_a_n": lambda v, rng: v + 1,
}


def mutate_line(line: str, rng: random.Random) -> tuple[str, str]:
    """One seeded single-field mutation of a certificate line: (line, field)."""
    record = json.loads(line)
    field = rng.choice(sorted(MUTATIONS))
    record[field] = MUTATIONS[field](record[field], rng)
    return json.dumps(record, separators=(",", ":")), field


def plant_mutations(lines: list[str], rng: random.Random,
                    share: float) -> tuple[list[str], list[int]]:
    """Replace a seeded share of lines by mutations of themselves.

    Returns the new lines and the sorted 1-based record numbers planted.
    """
    count = min(len(lines), max(1, round(len(lines) * share)))
    planted = sorted(rng.sample(range(len(lines)), count))
    out = list(lines)
    for i in planted:
        out[i] = mutate_line(lines[i], rng)[0]
    return out, [i + 1 for i in planted]


# ---------------------------------------------------------------------------
# host metadata
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest(src: Path) -> str:
    """sha256 over the package sources, for checkouts that carry no git data."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def host_metadata(root: Path, seed: int) -> dict:
    """What must match before two results are compared."""
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _commit(root),
        "source_sha256": source_digest(root / "src" / "radimichael"),
        "seed": seed,
    }
