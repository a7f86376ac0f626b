#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the radimichael CLI.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every timed sample is a fresh
`python3 -m radimichael.cli` process built from the checkout's `src/`, one at
a time from this process (a closed loop with one client, `--workers 1`).
With `--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of an in-process traced run
(benchmarks/trace_child.py) plus its overhead against untraced runs made in
the same call. Every output is checked after the timed region. See
benchmarks/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from benchlib import describe, host_metadata, plant_mutations

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH_DIR / "reference.json"
CACHE = WORK / "cache"

# The whole call must end within 180 s: a process still running this long
# after the start is killed (and counted as failed), and no new one starts.
HARD_STOP_S = 150.0

SURVEY_LIMIT = 10**7
SURVEY_RADIMICHAEL_AT_LIMIT = 5645

# Seeded n windows: the seed picks one of WINDOWS offsets. Offsets are close
# together so that every seed does about the same work (certificates emitted
# vary by a few percent across them); the reference output of every window
# is recorded in reference.json.
WINDOWS = 16
WINDOW_STEP = 20
CONSTRUCT_WIDTH = 2000
THEOREM2_WIDTH = 4000
CONSTRUCT_ARGS = ["construct", "--a", "2", "--b", "0", "--s", "64", "--m", "3"]
THEOREM2_ARGS = ["theorem2", "--a", "2", "--k", "4", "--s", "16"]
PLANTED_SHARE = 0.1

WORKLOADS = {
    "survey-1e7": "survey --limit 1e7: spf sieve plus the per-n classify loop; "
                  "no construct or primality code runs",
    "construct-s64": "construct a=2 s=64 m=3: components cross 2^64, so the scan "
                     "and prime_verdict dominate; every certified product is emitted",
    "theorem2-k4": "theorem2 a=2 k=4 s=16: cheap 64-bit scan; certify plus "
                   "self-verify dominate and about 10% of certified products are emitted",
    "verify-mixed": "verify on genuine construct and theorem2 records plus seeded "
                    "single-field mutations: parser and reject path, no scan",
}

END_TO_END_UNITS = {
    "wall_s": "s", "cpu_s": "s", "items_per_s": "1/s", "first_output_s": "s",
    "peak_rss_mb": "MB", "setup_s": "s",
}

PER_LAYER_UNITS = {
    "survey.sieve_s": "s", "survey.classify_s": "s", "survey.render_s": "s",
    "survey.table_mb": "MB", "survey.rss_over_table": "ratio",
    "construct.scan_s": "s", "construct.candidates": "count",
    "arith.prime_verdict_calls": "count", "arith.prime_verdict_s": "s",
    "arith.verdicts_per_candidate": "ratio",
    "construct.certify_s": "s", "construct.self_verify_s": "s",
    "construct.certified": "count", "construct.emitted": "count",
    "construct.emit_ratio": "ratio",
    "arith.factorize_calls": "count", "arith.factorize_s": "s",
    "construct.serialize_s": "s",
    "construct.parse_s": "s", "construct.verify_s": "s",
    "construct.rejected": "count",
    "classify.is_k_lehmer_calls": "count", "classify.is_k_lehmer_s": "s",
    "cli.other_s": "s", "trace.overhead_s": "s",
}


# ---------------------------------------------------------------------------
# running one process
# ---------------------------------------------------------------------------

@dataclass
class Sample:
    """One finished process: timings from spawn, its rusage and its stdout."""
    wall: float
    cpu: float
    rss_mb: float
    first_output: float
    exit_code: int
    stdout: bytes


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("RADIMICHAEL_MEMORY_BUDGET", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(cmd: list[str], stderr_path: Path, deadline: float) -> Sample:
    """Spawn cmd, drain its stdout, reap it with wait4; killed at `deadline`."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=err, env=child_env(), cwd=ROOT)
        killer = threading.Timer(max(0.0, deadline - t0), proc.kill)
        killer.start()
        try:
            fd = proc.stdout.fileno()
            chunks, first = [], None
            while chunk := os.read(fd, 1 << 16):
                if first is None:
                    first = time.perf_counter()
                chunks.append(chunk)
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.perf_counter()
        finally:
            killer.cancel()
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        wall=t1 - t0,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss * 1024 / 1e6,
        first_output=(t1 if first is None else first) - t0,
        exit_code=proc.returncode,
        stdout=b"".join(chunks),
    )


def cli_cmd(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "radimichael.cli", *args]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Checker:
    """Re-verifies certificate outputs once per distinct output digest."""

    def __init__(self):
        self._verified: dict[str, str | None] = {}

    def certificates(self, data: bytes) -> str | None:
        digest = sha256(data)
        if digest not in self._verified:
            self._verified[digest] = self._verify_all(data)
        return self._verified[digest]

    @staticmethod
    def _verify_all(data: bytes) -> str | None:
        sys.path.insert(0, str(SRC))
        try:
            from radimichael.construct import certificate_from_line, verify_certificate
        except ImportError as exc:
            return f"cannot import radimichael from src/: {exc}"
        for i, line in enumerate(data.decode().splitlines(), start=1):
            try:
                ok = verify_certificate(certificate_from_line(line))
            except ValueError as exc:
                return f"line {i} does not parse: {exc}"
            if not ok:
                return f"line {i} fails verify_certificate"
        return None


@dataclass
class Plan:
    """The generated inputs of one workload for one seed."""
    argv: list[str]
    setup_argv: list[str]
    items: int
    check: Callable[[Sample], str | None]         # error message or None
    check_setup: Callable[[Sample], str | None]
    note: str
    limit: int = 0           # survey limit, for the table-size metrics
    prep_attempted: int = 0
    prep_errors: list[str] = field(default_factory=list)


def _expect(sample: Sample, code: int, digest: str | None = None) -> str | None:
    if sample.exit_code != code:
        return f"exit code {sample.exit_code}, expected {code}"
    if digest is not None and sha256(sample.stdout) != digest:
        return "stdout differs from the reference recorded for this input"
    return None


def window_args(base: list[str], w: dict, setup: bool = False) -> list[str]:
    n_max = w["n_min"] if setup else w["n_max"]
    return base + ["--n-min", str(w["n_min"]), "--n-max", str(n_max), "--workers", "1"]


def plan_survey(seed, reference, work, stop) -> Plan:
    ref = reference["survey-1e7"]

    def check(s: Sample) -> str | None:
        err = _expect(s, 0)
        if err is None and s.stdout != ref["stdout"].encode():
            err = "survey report differs from the reference bytes"
        if err is None:
            last = s.stdout.decode().splitlines()[-1].split()
            if int(last[3]) != SURVEY_RADIMICHAEL_AT_LIMIT:
                err = f"radimichael count at 10^7 is {last[3]}"
        return err

    return Plan(
        argv=["survey", "--limit", str(SURVEY_LIMIT), "--workers", "1"],
        setup_argv=["survey", "--limit", "10", "--workers", "1"],
        items=SURVEY_LIMIT,
        check=check,
        check_setup=lambda s: _expect(s, 0, ref["setup_sha256"]),
        note="survey-1e7 does not depend on --seed",
        limit=SURVEY_LIMIT,
    )


def _plan_certificates(name, base, seed, reference) -> Plan:
    ref = reference[name]
    checker = Checker()
    k = random.Random(f"{name}:{seed}").randrange(WINDOWS)
    w = ref["windows"][k]

    def check(s: Sample) -> str | None:
        return _expect(s, 0, w["sha256"]) or checker.certificates(s.stdout)

    return Plan(
        argv=window_args(base, w),
        setup_argv=window_args(base, w, setup=True),
        items=w["lines"],
        check=check,
        check_setup=lambda s: _expect(s, 0, w["setup_sha256"]),
        note=f"seed {seed} -> n window [{w['n_min']}, {w['n_max']}]",
    )


def plan_construct(seed, reference, work, stop) -> Plan:
    return _plan_certificates("construct-s64", CONSTRUCT_ARGS, seed, reference)


def plan_theorem2(seed, reference, work, stop) -> Plan:
    return _plan_certificates("theorem2-k4", THEOREM2_ARGS, seed, reference)


FAIL_LINE = re.compile(rb"^record (\d+): FAIL", re.MULTILINE)


def genuine_records(base: list[str], w: dict, work: Path,
                    stop: float) -> tuple[bytes, str | None, bool]:
    """Reference output of one window: (bytes, error, whether the CLI ran).

    Read from the checkout's cache when a file with the reference digest is
    there; otherwise made by the CLI, checked and cached.
    """
    cached = CACHE / f"{w['sha256']}.jsonl"
    if cached.is_file() and sha256(data := cached.read_bytes()) == w["sha256"]:
        return data, None, False
    s = run_process(cli_cmd(window_args(base, w)), work / "stderr.txt", stop)
    err = _expect(s, 0, w["sha256"])
    if err is None:
        CACHE.mkdir(exist_ok=True)
        partial = cached.with_suffix(".partial")
        partial.write_bytes(s.stdout)
        partial.replace(cached)
    return s.stdout, err, True


def plan_verify(seed, reference, work, stop) -> Plan:
    """Genuine records are the reference outputs of the first construct-s64
    and theorem2-k4 windows; the seed picks which tenth of them is replaced
    by single-field mutations, and which field each mutation changes."""
    rng = random.Random(f"verify-mixed:{seed}")
    lines, errors, generated = [], [], 0
    for base, name in ((CONSTRUCT_ARGS, "construct-s64"), (THEOREM2_ARGS, "theorem2-k4")):
        data, err, ran = genuine_records(base, reference[name]["windows"][0], work, stop)
        generated += ran
        if err:
            errors.append(f"input generation ({name}): {err}")
        lines += data.decode().splitlines()
    mixed, planted = plant_mutations(lines, rng, PLANTED_SHARE)
    mixed_path, one_path = work / "mixed.jsonl", work / "one.jsonl"
    mixed_path.write_text("\n".join(mixed) + "\n", encoding="utf-8")
    one_path.write_text(lines[0] + "\n" if lines else "", encoding="utf-8")

    def check(s: Sample) -> str | None:
        err = _expect(s, 1)
        flagged = [int(m) for m in FAIL_LINE.findall(s.stdout)]
        if err is None and flagged != planted:
            err = (f"the {len(flagged)} flagged records are not the "
                   f"{len(planted)} planted ones")
        return err

    def check_setup(s: Sample) -> str | None:
        return _expect(s, 0) or (None if FAIL_LINE.search(s.stdout) is None
                                 else "genuine record flagged")

    return Plan(
        argv=["verify", str(mixed_path)],
        setup_argv=["verify", str(one_path)],
        items=len(mixed),
        check=check,
        check_setup=check_setup,
        note=(f"seed {seed} -> {len(planted)} of {len(mixed)} records planted "
              f"(first construct-s64 and theorem2-k4 windows)"),
        prep_attempted=generated,
        prep_errors=errors,
    )


PLANNERS = {
    "survey-1e7": plan_survey,
    "construct-s64": plan_construct,
    "theorem2-k4": plan_theorem2,
    "verify-mixed": plan_verify,
}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

class Tally:
    """Processes attempted, those with a wrong exit code or output, and why."""

    def __init__(self, plan: Plan):
        self.attempted = plan.prep_attempted
        self.failed = len(plan.prep_errors)
        self.errors = list(plan.prep_errors)

    def record(self, label: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.errors.append(f"{label}: {error}")


def measure_end_to_end(plan: Plan, seconds: float, work: Path, stop: float,
                       tally: Tally) -> dict[str, list[float]]:
    """Timed samples until `seconds` have passed, each followed by a set-up probe.

    Probes are spread over the run rather than made up front, so that
    setup_s sees the same host speed as the samples it is compared with.
    """
    err = work / "stderr.txt"
    run_process(cli_cmd(plan.setup_argv), err, stop)  # warm the bytecode cache
    samples, setup = [], []
    end = time.perf_counter() + seconds
    while not samples or time.perf_counter() < min(end, stop):
        samples.append(run_process(cli_cmd(plan.argv), err, stop))
        probe = run_process(cli_cmd(plan.setup_argv), err, stop)
        tally.record(f"setup probe {len(setup) + 1}", plan.check_setup(probe))
        setup.append(probe.wall)
    # checks run after the timed region; outputs are kept until here
    for i, s in enumerate(samples, start=1):
        tally.record(f"sample {i}", plan.check(s))
    return {
        "wall_s": [s.wall for s in samples],
        "cpu_s": [s.cpu for s in samples],
        "items_per_s": [plan.items / s.wall for s in samples],
        "first_output_s": [s.first_output for s in samples],
        "peak_rss_mb": [s.rss_mb for s in samples],
        "setup_s": setup,
    }


def layer_metrics(summary: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run (times in s, counts exact)."""
    by_name = summary["spans"]["by_name"]
    by_parent = summary["spans"]["by_parent"]
    counts = summary["counts"]

    def total(name):
        return by_name.get(name, {}).get("total_s", 0.0)

    def self_s(name):
        return by_name.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return by_name.get(name, {}).get("calls", 0)

    candidates = counts.get("construct.candidates", 0)
    certified = counts.get("construct.certified", 0)
    emitted = counts.get("construct.emitted", 0)
    verdicts = calls("arith.prime_verdict")
    return {
        "survey.sieve_s": total("survey.build_spf"),
        "survey.classify_s": self_s("survey.survey"),
        "survey.render_s": total("survey.report_write"),
        "construct.scan_s": total("construct.scan_tuple"),
        "construct.candidates": candidates,
        "arith.prime_verdict_calls": verdicts,
        "arith.prime_verdict_s": total("arith.prime_verdict"),
        "arith.verdicts_per_candidate": verdicts / candidates if candidates else 0.0,
        "construct.certify_s": self_s("construct.build_radimichael"),
        "construct.self_verify_s":
            by_parent.get("construct.verify_certificate<construct.build_radimichael", 0.0),
        "construct.certified": certified,
        "construct.emitted": emitted,
        "construct.emit_ratio": emitted / certified if certified else 0.0,
        "arith.factorize_calls": calls("arith.factorize"),
        "arith.factorize_s": total("arith.factorize"),
        "construct.serialize_s": total("construct.write_certificates"),
        "construct.parse_s": total("construct.read_certificates"),
        "construct.verify_s": by_parent.get("construct.verify_certificate<cli.main", 0.0),
        "construct.rejected": counts.get("construct.rejected", 0),
        "classify.is_k_lehmer_calls": calls("classify.is_k_lehmer"),
        "classify.is_k_lehmer_s": total("classify.is_k_lehmer"),
        "cli.other_s": self_s("cli.main"),
    }


COUNT_METRICS = [name for name, unit in PER_LAYER_UNITS.items() if unit == "count"]
# computed once per call from the workload and the untraced runs, not per span summary
RUN_LEVEL_METRICS = ("survey.table_mb", "survey.rss_over_table", "trace.overhead_s")


def measure_traced(plan: Plan, seconds: float, work: Path, stop: float,
                   tally: Tally) -> dict[str, list[float]]:
    """Alternate traced and untraced runs until `seconds` have passed."""
    err = work / "stderr.txt"
    summary_path = work / "summary.json"
    traced_cmd = [sys.executable, str(BENCH_DIR / "trace_child.py"),
                  str(summary_path), "--", *plan.argv]
    run_process(cli_cmd(plan.setup_argv), err, stop)  # warm the bytecode cache
    traced, untraced, layers = [], [], []
    end = time.perf_counter() + seconds
    while not traced or not untraced or time.perf_counter() < min(end, stop):
        if len(traced) <= len(untraced):
            summary_path.unlink(missing_ok=True)
            s = run_process(traced_cmd, err, stop)
            error = plan.check(s)
            if error is None and not summary_path.exists():
                error = "traced run wrote no span summary"
            tally.record(f"traced run {len(traced) + 1}", error)
            traced.append(s)
            if error is None:
                layers.append(layer_metrics(json.loads(summary_path.read_text())))
        else:
            s = run_process(cli_cmd(plan.argv), err, stop)
            tally.record(f"untraced run {len(untraced) + 1}", plan.check(s))
            untraced.append(s)
        if time.perf_counter() >= stop:
            break
    if any(layer[m] != layers[0][m] for layer in layers for m in COUNT_METRICS):
        tally.errors.append("per-layer counts differ between traced runs of one input")
    table_bytes = 4 * (plan.limit + 1) if plan.limit else 0
    rss = statistics.median(s.rss_mb for s in untraced) if untraced else 0.0
    out = {name: [layer[name] for layer in layers] or [0.0]
           for name in PER_LAYER_UNITS if name not in RUN_LEVEL_METRICS}
    out["survey.table_mb"] = [table_bytes / 1e6]
    out["survey.rss_over_table"] = [rss * 1e6 / table_bytes if table_bytes else 0.0]
    out["trace.overhead_s"] = [
        statistics.median(s.wall for s in traced)
        - (statistics.median(s.wall for s in untraced) if untraced else 0.0)]
    return out


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "radimichael" / "cli.py").is_file():
        print(f"error: no radimichael sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {REFERENCE}: {exc}", file=sys.stderr)
        return 2
    stop = started + HARD_STOP_S
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        plan = PLANNERS[args.workload](args.seed, reference, work, stop)
        tally = Tally(plan)
        if args.trace:
            values = measure_traced(plan, args.seconds, work, stop, tally)
            units = PER_LAYER_UNITS
        else:
            values = measure_end_to_end(plan, args.seconds, work, stop, tally)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    meta = host_metadata(ROOT, args.seed)
    stats = {name: describe(values[name]) for name in units}
    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "input": " ".join(plan.argv), "note": plan.note, "host": meta,
        "attempted": tally.attempted, "errors": tally.errors,
        "metrics": {name: {**stats[name], "unit": units[name], "samples": values[name]}
                    for name in units},
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"# workload {args.workload}: {WORKLOADS[args.workload]}")
    print(f"# input: radimichael {' '.join(plan.argv)}")
    print(f"# {plan.note}")
    print(f"# host: {json.dumps(meta, sort_keys=True)}")
    for name in units:
        st = stats[name]
        if units[name] != "s":
            tail = ""
        elif st["tail_p"] is None:
            tail = "no tail percentile (fewer than 11 samples)"
        else:
            tail = f"p{st['tail_p']} {st['tail']:.6g}"
        print(f"{name:30s} median {st['median']:.6g} {units[name]:5s} {tail}  n={st['n']}")
    attempted, failed = max(tally.attempted, 1), tally.failed
    print(f"error_rate {failed}/{attempted} = {failed / attempted:.4g}")
    for error in tally.errors:
        print(f"# wrong output: {error}")
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": stats[name]["median"], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
