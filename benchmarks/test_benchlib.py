"""Tests for the benchmark's own helpers.

    PYTHONPATH=src python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from benchlib import MUTATIONS, Tracer, describe, mutate_line, plant_mutations, tail_percentile

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from radimichael import construct  # noqa: E402


class FakeClock:
    """Returns 0, 1, 2, ... so every span boundary is one tick later."""

    def __init__(self):
        self.now = -1

    def __call__(self):
        self.now += 1
        return float(self.now)


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

def test_self_time_subtracts_only_direct_children():
    tracer = Tracer(clock=FakeClock())
    leaf = tracer.wrap("leaf", lambda: None)

    def inner_body():
        leaf()
        leaf()

    inner = tracer.wrap("inner", inner_body)
    outer = tracer.wrap("outer", lambda: (inner(), leaf()))
    outer()
    # ticks: outer 0-9, inner 1-6 holding leaves 2-3 and 4-5, last leaf 7-8
    spans = tracer.summary()["spans"]
    by_name, by_parent = spans["by_name"], spans["by_parent"]
    assert by_name["leaf"] == {"calls": 3, "total_s": 3.0, "self_s": 3.0}
    assert by_name["inner"]["total_s"] == 5.0
    assert by_name["inner"]["self_s"] == 3.0
    assert by_name["outer"]["total_s"] == 9.0
    assert by_name["outer"]["self_s"] == 9.0 - 5.0 - 1.0
    assert by_parent["leaf<inner"] == 2.0
    assert by_parent["leaf<outer"] == 1.0
    assert by_parent["outer<"] == 9.0
    total_self = sum(rec["self_s"] for rec in by_name.values())
    assert total_self == by_name["outer"]["total_s"]


def test_recursive_span_counted_once_in_inclusive_time():
    tracer = Tracer(clock=FakeClock())

    def countdown(k):
        if k:
            traced(k - 1)

    traced = tracer.wrap("rec", countdown)
    traced(2)
    rec = tracer.summary()["spans"]["by_name"]["rec"]
    assert rec["calls"] == 3
    assert rec["total_s"] == 5.0          # outermost span only: ticks 0..5
    assert rec["self_s"] == 5.0           # 3 nested spans sum to the outer one


def test_span_closes_and_hook_sees_parent_when_call_raises():
    tracer = Tracer(clock=FakeClock())
    seen = []
    child = tracer.wrap("child", lambda: None,
                        on_result=lambda t, args, result: seen.append(t.parent_name()))

    def boom():
        child()
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("parent", boom)()
    assert seen == ["parent"]
    assert tracer.summary()["spans"]["by_name"]["parent"]["total_s"] == 3.0


# ---------------------------------------------------------------------------
# percentile reporting
# ---------------------------------------------------------------------------

def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(range(1, 101)) == (90, 90)
    assert tail_percentile(range(1, 12)) == (9, 1)
    assert tail_percentile(range(1, 11)) is None
    assert tail_percentile([]) is None


def test_tail_percentile_counts_ties_as_not_beyond():
    values = [1.0] * 20 + [2.0] * 10
    assert tail_percentile(values) == (66, 1.0)
    assert tail_percentile([5.0] * 50) is None


def test_describe_reports_median_tail_and_count():
    values = [float(v) for v in range(200, 0, -1)]
    assert describe(values) == {"median": 100.5, "tail_p": 95, "tail": 190.0, "n": 200}
    assert describe([3.0, 1.0, 2.0]) == {"median": 2.0, "tail_p": None, "tail": None, "n": 3}


# ---------------------------------------------------------------------------
# planted mutations
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def genuine_lines():
    """Records of every kind the benchmark plants into: probable and
    deterministic construct records, theorem2 records, and a base other than 2."""
    certs = construct.search_radimichael(   # n=109 and n=218 give probable records
        construct.TupleSpec(a=2, b=0, s=64, m=3, n_min=100, n_max=220))
    certs += construct.theorem2_search(2, 4, 16, range(1, 120))
    certs += construct.search_radimichael(
        construct.TupleSpec(a=6, b=1, s=12, m=2, n_min=1, n_max=40))
    assert any(c.probable_prime_flag for c in certs)
    assert any(not c.probable_prime_flag for c in certs)
    return [construct.certificate_to_line(c) for c in certs]


def test_genuine_records_verify(genuine_lines):
    for line in genuine_lines:
        assert construct.verify_certificate(construct.certificate_from_line(line))


def test_every_mutation_is_rejected(genuine_lines):
    fields_seen = set()
    for seed in range(6):
        rng = random.Random(seed)
        for line in genuine_lines:
            mutated, field = mutate_line(line, rng)
            fields_seen.add(field)
            cert = construct.certificate_from_line(mutated)
            assert not construct.verify_certificate(cert), (field, mutated)
    assert fields_seen == set(MUTATIONS)


def test_mutations_keep_json_types(genuine_lines):
    rng = random.Random(1)
    for line in genuine_lines[:50]:
        before = json.loads(line)
        after = json.loads(mutate_line(line, rng)[0])
        assert list(after) == list(before)
        assert sum(after[k] != before[k] for k in before) == 1
        assert all(type(after[k]) is type(before[k]) for k in before)


def test_plant_mutations_is_seeded_and_marks_exactly_the_changed_lines(genuine_lines):
    out, planted = plant_mutations(genuine_lines, random.Random(5), 0.1)
    again, planted_again = plant_mutations(genuine_lines, random.Random(5), 0.1)
    assert (out, planted) == (again, planted_again)
    assert len(planted) == round(len(genuine_lines) * 0.1)
    changed = [i + 1 for i, (a, b) in enumerate(zip(genuine_lines, out)) if a != b]
    assert changed == planted


# ---------------------------------------------------------------------------
# traced child
# ---------------------------------------------------------------------------

def _trace(tmp_path, *cli_args):
    summary = tmp_path / "summary.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "trace_child.py"), str(summary),
         "--", *cli_args], env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(summary.read_text()), proc.stdout


def test_trace_reaches_names_imported_by_name(tmp_path):
    summary, out = _trace(tmp_path, "construct", "--a", "2", "--s", "8", "--m", "2",
                          "--n-max", "30")
    by_parent = summary["spans"]["by_parent"]
    assert by_parent["arith.prime_verdict<construct.scan_tuple"] > 0
    assert by_parent["classify.is_k_lehmer<construct.verify_certificate"] > 0
    assert summary["counts"]["construct.candidates"] == 30 * 8
    assert summary["counts"]["construct.emitted"] == len(out.splitlines())


def test_trace_reaches_the_survey_module(tmp_path):
    summary, _ = _trace(tmp_path, "survey", "--limit", "1000")
    by_parent = summary["spans"]["by_parent"]
    assert by_parent["survey.survey<cli.main"] > 0
    assert by_parent["survey.build_spf<survey.survey"] > 0
    assert by_parent["survey.report_write<cli.main"] > 0
