"""fork_map: the units' pieces taken in turn, a unit's failure raised in the
caller with its traceback and every child reaped, children reaped when the
caller stops early, and the worker cap enforced before any fork."""

import io
import os
import sys
import time

import pytest

from radimichael.cli import main
from radimichael.construct import (
    CertificateViolationError,
    TupleSpec,
    search_radimichael,
    stream_radimichael,
    stream_theorem2,
    theorem2_search,
)
from radimichael.survey import survey
from radimichael.workers import MAX_WORKERS, PIECES_PER_SEND, fork_map


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fork_map_returns_every_unit_in_order_and_runs_unit_0_here():
    for workers in (1, 2, 3):
        results = list(fork_map(lambda unit, units: [(unit, units, os.getpid())],
                                workers))
        assert [r[:2] for r in results] == [(u, workers) for u in range(workers)]
        assert results[0][2] == os.getpid()
        assert os.getpid() not in {pid for _, _, pid in results[1:]}
    assert_no_child_left()


def test_fork_map_takes_the_pieces_in_turn_and_skips_exhausted_units():
    lengths = (3, 1, 2)

    def work(unit, units):
        return ((unit, i) for i in range(lengths[unit]))

    expected = [(0, 0), (1, 0), (2, 0), (0, 1), (2, 1), (0, 2)]
    for workers in (1, 2, 3):
        assert list(fork_map(work, workers)) == [p for p in expected if p[0] < workers]
    assert_no_child_left()


def test_pieces_sent_in_batches_arrive_whole_and_in_turn():
    # unit lengths on both sides of a batch boundary, and an empty unit
    lengths = (2 * PIECES_PER_SEND + 3, PIECES_PER_SEND, PIECES_PER_SEND + 1, 0)

    def work(unit, units):
        return ((unit, i) for i in range(lengths[unit]))

    expected = [(u, i) for i in range(max(lengths)) for u in range(4) if i < lengths[u]]
    assert list(fork_map(work, 4)) == expected
    assert_no_child_left()


def test_a_child_failure_is_raised_here_with_its_own_type():
    def work(unit, units):
        if unit == 1:
            raise CertificateViolationError("unit 1 failed")
        return [unit]

    with pytest.raises(CertificateViolationError, match="unit 1 failed"):
        list(fork_map(work, 3))
    assert_no_child_left()


def test_a_child_failure_carries_the_child_traceback_as_its_cause():
    def look_up_the_missing_key(unit):
        return {}[unit]

    def work(unit, units):
        yield unit
        if unit == 1:
            yield look_up_the_missing_key(unit)

    with pytest.raises(KeyError) as excinfo:
        list(fork_map(work, 3))
    assert "look_up_the_missing_key" in str(excinfo.value.__cause__)
    assert_no_child_left()


def test_a_failure_in_unit_0_stops_and_reaps_the_children():
    def work(unit, units):
        if unit == 0:
            raise KeyError("unit 0 failed")
        time.sleep(60)
        return [unit]

    start = time.perf_counter()
    with pytest.raises(KeyError, match="unit 0 failed"):
        list(fork_map(work, 3))
    assert time.perf_counter() - start < 30
    assert_no_child_left()


def test_closing_after_the_first_piece_stops_and_reaps_the_children():
    def work(unit, units):
        while True:  # each child fills its pipe and blocks in a send
            yield bytes(1000)

    start = time.perf_counter()
    pieces = fork_map(work, 3)
    assert next(pieces) == bytes(1000)
    pieces.close()
    assert time.perf_counter() - start < 30
    assert_no_child_left()


def test_a_broken_output_pipe_stops_and_reaps_the_search_workers(capsys, monkeypatch):
    class BrokenPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", BrokenPipe())
    code = main(["theorem2", "--a", "2", "--k", "4", "--s", "16",
                 "--n-max", "4000", "--workers", "3"])
    assert code == 2 and "Broken pipe" in capsys.readouterr().err
    assert_no_child_left()


def test_a_child_that_exits_without_a_result_is_an_error():
    def work(unit, units):
        if unit == 1:
            os._exit(3)
        return [unit]

    with pytest.raises(RuntimeError, match="before its last piece"):
        list(fork_map(work, 2))
    assert_no_child_left()


def test_worker_counts_outside_the_cap_are_refused_before_any_fork(monkeypatch):
    def no_fork():
        raise AssertionError("forked for an out-of-range worker count")

    monkeypatch.setattr(os, "fork", no_fork)
    spec = TupleSpec(a=2, b=0, s=4, m=2, n_min=1, n_max=1)
    calls = (lambda w: survey(1, workers=w),
             lambda w: survey(100, workers=w),
             lambda w: search_radimichael(spec, workers=w),
             lambda w: stream_radimichael(spec, workers=w),
             lambda w: theorem2_search(2, 3, 10, range(5, 5), workers=w),
             lambda w: theorem2_search(2, 3, 10, range(1, 50), workers=w),
             lambda w: stream_theorem2(2, 3, 10, range(5, 5), workers=w),
             lambda w: stream_theorem2(2, 3, 10, range(1, 50), workers=w),
             lambda w: fork_map(lambda unit, units: [unit], w))
    for call in calls:
        for workers in (0, MAX_WORKERS + 1, 10**5, 2.0, True):
            with pytest.raises(ValueError, match="workers must lie in"):
                call(workers)
