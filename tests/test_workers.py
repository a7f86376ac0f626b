"""fork_map: results in unit order, a unit's failure raised in the caller with
every child reaped, and the worker cap enforced before any fork."""

import os
import time

import pytest

from radimichael.construct import (
    CertificateViolationError,
    TupleSpec,
    search_radimichael,
    theorem2_search,
)
from radimichael.survey import survey
from radimichael.workers import MAX_WORKERS, fork_map


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fork_map_returns_every_unit_in_order_and_runs_unit_0_here():
    for workers in (1, 2, 3):
        results = fork_map(lambda unit, units: (unit, units, os.getpid()), workers)
        assert [r[:2] for r in results] == [(u, workers) for u in range(workers)]
        assert results[0][2] == os.getpid()
        assert os.getpid() not in {pid for _, _, pid in results[1:]}
    assert_no_child_left()


def test_a_child_failure_is_raised_here_with_its_own_type():
    def work(unit, units):
        if unit == 1:
            raise CertificateViolationError("unit 1 failed")
        return unit

    with pytest.raises(CertificateViolationError, match="unit 1 failed"):
        fork_map(work, 3)
    assert_no_child_left()


def test_a_failure_in_unit_0_stops_and_reaps_the_children():
    def work(unit, units):
        if unit == 0:
            raise KeyError("unit 0 failed")
        time.sleep(60)

    start = time.perf_counter()
    with pytest.raises(KeyError, match="unit 0 failed"):
        fork_map(work, 3)
    assert time.perf_counter() - start < 30
    assert_no_child_left()


def test_a_child_that_exits_without_a_result_is_an_error():
    def work(unit, units):
        if unit == 1:
            os._exit(3)
        return unit

    with pytest.raises(RuntimeError, match="without its result"):
        fork_map(work, 2)
    assert_no_child_left()


def test_worker_counts_outside_the_cap_are_refused_before_any_fork(monkeypatch):
    def no_fork():
        raise AssertionError("forked for an out-of-range worker count")

    monkeypatch.setattr(os, "fork", no_fork)
    spec = TupleSpec(a=2, b=0, s=4, m=2, n_min=1, n_max=1)
    calls = (lambda w: survey(1, workers=w),
             lambda w: survey(100, workers=w),
             lambda w: search_radimichael(spec, workers=w),
             lambda w: theorem2_search(2, 3, 10, range(5, 5), workers=w),
             lambda w: theorem2_search(2, 3, 10, range(1, 50), workers=w),
             lambda w: fork_map(lambda unit, units: unit, w))
    for call in calls:
        for workers in (0, MAX_WORKERS + 1, 10**5):
            with pytest.raises(ValueError, match="workers must lie in"):
                call(workers)
