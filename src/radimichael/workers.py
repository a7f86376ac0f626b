"""fork_map: one piece of work split into independent units, run in the
calling process and in forked children, with the results in unit order."""

from __future__ import annotations

import os
from typing import Callable

# Upper bound on the worker count: each worker is a forked process, so a
# typo such as 100000 must be refused before any is started.
MAX_WORKERS = 64


def check_workers(workers: int) -> None:
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must lie in [1, {MAX_WORKERS}], got {workers}")


def _current_cpu() -> int | None:
    """The CPU this process runs on, where Linux's /proc tells it."""
    try:
        with open("/proc/self/stat") as stat:
            return int(stat.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _move_off_parent_cpu(unit: int, parent_cpu: int | None) -> None:
    """Move forked worker `unit` to the unit-th allowed CPU after its
    parent's, then allow every CPU again.

    A forked child starts on its parent's CPU, and some kernels leave it
    there for hundreds of milliseconds, so that the two take turns on one
    CPU while another idles. The move is made once; the scheduler is free
    to move the worker afterwards.
    """
    if parent_cpu is None or not hasattr(os, "sched_setaffinity"):
        return
    allowed = sorted(os.sched_getaffinity(0))
    if parent_cpu not in allowed or len(allowed) < 2:
        return
    target = allowed[(allowed.index(parent_cpu) + unit) % len(allowed)]
    try:
        os.sched_setaffinity(0, {target})
        os.sched_setaffinity(0, allowed)
    except OSError:  # pragma: no cover - a CPU went offline meanwhile
        pass


def _child(sender, work, unit: int, units: int, parent_cpu: int | None) -> None:
    _move_off_parent_cpu(unit, parent_cpu)
    with sender:
        try:
            sender.send((True, work(unit, units)))
        except Exception as exc:  # the parent raises it again
            sender.send((False, exc))


def fork_map(work: Callable[[int, int], object], workers: int) -> list:
    """[work(0, workers), ..., work(workers - 1, workers)]: unit 0 runs here
    while forked children run the others, or all run here in turn with one
    worker or no fork. A child's exception is raised here with its own
    type, and every child is stopped before this returns or raises."""
    check_workers(workers)
    if workers == 1 or not hasattr(os, "fork"):
        return [work(unit, workers) for unit in range(workers)]
    import multiprocessing  # a serial run never pays for the import
    ctx = multiprocessing.get_context("fork")
    children, cpu = [], _current_cpu()
    try:
        for unit in range(1, workers):
            receiver, sender = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_child, args=(sender, work, unit, workers, cpu))
            child.start()
            sender.close()
            children.append((child, receiver))
        results = [work(0, workers)]
        for _, receiver in children:
            try:
                ok, value = receiver.recv()
            except EOFError:
                raise RuntimeError("a worker exited without its result") from None
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        # every result has arrived, or a unit failed: stop what is left
        for child, receiver in children:
            receiver.close()
            child.terminate()
            child.join()
