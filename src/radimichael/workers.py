"""fork_map: one piece of work split into independent units, run in the
calling process and in forked children, each unit's pieces streamed back
and taken from the units in turn."""

from __future__ import annotations

import os
from itertools import islice
from typing import Callable, Iterable, Iterator

# Upper bound on the worker count: each worker is a forked process, so a
# typo such as 100000 must be refused before any is started.
MAX_WORKERS = 64

# A child sends its pieces in batches of this many, one pipe message each,
# so per-message costs are paid once per batch rather than once per piece.
PIECES_PER_SEND = 16


def check_workers(workers: int) -> None:
    """Refuse a worker count that is not an int (a bool or a float too) or
    lies outside [1, MAX_WORKERS]."""
    if type(workers) is not int or not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must lie in [1, {MAX_WORKERS}] and be an int, "
                         f"got {workers!r}")


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


class _RemoteTraceback(Exception):
    """A worker's formatted traceback, chained as the cause of the
    exception that the worker raised."""


def _child(sender, work, unit: int, units: int, parent_cpu: int | None) -> None:
    """Send the pieces of work(unit, units) as they are made, PIECES_PER_SEND
    to a message, then "end"; a full pipe blocks the send, so the child runs
    at most a pipe ahead."""
    _move_off_parent_cpu(unit, parent_cpu)
    with sender:
        try:
            pieces = iter(work(unit, units))
            while batch := list(islice(pieces, PIECES_PER_SEND)):
                sender.send(("pieces", batch))
            sender.send(("end", None))
        except Exception as exc:  # the parent raises it again
            import traceback  # imported only on this failure path
            sender.send(("error", (exc, traceback.format_exc())))


def _received(receiver) -> Iterator:
    """The pieces a child sends, ending at its "end"."""
    while True:
        try:
            kind, value = receiver.recv()
        except EOFError:
            raise RuntimeError("a worker exited before its last piece") from None
        if kind == "end":
            return
        if kind == "error":
            exc, text = value
            raise exc from _RemoteTraceback(text)
        yield from value


def _in_turn(sources: list[Iterator]) -> Iterator:
    """Piece 0 of each source, then piece 1 of each, and so on, skipping
    the sources that have run out."""
    while sources:
        live = []
        for source in sources:
            for piece in source:
                yield piece
                live.append(source)
                break
        sources = live


def fork_map(work: Callable[[int, int], Iterable], workers: int) -> Iterator:
    """The pieces of work(0, workers), ..., work(workers - 1, workers) taken
    in turn: piece 0 of every unit in unit order, then piece 1 of every
    unit that has one, and so on.

    The worker count is checked here, before anything runs. Unit 0 runs in
    the calling process while forked children run the others and send each
    piece as they make it, or all run here with one worker or no fork. A
    child's exception is raised here with its own type and the child's
    traceback as its cause. Every child is stopped when the iterator ends,
    raises or is closed.
    """
    check_workers(workers)
    return _pieces(work, workers)


def _pieces(work, workers: int) -> Iterator:
    if workers == 1 or not hasattr(os, "fork"):
        yield from _in_turn([iter(work(unit, workers)) for unit in range(workers)])
        return
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
        yield from _in_turn([iter(work(0, workers))]
                            + [_received(receiver) for _, receiver in children])
    finally:
        # every piece has arrived, a unit failed or the caller stopped early;
        # a child is stopped before its pipe closes, so that it never sees
        # the closed pipe as a failure of its own
        for child, receiver in children:
            child.terminate()
            child.join()
            receiver.close()
