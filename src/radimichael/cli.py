"""Command-line interface: classify, survey, construct, theorem2, verify.

Exit codes: 0 success (including searches with zero hits), 1 certificate
verification failures, 2 bad parameters or malformed input, 3 resource
limits exceeded.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

# numpy and the submodules allocate most of the process's objects, and most
# of those live until exit, so no collection runs while they load. The
# young generation's count still grows meanwhile; re-enabled as it stands,
# the collector would walk the whole import heap at the next allocation.
# Freezing and at once unfreezing resets that count and files the heap in
# the oldest generation, unless a caller has frozen objects of its own that
# an unfreeze would release. The collector is left on or off as found.
_collecting = gc.isenabled()
gc.disable()
try:
    from . import construct
    from .classify import classify
    from .survey import (
        DEFAULT_K_MAX,
        REPORT_FORMATS,
        MemoryBudgetError,
        report_write,
        survey,
    )
    from .workers import check_workers
finally:
    if not gc.get_freeze_count():
        gc.freeze()
        gc.unfreeze()
    if _collecting:
        gc.enable()
    del _collecting

MEMORY_BUDGET_ENV = "RADIMICHAEL_MEMORY_BUDGET"


def _workers(text: str) -> int:
    try:
        value = int(text)
        check_workers(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _open_output(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


def _cmd_classify(args: argparse.Namespace) -> int:
    n = args.n
    record = classify(n)
    if record.category != "composite":
        print(f"{n}: {record.category}")
        return 0
    idx = "none" if record.lehmer_index is None else str(record.lehmer_index)
    print(f"{n}: composite squarefree={str(record.squarefree).lower()} "
          f"omega={record.omega} carmichael={str(record.carmichael).lower()} "
          f"radimichael={str(record.radimichael).lower()} lehmer_index={idx}")
    return 0


def _memory_budget() -> int | None:
    """The byte budget set in the environment; unset or empty means none."""
    text = os.environ.get(MEMORY_BUDGET_ENV)
    if not text:
        return None
    try:
        budget = int(text)
    except ValueError:
        budget = -1
    if budget < 0:
        raise ValueError(f"{MEMORY_BUDGET_ENV} must be a non-negative "
                         f"integer byte count, got {text!r}")
    return budget


def _cmd_survey(args: argparse.Namespace) -> int:
    report = survey(
        args.limit,
        args.k_max,
        workers=args.workers,
        checkpoints=args.checkpoint,
        memory_budget=_memory_budget(),
    )
    data = report_write(report, args.format)
    if args.output is None or args.output == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.flush()
    else:
        with open(args.output, "wb") as fh:
            fh.write(data)
    return 0


def _emit_certificates(certs, args, label: str) -> int:
    """Write each certificate as the search yields it, then the summary."""
    stream, owned = _open_output(args.output)
    try:
        count = construct.write_certificates(certs, stream)
        stream.flush()  # a closed pipe fails here, before the summary
    finally:
        certs.close()  # a failed write stops the search and its workers
        if owned:
            stream.close()
    if count == 0:
        print(f"# {label}: no certificates found in n range "
              f"[{args.n_min}, {args.n_max}]; an empty window is not an error",
              file=sys.stderr)
    else:
        print(f"# {label}: {count} certificates from n in "
              f"[{args.n_min}, {args.n_max}]", file=sys.stderr)
    return 0


def _cmd_construct(args: argparse.Namespace) -> int:
    spec = construct.TupleSpec(a=args.a, b=args.b, s=args.s, m=args.m,
                               n_min=args.n_min, n_max=args.n_max)
    certs = construct.stream_radimichael(spec, all_subsets=args.all_subsets,
                                         workers=args.workers)
    return _emit_certificates(certs, args, "construct")


def _cmd_theorem2(args: argparse.Namespace) -> int:
    certs = construct.stream_theorem2(
        args.a, args.k, args.s, range(args.n_min, args.n_max + 1),
        b=args.b, workers=args.workers)
    return _emit_certificates(certs, args, "theorem2")


def _cmd_verify(args: argparse.Namespace) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        certs = construct.read_certificates(fh)
    if not certs:
        print("verify: 0 records (empty file)")
        return 0
    # refuse oversized records before any primality test runs
    for i, cert in enumerate(certs, start=1):
        if reason := construct.oversize(cert):
            print(f"error: record {i}: {reason}", file=sys.stderr)
            return 3
    failures = 0
    for i, cert in enumerate(certs, start=1):
        if not construct.verify_certificate(cert):
            failures += 1
            print(f"record {i}: FAIL (N={cert.N})")
    print(f"verify: {len(certs) - failures}/{len(certs)} records passed")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radimichael",
        description="Carmichael / radimichael / k-Lehmer toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify one integer")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("survey", help="count classes up to a limit")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--k-max", type=int, default=DEFAULT_K_MAX)
    p.add_argument("--format", choices=REPORT_FORMATS, default="table")
    p.add_argument("--workers", type=_workers, default=1)
    p.add_argument("--checkpoint", type=int, action="append",
                   help="custom checkpoint (repeatable; default powers of 10)")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=_cmd_survey)

    p = sub.add_parser("construct", help="search tuples and emit certificates")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, default=0)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--all-subsets", action="store_true",
                   help="certify every size-m selection, not just the smallest")
    p.add_argument("--workers", type=_workers, default=1)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("theorem2",
                       help="hunt k-Lehmer numbers with exactly k-1 prime factors")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--b", type=int, default=0,
                   help="window shift; the window is exponents max(b, 1)..b+s")
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--workers", type=_workers, default=1)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=_cmd_theorem2)

    p = sub.add_parser("verify", help="re-check a certificate file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; with no argv, as the process entry on sys.argv.

    The process entry freezes the heap it has built so far: nearly every
    object imported lives until exit, so no later collection, nor the final
    ones at exit, need walk it. Called with argv, in a caller's process,
    nothing is frozen: that would keep the caller's garbage until it exits.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if argv is None:
        gc.freeze()
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except MemoryBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError as exc:
        if sys.stdout is sys.__stdout__:
            # stdout may still hold unsent bytes; send them to devnull so
            # the flush at exit cannot fail again and turn exit 2 into 120
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
