"""Run one radimichael CLI command in-process with spans around each layer.

    python3 benchmarks/trace_child.py SUMMARY.json -- <cli arguments>

The package is imported from the checkout's `src/` (the caller sets
PYTHONPATH). Spans are recorded by rebinding each traced function in every
radimichael module that holds it, so calls through a name imported with
`from .arith import prime_verdict` are traced too. The command's stdout goes
to this process's stdout; the span summary is written to SUMMARY.json. The
exit code is the CLI's.
"""

from __future__ import annotations

import json
import sys

from benchlib import Tracer

# (span name, module, attribute). `import radimichael.survey` yields the
# survey function that the package re-exports, so modules are looked up in
# sys.modules by name.
TARGETS = (
    ("cli.main", "radimichael.cli", "main"),
    ("survey.survey", "radimichael.survey", "survey"),
    ("survey.build_spf", "radimichael.survey", "build_spf"),
    ("survey.report_write", "radimichael.survey", "report_write"),
    ("construct.search_radimichael", "radimichael.construct", "search_radimichael"),
    ("construct.theorem2_search", "radimichael.construct", "theorem2_search"),
    ("construct.scan_tuple", "radimichael.construct", "scan_tuple"),
    ("construct.build_radimichael", "radimichael.construct", "build_radimichael"),
    ("construct.verify_certificate", "radimichael.construct", "verify_certificate"),
    ("construct.write_certificates", "radimichael.construct", "write_certificates"),
    ("construct.read_certificates", "radimichael.construct", "read_certificates"),
    ("arith.prime_verdict", "radimichael.arith", "prime_verdict"),
    ("arith.factorize", "radimichael.arith", "factorize"),
    ("classify.is_k_lehmer", "radimichael.classify", "is_k_lehmer"),
)


def _count_candidates(tracer, args, result):
    lo, hi = args[0].window
    tracer.counts["construct.candidates"] += hi - lo + 1


def _count_certified(tracer, args, result):
    tracer.counts["construct.certified"] += 1


def _count_emitted(tracer, args, result):
    tracer.counts["construct.emitted"] += result


def _count_rejected(tracer, args, result):
    if not result and tracer.parent_name() != "construct.build_radimichael":
        tracer.counts["construct.rejected"] += 1


HOOKS = {
    "construct.scan_tuple": _count_candidates,
    "construct.build_radimichael": _count_certified,
    "construct.write_certificates": _count_emitted,
    "construct.verify_certificate": _count_rejected,
}


def instrument(tracer: Tracer) -> list[str]:
    """Rebind every traced function wherever radimichael looks it up.

    Returns the span names whose target does not exist in this version of
    the package; their metrics then read 0.
    """
    import radimichael.cli  # noqa: F401  (loads every submodule)

    modules = [m for name, m in list(sys.modules.items())
               if name == "radimichael" or name.startswith("radimichael.")]
    missing = []
    for span, module, attr in TARGETS:
        original = getattr(sys.modules[module], attr, None)
        if original is None:
            missing.append(span)
            continue
        wrapper = tracer.wrap(span, original, HOOKS.get(span))
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
    return missing


def main(argv: list[str]) -> int:
    summary_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: trace_child.py SUMMARY.json -- <cli arguments>")
    tracer = Tracer()
    missing = instrument(tracer)
    for span in missing:
        print(f"trace: {span} not found; its metrics read 0", file=sys.stderr)
    code = sys.modules["radimichael.cli"].main(cli_args)
    sys.stdout.flush()
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
