#!/usr/bin/env python3
"""Record the reference outputs that benchmarks/run.py checks against.

    python3 benchmarks/make_reference.py

Runs the CLI from the checkout's `src/` on every input the benchmark can
generate (the survey and each seeded n window, full size and set-up size)
and writes benchmarks/reference.json. Run it only when a change alters the
survey report or certificate lines on purpose; about two minutes on 2 CPUs.
"""

from __future__ import annotations

import json
import time

import run


def record(args: list[str], code: int = 0) -> bytes:
    s = run.run_process(run.cli_cmd(args), run.WORK / "reference-stderr.txt",
                        time.perf_counter() + 600)
    if s.exit_code != code:
        raise SystemExit(f"radimichael {' '.join(args)} exited {s.exit_code}")
    return s.stdout


def windows(base: list[str], width: int) -> list[dict]:
    out = []
    for k in range(run.WINDOWS):
        w = {"n_min": 1 + k * run.WINDOW_STEP, "n_max": k * run.WINDOW_STEP + width}
        full = record(run.window_args(base, w))
        setup = record(run.window_args(base, w, setup=True))
        w.update(sha256=run.sha256(full), lines=full.count(b"\n"),
                 setup_sha256=run.sha256(setup))
        print(f"{base[0]} window {k}: {w['lines']} lines", flush=True)
        out.append(w)
    return out


def main() -> None:
    run.WORK.mkdir(exist_ok=True)
    survey = record(["survey", "--limit", str(run.SURVEY_LIMIT), "--workers", "1"])
    reference = {
        "survey-1e7": {
            "stdout": survey.decode(),
            "setup_sha256": run.sha256(record(["survey", "--limit", "10", "--workers", "1"])),
        },
        "construct-s64": {"windows": windows(run.CONSTRUCT_ARGS, run.CONSTRUCT_WIDTH)},
        "theorem2-k4": {"windows": windows(run.THEOREM2_ARGS, run.THEOREM2_WIDTH)},
    }
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {run.REFERENCE}")


if __name__ == "__main__":
    main()
