"""CLI behavior: commands, exit codes, output determinism."""

import io
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
from dataclasses import replace
from math import prod
from pathlib import Path

import pytest

import radimichael
from radimichael.cli import main
from radimichael.construct import (
    MAX_COMPONENT_BITS,
    certificate_from_line,
    certificate_to_line,
    verify_certificate,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_import_loads_every_submodule_but_no_fork_or_logging_machinery():
    # multiprocessing and logging are imported where a fork or a warning
    # happens; the benchmark tracer finds every submodule in sys.modules
    submodules = sorted(f"radimichael.{m.name}"
                        for m in pkgutil.iter_modules(radimichael.__path__))
    code = textwrap.dedent(f"""
        import json, sys
        import radimichael.cli
        names = {submodules!r} + ["numpy", "multiprocessing", "logging"]
        print(json.dumps([name in sys.modules for name in names]))
    """)
    src = str(Path(radimichael.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert "radimichael.survey" in submodules
    assert json.loads(proc.stdout) == [True] * len(submodules) + [True, False, False]


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_85(capsys):
    code, out, _ = run_cli(capsys, "classify", "85")
    assert code == 0
    assert "radimichael=true" in out
    assert "carmichael=false" in out
    assert "lehmer_index=3" in out


def test_classify_561(capsys):
    code, out, _ = run_cli(capsys, "classify", "561")
    assert code == 0
    assert "carmichael=true" in out and "lehmer_index=2" in out


def test_classify_prime_and_unit(capsys):
    code, out, _ = run_cli(capsys, "classify", "7")
    assert code == 0 and out.strip() == "7: prime"
    code, out, _ = run_cli(capsys, "classify", "1")
    assert code == 0 and out.strip() == "1: unit"


def test_classify_bad_input(capsys):
    assert run_cli(capsys, "classify", "0")[0] == 2
    assert run_cli(capsys, "classify", str(2**70))[0] == 2
    with pytest.raises(SystemExit) as err:
        main(["classify", "pineapple"])
    assert err.value.code == 2


# ---------------------------------------------------------------------------
# survey
# ---------------------------------------------------------------------------

def test_survey_100_csv(capsys):
    code, out, _ = run_cli(capsys, "survey", "--limit", "100", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("checkpoint,composites,carmichael,radimichael")
    assert lines[-1].startswith("100,74,0,4,4,")


def test_survey_limit_1_header_only(capsys):
    code, out, _ = run_cli(capsys, "survey", "--limit", "1", "--format", "csv")
    assert code == 0 and len(out.splitlines()) == 1


def test_survey_10000_carmichael(capsys):
    code, out, _ = run_cli(capsys, "survey", "--limit", "10000", "--format", "csv")
    assert code == 0
    last = out.splitlines()[-1].split(",")
    assert last[0] == "10000" and last[2] == "7"


def test_survey_output_file_and_worker_identity(tmp_path, capsys):
    paths = []
    for i, workers in enumerate(("1", "2", "8")):
        path = tmp_path / f"report{i}.csv"
        code, _, _ = run_cli(capsys, "survey", "--limit", "10000",
                             "--format", "csv", "--workers", workers,
                             "--output", str(path))
        assert code == 0
        paths.append(path.read_bytes())
    assert paths[0] == paths[1] == paths[2]


def test_workers_above_cap_refused_before_any_command_runs(capsys, monkeypatch):
    from radimichael import cli
    from radimichael.workers import MAX_WORKERS

    def never(*args, **kwargs):
        raise AssertionError("command ran despite a refused --workers")

    monkeypatch.setattr(cli, "survey", never)
    monkeypatch.setattr(cli.construct, "search_radimichael", never)
    monkeypatch.setattr(cli.construct, "theorem2_search", never)
    assert cli._workers(str(MAX_WORKERS)) == MAX_WORKERS
    commands = (["survey", "--limit", "100"],
                ["construct", "--a", "2", "--s", "4", "--m", "2", "--n-max", "10"],
                ["theorem2", "--a", "2", "--k", "3", "--s", "4", "--n-max", "10"])
    for argv in commands:
        for workers in (str(MAX_WORKERS + 1), "100000", "0"):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--workers", workers])
            captured = capsys.readouterr()
            assert exc.value.code == 2 and captured.out == ""
            assert "--workers" in captured.err


def test_survey_rejects_bad_segment_size(capsys):
    # the prime-count segment is fixed; the old flag is an unknown argument
    with pytest.raises(SystemExit) as exc:
        main(["survey", "--limit", "100", "--segment-size", "5"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "unrecognized arguments: --segment-size" in captured.err


def test_survey_rejects_k_max_above_cap(capsys):
    # refused before any table or histogram is allocated
    code, out, err = run_cli(capsys, "survey", "--limit", "100",
                             "--k-max", "100000000")
    assert code == 2 and out == ""
    assert "k_max must lie in [1, 64]" in err


def test_survey_memory_budget_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RADIMICHAEL_MEMORY_BUDGET", "1000")
    code, _, err = run_cli(capsys, "survey", "--limit", "1000000")
    assert code == 3
    assert "budget" in err


# ---------------------------------------------------------------------------
# construct / theorem2
# ---------------------------------------------------------------------------

def test_construct_emits_15(capsys):
    code, out, err = run_cli(capsys, "construct", "--a", "2", "--b", "0",
                             "--s", "4", "--m", "2", "--n-max", "20")
    assert code == 0
    certs = [certificate_from_line(line) for line in out.splitlines()]
    assert any(c.N == 15 for c in certs)
    assert all(verify_certificate(c) for c in certs)
    assert "certificates" in err


def test_construct_invalid_parameters(capsys):
    code, _, err = run_cli(capsys, "construct", "--a", "2", "--b", "0",
                           "--s", "3", "--m", "6", "--n-max", "10")
    assert code == 2 and "error" in err


def test_construct_zero_hits_is_success(capsys):
    code, out, err = run_cli(capsys, "construct", "--a", "2", "--b", "0",
                             "--s", "2", "--m", "2",
                             "--n-min", "31", "--n-max", "31")
    assert code == 0
    assert out == ""
    assert "no certificates" in err


def test_theorem2_emits_4369(capsys):
    code, out, _ = run_cli(capsys, "theorem2", "--a", "2", "--k", "3",
                           "--s", "10", "--n-max", "100")
    assert code == 0
    certs = [certificate_from_line(line) for line in out.splitlines()]
    assert any(c.N == 4369 for c in certs)
    assert all(c.lehmer_index == 3 and len(c.primes) == 2 for c in certs)


def test_theorem2_rejects_k2(capsys):
    code, _, err = run_cli(capsys, "theorem2", "--a", "2", "--k", "2",
                           "--s", "10", "--n-max", "100")
    assert code == 2 and "k >= 3" in err


def test_searches_refuse_components_above_cap(capsys):
    over = str(MAX_COMPONENT_BITS)  # 2^cap * 1 + 1 has cap + 1 bits
    code, _, err = run_cli(capsys, "theorem2", "--a", "2", "--k", "3",
                           "--s", over, "--n-max", "1")
    assert code == 2 and "exceeds" in err
    code, _, err = run_cli(capsys, "construct", "--a", "2", "--s", over,
                           "--m", "2", "--n-max", "1")
    assert code == 2 and "exceeds" in err


def test_searches_refuse_certificates_over_the_digit_limit(capsys):
    code, _, err = run_cli(capsys, "construct", "--a", "2", "--b", "2030",
                           "--s", "17", "--m", "7", "--n-max", "1")
    assert code == 2 and "4,300 decimal digit" in err


def test_theorem2_refuses_selections_that_need_exponent_zero(capsys):
    code, out, err = run_cli(capsys, "theorem2", "--a", "2", "--k", "18",
                             "--s", "16", "--b", "0", "--n-max", "10")
    assert code == 2 and out == "" and "exceeds" in err


def test_streams_are_deterministic(capsys):
    args = ("theorem2", "--a", "2", "--k", "3", "--s", "8", "--n-max", "40")
    first = run_cli(capsys, *args)
    second = run_cli(capsys, *args)
    parallel = run_cli(capsys, *args, "--workers", "3")
    assert first == second == parallel


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _write_certs(capsys, tmp_path, name="certs.jsonl"):
    path = tmp_path / name
    code, _, _ = run_cli(capsys, "construct", "--a", "2", "--b", "0", "--s", "8",
                         "--m", "2", "--n-max", "30", "--output", str(path))
    assert code == 0
    return path


def test_verify_round_trip(tmp_path, capsys):
    path = _write_certs(capsys, tmp_path)
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    assert "records passed" in out


def test_verify_accepts_theorem2_output(tmp_path, capsys):
    path = tmp_path / "t2.jsonl"
    code, _, _ = run_cli(capsys, "theorem2", "--a", "3", "--k", "3", "--s", "8",
                         "--n-max", "40", "--output", str(path))
    assert code == 0
    assert path.read_text().strip()
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0 and "records passed" in out


def test_verify_tampered_file(tmp_path, capsys):
    path = _write_certs(capsys, tmp_path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[0])
    record["N"] += 2
    lines[0] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert "record 1: FAIL" in out


def test_verify_refuses_records_above_component_cap(tmp_path, capsys):
    path = _write_certs(capsys, tmp_path)
    cert = certificate_from_line(path.read_text().splitlines()[0])

    def record(l2):
        # 2^l2 * n + 1 is divisible by 3 for n = 1 and odd l2: cheap to reject
        primes = (3, 2**l2 + 1)
        return certificate_to_line(replace(
            cert, n=1, exponents=(1, l2), primes=primes, N=prod(primes)))

    at_cap = record(MAX_COMPONENT_BITS - 1)
    path.write_text(at_cap + "\n")
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 1 and "record 1: FAIL" in out

    path.write_text(at_cap + "\n" + record(MAX_COMPONENT_BITS + 1) + "\n")
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 3
    assert "record 2" in err and str(MAX_COMPONENT_BITS) in err
    assert "FAIL" not in out  # refused before any record is verified


def test_verify_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0 and "0 records" in out


def test_verify_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text("this is not a certificate\n")
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 2 and "error" in err


def test_verify_missing_file(capsys):
    code, _, err = run_cli(capsys, "verify", "/nonexistent/certs.jsonl")
    assert code == 2
