"""CLI behavior: commands, exit codes, output determinism."""

import gc
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
from radimichael import construct
from radimichael.cli import main
from radimichael.construct import (
    MAX_CERTIFICATE_BITS,
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
    # multiprocessing is imported where a fork happens, and nothing imports
    # logging; the benchmark tracer finds every submodule in sys.modules
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


def test_cli_import_starts_no_blas_thread_and_keeps_a_set_thread_count():
    # numpy's OpenBLAS would start an idle thread per CPU; the survey module
    # limits it to one before numpy loads, unless the variable is already set
    if not Path("/proc/self/status").exists():
        pytest.skip("needs Linux's /proc/self/status")
    code = textwrap.dedent("""
        import os
        import radimichael.cli
        with open("/proc/self/status") as status:
            threads = next(line.split()[1] for line in status
                           if line.startswith("Threads:"))
        print(os.environ["OPENBLAS_NUM_THREADS"], threads)
    """)
    src = str(Path(radimichael.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}

    def variable_and_threads(**preset):
        return subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True, timeout=120,
                              env={**env, **preset, "PYTHONPATH": src}).stdout.split()

    assert variable_and_threads() == ["1", "1"]
    assert variable_and_threads(OPENBLAS_NUM_THREADS="2")[0] == "2"


def test_cli_import_restores_the_collector_and_freezes_nothing():
    # the collector pauses while numpy and the submodules load, then is put
    # back as it was found; only the process entry freezes, and objects a
    # caller froze before the import stay frozen
    code = textwrap.dedent("""
        import gc, json, sys
        if sys.argv[1] == "disabled":
            gc.disable()
        if sys.argv[1] == "frozen":
            gc.freeze()
        frozen = gc.get_freeze_count()
        import radimichael.cli
        print(json.dumps([gc.isenabled(), gc.get_freeze_count() - frozen,
                          frozen > 0]))
    """)
    src = str(Path(radimichael.__file__).resolve().parents[1])

    def state_after_import(start):
        return json.loads(subprocess.run(
            [sys.executable, "-c", code, start], capture_output=True, text=True,
            check=True, timeout=120, env={**os.environ, "PYTHONPATH": src}).stdout)

    assert state_after_import("enabled") == [True, 0, False]
    assert state_after_import("disabled") == [False, 0, False]
    assert state_after_import("frozen") == [True, 0, True]


def test_in_process_main_leaves_the_freeze_count_alone(capsys):
    before = gc.get_freeze_count()
    code, out, _ = run_cli(capsys, "classify", "561")
    assert code == 0 and "carmichael=true" in out
    assert gc.get_freeze_count() == before


def test_the_process_entry_runs_its_command_on_a_frozen_heap():
    # run as __main__, as `python -m radimichael.cli` does; the command sees
    # the freeze count through the classify function it calls
    code = textwrap.dedent("""
        import gc, runpy, sys
        import radimichael.classify as classify_module
        inner = classify_module.classify

        def classify(n):
            print("freeze count", gc.get_freeze_count())
            return inner(n)

        classify_module.classify = classify
        sys.argv = ["radimichael", "classify", "561"]
        runpy.run_module("radimichael.cli", run_name="__main__", alter_sys=True)
    """)
    src = str(Path(radimichael.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    counted, result = proc.stdout.splitlines()
    assert int(counted.removeprefix("freeze count ")) > 0
    assert result.startswith("561: composite") and "carmichael=true" in result


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
    # the command has no range check of its own: classify() and factorize
    # refuse these
    for n in ("0", "-5", str(2**64), str(2**70)):
        code, out, err = run_cli(capsys, "classify", n)
        assert (code, out) == (2, ""), n
        assert err.startswith("error: ") and "Traceback" not in err, n
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
    monkeypatch.setattr(cli.construct, "stream_radimichael", never)
    monkeypatch.setattr(cli.construct, "stream_theorem2", never)
    assert cli._workers(str(MAX_WORKERS)) == MAX_WORKERS
    commands = (["survey", "--limit", "100"],
                ["construct", "--a", "2", "--s", "4", "--m", "2", "--n-max", "10"],
                ["theorem2", "--a", "2", "--k", "3", "--s", "4", "--n-max", "10"])
    for argv in commands:
        for workers in (str(MAX_WORKERS + 1), "100000", "0", "abc"):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--workers", workers])
            captured = capsys.readouterr()
            assert exc.value.code == 2 and captured.out == ""
            # argparse names the option; the bound's wording is check_workers'
            assert "argument --workers: " in captured.err
            assert "_workers" not in captured.err
            if workers != "abc":
                assert f"workers must lie in [1, {MAX_WORKERS}]" in captured.err


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


@pytest.mark.parametrize("budget", ["2GB", "-5", "1e9", " "])
def test_survey_refuses_a_memory_budget_that_is_no_byte_count(capsys, monkeypatch, budget):
    # a bad value is a bad parameter (exit 2), not a survey too big (exit 3)
    monkeypatch.setenv("RADIMICHAEL_MEMORY_BUDGET", budget)
    code, out, err = run_cli(capsys, "survey", "--limit", "1000000")
    assert code == 2 and out == ""
    assert err == ("error: RADIMICHAEL_MEMORY_BUDGET must be a non-negative "
                   f"integer byte count, got {budget!r}\n")


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


@pytest.mark.parametrize("n_min, n_max", [(0, 5), (6, 5), (1, 2**64)])
def test_theorem2_states_the_n_range_rule(capsys, n_min, n_max):
    # construct and theorem2 share TupleSpec's one rule, 1 <= n_min <= n_max
    # < 2**64; [0, 5] is not empty: the message names the rule that refuses it
    expected = ("error: need a < 2**64 and n_max < 2**64\n" if n_max >= 2**64 else
                f"error: need 1 <= n_min <= n_max, got {n_min}, {n_max}\n")
    for command in (["construct", "--m", "2"], ["theorem2", "--k", "3"]):
        code, out, err = run_cli(capsys, *command, "--a", "2", "--s", "4",
                                 "--n-min", str(n_min), "--n-max", str(n_max))
        assert (code, out, err) == (2, "", expected), command


def test_theorem2_refuses_n_max_from_2_64_without_a_traceback():
    # a range of 2**63 or more values has no len(); the process itself must
    # end in exit 2 with TupleSpec's message, not in a traceback
    src = str(Path(radimichael.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "radimichael.cli", "theorem2", "--a", "2", "--k", "3",
         "--s", "4", "--n-max", str(2**64)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: need a < 2**64 and n_max < 2**64\n"


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


def test_theorem2_stderr_is_the_summary_line_only(capsys):
    # b = 12: every record holds the sufficient condition, and none adds a
    # line to stderr
    code, out, err = run_cli(capsys, "theorem2", "--a", "2", "--k", "3", "--s", "6",
                             "--b", "12", "--n-max", "400")
    assert code == 0 and len(out.splitlines()) == 143
    assert all(certificate_from_line(line).sufficient_condition_held
               for line in out.splitlines())
    assert err == "# theorem2: 143 certificates from n in [1, 400]\n"


def test_streams_are_deterministic(capsys):
    args = ("theorem2", "--a", "2", "--k", "3", "--s", "8", "--n-max", "40")
    first = run_cli(capsys, *args)
    second = run_cli(capsys, *args)
    parallel = run_cli(capsys, *args, "--workers", "3")
    assert first == second == parallel


THEOREM2_K4 = ["theorem2", "--a", "2", "--k", "4", "--s", "16",
               "--n-min", "1", "--n-max", "4000"]


def test_theorem2_streams_its_lines_in_n_order_for_any_worker_count(monkeypatch):
    scanned = 0
    scan_tuple = construct.scan_tuple

    def counted_scan(spec, n):
        nonlocal scanned
        scanned += 1
        return scan_tuple(spec, n)

    class FirstWriteRecorder(io.StringIO):
        scanned_at_first_write = None

        def write(self, text):
            if self.scanned_at_first_write is None:
                self.scanned_at_first_write = scanned
            return super().write(text)

    monkeypatch.setattr(construct, "scan_tuple", counted_scan)
    out = FirstWriteRecorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(THEOREM2_K4 + ["--workers", "1"]) == 0
    # the first line goes out before 5 % of the window's 4000 n are scanned
    assert 0 < out.scanned_at_first_write < 0.05 * 4000

    listed = io.StringIO()
    construct.write_certificates(construct.theorem2_search(2, 4, 16, range(1, 4001)),
                                 listed)
    assert out.getvalue() == listed.getvalue()
    for workers in ("2", "3"):
        out = io.StringIO()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(THEOREM2_K4 + ["--workers", workers]) == 0
        assert out.getvalue() == listed.getvalue()


def _cli_env():
    # stdout block-buffered, as it is by default when it is a pipe
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(radimichael.__file__).resolve().parents[1])
    return env


def test_a_closed_output_pipe_ends_in_exit_2():
    # `theorem2 ... | head -n 1` with three workers
    proc = subprocess.Popen(
        [sys.executable, "-m", "radimichael.cli", *THEOREM2_K4, "--workers", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env())
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.communicate(timeout=120)[1].decode()
    assert certificate_from_line(first.decode()).n == 3
    assert proc.returncode == 2 and err == "error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("argv", [
    ["construct", "--a", "2", "--b", "0", "--s", "8", "--m", "2", "--n-max", "30"],
    THEOREM2_K4 + ["--workers", "3"],
    ["classify", "85"],
], ids=["fits-the-buffer", "streams-past-it", "classify"])
def test_a_pipe_closed_before_any_output_ends_in_exit_2(argv):
    # Output smaller than stdout's buffer first reaches the pipe when main
    # flushes it; larger output fails mid-stream. Neither may leave bytes
    # for the flush at interpreter exit, which would exit 120.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "radimichael.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=_cli_env(), timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.decode() == "error: [Errno 32] Broken pipe\n"


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


def test_an_unproved_component_ends_a_search_in_exit_2_and_fails_verify(
        tmp_path, capsys, monkeypatch):
    # components 9 * 2^65 + 1 and up: proved prime from the primes 2 and 3
    # of p - 1, or, where no proof is found, no verdict at all
    path = tmp_path / "c.jsonl"
    argv = ("construct", "--a", "2", "--b", "64", "--s", "8", "--m", "2",
            "--n-min", "9", "--n-max", "9")
    code, _, err = run_cli(capsys, *argv, "--output", str(path))
    assert code == 0 and err == "# construct: 1 certificates from n in [9, 9]\n"
    [cert] = map(certificate_from_line, path.read_text().splitlines())
    assert cert.primes[0] == 9 * 2**65 + 1 and cert.probable_prime_flag
    real = construct.prime_verdict

    def unproved(n, pm1_primes=()):
        if n >= 2**64:
            raise ValueError("no verdict")
        return real(n, pm1_primes)

    monkeypatch.setattr(construct, "prime_verdict", unproved)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err == "error: no verdict\n"
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert out == f"record 1: FAIL (N={cert.N})\nverify: 0/1 records passed\n"


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


def test_verify_refuses_a_record_that_verify_certificate_fails_on_size(tmp_path, capsys):
    # the record test_verify_fails_an_over_cap_component_before_any_primality_test
    # fails in the library: 2,210- and 2,818-bit components, N under its cap
    cert = construct._certificate(2, 0, 3, (2208, 2816))
    path = tmp_path / "big.jsonl"
    path.write_text(certificate_to_line(cert) + "\n")
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 3 and out == ""
    assert err == "error: record 1: a 2818-bit component exceeds the 2048-bit cap\n"


def test_verify_refuses_records_above_the_certificate_cap(tmp_path, capsys):
    path = _write_certs(capsys, tmp_path)
    line = path.read_text().splitlines()[0]
    cert = certificate_from_line(line)
    # 2047 components 2^l + 1, each under the component cap, whose product
    # is far past the N cap: it fails without the product being built
    exponents = tuple(range(1, MAX_COMPONENT_BITS))
    path.write_text(certificate_to_line(replace(
        cert, n=1, exponents=exponents,
        primes=tuple(2**l + 1 for l in exponents), N=3)) + "\n")
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 1 and "record 1: FAIL" in out

    big_n = certificate_to_line(replace(cert, N=2**MAX_CERTIFICATE_BITS))
    path.write_text(line + "\n" + big_n + "\n")
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 3
    assert "record 2" in err and str(MAX_CERTIFICATE_BITS) in err
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


def test_verify_refuses_a_record_that_repeats_a_field(tmp_path, capsys):
    # json.loads alone keeps the last "a" and the record would pass
    path = _write_certs(capsys, tmp_path)
    line = path.read_text().splitlines()[0]
    path.write_text('{"a":2,' + line[1:] + "\n")
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert err == "error: line 1: certificate record repeats a field\n"


def test_verify_missing_file(capsys):
    code, _, err = run_cli(capsys, "verify", "/nonexistent/certs.jsonl")
    assert code == 2
