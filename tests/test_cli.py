import ast
import contextlib
import io
import os
import re
import signal
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from morseminmax import barannikov, cli, selector
from morseminmax.cli import main
from morseminmax.complexes import negate, parse_complex, serialize
from morseminmax.errors import InternalInconsistencyError
from morseminmax.gen import paper_fixture, random_admissible_complex

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
LAUDENBACH = str(DATA_DIR / "laudenbach.cplx")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", LAUDENBACH)
    assert code == 0
    assert "ok yes" in out
    assert "admissible yes" in out


def test_validate_failure(tmp_path, capsys):
    bad = tmp_path / "bad.cplx"
    bad.write_text("ambient 3\npoint a 0 0\npoint b 1 1\npoint t 2 2\n"
                   "boundary b : 1*a\nboundary t : 1*b\n")
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert "dd_nonzero" in out


def test_validate_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.cplx"
    bad.write_text("point a 1 0\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert "ambient" in err


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/path.cplx")
    assert code == 3
    assert "cannot read" in err


def test_selector_table_matches_expected(capsys):
    code, out, _ = run(capsys, "selector", LAUDENBACH, "--coeff", "z,q,f2,f3")
    assert code == 0
    assert "z      3 @ xi3_n        2 @ xi2_n        no" in out
    assert "f2     3 @ xi3_n        3 @ xi3_n        yes" in out
    assert "int_equal=false chain_ok=true propagation_ok=true" in out


def test_selector_machine_format(capsys):
    code, out, _ = run(capsys, "selector", LAUDENBACH, "--coeff", "z,f2", "--machine")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("selector coeff=z minmax=3 minmax_witness=xi3_n "
                        "maxmin=2 maxmin_witness=xi2_n equal=false")
    assert lines[1] == ("selector coeff=f2 minmax=3 minmax_witness=xi3_n "
                        "maxmin=3 maxmin_witness=xi3_n equal=true")
    assert lines[2] == "flags int_equal=false chain_ok=true propagation_ok=true"


def test_selector_determinism(capsys):
    first = run(capsys, "selector", LAUDENBACH, "--coeff", "z,q,f2", "--machine")
    second = run(capsys, "selector", LAUDENBACH, "--coeff", "z,q,f2", "--machine")
    assert first == second


def test_selector_bad_token(capsys):
    code, _, err = run(capsys, "selector", LAUDENBACH, "--coeff", "f4")
    assert code == 3
    assert "prime" in err
    code, out, err = run(capsys, "selector", LAUDENBACH, "--coeff",
                         "f318665857834031151167461")
    assert (code, out) == (3, "")
    assert "prime" in err
    code, out, err = run(capsys, "selector", LAUDENBACH, "--coeff", "f\u00b2")
    assert (code, out) == (3, "")
    assert "unknown coefficient token" in err


def test_selector_prints_each_coefficient_system_once(capsys):
    code, out, _ = run(capsys, "selector", LAUDENBACH, "--coeff", "z,q,z", "--machine")
    assert code == 0
    assert [line.split()[1] for line in out.splitlines()[:-1]] == ["coeff=z", "coeff=q"]


def test_selector_refuses_an_empty_coefficient_list(capsys):
    assert run(capsys, "selector", LAUDENBACH, "--coeff", ",") == (
        3, "", "error: no coefficient systems given\n")


def test_selector_not_admissible(tmp_path, capsys):
    two_free = tmp_path / "two.cplx"
    two_free.write_text("ambient 3\npoint a 1 0\npoint b 1 1\n")
    code, _, err = run(capsys, "selector", str(two_free), "--coeff", "q")
    assert code == 1
    assert "admissible" in err


@pytest.mark.parametrize("argv", [
    ["reduce", "--coeff", "z"],
    ["selector", "--coeff", "q"],
    ["negate"],
    ["restrict", "--window", "0:2"],
    ["oracle", "--coeff", "f2"],
], ids=lambda argv: argv[0])
def test_commands_refuse_an_invalid_complex(tmp_path, capsys, argv):
    tied = tmp_path / "tied.cplx"
    tied.write_text("ambient 1\npoint a 0 0\npoint b 0 0\n")
    assert run(capsys, argv[0], str(tied), *argv[1:]) == (1, (
        "violation code=duplicate_value detail=a and b share value 0\n"
        "admissibility code=not_evaluated detail=admissibility skipped: complex invalid\n"), "")


class _ReducedOverZ(Exception):
    pass


def test_only_the_commands_that_read_it_reduce_over_z(monkeypatch, capsys):
    # negate, restrict and oracle check structure only; validate, reduce and
    # selector read the integer reduction
    def refuse(c):
        raise _ReducedOverZ

    monkeypatch.setattr(barannikov, "_integer_outcome", refuse)
    paths = sorted(DATA_DIR.glob("*.cplx"))
    assert len(paths) == 4
    for path in map(str, paths):
        parse_complex(Path(path).read_text())
        for argv in (["negate"], ["restrict", "--window", "1/2:7/2"],
                     ["oracle", "--coeff", "z"], ["oracle", "--coeff", "q"],
                     ["oracle", "--coeff", "f2"]):
            code, out, _ = run(capsys, argv[0], path, *argv[1:])
            assert (code, bool(out)) == (0, True), (path, argv)
        for argv in (["validate"], ["reduce", "--coeff", "z"], ["reduce", "--coeff", "q"],
                     ["reduce", "--coeff", "f2"], ["selector", "--coeff", "q"]):
            with pytest.raises(_ReducedOverZ):
                main([argv[0], path, *argv[1:]])


def test_reduce_field(capsys):
    code, out, _ = run(capsys, "reduce", LAUDENBACH, "--coeff", "f2")
    assert code == 0
    assert "pair upper=xi1_np1 lower=xi2_n" in out
    assert "free xi3_n" in out


def test_reduce_integer_obstructed(capsys):
    code, out, _ = run(capsys, "reduce", LAUDENBACH, "--coeff", "z")
    assert code == 0
    assert "obstructed column=xi1_np1 pivot=-2" in out


def test_reduce_integer_certified(capsys):
    f0 = str(DATA_DIR / "f0.cplx")
    code, out, _ = run(capsys, "reduce", f0, "--coeff", "z")
    assert code == 0
    assert out.startswith("certified")
    assert "free xi2_n" in out


def test_negate_round_trip(capsys):
    code, out, _ = run(capsys, "negate", LAUDENBACH)
    assert code == 0
    neg = parse_complex(out)
    assert neg.point("xi3_n").value == -3


def test_negate_stdin(capsys, monkeypatch):
    text = (DATA_DIR / "laudenbach.cplx").read_text()
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, _ = run(capsys, "negate", "-")
    assert code == 0
    assert parse_complex(out).point("xi1_np1").degree == 1


def test_restrict_window(capsys):
    code, out, _ = run(capsys, "restrict", LAUDENBACH, "--window", "1/2:7/2")
    assert code == 0
    mid = parse_complex(out)
    assert mid.n_points == 3


def test_restrict_endpoint_critical(capsys):
    code, _, err = run(capsys, "restrict", LAUDENBACH, "--window", "0:2")
    assert code == 1
    assert "critical" in err


def test_restrict_bad_window(capsys):
    code, _, err = run(capsys, "restrict", LAUDENBACH, "--window", "oops")
    assert code == 3


def test_window_and_single_values_use_the_file_grammar(capsys):
    code, out, err = run(capsys, "restrict", LAUDENBACH, "--window=1/2:1e1")
    assert (code, out) == (3, "")
    assert "bad window bounds" in err
    code, out, err = run(capsys, "fixture", "single:0:1e1:1")
    assert (code, out) == (3, "")
    assert "bad critical value '1e1'" in err


def test_restrict_negative_bound_equals_form(capsys):
    code, out, _ = run(capsys, "restrict", LAUDENBACH, "--window=-1/2:1/2")
    assert code == 0
    assert parse_complex(out).n_points == 1


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", LAUDENBACH, "--coeff", "q")
    assert code == 0
    assert "homology degree=2 rank=1 torsion=-" in out
    assert "scan minmax=2 witness=xi2_n" in out
    code, out, _ = run(capsys, "oracle", LAUDENBACH, "--coeff", "z")
    assert code == 0
    assert "homology degree=1 rank=0 torsion=-" in out


def test_fixture_command(capsys):
    code, out, _ = run(capsys, "fixture", "laudenbach")
    assert code == 0
    assert out == serialize(paper_fixture("laudenbach"))
    code, out, _ = run(capsys, "fixture", "single:2:7/2:4")
    assert code == 0
    assert "point xi 2 7/2" in out
    code, _, err = run(capsys, "fixture", "unknown")
    assert code == 3
    code, _, err = run(capsys, "fixture", "single:9:0:4")
    assert code == 3
    # degree and ambient are integers of the file grammar: ASCII digits, no '_' or '+'
    for name in ("single:\u0662:1:1_0", "single:2:1:1_0", "single:\u0662:1:4",
                 "single:0:1:+1"):
        code, out, err = run(capsys, "fixture", name)
        assert (code, out) == (3, "")
        assert "with integer DEGREE and AMBIENT" in err


def test_oracle_on_inadmissible_input(tmp_path, capsys):
    two_free = tmp_path / "two.cplx"
    two_free.write_text("ambient 3\npoint a 1 0\npoint b 1 1\n")
    code, out, _ = run(capsys, "oracle", str(two_free), "--coeff", "q")
    assert code == 0
    assert "homology degree=1 rank=2" in out
    assert "scan" not in out


def test_oracle_scan_follows_its_own_global_index(monkeypatch, capsys):
    real = cli.validate
    monkeypatch.setattr(cli, "validate", lambda c: replace(real(c), admissible=False))
    code, out, _ = run(capsys, "oracle", LAUDENBACH, "--coeff", "q")
    assert code == 0
    assert "scan minmax=2 witness=xi2_n" in out


def test_verify_paper(capsys):
    code, out, _ = run(capsys, "verify-paper")
    assert code == 0
    assert out.count("PASS") == 4
    assert "FAIL" not in out


def test_fuzz_small(capsys):
    code, out, _ = run(capsys, "fuzz", "--trials", "5", "--seed", "7",
                       "--max-points", "20")
    assert code == 0
    assert "failures=0" in out


def test_fuzz_reproducible(capsys):
    first = run(capsys, "fuzz", "--trials", "3", "--seed", "2", "--max-points", "16")
    second = run(capsys, "fuzz", "--trials", "3", "--seed", "2", "--max-points", "16")
    assert first == second


def test_fuzz_refuses_too_many_points(monkeypatch, capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("no trial may start")

    monkeypatch.setattr(cli, "random_admissible_complex", unreachable)
    for m in ("2", str(cli.ORACLE_POINTS_CAP + 1)):
        code, out, err = run(capsys, "fuzz", "--trials", "1", "--max-points", m)
        assert (code, out) == (3, "")
        assert f"3 <= --max-points <= {cli.ORACLE_POINTS_CAP}" in err


def test_oracle_refuses_inputs_above_the_cap(tmp_path, monkeypatch, capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("no rank may be taken")

    monkeypatch.setattr(cli, "validate", unreachable)
    monkeypatch.setattr(cli, "homology", unreachable)
    huge_ambient = tmp_path / "ambient.cplx"
    huge_ambient.write_text("ambient 1000000000000\npoint a 0 0\n")
    many_points = tmp_path / "points.cplx"
    many_points.write_text("ambient 2\n" + "".join(
        f"point p{i} 0 {i}\n" for i in range(cli.ORACLE_POINTS_CAP + 1)))
    for path, got in ((huge_ambient, "got 1 and 1000000000000"),
                      (many_points, f"got {cli.ORACLE_POINTS_CAP + 1} and 2")):
        code, out, err = run(capsys, "oracle", str(path), "--coeff", "f2")
        assert (code, out) == (1, "")
        assert err.startswith("error: oracle takes at most") and got in err


def test_reduce_checks_every_derived_prime_field_form(monkeypatch, capsys):
    # f0 is certified, so its F3 form is derived from its integer form; the
    # mod-3 check of that form still runs and can fail on its own
    real = barannikov._verify_normal_form

    def planted(c, form):
        if form.coeff.p == 3:
            raise InternalInconsistencyError("planted")
        real(c, form)

    monkeypatch.setattr(barannikov, "_verify_normal_form", planted)
    f0 = str(DATA_DIR / "f0.cplx")
    code, out, err = run(capsys, "reduce", f0, "--coeff", "f3")
    assert (code, out, err) == (2, "", "error: internal inconsistency: planted\n")
    code, out, _ = run(capsys, "reduce", f0, "--coeff", "q")
    assert code == 0
    assert "free xi2_n degree=2 value=2" in out


def test_usage_error_exit_code(capsys):
    assert main(["unknown-command"]) == 3
    assert main([]) == 3
    assert main(["reduce", LAUDENBACH]) == 3  # missing --coeff


@pytest.mark.parametrize("argv", [[name, "-h"] for name in cli._COMMANDS] + [
    ["reduce", LAUDENBACH], ["fuzz", "--trials", "x"], ["validate", LAUDENBACH, "extra"],
    [], ["bogus"], ["-h"]])
def test_one_command_parser_prints_what_the_full_parser_prints(argv, monkeypatch, capsys):
    with pytest.raises(SystemExit) as exc:
        cli._build_parser().parse_args(argv)
    want = exc.value.code, *capsys.readouterr()
    built = []
    full = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda: built.append(argv) or full())
    assert (main(argv), *capsys.readouterr()) == want
    # the full parser is built only for no command and for arguments left over
    assert bool(built) == (not argv or argv[0] not in cli._COMMANDS or "extra" in argv)


def test_non_utf8_input_is_a_parse_error(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.cplx"
    bad.write_bytes(b"ambient 2\npoint a 0 \xff\n")
    code, out, err = run(capsys, "validate", str(bad))
    assert (code, out) == (1, "")
    assert "not UTF-8" in err and "line 2, column 11" in err
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(bad.read_bytes())))
    code, _, err = run(capsys, "validate", "-")
    assert code == 1
    assert "not UTF-8" in err


def test_fuzz_battery_checks_the_negated_global_index(monkeypatch):
    c = random_admissible_complex(3, max_points=20)
    assert cli._battery(c, 3) == []
    neg = negate(c)
    real = cli.global_index
    monkeypatch.setattr(cli, "global_index", lambda d: real(d) + (d is neg))
    assert cli._battery(c, 3) == ["global index of the negation is not ambient minus lambda"]


def test_fuzz_reports_an_internal_inconsistency_with_its_seed(monkeypatch, capsys):
    bad = random_admissible_complex(1, max_points=12)
    real = selector._minmax_int_at

    def planted(c, lam):
        if c == bad:
            raise InternalInconsistencyError("planted")
        return real(c, lam)

    monkeypatch.setattr(selector, "_minmax_int_at", planted)
    code, out, _ = run(capsys, "fuzz", "--trials", "3", "--seed", "0", "--max-points", "12")
    assert code == 2
    assert [line for line in out.splitlines() if "FAIL" in line] == [
        "FAIL trial=1 seed=1: planted"]
    assert "failures=1" in out


def test_fuzz_sees_a_perturbed_copy_served_the_original_selection(monkeypatch, capsys):
    """The integer witness with its value kept in the shared store: the
    perturbed copy, which shares the store, selects the original's value, at
    distance 0 from it, so only the own-point check can see it."""
    real = selector._minmax_int_at

    def planted(c, lam):
        key = ("planted witness", lam)
        if key not in c._frame:
            c._frame[key] = real(c, lam)
        return c._frame[key]

    monkeypatch.setattr(selector, "_minmax_int_at", planted)
    code, out, _ = run(capsys, "fuzz", "--trials", "4", "--seed", "0", "--max-points", "20")
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert code == 2 and fails
    assert all("of the perturbed copy is not its own point" in line for line in fails)
    assert any("integer minmax of the perturbed copy" in line for line in fails)
    assert any("integer maxmin of the perturbed copy" in line for line in fails)
    assert f"failures={len(fails)}" in out


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def use_cpus(monkeypatch, n):
    """Make ``fuzz`` see n usable CPUs, so that it runs n workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


@needs_fork
def test_fuzz_output_is_the_same_on_any_number_of_workers(monkeypatch, capsys):
    bad = random_admissible_complex(1, max_points=12)  # trial 1
    real = selector._minmax_int_at

    def planted(c, lam):
        if c == bad:
            raise InternalInconsistencyError("planted")
        return real(c, lam)

    monkeypatch.setattr(selector, "_minmax_int_at", planted)
    runs = []
    for workers in (1, 2, 3):
        use_cpus(monkeypatch, workers)
        runs.append((run(capsys, "fuzz", "--trials", "7", "--seed", "0", "--max-points", "12"),
                     run(capsys, "fuzz", "--trials", "5", "--seed", "4", "--max-points", "16")))
    assert runs[0] == runs[1] == runs[2]
    planted_run, clean_run = runs[0]
    assert planted_run[0] == 2
    assert [line for line in planted_run[1].splitlines() if "FAIL" in line] == [
        "FAIL trial=1 seed=1: planted"]
    assert clean_run[0] == 0 and clean_run[1].endswith("failures=0\n")


@needs_fork
def test_fuzz_forks_in_a_single_threaded_process(monkeypatch, capsys):
    # Python 3.12+ warns when fork() meets other threads; -W error would not
    # show it, because os.fork clears the error the warning raises
    use_cpus(monkeypatch, 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, _ = run(capsys, "fuzz", "--trials", "2", "--seed", "0", "--max-points", "12")
    assert code == 0
    assert [str(w.message) for w in caught] == []


def open_fds():
    return set(os.listdir("/proc/self/fd"))


needs_proc_fd = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                                   reason="needs /proc/self/fd")


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in this process if the block runs longer than seconds,
    so that a deadlocked fuzz fails instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def wait_for(condition, seconds=20.0):
    """Poll until condition() holds; False if it does not within seconds."""
    deadline = time.monotonic() + seconds
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


@needs_fork
@needs_proc_fd
def test_a_dead_fuzz_worker_is_an_internal_inconsistency(monkeypatch, capfd, tmp_path):
    parent, died = os.getpid(), tmp_path / "died"
    real = cli._battery

    def dies_in_a_child(c, trial_seed):
        if os.getpid() != parent:
            died.touch()
            raise RuntimeError("unexpected")
        # the parent waits, so that the child is sure to take a trial
        assert wait_for(died.exists)
        return real(c, trial_seed)

    monkeypatch.setattr(cli, "_battery", dies_in_a_child)
    use_cpus(monkeypatch, 2)
    fds = open_fds()
    code = main(["fuzz", "--trials", "4", "--seed", "0", "--max-points", "12"])
    out, err = capfd.readouterr()  # the child's file descriptors included
    assert (code, out) == (2, "")
    # the child prints its traceback before it exits, and the parent then
    # reports it; the child's trial is whichever of 0 and 1 it took first
    assert re.fullmatch(r"Traceback \(most recent call last\):\n.*\nRuntimeError: unexpected\n"
                        r"error: internal inconsistency: "
                        r"worker 1 exited with code 1; trial [01] has no result\n", err, re.S)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert open_fds() == fds


@needs_fork
@needs_proc_fd
def test_a_fuzz_worker_exiting_nonzero_is_an_internal_inconsistency(monkeypatch, capsys):
    real_exit = os._exit
    monkeypatch.setattr(os, "_exit", lambda code: real_exit(3))  # only children exit
    use_cpus(monkeypatch, 2)
    fds = open_fds()
    code, out, err = run(capsys, "fuzz", "--trials", "3", "--seed", "0", "--max-points", "12")
    assert (code, out) == (2, "")
    assert err == "error: internal inconsistency: worker 1 exited with code 3\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert open_fds() == fds


@needs_fork
@needs_proc_fd
def test_an_interrupted_fuzz_leaves_no_child(monkeypatch, capsys):
    parent = os.getpid()

    def interrupted(args, i):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(30)  # each child holds one trial until it is killed
        return []

    monkeypatch.setattr(cli, "_trial", interrupted)
    use_cpus(monkeypatch, 3)
    fds, start = open_fds(), time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        main(["fuzz", "--trials", "9", "--seed", "0", "--max-points", "12"])
    assert time.monotonic() - start < 20  # the children were killed, not awaited
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert open_fds() == fds


@needs_fork
def test_fuzz_workers_take_trials_from_one_queue(monkeypatch, capsys, tmp_path):
    trials, counter = 6, tmp_path / "done"
    argv = ("fuzz", "--trials", str(trials), "--seed", "2", "--max-points", "12")
    use_cpus(monkeypatch, 1)
    serial = run(capsys, *argv)
    real = cli._trial

    def trial_zero_waits_for_the_rest(args, i):
        if i == 0:  # ends only once the other worker has run every other trial
            if not wait_for(lambda: counter.exists() and counter.stat().st_size == trials - 1):
                return ["trial 0 timed out"]
            return real(args, i)
        lines = real(args, i)
        with open(counter, "ab") as fh:
            fh.write(b".")
        return lines

    monkeypatch.setattr(cli, "_trial", trial_zero_waits_for_the_rest)
    use_cpus(monkeypatch, 2)
    with time_limit(60):
        assert run(capsys, *argv) == serial


@needs_fork
def test_fuzz_records_larger_than_a_pipe_neither_deadlock_nor_reorder(monkeypatch, capsys,
                                                                       tmp_path):
    parent = os.getpid()

    def verbose(c, trial_seed):
        if os.getpid() != parent:
            (started / str(os.getpid())).touch()
        # every worker waits until each child has taken a trial, so each child
        # writes at least one record of about 100 KB, more than a pipe holds
        assert wait_for(lambda: len(os.listdir(started)) == workers - 1)
        return [f"check {k} of {trial_seed} " + "x" * 60 for k in range(1500)]

    monkeypatch.setattr(cli, "_battery", verbose)
    runs = []
    for workers in (1, 2, 3):
        started = tmp_path / str(workers)
        started.mkdir()
        use_cpus(monkeypatch, workers)
        with time_limit(60):
            runs.append(run(capsys, "fuzz", "--trials", "4", "--seed", "0", "--max-points", "12"))
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][0] == 2 and len(runs[0][1]) > 4 * 100_000


@needs_fork
def test_chunked_fuzz_prints_every_trial_once_in_order(monkeypatch, capsys):
    # 5000 trials take two-byte tokens, more than fit in PIPE_BUF bytes (4096 on
    # Linux), so every worker takes chunks of several trials from the queue
    trials = 5000
    monkeypatch.setattr(cli, "_trial", lambda args, i: [f"FAIL trial={i}"])
    for workers in (1, 2, 3):
        use_cpus(monkeypatch, workers)
        with time_limit(60):
            code, out, _ = run(capsys, "fuzz", "--trials", str(trials), "--seed", "0")
        assert code == 2
        assert out.splitlines() == [f"FAIL trial={i}" for i in range(trials)] + [
            f"fuzz trials={trials} seed=0 max_points=40 failures={trials}"]


def test_fuzz_with_one_trial_forks_nothing(monkeypatch, capsys):
    def no_fork():
        raise AssertionError("fuzz forked")

    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    use_cpus(monkeypatch, 3)
    code, out, _ = run(capsys, "fuzz", "--trials", "1", "--seed", "5", "--max-points", "12")
    assert code == 0
    assert out == "fuzz trials=1 seed=5 max_points=12 failures=0\n"


def test_reduce_reports_an_internal_inconsistency(monkeypatch, capsys):
    def planted(c, form):
        raise InternalInconsistencyError("planted")

    monkeypatch.setattr(barannikov, "_verify_normal_form", planted)
    code, out, err = run(capsys, "reduce", LAUDENBACH, "--coeff", "q")
    assert (code, out, err) == (2, "", "error: internal inconsistency: planted\n")


@pytest.mark.parametrize("name, check", [
    ("selector_report", "selector-table"),
    ("capitanio_criterion", "criterion-refutation"),
])
def test_verify_paper_reports_an_internal_inconsistency(monkeypatch, capsys, name, check):
    def planted(*args):
        raise InternalInconsistencyError("planted")

    monkeypatch.setattr(cli, name, planted)
    code, out, _ = run(capsys, "verify-paper")
    assert code == 2
    assert out.count("PASS") == 3
    assert f"FAIL {check}: planted" in out
    assert "1 check(s) failed" in out


def stderr_writers(source: str) -> list[int]:
    """Line numbers of every ``.stderr`` access in ``source`` outside ``main``."""
    tree = ast.parse(source)
    in_main = {id(node) for fn in tree.body
               if isinstance(fn, ast.FunctionDef) and fn.name == "main"
               for node in ast.walk(fn)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "stderr"
            and id(node) not in in_main]


def test_only_main_writes_to_stderr():
    assert stderr_writers(Path(cli.__file__).read_text()) == []


def test_stderr_writers_sees_an_outside_write():
    source = Path(cli.__file__).read_text()
    assert stderr_writers(source + "\ndef _warn(msg):\n    print(msg, file=sys.stderr)\n")
