import ast
import io
import sys
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


def test_selector_not_admissible(tmp_path, capsys):
    two_free = tmp_path / "two.cplx"
    two_free.write_text("ambient 3\npoint a 1 0\npoint b 1 1\n")
    code, _, err = run(capsys, "selector", str(two_free), "--coeff", "q")
    assert code == 1
    assert "admissible" in err


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
