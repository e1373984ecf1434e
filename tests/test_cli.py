import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cqtcheck import cli

RUN = [sys.executable, "-m", "cqtcheck.cli"]
ROOT = Path(__file__).resolve().parents[1]


def run_cli(args, **kw):
    return subprocess.run(RUN + args, capture_output=True, text=True, **kw)


def test_classify_slq2_prints_count():
    out = run_cli(["check", "builtin:slq2", "--suite", "classify"])
    assert out.returncode == 0
    assert "CQT candidates: 4" in out.stdout


def test_classify_slq2_at_one():
    out = run_cli(["check", "builtin:slq2", "--suite", "classify",
                   "--eval", "t=1"])
    assert out.returncode == 0
    assert "CQT candidates: 2" in out.stdout
    assert "CT candidates: 2" in out.stdout


def test_classify_subcommand():
    out = run_cli(["classify", "builtin:slq2", "--eval", "t=i"])
    assert out.returncode == 0
    assert "CQT candidates: 2" in out.stdout
    assert "CT candidates: 0" in out.stdout


def test_malformed_file_exits_2(tmp_path):
    bad = tmp_path / "bad.qg"
    bad.write_text("gen w : 2\nmat E : [] -> [w w] { 9,1 = }\n")
    out = run_cli(["check", str(bad), "--suite", "validate"])
    assert out.returncode == 2
    assert out.stderr.strip()


def test_parse_error_position_reported(tmp_path):
    bad = tmp_path / "bad.qg"
    bad.write_text("gen w : 2\nrel missing\n")
    out = run_cli(["check", str(bad), "--suite", "validate"])
    assert out.returncode == 2
    assert "2:" in out.stderr


def test_check_failure_exits_1():
    # the generic family is not cotriangular
    out = run_cli(["check", "builtin:slq2", "--suite", "ct"])
    assert out.returncode == 1
    assert "FAIL" in out.stdout


def test_document_check(tmp_path):
    from cqtcheck.catalog import slq2_text
    f = tmp_path / "doc.qg"
    f.write_text(slq2_text())
    out = run_cli(["check", str(f), "--suite", "validate", "--suite", "cqt"])
    assert out.returncode == 0, out.stdout + out.stderr


def test_json_report_is_byte_stable(tmp_path):
    paths = []
    for k in (0, 1):
        p = tmp_path / f"report{k}.json"
        out = run_cli(["check", "builtin:slq2", "--suite", "classify",
                       "--json", str(p)])
        assert out.returncode == 0
        paths.append(p.read_bytes())
    assert paths[0] == paths[1]
    payload = json.loads(paths[0])
    assert payload["datum"] == "builtin:slq2"
    assert all(set(r) >= {"check_id", "status", "suite", "datum"}
               for r in payload["reports"])


def test_json_witness_round_trips(tmp_path):
    p = tmp_path / "report.json"
    out = run_cli(["check", "builtin:slq2", "--suite", "ct",
                   "--json", str(p)])
    assert out.returncode == 1
    payload = json.loads(p.read_text())
    failing = [r for r in payload["reports"] if r["status"] == "fail"]
    assert failing
    for r in failing:
        assert r["witness"] is not None
        assert isinstance(r["witness"]["value"], str)
        # witnesses are exact strings, never floats
        assert "." not in r["witness"]["value"]


def test_unknown_builtin_exits_2():
    out = run_cli(["check", "builtin:nope"])
    assert out.returncode == 2
    assert "unknown builtin" in out.stderr


def test_mor_command():
    out = run_cli(["mor", "builtin:slq2", "w w", "w w", "--depth", "2"])
    assert out.returncode == 0
    assert "witnessed dimension 2" in out.stdout


def test_show_command():
    out = run_cli(["show", "builtin:slq2", "E"])
    assert out.returncode == 0
    assert "-t^2" in out.stdout
    listing = run_cli(["show", "builtin:slq2"])
    assert "L1" in listing.stdout


def test_show_rejects_json(tmp_path):
    # show prints matrices and writes no report, so --json is not an option
    path = tmp_path / "show.json"
    out = run_cli(["show", "builtin:slq2", "E", "--json", str(path)])
    assert out.returncode == 2
    assert out.stdout == ""
    assert "unrecognized arguments: --json" in out.stderr
    assert not path.exists()


def test_eval_requires_constant():
    out = run_cli(["check", "builtin:slq2", "--eval", "t=t+1"])
    assert out.returncode == 2


def test_lorentz_user_file(tmp_path):
    f = tmp_path / "lor.qg"
    f.write_text(
        "gen w : 2 conj wb\ngen wb : 2 conj w\n"
        "mat X : [w wb] -> [wb w] { 1,1 = 1 ; 2,3 = 1 ; 3,2 = 1 ; 4,4 = 1 }\n"
        "param beta = 1\n")
    out = run_cli(["check", f"builtin:lorentz-user({f})", "--suite",
                   "validate", "--eval", "t=1"])
    assert out.returncode == 0, out.stdout + out.stderr


def test_dispatch_in_process(capsys):
    # the python API mirrors the subprocess behavior
    rc = cli.main(["check", "builtin:slq2", "--suite", "classify"])
    assert rc == 0
    printed = capsys.readouterr().out
    # emit_report prints to an explicit stream, and to stdout by default
    code, rows, summary = cli.dispatch(cli.RunConfig(
        "builtin:slq2", suites=("classify",)))
    stream = io.StringIO()
    assert cli.emit_report(rows, "builtin:slq2", summary, stream=stream) == 0
    assert capsys.readouterr().out == ""
    assert stream.getvalue() == printed


def test_missing_document_exits_2(tmp_path):
    missing = tmp_path / "nonexistent.qg"
    out = run_cli(["check", str(missing)])
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert out.stderr.strip().splitlines() == [
        f"error: No such file or directory: {missing}"]


def test_lorentz_user_missing_file_exits_2(tmp_path):
    missing = tmp_path / "nonexistent.qg"
    out = run_cli(["check", f"builtin:lorentz-user({missing})"])
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert out.stderr.strip().splitlines() == [
        f"error: No such file or directory: {missing}"]


@pytest.mark.parametrize("argv", [
    ["check", "builtin:slq2", "--suite", "cqt", "--depth", "-1"],
    ["classify", "builtin:slq2", "--depth", "-1"],
    ["mor", "builtin:slq2", "w w", "w w", "--depth", "-2"],
    ["check", "builtin:poincare-twisted", "--suite", "uea", "--max-len", "0"],
    ["check", "builtin:poincare-twisted", "--suite", "uea", "--max-len", "-3"],
], ids=["check-depth", "classify-depth", "mor-depth", "max-len-0",
        "max-len-negative"])
def test_work_bounds_below_range_exit_2_before_any_check(argv):
    out = run_cli(argv)
    assert out.returncode == 2
    assert out.stdout == ""
    flag = "--depth" if "--depth" in argv else "--max-len"
    assert out.stderr.startswith(f"error: ForbiddenParameter: {flag} ")


def test_with_n_of_wrong_shape_exits_2():
    out = run_cli(["check", "builtin:poincare-twisted", "--suite", "uea",
                   "--with-n", "R"])
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error: ForbiddenParameter: a row invariant "
                                 "needs legs (4, 4) x ()")


def test_mor_unknown_generator_exits_2():
    out = run_cli(["mor", "builtin:slq2", "x", "w"])
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error: UnknownGenerator: 'x' in a Mor word")


def test_unsupported_suite_exits_2(tmp_path):
    out = run_cli(["check", "builtin:slq2", "--suite", "uea"])
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.strip().endswith(
        "supported: validate, cqt, star, ct, classify")
    from cqtcheck.catalog import slq2_text
    doc = tmp_path / "doc.qg"
    doc.write_text(slq2_text())
    out = run_cli(["check", str(doc), "--suite", "poincare"])
    assert out.returncode == 2
    assert "--suite poincare does not apply" in out.stderr


def test_classify_runs_only_supported_suites(tmp_path):
    from cqtcheck.catalog import slq2_text
    doc = tmp_path / "doc.qg"
    doc.write_text(slq2_text())
    out = run_cli(["classify", str(doc)])
    assert out.returncode == 0
    assert "CQT candidates: 1" in out.stdout
    assert "poincare" not in out.stdout
    assert out.stdout.endswith("5/5 checks passed\n")


def test_with_n_shape_is_checked_before_any_suite(monkeypatch, capsys):
    from cqtcheck import inhomogeneous

    def reached(*args, **kw):
        raise AssertionError("a suite ran before the --with-n shape check")

    monkeypatch.setattr(inhomogeneous, "check_structure", reached)
    assert cli.main(["check", "builtin:poincare-twisted", "--with-n", "R"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ForbiddenParameter: a row invariant ")


@pytest.mark.parametrize("where", ["mat", "eval"])
def test_oversized_integer_literal_is_a_parse_error(tmp_path, where):
    digits = "9" * 5000
    if where == "mat":
        doc = tmp_path / "big.qg"
        doc.write_text(f"gen w : 1\nmat A : [w] -> [w] {{ 1,1 = {digits} }}\n")
        out = run_cli(["check", str(doc)])
        position = "2:28"
    else:
        out = run_cli(["check", "builtin:slq2", "--eval", f"t={digits}"])
        position = "1:1"
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.strip().splitlines() == [
        f"parse error: {position}: integer literal of 5000 digits is too long"]


@pytest.mark.parametrize("args", [
    ["builtin:slq2", "--with-n", "E"],
    ["builtin:poincare-twisted", "--suite", "poincare", "--with-n", "R"],
], ids=["slq2", "poincare-suite"])
def test_with_n_without_uea_suite_exits_2(args):
    out = run_cli(["check", *args])
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.strip().splitlines() == [
        f"error: ForbiddenParameter: --with-n is read only by the uea suite, "
        f"which this run of {args[0]} does not include"]


@pytest.mark.parametrize("entry", ["9" * 3000 + "^2", "i/" + "9" * 3000 + "^2"],
                         ids=["integer", "denominator"])
def test_number_too_long_to_print_exits_2(tmp_path, entry):
    doc = tmp_path / "big.qg"
    doc.write_text(f"gen w : 1\nmat A : [w] -> [w] {{ 1,1 = {entry} }}\n")
    out = run_cli(["show", str(doc), "A"])
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.strip().splitlines() == [
        f"error: NumberTooLong: an integer of more than "
        f"{sys.get_int_max_str_digits()} digits is too long to print"]


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("args,rc", [
    (["show", "builtin:lorentz-flip", "X"], 0),
    (["check", "tests/data/flip-outside-span.qg", "--json", "{json}"], 1),
], ids=["show", "check-fails"])
def test_closed_stdout_ends_quietly_with_the_command_status(tmp_path, args, rc,
                                                            unbuffered):
    # the read end is closed before the command starts, so every write to
    # its stdout meets a broken pipe, in print or in the flush at exit
    report = tmp_path / "report.json"
    args = [a.format(json=report) for a in args]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run(
            RUN + args, stdout=write_end, stderr=subprocess.PIPE, text=True,
            cwd=ROOT, env={**os.environ, "PYTHONUNBUFFERED": unbuffered})
    finally:
        os.close(write_end)
    assert (out.returncode, out.stderr) == (rc, "")
    if "--json" in args:
        golden = ROOT / "tests" / "golden" / "doc-outside-span-d3.json"
        assert report.read_bytes() == golden.read_bytes()
