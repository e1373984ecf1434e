import argparse
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cqtcheck import cli

RUN = [sys.executable, "-m", "cqtcheck"]
ROOT = Path(__file__).resolve().parents[1]
SLQ2_DOC = ROOT / "src/cqtcheck/data/slq2.qg"


def run_cli(args, **kw):
    return subprocess.run(RUN + args, capture_output=True, text=True, **kw)


def test_classify_slq2_prints_count():
    out = run_cli(["check", "builtin:slq2", "--suite", "classify"])
    assert out.returncode == 0
    assert "CQT candidates: 4" in out.stdout


def test_the_package_runs_as_a_module():
    # a checkout that has not been installed
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    ok = subprocess.run([sys.executable, "-m", "cqtcheck", "check", "builtin:slq2"],
                        capture_output=True, text=True, env=env, cwd=ROOT)
    assert ok.returncode == 0, ok.stderr
    assert "CQT candidates: 4" in ok.stdout
    bad = subprocess.run([sys.executable, "-m", "cqtcheck", "check", "builtin:nope"],
                         capture_output=True, text=True, env=env, cwd=ROOT)
    assert bad.returncode == 2 and "Traceback" not in bad.stderr


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


def test_singular_block_fails_its_ct_row():
    # a well-formed document whose block has no inverse is not cotriangular:
    # a failing row and exit 1, not an error
    doc = ROOT / "tests" / "data" / "singular-cand.qg"
    out = run_cli(["check", str(doc), "--suite", "ct"])
    assert out.returncode == 1, out.stderr
    assert out.stderr == ""
    assert "FAIL  ct        cotriangular:w:w  singular block" in out.stdout


def test_document_check():
    out = run_cli(["check", str(SLQ2_DOC), "--suite", "validate", "--suite", "cqt"])
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


@pytest.mark.parametrize("argv", [
    ["check", "builtin:slq2", "--suite", "cqt", "--depth", "9"],
    ["classify", "builtin:slq2", "--depth", "9"],
    ["mor", "builtin:slq2", "w w", "w w", "--depth", "9"],
    # slq2 reads no --max-len, so a code without the budget ends at once
    ["check", "builtin:slq2", "--suite", "cqt", "--max-len", "4"],
], ids=["check-depth", "classify-depth", "mor-depth", "max-len"])
def test_work_bounds_over_budget_exit_2_before_any_check(argv):
    out = run_cli(argv)
    assert out.returncode == 2
    assert out.stdout == ""
    flag = "--depth" if "--depth" in argv else "--max-len"
    limit = cli.MAX_DEPTH if flag == "--depth" else cli.MAX_LEN
    assert out.stderr.startswith(f"error: ForbiddenParameter: {flag} ")
    assert out.stderr.rstrip().endswith(f"from {int(flag == '--max-len')} "
                                        f"to {limit}")


@pytest.mark.parametrize("text,pos,what", [
    ("gen w : 17\n", (1, 9), "generator dimension 17"),
    ("gen w : 2\ncand w w = flip(257,1)\n", (2, 17), "flip dimension 257"),
    ("gen w : 2\ncand w w = flip(2, 257)\n", (2, 20), "flip dimension 257"),
    # a dense view of this mat, as `show` prints, has 2^40 entries
    (f"gen w : 2\nmat A : [{'w ' * 40}] -> [] {{ 1,1 = 1 }}\n", (2, 9),
     f"mat word dimension {2 ** 40}"),
    (f"gen w : 2\nmat A : [] -> [{'w ' * 9}] {{ 1,1 = 1 }}\n", (2, 15),
     f"mat word dimension {2 ** 9}"),
    # just over the budget (16^2 * 16*17 nonzeros), cheap to form; the same
    # budget stops kron(flip(256,256), flip(256,256)), 2^32 nonzeros
    ("gen w : 2\ncand w w = kron(flip(16,16), flip(16,17))\n", (2, 12),
     "kron nonzero count 69632"),
    # a . b is bounded by its output, a's rows times b's columns: 258 x 258
    # here, just over and cheap to form; the same budget stops a 65,536 x 1
    # column composed with a 1 x 65,536 row, 2^32 entries
    ("gen w : 2\nmat c : [] -> [w] { 1,1 = 1 }\nmat r : [w] -> [] { 1,1 = 1 }\n"
     "cand w w = kron(flip(1,129), c) . kron(flip(1,129), r)\n", (4, 33),
     "composition entry count 66564"),
], ids=["gen", "flip-first", "flip-second", "mat-source", "mat-target",
        "kron", "compose"])
def test_allocating_integers_over_budget_exit_2_at_their_token(tmp_path, text,
                                                                 pos, what):
    doc = tmp_path / "big.qg"
    doc.write_text(text)
    out = run_cli(["check", str(doc)])
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith(f"parse error: {pos[0]}:{pos[1]}: {what} is "
                                 "over the limit of ")


@pytest.mark.parametrize("argv", [
    # a missing document: the budget is checked before any input is read
    ["mor", "no-such-document.qg", "w w w w", "w"],
    ["mor", "builtin:slq2", "w w w", "w w w w", "--depth", "1"],
], ids=["source", "target"])
def test_mor_word_over_budget_exit_2_before_any_input_is_read(argv):
    out = run_cli(argv)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith(
        "error: ForbiddenParameter: mor word 'w w w w': a word must have "
        f"from 0 to {cli.MAX_MOR_WORD} letters")


def test_with_n_is_no_longer_an_option():
    # the uea suite takes its row invariant from the datum alone
    out = run_cli(["check", "builtin:poincare-twisted", "--with-n", "T"])
    assert out.returncode == 2
    assert out.stdout == ""
    assert "unrecognized arguments: --with-n T" in out.stderr
    assert "Traceback" not in out.stderr


def test_mor_unknown_generator_exits_2():
    out = run_cli(["mor", "builtin:slq2", "x", "w"])
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error: UnknownGenerator: 'x' in a Mor word")


def test_unsupported_suite_exits_2():
    out = run_cli(["check", "builtin:slq2", "--suite", "uea"])
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.strip().endswith(
        "supported: validate, cqt, star, ct, classify")
    out = run_cli(["check", str(SLQ2_DOC), "--suite", "poincare"])
    assert out.returncode == 2
    assert "--suite poincare does not apply" in out.stderr


def test_classify_runs_only_supported_suites():
    out = run_cli(["classify", str(SLQ2_DOC)])
    assert out.returncode == 0
    assert "CQT candidates: 1" in out.stdout
    assert "poincare" not in out.stdout
    assert out.stdout.endswith("5/5 checks passed\n")


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


@pytest.mark.parametrize("expr,shown", [("q", "t^2"), ("t=1+t", "t+1")])
def test_nonconstant_eval_is_a_parse_error_without_a_position(capsys, expr,
                                                              shown):
    assert cli.main(["check", "builtin:slq2", "--eval", expr]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.strip().splitlines() == [
        f"parse error: --eval needs a constant, got {shown}"]


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


def test_the_readme_names_every_option_and_only_those(monkeypatch):
    parsers = []

    def grab(self, *args, **kw):  # the parser main builds, before it parses
        parsers.append(self)
        raise SystemExit(0)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", grab)
    with pytest.raises(SystemExit):
        cli.main(["check", "builtin:slq2"])
    commands = next(a for a in parsers[0]._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    options = {opt for p in commands.values() for action in p._actions
               for opt in action.option_strings} - {"-h", "--help"}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    documented = set(re.findall(r"--[a-z][a-z-]*", readme))
    assert documented - {"--no-build-isolation"} == options
