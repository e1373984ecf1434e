"""A plain run starts without the modules only some runs need.

`check builtin:slq2` in a fresh interpreter imports neither `dataclasses`
(with the `inspect` it pulls in) nor `json`, which only --json needs.  The
modules the interpreter loads at its own start-up do not count: a baseline
run under the same interpreter and flags prints them, and they are
subtracted.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import cqtcheck

SRC = str(Path(cqtcheck.__file__).resolve().parents[1])
UNWANTED = {"dataclasses", "inspect", "json"}


def _modules(code):
    """The sorted module names in sys.modules after running code."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; {code}; print(sorted(sys.modules))"],
        env=env, capture_output=True, text=True, check=True).stdout
    return set(ast.literal_eval(out.splitlines()[-1]))


def _check(*args):
    return _modules(f"from cqtcheck import cli; "
                    f"cli.main(['check', 'builtin:slq2', *{list(args)!r}])")


def test_a_plain_check_imports_no_dataclasses_or_json():
    added = _check() - _modules("pass")
    assert "cqtcheck.cli" in added
    assert not added & UNWANTED


def test_json_still_writes_the_report(tmp_path):
    path = tmp_path / "report.json"
    assert "json" in _check("--json", str(path))
    assert json.loads(path.read_text())["datum"] == "builtin:slq2"
