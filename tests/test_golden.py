"""Golden --json reports: refactors must leave them byte-identical.

The files in tests/golden were written by the dense-tensor implementation
that preceded the sparse store; each case reruns the CLI and compares the
report byte for byte.  One case fails on purpose, so its witnesses (the
first nonzero entry of each defect, in row-major order) are pinned too.
"""

import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("slq2", ["builtin:slq2"], 0),
    ("lorentz-flip-t1", ["builtin:lorentz-flip", "--eval", "t=1"], 0),
    ("poincare-twisted", ["builtin:poincare-twisted"], 0),
    ("slq2-ct", ["builtin:slq2", "--suite", "ct"], 1),
]


@pytest.mark.parametrize("name,args,rc", CASES, ids=[c[0] for c in CASES])
def test_json_report_matches_golden(tmp_path, name, args, rc):
    path = tmp_path / f"{name}.json"
    out = subprocess.run(
        [sys.executable, "-m", "cqtcheck.cli", "check", *args,
         "--json", str(path)],
        capture_output=True, text=True)
    assert out.returncode == rc, out.stderr
    assert path.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
