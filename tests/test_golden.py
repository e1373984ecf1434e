"""Golden --json reports: refactors must leave them byte-identical.

The first four files in tests/golden were written by the dense-tensor
implementation that preceded the sparse store, the next nine by the
per-datum CLI dispatcher that preceded the suite table, the next three
(generic t: both Lorentz classifications and a Lorentz ``mor``) by the
Fraction-based scalar layer that preceded the integer one, and the last
(the three-letter ``mor`` of slq2, which pins the order of the basis that
saturation returns) by the code that preceded the exchange-law form of the
Poincare checks, the next four by the eager saturation that preceded
the resumable one: a document whose candidate block lies outside the
witnessed span (its intertwiner row fails with "no witness at depth d"), at
depths 3 and 1, the three-letter ``mor`` of slq2 at t = i, and the
beta-minus Lorentz classification at t = i. The next three were written
by the polynomial-path scalar arithmetic that preceded the constant fast
paths: the flip Lorentz classification, slq2 and the Lorentz ``mor`` at
t = 3/2 (q = 9/4, the one benchmarked point whose constants have
denominators other than 1). The last two, the beta-minus Lorentz ``mor``
of Mor(w wb, wb w) and the flip Lorentz ``mor`` of Mor(w w, w w) at t = 1,
were written by the saturation that ran every round to every key, before
``mor`` aimed its last rounds at the one space it prints. The beta-minus
Lorentz star and ct suites at generic t, which fail with witnesses, were
written by the member-by-member checks that preceded the per-run table of
decided laws. Six files were rewritten on purpose since: the four
document reports (``doc-*``) when a document's ``cqt`` suite gained the
``preserved:*`` rows of the evaluation maps, and ``poincare-classical``
and ``poincare-abstract`` when the ideal rows came to decide l at two
coefficient points (their ``ideal:*:l`` notes count fewer evaluations).
Each case reruns
the CLI from the repository root and compares the report byte for byte.
Cases that fail on purpose pin their witnesses (the first nonzero entry of
each defect, in row-major order) too.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"
DOC = "src/cqtcheck/data/slq2.qg"
OUTSIDE = "tests/data/flip-outside-span.qg"

CASES = [
    ("slq2", ["check", "builtin:slq2"], 0),
    ("lorentz-flip-t1", ["check", "builtin:lorentz-flip", "--eval", "t=1"], 0),
    ("poincare-twisted", ["check", "builtin:poincare-twisted"], 0),
    ("slq2-ct", ["check", "builtin:slq2", "--suite", "ct"], 1),
    ("poincare-classical", ["check", "builtin:poincare-classical"], 0),
    ("poincare-abstract", ["check", "builtin:poincare-abstract"], 0),
    ("lorentz-beta-minus-t1",
     ["check", "builtin:lorentz-beta-minus", "--eval", "t=1"], 0),
    ("lorentz-flip-t1-star-ct",
     ["check", "builtin:lorentz-flip", "--eval", "t=1", "--suite", "star",
      "--suite", "ct"], 0),
    ("slq2-star", ["check", "builtin:slq2", "--suite", "star"], 0),
    ("doc-all",
     ["check", DOC, "--suite", "validate", "--suite", "cqt", "--suite", "star",
      "--suite", "ct", "--suite", "classify"], 1),
    ("doc-t1", ["check", DOC, "--eval", "t=1"], 0),
    ("classify-poincare-classical",
     ["classify", "builtin:poincare-classical"], 0),
    ("mor-slq2", ["mor", "builtin:slq2", "w w", "w w", "--depth", "3"], 0),
    ("lorentz-flip", ["check", "builtin:lorentz-flip"], 0),
    ("lorentz-beta-minus", ["check", "builtin:lorentz-beta-minus"], 0),
    ("mor-lorentz-flip",
     ["mor", "builtin:lorentz-flip", "w wb", "wb w", "--depth", "3"], 0),
    ("mor-slq2-www", ["mor", "builtin:slq2", "w w w", "w w w", "--depth", "3"], 0),
    ("doc-outside-span-d3", ["check", OUTSIDE, "--depth", "3"], 1),
    ("doc-outside-span-d1", ["check", OUTSIDE, "--depth", "1"], 1),
    ("mor-slq2-www-ti",
     ["mor", "builtin:slq2", "w w w", "w w w", "--depth", "3", "--eval", "t=i"],
     0),
    ("lorentz-beta-minus-ti",
     ["check", "builtin:lorentz-beta-minus", "--eval", "t=i"], 0),
    ("lorentz-flip-t32", ["check", "builtin:lorentz-flip", "--eval", "t=3/2"], 0),
    ("slq2-t32", ["check", "builtin:slq2", "--eval", "t=3/2"], 0),
    ("mor-lorentz-flip-t32",
     ["mor", "builtin:lorentz-flip", "w wb", "wb w", "--depth", "3",
      "--eval", "t=3/2"], 0),
    ("mor-lorentz-beta-minus",
     ["mor", "builtin:lorentz-beta-minus", "w wb", "wb w", "--depth", "3"], 0),
    ("mor-lorentz-flip-ww-t1",
     ["mor", "builtin:lorentz-flip", "w w", "w w", "--depth", "3",
      "--eval", "t=1"], 0),
    ("lorentz-beta-minus-star-ct",
     ["check", "builtin:lorentz-beta-minus", "--suite", "star", "--suite",
      "ct"], 1),
]


@pytest.mark.parametrize("name,args,rc", CASES, ids=[c[0] for c in CASES])
def test_json_report_matches_golden(tmp_path, name, args, rc):
    path = tmp_path / f"{name}.json"
    out = subprocess.run(
        [sys.executable, "-m", "cqtcheck", *args, "--json", str(path)],
        capture_output=True, text=True, cwd=ROOT)
    assert out.returncode == rc, out.stderr
    assert path.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
