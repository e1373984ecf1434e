"""Every name the benchmark's tracer hooks must exist in the package.

perfbench/layers.py wraps package functions and methods by name when a run
is traced (--trace 1).  A rename that leaves a hook dangling would only
show there; this test reads the hook tables, leaves the file as it is, and
resolves each name the way the tracer does: module functions through the
module, and Class.method in the class's own __dict__.  A traced run of one
command, and of the uea suite on a Poincare datum, then check that the
hooks' probes still read the arguments and results of the functions they
wrap.
"""

import importlib
import importlib.util
import json
import re
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hook_tables():
    layers = _load("layers")
    return {**layers.TIMED, **layers.COUNTED}


def _traced(argv):
    from cqtcheck import cli
    tr = _load("tracer").Tracer()
    _load("layers").install(tr)
    try:
        code = cli.main(argv)
    finally:
        tr.uninstall()
    return code, tr


HOOKS = [(stem, module, attr) for stem, (module, *attrs)
         in _hook_tables().items() for attr in attrs]


@pytest.mark.parametrize("stem,module,attr", HOOKS,
                         ids=[f"{stem}:{attr}" for stem, _, attr in HOOKS])
def test_hook_resolves(stem, module, attr):
    owner = importlib.import_module(f"cqtcheck.{module}")
    cls_name, _, name = attr.rpartition(".")
    if cls_name:
        cls = getattr(owner, cls_name)
        assert name in cls.__dict__, f"{stem}: {attr} is not defined on the class"
    else:
        assert callable(getattr(owner, name, None)), f"{stem}: no {module}.{name}"


def test_traced_run_counts_the_classified_candidates(capsys):
    code, tr = _traced(["check", "builtin:lorentz-flip", "--eval", "t=1"])
    assert code == 0, capsys.readouterr().err
    assert tr.counts["cqt.classify.candidates"] == 16


def test_traced_uea_run_counts_its_evaluations(capsys, tmp_path):
    # the checks decide each distinct defect once, but their notes, and so
    # uea.evaluations, still count one evaluation per word
    for datum, max_len in (("poincare-twisted", 1), ("poincare-classical", 2)):
        out = tmp_path / f"{datum}.json"
        code, tr = _traced(["check", f"builtin:{datum}", "--suite", "uea",
                            "--max-len", str(max_len), "--json", str(out)])
        assert code == 0, capsys.readouterr().err
        for name in ("check_rll", "check_xkx", "check_pairings",
                     "check_ideal_killed"):
            assert tr.calls[f"uea.{name}"] == 1, name
        notes = {r["check_id"]: re.fullmatch(r"(\d+) evaluations",
                                             r["note"] or "")
                 for r in json.loads(out.read_text())["reports"]}
        counts = {cid: int(m.group(1)) for cid, m in notes.items() if m}
        assert sum(counts.values()) > 0
        assert tr.counts["uea.evaluations"] == sum(counts.values())
    # rll on poincare-classical: 5 forms at 4 points on 20 + 400 words
    assert sum(v for cid, v in counts.items() if cid.startswith("rll:")) \
        == 5 * 4 * 420
