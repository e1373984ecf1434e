"""Every name the benchmark's tracer hooks must exist in the package.

perfbench/layers.py wraps package functions and methods by name when a run
is traced (--trace 1).  A rename that leaves a hook dangling would only
show there; this test reads the hook tables, leaves the file as it is, and
resolves each name the way the tracer does: module functions through the
module, and Class.method in the class's own __dict__.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _hook_tables():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return {**layers.TIMED, **layers.COUNTED}


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
