"""The flat index layout of Tensor is known to tensor.py alone.

Every other module re-indexes through slice_legs, place_legs, items and
with_legs, so a change of storage or index order touches one module.  The
DSL's 1-based "r,c" mat cells are row and column numbers of the text format
itself; the parser hands them to Tensor.from_nonzero.
"""

import re
from pathlib import Path

import cqtcheck

LEAKS = re.compile(r"\.nz\b|\bflatten\(|\bunflatten\(|\.entry\(|\bdivmod\(")


def test_no_module_but_tensor_reads_the_flat_layout():
    package = Path(cqtcheck.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "tensor.py":
            continue
        for n, line in enumerate(path.read_text().splitlines(), 1):
            if LEAKS.search(line):
                found.append(f"{path.name}:{n}: {line.strip()}")
    assert found == []
