"""Code in src/ is there for src/: no definition only the tests use.

Every top-level function and every method that is not a dunder must be
named somewhere in src/cqtcheck outside its own body, as a name, an
attribute or an imported name.  A definition only tests reach belongs in
the tests.  ALLOWED lists each exception with its reason.
"""

import ast
from collections import Counter
from pathlib import Path

import cqtcheck

ALLOWED = {
    "uea.py: convolve": "the word-by-word convolution, kept as the oracle "
                        "the uea letter tables are to be played against",
    "tensor.py: entry": "perfbench/layers.py times Tensor.entry by name",
}


def _names(tree):
    """Every identifier a tree names: loads, attributes and imports."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rsplit(".", 1)[-1]] += 1
    return out


def _definitions(tree):
    """Top-level functions and the methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield item


def test_every_definition_in_src_is_named_elsewhere_in_src():
    package = Path(cqtcheck.__file__).parent
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(package.glob("*.py"))}
    named = sum((_names(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for node in _definitions(tree):
            if named[node.name] == _names(node)[node.name]:
                unused.append(f"{module}: {node.name}")
    assert sorted(unused) == sorted(ALLOWED)
