"""Code in src/ is there for src/: no definition only the tests use.

Every top-level function and every method that is not a dunder must be
named somewhere in src/cqtcheck outside its own body, as a name, an
attribute or an imported name.  A definition only tests reach belongs in
the tests.  ALLOWED lists each exception with its reason.  Every
defaulted parameter is passed by some caller in src, and every field of a
dataclass or NamedTuple is read as an attribute in src, so that deleting
its last reader deletes the field too.
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


# Defaulted parameters no caller in src passes, each with its reason.
UNPASSED = {
    **{f"catalog.py: {name}(value)": "the catalog builders are dispatched "
       "through BUILTINS, which always passes the value"
       for name in ("make_lorentz_beta_minus", "make_poincare_classical",
                    "make_poincare_abstract", "make_poincare_twisted")},
    "cli.py: main(argv)": "the entry point; perfbench and the tests pass argv",
    "cli.py: emit_report(stream)": "perfbench and the tests pass a stream",
    **{f"inhomogeneous.py: abstract_datum({name})": "a public constructor: "
       "the abstract Poincare data pass only what they differ in"
       for name in ("Z", "T", "reps", "mode")},
    **{f"presentation.py: saturate({name})": "the reference saturations of "
       "the tests set the depth and the bound" for name in ("depth",
                                                            "max_end_len")},
}


def _defaulted(tree):
    """(defined name, called name, defaulted parameters as (name, call
    position or None)) for every top-level function and method; __init__
    is called by its class's name, and a method's position skips self."""
    def params(fn, skip):
        args = fn.args.posonlyargs + fn.args.args
        first = len(args) - len(fn.args.defaults)
        out = [(a.arg, k - skip) for k, a in enumerate(args) if k >= first]
        out += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs,
                                              fn.args.kw_defaults) if d]
        return out

    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, params(node, 0)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in item.decorator_list)
                name = node.name if item.name == "__init__" else item.name
                yield item.name, name, params(item, 0 if static else 1)


def _passes(call, param, position) -> bool:
    """Whether a call passes a parameter, by keyword or by position."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and position < len(call.args)


def test_every_defaulted_parameter_is_passed_in_src():
    # a default no caller in src overrides is a value the code could work
    # out itself, or an option only tests use
    package = Path(cqtcheck.__file__).parent
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(package.glob("*.py"))}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = []
    for module, tree in trees.items():
        for defined, called, params in _defaulted(tree):
            for param, position in params:
                if not any(_passes(c, param, position)
                           for c in calls.get(called, ())):
                    unpassed.append(f"{module}: {defined}({param})")
    assert sorted(unpassed) == sorted(UNPASSED)


def _is_record(node) -> bool:
    """Whether a class is a @dataclass or a NamedTuple."""
    def name(expr):
        expr = expr.func if isinstance(expr, ast.Call) else expr
        return getattr(expr, "id", getattr(expr, "attr", None))
    return (any(name(d) == "dataclass" for d in node.decorator_list)
            or any(name(b) == "NamedTuple" for b in node.bases))


def test_every_record_field_is_read_in_src():
    package = Path(cqtcheck.__file__).parent
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(package.glob("*.py"))}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = [f"{module}: {node.name}.{item.target.id}"
              for module, tree in trees.items() for node in tree.body
              if isinstance(node, ast.ClassDef) and _is_record(node)
              for item in node.body if isinstance(item, ast.AnnAssign)
              and item.target.id not in read]
    assert unread == []
