"""Where the traced run hooks into cqtcheck, and the per-layer metrics.

The layers are the package's modules, bottom up: scalars, tensor,
presentation, cqt, lorentz / inhomogeneous / uea, catalog / dsl / cli.
Every hook wraps a public function or method from outside; nothing inside
the package is changed.

Metric kinds:

* ``<stem>.calls``  every call, recursive ones included;
* ``<stem>.s``      inclusive time of the outermost calls, in seconds;
* ``<layer>.self_s`` time in the layer's timed calls minus the timed calls
  nested in them; ``bench.self_s`` is the harness's own share of the pass,
  so all self times add up to ``trace.wall_s``.  Scalar arithmetic is only
  counted, so its time is part of its callers' self time; ``scalars.self_s``
  covers the polynomial gcd alone;
* a ``_share`` is useful outcomes over attempts (0 when nothing was
  attempted); the counts record how much work was done.
"""

from __future__ import annotations

import importlib
import re
from operator import attrgetter

# stem -> (module, attributes); "Class.method" names a method on the class
TIMED = {
    "scalars.gcd": ("scalars", "pgcd"),
    "tensor.matmul": ("tensor", "Tensor.__matmul__"),
    "tensor.sub": ("tensor", "Tensor.__sub__"),
    "tensor.add": ("tensor", "Tensor.__add__"),
    "tensor.entry": ("tensor", "Tensor.entry"),
    "tensor.kron": ("tensor", "kron"),
    "tensor.pad": ("tensor", "pad_with_identity"),
    "tensor.inverse": ("tensor", "Tensor.inverse"),
    "tensor.span.add": ("tensor", "SpanBasis.add"),
    "tensor.span.contains": ("tensor", "SpanBasis.contains"),
    "presentation.saturate": ("presentation", "saturate"),
    "presentation.saturation.add": ("presentation", "Saturation.add"),
    "presentation.saturation.contains": ("presentation", "Saturation.contains"),
    "presentation.functional.value": ("presentation", "FunctionalHom.value"),
    "cqt.check_condition2": ("cqt", "check_condition2"),
    "cqt.word_R": ("cqt", "word_R"),
    "cqt.check_relations_preserved": ("cqt", "check_relations_preserved"),
    "cqt.check_star": ("cqt", "check_star"),
    "cqt.check_ct": ("cqt", "check_ct"),
    "cqt.classify": ("cqt", "classify"),
    "cqt.defect_report": ("cqt", "defect_report"),
    "lorentz.classify": ("lorentz", "classify_sl2", "classify_lorentz"),
    "lorentz.make": ("lorentz", "make_sl2", "make_lorentz"),
    "inhomogeneous.check_structure": ("inhomogeneous", "check_structure"),
    "inhomogeneous.classify_poincare": ("inhomogeneous", "classify_poincare"),
    "inhomogeneous.braid_hexagons": ("inhomogeneous", "check_braid_hexagons"),
    "uea.check_rll": ("uea", "check_rll"),
    "uea.check_xkx": ("uea", "check_xkx"),
    "uea.check_pairings": ("uea", "check_pairings"),
    "uea.check_ideal_killed": ("uea", "check_ideal_killed"),
    "uea.convtable.value": ("uea", "ConvTable.value"),
    "catalog.resolve": ("catalog", "resolve"),
    "dsl.parse": ("dsl", "parse_presentation"),
    "cli.dispatch": ("cli", "dispatch"),
    "cli.mor": ("cli", "run_mor"),
    "cli.emit": ("cli", "emit_report"),
}

# called hundreds of thousands of times: timed, but no span is kept
HOT = {"scalars.gcd", "tensor.entry"}

# called millions of times: counted only
COUNTED = {
    "scalars.mul": ("scalars", "Scalar.__mul__"),
    "scalars.addsub": ("scalars", "Scalar.__add__", "Scalar.__sub__",
                       "Scalar.__rsub__"),
    "scalars.normalize": ("scalars", "Scalar.normalize"),
}

LAYERS = ("bench", "scalars", "tensor", "presentation", "cqt", "lorentz",
          "inhomogeneous", "uea", "catalog", "dsl", "cli")

_S, _N, _R = "s", "count", "ratio"

# (name, unit, better); the order BENCHMARK.json lists them in
PER_LAYER = [
    ("scalars.mul.calls", _N, "lower"),
    ("scalars.addsub.calls", _N, "lower"),
    ("scalars.normalize.calls", _N, "lower"),
    ("scalars.normalize.monomial_share", _R, "higher"),
    ("scalars.gcd.calls", _N, "lower"),
    ("scalars.gcd.s", _S, "lower"),
    ("tensor.matmul.calls", _N, "lower"),
    ("tensor.matmul.s", _S, "lower"),
    ("tensor.matmul.density", _R, "higher"),
    ("tensor.sub.calls", _N, "lower"),
    ("tensor.sub.s", _S, "lower"),
    ("tensor.sub.zero_share", _R, "lower"),
    ("tensor.add.s", _S, "lower"),
    ("tensor.entry.calls", _N, "lower"),
    ("tensor.entry.s", _S, "lower"),
    ("tensor.kron.calls", _N, "lower"),
    ("tensor.kron.s", _S, "lower"),
    ("tensor.pad.calls", _N, "lower"),
    ("tensor.pad.s", _S, "lower"),
    ("tensor.inverse.calls", _N, "lower"),
    ("tensor.inverse.s", _S, "lower"),
    ("tensor.span.add.calls", _N, "lower"),
    ("tensor.span.add.s", _S, "lower"),
    ("tensor.span.add.accepted_share", _R, "higher"),
    ("tensor.span.contains.calls", _N, "lower"),
    ("tensor.span.contains.s", _S, "lower"),
    ("presentation.saturate.calls", _N, "lower"),
    ("presentation.saturate.s", _S, "lower"),
    ("presentation.saturation.add.calls", _N, "lower"),
    ("presentation.saturation.add.s", _S, "lower"),
    ("presentation.saturation.add.accepted_share", _R, "higher"),
    ("presentation.saturation.contains.calls", _N, "lower"),
    ("presentation.saturation.contains.s", _S, "lower"),
    ("presentation.saturation.elements", _N, "lower"),
    ("presentation.saturation.span_dim", _N, "higher"),
    ("presentation.functional.value.calls", _N, "lower"),
    ("presentation.functional.value.reuse_share", _R, "higher"),
    ("cqt.check_condition2.calls", _N, "lower"),
    ("cqt.check_condition2.s", _S, "lower"),
    ("cqt.word_R.calls", _N, "lower"),
    ("cqt.word_R.s", _S, "lower"),
    ("cqt.word_R.reuse_share", _R, "lower"),
    ("cqt.check_relations_preserved.s", _S, "lower"),
    ("cqt.check_star.s", _S, "lower"),
    ("cqt.check_ct.s", _S, "lower"),
    ("cqt.classify.s", _S, "lower"),
    ("cqt.classify.candidates", _N, "higher"),
    ("cqt.defect_report.calls", _N, "lower"),
    ("lorentz.classify.s", _S, "lower"),
    ("lorentz.make.s", _S, "lower"),
    ("inhomogeneous.check_structure.calls", _N, "lower"),
    ("inhomogeneous.check_structure.s", _S, "lower"),
    ("inhomogeneous.classify_poincare.s", _S, "lower"),
    ("inhomogeneous.braid_hexagons.s", _S, "lower"),
    ("uea.check_rll.s", _S, "lower"),
    ("uea.check_xkx.s", _S, "lower"),
    ("uea.check_pairings.s", _S, "lower"),
    ("uea.check_ideal_killed.s", _S, "lower"),
    ("uea.convtable.value.calls", _N, "lower"),
    ("uea.convtable.value.s", _S, "lower"),
    ("uea.evaluations", _N, "higher"),
    ("catalog.resolve.s", _S, "lower"),
    ("dsl.parse.calls", _N, "lower"),
    ("dsl.parse.s", _S, "lower"),
    ("cli.dispatch.s", _S, "lower"),
    ("cli.mor.s", _S, "lower"),
    ("cli.emit.s", _S, "lower"),
    ("cli.check_rows", _N, "higher"),
] + [(f"{layer}.self_s", _S, "lower") for layer in LAYERS] + [
    ("trace.wall_s", _S, "lower"),
    ("trace.overhead_ratio", _R, "lower"),
]

_num = attrgetter("num")
_EVALUATIONS = re.compile(r"^(\d+) evaluations$")


def _nonzero(entries) -> int:
    return sum(map(bool, map(_num, entries)))


def _hooks(tr):
    """probe / observe hooks per stem, feeding tr.counts."""
    counts = tr.counts

    def monomial_den(args):
        den = args[1]
        if den and not any(den[:-1]):
            counts["scalars.normalize.monomial"] += 1

    def matmul_density(args):
        a, b = args[0].entries, args[1].entries
        counts["tensor.matmul.entries"] += len(a) + len(b)
        counts["tensor.matmul.nonzero"] += _nonzero(a) + _nonzero(b)

    def sub_zeros(args, result):
        counts["tensor.sub.entries"] += len(result.entries)
        counts["tensor.sub.zero"] += len(result.entries) - _nonzero(result.entries)

    def accepted(stem):
        def observe(args, result):
            counts[stem + ".accepted"] += bool(result)
        return observe

    def reuse(stem, key):
        def probe(args):
            counts[stem + ".reused"] += tr.repeated(args[0], key(args))
        return probe

    def saturation_size(args, sat):
        counts["presentation.saturation.elements"] += sum(
            len(v) for v in sat.elements.values())
        counts["presentation.saturation.span_dim"] += sum(
            s.dim() for s in sat.spans.values())

    def candidates(args, result):
        counts["cqt.classify.candidates"] += len(result.candidates)

    def evaluations(args, reports):
        for r in reports:
            m = _EVALUATIONS.match(r.note or "")
            if m:
                counts["uea.evaluations"] += int(m.group(1))

    def check_rows(args, result):
        counts["cli.check_rows"] += len(result[1])

    return {
        "scalars.normalize": (monomial_den, None),
        "tensor.matmul": (matmul_density, None),
        "tensor.sub": (None, sub_zeros),
        "tensor.span.add": (None, accepted("tensor.span.add")),
        "presentation.saturation.add": (
            None, accepted("presentation.saturation.add")),
        "presentation.functional.value": (
            reuse("presentation.functional.value", lambda a: tuple(a[1])), None),
        "cqt.word_R": (reuse("cqt.word_R",
                             lambda a: (tuple(a[1]), a[2], a[3])), None),
        "presentation.saturate": (None, saturation_size),
        "cqt.classify": (None, candidates),
        "uea.check_rll": (None, evaluations),
        "uea.check_xkx": (None, evaluations),
        "uea.check_pairings": (None, evaluations),
        "uea.check_ideal_killed": (None, evaluations),
        "cli.dispatch": (None, check_rows),
    }


def install(tr, package: str = "cqtcheck"):
    """Wrap every hooked function of the package on tracer tr."""
    # cli imports every module, so every namespace to patch exists first
    importlib.import_module(f"{package}.cli")
    hooks = _hooks(tr)
    for table, counted in ((TIMED, False), (COUNTED, True)):
        for stem, (module, *attrs) in table.items():
            probe, observe = hooks.get(stem, (None, None))
            if counted:
                def wrap(fn, stem=stem, probe=probe):
                    return tr.counted(stem, fn, probe)
            else:
                def wrap(fn, stem=stem, probe=probe, observe=observe):
                    return tr.timed(stem, fn, keep=stem not in HOT,
                                    probe=probe, observe=observe)
            owner = importlib.import_module(f"{package}.{module}")
            for attr in attrs:
                cls_name, _, name = attr.rpartition(".")
                if cls_name:
                    tr.patch_method(getattr(owner, cls_name), name, wrap)
                else:
                    fn = getattr(owner, name)
                    tr.patch_function(package, fn, wrap(fn))


def _share(part, whole):
    return part / whole if whole else 0.0


def metrics(tr) -> dict:
    """The PER_LAYER metrics of a tracer whose outermost span is bench.pass.

    All but trace.overhead_ratio, which needs the untraced pass.
    """
    c, n, t = tr.counts, tr.calls, tr.inclusive
    out = {}
    for stem in list(TIMED) + list(COUNTED):
        out[f"{stem}.calls"] = n[stem]
        out[f"{stem}.s"] = t[stem]
    out["scalars.normalize.monomial_share"] = _share(
        c["scalars.normalize.monomial"], n["scalars.normalize"])
    out["tensor.matmul.density"] = _share(
        c["tensor.matmul.nonzero"], c["tensor.matmul.entries"])
    out["tensor.sub.zero_share"] = _share(
        c["tensor.sub.zero"], c["tensor.sub.entries"])
    for stem in ("tensor.span.add", "presentation.saturation.add"):
        out[f"{stem}.accepted_share"] = _share(c[stem + ".accepted"], n[stem])
    for stem in ("presentation.functional.value", "cqt.word_R"):
        out[f"{stem}.reuse_share"] = _share(c[stem + ".reused"], n[stem])
    for name in ("presentation.saturation.elements",
                 "presentation.saturation.span_dim",
                 "cqt.classify.candidates", "uea.evaluations",
                 "cli.check_rows"):
        out[name] = c[name]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = tr.self_time[layer]
    out["trace.wall_s"] = t["bench.pass"]
    return {name: out[name] for name, _, _ in PER_LAYER
            if name != "trace.overhead_ratio"}
