"""Command-line front end.

Subcommands:

    check     run check suites over a built-in datum or a document file
    classify  shorthand for check with the classification suite only
    mor       print witnessed intertwiner bases between two words
    show      pretty-print the matrices of a datum

Inputs are either ``builtin:<name>`` (see the catalog module) or a path to
a document in the text format of the dsl module.  ``--eval t=<expr>``
specializes the whole run at an exact numeric value of t; witnesses and
matrix entries are always printed as canonical exact strings, never as
floats.  Exit status: 0 when every non-skipped check passes, 1 when some
check fails, 2 on parse, datum or file errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import catalog, cqt, dsl, lorentz, uea
from . import inhomogeneous as inhomog
from .errors import CqtError, ForbiddenParameter, ParseError
from .presentation import Presentation, Relation, mor_saturate, saturate
from .scalars import parse_scalar
from .tensor import Tensor, pad_with_identity

SUITES = ("validate", "cqt", "star", "ct", "classify", "poincare", "uea")


@dataclass
class RunConfig:
    input: str
    suites: tuple = ()
    eval_expr: str = None
    max_len: int = 2
    depth: int = 3
    json_path: str = None
    with_n: str = None
    verbose: bool = False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cqtcheck",
        description="exact checks for exchange structures on presented bialgebras")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("input", help="builtin:<name> or a document path")
        p.add_argument("--eval", dest="eval_expr", metavar="t=EXPR",
                       help="specialize t at an exact value, e.g. t=1 or t=i")
        p.add_argument("--json", dest="json_path", metavar="PATH",
                       help="write the structured report to PATH")

    p_check = sub.add_parser("check", help="run check suites")
    common(p_check)
    p_check.add_argument("--suite", action="append", choices=SUITES,
                         help="suite to run (repeatable; default per datum)")
    p_check.add_argument("--max-len", type=int, default=2,
                         help="word length bound for functional checks")
    p_check.add_argument("--depth", type=int, default=3,
                         help="intertwiner saturation depth")
    p_check.add_argument("--with-n", dest="with_n", metavar="NAME",
                         help="row invariant (a named matrix of the datum) "
                              "for the twisted exchange variant")
    p_check.add_argument("--verbose", action="store_true",
                         help="print full notes for failing checks")

    p_classify = sub.add_parser("classify", help="classification tallies only")
    common(p_classify)
    p_classify.add_argument("--depth", type=int, default=3)

    p_mor = sub.add_parser("mor", help="print witnessed intertwiner bases")
    common(p_mor)
    p_mor.add_argument("src", help="source word, space-separated generators")
    p_mor.add_argument("dst", help="target word")
    p_mor.add_argument("--depth", type=int, default=3)

    p_show = sub.add_parser("show", help="pretty-print datum matrices")
    common(p_show)
    p_show.add_argument("name", nargs="?", help="matrix name (default: list)")

    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            return run_check(args)
        if args.command == "classify":
            args.suite = ["classify", "poincare"]
            args.max_len = 2
            args.verbose = False
            return run_check(args)
        if args.command == "mor":
            return run_mor(args)
        if args.command == "show":
            return run_show(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except CqtError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc.strerror}: {exc.filename}", file=sys.stderr)
        return 2
    return 2


def _eval_value(args):
    if not args.eval_expr:
        return None
    expr = args.eval_expr
    if expr.startswith("t="):
        expr = expr[2:]
    value = parse_scalar(expr)
    if not value.is_constant():
        raise ParseError(f"--eval needs a constant, got {value}")
    return value.constant_value()


def load_input(name: str, value):
    if name.startswith("builtin:"):
        return catalog.resolve(name[len("builtin:"):], value)
    with open(name, encoding="utf-8") as fh:
        doc = dsl.parse_presentation(fh.read())
    if value is not None:
        doc = _specialize_document(doc, value)
    return doc


def _specialize_document(doc, value):
    mats = {}
    for name, m in doc.mats.items():
        mats[name] = dsl.MatDef(name, m.source_word, m.target_word,
                                m.matrix.subs(value),
                                {k: v.subs(value) for k, v in m.entries.items()})
    p = Presentation(
        [g for g in doc.presentation.generators.values() if g.name != "1"],
        [Relation(n, mats[n].matrix, mats[n].source_word, mats[n].target_word)
         for n in doc.relation_names],
    )
    candidate = None
    if doc.candidate is not None:
        candidate = dsl.CandidateR(
            p, {k: m.subs(value) for k, m in doc.candidate.blocks.items()})
    tables = {name: (g.subs(value), h.subs(value) if h is not None else None,
                     gt, ht)
              for name, (g, h, gt, ht) in doc.tables.items()}
    params = {k: v.subs(value) for k, v in doc.params.items()}
    return dsl.Document(doc.mode, p, mats, list(doc.relation_names), candidate,
                        dict(doc.cand_exprs), tables, params,
                        dict(doc.param_texts))


# ---------------------------------------------------------------------------
# Suites.
# ---------------------------------------------------------------------------

def default_suites(datum):
    if isinstance(datum, inhomog.InhomDatum):
        return ["validate", "poincare", "uea"]
    return ["validate", "cqt", "classify"]


def dispatch(cfg: RunConfig):
    """Run the configured suites; returns (exit code, rows, summary lines)."""
    value = None
    if cfg.eval_expr:
        expr = cfg.eval_expr
        if expr.startswith("t="):
            expr = expr[2:]
        parsed = parse_scalar(expr)
        if not parsed.is_constant():
            raise ParseError(f"--eval needs a constant, got {parsed}")
        value = parsed.constant_value()
    datum = load_input(cfg.input, value)
    suites = list(cfg.suites) or default_suites(datum)
    ordered = [s for s in SUITES if s in suites]
    with_row = None
    if cfg.with_n:
        named = _named_matrices(datum)
        if cfg.with_n not in named:
            raise ForbiddenParameter(
                f"--with-n {cfg.with_n!r}: no such matrix; available: "
                f"{', '.join(sorted(named))}")
        with_row = named[cfg.with_n]
    rows, summary = run_suites(datum, ordered, depth=cfg.depth,
                               max_len=cfg.max_len, with_row=with_row)
    failed = any(r.status == "fail" for _, r in rows)
    return (1 if failed else 0), rows, summary


def run_suites(datum, suites, depth=3, max_len=2, with_row=None):
    """(suite, CheckReport) rows plus human-readable summary lines."""
    rows = []
    summary = []
    if isinstance(datum, lorentz.SL2Datum):
        witnesses = saturate(datum.presentation, depth=depth)
        canonical = lorentz.sl2_family(datum)[0]
        for suite in suites:
            if suite == "validate":
                rows += [(suite, r) for r in _validate_sl2(datum)]
            elif suite == "cqt":
                rows += [(suite, r) for r in
                         cqt.check_condition2(datum.presentation, canonical,
                                              witnesses)]
                for beta in datum.presentation.generators:
                    h = cqt.eval_hom(datum.presentation, canonical, beta)
                    rows += [(suite, r) for r in
                             cqt.check_relations_preserved(h, datum.presentation)]
            elif suite == "star":
                for q0 in ("1/2", "1", "4"):
                    rows.append((suite, lorentz.real_form_check(
                        datum, lorentz.SUQ2, parse_scalar(q0).constant_value().re)))
                rows.append((suite, lorentz.real_form_check(datum, lorentz.SLQ2R, 1)))
            elif suite == "ct":
                for cand in lorentz.sl2_family(datum):
                    for r in cqt.check_ct(cand):
                        rows.append((suite, cqt.CheckReport(
                            f"{r.check_id}:{cand.label}", r.status, r.witness)))
            elif suite == "classify":
                result = lorentz.classify_sl2(datum, witnesses)
                rows += _classify_rows(result, summary)
    elif isinstance(datum, lorentz.LorentzDatum):
        witnesses = saturate(datum.presentation, depth=depth)
        canonical = lorentz.candidate_blocks(datum, 1, 3, 1, 1)
        for suite in suites:
            if suite == "validate":
                rows += [(suite, r) for r in _validate_lorentz(datum)]
            elif suite == "cqt":
                rows += [(suite, r) for r in
                         cqt.check_condition2(datum.presentation, canonical,
                                              witnesses)]
                for beta in datum.presentation.generators:
                    h = cqt.eval_hom(datum.presentation, canonical, beta)
                    rows += [(suite, r) for r in
                             cqt.check_relations_preserved(h, datum.presentation)]
            elif suite == "star":
                rows += [(suite, r) for r in cqt.check_star(canonical, datum.mode)]
            elif suite == "ct":
                rows += [(suite, r) for r in cqt.check_ct(canonical)]
            elif suite == "classify":
                result, flag = lorentz.classify_lorentz(datum, witnesses)
                rows += _classify_rows(result, summary)
                rows.append(("classify", flag))
    elif isinstance(datum, inhomog.InhomDatum):
        for suite in suites:
            if suite == "validate":
                rows += [(suite, r) for r in inhomog.check_structure(datum)]
            elif suite == "poincare":
                cls = inhomog.classify_poincare(datum)
                rows += [(suite, r) for r in cls.reports()]
                s = cls.summary()
                summary.append(
                    f"extended structures per coefficient: "
                    f"{s['structures_per_coefficient']}"
                    + (f" (signs {', '.join(f'{k:+d}' for k in s['valid_signs'])})"
                       if s["valid_signs"] else ""))
            elif suite == "uea":
                cand = None
                if not datum.abstract:
                    cand = inhomog.poincare_candidate(datum, 1)
                rows += [(suite, r) for r in
                         uea.uea_suite(datum, cand, max_len=max_len,
                                       with_row=with_row)]
    elif isinstance(datum, dsl.Document):
        witnesses = None
        for suite in suites:
            if suite == "validate":
                rows.append((suite, cqt.CheckReport(
                    "document:parsed", "pass", None,
                    f"{len(datum.presentation.generators) - 1} generators, "
                    f"{len(datum.presentation.relations)} relations")))
            elif suite in ("cqt", "classify"):
                if datum.candidate is None:
                    rows.append((suite, cqt.CheckReport(
                        f"{suite}:candidate", "skipped", None, "no cand lines")))
                    continue
                if witnesses is None:
                    witnesses = saturate(datum.presentation, depth=depth)
                if suite == "cqt":
                    rows += [(suite, r) for r in cqt.check_condition2(
                        datum.presentation, datum.candidate, witnesses)]
                else:
                    result = cqt.classify(datum.presentation, [datum.candidate],
                                          mode=datum.mode, witnesses=witnesses)
                    rows += _classify_rows(result, summary)
            elif suite == "star":
                if datum.candidate is None:
                    rows.append((suite, cqt.CheckReport(
                        "star:candidate", "skipped", None, "no cand lines")))
                else:
                    rows += [(suite, r)
                             for r in cqt.check_star(datum.candidate, datum.mode)]
            elif suite == "ct":
                if datum.candidate is None:
                    rows.append((suite, cqt.CheckReport(
                        "ct:candidate", "skipped", None, "no cand lines")))
                else:
                    rows += [(suite, r) for r in cqt.check_ct(datum.candidate)]
            else:
                rows.append((suite, cqt.CheckReport(
                    f"{suite}:unsupported", "skipped", None,
                    "suite needs a built-in datum")))
    else:
        raise CqtError(f"cannot run suites on {type(datum).__name__}")
    return rows, summary


def _classify_rows(result: cqt.ClassifyResult, summary: list):
    counts = result.counts()
    summary.append(f"CQT candidates: {counts['cqt']}")
    summary.append(f"CQT* candidates: {counts['cqt_star']}")
    summary.append(f"CT candidates: {counts['ct']}")
    summary.append(f"CT* candidates: {counts['ct_star']}")
    rows = []
    for key in ("cqt", "cqt_star", "ct", "ct_star"):
        rows.append(("classify", cqt.CheckReport(
            f"classify:{key.replace('_', '-')}-count", "pass", None,
            str(counts[key]))))
    for idx, cand in enumerate(result.candidates):
        ok = idx in result.passing
        label = cand.label or f"candidate-{idx}"
        rows.append(("classify", cqt.CheckReport(
            f"classify:member:{label}", "pass", None,
            "admissible" if ok else "rejected")))
    return rows


def _validate_sl2(d: lorentz.SL2Datum):
    ee = (d.Eprime @ d.E).entries[0]
    reports = [cqt.CheckReport("axiom:pairing", "pass" if ee.num else "fail",
                               None, f"E'E = {ee}")]
    lhs = (pad_with_identity(d.Eprime, (), (2,))
           @ pad_with_identity(d.E, (2,), ()))
    reports.append(cqt.defect_report("axiom:duality-left",
                               lhs - Tensor.identity((2,))))
    rhs = (pad_with_identity(d.Eprime, (2,), ())
           @ pad_with_identity(d.E, (), (2,)))
    reports.append(cqt.defect_report("axiom:duality-right",
                               rhs - Tensor.identity((2,))))
    return reports


def _validate_lorentz(d: lorentz.LorentzDatum):
    reports = _validate_sl2(d.base)
    lhs = (pad_with_identity(d.X, (), (2,)) @ pad_with_identity(d.X, (2,), ())
           @ pad_with_identity(d.base.E, (), (2,)))
    reports.append(cqt.defect_report(
        "axiom:exchange-duality", lhs - pad_with_identity(d.base.E, (2,), ())))
    from .tensor import tauconj
    reports.append(cqt.defect_report(
        "axiom:conjugation", tauconj(d.X, d.mode) - d.X * d.beta.inverse()))
    return reports


# ---------------------------------------------------------------------------
# Output.
# ---------------------------------------------------------------------------

def emit_report(rows, datum_name, summary, json_path=None, verbose=False,
                stream=sys.stdout):
    rows = sorted(rows, key=lambda sr: (sr[0], sr[1].check_id))
    for line in summary:
        print(line, file=stream)
    width = max((len(r.check_id) for _, r in rows), default=8)
    for suite, r in rows:
        mark = {"pass": "ok", "fail": "FAIL", "skipped": "--"}[r.status]
        note = r.note
        if r.status == "fail" and r.witness is not None:
            idx, val = r.witness
            note = (note + " " if note else "") + f"witness {idx} = {val}"
        if note and not verbose and len(note) > 72:
            note = note[:69] + "..."
        print(f"{mark:>4}  {suite:<9} {r.check_id:<{width}}  {note}",
              file=stream)
    failed = sum(1 for _, r in rows if r.status == "fail")
    total = len(rows)
    print(f"{total - failed}/{total} checks passed", file=stream)
    if json_path:
        payload = {
            "datum": datum_name,
            "summary": summary,
            "reports": [_report_json(suite, r, datum_name)
                        for suite, r in rows],
        }
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 1 if failed else 0


def _report_json(suite, r: cqt.CheckReport, datum_name):
    witness = None
    if r.witness is not None:
        idx, val = r.witness
        witness = {"index": repr(idx), "value": str(val)}
    return {"check_id": r.check_id, "status": r.status, "witness": witness,
            "suite": suite, "datum": datum_name, "note": r.note}


def run_check(args) -> int:
    cfg = RunConfig(
        input=args.input,
        suites=tuple(args.suite or ()),
        eval_expr=args.eval_expr,
        max_len=getattr(args, "max_len", 2),
        depth=getattr(args, "depth", 3),
        json_path=args.json_path,
        with_n=getattr(args, "with_n", None),
        verbose=getattr(args, "verbose", False),
    )
    code, rows, summary = dispatch(cfg)
    emit_code = emit_report(rows, cfg.input, summary, cfg.json_path,
                            cfg.verbose)
    return max(code, emit_code)


def run_mor(args) -> int:
    value = _eval_value(args)
    datum = load_input(args.input, value)
    if isinstance(datum, lorentz.SL2Datum) or isinstance(datum, lorentz.LorentzDatum):
        p = datum.presentation
    elif isinstance(datum, dsl.Document):
        p = datum.presentation
    else:
        print("error: mor needs a presented datum", file=sys.stderr)
        return 2
    src = tuple(args.src.split())
    dst = tuple(args.dst.split())
    basis = mor_saturate(p, src, dst, depth=args.depth)
    print(f"Mor({args.src or '1'}, {args.dst or '1'}): "
          f"witnessed dimension {len(basis)} at depth {args.depth}")
    for k, b in enumerate(basis):
        print(f"-- basis element {k}")
        print(b.pretty())
    if args.json_path:
        payload = {
            "source": list(src), "target": list(dst), "depth": args.depth,
            "dimension": len(basis),
            "basis": [[str(x) for x in b.entries] for b in basis],
        }
        with open(args.json_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def _named_matrices(datum):
    if isinstance(datum, lorentz.SL2Datum):
        out = {"E": datum.E, "Ep": datum.Eprime}
        for i in (1, 2, 3, 4):
            out[f"L{i}"] = lorentz.candidate_L(datum, i)
        return out
    if isinstance(datum, lorentz.LorentzDatum):
        out = _named_matrices(datum.base)
        out.update({"Et": datum.Etilde, "Ept": datum.Eptilde, "X": datum.X})
        return out
    if isinstance(datum, inhomog.InhomDatum):
        out = {"R": datum.R, "Z": datum.Z, "T": datum.T,
               "RP": inhomog.build_RP(datum), "K": uea.build_K(datum)}
        if datum.m0 is not None:
            out["m0"] = datum.m0
        if datum.V is not None:
            out["V"] = datum.V
        return out
    if isinstance(datum, dsl.Document):
        return {name: m.matrix for name, m in datum.mats.items()}
    return {}


def run_show(args) -> int:
    value = _eval_value(args)
    datum = load_input(args.input, value)
    named = _named_matrices(datum)
    if args.name is None:
        print("available:", ", ".join(sorted(named)))
        return 0
    if args.name not in named:
        print(f"error: no matrix {args.name!r}; available: "
              f"{', '.join(sorted(named))}", file=sys.stderr)
        return 2
    print(named[args.name].pretty())
    return 0


if __name__ == "__main__":
    sys.exit(main())
