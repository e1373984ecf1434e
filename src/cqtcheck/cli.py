"""Command-line front end.

Subcommands:

    check     run check suites over a built-in datum or a document file
    classify  shorthand for check with the classification suites only
    mor       print witnessed intertwiner bases between two words
    show      pretty-print the matrices of a datum

Inputs are either ``builtin:<name>`` (see the catalog module) or a path to
a document in the text format of the dsl module.  ``--eval t=<expr>``
specializes the whole run at an exact numeric value of t; witnesses and
matrix entries are always printed as canonical exact strings, never as
floats.  SUITE_TABLE says which suites apply to which datum.  Exit status:
0 when every non-skipped check passes, 1 when some check fails, 2 on parse,
datum, file or parameter errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple

from . import catalog, cqt, dsl, lorentz, uea
from . import inhomogeneous as inhomog
from .errors import CqtError, ForbiddenParameter, ParseError
# saturate stays bound here although the CLI saturates lazily: perfbench's
# tracer tests that it wraps a function in every module that imports it
from .presentation import Saturation, mor_saturate, saturate  # noqa: F401
from .presentation import check_mor_words
from .scalars import parse_scalar

SUITES = ("validate", "cqt", "star", "ct", "classify", "poincare", "uea")
OPT_IN = ("star", "ct")          # run only when named with --suite
CLASSIFY = ("classify", "poincare")
NEEDS_CANDIDATE = ("cqt", "star", "ct", "classify")
# work budgets: saturation rounds, the uea word length (the Poincare data
# have 20^n words of length n), and the letters of a mor word (the longer
# word is the saturation's max_end_len: words of max_end_len + 2 letters)
MAX_DEPTH = 8
MAX_LEN = 3
MAX_MOR_WORD = 3


class RunConfig(NamedTuple):
    input: str
    suites: tuple = ()
    eval_expr: str = None
    max_len: int = 2
    depth: int = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cqtcheck",
        description="exact checks for exchange structures on presented bialgebras")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, report=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("input", help="builtin:<name> or a document path")
        p.add_argument("--eval", dest="eval_expr", metavar="t=EXPR",
                       help="specialize t at an exact value, e.g. t=1 or t=i")
        if report:  # show only prints matrices
            p.add_argument("--json", dest="json_path", metavar="PATH",
                           help="write the structured report to PATH")
            p.add_argument("--depth", type=int, default=3,
                           help="intertwiner saturation depth "
                                f"(0 to {MAX_DEPTH})")
        return p

    p_check = command("check", run_check, "run check suites")
    p_check.add_argument("--suite", action="append", choices=SUITES,
                         help="suite to run (repeatable; default per datum)")
    p_check.add_argument("--max-len", type=int, default=2,
                         help="word length bound for functional checks "
                              f"(1 to {MAX_LEN})")
    p_check.add_argument("--verbose", action="store_true",
                         help="print every note in full")
    command("classify", run_check, "classification tallies only")
    p_mor = command("mor", run_mor, "print witnessed intertwiner bases")
    p_mor.add_argument("src", help="source word, space-separated generators")
    p_mor.add_argument("dst", help="target word")
    command("show", run_show, "pretty-print datum matrices", report=False
            ).add_argument("name", nargs="?", help="matrix name (default: list)")

    stdout, sys.stdout = sys.stdout, _Stdout(sys.stdout)
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except CqtError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc.strerror}: {exc.filename}", file=sys.stderr)
        return 2
    finally:
        sys.stdout.flush()
        sys.stdout = stdout


class _Stdout:
    """Standard output for one command.  Once the reader has closed the pipe
    (as `| head` does), the rest of the output goes to the null device: the
    command still runs to the end, writes its --json file and keeps its exit
    status, and nothing reaches stderr, at exit either."""

    def __init__(self, stream):
        self.stream = stream

    def __getattr__(self, name):
        return getattr(self.stream, name)

    def write(self, text):
        return self._quietly(self.stream.write, text)

    def flush(self):
        return self._quietly(self.stream.flush)

    def _quietly(self, op, *args):
        try:
            return op(*args)
        except BrokenPipeError:
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, self.stream.fileno())
            os.close(null)
            return op(*args)


def _eval_value(expr):
    if not expr:
        return None
    value = parse_scalar(expr.removeprefix("t="))
    if not value.is_constant():
        raise ParseError(f"--eval needs a constant, got {value}")
    return value.constant_value()


def _check_work(depth, max_len=None, words=()):
    """Reject work bounds that would make every check vacuous, or that are
    over the work budget."""
    if not 0 <= depth <= MAX_DEPTH:
        raise ForbiddenParameter(
            f"--depth {depth}: the depth must be from 0 to {MAX_DEPTH}")
    if max_len is not None and not 1 <= max_len <= MAX_LEN:
        raise ForbiddenParameter(
            f"--max-len {max_len}: the word length must be from 1 to {MAX_LEN}")
    for word in words:
        if len(word) > MAX_MOR_WORD:
            raise ForbiddenParameter(
                f"mor word {' '.join(word)!r}: a word must have from 0 to "
                f"{MAX_MOR_WORD} letters")


def load_input(name: str, value):
    if name.startswith("builtin:"):
        return catalog.resolve(name[len("builtin:"):], value)
    with open(name, encoding="utf-8") as fh:
        doc = dsl.parse_presentation(fh.read())
    return doc if value is None else doc.subs(value)


# ---------------------------------------------------------------------------
# Suites.
# ---------------------------------------------------------------------------

class _Run:
    """One run over a datum: its parameters, summary lines and the results
    suites share, each computed at most once and only when a suite asks;
    `table` holds the cqt, star and ct reports decided (see the cqt module)."""

    def __init__(self, datum, depth, max_len):
        self.datum, self.depth, self.max_len = datum, depth, max_len
        self.summary = []
        self.table = cqt.LawTable()

    @cached_property
    def witnesses(self):
        return Saturation(self.datum.presentation, depth=self.depth)

    @cached_property
    def candidate(self):
        return _kind(self.datum).candidate(self.datum)

    @cached_property
    def structure(self):
        return inhomog.check_structure(self.datum)


def _cqt(run):
    p, cand = run.datum.presentation, run.candidate
    reports = cqt.check_condition2(cand, run.witnesses, run.table)
    for beta in p.generators:
        reports += cqt.check_relations_preserved(cqt.eval_hom(cand, beta), p)
    return reports


def _star(run):
    return cqt.check_star(run.candidate, run.datum.mode, run.table)


def _ct(run):
    return cqt.check_ct(run.candidate, run.table)


def _classified(run, result: cqt.ClassifyResult, *extra):
    counts = result.counts()
    names = {"cqt": "CQT", "cqt_star": "CQT*", "ct": "CT", "ct_star": "CT*"}
    run.summary += [f"{names[k]} candidates: {counts[k]}" for k in names]
    return [cqt.CheckReport(f"classify:{k.replace('_', '-')}-count", "pass",
                            None, str(counts[k])) for k in names] + [
        cqt.CheckReport(
            f"classify:member:{cand.label or f'candidate-{idx}'}", "pass", None,
            "admissible" if idx in result.passing else "rejected")
        for idx, cand in enumerate(result.candidates)] + list(extra)


def _poincare(run):
    reports, signs = inhomog.classify_poincare(run.datum, run.structure,
                                               run.table)
    listed = f" (signs {', '.join(f'{k:+d}' for k in signs)})" if signs else ""
    run.summary.append(
        f"extended structures per coefficient: {len(signs)}{listed}")
    return reports


def _sl2_matrices(d):
    return {"E": d.E, "Ep": d.Eprime,
            **{f"L{i}": lorentz.candidate_L(d, i) for i in (1, 2, 3, 4)}}


def _inhom_matrices(d):
    out = {"R": d.R, "Z": d.Z, "T": d.T, "RP": inhomog.build_RP(d),
           "K": uea.build_K(d)}
    if not d.abstract:
        out.update(m0=d.invariant, V=inhomog.pauli_basis()[0])
    return out


class _Kind(NamedTuple):
    candidate: Callable   # datum -> its canonical candidate, or None
    matrices: Callable    # datum -> {name: matrix}, for show
    suites: dict          # suite -> runner, in SUITES order


# One entry per datum type.  A runner takes a _Run and returns CheckReports.
# Runners call layer functions through their modules at call time, never
# through references taken at import, so wrappers installed on a module see
# every call.
SUITE_TABLE = {
    lorentz.SL2Datum: _Kind(lambda d: lorentz.sl2_family(d)[0], _sl2_matrices, {
        "validate": lambda run: lorentz.validate_sl2(run.datum),
        "cqt": _cqt,
        "star": lambda run: [
            lorentz.real_form_check(run.datum, form, q0) for form, q0 in (
                (lorentz.SUQ2, Fraction(1, 2)), (lorentz.SUQ2, 1),
                (lorentz.SUQ2, 4), (lorentz.SLQ2R, 1))],
        "ct": lambda run: [
            cqt.CheckReport(f"{r.check_id}:{c.label}", r.status, r.witness)
            for c in lorentz.sl2_family(run.datum) for r in cqt.check_ct(c, run.table)],
        "classify": lambda run: _classified(run, lorentz.classify_sl2(
            run.datum, run.witnesses, run.table)),
    }),
    lorentz.LorentzDatum: _Kind(
        lambda d: lorentz.candidate_blocks(d, 1, 3, 1, 1, d.blocks),
        lambda d: {**_sl2_matrices(d.base), "Et": d.Etilde, "Ept": d.Eptilde,
                   "X": d.X}, {
            "validate": lambda run: lorentz.validate_lorentz(run.datum),
            "cqt": _cqt,
            "star": _star,
            "ct": _ct,
            "classify": lambda run: _classified(run, *lorentz.classify_lorentz(
                run.datum, run.witnesses, run.table)),
        }),
    inhomog.InhomDatum: _Kind(
        lambda d: None, _inhom_matrices, {
            "validate": lambda run: run.structure,
            "poincare": _poincare,
            "uea": lambda run: uea.uea_suite(run.datum, run.max_len),
        }),
    dsl.Document: _Kind(
        lambda d: d.candidate,
        lambda d: {name: m.matrix for name, m in d.mats.items()}, {
            "validate": lambda run: [cqt.CheckReport(
                "document:parsed", "pass", None,
                f"{len(run.datum.presentation.generators) - 1} generators, "
                f"{len(run.datum.presentation.relations)} relations")],
            "cqt": _cqt,
            "star": _star,
            "ct": _ct,
            "classify": lambda run: _classified(run, cqt.classify(
                [run.candidate], run.datum.mode, run.witnesses, run.table)),
        }),
}


def _kind(datum) -> _Kind:
    try:
        return SUITE_TABLE[type(datum)]
    except KeyError:
        raise CqtError(f"cannot run suites on {type(datum).__name__}") from None


def default_suites(datum):
    return [s for s in _kind(datum).suites if s not in OPT_IN]


def dispatch(cfg: RunConfig, lenient=False):
    """Run the configured suites; returns (exit code, rows, summary lines).

    A named suite the datum does not support is a parameter error, unless
    lenient (the classify subcommand), which leaves it out.
    """
    _check_work(cfg.depth, cfg.max_len)
    datum = load_input(cfg.input, _eval_value(cfg.eval_expr))
    kind = _kind(datum)
    suites = list(cfg.suites) or default_suites(datum)
    unsupported = [s for s in suites if s not in kind.suites]
    if unsupported and not lenient:
        raise ForbiddenParameter(
            f"--suite {unsupported[0]} does not apply to {cfg.input}; "
            f"supported: {', '.join(kind.suites)}")
    run = _Run(datum, cfg.depth, cfg.max_len)
    rows = []
    for suite, runner in kind.suites.items():
        if suite not in suites:
            continue
        if suite in NEEDS_CANDIDATE and run.candidate is None:
            reports = [cqt.CheckReport(f"{suite}:candidate", "skipped", None,
                                       "no cand lines")]
        else:
            reports = runner(run)
        rows += [(suite, r) for r in reports]
    return int(any(r.status == "fail" for _, r in rows)), rows, run.summary


# ---------------------------------------------------------------------------
# Output.
# ---------------------------------------------------------------------------

def emit_report(rows, datum_name, summary, json_path=None, verbose=False,
                stream=None):
    """Print the report to stream (standard output when None, looked up
    at the call) and write the --json file; returns the exit status."""
    stream = sys.stdout if stream is None else stream
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
    print(f"{len(rows) - failed}/{len(rows)} checks passed", file=stream)
    if json_path:
        _write_json(json_path, {
            "datum": datum_name,
            "summary": summary,
            "reports": [_report_json(suite, r, datum_name)
                        for suite, r in rows],
        })
    return 1 if failed else 0


def _write_json(path, payload):
    import json  # only --json needs it; a plain run starts without it
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _report_json(suite, r: cqt.CheckReport, datum_name):
    witness = None
    if r.witness is not None:
        idx, val = r.witness
        witness = {"index": repr(idx), "value": str(val)}
    return {"check_id": r.check_id, "status": r.status, "witness": witness,
            "suite": suite, "datum": datum_name, "note": r.note}


def run_check(args) -> int:
    classify = args.command == "classify"
    cfg = RunConfig(
        input=args.input,
        suites=CLASSIFY if classify else tuple(args.suite or ()),
        eval_expr=args.eval_expr,
        max_len=getattr(args, "max_len", 2),
        depth=args.depth,
    )
    _, rows, summary = dispatch(cfg, lenient=classify)
    return emit_report(rows, cfg.input, summary, args.json_path,
                       getattr(args, "verbose", False))


def run_mor(args) -> int:
    src, dst = tuple(args.src.split()), tuple(args.dst.split())
    _check_work(args.depth, words=(src, dst))
    value = _eval_value(args.eval_expr)
    datum = load_input(args.input, value)
    if "cqt" not in _kind(datum).suites:  # the presented data
        print("error: mor needs a presented datum", file=sys.stderr)
        return 2
    p = datum.presentation
    check_mor_words(p, src, dst)  # before the bound reads the words
    bound = None
    if value is not None and value != cqt.BOUND_POINT:  # see the cqt module
        try:
            generic = load_input(args.input, None)
            if generic.presentation.specializes_to(p, value):
                bound = cqt.mor_bound(_kind(generic).candidate(generic),
                                      src, dst)
        except CqtError:  # a datum whose axioms hold at the value only
            pass
    if bound is None:
        bound = cqt.mor_bound(_kind(datum).candidate(datum), src, dst)
    basis = mor_saturate(p, src, dst, args.depth, bound)
    print(f"Mor({args.src or '1'}, {args.dst or '1'}): "
          f"witnessed dimension {len(basis)} at depth {args.depth}")
    for k, b in enumerate(basis):
        print(f"-- basis element {k}")
        print(b.pretty())
    if args.json_path:
        _write_json(args.json_path, {
            "source": list(src), "target": list(dst), "depth": args.depth,
            "dimension": len(basis),
            "basis": [[str(x) for x in b.entries] for b in basis],
        })
    return 0


def run_show(args) -> int:
    datum = load_input(args.input, _eval_value(args.eval_expr))
    named = _kind(datum).matrices(datum)
    if args.name is None:
        print("available:", ", ".join(sorted(named)))
        return 0
    if args.name not in named:
        print(f"error: no matrix {args.name!r}; available: "
              f"{', '.join(sorted(named))}", file=sys.stderr)
        return 2
    print(named[args.name].pretty())
    return 0

