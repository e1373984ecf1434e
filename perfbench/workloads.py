"""The benchmark's workloads, their expected verdicts and the verdict parser.

Every expected verdict below is written by hand from the tallies the paper
states (and the README repeats); none is produced by running the program.
A command passes when its exit code, its classification tallies
(CQT / CQT* / CT / CT*), its witnessed ``mor`` dimension and its Poincare
summary all equal the expected values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

DOCUMENT = "src/cqtcheck/data/slq2.qg"
EVALS = ("t=1", "t=i", "t=3/2")

# (CQT, CQT*, CT, CT*) per input, at generic t and at each specialization.
TALLIES = {
    "builtin:slq2": {
        None: (4, 0, 0, 0), "t=1": (2, 0, 2, 0),
        "t=i": (2, 0, 0, 0), "t=3/2": (4, 0, 0, 0)},
    "builtin:lorentz-flip": {
        None: (64, 16, 0, 0), "t=1": (16, 8, 8, 4),
        "t=i": (16, 8, 0, 0), "t=3/2": (64, 16, 0, 0)},
    "builtin:lorentz-beta-minus": {
        None: (64, 0, 0, 0), "t=1": (16, 0, 8, 0),
        "t=i": (16, 0, 0, 0), "t=3/2": (64, 0, 0, 0)},
    DOCUMENT: {
        None: (1, 0, 0, 0), "t=1": (1, 1, 1, 1),
        "t=i": (1, 0, 0, 0), "t=3/2": (1, 0, 0, 0)},
}

# ((input, source word, target word), witnessed dimension); q-independent.
MOR = (
    (("builtin:slq2", "w w w", "w w w"), 5),
    (("builtin:lorentz-flip", "w wb", "wb w"), 1),
)

POINCARE = {
    "builtin:poincare-classical": "2 (signs -1, +1)",
    "builtin:poincare-twisted": "1 (signs +0)",
}


@dataclass(frozen=True)
class Verdict:
    """What a command decided, as read from its exit code and report."""

    exit: int
    tallies: tuple = None    # (CQT, CQT*, CT, CT*) for classifying checks
    mor_dim: int = None      # witnessed dimension for mor
    poincare: str = None     # "structures per coefficient" summary


@dataclass(frozen=True)
class Command:
    """One CLI command of a workload with its default parameters."""

    kind: str                # "check" or "mor"
    input: str
    expect: Verdict
    eval: str = None
    words: tuple = ()        # (source, target) for mor

    def argv(self) -> list:
        out = [self.kind, self.input, *self.words]
        if self.kind == "mor":
            out += ["--depth", "3"]
        if self.eval:
            out += ["--eval", self.eval]
        return out

    def label(self) -> str:
        return " ".join(f'"{a}"' if " " in a else a for a in self.argv())


def _classifying(t_eval):
    cmds = [Command("check", name, Verdict(0, by_eval[t_eval]), t_eval)
            for name, by_eval in TALLIES.items()]
    cmds += [Command("mor", name, Verdict(0, mor_dim=dim), t_eval, (src, dst))
             for (name, src, dst), dim in MOR]
    return cmds


WORKLOADS = {
    "symbolic": tuple(_classifying(None)),
    "specialized": tuple(c for e in EVALS for c in _classifying(e)),
    "functionals": tuple(Command("check", name, Verdict(0, poincare=s))
                         for name, s in POINCARE.items()),
}

_TALLY = re.compile(r"^(CQT|CQT\*|CT|CT\*) candidates: (\d+)$", re.M)
_MOR = re.compile(r"witnessed dimension (\d+) at depth", re.M)
_POINCARE = re.compile(r"^extended structures per coefficient: (.*)$", re.M)


def parse_verdict(kind: str, exit_code: int, text: str) -> Verdict:
    """Read the verdict fields a command's report states."""
    tallies = dict(_TALLY.findall(text))
    counts = None
    if tallies:
        counts = tuple(int(tallies.get(k, -1))
                       for k in ("CQT", "CQT*", "CT", "CT*"))
    mor = _MOR.search(text) if kind == "mor" else None
    poincare = _POINCARE.search(text)
    return Verdict(exit_code, counts,
                   int(mor.group(1)) if mor else None,
                   poincare.group(1) if poincare else None)
