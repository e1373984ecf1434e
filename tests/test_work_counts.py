"""Work counts of the uea suite and the exchange-law checks.

The counts are taken by patching, not by timing, so they repeat exactly.
On `check builtin:poincare-classical` the functionals number their values
(`FunctionalHom.number`): each distinct (prefix value, letter value) pair
is multiplied once, and each check keys its word classes on the numbers,
so the suite hashes a tensor's entries only when it numbers a new product
or letter.  Before the numbering the run formed 1,372 products under
`FunctionalHom` and made 5,460 `Tensor.key` calls.  The grouping by value
class decides each key once per coefficient point, so `check_xkx` and
`check_pairings` make no more products of their own (not counting the
functionals') than the word-by-word tables did: 64 and 100.

`check_condition2` reads the exchange laws of its presentation from the
run's `LawTable`, which lists them once; before, a `check
builtin:lorentz-flip` listed them 65 times, once per `check_condition2`
call.

`classify_poincare` decides the base cotriangularity of the k = +1
candidate only, since the k = -1 blocks are its negatives.

A Lorentz datum builds its family blocks once (`LorentzDatum.blocks`), for
the cqt suite's candidate and the classify suite's family both; each built
them before, inverting L_1..L_4 twice.

`cqt.mor_bound` decides the right exchange laws alone and builds one law
matrix per generator; with both sides it made twice the `exchange_defect`
and `_law_matrix` calls.
"""

import contextlib
import io
from collections import Counter

from cqtcheck import cli, cqt, lorentz, uea
from cqtcheck.presentation import FunctionalHom
from cqtcheck.tensor import Tensor


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0


def _within(monkeypatch, owner, name, tag, stack):
    """Patch owner.name to push tag on stack while it runs."""
    fn = getattr(owner, name)

    def wrapped(*args, **kwargs):
        stack.append(tag)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    monkeypatch.setattr(owner, name, wrapped)


def test_uea_suite_forms_each_value_once(monkeypatch):
    stack, counts = [], Counter()
    matmul, key = Tensor.__matmul__, Tensor.key

    def counted_matmul(a, b):
        if "functional" in stack:
            counts["functional"] += 1
        elif stack:
            counts[stack[-1]] += 1
        return matmul(a, b)

    def counted_key(t):
        counts["key"] += 1
        return key(t)

    for name in ("number", "value"):
        _within(monkeypatch, FunctionalHom, name, "functional", stack)
    for name in ("check_xkx", "check_pairings"):
        _within(monkeypatch, uea, name, name, stack)
    monkeypatch.setattr(Tensor, "__matmul__", counted_matmul)
    monkeypatch.setattr(Tensor, "key", counted_key)
    _run(["check", "builtin:poincare-classical"])
    assert counts["functional"] <= 400
    assert counts["key"] <= 800
    assert counts["check_xkx"] <= 64
    assert counts["check_pairings"] <= 100


def test_a_lorentz_check_lists_the_exchange_laws_once(monkeypatch):
    calls = []
    listed = cqt.exchange_laws

    def counted(p):
        calls.append(p)
        return listed(p)

    monkeypatch.setattr(cqt, "exchange_laws", counted)
    _run(["check", "builtin:lorentz-flip"])
    assert len(calls) == 1


def test_a_poincare_check_decides_the_base_cotriangularity_once(monkeypatch):
    # deciding ct:base for each sign made 13 inverses
    calls = []
    inverse = Tensor.inverse

    def counted(t):
        calls.append(t)
        return inverse(t)

    monkeypatch.setattr(Tensor, "inverse", counted)
    _run(["check", "builtin:poincare-classical"])
    assert len(calls) <= 9


def _counted(monkeypatch, targets):
    """Patch each owner.name in targets to count its calls, by name."""
    counts = Counter()
    for owner, name in targets:
        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    return counts


def test_a_lorentz_check_builds_the_family_blocks_once(monkeypatch):
    # 2 and 26 when the cqt and classify suites each built them
    counts = _counted(monkeypatch, [(lorentz, "family_blocks"),
                                    (Tensor, "inverse")])
    _run(["check", "builtin:lorentz-flip"])
    assert counts["family_blocks"] <= 1
    assert counts["inverse"] <= 22


def test_the_mor_bound_decides_and_ranks_one_side(monkeypatch):
    # 4 and 2, 20 and 4 with both sides
    for argv, defects, matrices in (
            (["mor", "builtin:slq2", "w w w", "w w w", "--depth", "3",
              "--eval", "t=1"], 2, 1),
            (["mor", "builtin:lorentz-flip", "w wb", "wb w", "--depth", "3"],
             10, 2)):
        with monkeypatch.context() as m:
            counts = _counted(m, [(cqt, "exchange_defect"),
                                  (cqt, "_law_matrix")])
            _run(argv)
        assert (counts["exchange_defect"], counts["_law_matrix"]) == (
            defects, matrices), argv
