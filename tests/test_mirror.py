"""Exchanging x and y changes nothing but the names.

Seeded surface wedges are built from vertical, horizontal and slanted
lines, graphs over x and over y, parabolas and hyperbolas. Swapping the
two letters in the input text must leave the strict normal crossing
verdict, the number of candidates checked and the kinds of the problems
found unchanged, and the tame symbol along every support divisor must
equal the one of the swapped wedge along the mirrored divisor, with
every chain point mirrored too.
"""

import random

import pytest

from tamesym import (AtomRegistry, GraphX, GraphY, HLine, IrredPlace,
                     LineXInf, LineYInf, TameSymError, VLine, parse_wedge,
                     snc_check, tame_symbol, wedge_str)
from tamesym.places import chain_point, support

SWAP = str.maketrans("xy", "yx")


def mirrored(d):
    """The divisor's image under (x, y) -> (y, x)."""
    if isinstance(d, VLine):
        return HLine(d.c)
    if isinstance(d, HLine):
        return VLine(d.c)
    if isinstance(d, GraphY):
        return GraphX(d.num, d.den)
    if isinstance(d, GraphX):
        return GraphY(d.num, d.den)
    if isinstance(d, LineXInf):
        return LineYInf()
    return LineXInf()


def _c(rng):
    return rng.choice([-3, -2, -1, 1, 2, 3])


def _slot(rng) -> str:
    kind = rng.randrange(8)
    a, b = _c(rng), _c(rng)
    if kind == 0:
        return f"x-({a})"
    if kind == 1:
        return f"y-({a})"
    if kind == 2:
        return f"y-({a})*x-({b})"
    if kind == 3:
        return f"y-({a})*x^2-({b})"
    if kind == 4:
        return f"x*y-({a})"
    if kind == 5:
        return f"y*(x^2+({b}))-({a})"
    if kind == 6:
        return f"x*(y^2+({b}))-({a})"
    return str(rng.choice([2, 3, 5]))


def corpus(n: int = 60):
    rng = random.Random("mirror-1")
    return [f"w[{', '.join(_slot(rng) for _ in range(rng.randrange(2, 5)))}]"
            for _ in range(n)]


CORPUS = corpus()


def _wedge(text):
    reg = AtomRegistry()
    return parse_wedge(text, reg, field="Qxy"), reg


def _outcome(fn):
    try:
        return "ok", fn()
    except TameSymError as e:
        return "refused", type(e).__name__


def test_corpus_reaches_both_orientations():
    kinds = set()
    for text in CORPUS:
        w, _ = _wedge(text)
        kinds.update(type(d).__name__ for d in support(w))
    assert {"VLine", "HLine", "GraphY", "GraphX", "LineXInf",
            "LineYInf"} <= kinds


def _snc_summary(text):
    def run():
        rep = snc_check(_wedge(text)[0])
        return rep.ok, rep.candidates_checked, \
            sorted(p.kind for p in rep.problems)
    return _outcome(run)


@pytest.mark.parametrize("text", CORPUS)
def test_snc_report_is_mirror_invariant(text):
    assert _snc_summary(text) == _snc_summary(text.translate(SWAP))


def _text(outcome):
    status, value = outcome
    return status, wedge_str(value) if status == "ok" else value


@pytest.mark.parametrize("text", CORPUS)
def test_tame_symbol_is_mirror_invariant(text):
    w, reg = _wedge(text)
    ws, regs = _wedge(text.translate(SWAP))
    for d in support(w):
        got = _outcome(lambda: tame_symbol(w, d, reg))
        want = _outcome(lambda: tame_symbol(ws, mirrored(d), regs))
        assert _text(got) == _text(want), str(d)
        for v in support(got[1]) if got[0] == "ok" else ():
            if not isinstance(v, IrredPlace):
                assert chain_point(mirrored(d), v) == chain_point(d, v)[::-1]
