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

from tamesym import (AtomRegistry, IrredPlace, TameSymError, parse_divisor,
                     parse_wedge, snc_check, tame_symbol, wedge_str)
from tamesym.places import chain_point, support

SWAP = str.maketrans("xy", "yx")


def mirrored(d):
    """The divisor's image under (x, y) -> (y, x), by swapping the letters
    of its text."""
    return parse_divisor(str(d).translate(SWAP))


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
        kinds.update(d.sort_key()[0] for d in support(w))
    assert set(range(6)) <= kinds


# each orientation: its text and the head of its sort key
VOCABULARY = [("x=3", 0), ("y=-1/2", 1), ("y=(x+3)/(x-1)", 2),
              ("x=y^2-1", 3), ("x=inf", 4), ("y=inf", 5)]


@pytest.mark.parametrize("text, head", VOCABULARY)
def test_divisor_vocabulary(text, head):
    d = parse_divisor(text)
    assert (d.sort_key()[0], str(d)) == (head, text)
    assert parse_divisor(str(d)) == d
    assert d.mirror().mirror() == d
    assert d.mirror() == parse_divisor(text.translate(SWAP))


def test_support_divisors_reparse_and_mirror():
    for text in CORPUS:
        for d in support(_wedge(text)[0]):
            assert parse_divisor(str(d)) == d
            assert d.mirror() == mirrored(d)


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
