"""The atom registry: its class table, and answers that never depend on
what the registry has seen before."""

import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

from tamesym import (AtomRegistry, Inconclusive, RatFunc, UniPoly,
                     d_squared_check, delta, lambda_str, mult_vec,
                     parse_bifrac, parse_element, parse_gamma, parse_place,
                     parse_wedge, snc_check, tame_symbol, wedge_str, weil_sum)

# the benchmark's seeded session texts, read only
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402

VERBS = ("ts", "weil", "delta", "snc", "dd2")


def _render(op, reg) -> tuple:
    """One text through a parser, its verb and canonical rendering, or the
    class and message of the exception it raises."""
    try:
        if op.verb == "ts":
            w = parse_wedge(op.text, reg)
            return wedge_str(w), wedge_str(tame_symbol(w, parse_place(op.place), reg))
        if op.verb == "weil":
            w = parse_wedge(op.text, reg)
            return wedge_str(w), wedge_str(weil_sum(w, reg))
        if op.verb == "delta":
            return (wedge_str(delta(parse_gamma(op.text, reg), reg)),)
        if op.verb == "dd2":
            return (lambda_str(d_squared_check(parse_element(op.text, reg), reg)),)
        rep = snc_check(parse_wedge(op.text, reg, field="Qxy"))
        return (rep.ok,) + tuple(f"{p.kind} at {p.where}: {', '.join(p.divisors)}"
                                 for p in rep.problems)
    except Exception as exc:  # the refusal is the answer being compared
        return type(exc).__name__, str(exc)


def test_no_answer_depends_on_what_the_registry_parsed_before():
    """Each of 531 seeded texts answers alike in a fresh registry and in one
    registry shared by every text, on a forward pass that warms it and on a
    reverse pass after every other text has been through it."""
    ops = [op for k in range(3) for op in gen.session_round(1, k)
           if op.verb in VERBS]
    assert len(ops) >= 500
    assert {op.verb for op in ops} == set(VERBS)
    fresh = [_render(op, AtomRegistry()) for op in ops]
    shared = AtomRegistry()
    forward = [_render(op, shared) for op in ops]
    backward = [_render(op, shared) for op in reversed(ops)][::-1]
    for op, want, fwd, bwd in zip(ops, fresh, forward, backward):
        assert fwd == want, op.name
        assert bwd == want, op.name


def test_class_table_holds_one_class_per_value_and_field():
    reg = AtomRegistry()
    f = RatFunc.make(UniPoly.make([-2, 1]), UniPoly.make([3, 1]))
    assert mult_vec(f, reg) is mult_vec(f, reg)
    assert mult_vec(2, reg) == mult_vec(Q(2), reg)
    assert mult_vec(Q(2), reg) is mult_vec(2, reg)
    in_t, in_v = mult_vec(f, reg, "Qt"), mult_vec(f, reg, "Qv")
    assert (in_t.field, in_v.field) == ("Qt", "Qv")
    assert in_t.coeffs == in_v.coeffs and in_t != in_v
    # a BiFrac is always classed over Q(x, y), whatever field is asked for
    g = parse_bifrac("(y-x)/(x+1)")
    assert mult_vec(g, reg, "Qt") is mult_vec(g, reg, "Qxy")
    assert mult_vec(g, reg).field == "Qxy"


def test_class_table_stores_no_refusal():
    reg = AtomRegistry()
    cusp = parse_bifrac("y^2-x^3-2")
    messages = []
    for _ in range(2):
        with pytest.raises(Inconclusive) as err:
            mult_vec(cusp, reg)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert "y^2" in messages[0]
    for _ in range(2):
        with pytest.raises(ZeroDivisionError):
            mult_vec(0, reg)
        with pytest.raises(ZeroDivisionError):
            mult_vec(Q(0), reg, "Q")
    mult_vec(2, reg)
    # 2.0 == 2 and hashes alike, so a float is refused before any lookup
    for bad in ([1], 2.0):
        with pytest.raises(TypeError, match=f"^cannot take the class of {type(bad).__name__}$"):
            mult_vec(bad, reg)
    with pytest.raises(ZeroDivisionError):
        mult_vec(RatFunc.const(0), reg)
