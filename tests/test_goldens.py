"""Byte-stable command output: the README examples, a suite report, and the
surface and curve verbs on seeded corpora.

`python tests/test_goldens.py` rewrites the surface-verb and curve-verb
goldens.
"""

import io
import random
import shlex
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as Q
from pathlib import Path

import pytest

from tamesym import INF, AtomRegistry, defining_bipoly, parse_wedge
from tamesym.cli import main
from tamesym.places import finite_support_divisors
from test_mirror import SWAP, _slot

ROOT = Path(__file__).resolve().parent.parent
SURFACE_GOLDEN = ROOT / "tests" / "golden" / "surface_verbs.txt"
CURVE_GOLDEN = ROOT / "tests" / "golden" / "curve_verbs.txt"


def readme_examples() -> list[tuple[str, list[str]]]:
    """Each `tamesym ...` line of README.md followed by the `# ` lines that
    show its output."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    out = []
    for i, line in enumerate(lines):
        if not line.startswith("tamesym "):
            continue
        shown = []
        for nxt in lines[i + 1:]:
            if not nxt.startswith("# "):
                break
            shown.append(nxt[2:])
        if shown:
            out.append((line, shown))
    return out


EXAMPLES = readme_examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 4


@pytest.mark.parametrize("command, shown", EXAMPLES,
                         ids=[c for c, _ in EXAMPLES])
def test_readme_example(capsys, command, shown):
    main(shlex.split(command)[1:])
    assert capsys.readouterr().out.splitlines() == shown


def test_suite_json_golden(capsys):
    assert main(["suite", "--seed", "7", "--scale", "10",
                 "--format", "json"]) == 0
    golden = (ROOT / "tests" / "golden" / "suite_seed7_scale10.json")
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def surface_wedges(n: int = 40) -> list[str]:
    """Seeded wedges from the mirror-test slot kinds, each with its x<->y
    swap."""
    rng = random.Random("surface-verbs-1")
    out = []
    for _ in range(n):
        slots = [_slot(rng) for _ in range(rng.randrange(2, 5))]
        text = f"w[{', '.join(slots)}]"
        out += [text, text.translate(SWAP)]
    return out


def _run_block(argv: list[str]) -> str:
    """The command, its stdout, its stderr (prefixed "! ") and its exit
    code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return (f"$ tamesym {shlex.join(argv)}\n{out.getvalue()}"
            + "".join(f"! {line}\n" for line in err.getvalue().splitlines())
            + f"exit {code}\n")


_PARAMS = sorted({Q(p, q) for p in range(-9, 10) for q in (1, 2, 3)})


def meeting_points(text: str) -> list[tuple[Q, Q]]:
    """Finite points where two or more of the wedge's finite divisors meet,
    found by walking each divisor over the parameters -9..9 in steps of
    1/6 or 1/3."""
    divisors = finite_support_divisors(
        parse_wedge(text, AtomRegistry(), field="Qxy"))
    equations = [defining_bipoly(d) for d in divisors]
    points = set()
    for d in divisors:
        for s in _PARAMS:
            v = d.phi().evaluate_projective(s)
            if v is INF:
                continue
            pt = (s, v) if d.var == "y" else (v, s)
            if sum(g.evaluate(*pt) == 0 for g in equations) >= 2:
                points.add(pt)
    return sorted(points)


def surface_verbs_text() -> str:
    """`snc` (as text and as JSON, whose certificate counts the candidate
    points), `dd2` and `ts --divisor` at x=0, y=inf and y=x on every corpus
    wedge, and `blowup` at every point where two of its divisors meet."""
    blocks = []
    for text in surface_wedges():
        m = text.count(",") - 1
        for argv in (["snc", text], ["snc", "--format", "json", text],
                     ["dd2", f"m={m}; [S: {text}]"],
                     ["ts", "--divisor", "x=0", text],
                     ["ts", "--divisor", "y=inf", text],
                     ["ts", "--divisor", "y=x", text]):
            blocks.append(_run_block(argv))
        for a, b in meeting_points(text):
            blocks.append(_run_block(["blowup", f"--center={a},{b}", text]))
    return "".join(blocks)


def test_surface_verbs_golden():
    assert surface_verbs_text() == SURFACE_GOLDEN.read_text(encoding="utf-8")


def _num(rng) -> str:
    return rng.choice(["-3", "-2", "-1", "2", "3", "5", "1/2", "-2/3"])


def _curve_slot(rng) -> tuple[str, list[str]]:
    """A slot over Q(t) and the rational roots of its linear factors."""
    kind = rng.randrange(9)
    a, b = rng.sample(["-3", "-2", "-1", "1", "2", "3", "1/2"], 2)
    if kind == 0:
        return "t", ["0"]
    if kind == 1:
        return f"t-({a})", [a]
    if kind == 2:
        return f"({_num(rng)})*(t-({a}))", [a]
    if kind == 3:
        return f"(t-({a}))*(t-({b}))", [a, b]
    if kind == 4:
        return f"(t-({a}))/(t-({b}))", [a, b]
    if kind == 5:
        return f"1-({_num(rng)})/t", ["0"]
    if kind == 6:
        return f"(t-({a}))^2", [a]
    if kind == 7 and rng.random() < 0.5:
        return "t^2+1", []
    return _num(rng), []


def curve_wedges(n: int = 40) -> list[tuple[str, str]]:
    """Seeded wedges over Q(t), mostly split, each with a finite place where
    one of its linear atoms vanishes (t=1 if it has none)."""
    rng = random.Random("curve-verbs-1")
    out = []
    for _ in range(n):
        slots, roots = [], []
        for _ in range(rng.randrange(2, 5)):
            text, rs = _curve_slot(rng)
            slots.append(text)
            roots += rs
        coeff = rng.choice(["", "", "2*", "-1/3*"])
        out.append((f"{coeff}w[{', '.join(slots)}]",
                    rng.choice(roots) if roots else "1"))
    return out


def curve_symbols(n: int = 40) -> list[tuple[str, str]]:
    """Seeded weight-two elements {x}_2 @ tail over Q(t), x a rational number
    or a ratio of split polynomials and the tail split, each with a finite
    place where the argument or the tail has a zero or a pole."""
    rng = random.Random("curve-verbs-2")
    out = []
    for _ in range(n):
        terms, roots = [], []
        k = rng.choice([0, 1, 1, 2])  # tail degree, the same in every term
        for _ in range(rng.randrange(1, 3)):
            a, b, c = rng.sample(["-3", "-2", "-1", "1", "2", "3", "1/2"], 3)
            x = rng.choice([_num(rng), "t", f"({_num(rng)})*t",
                            f"({_num(rng)})*(t-({a}))/(t-({b}))",
                            f"(t-({a}))*(t-({b}))/(t-({c}))^2"])
            roots += [a, b]
            slots = [_curve_slot(rng) for _ in range(k)]
            tail = f" @ w[{', '.join(text for text, _ in slots)}]" if k else ""
            roots += [r for _, rs in slots for r in rs]
            coeff = rng.choice(["", "2*", "1/2*"])
            terms.append(f"{coeff}{{{x}}}_2{tail}")
        out.append((" + ".join(terms), rng.choice(roots)))
    return out


def curve_verbs_text() -> str:
    """`ts --place` at t=0, at a root and at t=inf, `weil`, `decomp`, `h`
    and `homotopy-check` on every corpus wedge; `delta`, `ts-gamma` at t=0
    and at a root, and `homotopy-check --sub` on every corpus symbol."""
    blocks = []
    for text, root in curve_wedges():
        for argv in (["ts", "--place", "t=0", text],
                     ["ts", "--place", f"t={root}", text],
                     ["ts", "--place", "t=inf", text],
                     ["weil", text], ["decomp", text], ["h", text],
                     ["homotopy-check", text]):
            blocks.append(_run_block(argv))
    for text, root in curve_symbols():
        for argv in (["delta", text],
                     ["ts-gamma", "--place", "t=0", text],
                     ["ts-gamma", "--place", f"t={root}", text],
                     ["homotopy-check", "--sub", text]):
            blocks.append(_run_block(argv))
    return "".join(blocks)


def test_curve_verbs_golden():
    assert curve_verbs_text() == CURVE_GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    SURFACE_GOLDEN.write_text(surface_verbs_text(), encoding="utf-8")
    CURVE_GOLDEN.write_text(curve_verbs_text(), encoding="utf-8")
