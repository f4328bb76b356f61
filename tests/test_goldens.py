"""Byte-stable command output: the README examples, a suite report and the
surface verbs on a seeded corpus.

`python tests/test_goldens.py` rewrites the surface-verb golden.
"""

import io
import random
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from tamesym.cli import main
from test_mirror import SWAP, _slot

ROOT = Path(__file__).resolve().parent.parent
SURFACE_GOLDEN = ROOT / "tests" / "golden" / "surface_verbs.txt"


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


def surface_verbs_text() -> str:
    """`snc`, `dd2` and `ts --divisor` at x=0, y=inf and y=x on every
    corpus wedge: the command, its stdout, its stderr (prefixed "! ") and
    its exit code."""
    blocks = []
    for text in surface_wedges():
        m = text.count(",") - 1
        for argv in (["snc", text], ["dd2", f"m={m}; [S: {text}]"],
                     ["ts", "--divisor", "x=0", text],
                     ["ts", "--divisor", "y=inf", text],
                     ["ts", "--divisor", "y=x", text]):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            blocks.append(f"$ tamesym {shlex.join(argv)}\n{out.getvalue()}"
                          + "".join(f"! {line}\n" for line
                                    in err.getvalue().splitlines())
                          + f"exit {code}\n")
    return "".join(blocks)


def test_surface_verbs_golden():
    assert surface_verbs_text() == SURFACE_GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    SURFACE_GOLDEN.write_text(surface_verbs_text(), encoding="utf-8")
