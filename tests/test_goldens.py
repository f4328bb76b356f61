"""Byte-stable command output: the README examples and a suite report."""

import shlex
from pathlib import Path

import pytest

from tamesym.cli import main

ROOT = Path(__file__).resolve().parent.parent


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
