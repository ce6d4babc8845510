"""The prose that ships with the package: README's examples run, and no source file quotes a machine."""

import re
import shlex
from pathlib import Path

import pytest

from zonalpoly.cli import main

from clirun import Runner

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "zonalpoly").glob("*.py"))

#: Words that tie a measurement to the machine it was taken on.  Timings
#: belong in the BENCH_*.json files and CHANGES.md, which name their machine.
MACHINE_NOTES = re.compile(r"\bVM\b|vCPU|Python 3\.|numpy 2\.")

#: A quoted duration, such as "0.4 s" or "2 ms".
TIMINGS = re.compile(r"\d(?:\.\d+)? ?m?s\b")


def readme_blocks(language: str) -> list[str]:
    """The fenced blocks of README.md opened with ```language, in order."""
    text = (ROOT / "README.md").read_text()
    return re.findall(rf"^```{language}\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)


def readme_command_lines() -> list[list[str]]:
    """Every ``zonalpoly ...`` line of README's sh blocks, as the arguments after ``zonalpoly``."""
    lines = [
        shlex.split(line, comments=True)
        for block in readme_blocks("sh")
        for line in block.splitlines()
    ]
    return [words[1:] for words in lines if words[:1] == ["zonalpoly"]]


def test_readme_library_sketch_runs():
    (sketch,) = readme_blocks("python")
    exec(compile(sketch, "README.md", "exec"), {})


@pytest.mark.parametrize("args", readme_command_lines(), ids=" ".join)
def test_readme_command_line_exits_zero(args):
    result = Runner().invoke(main, args)
    assert result.exit_code == 0, result.output


def test_readme_shows_every_command():
    assert {args[0] for args in readme_command_lines()} == set(main.commands)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_source_names_no_machine_and_no_timing(path):
    lines = path.read_text().splitlines()
    assert [line for line in lines if MACHINE_NOTES.search(line)] == []
    assert [line for line in lines if TIMINGS.search(line)] == []
