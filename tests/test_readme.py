"""The README's examples run as written."""

import doctest
import shlex
from pathlib import Path

import pytest

from vknots.cli import build_parser

from .conftest import cli_subcommands

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def _command_lines() -> list[str]:
    """The `vknots ...` lines of the README's "Command line" block."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("vknots ")]


def test_readme_command_lines_parse():
    lines = _command_lines()
    commands = set()
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        try:
            commands.add(build_parser().parse_args(argv).command)
        except SystemExit:
            pytest.fail(f"the parser refuses the README line {line!r}")
    assert commands == set(cli_subcommands())
