"""Every ``hilbtaut table``, ``series`` and ``verify`` example in README runs.

The command lines come from README's fenced ``sh`` blocks, with lines
continued by a trailing backslash joined, so a flag change that breaks a
documented example fails here.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from hilbtaut.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples() -> list[str]:
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith(("hilbtaut table ", "hilbtaut series ", "hilbtaut verify ")):
                commands.append(" ".join(line.split()))
    return commands


def test_readme_has_table_and_series_examples():
    commands = _examples()
    assert any(c.startswith("hilbtaut table ") for c in commands)
    assert any(c.startswith("hilbtaut series ") for c in commands)


def test_readme_has_verify_examples_for_both_oracles():
    commands = _examples()
    assert any(c.startswith("hilbtaut verify --suite whom_oracle") for c in commands)
    assert any(c.startswith("hilbtaut verify --suite orbits") for c in commands)


@pytest.mark.parametrize("command", _examples())
def test_readme_example_runs(capsys, command):
    code = main(shlex.split(command)[1:])
    err = capsys.readouterr().err
    assert code == 0, err
