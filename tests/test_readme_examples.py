"""Every ``hilbtaut table``, ``series`` and ``verify`` example in README runs.

The command lines come from README's fenced ``sh`` blocks, with lines
continued by a trailing backslash joined, so a flag change that breaks a
documented example fails here.  The ``python`` blocks run too, each
``# text`` line after a bare expression being that value's repr, and every
``json`` block loads as a profile or config.
"""

from __future__ import annotations

import ast
import re
import shlex
from pathlib import Path

import pytest

from hilbtaut.cli import main
from hilbtaut.geometry import load_config

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), re.M | re.S)


def _examples() -> list[str]:
    commands = []
    for block in _blocks("sh"):
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


def test_readme_has_python_and_json_blocks():
    assert _blocks("python") and _blocks("json")


def _numbered(language: str):
    """Parametrize over the README blocks of ``language``, named by position."""
    blocks = _blocks(language)
    return pytest.mark.parametrize("block", blocks, ids=[f"{language}{i}" for i in range(len(blocks))])


@_numbered("python")
def test_readme_python_block_shows_each_value_it_computes(block):
    lines = block.splitlines()
    namespace: dict = {}
    shown = []
    for statement in ast.parse(block).body:
        if isinstance(statement, ast.Expr):
            value = eval(compile(ast.Expression(statement.value), "README", "eval"), namespace)
            shown.append((lines[statement.end_lineno], f"# {value!r}"))
        else:
            exec(compile(ast.Module([statement], []), "README", "exec"), namespace)
    assert shown
    assert [line for line in lines if line.startswith("# ")] == [want for _, want in shown]
    for line, want in shown:
        assert line == want


@_numbered("json")
def test_readme_json_block_loads(tmp_path, block):
    path = tmp_path / "readme.json"
    path.write_text(block)
    config = load_config(path)
    assert config.surface is not None or config.curve is not None
