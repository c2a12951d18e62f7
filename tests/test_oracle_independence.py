"""The oracle must stay independent of what it checks.

``oracle.py`` may import nothing from the closed formulas or the series
layer, and must never name the closed power functions ``sym_power``,
``wedge_power`` or their list forms ``sym_powers`` and ``wedge_powers``;
its own powers come from basis enumeration.  The check
reads the module's syntax tree, so it holds for every code path, not
only the ones a test happens to run.
"""

from __future__ import annotations

import ast
from pathlib import Path

import hilbtaut.oracle

FORBIDDEN_MODULES = {"formulas", "series"}
FORBIDDEN_NAMES = {"sym_power", "wedge_power", "sym_powers", "wedge_powers"}


def _tree() -> ast.Module:
    return ast.parse(Path(hilbtaut.oracle.__file__).read_text())


def test_oracle_imports_neither_formulas_nor_series():
    imported: list[str] = []
    for node in ast.walk(_tree()):
        if isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
            # ``from . import formulas`` names the module as an alias
            if not node.module or node.module == "hilbtaut":
                imported.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
    assert not [m for m in imported if set(m.split(".")) & FORBIDDEN_MODULES]


def test_oracle_never_names_the_closed_powers():
    named = set()
    for node in ast.walk(_tree()):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.update({node.name, node.asname})
    assert not named & FORBIDDEN_NAMES
