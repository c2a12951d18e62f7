"""The benchmark's layer tracer must find every function it names.

``perfbench/tracing.py`` skips a name the program no longer has, and the
per-layer metrics of that name then read 0; this test turns a rename in
``hilbtaut`` into a failure instead.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module_name, qualname, _ in tracing.TRACED:
        owner = importlib.import_module(f"hilbtaut.{module_name}")
        for part in qualname.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{qualname}")
    assert missing == []
