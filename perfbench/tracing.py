"""Layer spans recorded from outside the program.

``install`` wraps the layer-boundary functions of ``hilbtaut`` at every
name a caller resolves them by: the defining module, every module that
imported the function by name, and every alias on a class (``__rmul__``
is ``__mul__``).  Each call records a span ``[name, start, end, parent,
counts, count_s]`` in the tracer's list; ``parent`` is the index of the
enclosing span or -1.  Counts that describe the work of a call are taken
from its arguments before the span's clock starts; ``count_s`` is the
time that took, which falls inside the parent span and is not the
parent's own work.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections.abc import Callable


def _term_count(x: object) -> int:
    terms = getattr(x, "terms", None)
    return len(terms()) if callable(terms) else 1


def _mul_counts(a: object, b: object) -> dict[str, int]:
    return {"term_pairs": _term_count(a) * _term_count(b)}


@functools.cache
def partitions(n: int) -> int:
    """Number of partitions of n, i.e. conjugacy classes of S_n."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def _averaging_counts(n: int, *_: object) -> dict[str, int]:
    return {"perms": math.factorial(n), "classes": partitions(n)}


def _orbit_counts(n: int, e: int, f: int) -> dict[str, int]:
    return {"pairs": math.comb(n, e) * math.comb(n, f)}


#: (module, qualified name, counter) of every traced layer boundary
TRACED: tuple[tuple[str, str, Callable | None], ...] = (
    ("cli", "main", None),
    ("cli", "run_table", None),
    ("cli", "run_verify", None),
    ("cli", "run_series", None),
    ("cli", "rows_to_csv", None),
    ("verify", "run_suite", None),
    ("verify", "parallel_map", None),
    ("formulas", "bichar_series", None),
    ("formulas", "bichar_product", None),
    ("formulas", "tensor_euler_series", None),
    ("formulas", "w_hom", None),
    ("formulas", "bichar_closed", None),
    ("graded", "sym_power", None),
    ("graded", "wedge_power", None),
    ("graded", "GradedDim.tensor", None),
    ("series", "TruncSeries.__mul__", _mul_counts),
    ("series", "TruncSeries.__add__", None),
    ("series", "TruncSeries.exp", None),
    ("series", "TruncSeries.int_pow", None),
    ("oracle", "invariant_dim", _averaging_counts),
    ("oracle", "orbit_decomposition", _orbit_counts),
    ("oracle", "oracle_sym_power", None),
    ("oracle", "oracle_wedge_power", None),
    ("geometry", "load_config", None),
    ("geometry", "variant_tables", None),
    ("geometry", "variant_chis", None),
)


class Tracer:
    """Span list of the current op; a forked child fills its own copy."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, counter: Callable | None) -> Callable:
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts, count_s = None, 0.0
            if counter:
                count_start = clock()
                counts = counter(*args, **kwargs)
                count_s = clock() - count_start
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, counts, count_s]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                self._stack.pop()

        return traced


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every ``TRACED`` function; returns a function that unwraps.

    A name the program no longer has is skipped, so its metrics read 0.
    """
    modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "hilbtaut"]
    undo: list[tuple[object, str, object]] = []
    for module_name, qualname, counter in TRACED:
        owner: object = importlib.import_module(f"hilbtaut.{module_name}")
        *outer, attr = qualname.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if not callable(original):
            continue
        wrapper = tracer.wrap(f"{module_name}.{qualname}", original, counter)
        for target in [owner] if outer else modules:
            for key, value in list(vars(target).items()):
                if value is original:
                    undo.append((target, key, original))
                    setattr(target, key, wrapper)

    def uninstall() -> None:
        for target, key, original in reversed(undo):
            setattr(target, key, original)

    return uninstall
