"""Seeded op lists for the three benchmark workloads.

An op is one ``hilbtaut`` command line.  Each workload fixes a size
profile (how many ops run at each ``--n``/``--nmax``/``--n-max`` and
``--count``) and draws everything else from the seed: formula variant,
profile, bundle names, suite seeds and the order of the ops.  Fixing the
size profile keeps the total work of a list nearly the same for every
seed, so the timing metrics of two seeds are comparable; the drawn
contents still change which code paths and which series coefficients
every op exercises.

Every workload also carries a ladder: one op per size rung with a fixed
cost shape.  ``reach_n`` is the largest rung such that the ladder ops of
that rung and of every rung below it finish within the workload's
``budget_s``.  Each budget sits midway (geometrically) between two rungs
as timed, in rescaled seconds (see run.py), at the seed commit on a
2-CPU x86-64 box with Python 3.11, so the seed commit reaches the lower
of the two rungs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from reference import ROLE_CLASSES, SUBSTITUTIONS

SURFACES = ("k3.json", "p2.json")
CURVE = "genus0_curve.json"
VARIANTS = tuple(SUBSTITUTIONS)


def _letters(variant: str) -> tuple[str, ...]:
    """Bundle letters a variant reads, in order of first use."""
    roles = SUBSTITUTIONS[variant][2]
    letters = (x for role in roles for x in ROLE_CLASSES[role] if x)
    return tuple(dict.fromkeys(letters))


def _ranges(variant: str) -> tuple[str, ...]:
    """The --k/--l range flags a variant takes."""
    e_spec, f_spec, _ = SUBSTITUTIONS[variant]
    return tuple(f"--{x}" for x in ("k", "l") if x in (e_spec, f_spec))


@dataclass(frozen=True)
class Workload:
    """A workload's ladder budget; its reason is in BENCHMARK.json."""

    name: str
    #: per-op time budget of the ladder, in rescaled seconds
    budget_s: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "table_mix",
            # ladder ExtEF on k3: n=9 ~0.25 s, n=10 ~0.41-0.47 s
            budget_s=0.34,
        ),
        Workload(
            "oracle_suites",
            # ladder whom_oracle --count 1: nmax=6 ~0.12-0.19 s, nmax=7 ~1.0-1.2 s
            budget_s=0.43,
        ),
        Workload(
            "series_expand",
            # ladder bichar k3 K=H L=H: n-max=9 ~0.125 s, n-max=10 ~0.18-0.22 s
            # (n-max=11 ~0.31 s is too close above 10 for a budget between them)
            budget_s=0.16,
        ),
    )
}


def _spread(rng: random.Random, options: tuple, count: int) -> list:
    """``count`` draws that use every option equally often (up to one)."""
    out: list = []
    while len(out) < count:
        block = list(options)
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


def _table_op(formula: str, surface: str, n: int, names: dict[str, str]) -> list[str]:
    argv = ["table", "--formula", formula, "--surface", surface]
    for letter in _letters(formula):
        argv += [f"--{letter}", names[letter]]
    argv += ["--n", f"1..{n}"]
    for flag in _ranges(formula):
        argv += [flag, "0..n"]
    return argv + ["--workers", "1"]


def _bundles(rng: random.Random) -> dict[str, str]:
    return {letter: rng.choice(("O", "H")) for letter in "EFKL"}


#: random table ops per --n 1..N upper bound; the ladder covers 2..11
#: (multiples of 7 use every variant equally often, so the mix of cheap
#: one-row-per-n and costly (n+1)^2-rows-per-n variants is the same for
#: every seed; the --n 1..4 ops are the most numerous so that the median
#: op falls inside their cluster, not on the steep step from 1..3 to 1..4)
TABLE_PROFILE = {2: 21, 3: 14, 4: 28, 5: 14, 6: 7, 7: 7, 8: 7, 9: 4}
#: from this --n on, random table ops stay on k3 like the ladder: on p2
#: a zero Euler number in some slot halves the cost, and the few ops in
#: the slow tail would make the tail's timing depend on the seed
HEAVY_N = 8
TABLE_LADDER = range(2, 12)
CURVE_OPS = 12
RANK3_OPS = 4


def _table_mix(rng: random.Random) -> list[dict]:
    ops = []
    for n, count in TABLE_PROFILE.items():
        surfaces = _spread(rng, SURFACES if n < HEAVY_N else ("k3.json",), count)
        formulas = _spread(rng, VARIANTS, count)
        for surface, formula in zip(surfaces, formulas):
            ops.append({"argv": _table_op(formula, surface, n, _bundles(rng))})
    # the ladder is ExtEF on k3, where every slot has a nonzero Euler
    # number, so a rung costs the same whichever bundles the seed draws
    for n in TABLE_LADDER:
        ops.append({"argv": _table_op("ExtEF", "k3.json", n, _bundles(rng)), "rung": n})
    for _ in range(CURVE_OPS):
        ops.append(
            {
                "argv": [
                    "table", "--formula", "curve_bichar", "--curve", CURVE,
                    "--E", rng.choice(("O", "P")), "--F", rng.choice(("O", "P")),
                    "--n", f"1..{rng.randint(1, 8)}", "--workers", "1",
                ]
            }
        )
    for surface in _spread(rng, SURFACES, RANK3_OPS):
        ops.append(
            {"argv": ["table", "--formula", "rank3_check", "--surface", surface,
                      "--workers", "1"]}
        )
    return ops


#: (nmax, count) shapes of the random whom_oracle ops
#: (the cost of a whom_oracle op depends on the random spaces its suite
#: seed draws, while orbits costs the same for every seed and
#: graded_powers nearly so; the shapes are chosen so that the median op
#: falls among the orbits --nmax 5 ops and the 90th percentile among the
#: graded_powers ops, which keeps op_s.p50 and op_s.p90 steady across seeds)
WHOM_PROFILE = [(4, c) for c in (1, 2) * 16] + [(5, c) for c in (1, 2, 3) * 6] + [
    (6, 1),
    (6, 2),
]
ORBITS_PROFILE = {5: 30, 6: 10, 7: 2, 8: 1}
GRADED_OPS = 8
WHOM_LADDER = range(3, 8)
#: the ladder's suite seed is fixed so that a rung costs the same for every
#: workload seed: at --nmax 7 the spaces a suite seed draws move the cost
#: of one op from 0.6 s to 1.2 s, a tenth of the whole list's time
LADDER_SUITE_SEED = 1


def _suite_seed(rng: random.Random) -> int:
    return rng.randrange(1, 1_000_000)


def _verify_op(suite: str, seed: int, **bounds: int) -> list[str]:
    argv = ["verify", "--suite", suite, "--seed", str(seed)]
    for flag, value in bounds.items():
        argv += [f"--{flag}", str(value)]
    return argv + ["--workers", "1"]


def _oracle_suites(rng: random.Random) -> list[dict]:
    ops = [
        {"argv": _verify_op("whom_oracle", _suite_seed(rng), nmax=nmax, count=count)}
        for nmax, count in WHOM_PROFILE
    ]
    for nmax, count in ORBITS_PROFILE.items():
        ops += [{"argv": _verify_op("orbits", _suite_seed(rng), nmax=nmax)} for _ in range(count)]
    ops += [
        {"argv": _verify_op("graded_powers", _suite_seed(rng), count=rng.randint(20, 100))}
        for _ in range(GRADED_OPS)
    ]
    ops += [
        {"argv": _verify_op("whom_oracle", LADDER_SUITE_SEED, nmax=nmax, count=1), "rung": nmax}
        for nmax in WHOM_LADDER
    ]
    return ops


#: random bichar series ops per --n-max, tensor_euler --n-max values,
#: and verify appendix --count values
#: (the --n-max 9 ops are enough that the 90th percentile op falls inside
#: their cluster, not on the steep step from --n-max 8 to 9)
BICHAR_PROFILE = {6: 12, 7: 10, 8: 8, 9: 10, 10: 2, 11: 1, 12: 1}
#: from this --n-max on, random bichar ops stay on k3 (see HEAVY_N)
HEAVY_N_MAX = 9
#: (the median op of the workload falls among the tensor_euler ops;
#: their cost is flat up to --n-max 12, so most of them stay there)
TENSOR_PROFILE = [4, 6, 8, 10, 12] * 13 + [14, 16] * 5
APPENDIX_PROFILE = (1, 2, 3, 4) * 2
BICHAR_LADDER = range(6, 13)


def _series_expand(rng: random.Random) -> list[dict]:
    ops = []
    for n_max, count in BICHAR_PROFILE.items():
        for surface in _spread(rng, SURFACES if n_max < HEAVY_N_MAX else ("k3.json",), count):
            names = _bundles(rng)
            ops.append(
                {
                    "argv": [
                        "series", "--formula", "bichar", "--surface", surface,
                        "--K", names["K"], "--L", names["L"], "--n-max", str(n_max),
                    ]
                }
            )
    for n_max, surface in zip(TENSOR_PROFILE, _spread(rng, SURFACES, len(TENSOR_PROFILE))):
        names = _bundles(rng)
        ops.append(
            {
                "argv": [
                    "series", "--formula", "tensor_euler", "--surface", surface,
                    "--F", names["F"], "--L", names["L"], "--n-max", str(n_max),
                ]
            }
        )
    ops += [
        {"argv": _verify_op("appendix", _suite_seed(rng), count=count)} for count in APPENDIX_PROFILE
    ]
    ops += [
        {
            "argv": [
                "series", "--formula", "bichar", "--surface", "k3.json",
                "--K", "H", "--L", "H", "--n-max", str(n_max),
            ],
            "rung": n_max,
        }
        for n_max in BICHAR_LADDER
    ]
    return ops


_GENERATORS = {
    "table_mix": _table_mix,
    "oracle_suites": _oracle_suites,
    "series_expand": _series_expand,
}


def generate(workload: str, seed: int) -> list[dict]:
    """The op list of a workload: the same seed gives the same list.

    Each op is ``{"argv": [...]}``; ladder ops also carry ``"rung"``.
    """
    rng = random.Random(f"{workload}:{seed}")
    ops = _GENERATORS[workload](rng)
    rng.shuffle(ops)
    return ops
