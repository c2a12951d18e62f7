"""Tests for the verification-suite plumbing."""

from __future__ import annotations

import math
import random

import pytest

from hilbtaut import verify
from hilbtaut.oracle import orbit_decomposition
from hilbtaut.verify import (
    DEFAULT_SEED,
    SUITES,
    expected_orbit_profile,
    parallel_map,
    random_space,
    run_suite,
    standard_pair,
)


def test_parallel_map_preserves_order():
    items = list(range(-6, 7))
    assert parallel_map(abs, items, 1) == [abs(i) for i in items]
    assert parallel_map(abs, items, 3) == [abs(i) for i in items]


def test_parallel_map_caps_the_pool_at_the_item_count(monkeypatch):
    sizes = []

    class StubPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(verify, "ProcessPoolExecutor", StubPool)
    assert parallel_map(abs, [-1, 2, -3], 64) == [1, 2, 3]
    assert sizes == [3]


def test_random_space_is_seed_deterministic():
    a = random_space(random.Random(5))
    b = random_space(random.Random(5))
    assert a == b


def test_random_space_respects_bounds():
    rng = random.Random(0)
    for _ in range(50):
        space = random_space(rng, max_total=3, degrees=(0, 1, 2))
        assert sum(m for _, m in space.items()) <= 3
        assert all(d in (0, 1, 2) for d, _ in space.items())


def test_run_suite_dispatch_and_verdict_shape():
    verdict = run_suite("appendix", seed=11, nmax=2, count=3)
    assert verdict["suite"] == "appendix"
    assert verdict["seed"] == 11
    assert isinstance(verdict["bounds"], dict)
    assert verdict["pass"] is True
    assert all(set(c) >= {"name", "pass"} for c in verdict["checks"])


def test_run_suite_rejects_unknown_name():
    with pytest.raises(ValueError):
        run_suite("nonsense")


def test_all_suites_are_runnable_small():
    small = {
        "appendix": {"nmax": 2, "count": 2},
        "whom_oracle": {"nmax": 2, "count": 2},
        "tensor_euler": {"nmax": 2, "count": 2},
        "graded_powers": {"count": 5},
        "orbits": {"nmax": 4},
    }
    for name in SUITES:
        verdict = run_suite(name, seed=DEFAULT_SEED, **small[name])
        assert verdict["pass"] is True, name


def test_expected_orbit_profile_matches_enumeration():
    for n, e, f in [(3, 1, 1), (5, 2, 2), (6, 3, 1)]:
        profile = expected_orbit_profile(n, e, f)
        found = {
            o.representative.overlap(): o.stabilizer_order
            for o in orbit_decomposition(n, e, f).orbits
        }
        assert profile == found


def test_standard_pair_hits_every_overlap():
    n, e, f = 6, 3, 2
    for i in range(max(0, e + f - n), min(e, f) + 1):
        pair = standard_pair(e, f, i)
        assert len(pair.first_indices()) == e
        assert len(pair.second_indices()) == f
        assert pair.overlap() == i


def test_orbit_sizes_follow_from_stabilizers():
    for n, e, f in [(4, 2, 1), (5, 2, 2)]:
        for orbit in orbit_decomposition(n, e, f).orbits:
            assert orbit.size == math.factorial(n) // orbit.stabilizer_order


def test_suite_results_are_reproducible():
    a = run_suite("whom_oracle", seed=3, nmax=2, count=2)
    b = run_suite("whom_oracle", seed=3, nmax=2, count=2)
    assert a == b


def test_workers_do_not_change_verdicts():
    a = run_suite("tensor_euler", seed=5, nmax=3, count=3, workers=1)
    b = run_suite("tensor_euler", seed=5, nmax=3, count=3, workers=3)
    assert a == b
