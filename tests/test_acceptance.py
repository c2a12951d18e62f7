"""Acceptance suite: one test per gating criterion, exact arithmetic throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Every comparison is integer-exact; there are no
tolerances anywhere.
"""

from __future__ import annotations

import time

from hilbtaut import cli, verify
from hilbtaut.formulas import (
    VARIANTS,
    BicharInput,
    bichar_closed,
    curve_bichar,
    rank3_check,
    taut_formula,
    taut_substitution,
    variant_signature,
    w_hom,
)
from hilbtaut.geometry import load_config, packaged_profile, variant_chis, variant_tables
from hilbtaut.oracle import invariant_dim


def report(number: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} {status}: {label} ({detail})")
    assert ok, f"criterion {number} failed: {label}: {detail}"


def failed_checks(verdict: dict) -> list[str]:
    return [c["name"] for c in verdict["checks"] if not c["pass"]]


def test_criterion_1_appendix_suite_under_ten_seconds():
    start = time.perf_counter()
    verdict = verify.run_suite("appendix", seed=verify.DEFAULT_SEED)
    elapsed = time.perf_counter() - start
    ok = verdict["pass"] and elapsed < 10.0
    report(
        1,
        "scalar-coefficient and three-way series identities",
        ok,
        f"checks failed: {failed_checks(verdict)}, elapsed {elapsed:.2f}s < 10s",
    )


def test_criterion_2_whom_matches_group_averaging():
    start = time.perf_counter()
    verdict = verify.run_suite(
        "whom_oracle", seed=verify.DEFAULT_SEED, nmax=5, count=20
    )
    elapsed = time.perf_counter() - start
    families = next(
        c.get("families") for c in verdict["checks"] if c["name"] == "matches_group_averaging"
    )
    ok = verdict["pass"] and families >= 20 and elapsed < 120.0
    report(
        2,
        "closed graded Hom formula equals invariant-averaging oracle",
        ok,
        f"families {families} >= 20, n <= 5 all e,f, elapsed {elapsed:.2f}s < 120s",
    )


def test_criterion_3_orbit_classification():
    verdict = verify.run_suite("orbits", seed=verify.DEFAULT_SEED, nmax=7)
    ok = verdict["pass"] and verdict["cells"] > 0
    report(
        3,
        "orbit counts, stabilizer orders and reference pairs for n <= 7",
        ok,
        f"{verdict['cells']} (n,e,f) cells, checks failed: {failed_checks(verdict)}",
    )


def test_criterion_4_variant_coherence_on_the_k3_fixture():
    surface = load_config(packaged_profile("k3.json")).surface
    cells = 0
    bad: list[tuple] = []
    for names in ({"E": "O", "F": "O", "K": "O", "L": "O"},
                  {"E": "H", "F": "H", "K": "H", "L": "H"}):
        for variant in VARIANTS:
            e_spec, f_spec, roles = variant_signature(variant)
            tables = variant_tables(surface, roles, names)
            chis = variant_chis(surface, roles, names)
            for n in range(1, 7):
                ks = range(n + 1) if "k" in (e_spec, f_spec) else (0,)
                ls = range(n + 1) if "l" in (e_spec, f_spec) else (0,)
                for k in ks:
                    for l in ls:
                        inp = taut_substitution(variant, n, k, l, tables)
                        graded = taut_formula(variant, n, k, l, tables)
                        if graded != w_hom(inp):
                            bad.append((variant, n, k, l, "w_hom"))
                        closed = bichar_closed(
                            BicharInput(
                                n, inp.e, inp.f,
                                chis[roles[0]], chis[roles[1]],
                                chis[roles[2]], chis[roles[3]],
                            )
                        )
                        if graded.euler() != closed:
                            bad.append((variant, n, k, l, "euler"))
                        if n <= 3:
                            oracle_value = invariant_dim(
                                n, inp.e, inp.f, inp.hom_ef, inp.coh_e_dual,
                                inp.coh_f, inp.coh_o,
                            )
                            if graded != oracle_value:
                                bad.append((variant, n, k, l, "oracle"))
                        cells += 1
    report(
        4,
        "all seven formula variants cohere with the master formula and "
        "their Euler numbers",
        not bad,
        f"{cells} cells over n <= 6, two bundle assignments; mismatches: {bad[:3]}",
    )


def test_criterion_5_tensor_euler_triangle():
    verdict = verify.run_suite(
        "tensor_euler", seed=verify.DEFAULT_SEED, nmax=6, count=20
    )
    inputs = next(
        c.get("inputs") for c in verdict["checks"] if c["name"] == "closed_terms_series_agree"
    )
    ok = verdict["pass"] and inputs >= 22  # two fixtures x three pairs + 20 random
    report(
        5,
        "closed sum, per-term list and series expansion agree for "
        "tensor-with-wedge Euler numbers",
        ok,
        f"{inputs} inputs (fixtures + randoms), n <= 6, checks failed: "
        f"{failed_checks(verdict)}",
    )


def test_criterion_6_graded_powers_against_basis_enumeration():
    verdict = verify.run_suite("graded_powers", seed=verify.DEFAULT_SEED, count=100)
    cases = next(
        c.get("cases") for c in verdict["checks"] if c["name"] == "matches_basis_enumeration"
    )
    eulers = next(
        c.get("cases") for c in verdict["checks"] if c["name"] == "euler_compatibility"
    )
    ok = verdict["pass"] and cases > 0 and eulers >= 100
    report(
        6,
        "graded symmetric/exterior powers equal basis enumeration and "
        "factor through scalar Euler operations",
        ok,
        f"{cases} enumerated power comparisons, {eulers} random Euler checks, "
        f"checks failed: {failed_checks(verdict)}",
    )


def test_criterion_7_curve_surface_discrepancy_and_rank3():
    curve_value = curve_bichar(2, 1, 1, 1, 1)
    surface_value = bichar_closed(BicharInput(2, 1, 1, 1, 1, 1, 1))
    check = rank3_check(2, -20)
    ok = curve_value == 1 and surface_value == 2 and check == (21, 1)
    report(
        7,
        "two points on a curve give 1 where a surface gives 2; the "
        "rank-three comparison on the K3 fixture gives (21, 1)",
        ok,
        f"curve {curve_value}, surface {surface_value}, rank3 {tuple(check)}",
    )


def test_criterion_8_byte_identical_output_across_worker_counts(tmp_path):
    table_args = [
        "table", "--formula", "Extwedgewedge", "--surface", "k3.json",
        "--n", "1..4", "--k", "0..n", "--l", "0..n",
    ]
    verify_args = ["verify", "--suite", "whom_oracle"]
    outputs = {}
    for name, args in (("table", table_args), ("verify", verify_args)):
        blobs = []
        for workers in (1, 4):
            out = tmp_path / f"{name}_{workers}"
            code = cli.main(args + ["--workers", str(workers), "--out", str(out)])
            assert code == 0
            blobs.append(out.read_bytes())
        outputs[name] = blobs[0] == blobs[1]
    ok = all(outputs.values())
    report(
        8,
        "table and verify output is byte-identical across worker counts",
        ok,
        f"table identical: {outputs['table']}, verify identical: {outputs['verify']}",
    )
