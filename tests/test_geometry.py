"""Tests for surface/curve profiles, Riemann-Roch arithmetic and table lookup."""

from __future__ import annotations

import json
import os
from fractions import Fraction
from pathlib import Path

import pytest

from hilbtaut.formulas import rank3_check, role_name, variant_slots
from hilbtaut.graded import GradedDim
from hilbtaut.geometry import (
    Config,
    ConfigError,
    CurveBundle,
    CurveData,
    NonIntegralError,
    SurfaceData,
    chi_tensor_powers,
    curve_chi,
    curve_chis,
    curve_from_json,
    load_config,
    packaged_profile,
    pairing,
    resolve_profile,
    rr_chi,
    surface_from_json,
    surface_table,
    variant_chis,
    variant_tables,
)

# built by the loader, which files each cohomology table under its Hom class
K3 = surface_from_json({
    "chi_O": 2,
    "picard_rank": 1,
    "gram": [[4]],
    "canonical": [0],
    "bundles": {"O": [0], "H": [1]},
    "cohomology": {"O": {"0": 1, "2": 1}, "H": {"0": 4}, "dual(H)": {"2": 4}},
    "chi_Omega": -20,
})

PLANE = surface_from_json({
    "chi_O": 1,
    "picard_rank": 1,
    "gram": [[1]],
    "canonical": [-3],
    "bundles": {"O": [0], "H": [1]},
    "cohomology": {"O": {"0": 1}, "H": {"0": 3}},
    "chi_Omega": -1,
})


# -- lattice arithmetic --------------------------------------------------------


def test_pairing_uses_gram_matrix():
    h = (1,)
    assert pairing(K3, h, h) == 4
    assert pairing(PLANE, h, (2,)) == 2


def test_rr_chi_frozen_values():
    assert rr_chi(K3, (1,)) == 4
    assert rr_chi(K3, (-1,)) == 4
    assert rr_chi(K3, (0,)) == 2
    # chi(O(d)) on the plane is the triangular number (d+1)(d+2)/2
    assert [rr_chi(PLANE, (d,)) for d in range(5)] == [1, 3, 6, 10, 15]
    assert rr_chi(PLANE, (-1,)) == 0


def test_rr_chi_rejects_non_integral_input():
    twisted = SurfaceData(chi_o=1, gram=((1,),), canonical=(0,))
    with pytest.raises(NonIntegralError):
        rr_chi(twisted, (1,))


def test_chi_tensor_powers_from_lattice():
    h = (1,)
    o = (0,)
    assert chi_tensor_powers(PLANE, o, h, 4) == [1, 3, 6, 10, 15]
    assert chi_tensor_powers(K3, h, o, 2) == [4, 4, 4]


def test_chi_tensor_powers_rejects_classes_of_different_lengths():
    with pytest.raises(ValueError):
        chi_tensor_powers(PLANE, (0, 0), (1,), 2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: chi_tensor_powers(K3, (0,), (1,), -1), "k must be non-negative, got -1"),
        (lambda: pairing(K3, (1, 2), (1,)), "class length must equal picard_rank=1"),
    ],
    ids=["chi_tensor_powers_negative_k", "pairing_long_class"],
)
def test_lattice_calls_reject_bad_input_with_one_message(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_chi_omega_is_derived_from_the_lattice():
    # a hand-built surface used to leave chi_omega None
    k3 = SurfaceData(chi_o=2, gram=((4,),), canonical=(0,))
    assert k3.chi_omega == K3.chi_omega == -20
    assert PLANE.chi_omega == 9 - 10
    assert rank3_check(k3.chi_o, k3.chi_omega).value == 21


def test_curve_chi():
    rational = CurveData(genus=0)
    elliptic = CurveData(genus=1)
    assert curve_chi(rational, CurveBundle(1, 0)) == 1
    assert curve_chi(rational, CurveBundle(2, 3)) == 5
    assert curve_chi(elliptic, CurveBundle(1, 0)) == 0
    assert curve_chi(elliptic, CurveBundle(3, 2)) == 2


def test_curve_chis_roles():
    curve = CurveData(genus=0, bundles={"P": CurveBundle(1, 1)})
    chis = curve_chis(curve, {"E": "P", "F": "P"})
    assert chis == {"chi_ef": 1, "chi_e_dual": 0, "chi_f": 2, "chi_oc": 1}


# -- cohomology table lookup ----------------------------------------------------


def test_plain_dual_and_hom_keys():
    assert dict(surface_table(K3, None, "H").items()) == {0: 4}
    assert dict(surface_table(K3, "H", None).items()) == {2: 4}
    assert dict(surface_table(K3, "H", "H").items()) == {0: 1, 2: 1}
    assert dict(surface_table(K3, "O", "H").items()) == {0: 4}


def test_class_matching_fallback():
    # hom(H,H) has the class of O, so O's table answers for it even
    # though no such key was supplied.
    assert set(PLANE.class_tables) == {(0,), (1,)}
    assert dict(surface_table(PLANE, None, None).items()) == {0: 1}
    assert dict(surface_table(PLANE, "H", "H").items()) == {0: 1}


def test_missing_table_is_a_config_error():
    assert (-1,) not in PLANE.class_tables
    with pytest.raises(ConfigError, match=r"^no cohomology table for 'dual\(H\)' \(class \[-1\]\)"):
        surface_table(PLANE, "H", None)
    tableless = SurfaceData(
        chi_o=1, gram=((1,),), canonical=(-3,), bundles={"H": (1,)},
    )
    with pytest.raises(ConfigError, match=r"^no cohomology table for 'H' \(class \[1\]\)"):
        surface_table(tableless, None, "H")


def test_tables_are_never_synthesized_from_duality():
    bare = surface_from_json({
        "chi_O": 2, "picard_rank": 1, "gram": [[4]], "canonical": [0],
        "bundles": {"H": [1]}, "cohomology": {"H": {"0": 4}},
    })
    with pytest.raises(ConfigError):
        surface_table(bare, "H", None)


_TABLES_BY_CLASS = {
    "k3.json": {-1: {2: 4}, 0: {0: 1, 2: 1}, 1: {0: 4}},
    "p2.json": {-1: {}, 0: {0: 1}, 1: {0: 3}},
}


@pytest.mark.parametrize("profile", sorted(_TABLES_BY_CLASS))
def test_every_hom_space_resolves_to_the_table_of_its_class(profile):
    surface = load_config(packaged_profile(profile)).surface
    names = (None, "O", "H")
    for src in names:
        for tgt in names:
            cls = (tgt == "H") - (src == "H")
            got = surface_table(surface, src, tgt)
            assert dict(got.items()) == _TABLES_BY_CLASS[profile][cls], (src, tgt)


def _k3_with_hom_h_h(tmp_path, table):
    data = json.loads(Path(packaged_profile("k3.json")).read_text())
    data["surface"]["cohomology"]["hom(H,H)"] = table
    path = tmp_path / "k3_hom_h_h.json"
    path.write_text(json.dumps(data))
    return path


def test_two_keys_of_one_class_with_different_tables_are_rejected_at_load(tmp_path):
    # both have euler 2, as Riemann-Roch wants, but Hom*(H, H) = H*(O)
    path = _k3_with_hom_h_h(tmp_path, {"0": 2})
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == (
        "surface.cohomology['O'] and ['hom(H,H)'] are both class [0] "
        "but their tables differ"
    )



def test_variant_tables_resolves_role_names():
    tables = variant_tables(K3, variant_slots("ExtEF"), {"E": "H", "F": "H"})
    assert dict(tables["hom_ef"].items()) == {0: 1, 2: 1}
    assert dict(tables["coh_e_dual"].items()) == {2: 4}
    assert dict(tables["coh_f"].items()) == {0: 4}
    assert dict(tables["coh_o"].items()) == {0: 1, 2: 1}


def test_variant_chis_from_lattice_only():
    chis = variant_chis(K3, variant_slots("Extwedgewedge"), {"K": "H", "L": "H"})
    assert chis == {"hom_kl": 2, "coh_k_dual": 4, "coh_l": 4, "coh_o": 2}


def test_variant_chis_consistent_with_tables():
    slots = variant_slots("ExtEF")
    roles = [role_name(*slot) for slot in slots]
    tables = variant_tables(K3, slots, {"E": "H", "F": "H"})
    chis = variant_chis(K3, slots, {"E": "H", "F": "H"})
    for role in roles:
        assert tables[role].euler() == chis[role]


# -- profile parsing and validation ----------------------------------------------


def good_surface_json():
    return {
        "chi_O": 2,
        "picard_rank": 1,
        "gram": [[4]],
        "canonical": [0],
        "bundles": {"O": [0], "H": [1]},
        "cohomology": {"O": {"0": 1, "2": 1}, "H": {"0": 4}},
        "chi_Omega": -20,
    }


def test_surface_round_trip():
    surface = surface_from_json(good_surface_json())
    assert surface.chi_o == 2
    assert rr_chi(surface, surface.bundle("H")) == 4
    assert dict(surface_table(surface, None, None).items()) == {0: 1, 2: 1}


def test_surface_rejects_unknown_fields():
    data = good_surface_json()
    data["genus"] = 3
    with pytest.raises(ConfigError):
        surface_from_json(data)


def test_surface_rejects_asymmetric_gram():
    data = good_surface_json()
    data["picard_rank"] = 2
    data["gram"] = [[0, 1], [2, 0]]
    data["canonical"] = [0, 0]
    data["bundles"] = {"O": [0, 0], "H": [1, 0]}
    with pytest.raises(ConfigError):
        surface_from_json(data)


def test_surface_rejects_euler_mismatch_with_lattice():
    data = good_surface_json()
    data["cohomology"]["H"] = {"0": 5}
    with pytest.raises(ConfigError):
        surface_from_json(data)


@pytest.mark.parametrize(
    "key, table",
    [("H", {"0": 4.9}), ("H", {"0": "4"}), ("O", {"0": True, "2": 1})],
)
def test_surface_rejects_non_integer_dimensions(key, table):
    # each table would pass the Riemann-Roch check if coerced with int()
    data = good_surface_json()
    data["cohomology"][key] = table
    with pytest.raises(ConfigError, match="must be int"):
        surface_from_json(data)


def test_a_non_json_library_value_is_named_by_its_repr():
    # surface_from_json also takes Python mappings that never were JSON
    data = {**good_surface_json(), "chi_O": Fraction(2)}
    with pytest.raises(ConfigError) as err:
        surface_from_json(data)
    assert str(err.value) == 'surface.chi_O must be an integer, got "Fraction(2, 1)"'


def test_surface_rejects_wrong_vector_length():
    data = good_surface_json()
    data["bundles"]["H"] = [1, 0]
    with pytest.raises(ConfigError):
        surface_from_json(data)


def test_curve_round_trip():
    curve = curve_from_json(
        {
            "genus": 0,
            "bundles": {"P": {"rank": 1, "degree": 1}},
        }
    )
    assert curve.genus == 0
    assert curve.bundle("P") == CurveBundle(1, 1)
    assert curve.bundle("O") == CurveBundle(1, 0)
    with pytest.raises(ConfigError):
        curve_from_json({"genus": 0, "bundles": {"P": [1, 1]}})


def test_curve_rejects_unknown_fields():
    with pytest.raises(ConfigError):
        curve_from_json({"genus": 0, "gram": [[1]]})


# -- packaged profiles and configs -------------------------------------------------


def test_packaged_profiles_load_and_validate():
    for name in ("k3.json", "p2.json"):
        config = load_config(packaged_profile(name))
        assert config.surface is not None
        assert config.curve is None
    config = load_config(packaged_profile("genus0_curve.json"))
    assert config.curve is not None and config.curve.genus == 0


def test_an_unknown_packaged_profile_names_the_shipped_ones():
    with pytest.raises(ConfigError) as info:
        packaged_profile("nosuch.json")
    assert str(info.value) == (
        "no packaged profile 'nosuch.json'; "
        "shipped: ['genus0_curve.json', 'k3.json', 'p2.json']"
    )


def test_a_directory_is_not_a_config(tmp_path):
    with pytest.raises(ConfigError) as info:
        load_config(tmp_path)
    assert str(info.value) == (
        f"cannot read config {tmp_path}: [Errno 21] Is a directory: '{tmp_path}'"
    )


def test_packaged_k3_matches_fixture():
    surface = load_config(packaged_profile("k3.json")).surface
    assert surface.chi_o == K3.chi_o
    assert surface.chi_omega == K3.chi_omega
    assert surface.bundle("H") == K3.bundle("H")


def test_resolve_profile_prefers_files(tmp_path):
    target = tmp_path / "k3.json"
    target.write_text(json.dumps({"surface": good_surface_json()}))
    assert resolve_profile(str(target)) == str(target)
    assert resolve_profile("k3.json") == packaged_profile("k3.json")
    assert type(packaged_profile("k3.json")) is str
    with pytest.raises(ConfigError):
        resolve_profile("does_not_exist.json")


def test_resolve_profile_reads_a_relative_path_from_its_base(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "mine.json").write_text("{}")
    (tmp_path / "k3.json").write_text("{}")
    sub = str(tmp_path / "sub")
    assert resolve_profile("mine.json", sub) == os.path.join(sub, "mine.json")
    assert resolve_profile("sub/mine.json", str(tmp_path)) == str(tmp_path / "sub" / "mine.json")
    assert resolve_profile("k3.json", sub) == packaged_profile("k3.json")
    assert resolve_profile("k3.json") == "k3.json"
    with pytest.raises(ConfigError):
        resolve_profile("mine.json")


def test_a_profile_with_crlf_line_ends_loads(tmp_path):
    text = Path(packaged_profile("k3.json")).read_text()
    path = tmp_path / "k3_crlf.json"
    path.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    assert load_config(path) == load_config(packaged_profile("k3.json"))


def test_a_json_error_in_a_crlf_profile_gives_the_position_text_mode_gives(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{\r\n  "surface":\r\n}\r\n')
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == (
        f"config {path} is not valid JSON: Expecting value: line 3 column 1 (char 15)"
    )


def test_config_accepts_string_profile_references(tmp_path):
    path = tmp_path / "combo.json"
    path.write_text(
        json.dumps({"surface": "k3.json", "curve": "genus0_curve.json", "jobs": []})
    )
    config = load_config(path)
    assert config.surface is not None and config.surface.chi_o == 2
    assert config.curve is not None and config.curve.genus == 0


def test_config_rejects_dangling_reference(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"surface": "genus0_curve.json"}))
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_rejects_unknown_fields(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"surfaces": {}}))
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_dataclass_defaults():
    config = Config()
    assert config.surface is None and config.curve is None and config.jobs == ()
