"""Numeric surface and curve profiles feeding the formula layer.

A profile fixes the integers the formulas consume: the Euler
characteristic of the structure sheaf, an intersection lattice with the
canonical class, named line bundle classes, and optional graded
cohomology tables.  Riemann-Roch turns lattice data into Euler
characteristics; supplied cohomology tables are cross-validated against
it at load time, never derived.  In particular the cohomology of a dual
bundle is looked up, not computed by negating degrees.
"""

from __future__ import annotations

import json
import os
import re
import types
from collections.abc import Callable, Mapping, Sequence
from typing import NamedTuple

from .formulas import role_bundles
from .graded import GradedDim


class ConfigError(ValueError):
    """A profile or config document is malformed or inconsistent."""


class NonIntegralError(ValueError):
    """Riemann-Roch produced a non-integer; the lattice data is bad."""


#: a line bundle class: its coordinates in the profile's Picard sublattice
LatticeClass = tuple[int, ...]

#: the default of a record's map field: empty, and shared, so read-only
_NO_ENTRIES: Mapping = types.MappingProxyType({})


class SurfaceData(NamedTuple):
    """Lattice and cohomology data of a surface of Picard rank len(canonical)."""

    chi_o: int
    gram: tuple[tuple[int, ...], ...]
    canonical: LatticeClass
    bundles: Mapping[str, LatticeClass] = _NO_ENTRIES
    # each cohomology table under its Hom class, filled by surface_from_json
    class_tables: Mapping[LatticeClass, GradedDim] = _NO_ENTRIES

    @property
    def chi_omega(self) -> int:
        """K.K - 10 chi_O, by Hirzebruch-Riemann-Roch and Noether's formula."""
        return pairing(self, self.canonical, self.canonical) - 10 * self.chi_o

    def bundle(self, name: str) -> LatticeClass:
        if name in self.bundles:
            return self.bundles[name]
        if name == "O":
            return (0,) * len(self.canonical)
        raise ConfigError(f"unknown bundle {name!r}; profile has {sorted(self.bundles)}")


class CurveBundle(NamedTuple):
    rank: int
    degree: int


class CurveData(NamedTuple):
    """Genus and named bundles of a smooth projective curve profile."""

    genus: int
    bundles: Mapping[str, CurveBundle] = _NO_ENTRIES

    def bundle(self, name: str) -> CurveBundle:
        if name in self.bundles:
            return self.bundles[name]
        if name == "O":
            return CurveBundle(1, 0)
        raise ConfigError(f"unknown bundle {name!r}; profile has {sorted(self.bundles)}")


def pairing(surface: SurfaceData, a: LatticeClass, b: LatticeClass) -> int:
    """Intersection number of two classes under the profile's Gram matrix."""
    rank = len(surface.canonical)
    if len(a) != rank or len(b) != rank:
        raise ConfigError(
            f"class length must equal picard_rank={rank}"
        )
    return sum(
        a[i] * surface.gram[i][j] * b[j]
        for i in range(rank)
        for j in range(rank)
    )


def rr_chi(surface: SurfaceData, line: LatticeClass) -> int:
    """Euler characteristic of a line bundle by surface Riemann-Roch."""
    numerator = pairing(surface, line, line) - pairing(surface, line, surface.canonical)
    quot, rem = divmod(numerator, 2)
    if rem:
        raise NonIntegralError(f"non-integral Riemann-Roch: D.D - D.K = {numerator} is odd")
    return surface.chi_o + quot


def chi_tensor_powers(
    surface: SurfaceData, sheaf: LatticeClass, line: LatticeClass, k: int
) -> list[int]:
    """Euler characteristics of sheaf (x) line^p for p = 0..k."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    return [
        rr_chi(surface, tuple(s + p * c for s, c in zip(sheaf, line, strict=True)))
        for p in range(k + 1)
    ]


def curve_chi(curve: CurveData, bundle: CurveBundle) -> int:
    """Euler characteristic on a curve: degree + rank(1 - genus)."""
    return bundle.degree + bundle.rank * (1 - curve.genus)


# -- cohomology table lookup -------------------------------------------

_DUAL_KEY = re.compile(r"^dual\((?P<name>[^(),]+)\)$")
_HOM_KEY = re.compile(r"^hom\((?P<src>[^(),]+),(?P<tgt>[^(),]+)\)$")


def _key_bundles(key: str) -> tuple[str | None, str | None]:
    """Source and target of the Hom-space a cohomology key names.

    ``NAME`` is Hom*(O, NAME), ``dual(NAME)`` is Hom*(NAME, O) and
    ``hom(A,B)`` is Hom*(A, B); None stands for O.
    """
    m = _DUAL_KEY.match(key)
    if m:
        return m.group("name").strip(), None
    m = _HOM_KEY.match(key)
    if m:
        return m.group("src").strip(), m.group("tgt").strip()
    return None, key


def _table_key(src: str | None, tgt: str | None) -> str:
    """The cohomology key of Hom*(src, tgt); None stands for O."""
    if src is None:
        return tgt or "O"
    if tgt is None:
        return f"dual({src})"
    return f"hom({src},{tgt})"


def _hom_class(surface: SurfaceData, src: str | None, tgt: str | None) -> LatticeClass:
    """Lattice class of Hom(src, tgt): target minus source, None being O."""
    source, target = surface.bundle(src or "O"), surface.bundle(tgt or "O")
    return tuple(t - s for s, t in zip(source, target, strict=True))


def _curve_hom_chi(curve: CurveData, src: str | None, tgt: str | None) -> int:
    """chi(Hom(src, tgt)) on a curve by Riemann-Roch for src^dual (x) tgt."""
    a = curve.bundle(src or "O")
    b = curve.bundle(tgt or "O")
    return curve_chi(curve, CurveBundle(a.rank * b.rank, a.rank * b.degree - b.rank * a.degree))


def surface_table(surface: SurfaceData, src: str | None, tgt: str | None) -> GradedDim:
    """The supplied cohomology table of Hom*(src, tgt); None stands for O.

    For line bundles the Hom-space depends only on the lattice class of
    tgt - src, so a table is found by that class alone: any key of the
    class answers, and the loader has checked that such keys agree.
    Tables are never synthesized.
    """
    wanted = _hom_class(surface, src, tgt)
    if wanted not in surface.class_tables:
        raise ConfigError(
            f"no cohomology table for {_table_key(src, tgt)!r} (class {list(wanted)}); "
            "graded formulas need user-supplied tables"
        )
    return surface.class_tables[wanted]


def variant_tables(
    surface: SurfaceData, variant_keys: Sequence[str], names: Mapping[str, str]
) -> dict[str, GradedDim]:
    """Cohomology table for each formula table role, given the map from
    the bundle letters E, F, K, L to profile bundle names."""
    return {
        role: surface_table(surface, *role_bundles(role, names))
        for role in dict.fromkeys(variant_keys)
    }


def variant_chis(
    surface: SurfaceData, roles: Sequence[str], names: Mapping[str, str]
) -> dict[str, int]:
    """Euler characteristic for each formula table role, from the lattice."""
    return {
        role: rr_chi(surface, _hom_class(surface, *role_bundles(role, names)))
        for role in roles
    }


def curve_chis(curve: CurveData, names: Mapping[str, str]) -> dict[str, int]:
    """The four Euler characteristics the curve pairing formula needs,
    given the bundle names selected for E and F."""

    def chi(role: str) -> int:
        return _curve_hom_chi(curve, *role_bundles(role, names))

    return {
        "chi_ef": chi("hom_ef"),
        "chi_e_dual": chi("coh_e_dual"),
        "chi_f": chi("coh_f"),
        "chi_oc": chi("coh_o"),
    }


# -- profile loading and validation ------------------------------------


def _as_json(value: object) -> str:
    """A profile value as JSON shows it; a library caller's non-JSON value by repr."""
    return json.dumps(value, default=repr)


def _as_int(value: object, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {_as_json(value)}")
    return value


def _object_field(data: Mapping[str, object], field: str, section: str) -> Mapping:
    """An optional profile field that must be a JSON object when present."""
    raw = data.get(field, {})
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{section}.{field} must be a JSON object, got {_as_json(raw)}")
    return raw


def _cohomology_tables(data: Mapping[str, object]) -> dict[str, GradedDim]:
    """Parse a surface profile's cohomology map."""
    cohomology: dict[str, GradedDim] = {}
    for key, table in _object_field(data, "cohomology", "surface").items():
        if not isinstance(table, Mapping):
            raise ConfigError(f"surface.cohomology[{key!r}] must be a degree->dim map")
        try:
            cohomology[key] = GradedDim.from_json(table)
        except ValueError as exc:
            raise ConfigError(f"surface.cohomology[{key!r}]: {exc}") from None
    return cohomology


def surface_from_json(data: Mapping[str, object]) -> SurfaceData:
    known = {"chi_O", "picard_rank", "gram", "canonical", "bundles", "cohomology", "chi_Omega"}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown surface fields {sorted(unknown)}")
    for required in ("chi_O", "picard_rank", "gram", "canonical"):
        if required not in data:
            raise ConfigError(f"surface is missing field {required!r}")
    chi_o = _as_int(data["chi_O"], "surface.chi_O")
    rank = _as_int(data["picard_rank"], "surface.picard_rank")
    if rank < 1:
        raise ConfigError(f"surface.picard_rank must be positive, got {rank}")
    gram_raw = data["gram"]
    if not isinstance(gram_raw, list) or len(gram_raw) != rank:
        raise ConfigError(f"surface.gram must be a {rank}x{rank} matrix")
    gram = []
    for i, row in enumerate(gram_raw):
        if not isinstance(row, list) or len(row) != rank:
            raise ConfigError(f"surface.gram row {i} must have length {rank}")
        gram.append(tuple(_as_int(x, f"surface.gram[{i}]") for x in row))
    for i in range(rank):
        for j in range(rank):
            if gram[i][j] != gram[j][i]:
                raise ConfigError(f"surface.gram is not symmetric at ({i},{j})")
    canonical_raw = data["canonical"]
    if not isinstance(canonical_raw, list) or len(canonical_raw) != rank:
        raise ConfigError(f"surface.canonical must have length {rank}")
    canonical = tuple(_as_int(x, "surface.canonical") for x in canonical_raw)

    bundles: dict[str, LatticeClass] = {}
    for name, vec in _object_field(data, "bundles", "surface").items():
        if not isinstance(vec, list) or len(vec) != rank:
            raise ConfigError(f"surface.bundles[{name!r}] must have length {rank}")
        bundles[name] = tuple(_as_int(x, f"surface.bundles[{name!r}]") for x in vec)
    # every structure-sheaf slot is resolved through the name O
    zero = (0,) * rank
    if bundles.get("O", zero) != zero:
        got = list(bundles["O"])
        raise ConfigError(f"surface.bundles['O'] must be the zero class, got {got}")

    cohomology = _cohomology_tables(data)

    # a chi_Omega that is present must be an integer: null is not absent
    given_chi_omega = data.get("chi_Omega")
    if "chi_Omega" in data:
        _as_int(given_chi_omega, "surface.chi_Omega")

    class_tables: dict[LatticeClass, GradedDim] = {}
    surface = SurfaceData(chi_o, tuple(gram), canonical, bundles, class_tables)
    # (A - B)^2 - (A - B).K is congruent to (A^2 - A.K) + (B^2 - B.K) mod 2,
    # so even bundles make every Hom class a key or role forms integral
    for name, line in bundles.items():
        try:
            rr_chi(surface, line)
        except NonIntegralError as exc:
            raise ConfigError(f"surface.bundles[{name!r}]: {exc}") from None
    class_keys: dict[LatticeClass, str] = {}
    for key, table in cohomology.items():
        try:
            cls = _hom_class(surface, *_key_bundles(key))
        except ConfigError as exc:
            raise ConfigError(f"surface.cohomology[{key!r}]: {exc}") from None
        expected = rr_chi(surface, cls)
        if table.euler() != expected:
            raise ConfigError(
                f"surface.cohomology[{key!r}] has euler {table.euler()} "
                f"but Riemann-Roch gives {expected}"
            )
        first = class_keys.setdefault(cls, key)
        if cohomology[first] != table:
            raise ConfigError(
                f"surface.cohomology[{first!r}] and [{key!r}] are both class "
                f"{list(cls)} but their tables differ"
            )
        class_tables[cls] = table
    if given_chi_omega is not None and given_chi_omega != surface.chi_omega:
        raise ConfigError(
            f"surface.chi_Omega is {given_chi_omega} "
            f"but K.K - 10*chi_O gives {surface.chi_omega}"
        )
    return surface


def curve_from_json(data: Mapping[str, object]) -> CurveData:
    known = {"genus", "bundles"}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown curve fields {sorted(unknown)}")
    if "genus" not in data:
        raise ConfigError("curve is missing field 'genus'")
    genus = _as_int(data["genus"], "curve.genus")
    if genus < 0:
        raise ConfigError(f"curve.genus must be non-negative, got {genus}")
    bundles: dict[str, CurveBundle] = {}
    for name, spec in _object_field(data, "bundles", "curve").items():
        if not isinstance(spec, Mapping) or set(spec) != {"rank", "degree"}:
            raise ConfigError(
                f"curve.bundles[{name!r}] must be {{\"rank\": ..., \"degree\": ...}}"
            )
        rank = _as_int(spec["rank"], f"curve.bundles[{name!r}].rank")
        degree = _as_int(spec["degree"], f"curve.bundles[{name!r}].degree")
        if rank < 1:
            raise ConfigError(
                f"curve.bundles[{name!r}]: bundle rank must be positive, got {rank}"
            )
        bundles[name] = CurveBundle(rank, degree)
    structure = bundles.get("O", CurveBundle(1, 0))
    if structure != CurveBundle(1, 0):
        raise ConfigError(
            "curve.bundles['O'] must be rank 1, degree 0, "
            f"got rank {structure.rank}, degree {structure.degree}"
        )
    return CurveData(genus=genus, bundles=bundles)


class Config(NamedTuple):
    surface: SurfaceData | None = None
    curve: CurveData | None = None
    jobs: tuple[Mapping[str, object], ...] = ()


#: the directory of the example profiles shipped with the package
_PROFILES = os.path.join(os.path.dirname(__file__), "profiles")


def packaged_profile(name: str) -> str:
    """Path of one of the example profiles shipped with the package."""
    candidate = os.path.join(_PROFILES, name)
    if not os.path.isfile(candidate):
        shipped = sorted(entry for entry in os.listdir(_PROFILES) if entry.endswith(".json"))
        raise ConfigError(f"no packaged profile {name!r}; shipped: {shipped}")
    return candidate


def resolve_profile(spec: str, base: str = "") -> str:
    """Interpret a profile argument as a path, else as a packaged name.
    A relative path is read from ``base``, by default the working directory."""
    path = os.path.join(base, spec)
    if os.path.isfile(path):
        return path
    try:
        return packaged_profile(spec)
    except ConfigError:
        raise ConfigError(
            f"profile {spec!r} is neither an existing file nor a packaged profile"
        ) from None


def _nested_section(
    value: object, field: str, parse: Callable, path: str, referenced_from: tuple[str, ...]
):
    """A config section is either an inline object or a profile reference,
    which is resolved from the directory of ``path``, the file holding it.

    ``referenced_from`` lists the real paths of the profiles whose
    references led to ``path``; a reference from a profile already on
    that chain closes a cycle.  Only this check reads a real path.
    """
    if isinstance(value, str):
        chain = (*referenced_from, os.path.realpath(path))
        if chain[-1] in referenced_from:
            cycle = " -> ".join(chain[referenced_from.index(chain[-1]):])
            raise ConfigError(f"config {path} references itself: {cycle}")
        loaded = load_config(
            resolve_profile(value, os.path.dirname(path)), referenced_from=chain
        )
        part = getattr(loaded, field)
        if part is None:
            raise ConfigError(f"profile {value!r} does not define a {field}")
        return part
    if not isinstance(value, Mapping):
        raise ConfigError(f"config field {field!r} must be an object or a profile name")
    return parse(value)


def load_config(path: str | os.PathLike, referenced_from: tuple[str, ...] = ()) -> Config:
    """Load a JSON profile: {"surface": ..., "curve": ..., "jobs": [...]}.

    ``referenced_from`` lists the real paths of the profiles whose
    references led here; a reference from a profile that is already on
    that chain is a reference cycle.
    """
    try:
        with open(path, encoding="utf-8") as file:
            data = json.loads(file.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ConfigError(f"config {path} nests too deeply to parse") from None
    if not isinstance(data, Mapping):
        raise ConfigError(f"config {path} must be a JSON object")
    known = {"surface", "curve", "jobs"}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config fields {sorted(unknown)}")
    surface = curve = None
    if "surface" in data:
        surface = _nested_section(
            data["surface"], "surface", surface_from_json, path, referenced_from
        )
    if "curve" in data:
        curve = _nested_section(data["curve"], "curve", curve_from_json, path, referenced_from)
    jobs = data.get("jobs", [])
    if not isinstance(jobs, list) or not all(isinstance(j, Mapping) for j in jobs):
        raise ConfigError("config field 'jobs' must be a list of objects")
    return Config(surface=surface, curve=curve, jobs=tuple(jobs))
