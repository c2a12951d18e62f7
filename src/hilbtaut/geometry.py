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
import re
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from .formulas import role_bundles
from .graded import GradedDim


class ConfigError(ValueError):
    """A profile or config document is malformed or inconsistent."""


class NonIntegralError(ValueError):
    """Riemann-Roch produced a non-integer; the lattice data is bad."""


@dataclass(frozen=True)
class LineBundleClass:
    """Coordinates of a line bundle class in the chosen Picard sublattice."""

    vector: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vector", tuple(int(c) for c in self.vector))

    def __add__(self, other: "LineBundleClass") -> "LineBundleClass":
        self._check(other)
        return LineBundleClass(tuple(a + b for a, b in zip(self.vector, other.vector)))

    def __sub__(self, other: "LineBundleClass") -> "LineBundleClass":
        self._check(other)
        return LineBundleClass(tuple(a - b for a, b in zip(self.vector, other.vector)))

    def scale(self, factor: int) -> "LineBundleClass":
        return LineBundleClass(tuple(factor * a for a in self.vector))

    def _check(self, other: "LineBundleClass") -> None:
        if len(self.vector) != len(other.vector):
            raise ValueError(
                f"rank mismatch: {len(self.vector)} vs {len(other.vector)}"
            )


@dataclass(frozen=True)
class SurfaceData:
    """Lattice and cohomology data of a projective surface profile."""

    chi_o: int
    picard_rank: int
    gram: tuple[tuple[int, ...], ...]
    canonical: tuple[int, ...]
    bundles: Mapping[str, LineBundleClass] = field(default_factory=dict)
    cohomology: Mapping[str, GradedDim] = field(default_factory=dict)
    chi_omega: int | None = None

    def bundle(self, name: str) -> LineBundleClass:
        if name in self.bundles:
            return self.bundles[name]
        if name == "O":
            return LineBundleClass((0,) * self.picard_rank)
        raise ConfigError(f"unknown bundle {name!r}; profile has {sorted(self.bundles)}")


@dataclass(frozen=True)
class CurveBundle:
    rank: int
    degree: int

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ConfigError(f"bundle rank must be positive, got {self.rank}")


@dataclass(frozen=True)
class CurveData:
    """Genus and named bundles of a smooth projective curve profile."""

    genus: int
    bundles: Mapping[str, CurveBundle] = field(default_factory=dict)
    cohomology: Mapping[str, GradedDim] = field(default_factory=dict)

    def bundle(self, name: str) -> CurveBundle:
        if name in self.bundles:
            return self.bundles[name]
        if name == "O":
            return CurveBundle(1, 0)
        raise ConfigError(f"unknown bundle {name!r}; profile has {sorted(self.bundles)}")


def pairing(surface: SurfaceData, a: LineBundleClass, b: LineBundleClass) -> int:
    """Intersection number of two classes under the profile's Gram matrix."""
    if len(a.vector) != surface.picard_rank or len(b.vector) != surface.picard_rank:
        raise ConfigError(
            f"class length must equal picard_rank={surface.picard_rank}"
        )
    return sum(
        a.vector[i] * surface.gram[i][j] * b.vector[j]
        for i in range(surface.picard_rank)
        for j in range(surface.picard_rank)
    )


def rr_chi(surface: SurfaceData, line: LineBundleClass) -> int:
    """Euler characteristic of a line bundle by surface Riemann-Roch."""
    canonical = LineBundleClass(surface.canonical)
    numerator = pairing(surface, line, line) - pairing(surface, line, canonical)
    quot, rem = divmod(numerator, 2)
    if rem:
        raise NonIntegralError("non-integral Riemann-Roch; check gram/canonical")
    return surface.chi_o + quot


def chi_tensor_powers(
    surface: SurfaceData, sheaf: LineBundleClass, line: LineBundleClass, k: int
) -> list[int]:
    """Euler characteristics of sheaf (x) line^p for p = 0..k."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    return [rr_chi(surface, sheaf + line.scale(p)) for p in range(k + 1)]


def curve_chi(curve: CurveData, bundle: CurveBundle | tuple[int, int]) -> int:
    """Euler characteristic on a curve: degree + rank(1 - genus)."""
    if not isinstance(bundle, CurveBundle):
        bundle = CurveBundle(*bundle)
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


def _hom_class(surface: SurfaceData, src: str | None, tgt: str | None) -> LineBundleClass:
    """Lattice class of Hom(src, tgt): target minus source, None being O."""
    return surface.bundle(tgt or "O") - surface.bundle(src or "O")


def _curve_hom_chi(curve: CurveData, src: str | None, tgt: str | None) -> int:
    """chi(Hom(src, tgt)) on a curve by Riemann-Roch for src^dual (x) tgt."""
    a = curve.bundle(src or "O")
    b = curve.bundle(tgt or "O")
    return curve_chi(curve, CurveBundle(a.rank * b.rank, a.rank * b.degree - b.rank * a.degree))


def table_for_class(surface: SurfaceData, wanted: LineBundleClass) -> GradedDim | None:
    """A supplied cohomology table for any bundle in the given class."""
    for name in sorted(surface.cohomology):
        try:
            cls = _hom_class(surface, *_key_bundles(name))
        except ConfigError:
            continue
        if cls == wanted:
            return surface.cohomology[name]
    return None


def surface_table(surface: SurfaceData, key: str) -> GradedDim:
    """Resolve a cohomology table by key, falling back to class matching.

    The exact key wins; otherwise any supplied table for a bundle in the
    same lattice class is equivalent (for line bundles, duals and Homs
    are themselves line bundles).  Tables are never synthesized.
    """
    if key in surface.cohomology:
        return surface.cohomology[key]
    wanted = _hom_class(surface, *_key_bundles(key))
    found = table_for_class(surface, wanted)
    if found is None:
        raise ConfigError(
            f"no cohomology table for {key!r} (class {list(wanted.vector)}); "
            "graded formulas need user-supplied tables"
        )
    return found


def variant_tables(
    surface: SurfaceData, variant_keys: Sequence[str], names: Mapping[str, str]
) -> dict[str, GradedDim]:
    """Cohomology table for each formula table role, given the map from
    the bundle letters E, F, K, L to profile bundle names."""
    return {
        role: surface_table(surface, _table_key(*role_bundles(role, names)))
        for role in variant_keys
    }


def variant_chis(
    surface: SurfaceData, roles: Sequence[str], names: Mapping[str, str]
) -> dict[str, int]:
    """Euler characteristic for each formula table role, from the lattice."""
    for name in names.values():
        surface.bundle(name)  # every selected bundle must exist, used or not
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


def _as_int(value: object, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _object_field(data: Mapping[str, object], field: str, section: str) -> Mapping:
    """An optional profile field that must be a JSON object when present."""
    raw = data.get(field, {})
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{section}.{field} must be a JSON object, got {raw!r}")
    return raw


def _cohomology_tables(data: Mapping[str, object], section: str) -> dict[str, GradedDim]:
    """Parse a profile's cohomology map; ``section`` prefixes error messages."""
    cohomology: dict[str, GradedDim] = {}
    for key, table in _object_field(data, "cohomology", section).items():
        if not isinstance(table, Mapping):
            raise ConfigError(f"{section}.cohomology[{key!r}] must be a degree->dim map")
        try:
            cohomology[key] = GradedDim.from_json(table)
        except ValueError as exc:
            raise ConfigError(f"{section}.cohomology[{key!r}]: {exc}") from None
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

    bundles: dict[str, LineBundleClass] = {}
    for name, vec in _object_field(data, "bundles", "surface").items():
        if not isinstance(vec, list) or len(vec) != rank:
            raise ConfigError(f"surface.bundles[{name!r}] must have length {rank}")
        bundles[name] = LineBundleClass(tuple(_as_int(x, f"surface.bundles[{name!r}]") for x in vec))

    cohomology = _cohomology_tables(data, "surface")

    chi_omega = data.get("chi_Omega")
    if chi_omega is not None:
        chi_omega = _as_int(chi_omega, "surface.chi_Omega")

    surface = SurfaceData(
        chi_o=chi_o,
        picard_rank=rank,
        gram=tuple(gram),
        canonical=canonical,
        bundles=bundles,
        cohomology=cohomology,
        chi_omega=chi_omega,
    )
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
    return surface


def curve_from_json(data: Mapping[str, object]) -> CurveData:
    known = {"genus", "bundles", "cohomology"}
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
        bundles[name] = CurveBundle(
            _as_int(spec["rank"], f"curve.bundles[{name!r}].rank"),
            _as_int(spec["degree"], f"curve.bundles[{name!r}].degree"),
        )
    cohomology = _cohomology_tables(data, "curve")
    curve = CurveData(genus=genus, bundles=bundles, cohomology=cohomology)
    for key, table in cohomology.items():
        expected = _curve_hom_chi(curve, *_key_bundles(key))
        if table.euler() != expected:
            raise ConfigError(
                f"curve.cohomology[{key!r}] has euler {table.euler()} "
                f"but Riemann-Roch gives {expected}"
            )
    return curve


@dataclass(frozen=True)
class Config:
    surface: SurfaceData | None = None
    curve: CurveData | None = None
    jobs: tuple[Mapping[str, object], ...] = ()


def packaged_profile(name: str) -> Path:
    """Path of one of the example profiles shipped with the package."""
    root = Path(__file__).resolve().parent / "profiles"
    candidate = root / name
    if not candidate.is_file():
        shipped = sorted(p.name for p in root.glob("*.json"))
        raise ConfigError(f"no packaged profile {name!r}; shipped: {shipped}")
    return candidate


def resolve_profile(spec: str) -> Path:
    """Interpret a profile argument as a path, else as a packaged name."""
    path = Path(spec)
    if path.is_file():
        return path
    try:
        return packaged_profile(spec)
    except ConfigError:
        raise ConfigError(
            f"profile {spec!r} is neither an existing file nor a packaged profile"
        ) from None


def _nested_section(value: object, field: str, parse: Callable):
    """A config section is either an inline object or a profile reference."""
    if isinstance(value, str):
        loaded = load_config(resolve_profile(value))
        part = getattr(loaded, field)
        if part is None:
            raise ConfigError(f"profile {value!r} does not define a {field}")
        return part
    if not isinstance(value, Mapping):
        raise ConfigError(f"config field {field!r} must be an object or a profile name")
    return parse(value)


def load_config(path: str | Path) -> Config:
    """Load a JSON profile: {"surface": ..., "curve": ..., "jobs": [...]}."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(data, Mapping):
        raise ConfigError(f"config {path} must be a JSON object")
    known = {"surface", "curve", "jobs"}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config fields {sorted(unknown)}")
    surface = curve = None
    if "surface" in data:
        surface = _nested_section(data["surface"], "surface", surface_from_json)
    if "curve" in data:
        curve = _nested_section(data["curve"], "curve", curve_from_json)
    jobs = data.get("jobs", [])
    if not isinstance(jobs, list) or not all(isinstance(j, Mapping) for j in jobs):
        raise ConfigError("config field 'jobs' must be a list of objects")
    return Config(surface=surface, curve=curve, jobs=tuple(jobs))
