"""Intersection-form arithmetic for fold-map existence and genus invariants.

Covers: exact signature by fraction-free integer elimination, the
characteristic-vector test standing in for w2, the five fold-map existence
conditions on a closed 4-manifold, total defects (d, h) of the boundary
framing induced by a handlebody with singular surfaces inside, coset tests
against the lattice generated by (0,4) and (-1,2), the admissible values
of sum(k_i^2) forced by a canonical boundary framing, and the sg^k genus
invariant as an order statistic over a catalog of candidate maps.

All arithmetic is exact and in the integers; no floats anywhere.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from math import inf
from operator import mul

__all__ = [
    "IntersectionForm",
    "ManifoldData",
    "SurfaceComponent",
    "SurfaceConfig",
    "TotalDefect",
    "MapCatalog",
    "signature",
    "self_intersection",
    "is_characteristic",
    "build_sigma_class",
    "saeki_check",
    "total_defect",
    "homology_sphere_coset_check",
    "canonical_sphere_constraint",
    "sg_k",
    "sg_plain",
    "parse_block_form",
    "load_manifold_config",
    "load_catalog_config",
]


def _require_int(x, what: str) -> int:
    """x itself when it is an int; bools, floats and the like are refused."""
    if type(x) is not int:
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


# -- intersection forms ------------------------------------------------------

class IntersectionForm:
    """A symmetric integer matrix over a basis of H_2 mod torsion."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        rows = tuple(tuple(_require_int(x, "form entry") for x in row)
                     for row in matrix)
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise ValueError("intersection form must be square")
        for i in range(n):
            for j in range(n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("intersection form must be symmetric")
        self.matrix = rows

    @property
    def rank(self) -> int:
        return len(self.matrix)

    def __eq__(self, other):
        if not isinstance(other, IntersectionForm):
            return NotImplemented
        return self.matrix == other.matrix

    def __repr__(self):
        return f"IntersectionForm({list(map(list, self.matrix))})"


def parse_block_form(text: str) -> IntersectionForm:
    """Parse block notation like "<-1> + H + 3<-1> + 8<1>" into a matrix.

    "<d>" is a 1x1 block (d), "H" the hyperbolic 2x2 block [[0,1],[1,0]],
    and an integer prefix repeats a block.
    """
    blocks: list[list[list[int]]] = []
    for term in text.split("+"):
        term = term.strip()
        if not term:
            raise ValueError("empty block term")
        m = re.fullmatch(r"(\d*)\s*(H|<\s*(-?\d+)\s*>)", term)
        if not m:
            raise ValueError(f"unrecognized block term: {term!r}")
        count = int(m.group(1)) if m.group(1) else 1
        if count < 1:
            raise ValueError(f"block count must be at least 1 in term {term!r}")
        if m.group(2) == "H":
            block = [[0, 1], [1, 0]]
        else:
            block = [[int(m.group(3))]]
        blocks.extend(block for _ in range(count))
    size = sum(len(b) for b in blocks)
    mat = [[0] * size for _ in range(size)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                mat[at + i][at + j] = x
        at += len(b)
    return IntersectionForm(mat)


def signature(f: IntersectionForm) -> int:
    """Positive minus negative pivots of fraction-free symmetric elimination.

    Bareiss elimination over the integers: after step i the pivot a[i][i]
    is the leading principal minor D_i, so the i-th diagonal entry of a
    rational diagonalization, D_i / D_(i-1), has the sign of D_i * D_(i-1).
    Only the upper triangle is kept, and every division is exact.  A zero
    pivot is repaired by adding (or, if that cancels, subtracting) row and
    column p > i for the first p with a[p][i] != 0.  That is a unimodular
    congruence of the indices >= i, so D_0..D_(i-1) are unchanged and every
    later entry is still a minor of an integer matrix congruent to the
    form.  A row and column that are zero from i on contribute 0; they are
    skipped, and D_(i-1) stays the divisor.
    """
    a = [list(row) for row in f.matrix]
    n = len(a)
    sig = 0
    prev = 1
    for i in range(n):
        ai = a[i]
        if ai[i] == 0:
            p = next((j for j in range(i + 1, n) if ai[j]), None)
            if p is None:
                continue
            # row p from column i on, its lower part read from column p
            row_p = [a[k][p] for k in range(i, p)] + a[p][p:]
            c, d = ai[p], a[p][p]
            eps = 1 if 2 * c + d else -1
            ai[i:] = [x + eps * y for x, y in zip(ai[i:], row_p)]
            ai[i] = 2 * eps * c + d
        piv = ai[i]
        sig += 1 if piv * prev > 0 else -1
        for j in range(i + 1, n):
            aj = a[j]
            c = ai[j]
            aj[j:] = [(piv * x - c * y) // prev for x, y in zip(aj[j:], ai[j:])]
        prev = piv
    return sig


def _check_dims(cls, f: IntersectionForm):
    cls = tuple(_require_int(x, "class coordinate") for x in cls)
    if len(cls) != f.rank:
        raise ValueError(
            f"class has {len(cls)} coordinates, form has rank {f.rank}")
    return cls


def self_intersection(cls, f: IntersectionForm) -> int:
    """cls^T Q cls."""
    cls = _check_dims(cls, f)
    return sum(x * sum(map(mul, row, cls)) for x, row in zip(cls, f.matrix) if x)


def is_characteristic(cls, f: IntersectionForm) -> bool:
    """x . v == v . v (mod 2) for every basis vector v."""
    cls = _check_dims(cls, f)
    # row i pairs cls with basis vector i, since the form is symmetric
    return all((sum(map(mul, row, cls)) - row[i]) % 2 == 0
               for i, row in enumerate(f.matrix))


def build_sigma_class(n: int, m: int, j: int):
    """The characteristic surface class on <-1> + H + n<-1> + m<1> + j<-1>.

    Sigma = e + 2a + 2k*b + sum f_i + sum g_i + sum h_i with
    4k = sigma = -1 - n + m - j; its self-intersection is 12k = 3*sigma.
    Returns (cls, form, k); raises when the signature is not divisible by 4
    (the caller must blow up, i.e. increment j, first).
    """
    if min(n, m, j) < 0:
        raise ValueError("block counts must be non-negative")
    sig = -1 - n + m - j
    if sig % 4 != 0:
        raise ValueError(
            f"signature {sig} not divisible by 4; blow up (increment j) first")
    k = sig // 4
    parts = "<-1> + H"
    if n:
        parts += f" + {n}<-1>"
    if m:
        parts += f" + {m}<1>"
    if j:
        parts += f" + {j}<-1>"
    form = parse_block_form(parts)
    cls = (1, 2, 2 * k) + (1,) * (n + m + j)
    if signature(form) != sig:
        raise AssertionError("block form signature mismatch")
    if self_intersection(cls, form) != 3 * sig:
        raise AssertionError("surface class self-intersection is not 3*sigma")
    if not is_characteristic(cls, form):
        raise AssertionError("surface class is not characteristic")
    return cls, form, k


# -- manifold and surface data ----------------------------------------------

BOUNDARY_KINDS = ("closed", "homology-sphere-boundary", "other-boundary")
SINGULARITY_KINDS = ("definite", "indefinite")


def _check_mu_coset(mu):
    if mu is not None and _require_int(mu, "mu_coset") not in (0, 2):
        raise ValueError("mu_coset must be 0, 2, or absent")


@dataclass(frozen=True)
class ManifoldData:
    form: IntersectionForm
    euler: int
    boundary_kind: str
    mu_coset: int | None = None

    def __post_init__(self):
        _require_int(self.euler, "euler")
        if self.boundary_kind not in BOUNDARY_KINDS:
            raise ValueError(f"unknown boundary kind {self.boundary_kind!r}")
        _check_mu_coset(self.mu_coset)


@dataclass(frozen=True)
class SurfaceComponent:
    genus: int
    orientable: bool = True
    kind: str = "indefinite"
    cls: tuple = ()

    def __post_init__(self):
        if _require_int(self.genus, "genus") < 0:
            raise ValueError("genus must be non-negative")
        if type(self.orientable) is not bool:
            raise ValueError(f"orientable must be true or false, got {self.orientable!r}")
        if self.kind not in SINGULARITY_KINDS:
            raise ValueError(f"unknown singularity kind {self.kind!r}")
        object.__setattr__(self, "cls", tuple(
            _require_int(x, "class coordinate") for x in self.cls))

    def euler_char(self) -> int:
        return 2 - 2 * self.genus if self.orientable else 2 - self.genus

    def homology_class(self, f: IntersectionForm) -> tuple:
        return _check_dims(self.cls, f)

    def self_int(self, f: IntersectionForm) -> int:
        return self_intersection(self.homology_class(f), f)


@dataclass(frozen=True)
class SurfaceConfig:
    components: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))

    def euler_char(self) -> int:
        return sum(c.euler_char() for c in self.components)

    def total_self_int(self, f: IntersectionForm) -> int:
        """Sum of component self-intersections (disjointly embedded pieces)."""
        return sum(c.self_int(f) for c in self.components)

    def total_class(self, f: IntersectionForm) -> tuple:
        total = [0] * f.rank
        for c in self.components:
            for i, x in enumerate(c.homology_class(f)):
                total[i] += x
        return tuple(total)


@dataclass(frozen=True)
class TotalDefect:
    d: int
    h: int


@dataclass(frozen=True)
class MapCatalog:
    maps: tuple = ()
    admissible_classes: frozenset = frozenset()
    allowed_singularities: frozenset = frozenset(SINGULARITY_KINDS)

    def __post_init__(self):
        object.__setattr__(self, "maps", tuple(self.maps))
        object.__setattr__(self, "admissible_classes",
                           frozenset(tuple(_require_int(x, "class coordinate")
                                           for x in c)
                                     for c in self.admissible_classes))
        kinds = tuple(self.allowed_singularities)
        for kind in kinds:
            if kind not in SINGULARITY_KINDS:
                raise ValueError(f"unknown singularity kind {kind!r}")
        object.__setattr__(self, "allowed_singularities", frozenset(kinds))


# -- fold-map existence (closed case) ---------------------------------------

def saeki_check(m: ManifoldData, f0: SurfaceConfig, f1: SurfaceConfig) -> dict:
    """The five existence conditions for a fold map with singular set F0 u F1.

    (1) euler(X) = euler(F0) - euler(F1); (2) [F0 u F1] is characteristic
    (the w2 test for torsion-free input); (3) F0 orientable; (4) every F1
    component has zero self-intersection; (5) F0 . F0 = 3 sigma(X).
    """
    if m.boundary_kind != "closed":
        raise ValueError("fold-map existence test needs a closed manifold")
    if not f0.components and not f1.components:
        raise ValueError("the singular surface F0 u F1 must be nonempty")
    form = m.form
    sig = signature(form)
    total = tuple(a + b for a, b in zip(
        f0.total_class(form), f1.total_class(form)))
    conditions = {
        "euler": m.euler == f0.euler_char() - f1.euler_char(),
        "w2_characteristic": is_characteristic(total, form),
        "f0_orientable": all(c.orientable for c in f0.components),
        "f1_null_self_intersection": all(
            c.self_int(form) == 0 for c in f1.components),
        "f0_self_int_is_3_signature": f0.total_self_int(form) == 3 * sig,
    }
    return {
        "conditions": conditions,
        "signature": sig,
        "verdict": all(conditions.values()),
    }


# -- boundary framing defects ------------------------------------------------

def total_defect(m: ManifoldData, sigma0: SurfaceConfig,
                 sigma1: SurfaceConfig) -> TotalDefect:
    """(d, h) of the induced boundary framing.

    d = euler(X) - euler(Sigma0) + euler(Sigma1) and
    h = Sigma0 . Sigma0 - 3 sigma(X); empty configurations contribute 0.
    """
    if m.boundary_kind == "closed":
        raise ValueError("total defect is defined for manifolds with boundary")
    for c in sigma0.components + sigma1.components:
        if not c.orientable:
            raise ValueError("defect formulas assume closed oriented components")
    d = m.euler - sigma0.euler_char() + sigma1.euler_char()
    h = sigma0.total_self_int(m.form) - 3 * signature(m.form)
    return TotalDefect(d=d, h=h)


def _in_coset(t: TotalDefect, mu: int) -> bool:
    # solve (d, h - mu) = s*(-1, 2) + r*(0, 4) over the integers
    s = -t.d
    return (t.h - mu - 2 * s) % 4 == 0


def homology_sphere_coset_check(t: TotalDefect, mu_coset: int | None = None) -> bool:
    """Whether (d, h) is an allowed defect over a homology sphere.

    Allowed defects have even d and lie in the lattice generated by (0,4)
    and (-1,2) translated by (0, mu); with mu unknown both translates
    (mu = 0 and mu = 2) are accepted.
    """
    _check_mu_coset(mu_coset)
    if t.d % 2 != 0:
        return False
    cosets = (mu_coset,) if mu_coset is not None else (0, 2)
    return any(_in_coset(t, mu) for mu in cosets)


def canonical_sphere_constraint(p: int) -> dict:
    """Admissible values of sum(k_i^2) for sphere configs with framing p.

    A canonical boundary framing forces the defect h = -3p + p*s into
    {-2, 0, 2}; returns {s: h} for the integer solutions s >= 1.
    """
    if _require_int(p, "framing") == 0:
        raise ValueError("framing must be nonzero")
    out: dict[int, int] = {}
    for target in (-2, 0, 2):
        if target % p == 0:
            s = 3 + target // p
            if s >= 1:
                out[s] = target
    return dict(sorted(out.items()))


# -- genus invariants --------------------------------------------------------

def _admissible_genera(cat: MapCatalog, config: SurfaceConfig) -> list[int]:
    out = []
    for c in config.components:
        if (c.kind in cat.allowed_singularities
                and c.cls in cat.admissible_classes):
            out.append(c.genus)
    return sorted(out)


def sg_k(cat: MapCatalog, k: int):
    """k-th smallest admissible genus per map, minimized over the catalog.

    Equals the min over maps of the min over k-element admissible subsets
    of the subset's max genus; infinity when no map has k admissible
    components (the minimum of the empty set).
    """
    if _require_int(k, "k") < 1:
        raise ValueError("k must be at least 1")
    best = inf
    for config in cat.maps:
        genera = _admissible_genera(cat, config)
        if len(genera) >= k:
            best = min(best, genera[k - 1])
    return best


def sg_plain(cat: MapCatalog):
    """Min over maps of the largest admissible genus; infinity for none."""
    best = inf
    for config in cat.maps:
        genera = _admissible_genera(cat, config)
        if genera:
            best = min(best, genera[-1])
    return best


# -- JSON configuration ------------------------------------------------------
#
# Each kind of JSON object is one table of key -> (shapes, default), with
# its keys in the order the unknown-key message lists them.  A present value
# must pass each named shape in turn; a value with no shape is checked by
# the dataclass it feeds.  Unknown keys are refused, since a misspelt key
# would otherwise be ignored and its default used.

_REQUIRED = object()    # the key must be present
_ABSENT = object()      # an absent key stays out of the fields


# shape -> (test, the end of the message for a value that fails it)
_SHAPES = {
    "object": (lambda v: isinstance(v, dict), "a JSON object, got {type}"),
    "array": (lambda v: isinstance(v, list), "a JSON array, got {type}"),
    "arrays": (lambda v: all(isinstance(x, list) for x in v),
               "an array of arrays, got {value!r}"),
    "strings": (lambda v: all(isinstance(x, str) for x in v),
                "an array of strings, got {value!r}"),
    "form": (lambda v: isinstance(v, str) or (
                 isinstance(v, list) and all(isinstance(row, list) for row in v)),
             "a string or an array of arrays, got {value!r}"),
}

_MANIFOLD = {"form": (("form",), _REQUIRED), "euler": ((), _REQUIRED),
             "boundary_kind": ((), _REQUIRED), "mu_coset": ((), None)}
_SURFACE_CONFIG = {"components": (("array",), ())}
_COMPONENT = {"genus": ((), _REQUIRED), "orientable": ((), True),
              "kind": ((), "indefinite"), "cls": (("array",), ())}
_CATALOG = {"maps": (("array",), ()),
            "admissible_classes": (("array", "arrays"), ()),
            "allowed_singularities": (("array", "strings"), SINGULARITY_KINDS)}
_CONFIG_FILE = {"manifold": ((), _REQUIRED), **dict.fromkeys(
    ("f0", "f1", "sigma0", "sigma1", "comment"), ((), _ABSENT))}
_CATALOG_FILE = {"catalogs": (("object",), _REQUIRED), "comment": ((), _ABSENT)}
_SINGLE_CATALOG_FILE = {**_CATALOG, "comment": ((), _ABSENT)}


def _require_shape(value, shape: str, subject: str):
    test, phrase = _SHAPES[shape]
    if not test(value):
        raise ValueError(f"{subject} must be "
                         + phrase.format(type=type(value).__name__, value=value))


def _read(obj, table: dict, what: str) -> dict:
    """The fields of obj, a JSON object of the kind table describes, with
    defaults filled in; each error names the key and what."""
    _require_shape(obj, "object", what)
    for key in obj:
        if key not in table:
            raise ValueError(f"unknown key {key!r} in {what} "
                             f"(allowed: {', '.join(table)})")
    fields = {}
    for key, (shapes, default) in table.items():
        if key in obj:
            fields[key] = obj[key]
            for shape in shapes:
                _require_shape(obj[key], shape, f"{key!r} of {what}")
        elif default is _REQUIRED:
            raise ValueError(f"missing key {key!r} in {what}")
        elif default is not _ABSENT:
            fields[key] = default
    return fields


def _build(what: str, make, *args, **kwargs):
    """make(*args, **kwargs), with what prefixed to any ValueError it raises."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


def _surface_config(obj, what: str) -> SurfaceConfig:
    components = _read(obj, _SURFACE_CONFIG, what)["components"]
    parts = [(f"component {i} of {what}", c) for i, c in enumerate(components)]
    return SurfaceConfig(tuple(
        _build(part, SurfaceComponent, **_read(c, _COMPONENT, part))
        for part, c in parts))


def _catalog(obj, what: str, table: dict = _CATALOG) -> MapCatalog:
    fields = _read(obj, table, what)
    fields.pop("comment", None)
    fields["maps"] = tuple(_surface_config(c, f"map {i} of {what}")
                           for i, c in enumerate(fields["maps"]))
    return _build(what, MapCatalog, **fields)


def load_manifold_config(path: str) -> dict:
    """Load {"manifold": ..., surface configs ...} from a JSON file.

    Returns a dict with keys "manifold" (ManifoldData) and every surface
    configuration present among "f0", "f1", "sigma0", "sigma1".  An
    unknown key, a missing required key, a field of the wrong JSON shape or
    a refused value anywhere in the file is a ValueError naming its object.
    """
    with open(path, encoding="utf-8") as fh:
        fields = _read(json.load(fh), _CONFIG_FILE, "config")
    manifold = _read(fields.pop("manifold"), _MANIFOLD, "manifold")
    form = manifold["form"]
    make_form = parse_block_form if isinstance(form, str) else IntersectionForm
    manifold["form"] = _build("'form' of manifold", make_form, form)
    fields.pop("comment", None)
    return {"manifold": _build("manifold", ManifoldData, **manifold),
            **{key: _surface_config(c, f"surface config {key!r}")
               for key, c in fields.items()}}


def load_catalog_config(path: str) -> dict[str, MapCatalog]:
    """Load named map catalogs from JSON.

    A file may hold several catalogs under a "catalogs" mapping (one per
    manifold in a comparison) or a single anonymous catalog at top level.
    An unknown key, a missing required key, a field of the wrong JSON shape
    or a refused value anywhere in the file is a ValueError naming its object.
    """
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if isinstance(raw, dict) and "catalogs" in raw:
        catalogs = _read(raw, _CATALOG_FILE, "catalog file")["catalogs"]
        return {name: _catalog(c, f"catalog {name!r}")
                for name, c in catalogs.items()}
    return {"catalog": _catalog(raw, "catalog file", _SINGLE_CATALOG_FILE)}
