"""Intersection-form arithmetic for fold-map existence and genus invariants.

Covers: exact signature by fraction-free integer elimination (indices in
order of increasing |diagonal|, two pivots per pass where the 2x2 minor
allows, the cofactors divided by the last pivot first), the
characteristic-vector test standing in for w2, the five fold-map existence
conditions on a closed 4-manifold, total defects (d, h) of the boundary
framing induced by a handlebody with singular surfaces inside, coset tests
against the lattice generated by (0,4) and (-1,2), the admissible values of
sum(k_i^2) forced by a canonical boundary framing, and the sg^k genus
invariant as an order statistic over a catalog of candidate maps.

All arithmetic is exact and in the integers; no floats anywhere.
"""

from __future__ import annotations

import json
import re
from dataclasses import MISSING, dataclass, fields
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
        rows = tuple(map(tuple, matrix))
        for row in rows:
            for x in row:
                if type(x) is not int:      # inline test; this call raises
                    _require_int(x, "form entry")
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("intersection form must be square")
        if rows != tuple(zip(*rows)):
            raise ValueError("intersection form must be symmetric")
        self.matrix = rows

    @property
    def rank(self) -> int:
        return len(self.matrix)

    def __eq__(self, other):
        if not isinstance(other, IntersectionForm):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"IntersectionForm({list(map(list, self.matrix))})"


def parse_block_form(text: str) -> IntersectionForm:
    """Parse block notation like "<-1> + H + 3<-1> + 8<1>" into a matrix.

    "<d>" is a 1x1 block (d), "H" the hyperbolic 2x2 block [[0,1],[1,0]],
    and an integer prefix repeats a block.  Terms are separated by "+" and
    ASCII whitespace only.
    """
    blocks: list[list[list[int]]] = []
    for term in text.split("+"):
        term = term.strip(" \t\n\r\f\v")
        if not term:
            raise ValueError("empty block term")
        m = re.fullmatch(r"([0-9]*)\s*(H|<\s*(-?[0-9]+)\s*>)", term, re.ASCII)
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

    The indices are first put in order of increasing |a[k][k]|, with zero
    diagonal entries last and ties in their given order.  A permutation is
    a congruence, so sigma is unchanged, and small pivots early keep the
    later minors small, and with them every product the loop forms.

    Bareiss elimination over the integers, two pivots per pass where the
    2x2 minor allows: after the step that ends at index i the entry a[i][i]
    is the leading principal minor D_i, so the i-th diagonal entry of a
    rational diagonalization, D_i / D_(i-1), has the sign of
    D_i * D_(i-1).  Row i holds only columns i..n-1 (the upper triangle).
    Every entry a[r][j] is the minor of the rows 0..i-1, r and columns
    0..i-1, j of an integer matrix congruent to the form, so every division
    below is exact.

    With prev = D_(i-1), P = a[i][i], q = a[i][i+1] and s = a[i+1][i+1],
    Sylvester's identity gives P*s - q*q = prev * D_(i+1).  When that is
    nonzero, one pass takes pivots i and i+1 at once (Bareiss's two-step
    method).  The 2x2 minors u_j = q*a[i][j] - P*a[i+1][j] and
    w_j = q*a[i+1][j] - s*a[i][j] of rows i and i+1 are, by the same
    identity, prev times a bordered minor, so they are divided by prev once
    per pass; each later entry x then becomes
    (D_(i+1)*x + a[r][i+1]*u_j/prev + a[r][i]*w_j/prev) / prev, whose
    numerator is prev times its bordered 3x3 minor over rows 0..i+1.  That
    keeps every product about half as wide as dividing the whole 3x3 minor
    by prev**2.  When P*s - q*q is zero, and on the last row, the pass
    takes pivot i alone, x -> (P*x - a[r][i]*a[i][j]) / prev.

    A zero pivot is repaired first by adding (or, if that cancels,
    subtracting) row and column p > i for the first p with a[p][i] != 0.
    That is a unimodular congruence of the indices >= i, so D_0..D_(i-1)
    are unchanged and every later entry is still a minor of an integer
    matrix congruent to the form.  A row and column that are zero from i on
    contribute 0; they are skipped, and D_(i-1) stays the divisor.
    """
    rows = f.matrix
    n = len(rows)
    # |diagonal| ascending, zeros last; sorted() is stable, so ties keep order
    order = sorted(range(n), key=lambda k: (rows[k][k] == 0, abs(rows[k][k])))
    a = [[row[c] for c in order[i:]]
         for i, row in enumerate(map(rows.__getitem__, order))]
    sig = 0
    prev = 1
    i = 0
    while i < n:
        ai = a[i]
        if ai[0] == 0:
            p = next((k for k in range(1, n - i) if ai[k]), None)
            if p is None:
                i += 1
                continue
            p += i
            # row p from column i on, its lower part read from column p
            row_p = [a[k][p - k] for k in range(i, p)] + a[p]
            c, d = ai[p - i], a[p][0]
            eps = 1 if 2 * c + d else -1
            ai = a[i] = [x + eps * y for x, y in zip(ai, row_p)]
            ai[0] = 2 * eps * c + d
        piv = ai[0]
        sig += 1 if piv * prev > 0 else -1
        if i + 1 < n:
            b = a[i + 1]
            q, s = ai[1], b[0]
            m0 = piv * s - q * q
            if m0:
                det = m0 // prev
                sig += 1 if det * piv > 0 else -1
                # the 2x2 cofactor terms of rows i and i+1 over prev, per column
                u = [(q * x - piv * y) // prev for x, y in zip(ai[2:], b[1:])]
                w = [(q * y - s * x) // prev for x, y in zip(ai[2:], b[1:])]
                for k in range(n - i - 2):
                    cb, ca = b[k + 1], ai[k + 2]
                    a[i + 2 + k] = [(det * x + cb * y + ca * z) // prev
                                    for x, y, z in zip(a[i + 2 + k], u[k:], w[k:])]
                prev = det
                i += 2
                continue
        for k in range(1, n - i):
            c = ai[k]
            a[i + k] = [(piv * x - c * y) // prev
                        for x, y in zip(a[i + k], ai[k:])]
        prev = piv
        i += 1
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
    for name, count in zip("nmj", (n, m, j)):
        _require_int(count, f"block count {name}")
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
CANONICAL_DEFECTS = (-2, 0, 2)  # h of a canonical boundary framing, whose d is 0


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
        return self_intersection(self.cls, f)


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
    ``CANONICAL_DEFECTS``; returns {s: h} for the integer solutions s >= 1.
    """
    if _require_int(p, "framing") == 0:
        raise ValueError("framing must be nonzero")
    out: dict[int, int] = {}
    for target in CANONICAL_DEFECTS:
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
# The keys a manifold, surface config, component or catalog object may hold
# are the fields of the dataclass it feeds, in field order, which is the
# order the unknown-key message lists them in.  A field with no default is
# required, and an absent key is left to the dataclass default.  A present
# value must pass each shape _SHAPES names for its key in turn; a value
# with no shape is checked by the dataclass it feeds.  Unknown keys are
# refused, since a misspelt key would otherwise be ignored and its default
# used.

# (test, the end of the message for a value that fails it)
_OBJECT = (lambda v: isinstance(v, dict), "a JSON object, got {type}")
_ARRAY = (lambda v: isinstance(v, list), "a JSON array, got {type}")

# JSON key -> the shapes its value must pass, in turn, whichever object holds it
_SHAPES = {
    "form": ((lambda v: isinstance(v, str) or (
                  isinstance(v, list) and all(isinstance(row, list) for row in v)),
              "a string or an array of arrays, got {value!r}"),),
    **dict.fromkeys(("components", "cls", "maps"), (_ARRAY,)),
    "admissible_classes": (_ARRAY, (lambda v: all(isinstance(x, list) for x in v),
                                    "an array of arrays, got {value!r}")),
    "allowed_singularities": (_ARRAY, (lambda v: all(isinstance(x, str) for x in v),
                                       "an array of strings, got {value!r}")),
    "catalogs": (_OBJECT,),
}

# the top-level keys of each kind of file -> whether the key is required
_CONFIG_FILE = {"manifold": True, **dict.fromkeys(
    ("f0", "f1", "sigma0", "sigma1", "comment"), False)}
_CATALOG_FILE = {"catalogs": True, "comment": False}


def _keys(cls) -> dict[str, bool]:
    """Each field of the dataclass cls -> whether it has no default nor factory."""
    return {f.name: f.default is f.default_factory is MISSING for f in fields(cls)}


def _require_shape(value, shape: tuple, subject: str):
    test, phrase = shape
    if not test(value):
        raise ValueError(f"{subject} must be "
                         + phrase.format(type=type(value).__name__, value=value))


def _read(obj, keys: dict[str, bool], what: str) -> dict:
    """obj's entries among keys (key -> required), in their order, but for a
    comment, which nothing reads; each error names the key and what."""
    _require_shape(obj, _OBJECT, what)
    for key in obj:
        if key not in keys:
            raise ValueError(f"unknown key {key!r} in {what} "
                             f"(allowed: {', '.join(keys)})")
    for key, required in keys.items():
        if key in obj:
            for shape in _SHAPES.get(key, ()):
                _require_shape(obj[key], shape, f"{key!r} of {what}")
        elif required:
            raise ValueError(f"missing key {key!r} in {what}")
    return {key: obj[key] for key in keys if key in obj and key != "comment"}


def _build(what: str, make, *args, **kwargs):
    """make(*args, **kwargs), with what prefixed to any ValueError it raises."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


def _load_json(path: str):
    """The JSON value in the file at path; too deep a nesting, or a key
    given twice in one object, is a ValueError naming the file."""

    def unique(pairs: list) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ValueError(f"{path}: JSON key {key!r} given twice in one object")
            obj[key] = value
        return obj

    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=unique)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to read") from None


# JSON key -> (the name of an entry of its array, the dataclass it is read into)
_ENTRIES = {"components": ("component", SurfaceComponent), "maps": ("map", SurfaceConfig)}


def _object(cls, obj, what: str, **file_keys: bool):
    """obj read into the dataclass cls; file_keys are top-level keys it may also hold."""
    found = _read(obj, {**_keys(cls), **file_keys}, what)
    for key, (entry, entry_cls) in _ENTRIES.items():
        if key in found:
            found[key] = tuple(_object(entry_cls, c, f"{entry} {i} of {what}")
                               for i, c in enumerate(found[key]))
    return _build(what, cls, **found)


def load_manifold_config(path: str) -> dict:
    """Load {"manifold": ..., surface configs ...} from a JSON file.

    Returns a dict with keys "manifold" (ManifoldData) and every surface
    configuration present among "f0", "f1", "sigma0", "sigma1".  An
    unknown key, a missing required key, a field of the wrong JSON shape, a
    refused value anywhere in the file or nesting too deep to parse is a
    ValueError naming its object or the file.
    """
    config = _read(_load_json(path), _CONFIG_FILE, "config")
    manifold = _read(config.pop("manifold"), _keys(ManifoldData), "manifold")
    make_form = parse_block_form if isinstance(manifold["form"], str) else IntersectionForm
    manifold["form"] = _build("'form' of manifold", make_form, manifold["form"])
    return {"manifold": _build("manifold", ManifoldData, **manifold),
            **{key: _object(SurfaceConfig, c, f"surface config {key!r}")
               for key, c in config.items()}}


def load_catalog_config(path: str) -> dict[str, MapCatalog]:
    """Load named map catalogs from JSON.

    A file may hold several catalogs under a "catalogs" mapping (one per
    manifold in a comparison) or a single anonymous catalog at top level.
    An unknown key, a missing required key, a field of the wrong JSON shape,
    a refused value anywhere in the file or nesting too deep to parse is a
    ValueError naming its object or the file.
    """
    raw = _load_json(path)
    if isinstance(raw, dict) and "catalogs" in raw:
        catalogs = _read(raw, _CATALOG_FILE, "catalog file")["catalogs"]
        return {name: _object(MapCatalog, c, f"catalog {name!r}")
                for name, c in catalogs.items()}
    return {"catalog": _object(MapCatalog, raw, "catalog file", comment=False)}
