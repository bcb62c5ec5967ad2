"""Benchmark workloads: seeded inputs, the work per item, and its reference check.

Every workload is a list of items built once from the seed.  A timed pass
runs every item in order; an item is the engine call plus the comparison
with an answer computed another way.  ``check_*`` functions return ``None``
for a verified item and a one-line description of the first mismatch
otherwise.

The library is passed in as ``lib``, a namespace holding the imported
``knotforge`` modules (see ``run.import_library``), so that set-up can
re-import the package and time it.

Each workload's largest input is fixed rather than drawn from the seed, as
``twist_family``'s L_7 is, so that ``largest_item_s`` compares one input
across seeds and commits; the rest of the stream is seeded.  The largest
input appears LARGEST_REPEATS times in each list, for more samples of it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

# -- items and workloads -------------------------------------------------------


@dataclass(frozen=True)
class Item:
    """One unit of work: ``size`` is crossings (diagrams) or rank (forms)."""

    label: str
    size: int
    data: Any
    expected: Any = None

    def fingerprint(self) -> str:
        """A text form of the input, equal exactly when the inputs are equal."""
        return f"{self.label}|{self.size}|{_describe(self.data)}|{self.expected!r}"


def _describe(data) -> str:
    if hasattr(data, "render"):
        return data.render()
    if hasattr(data, "matrix"):
        return repr(data.matrix)
    if isinstance(data, tuple):
        return "(" + ",".join(_describe(x) for x in data) + ")"
    return repr(data)


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[Any, int], list]
    run_item: Callable[[Any, Item], Any]
    check_item: Callable[[Item, Any], "str | None"]


def largest(items: list) -> list:
    """Indices of the workload's largest inputs (those of the largest size)."""
    top = max(item.size for item in items)
    return [i for i, item in enumerate(items) if item.size == top]


# -- twist_family --------------------------------------------------------------

TWIST_SITE = (3, 25)
TWIST_NMAX = 7
# The largest input runs this many times per pass, for more latency samples.
LARGEST_REPEATS = 2


def twist_inputs(lib, seed: int) -> list:
    """L_0 .. L_7 built by twisting the 11n63 anchor; the seed is ignored."""
    base = lib.family.load_table().diagram("11n63")
    items = []
    for n in range(TWIST_NMAX + 1):
        d = base.insert_full_twists(TWIST_SITE, n - 2)
        items.append(Item(f"L_{n}", d.n_crossings, d, n))
    return items + [items[-1]] * (LARGEST_REPEATS - 1)


def twist_run(lib, item: Item):
    n = item.expected
    inv = lib.invariants.surgery_invariants(item.data)
    return inv, lib.family.conway_family(n), lib.family.jones_family(n)


def check_twist(item: Item, result) -> "str | None":
    """Compare the engine's invariants with the closed forms of L_n."""
    inv, nabla, vee = result
    n = item.expected
    want = {
        "a2": nabla.coeff(2),
        "c4": nabla.coeff(4),
        "v2": vee.moment(2),
        "v3": vee.moment(3),
        "lambda1": -nabla.coeff(2),
        "lambda2": 72 * n + 270,
    }
    for name, value in want.items():
        got = getattr(inv, name)
        if got != value:
            return f"{item.label}: {name} = {got}, closed form gives {value}"
    return None


# -- random_links --------------------------------------------------------------

# The seed diagrams of the test suite's generator, plus two table entries
# (11 and 8 crossings) so that a few twist insertions reach 15 crossings.
_SEED_CODES = (
    "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)",                           # trefoil
    "X(4,1,3,2) X(2,3,1,4)",                                       # hopf
    "X(1,4,2,5) X(3,8,4,9) X(5,10,6,1) X(9,6,10,7) X(7,2,8,3)",    # 5_2
    "X(1,1,2,2)",                                                  # curl
)
_TABLE_SEEDS = ("9_45", "L7n2")

MAX_COMPONENTS = 5
# Seeded items per crossing count.  Two thirds of the stream is one block of
# 4-crossing diagrams with about as many items below it as above, so the
# median item is a 4-crossing diagram from the middle of that block, whose
# cost is per-call overhead (parsing, validation, set-up of each walk).
# Diagrams of 11 or more crossings are fixed, not seeded: their skein cost
# varies several-fold between diagrams of one size, so a few seeded ones
# would move a pass's time more than the seed's other items together.
LINK_SCHEDULE = ((1, 16), (2, 16), (3, 16), (4, 200), (5, 16), (6, 6), (7, 6),
                 (8, 6), (9, 6), (10, 6))
# Fixed diagrams of 11 to 15 crossings, the last being the largest input.
LINK_ANCHORS = (11, 12, 13, 14, 15)
LINK_ANCHOR_SEED = 0


def is_planar(d) -> bool:
    """Whether the 4-valent diagram graph embeds in the plane.

    Counts faces of the rotation system given by the CCW slot order at each
    crossing and checks the Euler formula V - E + F = 1 + C, where C is the
    number of connected components of the underlying graph.
    """
    n = d.n_crossings
    if n == 0:
        return True
    ends: dict[int, list[tuple[int, int]]] = {}
    for i, x in enumerate(d.crossings):
        for k, e in enumerate(x):
            ends.setdefault(e, []).append((i, k))

    def other(i, k):
        occ = ends[d.crossings[i][k]]
        return occ[1] if occ[0] == (i, k) else occ[0]

    faces, seen = 0, set()
    for start in ((i, k) for i in range(n) for k in range(4)):
        if start in seen:
            continue
        faces += 1
        cur = start
        while True:
            seen.add(cur)
            i, k = cur
            cur = other(i, (k + 1) % 4)
            if cur == start:
                break

    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for occ in ends.values():
        (i, _), (j, _) = occ
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri
    comps = len({find(i) for i in range(n)})
    # V - E + F = 1 + C with V = n and E = 2n
    return -n + faces == 1 + comps


def seed_diagrams(lib) -> list:
    table = lib.family.load_table()
    return ([lib.diagram.parse_pd(code) for code in _SEED_CODES]
            + [table.diagram(name) for name in _TABLE_SEEDS])


def random_planar_diagram(lib, rng: random.Random, seeds: list, target: int):
    """One planar diagram with exactly ``target`` crossings.

    Starts from a seed diagram of the same crossing parity and applies
    random steps: a crossing switch, a full-twist insertion (kept only while
    the result stays planar and within ``target``), or an added free loop
    (up to MAX_COMPONENTS components).  Walks that stall are restarted.
    """
    starts = [d for d in seeds
              if d.n_crossings <= target and (target - d.n_crossings) % 2 == 0]
    while True:
        d = rng.choice(starts)
        for _ in range(4 * target + 8):
            op = rng.randrange(4)
            if op == 0:
                d = d.switch_crossing(rng.randrange(d.n_crossings))
            elif op == 1 and d.n_crossings < target:
                n_edges = 2 * d.n_crossings
                x = rng.randrange(1, n_edges + 1)
                y = rng.randrange(1, n_edges + 1)
                if x == y:
                    continue
                cand = d.insert_full_twists((x, y), rng.choice((1, -1)))
                if is_planar(cand):
                    d = cand
            elif op == 2 and d.component_count() < MAX_COMPONENTS and rng.randrange(4) == 0:
                d = lib.diagram.PDDiagram(d.crossings, d.free_loops + 1)
        if d.n_crossings == target and is_planar(d):
            return d


def link_inputs(lib, seed: int) -> list:
    seeds = seed_diagrams(lib)
    rng = random.Random(seed)
    items = []
    for target, count in LINK_SCHEDULE:
        for _ in range(count):
            d = random_planar_diagram(lib, rng, seeds, target)
            items.append(Item(f"link[{len(items)}]", target, d))
    rng = random.Random(LINK_ANCHOR_SEED)
    for target in LINK_ANCHORS:
        d = random_planar_diagram(lib, rng, seeds, target)
        repeats = LARGEST_REPEATS if target == max(LINK_ANCHORS) else 1
        items.extend(Item(f"link[anchor{target}]", target, d) for _ in range(repeats))
    return items


def link_run(lib, item: Item):
    d = lib.diagram.parse_pd(item.data.render())
    nabla = lib.skein.conway(d)
    vee = lib.skein.jones(d)
    oracle = lib.skein.jones_bracket_oracle(d)
    return d, nabla, vee, oracle


def check_link(item: Item, result) -> "str | None":
    """Jones against the bracket state sum, plus V(1) and the Conway constant.

    With this package's unlink normalisation (t^(1/2) + t^(-1/2))^(c-1),
    V(1) = 2^(c-1) for a c-component link.
    """
    d, nabla, vee, oracle = result
    c = item.data.component_count()
    if d != item.data:
        return f"{item.label}: parse_pd(render) changed the diagram"
    if vee != oracle:
        return f"{item.label}: skein Jones {vee.render()} != oracle {oracle.render()}"
    if vee.moment(0) != 2 ** (c - 1):
        return f"{item.label}: V(1) = {vee.moment(0)}, expected {2 ** (c - 1)}"
    want = 1 if c == 1 else 0
    if nabla.coeff(0) != want:
        return f"{item.label}: Conway(0) = {nabla.coeff(0)}, expected {want}"
    return None


# -- forms ---------------------------------------------------------------------

# Seeded forms per rank; 22 and 46 are the ranks of K3 and E(4).  Half the
# stream has rank 22, so the median item is a K3-sized form; larger seeded
# ranks are few because their cost varies most from form to form.  The
# fixed rank-48 form is the largest input.
FORM_SCHEDULE = ((10, 4), (14, 4), (18, 4), (22, 30), (26, 4), (30, 4), (34, 1),
                 (38, 1), (42, 1), (46, 1))
FORM_ANCHOR_RANK = 48
FORM_ANCHOR_SEED = 0
# Elementary congruences per unit of rank; enough to make every form dense.
SCRAMBLE_STEPS_PER_RANK = 4


def scramble(rng: random.Random, matrix, cls, steps: int):
    """Apply ``steps`` random unimodular congruences Q -> E^T Q E.

    E adds +-1 times basis vector i to basis vector j; the class is carried
    into the new basis as E^-1 cls, so cls^T Q cls and characteristicness
    are unchanged.
    """
    q = [list(row) for row in matrix]
    x = list(cls)
    r = len(q)
    for _ in range(steps):
        i, j = rng.sample(range(r), 2)
        c = rng.choice((1, -1))
        for k in range(r):
            q[k][j] += c * q[k][i]
        for k in range(r):
            q[j][k] += c * q[i][k]
        x[i] -= c * x[j]
    return q, tuple(x)


def random_form(lib, rng: random.Random, rank: int, label: str) -> Item:
    """A scrambled sigma-class block form of the given (even) rank.

    The rank-r form <-1> + H + n<-1> + m<1> + j<-1> has signature
    sigma = m - n - j - 1, which congruence preserves; sigma is drawn among
    the multiples of 4 the rank allows.
    """
    fm = lib.fourmanifold
    sigma = rng.choice([s for s in range(2 - rank, rank - 3) if s % 4 == 0])
    m = (rank - 2 + sigma) // 2
    n = rng.randint(0, rank - 3 - m)
    j = rank - 3 - m - n
    cls, form, _ = fm.build_sigma_class(n, m, j)
    matrix, cls = scramble(rng, form.matrix, cls,
                           SCRAMBLE_STEPS_PER_RANK * rank)
    f = fm.IntersectionForm(matrix)
    genus = rng.randrange(4)
    euler = rng.randrange(-6, 7)
    surface = fm.SurfaceConfig((fm.SurfaceComponent(genus=genus, cls=cls),))
    closed = fm.ManifoldData(form=f, euler=2 - 2 * genus, boundary_kind="closed")
    bounded = fm.ManifoldData(form=f, euler=euler,
                              boundary_kind="homology-sphere-boundary")
    d = euler - (2 - 2 * genus)
    expected = {"signature": sigma, "self_int": 3 * sigma, "defect": (d, 0),
                "coset": d % 2 == 0}
    return Item(label, rank, (f, cls, surface, closed, bounded), expected)


def form_inputs(lib, seed: int) -> list:
    rng = random.Random(seed)
    items = [random_form(lib, rng, rank, f"form[{k}]")
             for k, rank in enumerate(rank for rank, count in FORM_SCHEDULE
                                      for _ in range(count))]
    anchor = random_form(lib, random.Random(FORM_ANCHOR_SEED), FORM_ANCHOR_RANK,
                         "form[anchor]")
    return items + [anchor] * LARGEST_REPEATS


def form_run(lib, item: Item):
    fm = lib.fourmanifold
    f, cls, surface, closed, bounded = item.data
    empty = fm.SurfaceConfig()
    defect = fm.total_defect(bounded, surface, empty)
    return {
        "signature": fm.signature(f),
        "self_int": fm.self_intersection(cls, f),
        "characteristic": fm.is_characteristic(cls, f),
        "saeki": fm.saeki_check(closed, surface, empty),
        "defect": defect,
        "coset": fm.homology_sphere_coset_check(defect),
    }


def check_form(item: Item, result) -> "str | None":
    """Compare with the values congruence preserves, known by construction."""
    want = item.expected
    sigma = want["signature"]
    saeki = result["saeki"]
    defect = result["defect"]
    problems = []
    if result["signature"] != sigma:
        problems.append(f"signature {result['signature']} != {sigma}")
    if result["self_int"] != want["self_int"]:
        problems.append(f"Sigma.Sigma {result['self_int']} != {want['self_int']}")
    if not result["characteristic"]:
        problems.append("class is not characteristic")
    if saeki["signature"] != sigma or not saeki["verdict"]:
        failed = [k for k, ok in saeki["conditions"].items() if not ok]
        problems.append(f"saeki_check signature {saeki['signature']}, failed {failed}")
    if (defect.d, defect.h) != want["defect"]:
        problems.append(f"defect {(defect.d, defect.h)} != {want['defect']}")
    if result["coset"] != want["coset"]:
        problems.append(f"coset check {result['coset']} != {want['coset']}")
    return f"{item.label}: " + "; ".join(problems) if problems else None


WORKLOADS = {
    "twist_family": Workload(twist_inputs, twist_run, check_twist),
    "random_links": Workload(link_inputs, link_run, check_link),
    "forms": Workload(form_inputs, form_run, check_form),
}
