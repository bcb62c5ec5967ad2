"""Acceptance gate: the ten primary criteria, all exact, zero tolerance."""

import itertools
import random
import time
from math import inf

from knotforge.laurent import LaurentPoly
from knotforge import skein
from knotforge.family import (
    TILDE_V,
    conway_family,
    jones_family,
    tilde_v,
)
from knotforge.invariants import distinguish, surgery_invariants
from knotforge.fourmanifold import (
    MapCatalog,
    SurfaceComponent,
    SurfaceConfig,
    TotalDefect,
    build_sigma_class,
    canonical_sphere_constraint,
    homology_sphere_coset_check,
    is_characteristic,
    load_catalog_config,
    self_intersection,
    sg_k,
    signature,
    total_defect,
)

from conftest import (TABLE_NAMES, brute_force_sg_k, closed_form_lambda2, double_config,
                      handle_manifold, mirror, random_planar_diagrams)


def data_path(filename: str) -> str:
    from importlib import resources
    return str(resources.files("knotforge") / "data" / filename)


def test_criterion_1_conway_closed_form(table):
    for n, name in ((0, "5_2"), (1, "9_45"), (2, "11n63")):
        start = time.monotonic()
        nabla = skein.conway(table.diagram(name))
        elapsed = time.monotonic() - start
        assert nabla == conway_family(n), name
        assert elapsed < 1.0, f"conway({name}) took {elapsed:.2f}s"


def test_criterion_2_conway_j0_as_shipped(table):
    # a two-component link's nabla changes sign under mirroring, so z^3 pins
    # the shipped chirality of J_0
    z3 = LaurentPoly.monomial(1, 3)
    d = table.diagram("L7n2")
    assert skein.conway(d) == z3
    assert skein.conway(mirror(d)) == -z3


def test_criterion_3_jones_values(table):
    start = time.monotonic()
    assert skein.jones(table.diagram("5_2")) == LaurentPoly.from_exponents(
        {-1: 1, -2: -1, -3: 2, -4: -1, -5: 1, -6: -1})
    assert tilde_v(table) == TILDE_V
    assert jones_family(1) == skein.jones(table.diagram("9_45"))
    assert jones_family(2) == skein.jones(table.diagram("11n63"))
    assert time.monotonic() - start < 10.0


def test_criterion_4_moments():
    for n in range(11):
        v = jones_family(n)
        assert v.moment(2) == -12
        assert v.moment(3) == 36 * n + 108
    assert tuple(TILDE_V.moment(i) for i in range(4)) == (0, 2, -4, -28)


def test_criterion_5_lambda_invariants(table):
    # closed-form route, n <= 10
    for n in range(11):
        assert closed_form_lambda2(n) == 72 * n + 270
    # engine route at n <= 2, plus lambda1 = -2 throughout
    anchors = {0: "5_2", 1: "9_45", 2: "11n63"}
    records = {}
    for n, name in anchors.items():
        inv = surgery_invariants(table.diagram(name))
        assert inv.lambda2 == 72 * n + 270
        assert inv.lambda1 == -2
        records[n] = inv
    # the distinguisher declares every pair distinguished
    for i, j in itertools.combinations(anchors, 2):
        rep = distinguish(records[i], records[j])
        assert rep["verdict"] == "distinguished", (i, j)


def test_criterion_6_oracle_equivalence(table):
    for name in TABLE_NAMES:
        d = table.diagram(name)
        assert skein.jones_bracket_oracle(d) == skein.jones(d), name
    for d in random_planar_diagrams(seed=2718, count=200, max_crossings=10):
        assert skein.jones_bracket_oracle(d) == skein.jones(d), d.render()


def test_criterion_7_saeki_checker():
    from knotforge.fourmanifold import ManifoldData, parse_block_form, saeki_check
    for g in (0, 1, 2, 3):
        m, f0, f1 = double_config(g)
        rep = saeki_check(m, f0, f1)
        assert rep["verdict"], (g, rep["conditions"])
    # single-condition corruptions at g=1; each fails exactly its condition
    m, f0, f1 = double_config(1)
    corruptions = {
        "euler": (ManifoldData(form=m.form, euler=5, boundary_kind="closed"),
                  f0, f1),
        "w2_characteristic": (m, f0, SurfaceConfig(
            f1.components + (SurfaceComponent(genus=1, cls=(1, 1)),))),
        "f0_orientable": (m, SurfaceConfig(
            (SurfaceComponent(genus=2, orientable=False, cls=(1, 0)),
             f0.components[1])), f1),
        "f1_null_self_intersection": (m, f0, SurfaceConfig(
            (SurfaceComponent(genus=3, cls=(0, 2)),))),
        "f0_self_int_is_3_signature": (m, SurfaceConfig(
            (f0.components[0], SurfaceComponent(genus=1, cls=(0, 3)))), f1),
    }
    for name, (bm, bf0, bf1) in corruptions.items():
        conds = saeki_check(bm, bf0, bf1)["conditions"]
        assert [k for k, ok in conds.items() if not ok] == [name]


def test_criterion_8_defect_arithmetic():
    # the single-handle configuration gives (0, 2)
    m = handle_manifold(-1)
    sigma0 = SurfaceConfig((SurfaceComponent(genus=0, kind="definite",
                                             cls=(1,)),))
    sigma1 = SurfaceConfig((SurfaceComponent(genus=1, cls=(0,)),))
    assert total_defect(m, sigma0, sigma1) == TotalDefect(0, 2)
    # 500-case randomized sweep: general formulas vs. sphere/torus closed form
    rng = random.Random(424242)
    for _ in range(500):
        p = rng.choice((1, -1))
        ks = [rng.randrange(-4, 5) for _ in range(rng.randrange(1, 9))]
        spheres = SurfaceConfig(tuple(
            SurfaceComponent(genus=0, kind="definite", cls=(k,))
            for k in ks))
        tori = SurfaceConfig(tuple(SurfaceComponent(genus=1, cls=(0,))
                                   for _ in range(rng.randrange(5))))
        td = total_defect(handle_manifold(p), spheres, tori)
        assert td == TotalDefect(d=2 - 2 * len(ks),
                                 h=-3 * p + p * sum(k * k for k in ks))
        assert td.d % 2 == 0
    # coset acceptance and rejection
    assert homology_sphere_coset_check(TotalDefect(0, 2))
    assert homology_sphere_coset_check(TotalDefect(0, 0))
    assert not homology_sphere_coset_check(TotalDefect(1, 2))
    assert not homology_sphere_coset_check(TotalDefect(2, 5))
    assert set(canonical_sphere_constraint(-1)) == {1, 3, 5}


def test_criterion_9_sg_combinatorics():
    rng = random.Random(31337)
    class_pool = [(1,), (-1,), (0,), (2,)]
    for _ in range(1000):
        classes = rng.sample(class_pool, rng.randrange(1, 4))
        sings = rng.choice((("indefinite",), ("definite",),
                            ("definite", "indefinite")))
        maps = tuple(
            SurfaceConfig(tuple(
                SurfaceComponent(genus=rng.randrange(7),
                                 kind=rng.choice(("definite", "indefinite")),
                                 cls=rng.choice(class_pool))
                for _ in range(rng.randrange(13))))
            for _ in range(rng.randrange(4)))
        cat = MapCatalog(maps=maps, admissible_classes=classes,
                         allowed_singularities=sings)
        values = []
        for k in range(1, 14):
            v = sg_k(cat, k)
            assert v == brute_force_sg_k(cat, k)
            values.append(v)
        assert values == sorted(values)  # monotonicity
    # empty catalog
    assert sg_k(MapCatalog(), 1) == inf
    # the shipped catalog of the exotic-pair comparison
    catalogs = load_catalog_config(data_path("thm12.json"))
    assert sg_k(catalogs["x1"], 1) == 0
    assert sg_k(catalogs["x2"], 1) >= 1
    for k in (2, 3, 4):
        assert sg_k(catalogs["x1"], k) == inf
        assert sg_k(catalogs["x2"], k) == inf


def test_criterion_10_sigma_class_arithmetic():
    checked = 0
    for n in range(7):
        for m in range(7):
            for j in range(4):
                sig = -1 - n + m - j
                if sig % 4 != 0:
                    continue
                cls, form, k = build_sigma_class(n, m, j)
                assert signature(form) == sig == 4 * k
                assert is_characteristic(cls, form)
                assert self_intersection(cls, form) == 3 * sig
                checked += 1
    assert checked >= 20
