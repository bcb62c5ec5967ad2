"""Intersection forms, fold-map conditions, defects, and genus invariants."""

import dataclasses
import json
import random
import re
from math import inf

import pytest

from conftest import brute_force_sg_k, double_config, handle_manifold, signature_reference
from knotforge import fourmanifold as fm
from knotforge.fourmanifold import (
    IntersectionForm,
    ManifoldData,
    MapCatalog,
    SurfaceComponent,
    SurfaceConfig,
    TotalDefect,
    build_sigma_class,
    canonical_sphere_constraint,
    homology_sphere_coset_check,
    is_characteristic,
    load_catalog_config,
    load_manifold_config,
    parse_block_form,
    saeki_check,
    self_intersection,
    sg_k,
    sg_plain,
    signature,
    total_defect,
)


class TestIntegerInput:
    """Non-integer input is refused, never truncated."""

    @pytest.mark.parametrize("bad", [1.5, 2.0, True, "1"])
    def test_form_entry(self, bad):
        with pytest.raises(ValueError, match="form entry must be an integer"):
            IntersectionForm([[bad]])

    def test_class_coordinates(self):
        f = parse_block_form("<1> + <-1>")
        for cls in ((0.5, 1.9), (1, 1.0), (True, 0)):
            with pytest.raises(ValueError, match="class coordinate"):
                self_intersection(cls, f)
            with pytest.raises(ValueError, match="class coordinate"):
                is_characteristic(cls, f)
            with pytest.raises(ValueError, match="class coordinate"):
                SurfaceComponent(genus=1, cls=cls)
            with pytest.raises(ValueError, match="class coordinate"):
                MapCatalog(admissible_classes=(cls,))

    @pytest.mark.parametrize("bad", [0.5, 1.0, False])
    def test_genus(self, bad):
        with pytest.raises(ValueError, match="genus must be an integer"):
            SurfaceComponent(genus=bad)

    def test_negative_genus(self):
        with pytest.raises(ValueError, match=r"^genus must be non-negative$"):
            SurfaceComponent(genus=-1)

    @pytest.mark.parametrize("bad", [2.5, 2.0, True])
    def test_euler(self, bad):
        with pytest.raises(ValueError, match="euler must be an integer"):
            ManifoldData(form=parse_block_form("<-1>"), euler=bad,
                         boundary_kind="other-boundary")

    @pytest.mark.parametrize("bad", [0.0, 2.0, False])
    def test_mu_coset(self, bad):
        with pytest.raises(ValueError, match="mu_coset must be an integer"):
            ManifoldData(form=parse_block_form("<-1>"), euler=2,
                         boundary_kind="homology-sphere-boundary", mu_coset=bad)

    def test_integers_still_accepted(self):
        f = IntersectionForm([[1, 0], [0, -1]])
        assert self_intersection((1, 1), f) == 0
        c = SurfaceComponent(genus=1, cls=[1, 0])
        assert c.cls == (1, 0) and c.euler_char() == 0
        assert SurfaceComponent(genus=0, cls=(-2,)).homology_class(
            parse_block_form("<1>")) == (-2,)


class TestParseBlockForm:
    def test_single_block(self):
        assert parse_block_form("<-1>").matrix == ((-1,),)

    def test_hyperbolic(self):
        assert parse_block_form("H").matrix == ((0, 1), (1, 0))

    def test_repeated_blocks(self):
        f = parse_block_form("<-1> + H + 3<-1> + 8<1>")
        assert f.rank == 1 + 2 + 3 + 8

    def test_malformed(self):
        for bad in ("<1> + Q", "", "2", "<1> + "):
            with pytest.raises(ValueError):
                parse_block_form(bad)

    @pytest.mark.parametrize("text, term", [
        ("\u0662<1> + <-3>", "\u0662<1>"), ("2<1> + <-\u0663>", "<-\u0663>"),
        ("<\uff11>", "<\uff11>")])
    def test_only_ascii_digits(self, text, term):
        # int() reads Arabic-Indic and fullwidth digits; the notation does not
        with pytest.raises(ValueError) as info:
            parse_block_form(text)
        assert str(info.value) == f"unrecognized block term: {term!r}"

    @pytest.mark.parametrize("text, term", [
        ("2\u00a0<1> + H", "2\u00a0<1>"), ("<1>\u3000+ H", "<1>\u3000"),
        ("<\u20031>", "<\u20031>")])
    def test_only_ascii_whitespace(self, text, term):
        # \s and str.strip() without re.ASCII would read "2\u00a0<1> + H" as
        # a form of rank 4
        with pytest.raises(ValueError) as info:
            parse_block_form(text)
        assert str(info.value) == f"unrecognized block term: {term!r}"
        assert parse_block_form("2\t<1>\n+ H ").rank == 4

    @pytest.mark.parametrize("text, term", [
        ("0<1>", "0<1>"), ("0H + <1>", "0H"), ("<-1> + 00 H", "00 H")])
    def test_zero_count_rejected(self, text, term):
        # a zero count would drop its block and build a smaller form
        with pytest.raises(ValueError, match=f"at least 1 in term '{term}'"):
            parse_block_form(text)


class TestHashable:
    def test_equal_forms_hash_equal(self):
        f = parse_block_form("<-1> + H")
        g = IntersectionForm([[-1, 0, 0], [0, 0, 1], [0, 1, 0]])
        assert f == g and hash(f) == hash(g)
        assert len({f, g, parse_block_form("H + <-1>")}) == 2

    def test_not_equal_to_its_matrix(self):
        f = parse_block_form("<-1> + H")
        assert f != f.matrix and not f == f.matrix

    def test_manifold_data_hashes(self):
        x = ManifoldData(form=parse_block_form("<-1> + H"), euler=4,
                         boundary_kind="closed")
        y = ManifoldData(form=parse_block_form("<-1> + H"), euler=4,
                         boundary_kind="closed")
        assert hash(x) == hash(y) and len({x, y}) == 1


def scrambled_sigma_form(rng, n, m, j, steps):
    """build_sigma_class(n, m, j) under ``steps`` random congruences E^T Q E.

    Each E adds +-1 times basis vector a to basis vector b; the class moves
    to E^-1 cls.  Congruence keeps the signature, cls . cls and
    characteristicness, so the expected values are known by construction.
    """
    cls, form, k = build_sigma_class(n, m, j)
    q = [list(row) for row in form.matrix]
    x = list(cls)
    r = len(q)
    for _ in range(steps):
        a, b = rng.sample(range(r), 2)
        c = rng.choice((1, -1))
        for row in q:
            row[b] += c * row[a]
        q[b] = [y + c * z for y, z in zip(q[b], q[a])]
        x[a] -= c * x[b]
    return IntersectionForm(q), tuple(x), 4 * k


def sigma_block_counts(rng, rank):
    """(n, m, j) with 3 + n + m + j = rank and 4 | sigma = m - n - j - 1."""
    sigma = rng.choice([s for s in range(2 - rank, rank - 3) if s % 4 == 0])
    m = (rank - 2 + sigma) // 2
    n = rng.randint(0, rank - 3 - m)
    return n, m, rank - 3 - m - n


class TestSignature:
    def test_negative_definite_one(self):
        assert signature(parse_block_form("<-1>")) == -1

    def test_paper_block_sum(self):
        assert signature(parse_block_form("<-1> + H + 3<-1> + 8<1>")) == 4

    def test_empty_form(self):
        assert signature(IntersectionForm(())) == 0

    def test_hyperbolic_is_zero(self):
        assert signature(parse_block_form("H")) == 0
        assert signature(parse_block_form("4H")) == 0

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            IntersectionForm(((0, 1), (2, 0)))

    @pytest.mark.parametrize("matrix, message", [
        ([[1, 2], [3]], "must be square"),              # ragged
        ([[1, 2]], "must be square"),
        ([[1, 0, 2], [0, 1, 0], [0, 0, 1]], "must be symmetric"),
        # entry type before shape, shape before symmetry
        ([[1, 2], [1.5]], "form entry must be an integer, got 1.5"),
        ([[0, 1], [2, True]], "form entry must be an integer, got True"),
        ([[0, 1, 5], [2, 0]], "must be square"),
    ])
    def test_validation_messages(self, matrix, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            IntersectionForm(matrix)

    # signature first orders the indices by |diagonal|, zeros last, so each
    # comment names the branches taken in that order
    @pytest.mark.parametrize("matrix, sigma", [
        ([[0, 1], [1, -2]], 0),             # -2 sorts first: one pair, no repair
        # the zero row sorts last: a pair, then the skip
        ([[1, 0, 0], [0, 0, 0], [0, 0, -1]], 0),
        ([[0] * 3] * 3, 0),                 # three zero rows, all skipped
        # <-1> sorts first; its pair has minor 0, so one pivot, then H is
        # repaired and taken as a pair
        ([[0, 1, 0], [1, 0, 0], [0, 0, -1]], -1),
        ([[1, 2], [2, 1]], 0),              # one two-pivot step, minor -3
        # A4: two two-pivot steps, the second dividing by prev = 3
        ([[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 2]], 4),
        ([[1, 1], [1, 1]], 1),              # 2x2 minor 0: one pivot, then a zero row
        ([[2, 1], [1, 0]], 0),              # s = 0 but minor -1: still a pair
        # 1 sorts first; its pair has minor 0, so one pivot, then a repair
        # with the next row and a pair
        ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], 1),
        # a pair, then an odd last row (A3)
        ([[2, 1, 0], [1, 2, 1], [0, 1, 2]], 3),
        # a pair, then a pair with minor 0 (the zero row sorts last): one
        # pivot, then the skip
        ([[1, 1, 0, 0], [1, -1, 0, 0], [0, 0, 0, 0], [0, 0, 0, -1]], -1),
        # the zero row sorts last: a pair of minor 3, then the skip
        ([[2, 0, 1], [0, 0, 0], [1, 0, 2]], 2),
        # minor 0: one pivot leaves a[1] = (0, 1), a[2][2] = -2, so adding
        # row 2 would cancel and the repair subtracts it (eps = -1); a pair
        ([[-1, -1, 1], [-1, -1, 0], [1, 0, 1]], -1),
        # every diagonal entry 0 and a[0][1] = 0: the repair picks row 2;
        # then minor 0, one pivot, the zero row skipped and the last row
        ([[0, 0, 1], [0, 0, 0], [1, 0, 0]], 0),
        # minor 0, one pivot; row 2 is zero from then on and is skipped
        # before the zero row that sorted last
        ([[1, 0, 1], [0, 0, 0], [1, 0, 1]], 1),
        # minor 0, one pivot; the repair picks row 3 and subtracts it
        # (eps = -1); minor 0 again, one pivot, the zero row skipped and
        # the last row
        ([[2, 0, 0, 2], [0, 0, 0, 1], [0, 0, 0, 0], [2, 1, 0, 0]], 1),
        # a pair of minor -8, then H repaired and taken as a pair that
        # divides by prev = -8
        ([[2, 2, 0, 0], [2, -2, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], 0),
    ])
    def test_pinned_branches(self, matrix, sigma):
        assert signature(IntersectionForm(matrix)) == sigma
        assert signature_reference(matrix) == sigma

    def test_against_fraction_reference(self):
        # generic, singular (a row and column copied) and zero-diagonal
        # symmetric matrices of every rank 1..30
        rng = random.Random(30)
        for rank in range(1, 31):
            for kind in ("generic", "singular", "zero-diagonal"):
                m = [[0] * rank for _ in range(rank)]
                for i in range(rank):
                    for j in range(i, rank):
                        m[i][j] = m[j][i] = rng.randint(-3, 3)
                if kind == "singular" and rank > 1:
                    a, b = rng.sample(range(rank), 2)
                    m[b] = list(m[a])
                    for row in m:
                        row[b] = row[a]
                elif kind == "zero-diagonal":
                    for i in range(rank):
                        m[i][i] = 0
                assert signature(IntersectionForm(m)) == signature_reference(m)

    def test_scrambled_sigma_forms_up_to_rank_48(self):
        rng = random.Random(48)
        for rank in (4, 10, 22, 22, 30, 46, 48):
            n, m, j = sigma_block_counts(rng, rank)
            f, _, sigma = scrambled_sigma_form(rng, n, m, j, 4 * rank)
            assert f.rank == rank
            assert signature(f) == signature_reference(f.matrix) == sigma

    def test_scrambled_sigma_forms_past_the_reference(self):
        # ranks where the Fraction reference would be too slow; sigma is
        # known by construction
        rng = random.Random(100)
        for rank in (62, 80, 100):
            n, m, j = sigma_block_counts(rng, rank)
            f, _, sigma = scrambled_sigma_form(rng, n, m, j, 4 * rank)
            assert f.rank == rank
            assert signature(f) == sigma

    def test_against_numpy_eigenvalue_signs(self):
        numpy = pytest.importorskip("numpy")
        rng = random.Random(2024)
        for _ in range(120):
            n = rng.randrange(1, 15)
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    m[i][j] = m[j][i] = rng.randrange(-4, 5)
            eigs = numpy.linalg.eigvalsh(numpy.array(m, dtype=float))
            # integer symmetric matrices this small have nonzero eigenvalues
            # far from the float noise floor; guard the oracle's validity
            nonzero = [e for e in eigs if abs(e) > 1e-7]
            assert all(abs(e) > 1e-4 or abs(e) < 1e-9 for e in eigs)
            expected = sum(1 for e in nonzero if e > 0) \
                - sum(1 for e in nonzero if e < 0)
            assert signature(IntersectionForm(m)) == expected


class TestCharacteristic:
    def test_generator_of_minus_one(self):
        f = parse_block_form("<-1>")
        assert self_intersection((1,), f) == -1
        assert is_characteristic((1,), f)

    def test_zero_class_in_even_form(self):
        f = parse_block_form("H")
        assert is_characteristic((0, 0), f)
        assert not is_characteristic((1, 0), f)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            self_intersection((1, 0), parse_block_form("<-1>"))

    def test_surface_component_dimension_mismatch(self):
        # a component's class is checked against the form with the error of
        # self_intersection
        f = parse_block_form("<-1>")
        c = SurfaceComponent(genus=0, cls=(1, 0))
        msg = r"^class has 2 coordinates, form has rank 1$"
        for call in (lambda: self_intersection(c.cls, f),
                     lambda: c.self_int(f), lambda: c.homology_class(f)):
            with pytest.raises(ValueError, match=msg):
                call()

    def test_surface_component_self_int_checks_class_once(self, monkeypatch):
        calls = []

        def counted(cls, form):
            calls.append(cls)
            return check(cls, form)

        check = fm._check_dims
        monkeypatch.setattr(fm, "_check_dims", counted)
        assert SurfaceComponent(genus=0, cls=(1,)).self_int(
            parse_block_form("<-1>")) == -1
        assert calls == [(1,)]

    def test_scrambled_sigma_classes(self):
        # the class carried through the congruences stays characteristic,
        # with self-intersection 3 sigma; moving one coordinate by 1 breaks
        # characteristicness, since a unimodular form has no even column
        rng = random.Random(22)
        for rank in (6, 14, 22, 38):
            n, m, j = sigma_block_counts(rng, rank)
            f, cls, sigma = scrambled_sigma_form(rng, n, m, j, 4 * rank)
            assert self_intersection(cls, f) == 3 * sigma
            assert is_characteristic(cls, f)
            flipped = (cls[0] + 1,) + cls[1:]
            assert not is_characteristic(flipped, f)


class TestBuildSigmaClass:
    def test_3_8_0(self):
        cls, form, k = build_sigma_class(3, 8, 0)
        assert k == 1
        assert self_intersection(cls, form) == 12
        assert is_characteristic(cls, form)

    def test_0_1_0(self):
        cls, form, k = build_sigma_class(0, 1, 0)
        assert k == 0
        assert self_intersection(cls, form) == 0

    def test_0_0_0_rejected(self):
        with pytest.raises(ValueError, match="divisible by 4"):
            build_sigma_class(0, 0, 0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            build_sigma_class(-1, 0, 0)

    @pytest.mark.parametrize("counts, name, bad", [
        ((3.0, 8, 0), "n", "3.0"), ((True, 10, 0), "n", "True"),
        ((0, 1, False), "j", "False")])
    def test_non_integer_counts_rejected(self, counts, name, bad):
        with pytest.raises(ValueError,
                           match=f"^block count {name} must be an integer, got {bad}$"):
            build_sigma_class(*counts)

    def test_sweep(self):
        # acceptance criterion 10: every admissible (n, m, j) in range gives
        # a characteristic class of self-intersection 3*sigma
        checked = 0
        for n in range(7):
            for m in range(7):
                for j in range(4):
                    sig = -1 - n + m - j
                    if sig % 4 != 0:
                        with pytest.raises(ValueError):
                            build_sigma_class(n, m, j)
                        continue
                    cls, form, k = build_sigma_class(n, m, j)
                    assert 4 * k == sig == signature(form)
                    assert self_intersection(cls, form) == 3 * sig
                    assert is_characteristic(cls, form)
                    checked += 1
        assert checked > 0


# -- fold-map existence -------------------------------------------------------

class TestSaeki:
    @pytest.mark.parametrize("g", [0, 1, 2, 3])
    def test_double_passes_all_five(self, g):
        m, f0, f1 = double_config(g)
        rep = saeki_check(m, f0, f1)
        assert rep["verdict"], rep["conditions"]
        assert rep["signature"] == 0
        assert all(rep["conditions"].values())

    def test_corrupt_euler_only(self):
        m, f0, f1 = double_config(1)
        bad = ManifoldData(form=m.form, euler=5, boundary_kind="closed")
        conds = saeki_check(bad, f0, f1)["conditions"]
        assert [k for k, ok in conds.items() if not ok] == ["euler"]

    def test_corrupt_w2_only(self):
        m, f0, f1 = double_config(1)
        # an extra (1,1) torus in F1: self-int -1+1 = 0 and chi 0, so only
        # the characteristic test sees it
        f1_bad = SurfaceConfig(f1.components
                               + (SurfaceComponent(genus=1, cls=(1, 1)),))
        conds = saeki_check(m, f0, f1_bad)["conditions"]
        assert [k for k, ok in conds.items() if not ok] == ["w2_characteristic"]

    def test_corrupt_orientability_only(self):
        g = 1
        m, f0, f1 = double_config(g)
        # non-orientable genus 2g has the same Euler characteristic 2-2g
        f0_bad = SurfaceConfig((
            SurfaceComponent(genus=2 * g, orientable=False, cls=(1, 0)),
            f0.components[1],
        ))
        conds = saeki_check(m, f0_bad, f1)["conditions"]
        assert [k for k, ok in conds.items() if not ok] == ["f0_orientable"]

    def test_corrupt_f1_self_int_only(self):
        m, f0, f1 = double_config(1)
        # cls (0,2) has self-int 4 but the same mod-2 class as (0,0)
        f1_bad = SurfaceConfig((
            SurfaceComponent(genus=f1.components[0].genus, cls=(0, 2)),))
        conds = saeki_check(m, f0, f1_bad)["conditions"]
        assert [k for k, ok in conds.items() if not ok] \
            == ["f1_null_self_intersection"]

    def test_corrupt_f0_self_int_only(self):
        m, f0, f1 = double_config(1)
        # cls (0,3) keeps parity but moves F0.F0 from 0 to 8
        f0_bad = SurfaceConfig((
            f0.components[0],
            SurfaceComponent(genus=1, cls=(0, 3)),
        ))
        conds = saeki_check(m, f0_bad, f1)["conditions"]
        assert [k for k, ok in conds.items() if not ok] \
            == ["f0_self_int_is_3_signature"]

    def test_empty_singular_set_rejected(self):
        m, _, _ = double_config(0)
        with pytest.raises(ValueError):
            saeki_check(m, SurfaceConfig(), SurfaceConfig())

    def test_non_closed_rejected(self):
        _, f0, f1 = double_config(0)
        m = ManifoldData(form=parse_block_form("<-1> + <1>"), euler=4,
                         boundary_kind="other-boundary")
        with pytest.raises(ValueError):
            saeki_check(m, f0, f1)


# -- defects ------------------------------------------------------------------

class TestTotalDefect:
    def test_prop44_configuration(self):
        m = handle_manifold(-1)
        sigma0 = SurfaceConfig((SurfaceComponent(genus=0, kind="definite",
                                                 cls=(1,)),))
        sigma1 = SurfaceConfig((SurfaceComponent(genus=1, cls=(0,)),))
        assert total_defect(m, sigma0, sigma1) == TotalDefect(d=0, h=2)

    def test_sphere_without_tori(self):
        m = handle_manifold(-1)
        sigma0 = SurfaceConfig((SurfaceComponent(genus=0, cls=(1,)),))
        assert total_defect(m, sigma0, SurfaceConfig()) == TotalDefect(0, 2)

    def test_closed_rejected(self):
        m = ManifoldData(form=parse_block_form("<-1>"), euler=2,
                         boundary_kind="closed")
        with pytest.raises(ValueError):
            total_defect(m, SurfaceConfig(), SurfaceConfig())

    def test_non_orientable_rejected(self):
        m = handle_manifold(-1)
        bad = SurfaceConfig((SurfaceComponent(genus=1, orientable=False,
                                              cls=(1,)),))
        with pytest.raises(ValueError):
            total_defect(m, bad, SurfaceConfig())

    def test_randomized_sweep_against_closed_form(self):
        # 500 cases: sphere configurations with multiples k_i and torus
        # Sigma^1 components over a (+/-1)-framed handle, where the two
        # defect formulas provably coincide (sigma(<p>) = p)
        rng = random.Random(99)
        for _ in range(500):
            p = rng.choice((1, -1))
            m = handle_manifold(p)
            ks = [rng.randrange(-4, 5) for _ in range(rng.randrange(1, 9))]
            spheres = SurfaceConfig(tuple(
                SurfaceComponent(genus=0, kind="definite", cls=(k,))
                for k in ks))
            tori = SurfaceConfig(tuple(
                SurfaceComponent(genus=1, cls=(0,))
                for _ in range(rng.randrange(5))))
            td = total_defect(m, spheres, tori)
            chi0 = 2 * len(ks)
            expected = TotalDefect(d=0 + 2 - chi0,
                                   h=-3 * p + p * sum(k * k for k in ks))
            assert td == expected
            assert td.d % 2 == 0


class TestCosetCheck:
    def test_accepts_canonical_defects(self):
        assert homology_sphere_coset_check(TotalDefect(0, 2))
        assert homology_sphere_coset_check(TotalDefect(0, 0))

    def test_rejects_odd_degree(self):
        assert not homology_sphere_coset_check(TotalDefect(1, 2))

    def test_rejects_odd_h(self):
        assert not homology_sphere_coset_check(TotalDefect(2, 5))
        assert not homology_sphere_coset_check(TotalDefect(0, 3))

    @pytest.mark.parametrize("bad", [1, 5, -2, 4])
    def test_mu_outside_the_two_cosets_rejected(self, bad):
        with pytest.raises(ValueError, match="mu_coset must be 0, 2, or absent"):
            homology_sphere_coset_check(TotalDefect(2, 1), bad)

    @pytest.mark.parametrize("bad", [True, False, 2.0, "2"])
    def test_non_integer_mu_rejected(self, bad):
        with pytest.raises(ValueError, match="mu_coset must be an integer"):
            homology_sphere_coset_check(TotalDefect(0, 2), bad)

    def test_specified_mu(self):
        # (0, 2) lies in the mu=2 translate, not in mu=0
        assert homology_sphere_coset_check(TotalDefect(0, 2), mu_coset=2)
        assert not homology_sphere_coset_check(TotalDefect(0, 2), mu_coset=0)

    def test_lattice_points_accepted(self):
        rng = random.Random(5)
        for _ in range(200):
            s, r = rng.randrange(-6, 7), rng.randrange(-6, 7)
            mu = rng.choice((0, 2))
            # an honest lattice point: s*(-1,2) + r*(0,4) + (0,mu)
            point = TotalDefect(d=-s, h=2 * s + 4 * r + mu)
            if point.d % 2 == 0:
                assert homology_sphere_coset_check(point, mu)
                assert homology_sphere_coset_check(point)  # union of cosets


class TestCanonicalSphereConstraint:
    def test_minus_one(self):
        assert canonical_sphere_constraint(-1) == {1: 2, 3: 0, 5: -2}
        assert set(canonical_sphere_constraint(-1)) == {1, 3, 5}

    def test_minus_two(self):
        assert set(canonical_sphere_constraint(-2)) == {2, 3, 4}

    def test_seven(self):
        assert canonical_sphere_constraint(7) == {3: 0}

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            canonical_sphere_constraint(0)

    @pytest.mark.parametrize("bad", [0.5, True, "1"])
    def test_non_integer_framing_rejected(self, bad):
        with pytest.raises(ValueError, match="framing must be an integer"):
            canonical_sphere_constraint(bad)

    def test_brute_force_over_s(self):
        for p in (-5, -3, -2, -1, 1, 2, 3, 4, 7):
            expected = {s: -3 * p + p * s for s in range(1, 101)
                        if -3 * p + p * s in (-2, 0, 2)}
            assert canonical_sphere_constraint(p) == expected


# -- genus invariants ---------------------------------------------------------

def catalog_of_genera(*maps, classes=((1,),), sings=("indefinite",)):
    """Catalog whose maps have the given admissible genus lists."""
    return MapCatalog(
        maps=tuple(
            SurfaceConfig(tuple(SurfaceComponent(genus=g, cls=(1,))
                                for g in genera))
            for genera in maps),
        admissible_classes=classes,
        allowed_singularities=sings,
    )


class TestSgExamples:
    def test_order_statistics(self):
        cat = catalog_of_genera([0, 2, 1])
        assert sg_k(cat, 1) == 0
        assert sg_k(cat, 2) == 1
        assert sg_k(cat, 3) == 2
        assert sg_k(cat, 4) == inf

    def test_empty_catalog(self):
        cat = MapCatalog()
        for k in (1, 2, 5):
            assert sg_k(cat, k) == inf
        assert sg_plain(cat) == inf

    def test_slice_side_k2_infinite(self):
        cat = catalog_of_genera([0], [0], [0])
        assert sg_k(cat, 1) == 0
        assert sg_k(cat, 2) == inf

    def test_sg_plain(self):
        assert sg_plain(catalog_of_genera([0, 2, 1])) == 2
        assert sg_plain(catalog_of_genera([3], [1, 1])) == 1

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            sg_k(MapCatalog(), 0)

    @pytest.mark.parametrize("bad", [True, 1.0, "1"])
    def test_non_integer_k_rejected(self, bad):
        with pytest.raises(ValueError, match="k must be an integer"):
            sg_k(catalog_of_genera([0, 2]), bad)

    @pytest.mark.parametrize("kinds", [("defnite",), ("indefinite", "Definite"), ([1],)])
    def test_unknown_singularity_kind_rejected(self, kinds):
        bad = next(k for k in kinds if k not in ("definite", "indefinite"))
        with pytest.raises(ValueError,
                           match=re.escape(f"unknown singularity kind {bad!r}")):
            MapCatalog(allowed_singularities=kinds)

    def test_filters_by_class_and_singularity(self):
        cat = MapCatalog(
            maps=(SurfaceConfig((
                SurfaceComponent(genus=0, cls=(2,)),            # wrong class
                SurfaceComponent(genus=1, cls=(1,), kind="definite"),  # wrong kind
                SurfaceComponent(genus=3, cls=(1,)),
            )),),
            admissible_classes=((1,),),
            allowed_singularities=("indefinite",),
        )
        assert sg_k(cat, 1) == 3
        assert sg_k(cat, 2) == inf


class TestSgRandomized:
    def _random_catalog(self, rng):
        class_pool = [(1,), (-1,), (0,), (2,)]
        classes = rng.sample(class_pool, rng.randrange(1, 4))
        sings = rng.choice((("indefinite",), ("definite",),
                            ("definite", "indefinite")))
        maps = []
        for _ in range(rng.randrange(4)):
            comps = tuple(
                SurfaceComponent(genus=rng.randrange(7),
                                 kind=rng.choice(("definite", "indefinite")),
                                 cls=rng.choice(class_pool))
                for _ in range(rng.randrange(13)))
            maps.append(SurfaceConfig(comps))
        return MapCatalog(maps=tuple(maps), admissible_classes=classes,
                          allowed_singularities=sings)

    def test_1000_catalogs_match_brute_force(self):
        rng = random.Random(7)
        for _ in range(1000):
            cat = self._random_catalog(rng)
            for k in range(1, 14):
                assert sg_k(cat, k) == brute_force_sg_k(cat, k)

    def test_monotonicity(self):
        rng = random.Random(21)
        for _ in range(300):
            cat = self._random_catalog(rng)
            values = [sg_k(cat, k) for k in range(1, 14)]
            assert values == sorted(values)

    def test_sg_plain_is_last_order_statistic_per_map(self):
        rng = random.Random(33)
        for _ in range(200):
            cat = self._random_catalog(rng)
            expected = inf
            for config in cat.maps:
                genera = [c.genus for c in config.components
                          if c.kind in cat.allowed_singularities
                          and tuple(c.cls) in cat.admissible_classes]
                if genera:
                    expected = min(expected, max(genera))
            assert sg_plain(cat) == expected


# -- JSON schema --------------------------------------------------------------

class TestConfigSchema:
    """The loaders' file tables, and the dataclass fields they read for the rest."""

    def test_file_tables_hold_the_top_level_keys(self, tmp_path):
        surfaces = ["f0", "f1", "sigma0", "sigma1"]
        assert list(fm._CONFIG_FILE) == ["manifold", *surfaces, "comment"]
        assert list(fm._CATALOG_FILE) == ["catalogs", "comment"]
        # a single catalog at top level holds the catalog's fields and a comment
        path = tmp_path / "cat.json"
        path.write_text(json.dumps({"map": []}))
        allowed = [f.name for f in dataclasses.fields(MapCatalog)] + ["comment"]
        with pytest.raises(ValueError, match=re.escape(f"(allowed: {', '.join(allowed)})")):
            load_catalog_config(str(path))

    def test_every_top_level_key_is_read(self, tmp_path):
        # a config holding every key of its file table loads each one but the comment
        form = {"form": "<1>", "euler": 2, "boundary_kind": "other-boundary"}
        path = tmp_path / "all.json"
        path.write_text(json.dumps({key: {} for key in fm._CONFIG_FILE}
                                   | {"manifold": form, "comment": ""}))
        assert list(load_manifold_config(str(path))) == [
            key for key in fm._CONFIG_FILE if key != "comment"]

    def test_absent_keys_take_the_dataclass_defaults(self, tmp_path):
        cfg, cat = tmp_path / "cfg.json", tmp_path / "cat.json"
        cfg.write_text(json.dumps({
            "manifold": {"form": "<1>", "euler": 2, "boundary_kind": "closed"},
            "f0": {}, "f1": {"components": [{"genus": 0}]}}))
        cat.write_text(json.dumps({"maps": [{}]}))
        loaded = load_manifold_config(str(cfg))
        assert loaded == {
            "manifold": ManifoldData(form=parse_block_form("<1>"), euler=2,
                                     boundary_kind="closed"),
            "f0": SurfaceConfig(),
            "f1": SurfaceConfig((SurfaceComponent(genus=0),))}
        assert load_catalog_config(str(cat)) == {
            "catalog": MapCatalog(maps=(SurfaceConfig(),))}
