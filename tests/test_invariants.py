"""Surgery invariants: Conway coefficients, Jones moments, lambda1, lambda2."""

from fractions import Fraction

import pytest

from knotforge.diagram import parse_pd
from knotforge.laurent import LaurentPoly
from knotforge.invariants import (
    a2,
    c4,
    casson_minus_one_surgery,
    distinguish,
    ohtsuki_lambda2,
    surgery_invariants,
)
from knotforge import skein

from conftest import closed_form_lambda2

F = Fraction


def family_conway(n):
    return LaurentPoly.from_exponents({0: 1, 2: 2, 4: -n})


class TestConwayCoefficients:
    def test_c4_of_family(self):
        assert c4(family_conway(5)) == -5

    def test_c4_of_unknot(self):
        assert c4(LaurentPoly.one()) == 0

    def test_c4_of_5_2(self):
        assert c4(LaurentPoly.from_exponents({0: 1, 2: 2})) == 0

    def test_a2_of_family(self):
        for n in range(6):
            assert a2(family_conway(n)) == 2

    def test_non_integral_rejected(self):
        half = LaurentPoly.monomial(1, F(1, 2))
        with pytest.raises(ValueError):
            c4(half)
        with pytest.raises(ValueError, match="integral exponents"):
            a2(half)


class TestMoments:
    def test_v2_of_family(self):
        from knotforge.family import jones_family
        for n in range(5):
            assert jones_family(n).moment(2) == -12

    def test_v3_of_family(self):
        from knotforge.family import jones_family
        for n in range(5):
            assert jones_family(n).moment(3) == 36 * n + 108

    def test_v0_is_one_for_knots(self, table):
        for name in ("unknot", "trefoil", "5_2", "9_45", "11n63"):
            assert skein.jones(table.diagram(name)).moment(0) == 1

    def test_v1_is_zero_for_knots(self, table):
        for name in ("unknot", "trefoil", "5_2", "9_45", "11n63"):
            assert skein.jones(table.diagram(name)).moment(1) == 0

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            LaurentPoly.one().moment(-1)


class TestCasson:
    def test_family_value(self):
        assert casson_minus_one_surgery(2) == -2

    def test_unknot(self):
        assert casson_minus_one_surgery(0) == 0

    def test_trefoil_from_engine(self, table):
        nabla = skein.conway(table.diagram("trefoil"))
        assert casson_minus_one_surgery(a2(nabla)) == -1


class TestOhtsuki:
    def test_family_closed_form(self):
        for n in (0, 1, 2, 7):
            assert ohtsuki_lambda2(-12, 36 * n + 108, -n) == 72 * n + 270

    def test_zero_input(self):
        assert ohtsuki_lambda2(0, 0, 0) == 0

    def test_trefoil_from_engine(self, table):
        d = table.diagram("trefoil")
        nabla, vee = skein.conway(d), skein.jones(d)
        val = ohtsuki_lambda2(vee.moment(2), vee.moment(3), c4(nabla))
        # v2 = -6, and the result must satisfy the formula exactly
        assert vee.moment(2) == -6
        assert val == F(-6, 2) + vee.moment(3) / 3 + F(5, 3) * 36 - 0

    def test_exact_rationals(self):
        val = ohtsuki_lambda2(F(1, 2), F(1, 3), F(1, 5))
        assert val == F(1, 4) + F(1, 9) + F(5, 3) * F(1, 4) - 12


class TestSurgeryInvariants:
    def test_5_2(self, table):
        inv = surgery_invariants(table.diagram("5_2"))
        assert (inv.a2, inv.c4, inv.v2, inv.v3) == (2, 0, -12, 108)
        assert inv.lambda1 == -2
        assert inv.lambda2 == 270

    def test_9_45(self, table):
        inv = surgery_invariants(table.diagram("9_45"))
        assert (inv.a2, inv.c4, inv.v2, inv.v3) == (2, -1, -12, 144)
        assert inv.lambda2 == 342

    def test_unknot(self, table):
        inv = surgery_invariants(table.diagram("unknot"))
        assert (inv.a2, inv.c4, inv.v2, inv.v3) == (0, 0, 0, 0)
        assert inv.lambda1 == 0 and inv.lambda2 == 0

    def test_multi_component_rejected(self, table):
        with pytest.raises(ValueError):
            surgery_invariants(table.diagram("L7n2"))

    def test_v2_identity_on_table(self, table):
        for name in ("unknot", "trefoil", "5_2", "9_45", "11n63"):
            inv = surgery_invariants(table.diagram(name))
            assert inv.v2 == -6 * inv.a2

    def test_engine_equals_closed_form_on_anchors(self, table):
        for n, name in ((0, "5_2"), (1, "9_45"), (2, "11n63")):
            assert surgery_invariants(table.diagram(name)).lambda2 \
                == closed_form_lambda2(n)


class TestDistinguish:
    @pytest.fixture
    def records(self, table):
        return {name: surgery_invariants(table.diagram(name))
                for name in ("5_2", "9_45", "11n63")}

    def test_5_2_vs_9_45(self, records):
        rep = distinguish(records["5_2"], records["9_45"])
        assert rep["verdict"] == "distinguished"
        assert rep["lambda2_pair"] == ["270", "342"]

    def test_9_45_vs_11n63(self, records):
        rep = distinguish(records["9_45"], records["11n63"])
        assert rep["verdict"] == "distinguished"
        assert rep["lambda2_pair"] == ["342", "414"]

    def test_same_knot_inconclusive(self, records):
        rep = distinguish(records["5_2"], records["5_2"])
        assert rep["verdict"] == "inconclusive"

    def test_compares_records_without_walking(self, records, monkeypatch):
        def walk(d):
            raise AssertionError("distinguish walked a diagram")

        monkeypatch.setattr(skein, "conway_jones", walk)
        assert distinguish(records["5_2"], records["11n63"]) == {
            "verdict": "distinguished", "lambda2_pair": ["270", "414"]}

    def test_constant_lambda2_gap(self):
        for n in range(1, 11):
            assert closed_form_lambda2(n) - closed_form_lambda2(n - 1) == 72
