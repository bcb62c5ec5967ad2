"""The twist family: table anchors, closed forms, and the verifier."""

import os
import re
from fractions import Fraction

import pytest

from knotforge.diagram import PDError
from knotforge.laurent import LaurentPoly
from knotforge.family import (
    TILDE_V,
    V_L0,
    KnotTable,
    conway_family,
    jones_family,
    lambda2_family,
    load_table,
    tilde_v,
    verify_family,
    DATA_ENV_VAR,
    TABLE_FILENAME,
)
from knotforge import skein

F = Fraction


class TestTable:
    def test_all_expected_entries(self, table):
        assert set(table.names()) >= {
            "unknot", "trefoil", "hopf+", "5_2", "9_45", "11n63", "L7n2"}

    def test_every_entry_parses_with_right_components(self, table):
        assert table.diagram("L7n2").component_count() == 2
        assert table.diagram("hopf+").component_count() == 2
        for name in ("unknot", "trefoil", "5_2", "9_45", "11n63"):
            assert table.diagram(name).component_count() == 1

    def test_unknown_name(self, table):
        with pytest.raises(KeyError):
            table.diagram("6_1")

    def test_component_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="components"):
            KnotTable({"5_2": "X(4,1,3,2) X(2,3,1,4)"})  # a 2-component code

    def test_env_var_override(self, tmp_path, table):
        path = tmp_path / TABLE_FILENAME
        path.write_text("name: unknot\nloops=1\n")
        old = os.environ.get(DATA_ENV_VAR)
        os.environ[DATA_ENV_VAR] = str(tmp_path)
        try:
            small = load_table()
            assert small.names() == ["unknot"]
        finally:
            if old is None:
                del os.environ[DATA_ENV_VAR]
            else:
                os.environ[DATA_ENV_VAR] = old

    def test_explicit_path(self, tmp_path):
        path = tmp_path / "alt.txt"
        path.write_text("# comment\nname: trefoil\nX(1,4,2,5) X(3,6,4,1)\nX(5,2,6,3)\n")
        t = load_table(str(path))
        assert t.diagram("trefoil").n_crossings == 3

    def test_repeated_name_rejected(self, tmp_path):
        path = tmp_path / "alt.txt"
        path.write_text("name: b\nX(1,4,2,5) X(3,6,4,1) X(5,2,6,3)\n"
                        "name: unknot\nloops=1\nname: b\nX(1,2,1,2)\n")
        with pytest.raises(ValueError, match=r"^table entry 'b' is given twice$"):
            load_table(str(path))

    @pytest.mark.parametrize("text, error", [
        ("", "invalid PD code: a diagram needs at least one crossing or free loop"),
        ("X(1,2,3)", "line 1, token 1: crossing needs 4 labels, got 3"),
    ])
    def test_pd_error_names_its_entry(self, text, error):
        with pytest.raises(PDError) as info:
            KnotTable({"trefoil": "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)", "bad": text})
        assert str(info.value) == f"table entry 'bad': {error}"


class TestClosedForms:
    def test_conway_family(self):
        assert conway_family(0) == LaurentPoly.from_exponents({0: 1, 2: 2})
        assert conway_family(1) == LaurentPoly.from_exponents({0: 1, 2: 2, 4: -1})
        assert conway_family(7) == LaurentPoly.from_exponents({0: 1, 2: 2, 4: -7})

    def test_conway_family_via_recurrence(self):
        # nabla(L_n) = nabla(L_0) - n*z*nabla(J_0) with nabla(J_0) = z^3
        z = LaurentPoly.monomial(1, 1)
        j0 = LaurentPoly.monomial(1, 3)
        acc = conway_family(0)
        for n in range(1, 8):
            acc = acc - z * j0
            assert acc == conway_family(n)

    def test_conway_family_coefficients(self):
        for n in range(12):
            p = conway_family(n)
            assert p.coeff(2) == 2 and p.coeff(4) == -n

    def test_jones_family_n0(self):
        assert jones_family(0) == V_L0

    def test_jones_family_n1(self):
        t2_inv = LaurentPoly.monomial(1, -2)
        assert jones_family(1) == TILDE_V + t2_inv * V_L0

    def test_jones_family_matches_engine(self, table):
        assert jones_family(1) == skein.jones(table.diagram("9_45"))
        assert jones_family(2) == skein.jones(table.diagram("11n63"))

    def test_jones_recurrence_to_50(self):
        t2_inv = LaurentPoly.monomial(1, -2)
        acc = V_L0
        for n in range(1, 51):
            acc = t2_inv * acc + TILDE_V
            assert acc == jones_family(n)

    def test_jones_at_t_equal_one(self):
        for n in range(20):
            assert jones_family(n).moment(0) == 1

    def test_negative_n_rejected(self):
        for fn in (conway_family, jones_family, lambda2_family):
            with pytest.raises(ValueError):
                fn(-1)

    @pytest.mark.parametrize("n", [1.5, True, False, 1.0, F(1), "1"])
    @pytest.mark.parametrize("fn", [conway_family, jones_family, lambda2_family])
    def test_non_integer_n_rejected(self, fn, n):
        # a bool or a non-int names no L_n, even where it compares equal to one
        with pytest.raises(ValueError, match="family index must be a non-negative "
                                             "integer, got"):
            fn(n)


class TestTildeV:
    def test_published_value(self, table):
        assert tilde_v(table) == TILDE_V

    def test_moments(self, table):
        vt = tilde_v(table)
        assert tuple(vt.moment(i) for i in range(4)) == (0, 2, -4, -28)

    def test_convention_bug_detected(self, tmp_path):
        # a wrong-chirality J_0 stand-in (mirror of hopf is not J_0 at all):
        # tilde_v must fail loudly, not return a wrong polynomial
        bad = KnotTable({"L7n2": "X(4,1,3,2) X(2,3,1,4)"})
        with pytest.raises(AssertionError):
            tilde_v(bad)

    def test_mirrored_entry_accepted_and_flagged(self, table):
        # a table shipping the mirror diagram still verifies via the
        # one-mirror retry rule
        mirrored = KnotTable(
            {"L7n2": table.diagram("L7n2").mirror().render()})
        assert tilde_v(mirrored) == TILDE_V


class TestLambda2Family:
    def test_values(self):
        assert lambda2_family(0) == 270
        assert lambda2_family(2) == 414
        assert lambda2_family(10) == 990

    def test_recomputed_from_jones_moments(self):
        from knotforge.invariants import ohtsuki_lambda2
        for n in (0, 5, 10):
            v = jones_family(n)
            assert ohtsuki_lambda2(v.moment(2), v.moment(3), -n) \
                == lambda2_family(n)


class TestVerifyFamily:
    def test_nmax_2_passes(self, table):
        rep = verify_family(2, table)
        assert rep["passing"], [c for c in rep["checks"] if not c["pass"]]

    def test_nmax_10_passes(self, table):
        rep = verify_family(10, table)
        assert rep["passing"]
        closed = [c for c in rep["checks"] if c["name"].startswith("closed_form")]
        assert len(closed) == 11

    def test_nmax_below_2_rejected(self, table):
        with pytest.raises(ValueError):
            verify_family(1, table)

    @pytest.mark.parametrize("n_max", [2.5, 3.0, "3", True, None])
    def test_non_integer_nmax_rejected(self, table, n_max):
        with pytest.raises(ValueError, match=(
                f"n_max must be a non-negative integer, got {re.escape(repr(n_max))}$")):
            verify_family(n_max, table)

    def test_corrupted_entry_flags_specific_identity(self, table):
        entries = dict(table.entries)
        entries["9_45"] = entries["5_2"]  # wrong knot under the 9_45 name
        rep = verify_family(2, KnotTable(entries))
        assert not rep["passing"]
        failing = {c["name"] for c in rep["checks"] if not c["pass"]}
        assert "conway[9_45]" in failing
        assert "jones[9_45]" in failing
        # untouched identities still pass
        assert "conway[5_2]" not in failing
        assert "tilde_v" not in failing
