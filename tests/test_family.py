"""The twist family: table anchors, closed forms, and the verifier."""

import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from knotforge.diagram import PDError
from knotforge.laurent import LaurentPoly
from knotforge.family import (
    ANCHORS,
    TILDE_V,
    V_L0,
    KnotTable,
    conway_family,
    jones_family,
    load_table,
    tilde_v,
    verify_family,
    _T_INV_DELTA,
    _parse_table_text,
)
from knotforge import skein

from conftest import (TABLE_NAMES, closed_form_lambda2, mirror, shipped_entries,
                      table_text)

F = Fraction


class TestTable:
    def test_all_expected_entries(self, table):
        assert set(table._diagrams) == set(TABLE_NAMES) == {
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
            # a 2-component code
            KnotTable(table_text({"5_2": "X(4,1,3,2) X(2,3,1,4)"}))

    def test_shipped_table_read_as_utf8(self):
        # without an encoding, read_text() reads in the locale's (ASCII under
        # LC_ALL=C), and this interpreter flag makes that an EncodingWarning
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-c", "import knotforge; knotforge.load_table()"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

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

    @pytest.mark.parametrize("name", ["\u3000k\u3000", "\u3000", "\u00a0k"])
    def test_names_keep_non_ascii_whitespace(self, name):
        # names are stripped of ASCII whitespace only, as the PD lines are
        # split at it only: U+3000 and U+00A0 are part of the name
        t = KnotTable(f"name: {name} \nX(1,4,2,5) X(3,6,4,1) X(5,2,6,3)\n")
        assert t.diagram(name).n_crossings == 3
        assert list(_parse_table_text(f"name:{name}\t\nloops=1\n")) == [name]
        with pytest.raises(KeyError):
            t.diagram(name.strip())

    @pytest.mark.parametrize("text, error", [
        ("name: a\nloops=1\n\nname:\nX(1,2,1,2)\n",
         "table line 4: 'name:' gives no entry name"),
        ("# header\nX(1,2)\nname: a\nloops=1\n",
         "table data before first 'name:' stanza: 'X(1,2)'"),
    ])
    def test_malformed_stanza_rejected(self, tmp_path, text, error):
        path = tmp_path / "alt.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_table(str(path))
        assert str(info.value) == error

    @pytest.mark.parametrize("text, error", [
        ("name: t\nX(1,4,2,5)\nX(3,6,4,1)\nX(5,2,6)\n",
         "table entry 't': line 4, token 1: crossing needs 4 labels, got 3"),
        ("# header\nname: u\nloops=1\n\nname: t  # comment\n"
         "X(1,4,2,5) X(3,6,4,1) # two\n  X(5,2,6,3) X(7,8)\n",
         "table entry 't': line 7, token 2: crossing needs 4 labels, got 2"),
    ])
    def test_pd_error_names_its_file_line(self, tmp_path, text, error):
        path = tmp_path / "alt.txt"
        path.write_text(text)
        with pytest.raises(PDError) as info:
            load_table(str(path))
        assert str(info.value) == error

    @pytest.mark.parametrize("text, error", [
        ("", "invalid PD code: a diagram needs at least one crossing or free loop"),
        ("X(1,2,3)", "line 4, token 1: crossing needs 4 labels, got 3"),
    ])
    def test_pd_error_names_its_entry(self, text, error):
        with pytest.raises(PDError) as info:
            KnotTable(table_text({"trefoil": "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)",
                                  "bad": text}))
        assert str(info.value) == f"table entry 'bad': {error}"

    def test_entries_hold_only_their_stanzas(self):
        # an entry holds its stanza's own lines, with no padding for the
        # file lines before it, so loading a table takes time linear in it
        text = "".join(f"name: k{i}\nX(1,4,2,5) X(3,6,4,1)\nX(5,2,6,3)\n"
                       for i in range(2000))
        entries = _parse_table_text(text)
        assert len(entries) == 2000
        assert entries["k1999"] == (["X(1,4,2,5) X(3,6,4,1)", "X(5,2,6,3)"], 5999)
        assert sum(len(lines) for lines, _ in entries.values()) == 4000


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

    def test_jones_geometric_series_by_additions_to_200(self):
        # the series 1 + t^-2 + ... + t^(-2(n-1)) summed term by term
        partial = LaurentPoly()
        for n in range(201):
            expected = partial * TILDE_V + LaurentPoly.monomial(1, -2 * n) * V_L0
            assert jones_family(n) == expected
            partial = partial + LaurentPoly.monomial(1, -2 * n)

    def test_jones_at_t_equal_one(self):
        for n in range(20):
            assert jones_family(n).moment(0) == 1

    def test_negative_n_rejected(self):
        for fn in (conway_family, jones_family):
            with pytest.raises(ValueError):
                fn(-1)

    @pytest.mark.parametrize("n", [1.5, True, False, 1.0, F(1), "1"])
    @pytest.mark.parametrize("fn", [conway_family, jones_family])
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
        bad = KnotTable(table_text({"L7n2": "X(4,1,3,2) X(2,3,1,4)"}))
        with pytest.raises(AssertionError):
            tilde_v(bad)

    def test_mirrored_entry_refused(self, table):
        # the table pins chirality: an L7n2 of the opposite chirality fails
        # instead of being mirrored back
        mirrored = KnotTable(table_text({"L7n2": mirror(table.diagram("L7n2")).render()}))
        with pytest.raises(AssertionError, match="does not match the published"):
            tilde_v(mirrored)


class TestChirality:
    """Every family entry differs from its mirror in V, and the shipped
    diagram meets its own value, so a flipped entry cannot pass."""

    @pytest.mark.parametrize("entry", [*ANCHORS, "L7n2"])
    def test_mirror_changes_jones_and_shipped_entry_matches(self, table, entry):
        d = table.diagram(entry)
        v = skein.jones(d)
        assert skein.jones(mirror(d)) != v
        if entry == "L7n2":
            assert _T_INV_DELTA * v == TILDE_V
        else:
            assert v == jones_family(ANCHORS.index(entry))


class TestLambda2Family:
    def test_values(self):
        for n in range(11):
            assert closed_form_lambda2(n) == 72 * n + 270

    def test_recomputed_from_jones_moments(self):
        from knotforge.invariants import ohtsuki_lambda2
        for n in (0, 5, 10):
            v = jones_family(n)
            assert ohtsuki_lambda2(v.moment(2), v.moment(3), -n) \
                == closed_form_lambda2(n)


class TestVerifyFamily:
    def test_nmax_2_passes(self, table):
        rep = verify_family(2, table)
        assert rep["passing"], [c for c in rep["checks"] if not c["pass"]]

    def test_nmax_10_passes(self, table):
        rep = verify_family(10, table)
        assert rep["passing"]
        closed = [c for c in rep["checks"] if c["name"].startswith("closed_form")]
        assert len(closed) == 11

    def test_invariants_built_once_per_anchor_and_per_n(self, table, monkeypatch):
        from knotforge import family
        built = []
        invariants_from = family._invariants_from

        def counted(nabla, vee):
            built.append((nabla, vee))
            return invariants_from(nabla, vee)

        monkeypatch.setattr(family, "_invariants_from", counted)
        rep = verify_family(3, table)
        assert rep["passing"]
        # the anchors' walked polynomials, then the closed forms of L_0..L_3
        assert built == [(conway_family(n), jones_family(n))
                         for n in (0, 1, 2, 0, 1, 2, 3)]
        assert list(rep["invariants"]) == list(ANCHORS)
        for n, entry in enumerate(ANCHORS):
            assert rep["invariants"][entry].lambda2 == 72 * n + 270

    def test_moments_computed_once_per_n(self, table, monkeypatch):
        orders = []
        moment = LaurentPoly.moment

        def counted(p, i):
            orders.append(i)
            return moment(p, i)

        monkeypatch.setattr(LaurentPoly, "moment", counted)
        assert verify_family(3, table)["passing"]
        # v2 and v3 of each anchor, the four moments of Vt, then v2 and v3
        # of each L_n
        assert orders == [2, 3] * 3 + [0, 1, 2, 3] + [2, 3] * 4

    def test_nmax_below_2_rejected(self, table):
        with pytest.raises(ValueError):
            verify_family(1, table)

    @pytest.mark.parametrize("n_max", [2.5, 3.0, "3", True, None])
    def test_non_integer_nmax_rejected(self, table, n_max):
        with pytest.raises(ValueError, match=(
                f"n_max must be a non-negative integer, got {re.escape(repr(n_max))}$")):
            verify_family(n_max, table)

    @pytest.mark.parametrize("entry", ANCHORS)
    def test_mirrored_anchor_fails_its_jones_check(self, table, entry):
        # an anchor of the opposite chirality is checked as shipped: its V
        # misses the closed form, while its knot nabla and every other check
        # still pass
        entries = shipped_entries(table)
        entries[entry] = mirror(table.diagram(entry)).render()
        rep = verify_family(2, KnotTable(table_text(entries)))
        assert not rep["passing"]
        assert [c["name"] for c in rep["checks"] if not c["pass"]] == [f"jones[{entry}]"]
        # only the anchors that passed both checks keep a record
        assert list(rep["invariants"]) == [a for a in ANCHORS if a != entry]

    def test_mirrored_l7n2_fails_tilde_v_with_its_value(self, table):
        # the check compares the computed Vt with the published one and
        # reports the computed Vt, not an exception
        mirrored = mirror(table.diagram("L7n2"))
        entries = shipped_entries(table)
        entries["L7n2"] = mirrored.render()
        rep = verify_family(2, KnotTable(table_text(entries)))
        # the moments of a mirrored Vt are the published ones, so only the
        # tilde_v check can see J_0's chirality
        assert [c["name"] for c in rep["checks"] if not c["pass"]] == ["tilde_v"]
        check = next(c for c in rep["checks"] if c["name"] == "tilde_v")
        assert not check["pass"]
        assert check["detail"] == (_T_INV_DELTA * skein.jones(mirrored)).render()
        assert not rep["passing"]
        assert list(rep["invariants"]) == list(ANCHORS)

    def test_corrupted_entry_flags_specific_identity(self, table):
        entries = shipped_entries(table)
        entries["9_45"] = entries["5_2"]  # wrong knot under the 9_45 name
        rep = verify_family(2, KnotTable(table_text(entries)))
        assert not rep["passing"]
        failing = {c["name"] for c in rep["checks"] if not c["pass"]}
        assert "conway[9_45]" in failing
        assert "jones[9_45]" in failing
        # untouched identities still pass
        assert "conway[5_2]" not in failing
        assert "tilde_v" not in failing
