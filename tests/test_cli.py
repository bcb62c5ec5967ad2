"""CLI subcommands: exit codes, golden JSON reports, determinism."""

import hashlib
import json
from importlib import resources

import pytest

from knotforge import cli
from knotforge import fourmanifold as fm
from knotforge.family import load_table

from conftest import mirror, shipped_entries, table_text, with_curls

NON_PLANAR = "X(1,6,2,7) X(5,7,6,1) X(4,8,5,10) X(9,2,10,3) X(8,4,9,3)"
NOT_PLANAR = "code is not planar: V - E + F != 2C over its slot rotation"


def data_path(filename: str) -> str:
    return str(resources.files("knotforge") / "data" / filename)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def mirrored_table(tmp_path, entry) -> str:
    """Path of a copy of the shipped table with entry replaced by its mirror."""
    table = load_table()
    entries = shipped_entries(table)
    entries[entry] = mirror(table.diagram(entry)).render()
    alt = tmp_path / "t.txt"
    alt.write_text(table_text(entries))
    return str(alt)


class TestExitCodes:
    def test_success(self, capsys):
        code, _ = run(capsys, "tb", "--writhe", "1", "--cusps", "2")
        assert code == 0

    def test_input_error_on_bad_pd_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.pd"
        bad.write_text("X(1,2,3)")
        assert cli.main(["invariants", "--pd", str(bad)]) == 2

    def test_input_error_on_empty_pd_file(self, tmp_path):
        empty = tmp_path / "empty.pd"
        empty.write_text("# no crossings, no loops\n")
        assert cli.main(["invariants", "--pd", str(empty)]) == 2

    def test_input_error_on_missing_file(self):
        assert cli.main(["invariants", "--pd", "/nonexistent.pd"]) == 2

    def test_input_error_on_unknown_table_name(self, capsys):
        assert cli.main(["invariants", "--name", "6_1"]) == 2
        assert capsys.readouterr().err == "error: no table entry named '6_1'\n"

    def test_input_error_on_non_planar_pd_file(self, capsys, tmp_path):
        # a twist at a site whose edges share no face builds a non-planar code
        twisted = load_table().diagram("5_2").insert_full_twists((1, 4), 1).render()
        for code in (NON_PLANAR, twisted):
            pd = tmp_path / "non_planar.pd"
            pd.write_text(f"# a code with no planar embedding\n{code}\n")
            assert cli.main(["invariants", "--pd", str(pd)]) == 2
            assert capsys.readouterr().err == (
                f"error: line 2: invalid PD code: {NOT_PLANAR}\n")

    def test_split_pd_file_is_accepted(self, capsys, tmp_path):
        pd = tmp_path / "two_hopf.pd"
        pd.write_text("X(3,1,4,2) X(2,4,1,3) X(7,5,8,6) X(6,8,5,7)\n")
        code, out = run(capsys, "invariants", "--pd", str(pd))
        assert code == 0 and "components = 4" in out

    @pytest.mark.parametrize("text, message", [
        ("name: b\nX(1,4,2,5) X(3,6,4,1) X(5,2,6,3)\nname: b\nX(1,2,1,2)\n",
         "table entry 'b' is given twice"),
        ("name: e\nname: b\nX(1,4,2,5) X(3,6,4,1) X(5,2,6,3)\n",
         "table entry 'e': invalid PD code: "
         "a diagram needs at least one crossing or free loop"),
        ("name: b\nX(1,4,2,5)\nX(3,6,4,1)\nX(5,2,6)\n",
         "table entry 'b': line 4, token 1: crossing needs 4 labels, got 3"),
        ("name: b\nloops=1\nname:\nX(1,4,2,5) X(3,6,4,1) X(5,2,6,3)\n",
         "table line 3: 'name:' gives no entry name"),
        ("name: a\nloops=1\nname: b  # not planar\n"
         "X(1,6,2,7) X(5,7,6,1)\nX(4,8,5,10) X(9,2,10,3) X(8,4,9,3)\n",
         f"table entry 'b': lines 4-5: invalid PD code: {NOT_PLANAR}"),
        (f"name: b\n{load_table().diagram('5_2').insert_full_twists((1, 4), 1).render()}\n",
         f"table entry 'b': line 2: invalid PD code: {NOT_PLANAR}"),
    ])
    def test_input_error_on_bad_table_stanza(self, capsys, tmp_path, text, message):
        path = tmp_path / "knot_table.txt"
        path.write_text(text)
        assert cli.main(["invariants", "--name", "b", "--table", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_input_error_on_missing_defect_section(self, capsys, tmp_path):
        cfg = tmp_path / "partial.json"
        cfg.write_text(json.dumps({
            "manifold": {"form": "<-1>", "euler": 2, "boundary_kind": "closed"}}))
        assert cli.main(["defect", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "error: config is missing surface configuration 'sigma0'\n")

    def test_input_error_on_k_below_one(self, capsys):
        assert cli.main(["sg", "--catalog", data_path("thm12.json"), "--k", "0"]) == 2
        assert capsys.readouterr().err == "error: --k must be at least 1\n"

    def test_input_error_on_odd_cusps(self):
        assert cli.main(["tb", "--writhe", "0", "--cusps", "3"]) == 2

    def test_input_error_on_bad_json_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["saeki", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("argv", [
        ["saeki", "--config"], ["defect", "--config"], ["sg", "--k", "1", "--catalog"]])
    def test_input_error_on_deeply_nested_config(self, capsys, tmp_path, argv):
        # too deep for the JSON parser, which raises RecursionError
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        assert cli.main([*argv, str(deep)]) == 2
        assert capsys.readouterr().err == f"error: {deep}: JSON nested too deeply to read\n"

    def test_input_error_on_missing_config_section(self, tmp_path):
        cfg = tmp_path / "partial.json"
        cfg.write_text(json.dumps({
            "manifold": {"form": "<-1>", "euler": 2,
                         "boundary_kind": "closed"}}))
        assert cli.main(["saeki", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("form", [[[1.5]], [[True]], "<-1>"])
    def test_input_error_on_non_integer_config(self, tmp_path, form):
        # a fractional form entry, a boolean entry, a fractional genus
        genus = 0.5 if form == "<-1>" else 0
        cfg = tmp_path / "frac.json"
        cfg.write_text(json.dumps({
            "manifold": {"form": form, "euler": 2, "boundary_kind": "closed"},
            "f0": {"components": [{"genus": genus, "cls": [1]}]},
            "f1": {"components": []}}))
        assert cli.main(["saeki", "--config", str(cfg)]) == 2

    def test_budget_exceeded(self, tmp_path):
        # 5_2 with ten full twists at a site that keeps it planar
        d = load_table().diagram("5_2").insert_full_twists((2, 4), 10)
        assert d.n_crossings == 25
        big = tmp_path / "big.pd"
        big.write_text(d.render())
        assert cli.main(["invariants", "--pd", str(big)]) == 3

    def test_free_loops_over_the_budget(self, capsys, tmp_path):
        # the value of c free loops is a power whose cost grows about as c^3,
        # so the budget counts them too
        loops = tmp_path / "loops.pd"
        loops.write_text("loops=25\n")
        assert cli.main(["invariants", "--pd", str(loops)]) == 3
        assert capsys.readouterr().err == (
            "error: diagram has 25 free loops after reduction, budget is 24\n")
        loops.write_text("loops=24\n")
        code, out = run(capsys, "invariants", "--pd", str(loops))
        assert code == 0 and "conway = 0" in out

    def test_budget_counts_crossings_after_r2(self, capsys, tmp_path):
        # L_0 with four more negative full twists: 25 crossings, all kept by
        # R1, and 15 after R2, so the walk takes it
        d = load_table().diagram("11n63").insert_full_twists((3, 25), -6)
        assert (d.n_crossings, d.reduce_r1().n_crossings) == (25, 25)
        pd = tmp_path / "bigons.pd"
        pd.write_text(d.render())
        code, out = run(capsys, "invariants", "--pd", str(pd))
        assert code == 0
        assert "conway = 4*z^4 + 2*z^2 + 1" in out
        assert "lambda2 = -18" in out

    def test_budget_refuses_what_reduction_keeps(self, capsys, tmp_path):
        # L_8: 25 crossings before and after reduction
        d = load_table().diagram("11n63").insert_full_twists((3, 25), 6)
        assert d.n_crossings == 25
        big = tmp_path / "big.pd"
        big.write_text(d.render())
        assert cli.main(["invariants", "--pd", str(big)]) == 3
        assert "25 crossings after reduction" in capsys.readouterr().err

    def test_budget_counts_crossings_after_r1(self, capsys, tmp_path):
        # L_7 (23 crossings) with two curls: 25 crossings, 23 after R1
        d = with_curls(load_table().diagram("11n63").insert_full_twists((3, 25), 5), 2)
        assert (d.n_crossings, d.reduce_r1().n_crossings) == (25, 23)
        curly = tmp_path / "curly.pd"
        curly.write_text(d.render())
        code, out = run(capsys, "invariants", "--pd", str(curly))
        assert code == 0
        assert "lambda2 = 774" in out

    def test_verify_paper_input_error_on_missing_anchor(self, capsys, tmp_path):
        entries = shipped_entries(load_table())
        del entries["9_45"]
        alt = tmp_path / "knot_table.txt"
        alt.write_text(table_text(entries))
        assert cli.main(["verify-paper", "--nmax", "2", "--table", str(alt)]) == 2
        assert capsys.readouterr().err == "error: no table entry named '9_45'\n"

    def test_verify_paper_budget_on_anchor(self, capsys, tmp_path):
        # the 11n63 stanza holds L_8: 25 crossings after reduction
        entries = shipped_entries(load_table())
        entries["11n63"] = load_table().diagram("11n63").insert_full_twists(
            (3, 25), 6).render()
        alt = tmp_path / "knot_table.txt"
        alt.write_text(table_text(entries))
        assert cli.main(["verify-paper", "--nmax", "2", "--table", str(alt)]) == 3
        assert capsys.readouterr().err == (
            "error: diagram has 25 crossings after reduction, budget is 24\n")

    def test_failed_checks(self, tmp_path):
        # corrupted table: the 9_45 stanza holds the 5_2 diagram
        entries = shipped_entries(load_table())
        entries["9_45"] = entries["5_2"]
        alt = tmp_path / "knot_table.txt"
        alt.write_text(table_text(entries))
        assert cli.main(["verify-paper", "--nmax", "2",
                         "--table", str(alt)]) == 1


class TestInvariants:
    def test_name_5_2(self, capsys):
        code, out = run(capsys, "--json", "--no-timestamp",
                        "invariants", "--name", "5_2")
        assert code == 0
        rep = json.loads(out)
        results = {r["name"]: r["value"] for r in rep["results"]}
        assert results["conway"] == "2*z^2 + 1"
        assert results["jones"] == ("t^-1 - t^-2 + 2*t^-3 - t^-4 "
                                    "+ t^-5 - t^-6")
        assert results["lambda2"] == "270"
        assert results["lambda1"] == "-2"

    def test_unknot_lambda2_zero(self, capsys):
        code, out = run(capsys, "--json", "--no-timestamp",
                        "invariants", "--name", "unknot")
        assert code == 0
        results = {r["name"]: r["value"]
                   for r in json.loads(out)["results"]}
        assert results["lambda2"] == "0"

    def test_trefoil_matches_oracle(self, capsys):
        from knotforge import skein
        code, out = run(capsys, "--json", "--no-timestamp",
                        "invariants", "--name", "trefoil")
        assert code == 0
        results = {r["name"]: r["value"]
                   for r in json.loads(out)["results"]}
        oracle = skein.jones_bracket_oracle(load_table().diagram("trefoil"))
        assert results["jones"] == oracle.render()

    def test_pd_file_link_skips_surgery_record(self, capsys, tmp_path):
        pd = tmp_path / "hopf.pd"
        pd.write_text(load_table().diagram("hopf+").render())
        code, out = run(capsys, "--json", "--no-timestamp",
                        "invariants", "--pd", str(pd))
        assert code == 0
        names = {r["name"] for r in json.loads(out)["results"]}
        assert "lambda2" not in names
        assert "conway" in names


class TestVerifyPaper:
    def test_nmax_2_passes(self, capsys):
        code, out = run(capsys, "--json", "--no-timestamp",
                        "verify-paper", "--nmax", "2")
        assert code == 0
        rep = json.loads(out)
        assert rep["passing"]
        names = {c["name"] for c in rep["checks"]}
        assert "distinguish[5_2,9_45]" in names
        assert "distinguish[9_45,11n63]" in names

    def test_nmax_10_passes(self, capsys):
        code, out = run(capsys, "--json", "--no-timestamp",
                        "verify-paper", "--nmax", "10")
        assert code == 0
        assert json.loads(out)["passing"]

    def test_nmax_below_2_is_input_error(self):
        assert cli.main(["verify-paper", "--nmax", "1"]) == 2

    def test_corrupted_table_names_broken_identity(self, capsys, tmp_path):
        entries = shipped_entries(load_table())
        entries["9_45"] = entries["5_2"]
        alt = tmp_path / "t.txt"
        alt.write_text(table_text(entries))
        code, out = run(capsys, "--json", "--no-timestamp",
                        "verify-paper", "--nmax", "2", "--table", str(alt))
        assert code == 1
        failing = {c["name"] for c in json.loads(out)["checks"]
                   if c["pass"] == "false" or c["pass"] is False}
        assert "family/conway[9_45]" in failing

    @pytest.mark.parametrize("entry, check", [
        ("5_2", "jones[5_2]"), ("9_45", "jones[9_45]"),
        ("11n63", "jones[11n63]"), ("L7n2", "tilde_v")])
    def test_mirrored_table_entry_fails(self, capsys, tmp_path, entry, check):
        # the table pins chirality: an entry of the opposite chirality is
        # checked as shipped, not mirrored back
        code, out = run(capsys, "--no-timestamp", "verify-paper", "--nmax", "2",
                        "--table", mirrored_table(tmp_path, entry))
        assert code == cli.EXIT_CHECK_FAILED
        assert (f"check family/{check}: expected true actual false [FAIL]"
                in out.splitlines())
        assert out.endswith("status: failed-checks\n")

    # the lambda2 a mirrored anchor would give: its v3 changes sign
    @pytest.mark.parametrize("entry, unchecked, mirror_lambda2", [
        ("9_45", {"5_2,9_45", "9_45,11n63"}, "246"),
        ("11n63", {"9_45,11n63"}, "294"),
        ("L7n2", set(), None)])
    def test_distinguish_compares_only_checked_anchors(
            self, capsys, tmp_path, entry, unchecked, mirror_lambda2):
        code, out = run(capsys, "--no-timestamp", "verify-paper", "--nmax", "2",
                        "--table", mirrored_table(tmp_path, entry))
        assert code == cli.EXIT_CHECK_FAILED
        lines = out.splitlines()
        pairs = {"5_2,9_45": "['270', '342']", "9_45,11n63": "['342', '414']"}
        for pair, lambda2 in pairs.items():
            if pair in unchecked:
                assert (f"check distinguish[{pair}]: expected distinguished "
                        "actual unchecked [FAIL]") in lines
                assert not any(ln.startswith(f"lambda2[{pair}]") for ln in lines)
            else:
                assert (f"check distinguish[{pair}]: expected distinguished "
                        "actual distinguished [PASS]") in lines
                assert f"lambda2[{pair}] = {lambda2}" in lines
        if mirror_lambda2 is not None:
            assert mirror_lambda2 not in out

    def test_walks_each_family_entry_once(self, capsys, monkeypatch):
        from knotforge import skein
        walked = []
        conway_jones = skein.conway_jones

        def counted(d):
            walked.append(d)
            return conway_jones(d)

        monkeypatch.setattr(skein, "conway_jones", counted)
        code, _ = run(capsys, "--no-timestamp", "verify-paper", "--nmax", "2")
        assert code == 0
        # the three anchors and L7n2, once each
        table = load_table()
        assert ([d.render() for d in walked]
                == [table.diagram(e).render() for e in ("5_2", "9_45", "11n63", "L7n2")])


class TestShippedConfigs:
    def test_saeki_double(self, capsys):
        code, out = run(capsys, "--json", "--no-timestamp",
                        "saeki", "--config", data_path("double_xk.json"))
        assert code == 0
        rep = json.loads(out)
        assert rep["passing"]
        assert len(rep["checks"]) == 5

    def test_defect_prop44(self, capsys):
        code, out = run(capsys, "--json", "--no-timestamp",
                        "defect", "--config", data_path("prop44.json"))
        assert code == 0
        rep = json.loads(out)
        results = {r["name"]: r["value"] for r in rep["results"]}
        assert results["d"] == "0"
        assert results["h"] == "2"
        assert results["canonical"] == "true"
        assert rep["passing"]

    def test_sg_thm12(self, capsys):
        code, out = run(capsys, "--json", "--no-timestamp",
                        "sg", "--catalog", data_path("thm12.json"), "--k", "1")
        assert code == 0
        results = {r["name"]: r["value"]
                   for r in json.loads(out)["results"]}
        assert results["sg^1[x1]"] == "0"
        assert results["sg^1[x2]"] == "1"

    def test_sg_thm12_k2_infinite(self, capsys):
        code, out = run(capsys, "--json", "--no-timestamp",
                        "sg", "--catalog", data_path("thm12.json"), "--k", "2")
        assert code == 0
        results = {r["name"]: r["value"]
                   for r in json.loads(out)["results"]}
        assert results["sg^2[x1]"] == "infinity"
        assert results["sg^2[x2]"] == "infinity"


def write_edited(tmp_path, filename: str, edit) -> str:
    """A copy of a shipped config, changed by edit(raw) before it is written."""
    raw = json.loads((resources.files("knotforge") / "data" / filename).read_text())
    edit(raw)
    path = tmp_path / filename
    path.write_text(json.dumps(raw))
    return str(path)


def config_argv(filename: str, path: str) -> list:
    return {"double_xk.json": ["saeki", "--config", path],
            "prop44.json": ["defect", "--config", path],
            "thm12.json": ["sg", "--catalog", path, "--k", "1"]}[filename]


def single_catalog(raw):
    # thm12.json with its x1 catalog moved to the top level
    raw.update(raw.pop("catalogs")["x1"])


def k_multiple_component(raw):
    # prop44.json's sphere with its class given as "k_multiple", not a component key
    component = raw["sigma0"]["components"][0]
    component["k_multiple"] = component.pop("cls")[0]


UNKNOWN_KEY_EDITS = [
    ("double_xk.json", lambda r: r.update(f2={}),
     "unknown key 'f2' in config"),
    ("double_xk.json", lambda r: r["manifold"].update(eular=4),
     "unknown key 'eular' in manifold"),
    ("double_xk.json", lambda r: r["f1"].update(component=[]),
     "unknown key 'component' in surface config 'f1'"),
    ("double_xk.json", lambda r: r["f0"]["components"].append([1, 0]),
     "component 2 of surface config 'f0' must be a JSON object"),
    ("prop44.json", lambda r: r["sigma0"]["components"][0].update(k=1),
     "unknown key 'k' in component 0 of surface config 'sigma0'"),
    ("prop44.json", k_multiple_component,
     "unknown key 'k_multiple' in component 0 of surface config 'sigma0'"),
    ("prop44.json", lambda r: r["manifold"].update(comment=""),
     "unknown key 'comment' in manifold"),
    ("thm12.json", lambda r: r.update(catalog={}),
     "unknown key 'catalog' in catalog file"),
    ("thm12.json", lambda r: r["catalogs"]["x2"].update(map=[]),
     "unknown key 'map' in catalog 'x2'"),
    ("thm12.json", lambda r: r["catalogs"]["x1"]["maps"][1].update(genus=0),
     "unknown key 'genus' in map 1 of catalog 'x1'"),
    ("thm12.json", lambda r: r["catalogs"]["x1"]["maps"][0]["components"][1]
     .update({"class": [0]}),
     "unknown key 'class' in component 1 of map 0 of catalog 'x1'"),
    ("thm12.json", lambda r: (single_catalog(r), r.update(admissible=[])),
     "unknown key 'admissible' in catalog file"),
]

WRONG_SHAPE_EDITS = [
    ("double_xk.json", lambda r: r["f0"].update(components=5),
     "'components' of surface config 'f0' must be a JSON array, got int"),
    ("double_xk.json", lambda r: r["f1"].update(components={}),
     "'components' of surface config 'f1' must be a JSON array, got dict"),
    ("double_xk.json", lambda r: r["manifold"].update(form=5),
     "'form' of manifold must be a string or an array of arrays, got 5"),
    ("double_xk.json", lambda r: r["manifold"].update(form=[1, 0]),
     "'form' of manifold must be a string or an array of arrays, got [1, 0]"),
    ("prop44.json", lambda r: r["sigma0"].update(components="g1"),
     "'components' of surface config 'sigma0' must be a JSON array, got str"),
    ("thm12.json", lambda r: r.update(catalogs=[1]),
     "'catalogs' of catalog file must be a JSON object, got list"),
    ("thm12.json", lambda r: r["catalogs"]["x2"].update(maps=3),
     "'maps' of catalog 'x2' must be a JSON array, got int"),
    ("thm12.json", lambda r: (single_catalog(r), r.update(maps={})),
     "'maps' of catalog file must be a JSON array, got dict"),
    ("double_xk.json", lambda r: r["f0"]["components"][0].update(cls=5),
     "'cls' of component 0 of surface config 'f0' must be a JSON array, got int"),
    ("thm12.json", lambda r: r["catalogs"]["x2"].update(admissible_classes=5),
     "'admissible_classes' of catalog 'x2' must be a JSON array, got int"),
    ("thm12.json", lambda r: r["catalogs"]["x2"].update(admissible_classes=[5]),
     "'admissible_classes' of catalog 'x2' must be an array of arrays, got [5]"),
    ("thm12.json", lambda r: r["catalogs"]["x1"].update(allowed_singularities=5),
     "'allowed_singularities' of catalog 'x1' must be a JSON array, got int"),
    ("thm12.json", lambda r: r["catalogs"]["x1"].update(allowed_singularities=[[1]]),
     "'allowed_singularities' of catalog 'x1' must be an array of strings"),
    ("double_xk.json", lambda r: r["f0"]["components"][0].update(orientable="false"),
     "orientable must be true or false, got 'false'"),
    ("thm12.json", lambda r: r["catalogs"]["x1"].update(allowed_singularities=["defnite"]),
     "unknown singularity kind 'defnite'"),
]

# values the dataclasses refuse, each given with the dataclass's own message
REFUSED_VALUE_EDITS = [
    ("double_xk.json", lambda r: r["f0"]["components"][0].update(genus=0.5),
     "genus must be an integer, got 0.5"),
    ("double_xk.json", lambda r: r["manifold"].update(form=[[1, 0]]),
     "intersection form must be square"),
    ("prop44.json", lambda r: r["manifold"].update(boundary_kind="open"),
     "unknown boundary kind 'open'"),
    ("prop44.json", lambda r: r["manifold"].update(mu_coset=1),
     "mu_coset must be 0, 2, or absent"),
    ("thm12.json", lambda r: r["catalogs"]["x2"]["maps"][1]["components"][0]
     .update(kind="indefinit"),
     "unknown singularity kind 'indefinit'"),
    ("thm12.json", lambda r: r["catalogs"]["x2"].update(admissible_classes=[[0.5]]),
     "class coordinate must be an integer, got 0.5"),
]

MISSING_KEY_EDITS = [
    ("double_xk.json", lambda r: r["manifold"].pop("form"),
     "missing key 'form' in manifold"),
    ("double_xk.json", lambda r: r["manifold"].pop("euler"),
     "missing key 'euler' in manifold"),
    ("prop44.json", lambda r: r["manifold"].pop("boundary_kind"),
     "missing key 'boundary_kind' in manifold"),
    ("prop44.json", lambda r: r.pop("manifold"),
     "missing key 'manifold' in config"),
    ("double_xk.json", lambda r: r["f0"]["components"][0].pop("genus"),
     "missing key 'genus' in component 0 of surface config 'f0'"),
    ("prop44.json", lambda r: r["sigma1"]["components"][0].pop("genus"),
     "missing key 'genus' in component 0 of surface config 'sigma1'"),
    ("thm12.json", lambda r: r["catalogs"]["x1"]["maps"][0]["components"][1]
     .pop("genus"),
     "missing key 'genus' in component 1 of map 0 of catalog 'x1'"),
]


class TestConfigKeys:
    """The config loaders refuse keys they do not read and fields of the wrong type."""

    def test_misspelt_component_key(self, capsys, tmp_path):
        path = write_edited(tmp_path, "double_xk.json", lambda r: (
            r["f0"]["components"][0].update(orientible=False)))
        assert cli.main(["saeki", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "unknown key 'orientible' in component 0 of surface config 'f0'" in err

    def test_spelt_key_is_read(self, capsys, tmp_path):
        path = write_edited(tmp_path, "double_xk.json", lambda r: (
            r["f0"]["components"][0].update(orientable=False)))
        code, out = run(capsys, "--json", "--no-timestamp", "saeki", "--config", path)
        assert code == 1
        checks = {c["name"]: c["pass"] for c in json.loads(out)["checks"]}
        assert checks["f0_orientable"] is False

    def test_single_catalog_with_comment(self, capsys, tmp_path):
        path = write_edited(tmp_path, "thm12.json", single_catalog)
        code, out = run(capsys, "--json", "--no-timestamp",
                        "sg", "--catalog", path, "--k", "1")
        assert code == 0
        results = {r["name"]: r["value"] for r in json.loads(out)["results"]}
        assert results["sg^1[catalog]"] == "0"

    @pytest.mark.parametrize("filename, edit, message", UNKNOWN_KEY_EDITS)
    def test_unknown_key_is_input_error(self, capsys, tmp_path, filename, edit, message):
        path = write_edited(tmp_path, filename, edit)
        assert cli.main(config_argv(filename, path)) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("filename, edit, message", WRONG_SHAPE_EDITS)
    def test_wrong_shape_is_input_error(self, capsys, tmp_path, filename, edit, message):
        path = write_edited(tmp_path, filename, edit)
        assert cli.main(config_argv(filename, path)) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("filename, edit, message", MISSING_KEY_EDITS)
    def test_missing_key_is_input_error(self, capsys, tmp_path, filename, edit, message):
        path = write_edited(tmp_path, filename, edit)
        assert cli.main(config_argv(filename, path)) == 2
        assert message in capsys.readouterr().err


# The whole error line of each TestConfigKeys edit and refused value, keyed by
# the substring those tests check or the dataclass's own message, so that a
# rewrite of the loaders keeps every message.
FULL_ERROR_TEXT = {
    "unknown key 'orientible' in component 0 of surface config 'f0'":
        "unknown key 'orientible' in component 0 of surface config 'f0' "
        "(allowed: genus, orientable, kind, cls)",
    "unknown key 'f2' in config":
        "unknown key 'f2' in config (allowed: manifold, f0, f1, sigma0, sigma1, comment)",
    "unknown key 'eular' in manifold":
        "unknown key 'eular' in manifold (allowed: form, euler, boundary_kind, mu_coset)",
    "unknown key 'component' in surface config 'f1'":
        "unknown key 'component' in surface config 'f1' (allowed: components)",
    "component 2 of surface config 'f0' must be a JSON object":
        "component 2 of surface config 'f0' must be a JSON object, got list",
    "unknown key 'k' in component 0 of surface config 'sigma0'":
        "unknown key 'k' in component 0 of surface config 'sigma0' "
        "(allowed: genus, orientable, kind, cls)",
    "unknown key 'k_multiple' in component 0 of surface config 'sigma0'":
        "unknown key 'k_multiple' in component 0 of surface config 'sigma0' "
        "(allowed: genus, orientable, kind, cls)",
    "unknown key 'comment' in manifold":
        "unknown key 'comment' in manifold (allowed: form, euler, boundary_kind, mu_coset)",
    "unknown key 'catalog' in catalog file":
        "unknown key 'catalog' in catalog file (allowed: catalogs, comment)",
    "unknown key 'map' in catalog 'x2'":
        "unknown key 'map' in catalog 'x2' "
        "(allowed: maps, admissible_classes, allowed_singularities)",
    "unknown key 'genus' in map 1 of catalog 'x1'":
        "unknown key 'genus' in map 1 of catalog 'x1' (allowed: components)",
    "unknown key 'class' in component 1 of map 0 of catalog 'x1'":
        "unknown key 'class' in component 1 of map 0 of catalog 'x1' "
        "(allowed: genus, orientable, kind, cls)",
    "unknown key 'admissible' in catalog file":
        "unknown key 'admissible' in catalog file "
        "(allowed: maps, admissible_classes, allowed_singularities, comment)",
    "'allowed_singularities' of catalog 'x1' must be an array of strings":
        "'allowed_singularities' of catalog 'x1' must be an array of strings, "
        "got [[1]]",
    "orientable must be true or false, got 'false'":
        "component 0 of surface config 'f0': orientable must be true or false, "
        "got 'false'",
    "unknown singularity kind 'defnite'":
        "catalog 'x1': unknown singularity kind 'defnite'",
    "genus must be an integer, got 0.5":
        "component 0 of surface config 'f0': genus must be an integer, got 0.5",
    "intersection form must be square":
        "'form' of manifold: intersection form must be square",
    "unknown boundary kind 'open'":
        "manifold: unknown boundary kind 'open'",
    "mu_coset must be 0, 2, or absent":
        "manifold: mu_coset must be 0, 2, or absent",
    "unknown singularity kind 'indefinit'":
        "component 0 of map 1 of catalog 'x2': unknown singularity kind 'indefinit'",
    "class coordinate must be an integer, got 0.5":
        "catalog 'x2': class coordinate must be an integer, got 0.5",
}


class TestConfigErrorText:
    """The loaders' messages, pinned whole, and the shipped configs' loaded values."""

    @pytest.mark.parametrize("filename, edit, message", [
        ("double_xk.json", lambda r: r["f0"]["components"][0].update(orientible=False),
         "unknown key 'orientible' in component 0 of surface config 'f0'"),
        *UNKNOWN_KEY_EDITS, *WRONG_SHAPE_EDITS, *MISSING_KEY_EDITS,
        *REFUSED_VALUE_EDITS])
    def test_full_error_text(self, capsys, tmp_path, filename, edit, message):
        # an edit missing from FULL_ERROR_TEXT is checked against its substring whole
        path = write_edited(tmp_path, filename, edit)
        assert cli.main(config_argv(filename, path)) == 2
        assert capsys.readouterr().err == f"error: {FULL_ERROR_TEXT.get(message, message)}\n"

    @pytest.mark.parametrize("filename, digest", [
        ("double_xk.json", "02a16ec320e804c28adaac3b79769bc9f873db75495e6cd36ef765a57f200bb4"),
        ("prop44.json", "d3d4c9ed6c8520d98b443c54b0a178bbd45e1f664bb8e3907c8af07d5b24d4bf"),
        ("thm12.json", "02e8253343780cc0bab32d6dc30a7626f21e442360ab170ca6d3fec4ce615117"),
    ])
    def test_shipped_configs_load_unchanged(self, filename, digest):
        load = fm.load_catalog_config if filename == "thm12.json" else fm.load_manifold_config
        loaded = repr(load(data_path(filename)))
        assert hashlib.sha256(loaded.encode()).hexdigest() == digest


class TestReports:
    GOLDEN_TB = """\
{
  "checks": [],
  "command": "tb",
  "inputs": {
    "cusps": 2,
    "writhe": 0
  },
  "passing": true,
  "results": [
    {
      "name": "tb",
      "value": "-1"
    }
  ]
}
"""

    def test_golden_tb_json(self, capsys):
        code, out = run(capsys, "--json", "--no-timestamp",
                        "tb", "--writhe", "0", "--cusps", "2")
        assert code == 0
        assert out == self.GOLDEN_TB

    def test_byte_identical_reports(self, capsys):
        argv = ("--json", "--no-timestamp", "invariants", "--name", "trefoil")
        _, first = run(capsys, *argv)
        _, second = run(capsys, *argv)
        assert first == second

    def test_timestamp_present_by_default(self, capsys):
        _, out = run(capsys, "--json", "tb", "--writhe", "0", "--cusps", "2")
        assert "timestamp" in json.loads(out)

    def test_text_mode(self, capsys):
        code, out = run(capsys, "--no-timestamp",
                        "tb", "--writhe", "1", "--cusps", "2")
        assert code == 0
        assert "tb = 0" in out
        assert "status: ok" in out


def short_cls(raw):
    # double_xk.json with F0's first class one coordinate short of the rank
    raw["f0"]["components"][0]["cls"] = [1]


# One run of each subcommand, its errors among them, with the exit code and
# sha256 of stdout + NUL + stderr, in text and --json, with --no-timestamp.
# Configs are named relative to the working directory, so that no path of
# this checkout reaches a report.
REPORT_DIGESTS = [
    (("invariants", "--name", "5_2"), 0,
     "3b791a738d84d8536b4dc26c7749e19875937e2b9dc52026518be21ec233448e",
     "bfbe50523e7ef667ef5f2b3eef3cc1db95941a8dc1715d2abe6deb058ad87eb6"),
    (("invariants", "--name", "hopf+"), 0,
     "fd3d07fec164dba0cd939cbf306541446545eeef053f43d9183aacebeda4b20c",
     "dd5766c4dcb49e3971a50fa4803750b295f8ddfd0a60298543521cbd94fbf97c"),
    (("invariants", "--name", "11n63"), 0,
     "caacf7bc104797cc162cf24d8a18b87fc272b7420c72e5547e9fc70dc8b88fba",
     "d12f712b656bac48a2eec8928fcc0c29319022d6cb85d2b9e107e6a2b035dae6"),
    (("verify-paper", "--nmax", "20"), 0,
     "ca879c2c41f12c0b3c3d7b3a43425f0461280e1701daac6b3f82f3cb39975a97",
     "b9ecd4de0227ec8ee6238ac38adb2bd5b61abd3e6acfee9d5705d1dc21dcd941"),
    (("verify-paper", "--nmax", "1"), 2,
     "88bc0fb2abcf2738d6e2e715bed1745f9dcde35831cc637eca252e19f06545d4",
     "88bc0fb2abcf2738d6e2e715bed1745f9dcde35831cc637eca252e19f06545d4"),
    (("saeki", "--config", "double_xk.json"), 0,
     "96a7d5a4492dd2801ffa020444bcc3d983831c7bf29dcfbc2a09f2133be79389",
     "c141582a3c789b7cc73b7c7dcd95df82219afd8cc29710e9cd436af061708f71"),
    (("defect", "--config", "prop44.json"), 0,
     "89a050bc193516743dd20a33034caa831d0c5b9f607fc4a3155c891db76cf4ad",
     "fd4b83bbbd454e39450071456144abe3dbef879ef0ed2d48534c44f349f95d9f"),
    (("defect", "--config", "double_xk.json"), 2,
     "c430269be2ff4bc2dec9dd1f08d1d4b5a3085cca9ab4a72803db65d948c9a40a",
     "c430269be2ff4bc2dec9dd1f08d1d4b5a3085cca9ab4a72803db65d948c9a40a"),
    (("sg", "--catalog", "thm12.json", "--k", "1"), 0,
     "3b0ba7e2eff409cb391445402580f98b53c701e673022dbabeb0fa7f04faa775",
     "5366c35aaa32336255a2bbe168f937dd49711e220416befe345003227e90242a"),
    (("sg", "--catalog", "thm12.json", "--k", "2"), 0,
     "dfe6ccdd5ed7c2e7a4a1bf3dcc80fc5447a4bb32828c3c20a0685224a5f4bfc6",
     "3d80997406293af9445f25deba92fad92a452d00031d414794664d08313bc67c"),
    (("sg", "--catalog", "thm12.json", "--k", "0"), 2,
     "8c26c2c1ed6c763fc153133b718f6aeb329a37984f7bd0c78846c9ee07ab80b9",
     "8c26c2c1ed6c763fc153133b718f6aeb329a37984f7bd0c78846c9ee07ab80b9"),
    (("tb", "--writhe", "0", "--cusps", "2"), 0,
     "934b30c16e528cb99f4be3cbfd75cbb421df5cf15a509b9d59c229e3076b7b0e",
     "771bad5810c9bc12123c41e1004a017d0a66d9c645d8a6c1ea8055647c046a9e"),
    (("tb", "--writhe", "0", "--cusps", "3"), 2,
     "47a481094a326b8286ab3045657335f74e26bd1ac9ee4386ee05d176616833f3",
     "47a481094a326b8286ab3045657335f74e26bd1ac9ee4386ee05d176616833f3"),
    (("saeki", "--config", "short_cls.json"), 2,
     "cde697e15bf7a1365e785cef3fb4fdf25336474e0eecbe590a9f82995d886e64",
     "cde697e15bf7a1365e785cef3fb4fdf25336474e0eecbe590a9f82995d886e64"),
]


class TestReportDigests:
    """Every subcommand's whole report, pinned as bytes."""

    @pytest.mark.parametrize("argv, code, text_digest, json_digest", REPORT_DIGESTS,
                             ids=[" ".join(a) for a, *_ in REPORT_DIGESTS])
    @pytest.mark.parametrize("mode", ["text", "json"])
    def test_report_digest(self, capsys, monkeypatch, tmp_path,
                           argv, code, text_digest, json_digest, mode):
        for name in ("double_xk.json", "prop44.json", "thm12.json"):
            (tmp_path / name).write_text(
                (resources.files("knotforge") / "data" / name).read_text())
        raw = json.loads((tmp_path / "double_xk.json").read_text())
        short_cls(raw)
        (tmp_path / "short_cls.json").write_text(json.dumps(raw))
        monkeypatch.chdir(tmp_path)
        flags = ["--json"] if mode == "json" else []
        got = cli.main([*flags, "--no-timestamp", *argv])
        streams = capsys.readouterr()
        digest = hashlib.sha256(
            f"{streams.out}\0{streams.err}".encode()).hexdigest()
        assert (got, digest) == (code, text_digest if mode == "text" else json_digest)
