"""CLI subcommands: exit codes, golden JSON reports, determinism."""

import json
from importlib import resources

import pytest

from knotforge import cli
from knotforge.family import load_table


def data_path(filename: str) -> str:
    return str(resources.files("knotforge") / "data" / filename)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


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

    def test_input_error_on_unknown_table_name(self):
        assert cli.main(["invariants", "--name", "6_1"]) == 2

    def test_input_error_on_odd_cusps(self):
        assert cli.main(["tb", "--writhe", "0", "--cusps", "3"]) == 2

    def test_input_error_on_bad_json_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["saeki", "--config", str(bad)]) == 2

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
        d = load_table().diagram("5_2").insert_full_twists((1, 4), 10)
        assert d.n_crossings == 25
        big = tmp_path / "big.pd"
        big.write_text(d.render())
        assert cli.main(["invariants", "--pd", str(big)]) == 3

    def test_failed_checks(self, tmp_path):
        # corrupted table: the 9_45 stanza holds the 5_2 diagram
        table = load_table()
        entries = dict(table.entries)
        entries["9_45"] = entries["5_2"]
        alt = tmp_path / "knot_table.txt"
        alt.write_text("".join(f"name: {n}\n{pd}\n"
                               for n, pd in entries.items()))
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
        table = load_table()
        entries = dict(table.entries)
        entries["9_45"] = entries["5_2"]
        alt = tmp_path / "t.txt"
        alt.write_text("".join(f"name: {n}\n{pd}\n"
                               for n, pd in entries.items()))
        code, out = run(capsys, "--json", "--no-timestamp",
                        "verify-paper", "--nmax", "2", "--table", str(alt))
        assert code == 1
        failing = {c["name"] for c in json.loads(out)["checks"]
                   if c["pass"] == "false" or c["pass"] is False}
        assert "family/conway[9_45]" in failing


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


def single_catalog(raw):
    # thm12.json with its x1 catalog moved to the top level
    raw.update(raw.pop("catalogs")["x1"])


class TestConfigKeys:
    """The config loaders refuse keys they do not read."""

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

    @pytest.mark.parametrize("filename, edit, message", [
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
    ])
    def test_unknown_key_is_input_error(self, capsys, tmp_path, filename, edit, message):
        path = write_edited(tmp_path, filename, edit)
        argv = {"double_xk.json": ["saeki", "--config", path],
                "prop44.json": ["defect", "--config", path],
                "thm12.json": ["sg", "--catalog", path, "--k", "1"]}[filename]
        assert cli.main(argv) == 2
        assert message in capsys.readouterr().err


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
