"""Command-line front end for reproducible invariant runs.

Subcommands: invariants, verify-paper, saeki, defect, sg, tb.  Reports are
plain text by default and JSON with --json; a timestamp line is included
unless --no-timestamp is given, so that identical inputs produce
byte-identical reports when suppressed.

Exit codes: 0 success, 1 failed checks, 2 input error, 3 resource budget.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from math import inf

from .diagram import PDError, parse_pd, FrontDiagram, tb_from_front
from . import skein
from .invariants import _invariants_from, distinguish
from . import family as family_mod
from . import fourmanifold as fm

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_BUDGET = 3


class RunReport:
    """Accumulates named results and pass/fail checks for one command."""

    def __init__(self, command: str, inputs: dict, timestamp: bool):
        self.command = command
        self.inputs = inputs
        self.results: list[dict] = []
        self.checks: list[dict] = []
        self.timestamp = (
            datetime.now(timezone.utc).isoformat() if timestamp else None)

    def result(self, name: str, value):
        self.results.append({"name": name, "value": _render_value(value)})

    def check(self, name: str, expected, actual):
        self.checks.append({
            "name": name,
            "expected": _render_value(expected),
            "actual": _render_value(actual),
            "pass": _render_value(expected) == _render_value(actual),
        })

    @property
    def passing(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def as_dict(self) -> dict:
        out = {
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "checks": self.checks,
            "passing": self.passing,
        }
        if self.timestamp:
            out["timestamp"] = self.timestamp
        return out

    def emit(self, as_json: bool) -> None:
        if as_json:
            print(json.dumps(self.as_dict(), indent=2, sort_keys=True))
            return
        print(f"command: {self.command}")
        if self.timestamp:
            print(f"timestamp: {self.timestamp}")
        for key, val in self.inputs.items():
            print(f"input {key} = {val}")
        for r in self.results:
            print(f"{r['name']} = {r['value']}")
        for c in self.checks:
            status = "PASS" if c["pass"] else "FAIL"
            print(f"check {c['name']}: expected {c['expected']} "
                  f"actual {c['actual']} [{status}]")
        print("status:", "ok" if self.passing else "failed-checks")


def _render_value(value):
    if value is inf:
        return "infinity"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return [_render_value(v) for v in value]
    return str(value)


def _load_diagram(args):
    if args.pd:
        with open(args.pd, encoding="utf-8") as fh:
            return parse_pd(fh.read())
    return family_mod.load_table(args.table).diagram(args.name)


def cmd_invariants(args) -> tuple[RunReport, int]:
    rep = RunReport("invariants",
                    {"pd": args.pd or "", "name": args.name or ""},
                    not args.no_timestamp)
    d = _load_diagram(args)
    rep.result("components", d.component_count())
    rep.result("writhe", d.writhe())
    nabla, vee = skein.conway_jones(d)
    rep.result("conway", nabla.render("z"))
    rep.result("jones", vee.render("t"))
    if d.component_count() == 1:
        for key, val in _invariants_from(nabla, vee).as_dict().items():
            rep.result(key, val)
    return rep, EXIT_OK


def cmd_verify_paper(args) -> tuple[RunReport, int]:
    rep = RunReport("verify-paper", {"nmax": args.nmax}, not args.no_timestamp)
    if args.nmax < 2:
        raise ValueError("--nmax must be at least 2")
    fam = family_mod.verify_family(args.nmax, family_mod.load_table(args.table))
    for c in fam["checks"]:
        rep.check(f"family/{c['name']}", True, c["pass"])
        rep.result(f"family/{c['name']}", c["detail"])
    invariants = fam["invariants"]
    for a, b in zip(family_mod.ANCHORS, family_mod.ANCHORS[1:]):
        # an anchor that failed its family checks has no record to compare
        if a not in invariants or b not in invariants:
            rep.check(f"distinguish[{a},{b}]", "distinguished", "unchecked")
            continue
        verdict = distinguish(invariants[a], invariants[b])
        rep.check(f"distinguish[{a},{b}]", "distinguished", verdict["verdict"])
        rep.result(f"lambda2[{a},{b}]", verdict["lambda2_pair"])
    return rep, EXIT_OK if rep.passing else EXIT_CHECK_FAILED


def cmd_saeki(args) -> tuple[RunReport, int]:
    rep = RunReport("saeki", {"config": args.config}, not args.no_timestamp)
    cfg = fm.load_manifold_config(args.config)
    for key in ("f0", "f1"):
        if key not in cfg:
            raise ValueError(f"config is missing surface configuration {key!r}")
    report = fm.saeki_check(cfg["manifold"], cfg["f0"], cfg["f1"])
    rep.result("signature", report["signature"])
    for name, ok in report["conditions"].items():
        rep.check(name, True, ok)
    return rep, EXIT_OK if rep.passing else EXIT_CHECK_FAILED


def cmd_defect(args) -> tuple[RunReport, int]:
    rep = RunReport("defect", {"config": args.config}, not args.no_timestamp)
    cfg = fm.load_manifold_config(args.config)
    for key in ("sigma0", "sigma1"):
        if key not in cfg:
            raise ValueError(f"config is missing surface configuration {key!r}")
    m = cfg["manifold"]
    td = fm.total_defect(m, cfg["sigma0"], cfg["sigma1"])
    rep.result("d", td.d)
    rep.result("h", td.h)
    if m.boundary_kind == "homology-sphere-boundary":
        rep.check("coset", True, fm.homology_sphere_coset_check(td, m.mu_coset))
    canonical = td.d == 0 and td.h in fm.CANONICAL_DEFECTS
    rep.result("canonical", canonical)
    return rep, EXIT_OK if rep.passing else EXIT_CHECK_FAILED


def cmd_sg(args) -> tuple[RunReport, int]:
    rep = RunReport("sg", {"catalog": args.catalog, "k": args.k},
                    not args.no_timestamp)
    if args.k < 1:
        raise ValueError("--k must be at least 1")
    catalogs = fm.load_catalog_config(args.catalog)
    for name in sorted(catalogs):
        cat = catalogs[name]
        rep.result(f"sg^{args.k}[{name}]", fm.sg_k(cat, args.k))
        rep.result(f"sg[{name}]", fm.sg_plain(cat))
    return rep, EXIT_OK


def cmd_tb(args) -> tuple[RunReport, int]:
    rep = RunReport("tb", {"writhe": args.writhe, "cusps": args.cusps},
                    not args.no_timestamp)
    front = FrontDiagram(writhe=args.writhe, cusps=args.cusps)
    rep.result("tb", tb_from_front(front))
    return rep, EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="knotforge",
        description="Exact knot invariants and fold-map arithmetic")
    p.add_argument("--json", action="store_true",
                   help="emit the report as JSON")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit the timestamp for byte-identical reports")
    sub = p.add_subparsers(dest="subcommand", required=True)

    inv = sub.add_parser("invariants", help="knot invariants of one diagram")
    src = inv.add_mutually_exclusive_group(required=True)
    src.add_argument("--pd", help="file holding a PD text diagram")
    src.add_argument("--name", help="knot table entry name")
    inv.add_argument("--table", help="path to an alternative knot table")
    inv.set_defaults(func=cmd_invariants)

    ver = sub.add_parser("verify-paper",
                         help="family identities and the distinguisher")
    ver.add_argument("--nmax", type=int, required=True)
    ver.add_argument("--table", help="path to an alternative knot table")
    ver.set_defaults(func=cmd_verify_paper)

    sae = sub.add_parser("saeki", help="fold-map existence conditions")
    sae.add_argument("--config", required=True)
    sae.set_defaults(func=cmd_saeki)

    dfc = sub.add_parser("defect", help="total defect of a boundary framing")
    dfc.add_argument("--config", required=True)
    dfc.set_defaults(func=cmd_defect)

    sgp = sub.add_parser("sg", help="genus invariant of a map catalog")
    sgp.add_argument("--catalog", required=True)
    sgp.add_argument("--k", type=int, required=True)
    sgp.set_defaults(func=cmd_sg)

    tbp = sub.add_parser("tb", help="Thurston-Bennequin number of a front")
    tbp.add_argument("--writhe", type=int, required=True)
    tbp.add_argument("--cusps", type=int, required=True)
    tbp.set_defaults(func=cmd_tb)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = args.func(args)
    except skein.CrossingBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (PDError, ValueError, KeyError, OSError,
            json.JSONDecodeError) as exc:
        # str() of a KeyError quotes its message; print it bare like the rest
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    report.emit(args.json)
    return code


if __name__ == "__main__":
    sys.exit(main())
