"""The twist family L_n: closed forms, table anchors, and cross-checks.

L_0 is the 5_2 knot; inserting n full twists at a fixed band site gives
L_1 = 9_45 and L_2 = 11n63, while the oriented band smoothing is the
2-component link J_0 = L7n2.  Closed forms:

    nabla(L_n) = 1 + 2z^2 - n z^4
    V(L_n)     = (1 + t^-2 + ... + t^(-2(n-1))) * Vt + t^(-2n) V(L_0)

with Vt = t^-1 (t^(1/2) - t^(-1/2)) V(J_0).  The verifier recomputes the
anchors with the skein engine, each diagram as the table ships it, and
compares exactly: an entry of the opposite chirality fails its check.
"""

from __future__ import annotations

from importlib import resources

from .diagram import PDDiagram, PDError, _parse_lines
from .laurent import LaurentPoly
from . import skein
from .invariants import _invariants_from

__all__ = [
    "KnotTable",
    "load_table",
    "conway_family",
    "jones_family",
    "tilde_v",
    "verify_family",
    "ANCHORS",
    "V_L0",
    "TILDE_V",
]

TABLE_FILENAME = "knot_table.txt"
ANCHORS = ("5_2", "9_45", "11n63")  # the table entry of L_n, indexed by n

# V(L_0) and the increment polynomial Vt, as published
V_L0 = LaurentPoly.from_exponents(
    {-1: 1, -2: -1, -3: 2, -4: -1, -5: 1, -6: -1})
TILDE_V = LaurentPoly.from_exponents(
    {-1: 2, -2: -3, -3: 3, -4: -3, -5: 2, -6: -2, -7: 1})
_T_INV_DELTA = LaurentPoly({-1: 1, -3: -1})  # t^-1 (t^(1/2) - t^(-1/2)), doubled keys

# expected component count per entry name (knot vs. link)
_EXPECTED_COMPONENTS = {
    "unknot": 1, "trefoil": 1, "hopf+": 2,
    "5_2": 1, "9_45": 1, "11n63": 1, "L7n2": 2,
}


class KnotTable:
    """Named PD diagrams parsed from stanza-format table text."""

    def __init__(self, text: str):
        self._diagrams: dict[str, PDDiagram] = {}
        for name, (lines, first) in _parse_table_text(text).items():
            try:
                d = _parse_lines(lines, first)
            except PDError as exc:
                raise PDError(f"table entry {name!r}: {exc}") from None
            expected = _EXPECTED_COMPONENTS.get(name)
            if expected is not None and d.component_count() != expected:
                raise ValueError(
                    f"table entry {name!r} has {d.component_count()} components, "
                    f"expected {expected}")
            self._diagrams[name] = d

    def diagram(self, name: str) -> PDDiagram:
        if name not in self._diagrams:
            raise KeyError(f"no table entry named {name!r}")
        return self._diagrams[name]


def _parse_table_text(text: str) -> dict[str, tuple[list[str], int]]:
    """Split a stanza-format table into entry name -> (PD lines, first line).

    An entry's lines are its stanza's own; the number of the first of them
    in the file lets a ``PDError`` position name the file line.
    """
    entries: dict[str, tuple[list[str], int]] = {}
    current: str | None = None
    # lines end at "\n" only, as in parse_pd
    lines = text.removesuffix("\n").split("\n")
    start = 0
    for ln, raw in enumerate(lines, start=1):
        # ASCII whitespace only, as between the tokens of a PD line
        line = raw.split("#", 1)[0].strip(" \t\n\r\f\v")
        if line.startswith("name:"):
            if current is not None:
                entries[current] = (lines[start:ln - 1], start + 1)
            current = line.split(":", 1)[1].strip(" \t\n\r\f\v")
            if not current:
                raise ValueError(f"table line {ln}: 'name:' gives no entry name")
            if current in entries:
                raise ValueError(f"table entry {current!r} is given twice")
            start = ln
        elif line and current is None:
            raise ValueError(f"table data before first 'name:' stanza: {line!r}")
    if current is not None:
        entries[current] = (lines[start:], start + 1)
    return entries


def load_table(path: str | None = None) -> KnotTable:
    """Load the knot table from a path, or else the package data."""
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = (resources.files("knotforge") / "data" / TABLE_FILENAME).read_text(
            encoding="utf-8")
    return KnotTable(text)


def _check_family_index(n) -> None:
    """Refuse an n that names no L_n: a bool, a non-int, or a negative int."""
    if type(n) is not int or n < 0:
        raise ValueError(f"family index must be a non-negative integer, got {n!r}")


def conway_family(n: int) -> LaurentPoly:
    """Closed-form Conway polynomial 1 + 2z^2 - n z^4 of L_n."""
    _check_family_index(n)
    return LaurentPoly.from_exponents({0: 1, 2: 2, 4: -n})


def jones_family(n: int) -> LaurentPoly:
    """Closed-form Jones polynomial of L_n."""
    _check_family_index(n)
    partial = LaurentPoly.from_exponents({-2 * k: 1 for k in range(n)})
    return partial * TILDE_V + LaurentPoly.monomial(1, -2 * n) * V_L0


def _computed_tilde_v(table: KnotTable) -> LaurentPoly:
    """Vt = t^-1 (t^(1/2) - t^(-1/2)) V(J_0) from the table's L7n2 diagram."""
    return _T_INV_DELTA * skein.jones(table.diagram("L7n2"))


def tilde_v(table: KnotTable | None = None) -> LaurentPoly:
    """Vt computed from the L7n2 diagram; asserts the published 7-term value."""
    computed = _computed_tilde_v(table if table is not None else load_table())
    if computed != TILDE_V:
        raise AssertionError(
            "Vt from the table diagram does not match the published polynomial "
            "(convention bug): " + computed.render())
    return computed


def verify_family(n_max: int, table: KnotTable | None = None) -> dict:
    """Recompute the family anchors and closed forms; report per-check results
    and, under "invariants", the record of each anchor that passed both checks.

    The "tilde_v moments" check is implied by "tilde_v" and cannot see the
    chirality of J_0: a mirrored L7n2 gives the same moments (0, 2, -4, -28),
    so only "tilde_v" fails on it.  A walk's error, such as a missing
    entry's KeyError or CrossingBudgetExceeded, is raised, not reported."""
    if type(n_max) is not int:
        raise ValueError(f"n_max must be a non-negative integer, got {n_max!r}")
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    table = table if table is not None else load_table()
    checks: list[dict] = []
    invariants = {}

    def check(name: str, ok: bool, detail: str = ""):
        checks.append({"name": name, "pass": bool(ok), "detail": detail})

    for n, entry in enumerate(ANCHORS):
        nabla, vee = skein.conway_jones(table.diagram(entry))
        conway_ok, jones_ok = nabla == conway_family(n), vee == jones_family(n)
        check(f"conway[{entry}]", conway_ok, nabla.render("z"))
        check(f"jones[{entry}]", jones_ok, vee.render())
        if conway_ok and jones_ok:
            invariants[entry] = _invariants_from(nabla, vee)

    vt = _computed_tilde_v(table)
    check("tilde_v", vt == TILDE_V, vt.render())
    moments = tuple(vt.moment(i) for i in range(4))
    check("tilde_v moments", moments == (0, 2, -4, -28),
          str(tuple(map(str, moments))))

    for n in range(n_max + 1):
        inv = _invariants_from(conway_family(n), jones_family(n))
        ok = inv.v2 == -12 and inv.v3 == 36 * n + 108 and inv.lambda2 == 72 * n + 270
        check(f"closed_form[n={n}]", ok,
              f"v2={inv.v2} v3={inv.v3} lambda2={inv.lambda2}")

    return {
        "passing": all(c["pass"] for c in checks),
        "n_max": n_max,
        "checks": checks,
        "invariants": invariants,
    }
