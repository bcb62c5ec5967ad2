"""Building twist knots by inserting full twists into a band.

Starting from the shipped trefoil code (the standard left-handed trefoil,
see README "Conventions"), inserting full twists of the two
strands carrying edges 2 and 4 walks through the twist-knot family: one
positive twist gives a diagram with the invariants of 5_2, one negative
twist untwists the clasp down to the unknot.  The demo then checks the
family's closed forms against the skein engine and against the published
increment polynomial.

Run:  python3 demos/twist_family.py
"""

from knotforge.diagram import parse_pd
from knotforge.family import (
    ANCHORS, conway_family, jones_family, load_table, tilde_v, verify_family)
from knotforge import skein

trefoil = parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)")

print("=== Twisting the trefoil at the band site (2, 4) ===\n")
for n in (-1, 0, 1, 2):
    d = trefoil.insert_full_twists((2, 4), n)
    print(f"n={n:+d}: {d.n_crossings} crossings, "
          f"conway = {skein.conway(d).render('z')}")

print("\n=== Closed forms vs. the engine on the table anchors ===\n")
table = load_table()
for n, name in enumerate(ANCHORS):
    engine = skein.jones(table.diagram(name))
    closed = jones_family(n)
    status = "agree" if engine == closed else "DISAGREE"
    print(f"n={n} ({name}): closed form and skein engine {status}")
    assert engine == closed

print("\nIncrement polynomial (from the 2-component link J0):")
vt = tilde_v(table)   # raises unless it is the published polynomial
print(" ", vt.render("t"))
print("Its exponent moments:", [str(vt.moment(i)) for i in range(4)])

print("\n=== Full verification report up to n = 10 ===\n")
report = verify_family(10, table)
for check in report["checks"]:
    mark = "ok " if check["pass"] else "FAIL"
    print(f"[{mark}] {check['name']}: {check['detail']}")
print("\npassing:", report["passing"])
assert report["passing"]

print("\nConway closed form for arbitrary n:",
      conway_family(7).render("z"), "(n = 7)")
