"""Distinguishing the surgered manifolds of the twist family.

Walks the full pipeline: load the table diagrams for the first three family
members, compute their Conway and Jones polynomials with the skein engine,
derive the surgery invariants, and show that the Ohtsuki invariant lambda2
separates all three while the Casson invariant lambda1 cannot.

Run:  python3 demos/distinguish_family.py
"""

import itertools

from knotforge import load_table, surgery_invariants, distinguish
from knotforge import skein
from knotforge.family import ANCHORS

table = load_table()
anchors = dict(enumerate(ANCHORS))
records = {}

print("=== Polynomial invariants of the family anchors ===\n")
for n, name in anchors.items():
    d = table.diagram(name)
    print(f"L_{n} = {name}  ({d.n_crossings} crossings, writhe {d.writhe()})")
    nabla, vee = skein.conway_jones(d)
    print(f"  conway: {nabla.render('z')}")
    print(f"  jones:  {vee.render('t')}")
    inv = records[n] = surgery_invariants(d)
    print(f"  a2={inv.a2}  c4={inv.c4}  v2={inv.v2}  v3={inv.v3}")
    print(f"  lambda1={inv.lambda1}  lambda2={inv.lambda2}\n")

print("=== Pairwise comparison of the (-1)-surgery manifolds ===\n")
for i, j in itertools.combinations(anchors, 2):
    rep = distinguish(records[i], records[j])
    a, b = rep["lambda2_pair"]
    print(f"(L_{i}, L_{j}): lambda2 {a} vs {b} -> {rep['verdict']}")

print("\nlambda1 is -2 for every member, so the Casson invariant alone")
print("cannot tell the surgered manifolds apart; lambda2 grows by 72 per")
print("twist and distinguishes all of them.")
