"""Shared fixtures and helpers for the test suite."""

import ast
import itertools
import random
from fractions import Fraction
from math import comb, inf
from pathlib import Path

import pytest
from hypothesis import strategies as st

import knotforge.diagram
from knotforge.diagram import PDDiagram, PDError, _Rec, _relabel, _validate
from knotforge.family import conway_family, jones_family, load_table
from knotforge.fourmanifold import (
    ManifoldData,
    MapCatalog,
    SurfaceComponent,
    SurfaceConfig,
    parse_block_form,
)
from knotforge.invariants import _invariants_from
from knotforge.laurent import LaurentPoly
from knotforge.skein import _A_TO_T_QUARTERS


# the names of the shipped table's entries, sorted
TABLE_NAMES = ("11n63", "5_2", "9_45", "L7n2", "hopf+", "trefoil", "unknot")


@pytest.fixture(scope="session")
def table():
    return load_table()


def shipped_entries(table) -> dict[str, str]:
    """Entry name -> the rendered PD text of each shipped table entry."""
    return {name: table.diagram(name).render() for name in TABLE_NAMES}


def table_text(entries: dict[str, str]) -> str:
    """The stanza-format table text of entry name -> PD text."""
    return "".join(f"name: {name}\n{pd}\n" for name, pd in entries.items())


def mirror(d: PDDiagram) -> PDDiagram:
    """The mirror-image diagram: every record switched, labels and runs kept.

    The switched records go to ``_trusted``, looked up on the module so that
    a test patching it sees every mirror built.  Not an involution on codes:
    a run of one or two edges that the mirror leaves under at no crossing
    goes to the validator there, whose tie-break may reverse it.  Such a run
    is a split component, so a double mirror keeps the link, its writhe,
    Conway and Jones, and it keeps the code when neither mirror takes that
    fallback.
    """
    return knotforge.diagram._trusted(tuple(r.switched() for r in d._records),
                                      d.free_loops, d._runs)


def closed_form_lambda2(n: int) -> Fraction:
    """lambda2 of (-1)-surgery on L_n from the closed forms of nabla and V."""
    return _invariants_from(conway_family(n), jones_family(n)).lambda2


def is_planar(crossings) -> bool:
    """Whether the 4-valent graph of the crossing tuples of a valid PD code
    embeds in the plane.

    Counts faces of the rotation system given by the CCW slot order at each
    crossing and checks the Euler formula V - E + F = 2C, where C is the
    number of connected components of the underlying graph: face tracing
    counts each piece's outer face once per piece.  The independent
    reference for ``diagram._planar``; it reads tuples, not a diagram, so it
    can test a code that ``PDDiagram`` refuses.
    """
    n = len(crossings)
    if n == 0:
        return True
    ends: dict[int, list[tuple[int, int]]] = {}
    for i, x in enumerate(crossings):
        for k, e in enumerate(x):
            ends.setdefault(e, []).append((i, k))

    def other(i, k):
        occ = ends[crossings[i][k]]
        return occ[1] if occ[0] == (i, k) else occ[0]

    faces, seen = 0, set()
    for start in ((i, k) for i in range(n) for k in range(4)):
        if start in seen:
            continue
        faces += 1
        cur = start
        while True:
            seen.add(cur)
            i, k = cur
            cur = other(i, (k + 1) % 4)
            if cur == start:
                break

    # connected components of the graph (crossings joined by shared edges)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for occ in ends.values():
        (i, _), (j, _) = occ
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri
    comps = len({find(i) for i in range(n)})
    # V - E + F = 2C with V = n and E = 2n
    return -n + faces == 2 * comps


_SEED_CODES = (
    "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)",                      # trefoil
    "X(4,1,3,2) X(2,3,1,4)",                                  # hopf
    "X(1,4,2,5) X(3,8,4,9) X(5,10,6,1) X(9,6,10,7) X(7,2,8,3)",  # 5_2
    "X(1,1,2,2)",                                             # curl
)


def random_planar_diagrams(seed: int, count: int, max_crossings: int):
    """Deterministic stream of valid planar diagrams built from table seeds.

    Applies random crossing switches (planarity-preserving) and random full
    twist insertions kept only when the result stays planar and within the
    crossing bound.
    """
    from knotforge.diagram import parse_pd

    rng = random.Random(seed)
    seeds = [parse_pd(code) for code in _SEED_CODES]
    out = []
    while len(out) < count:
        d = rng.choice(seeds)
        for _ in range(rng.randrange(4)):
            op = rng.randrange(3)
            if op == 0 and d.n_crossings:
                d = d.switch_crossing(rng.randrange(d.n_crossings))
            elif op == 1 and d.n_crossings:
                n_edges = 2 * d.n_crossings
                x = rng.randrange(1, n_edges + 1)
                y = rng.randrange(1, n_edges + 1)
                if x == y:
                    continue
                cand = d.insert_full_twists((x, y), rng.choice((1, -1)))
                if cand.n_crossings <= max_crossings and is_planar(cand.crossings):
                    d = cand
            else:
                d = PDDiagram(d.crossings, d.free_loops + rng.randrange(2))
        if d.n_crossings <= max_crossings and is_planar(d.crossings):
            out.append(d)
    return out


def one_edit_labels(table, seed, max_crossings, max_loops):
    """Crossing tuples one slot swap or label edit away from a planar code
    of 2..max_crossings crossings, kept when ``_validate`` accepts them,
    planar or not, each with 0..max_loops free loops; an endless seeded
    stream of (crossings, free loops)."""
    rng = random.Random(seed)
    bases = [table.diagram(name) for name in TABLE_NAMES]
    bases += random_planar_diagrams(seed=seed, count=200, max_crossings=10)
    grown = []
    for d in bases:
        # full twists at random sites that keep the code planar, to bring in
        # the two largest sizes
        for _ in range(40):
            if not 0 < d.n_crossings <= max_crossings - 2:
                break
            x, y = rng.sample(range(1, 2 * d.n_crossings + 1), 2)
            cand = d.insert_full_twists((x, y), rng.choice((1, -1)))
            if is_planar(cand.crossings):
                d = cand
        grown.append(d)
    bases = [d for d in bases + grown if 2 <= d.n_crossings <= max_crossings]
    while True:
        xs = [list(x) for x in rng.choice(bases).crossings]
        n = len(xs)
        i, j = rng.randrange(n), rng.randrange(4)
        if rng.randrange(2):
            k, l = rng.randrange(n), rng.randrange(4)
            xs[i][j], xs[k][l] = xs[k][l], xs[i][j]
        else:
            xs[i][j] = rng.randrange(1, 2 * n + 1)
        crossings = tuple(map(tuple, xs))
        loops = rng.randrange(max_loops + 1)
        try:
            _validate(crossings, loops)
        except PDError:
            continue
        yield crossings, loops


def one_edit_codes(table, seed, max_crossings, max_loops):
    """The diagrams of ``one_edit_labels`` that ``PDDiagram`` accepts: its
    planar codes."""
    for crossings, loops in one_edit_labels(table, seed, max_crossings, max_loops):
        if is_planar(crossings):
            yield PDDiagram(crossings, loops)


def unchecked(crossings, free_loops: int = 0) -> PDDiagram:
    """The diagram of a valid PD code, planar or not, built as the
    package's builders build theirs: records and runs from ``_validate``,
    handed to ``_trusted``, which writes the same code back.

    For the non-planar internals that stay: the validator's tie-break and
    ``_smoothing``'s shared-id branch, which a twist insertion can reach.
    """
    crossings = tuple(map(tuple, crossings))
    runs, records = _validate(crossings, free_loops)
    d = knotforge.diagram._trusted(records, free_loops, runs)
    assert d.crossings == crossings
    return d


def reduced_child(recs, index: int, free_loops: int) -> PDDiagram:
    """The skein walk's reduced smoothing child of crossing index of the
    strand records recs, with free_loops free loops, as a diagram: the
    records ``_smooth_reduced`` keeps, relabelled.  Both are looked up on
    the module, so that a test patching them sees every child built here."""
    named, parent = knotforge.diagram._smooth_reduced(recs, index)
    return knotforge.diagram._relabel(named, free_loops, parent)


def with_curls(d: PDDiagram, count: int) -> PDDiagram:
    """d with count positive curls spliced into edge 1, one after another."""
    if d.n_crossings == 0 or count < 1:
        raise ValueError(
            f"with_curls needs a diagram with crossings and a count of at least 1, "
            f"got {d.render()!r} and {count!r}")
    n_edges = 2 * d.n_crossings
    ids = [1] + [n_edges + 1 + j for j in range(2 * count)]
    # the crossing that edge 1 entered is now entered by the last new id
    recs = [r._replace(u_in=ids[-1]) if r.u_in == 1
            else r._replace(o_in=ids[-1]) if r.o_in == 1 else r
            for r in d._records]
    # curl j: in under on ids[2j], out under and back over on ids[2j+1],
    # out over on ids[2j+2]
    recs += [_Rec(ids[2 * j], ids[2 * j + 1], ids[2 * j + 1], ids[2 * j + 2], 1)
             for j in range(count)]
    # every id is its own class
    return _relabel(recs, d.free_loops, list(range(ids[-1] + 1)))


def braid_closure(strands: int, word) -> PDDiagram:
    """The closure of a positive braid, parsed from PD text written here.

    word lists generators i, each sigma_i for 1 <= i < strands.  The braid
    runs down the page and sigma_i takes the strand at position i over the
    one at i + 1; counterclockwise from the under-strand's entry (top
    right) come the over-strand's entry (top left) and the two exits, so
    every crossing is positive in this package's convention, and the
    closure of sigma_1^3 is the table trefoil.  The bottom of each position
    is joined to its top around one side, and edges are numbered along each
    component in turn.  A position that no generator touches would be a
    free loop, which the text cannot hold, and is refused.
    """
    pos = list(range(strands))      # the segment id running down each position
    fresh = strands
    recs = []                       # (u_in, o_in, u_out, o_out) in segment ids
    for i in word:
        if not 1 <= i < strands:
            raise ValueError(f"generator {i} out of range for {strands} strands")
        over, under = pos[i - 1], pos[i]
        recs.append((under, over, fresh, fresh + 1))
        pos[i - 1], pos[i] = fresh, fresh + 1
        fresh += 2
    if any(pos[p] == p for p in range(strands)):
        raise ValueError("every position needs a generator")
    # the closure makes the segment leaving each position's bottom the one
    # entering its top
    top = {pos[p]: p for p in range(strands)}
    recs = [tuple(top.get(e, e) for e in r) for r in recs]
    succ = {}
    for u_in, o_in, u_out, o_out in recs:
        succ[u_in], succ[o_in] = u_out, o_out
    label = {}
    for start in sorted(succ):
        e = start
        while e not in label:
            label[e] = len(label) + 1
            e = succ[e]
    return knotforge.diagram.parse_pd(" ".join(
        "X({},{},{},{})".format(*(label[e] for e in r)) for r in recs))


def connected_sum(*knots: PDDiagram) -> PDDiagram:
    """The connected sum of knot diagrams, parsed from PD text written here.

    Each knot's code, its labels shifted past those before it, is spliced
    in at the last edge of the sum so far: that edge now enters where the
    knot's own last edge entered, and the knot's last edge enters where it
    did, so the labels run once round the whole sum.  Splicing keeps the
    rotation at every crossing, and PDDiagram checks the code it is given.
    """
    def entry(crossings, edge, after):
        # the slot at which edge enters: the slot opposite it holds after
        for i, x in enumerate(crossings):
            for j in range(4):
                if x[j] == edge and x[(j + 2) % 4] == after:
                    return i, j
        raise ValueError(f"edge {edge} enters no crossing")

    code = []
    for k in knots:
        if k.component_count() != 1 or not k.n_crossings:
            raise ValueError(f"not a knot with crossings: {k.render()!r}")
        shift = 2 * len(code)
        part = [[e + shift for e in x] for x in k.crossings]
        if code:
            last, total = shift, shift + 2 * k.n_crossings
            i, j = entry(code, last, 1)
            m, n = entry(part, total, shift + 1)
            code[i][j], part[m][n] = total, last
        code += part
    return knotforge.diagram.parse_pd(" ".join("X({},{},{},{})".format(*x) for x in code))


def class_table(size: int, groups) -> list[int]:
    """The flat class table over ids 0..size - 1 that glues each group of
    ids into one class: every id points at its class's smallest id.

    Each group merges the whole classes of its ids, so groups that share an
    id end up in one class.
    """
    name = list(range(size))
    for group in groups:
        merged = {name[e] for e in group}
        low = min(merged)
        name = [low if n in merged else n for n in name]
    return name


def bracket_state_sum_reference(d: PDDiagram) -> LaurentPoly:
    """Jones polynomial by the Kauffman bracket, one full state at a time.

    The reference for skein.jones_bracket_oracle, kept for diagrams of at
    most 12 crossings: every state resets the union-find, unions its
    smoothings, counts the set of roots over all edges and expands the
    loop-value power on its own.  The normalization is the oracle's.
    """
    n = d.n_crossings
    n_edges = 2 * n
    crossings = d.crossings

    # delta^k = (-A^2 - A^-2)^k for loop counts k, in the bracket variable A
    delta_pows = [{2 * k - 4 * j: (-1) ** k * comb(k, j) for j in range(k + 1)}
                  for k in range(n_edges + d.free_loops + 1)]

    bracket: dict[int, int] = {}
    parent = list(range(n_edges + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for state in range(1 << n):
        for e in range(n_edges + 1):
            parent[e] = e
        a_minus_b = 0
        for i, (a, b, c, cd) in enumerate(crossings):
            if state >> i & 1:          # A-smoothing
                a_minus_b += 1
                pairs = ((a, b), (c, cd))
            else:                       # B-smoothing
                a_minus_b -= 1
                pairs = ((a, cd), (b, c))
            for x, y in pairs:
                rx, ry = find(x), find(y)
                if rx != ry:
                    parent[ry] = rx
        loops = len({find(e) for e in range(1, n_edges + 1)}) + d.free_loops
        for e, cf in delta_pows[loops - 1].items():
            bracket[e + a_minus_b] = bracket.get(e + a_minus_b, 0) + cf

    w = d.writhe()
    sign = -1 if (w + d.component_count() - 1) % 2 else 1
    doubled: dict[int, int] = {}
    for e, cf in bracket.items():
        q = (e + 3 * w) * _A_TO_T_QUARTERS
        if q % 2 != 0:
            raise AssertionError("bracket produced a non-half-integer t exponent")
        doubled[q // 2] = sign * cf
    return LaurentPoly(doubled)


def signature_reference(matrix) -> int:
    """Signature of a symmetric integer matrix by elimination over Fraction.

    The reference for fourmanifold.signature: symmetric Gaussian
    elimination (row and column operations together, so every step is a
    congruence) on the first nonzero diagonal entry left.  When the
    remaining diagonal is all zero but some entry a[p][q] is not, row and
    column q are first added to p, which makes a[p][p] = 2 * a[p][q].  The
    signature is the number of positive pivots minus negative ones.
    """
    a = [[Fraction(x) for x in row] for row in matrix]
    left = list(range(len(a)))
    sig = 0
    while left:
        p = next((k for k in left if a[k][k]), None)
        if p is None:
            pq = next(((p, q) for p in left for q in left if a[p][q]), None)
            if pq is None:
                break
            p, q = pq
            for k in left:
                a[p][k] += a[q][k]
            for k in left:
                a[k][p] += a[k][q]
        piv = a[p][p]
        sig += 1 if piv > 0 else -1
        left.remove(p)
        for r in left:
            f = a[r][p] / piv
            if f:
                for c in left:
                    a[r][c] -= f * a[p][c]
    return sig


# small coefficients make cancellations likely; huge ones exercise bignums
coeffs = st.integers(-9, 9) | st.integers(-10 ** 30, 10 ** 30)
polys = st.dictionaries(st.integers(-8, 8), coeffs, max_size=6).map(LaurentPoly)


def double_config(g: int):
    """The double-manifold configuration: form <-1>+<1>, chi 4, F0 two
    genus-g surfaces of self-intersection -1 and +1, F1 one genus-(1+2g)
    null-homologous surface."""
    m = ManifoldData(form=parse_block_form("<-1> + <1>"), euler=4,
                     boundary_kind="closed")
    f0 = SurfaceConfig((
        SurfaceComponent(genus=g, cls=(1, 0)),
        SurfaceComponent(genus=g, cls=(0, 1)),
    ))
    f1 = SurfaceConfig((SurfaceComponent(genus=1 + 2 * g, cls=(0, 0)),))
    return m, f0, f1


def handle_manifold(p: int) -> ManifoldData:
    kind = "homology-sphere-boundary" if abs(p) == 1 else "other-boundary"
    return ManifoldData(form=parse_block_form(f"<{p}>"), euler=2,
                        boundary_kind=kind)


def brute_force_sg_k(cat: MapCatalog, k: int):
    best = inf
    for config in cat.maps:
        admissible = [c.genus for c in config.components
                      if c.kind in cat.allowed_singularities
                      and tuple(c.cls) in cat.admissible_classes]
        for subset in itertools.combinations(admissible, k):
            best = min(best, max(subset))
    return best


TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def tracer_targets() -> list[tuple[str, str]]:
    """The (module, attribute path) pairs of TARGETS and MEMO_TARGET."""
    tables = {}
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("TARGETS", "MEMO_TARGET"):
                tables[name] = ast.literal_eval(node.value)
    return [(module, path) for _, module, path in tables["TARGETS"]] + [
        tables["MEMO_TARGET"]]
