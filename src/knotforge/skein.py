"""Conway and Jones polynomials by skein recursion, plus a state-sum oracle.

Skein relations and normalizations:

    conway:  nabla(K+) - nabla(K-) = -z * nabla(K0),      nabla(unknot) = 1
    jones:   t*V(K+) - t^-1*V(K-) = (t^(1/2) - t^(-1/2)) * V(K0),  V(unknot) = 1

Recursion strategy: a crossing met on its under-strand before its
over-strand, walking the labels in order (u_in < o_in), is a violation; a
diagram with none is descending, hence an unlink.  So switching every
violation leaves an unlink, and the skein relation at each switch adds the
value of one smoothing.  A node orders its violations once (see
_resolution_order): those whose oriented smoothing at once turns a
neighbour into a curl, then the others, each by increasing u_in.
Smoothing a twist-region crossing that way collapses its region, so the
child is small.  A switch keeps every label, and so every other crossing's
place in the order: the order is the chain of picks that recursing into
one switch child after another would make.  The node switches the records
of a working list one by one and evaluates the smoothing child of each
crossing in the state the switches before it left; no switched diagram is
built.  Every recursive call is a smoothing child, with fewer crossings
than its node, so the recursion terminates.  Nodes are memoised under
their PD code as given, not under a canonical relabelling (see
canonical_code).

A twist region is a connected class of clasp pairs: two crossings joined
by two edges running opposite ways, so that smoothing either turns the
other into a curl.  On a planar code, smoothing any crossing of a region
leaves the others curls, switched or not, so every such child is one link
after Reidemeister-I moves (Lickorish, An Introduction to Knot Theory,
GTM 175).  A node therefore builds one child for a run of crossings of
one region down its chain and takes it over for the rest of the run, so
L_n builds 14 children for every n >= 1.  This is an isotopy argument,
and it holds on every diagram of the walk: PDDiagram refuses a
non-planar code, and smoothing, R1 and R2 keep a code planar.

On entry the root loses its curls and bigons to a fixpoint, as every
smoothing child does, and the crossing budget counts the crossings left,
and apart from them the free loops; so every node of the walk has no
Reidemeister-I curl and no Reidemeister-II bigon.  Curls go first, then
bigons in record order (see diagram._reduced, which also relabels each
child once).  PDDiagram.reduce_r1 keeps bigons, and the walk does not
call it.  A switch keeps the curl test (under-out is over-in, or
under-in is over-out), so the working records of a node stay curl-free;
the smoothing child loses the bigons that smoothing exposes and those
that switches left in the records.

There is one walk.  A leaf is a diagram whose value is read, not walked:
a closed 2-braid sigma_1^(s k), the (2, k) torus link of crossing sign s,
with free loops (see _closed_two_braid), or a crossingless one, since the
c-component unlink is sigma_1^1 with c - 1 free loops.  Leaves read one
table keyed by (k, s, free loops), filled by the skein recurrence of the
2-braids (see _two_braid), and are not memoised.  Every other diagram is
a node.  A node adds the terms of each smoothing child, shifted by the
switches before it, and of the unlink at the end of its chain into one
(nabla, V) pair, in one pass (see _sum_chain).  conway_jones returns the
pair; conway and jones project it.  Each call starts from a fresh memo.

The oracle, jones_bracket_oracle, is the Kauffman bracket as a plain sum
over all 2^N states, one state at a time.  A state unions the edge pairs
of its smoothings in a fresh union-find and counts the unions that merge
two classes; that count gives its loops.  States are tallied by (number of
A-smoothings, merges), so the loop-value power is expanded once per class,
not once per state.  It reads only the PD code, the free loops, the
writhe and the component count, and keeps nothing between calls.
"""

from __future__ import annotations

from math import comb

from .diagram import PDDiagram, _reduced, _smooth_reduced
from .laurent import LaurentPoly, _from_terms

__all__ = [
    "CrossingBudgetExceeded",
    "conway",
    "jones",
    "conway_jones",
    "jones_bracket_oracle",
    "DEFAULT_CROSSING_BUDGET",
    "BRACKET_ORACLE_BUDGET",
]

DEFAULT_CROSSING_BUDGET = 24
BRACKET_ORACLE_BUDGET = 20

# The one free choice in the bracket oracle: the smoothing-variable monomial
# A maps to t**(_A_TO_T_QUARTERS/4).  The value is pinned by requiring the
# oracle to reproduce the skein engine's Jones value on the 5_2 table code.
_A_TO_T_QUARTERS = -1

# (k, s, loops) -> (nabla, V) of the closed 2-braid sigma_1^(s k) with loops
# free loops (see _two_braid); every leaf of every walk shares the values.
_TWO_BRAIDS: dict[tuple[int, int, int], tuple[LaurentPoly, LaurentPoly]] = {}


class CrossingBudgetExceeded(RuntimeError):
    """The diagram has more crossings than the computation's budget."""


class SkeinMemo:
    """Memo table keyed by PD code (see canonical_code), not by a relabelling.

    Values are (nabla, V) pairs.  ``put`` raises AssertionError when a key
    is stored again with a different value.
    """

    def __init__(self):
        self.table: dict = {}
        self.hits = 0
        self.misses = 0

    def get(self, key):
        val = self.table.get(key)
        if val is None:
            self.misses += 1
        else:
            self.hits += 1
        return val

    def put(self, key, value):
        old = self.table.setdefault(key, value)
        if old != value:
            raise AssertionError("memo value collision for equal memo keys")


def canonical_code(d: PDDiagram):
    """The memo key of a diagram: its PD code and free-loop count as given.

    Diagrams that differ only by a relabelling get different keys, which
    costs memo hits, never correctness.
    """
    return (d.crossings, d.free_loops)


def _resolution_order(recs) -> list[tuple[int, int]]:
    """The crossings a node resolves down its switch chain, in order, each
    with the name of its twist region.

    A violation is a crossing met on its under-strand first (u_in < o_in).
    With head[e] and tail[e] the crossings that edge e enters and leaves,
    the oriented smoothing glues u_in to o_out and o_in to u_out, so it at
    once turns a neighbour into a curl when tail[u_in] is head[o_out] or
    tail[o_in] is head[u_out]; the crossing and that neighbour are a clasp
    pair.  The order is the curl-closing violations by increasing u_in,
    then the other violations by increasing u_in; it is empty exactly when
    the diagram is descending.  A twist region is a connected class of clasp
    pairs over all crossings, named by one of its crossings.  A switch
    keeps every label, so it keeps head, tail, the regions and every other
    crossing's test, and turns its own violation into none: switching the
    first crossing leaves the rest of the order as the switched diagram's
    order.
    """
    n_ids = 2 * len(recs) + 1
    head = [0] * n_ids
    tail = [0] * n_ids
    for i, (u_in, o_in, u_out, o_out, _) in enumerate(recs):
        head[u_in] = head[o_in] = tail[u_out] = tail[o_out] = i
    # a union-find over crossings with path halving
    region = list(range(len(recs)))

    def find(x: int) -> int:
        while region[x] != x:
            region[x] = x = region[region[x]]
        return x

    keyed = []
    for i, (u_in, o_in, u_out, o_out, _) in enumerate(recs):
        closes = False
        j = tail[u_in]
        if j == head[o_out]:
            closes = True
            region[find(j)] = find(i)
        j = tail[o_in]
        if j == head[u_out]:
            closes = True
            region[find(j)] = find(i)
        if u_in < o_in:
            keyed.append((not closes, u_in, i))
    keyed.sort()
    return [(i, find(i)) for _, _, i in keyed]


def _closed_two_braid(d: PDDiagram) -> "tuple[int, int] | None":
    """(k, s) when d, a diagram with crossings, is the closed 2-braid
    sigma_1^(s k) up to relabelling, else None; only d's records are read.

    Every crossing has sign s, and both strands leaving one enter the next,
    the under one entering over.  So from crossing 0 the walk steps to the
    crossing o_out enters under, checks that u_out enters it over, and must
    first come back after k steps; a split union of 2-braids comes back early.
    """
    recs = d._records
    k, s = len(recs), recs[0][4]
    under = [(0, 0)] * (2 * k + 1)  # under[e]: the record e enters under, else (0, 0)
    for r in recs:
        under[r[0]] = r
    r = recs[0]
    for step in range(1, k + 1):
        _, _, u_out, o_out, sign = r
        r = under[o_out]
        if sign != s or r[1] != u_out or (r is recs[0]) != (step == k):
            return None
    return k, s


def _two_braid(k: int, s: int, loops: int) -> tuple[LaurentPoly, LaurentPoly]:
    """(nabla, V) of the closed 2-braid sigma_1^(s k) with loops free loops.

    The one leaf table _TWO_BRAIDS is filled on demand.  sigma_1^0 is the
    2-component unlink and sigma_1^1 the unknot, so every unlink is the
    k = 1, s = 1 entry with its other components as free loops.  At one
    crossing of sign s a switch leaves sigma_1^(s (k - 2)) after a
    Reidemeister-II move and the smoothing leaves sigma_1^(s (k - 1)), so
    ``_sum_chain`` of that one crossing gives the value at k >= 2.
    """
    if k < 2:
        k, s, loops = 1, 1, loops + 1 - k
    val = _TWO_BRAIDS.get((k, s, loops))
    if val is None:
        if k == 1:
            # an unlink: nabla 1 on one component, else 0; V gains a loop value per loop
            val = (LaurentPoly({0: int(not loops)}), LaurentPoly({1: 1, -1: 1}) ** loops)
        else:
            val = _sum_chain([(s, _two_braid(k - 1, s, loops))],
                             _two_braid(k - 2, s, loops))
        val = _TWO_BRAIDS.setdefault((k, s, loops), val)
    return val


def _skein_eval(d: PDDiagram, memo: SkeinMemo) -> tuple[LaurentPoly, LaurentPoly]:
    """(nabla, V) of d, which has no Reidemeister-I curl and no bigon.

    A leaf, crossingless or a closed 2-braid, returns its ``_two_braid``
    value at once.  Otherwise the crossings of ``_resolution_order`` are
    switched one by one in a working copy of d's records, and each is
    smoothed, in the state its predecessors' switches left, into a child
    that the walk evaluates.  The switched diagram at the end is
    descending, an unlink, and ``_sum_chain`` folds it with the children.
    Every child has fewer crossings than d.

    A crossing takes over the value of the child built last when that
    child smoothed a crossing of its twist region and every switch made
    since lay in the region too (see the module docstring).
    """
    if not d.crossings:
        return _two_braid(1, 1, d.component_count() - 1)
    braid = _closed_two_braid(d)
    if braid is not None:
        return _two_braid(*braid, d.free_loops)
    key = canonical_code(d)
    cached = memo.get(key)
    if cached is not None:
        return cached
    recs = list(d._records)
    loops = d.free_loops
    chain = []
    last = -1
    for i, region in _resolution_order(recs):
        if region != last:
            child = _skein_eval(_smooth_reduced(recs, i, loops), memo)
            last = region
        chain.append((recs[i][4], child))
        recs[i] = recs[i].switched()
    val = _sum_chain(chain, _two_braid(1, 1, d.component_count() - 1))
    memo.put(key, val)
    return val


def _sum_chain(chain, last) -> tuple[LaurentPoly, LaurentPoly]:
    """(nabla, V) of a node from its switch chain: the (sign, (nabla_0,
    V_0)) of the smoothing of each crossing it resolves, in order, and the
    (nabla, V) of the diagram left when all are switched.  The skein
    relations solved for K+ (s = 1) or K- (s = -1) read

        nabla = nabla_sw - s z nabla_0
        V = t^(-2s) V_sw + (t^(-s/2) - t^(-3s/2)) V_0

    so with S the sum of the signs switched before it, a smoothing adds
    -s z nabla_0 and t^(-2S) (t^(-s/2) - t^(-3s/2)) V_0, and the last
    diagram its nabla and t^(-2S) V.  In doubled keys z shifts by 2,
    t^(-2S) by -4S and t^(-s/2) by -s.  Terms that cancel are dropped.
    """
    nabla: dict[int, int] = {}
    v: dict[int, int] = {}
    shift = 0
    for s, (nabla_0, v_0) in chain:
        for k, c in nabla_0._terms.items():
            k += 2
            nabla[k] = nabla.get(k, 0) - s * c
        for k, c in v_0._terms.items():
            k += shift - s
            v[k] = v.get(k, 0) + c
            k -= 2 * s
            v[k] = v.get(k, 0) - c
        shift -= 4 * s
    nabla_l, v_l = last
    for k, c in nabla_l._terms.items():
        nabla[k] = nabla.get(k, 0) + c
    for k, c in v_l._terms.items():
        k += shift
        v[k] = v.get(k, 0) + c
    return (_from_terms({k: c for k, c in nabla.items() if c}),
            _from_terms({k: c for k, c in v.items() if c}))


def conway_jones(d: PDDiagram) -> tuple[LaurentPoly, LaurentPoly]:
    """(nabla, V) of d from one skein walk with a fresh memo.

    The walk starts from d with its Reidemeister-I curls and
    Reidemeister-II bigons removed to a fixpoint.  Raises
    CrossingBudgetExceeded when that diagram has more than
    DEFAULT_CROSSING_BUDGET crossings, or more free loops: V of N loops has
    N + 1 terms of up to N bits, so even a closed form costs about N^2.
    """
    d = _reduced(d._records, list(range(2 * d.n_crossings + 1)), d.free_loops, True, d)
    for count, what in ((d.n_crossings, "crossings"), (d.free_loops, "free loops")):
        if count > DEFAULT_CROSSING_BUDGET:
            raise CrossingBudgetExceeded(f"diagram has {count} {what} after reduction, "
                                         f"budget is {DEFAULT_CROSSING_BUDGET}")
    return _skein_eval(d, SkeinMemo())


def conway(d: PDDiagram) -> LaurentPoly:
    """Conway polynomial (variable z); split links give 0."""
    return conway_jones(d)[0]


def jones(d: PDDiagram) -> LaurentPoly:
    """Jones polynomial (variable t^(1/2)); knots give integral exponents."""
    return conway_jones(d)[1]


def jones_bracket_oracle(d: PDDiagram) -> LaurentPoly:
    """Jones polynomial via the Kauffman bracket state sum over 2^N smoothings.

    Independent of the skein recursion; used to cross-validate it.  The
    A-smoothing of X(a,b,c,d) joins a-b and c-d, the B-smoothing joins
    a-d and b-c.  Each state unions its 2N edge pairs in a fresh
    union-find and counts the unions that merge two classes, so it has
    2N - merges + free_loops loops.  States are tallied by (number of
    A-smoothings, merges); each class adds (-A^2 - A^-2)^(loops - 1) times
    its count, shifted by A^(#A - #B).  The bracket is writhe-normalized
    and A is substituted by a quarter power of t (see _A_TO_T_QUARTERS).
    Budgets: BRACKET_ORACLE_BUDGET crossings, DEFAULT_CROSSING_BUDGET free loops.
    """
    for count, what, budget in ((d.n_crossings, "crossings", BRACKET_ORACLE_BUDGET),
                                (d.free_loops, "free loops", DEFAULT_CROSSING_BUDGET)):
        if count > budget:
            raise CrossingBudgetExceeded(
                f"bracket oracle limited to {budget} {what}, got {count}")
    n = d.n_crossings
    n_edges = 2 * n
    # (B-smoothing, A-smoothing) of each crossing, indexed by its state bit
    smoothings = [(((a, cd), (b, c)), ((a, b), (c, cd)))
                  for a, b, c, cd in d.crossings]
    fresh = list(range(n_edges + 1))

    tally: dict[tuple[int, int], int] = {}
    for state in range(1 << n):
        parent = fresh[:]
        merges = 0
        bits = state
        for pairs in smoothings:
            (x, y), (u, v) = pairs[bits & 1]
            bits >>= 1
            # find with path halving; parent[x] is assigned before x moves
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            while parent[y] != y:
                parent[y] = y = parent[parent[y]]
            if x != y:
                parent[y] = x
                merges += 1
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u != v:
                parent[v] = u
                merges += 1
        key = (state.bit_count(), merges)
        tally[key] = tally.get(key, 0) + 1

    # delta^k = (-A^2 - A^-2)^k for k = loops - 1, once per class, in the
    # bracket variable A, shifted by a - b = 2 #A - N
    bracket: dict[int, int] = {}
    for (n_a, merges), count in tally.items():
        k = n_edges - merges + d.free_loops - 1
        shift = 2 * n_a - n
        signed = -count if k % 2 else count
        for j in range(k + 1):
            e = 2 * k - 4 * j + shift
            bracket[e] = bracket.get(e, 0) + signed * comb(k, j)

    # writhe normalization (-A^3)^(-w) in the standard convention equals
    # (-1)^w A^(3w) with this package's sign convention; the skein's unlink
    # normalization adds a factor (-1)^(c-1) for c components
    w = d.writhe()
    sign = -1 if (w + d.component_count() - 1) % 2 else 1
    # substitute A -> t^(quarters/4); doubled-exponent keys need e*quarters/2
    doubled: dict[int, int] = {}
    for e, cf in bracket.items():
        q = (e + 3 * w) * _A_TO_T_QUARTERS
        if q % 2 != 0:
            raise AssertionError("bracket produced a non-half-integer t exponent")
        doubled[q // 2] = sign * cf
    return LaurentPoly(doubled)
