"""Conway and Jones polynomials by skein recursion, plus a state-sum oracle.

Skein relations and normalizations:

    conway:  nabla(K+) - nabla(K-) = -z * nabla(K0),      nabla(unknot) = 1
    jones:   t*V(K+) - t^-1*V(K-) = (t^(1/2) - t^(-1/2)) * V(K0),  V(unknot) = 1

Recursion strategy: a crossing met on its under-strand before its
over-strand, walking the labels in order (u_in < o_in), is a violation; a
diagram with none is descending, hence an unlink.  The walk resolves one
violation by the skein relation (switch + smooth): the one of smallest u_in
whose oriented smoothing at once turns a neighbour into a curl, and when
no violation does, the first one met (see _crossing_to_resolve).  Smoothing
a twist-region crossing that way collapses its region, so the child is
small and often a memo hit.  A switch keeps every label and so lowers the
violation count by one; a smoothing drops a crossing.  So (crossings,
violations) falls in lexicographic order whichever violation is chosen,
and the recursion terminates.  Resolved diagrams are memoised under their
PD code as given, not under a canonical relabelling (see canonical_code).

Reidemeister-I curls are removed once, on entry, before the crossing
budget is checked; Reidemeister-II bigons are kept there, so the budget
counts the crossings left after R1 reduction.  A switch keeps the curl
test (under-out is over-in, or under-in is over-out), so the switch child
of a curl-free diagram is curl-free; it keeps labels and runs and slices
one switched record into its tuples, without a rebuild.  The smoothing
child also cancels the bigons that smoothing exposes, and those that
switches left in the diagram.  It writes its two glued edge pairs into a
flat class table, a list indexing each edge id to its class's smallest id
(see diagram._smoothing).  One pass writes each record in class names and
lists every curl and bigon; a removal glues the classes through its
crossings and renames the two slots at the ends of each merged class, and
only the crossings at those ends can become a curl or a bigon in turn
(see diagram._reduce).  The records kept go straight to the relabel, so
each child is mapped once and relabelled once.  Only a run of one or two
edges that is under at no crossing goes back to the validator.

There is one walk: it resolves each crossing once and combines the
(nabla, V) pairs of its two children in one pass over their terms (see
_combine).  Unlink leaves share one nabla = 1, one nabla = 0, and their
Jones value from a table of powers of the loop value.  conway_jones returns
the pair; conway and jones project it.  Each call starts from a fresh memo.

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

from .diagram import PDDiagram, _smooth_reduced
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

_T_INV_DELTA = LaurentPoly({-1: 1, -3: -1})   # t^-1 (t^(1/2) - t^(-1/2)), doubled keys
_LOOP = LaurentPoly({1: 1, -1: 1})             # t^(1/2) + t^(-1/2)
_ONE = LaurentPoly.one()
_ZERO = LaurentPoly.zero()
# k -> _LOOP ** k, filled as walks meet larger unlinks.  The values are
# immutable and depend on k alone, so every leaf of every walk shares them.
_LOOP_POWERS: dict[int, LaurentPoly] = {}


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


def _first_violation(d: PDDiagram):
    """Index of the first crossing met on its under-strand first, else None.

    Walking labels 1..2N meets a crossing first at min(u_in, o_in), so this
    is the crossing with the smallest u_in among those with u_in < o_in.
    """
    first, low = None, 2 * len(d._records) + 1
    for i, (u_in, o_in, _, _, _) in enumerate(d._records):
        if u_in < low and u_in < o_in:
            first, low = i, u_in
    return first


def _crossing_to_resolve(d: PDDiagram):
    """The crossing the walk resolves, else None when d is descending.

    Among the crossings met on their under-strand first (u_in < o_in),
    that of smallest u_in whose oriented smoothing at once turns a
    neighbour into a curl; when none does, ``_first_violation``.  With
    head[e] and tail[e] the crossings that edge e enters and leaves, the
    smoothing glues u_in to o_out, so tail[u_in] becomes a curl when it is
    head[o_out], and likewise o_in to u_out.
    """
    first = _first_violation(d)
    if first is None:
        return None
    recs = d._records
    n_ids = 2 * len(recs) + 1
    head = [0] * n_ids
    tail = [0] * n_ids
    for i, (u_in, o_in, u_out, o_out, _) in enumerate(recs):
        head[u_in] = head[o_in] = tail[u_out] = tail[o_out] = i
    low = n_ids
    for i, (u_in, o_in, u_out, o_out, _) in enumerate(recs):
        if u_in < low and u_in < o_in and (
                tail[u_in] == head[o_out] or tail[o_in] == head[u_out]):
            first, low = i, u_in
    return first


def _unlink(c: int) -> tuple[LaurentPoly, LaurentPoly]:
    """(nabla, V) of the c-component unlink."""
    k = max(c - 1, 0)
    v = _LOOP_POWERS.get(k)
    if v is None:
        v = _LOOP_POWERS.setdefault(k, _LOOP ** k)
    return (_ONE if c == 1 else _ZERO, v)


def _skein_eval(d: PDDiagram, memo: SkeinMemo) -> tuple[LaurentPoly, LaurentPoly]:
    """(nabla, V) of d, which has no Reidemeister-I curl.

    A descending d is an unlink.  Otherwise the crossing that
    ``_crossing_to_resolve`` picks, a violation whose smoothing closes a
    curl or else the first violation, is resolved, and the pairs of its two
    children are folded with ``_combine``.  Each child is smaller in
    (crossings, violations), lexicographically: the switch keeps the
    crossings and removes one violation, the smoothing drops a crossing.
    """
    if not d.crossings:
        return _unlink(d.component_count())
    key = canonical_code(d)
    cached = memo.get(key)
    if cached is not None:
        return cached
    i = _crossing_to_resolve(d)
    if i is None:
        val = _unlink(d.component_count())
    else:
        val = _combine(d._records[i].sign, _skein_eval(d.switch_crossing(i), memo),
                       _skein_eval(_smooth_reduced(d, i), memo))
    memo.put(key, val)
    return val


def _combine(sign: int, switched, smoothed) -> tuple[LaurentPoly, LaurentPoly]:
    """(nabla, V) of a crossing of sign s from the (nabla, V) of its switch
    and of its smoothing, in one pass over their terms, dropping those that
    cancel.  The skein relations solved for K+ (s = 1) or K- (s = -1) read

        nabla = nabla_sw - s z nabla_0
        V = t^(-2s) V_sw + (t^(-s/2) - t^(-3s/2)) V_0

    and in doubled keys z shifts by 2, t^(-2s) by -4s and t^(-s/2) by -s.
    """
    nabla_sw, v_sw = switched
    nabla_0, v_0 = smoothed
    nabla = dict(nabla_sw._terms)
    for k, c in nabla_0._terms.items():
        k += 2
        c = nabla.get(k, 0) - sign * c
        if c:
            nabla[k] = c
        else:
            del nabla[k]
    shift = -4 * sign
    v = {k + shift: c for k, c in v_sw._terms.items()}
    for k, c in v_0._terms.items():
        k -= sign
        cf = v.get(k, 0) + c
        if cf:
            v[k] = cf
        else:
            del v[k]
        k -= 2 * sign
        cf = v.get(k, 0) - c
        if cf:
            v[k] = cf
        else:
            del v[k]
    return _from_terms(nabla), _from_terms(v)


def conway_jones(d: PDDiagram) -> tuple[LaurentPoly, LaurentPoly]:
    """(nabla, V) of d from one skein walk with a fresh memo.

    Raises CrossingBudgetExceeded when more than DEFAULT_CROSSING_BUDGET
    crossings are left after Reidemeister-I reduction.
    """
    d = d.reduce_r1()
    if d.n_crossings > DEFAULT_CROSSING_BUDGET:
        raise CrossingBudgetExceeded(
            f"diagram has {d.n_crossings} crossings after R1 reduction, "
            f"budget is {DEFAULT_CROSSING_BUDGET}"
        )
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
    """
    if d.n_crossings > BRACKET_ORACLE_BUDGET:
        raise CrossingBudgetExceeded(
            f"bracket oracle limited to {BRACKET_ORACLE_BUDGET} crossings, "
            f"got {d.n_crossings}"
        )
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
