"""Conway and Jones polynomials by skein recursion, plus a state-sum oracle.

Skein relations and normalizations:

    conway:  nabla(K+) - nabla(K-) = -z * nabla(K0),      nabla(unknot) = 1
    jones:   t*V(K+) - t^-1*V(K-) = (t^(1/2) - t^(-1/2)) * V(K0),  V(unknot) = 1

Recursion strategy: walk the diagram edge by edge in label order; the first
crossing reached on its under-strand before its over-strand is resolved by
the skein relation (switch + smooth).  Diagrams surviving the walk are
descending, hence unlinks.  Switching strictly advances the walk and
smoothing drops a crossing, so the recursion terminates with depth bounded
by the crossing count.  Resolved diagrams are memoised under their PD code
as given, not under a canonical relabelling (see canonical_code).

conway_jones walks the tree once and combines (nabla, V) pairs; it is the
call to make when both polynomials of one diagram are needed.  A memo
serves one kind of value: conway, jones or conway_jones; reusing it for
another kind raises ValueError.
"""

from __future__ import annotations

from .diagram import PDDiagram
from .laurent import LaurentPoly

__all__ = [
    "CrossingBudgetExceeded",
    "SkeinMemo",
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

_Z = LaurentPoly.monomial(1, 1)          # z in the Conway walk, t in the Jones walk
_T_INV = LaurentPoly.monomial(1, -1)
_T2 = LaurentPoly.monomial(1, 2)
_T2_INV = LaurentPoly.monomial(1, -2)
_DELTA = LaurentPoly({1: 1, -1: -1})     # t^(1/2) - t^(-1/2), doubled keys
_LOOP = LaurentPoly({1: 1, -1: 1})       # t^(1/2) + t^(-1/2)


class CrossingBudgetExceeded(RuntimeError):
    """The diagram exceeds the configured crossing budget."""


class SkeinMemo:
    """Memo table keyed by PD code (see canonical_code), not by a relabelling.

    ``put`` raises AssertionError when a key is stored again with a
    different value.  ``kind`` is the walk that first used the memo
    ("conway", "jones" or "conway_jones"); a walk of another kind raises
    ValueError instead of reading values it did not store.
    """

    def __init__(self):
        self.table: dict = {}
        self.kind: str | None = None
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
    found = [(r.u_in, i) for i, r in enumerate(d.records()) if r.u_in < r.o_in]
    return min(found)[1] if found else None


def _skein_eval(d: PDDiagram, memo: SkeinMemo, unlink, combine):
    d = d.reduce_r1()
    if d.n_crossings == 0:
        return unlink(d.component_count())
    key = canonical_code(d)
    cached = memo.get(key)
    if cached is not None:
        return cached
    i = _first_violation(d)
    if i is None:
        val = unlink(d.component_count())
    else:
        switched = _skein_eval(d.switch_crossing(i), memo, unlink, combine)
        smoothed = _skein_eval(d.smooth_crossing(i), memo, unlink, combine)
        val = combine(d.crossing_sign(i), switched, smoothed)
    memo.put(key, val)
    return val


def _walk(d: PDDiagram, budget: int, memo: SkeinMemo | None, kind: str, unlink, combine):
    if d.n_crossings > budget:
        raise CrossingBudgetExceeded(
            f"diagram has {d.n_crossings} crossings, budget is {budget}"
        )
    if memo is None:
        memo = SkeinMemo()
    if memo.kind is None:
        memo.kind = kind
    elif memo.kind != kind:
        raise ValueError(f"memo holds {memo.kind} values; {kind} needs its own memo")
    return _skein_eval(d, memo, unlink, combine)


def _conway_unlink(c: int) -> LaurentPoly:
    return LaurentPoly.one() if c == 1 else LaurentPoly.zero()


def _conway_combine(sign: int, switched: LaurentPoly, smoothed: LaurentPoly) -> LaurentPoly:
    # nabla(K+) = nabla(K-) - z*nabla(K0) and the reverse for K-
    if sign > 0:
        return switched - _Z * smoothed
    return switched + _Z * smoothed


def _jones_unlink(c: int) -> LaurentPoly:
    return _LOOP ** max(c - 1, 0)


def _jones_combine(sign: int, switched: LaurentPoly, smoothed: LaurentPoly) -> LaurentPoly:
    # V(K+) = t^-2 V(K-) + t^-1 (t^(1/2)-t^(-1/2)) V(K0), and conversely
    if sign > 0:
        return _T2_INV * switched + _T_INV * _DELTA * smoothed
    return _T2 * switched - _Z * _DELTA * smoothed


def _pair_unlink(c: int) -> tuple[LaurentPoly, LaurentPoly]:
    return _conway_unlink(c), _jones_unlink(c)


def _pair_combine(sign: int, switched, smoothed) -> tuple[LaurentPoly, LaurentPoly]:
    return (_conway_combine(sign, switched[0], smoothed[0]),
            _jones_combine(sign, switched[1], smoothed[1]))


def conway(d: PDDiagram, budget: int = DEFAULT_CROSSING_BUDGET,
           memo: SkeinMemo | None = None) -> LaurentPoly:
    """Conway polynomial (variable z); split links give 0."""
    return _walk(d, budget, memo, "conway", _conway_unlink, _conway_combine)


def jones(d: PDDiagram, budget: int = DEFAULT_CROSSING_BUDGET,
          memo: SkeinMemo | None = None) -> LaurentPoly:
    """Jones polynomial (variable t^(1/2)); knots give integral exponents."""
    return _walk(d, budget, memo, "jones", _jones_unlink, _jones_combine)


def conway_jones(d: PDDiagram, budget: int = DEFAULT_CROSSING_BUDGET,
                 memo: SkeinMemo | None = None) -> tuple[LaurentPoly, LaurentPoly]:
    """(conway(d), jones(d)) from one skein walk; the memo stores the pairs.

    Both polynomials resolve the same crossings of the same diagrams, so
    the walk, its rebuilds and its memo keys are shared.
    """
    return _walk(d, budget, memo, "conway_jones", _pair_unlink, _pair_combine)


def jones_bracket_oracle(d: PDDiagram, budget: int = BRACKET_ORACLE_BUDGET) -> LaurentPoly:
    """Jones polynomial via the Kauffman bracket state sum over 2^N smoothings.

    Independent of the skein recursion; used to cross-validate it.  The
    A-smoothing of X(a,b,c,d) joins a-b and c-d, the B-smoothing joins
    a-d and b-c; the bracket is writhe-normalized and A is substituted by
    a quarter power of t (see _A_TO_T_QUARTERS).
    """
    if d.n_crossings > budget:
        raise CrossingBudgetExceeded(
            f"bracket oracle limited to {budget} crossings, got {d.n_crossings}"
        )
    n = d.n_crossings
    n_edges = 2 * n
    crossings = d.crossings

    # delta^k for loop counts, in the bracket variable A
    delta = {2: -1, -2: -1}
    max_loops = n_edges + d.free_loops + 1
    delta_pows = [{0: 1}]
    for _ in range(max_loops):
        prev = delta_pows[-1]
        nxt: dict[int, int] = {}
        for e1, c1 in prev.items():
            for e2, c2 in delta.items():
                nxt[e1 + e2] = nxt.get(e1 + e2, 0) + c1 * c2
        delta_pows.append({e: c for e, c in nxt.items() if c})

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

    # writhe normalization (-A^3)^(-w) in the standard convention equals
    # (-1)^w A^(3w) with this package's sign convention
    w = d.writhe()
    norm_sign = -1 if w % 2 else 1
    terms: dict[int, int] = {}
    for e, cf in bracket.items():
        if cf:
            terms[e + 3 * w] = norm_sign * cf

    # substitute A -> t^(quarters/4); doubled-exponent keys need e*quarters/2
    doubled: dict[int, int] = {}
    for e, cf in terms.items():
        q = e * _A_TO_T_QUARTERS
        if q % 2 != 0:
            raise AssertionError("bracket produced a non-half-integer t exponent")
        doubled[q // 2] = doubled.get(q // 2, 0) + cf

    value = LaurentPoly(doubled)
    if d.component_count() % 2 == 0:
        value = -value
    return value
