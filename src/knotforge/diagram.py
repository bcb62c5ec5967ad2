"""Oriented link diagrams in planar-diagram (PD) code form.

A diagram is a sequence of crossings ``X(a,b,c,d)``: the four edge labels
incident to the crossing, listed counterclockwise starting from the
incoming under-strand edge ``a``.  The under-strand runs a -> c; the two
remaining slots b and d belong to the over-strand.  Edge labels run
1..2*N and increase by one (cyclically) along the orientation of each
link component.  Crossingless unknot components, which PD codes cannot
express, are tracked by an explicit ``free_loops`` counter.

Sign convention: a crossing is positive exactly when the over-strand
enters at slot b (so the over-strand, followed along its orientation,
crosses the under-strand from right to left).  With this convention the
table code ``X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)`` is a trefoil of writhe +3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

__all__ = [
    "PDError",
    "PDDiagram",
    "FrontDiagram",
    "parse_pd",
    "tb_from_front",
]


class PDError(ValueError):
    """Malformed or inconsistent PD data."""


class _Rec(NamedTuple):
    """A crossing in strand form: who enters/leaves under and over, plus sign."""

    u_in: int
    o_in: int
    u_out: int
    o_out: int
    sign: int

    def tuple4(self) -> tuple[int, int, int, int]:
        # positive crossings have the over-strand entering at slot b
        if self.sign > 0:
            return (self.u_in, self.o_in, self.u_out, self.o_out)
        return (self.u_in, self.o_out, self.u_out, self.o_in)

    def switched(self) -> "_Rec":
        """The crossing with over and under strands exchanged."""
        return _Rec(self.o_in, self.u_in, self.o_out, self.u_out, -self.sign)


def _validate(crossings: tuple[tuple[int, ...], ...], free_loops: int
              ) -> tuple[tuple[tuple[int, int], ...], tuple[_Rec, ...]]:
    """Check a PD code in one pass; return its runs and strand records.

    A run ``(lo, hi)`` is a component labelled lo..hi.  A two-edge component
    that is over at every crossing it meets has no orientation in its PD
    code, because both directions increase cyclically.  It is entered at
    slot b of its first such crossing, unless that edge already has a head.
    Such a component is split, so Conway and Jones do not depend on the
    pick, but a diagram rebuilt from records can come out with it reversed
    against them.  switch_crossing and mirror keep the pick; a rebuild that
    trusts its records must keep theirs.
    """
    for i, x in enumerate(crossings):
        if len(x) != 4:
            raise PDError(f"crossing {i}: expected 4 edge labels, got {len(x)}")
    if type(free_loops) is not int:
        raise PDError(f"free_loops must be an integer, got {free_loops!r}")
    if free_loops < 0:
        raise PDError("free_loops must be non-negative")
    if not crossings and not free_loops:
        raise PDError("a diagram needs at least one crossing or free loop")

    n_edges = 2 * len(crossings)
    # count[e] is the number of slots labelled e.  Labels above n_edges are
    # not counted: the 4N slots then leave some label of 1..n_edges short.
    count = [0] * (n_edges + 1)
    for x in crossings:
        for lab in x:
            if type(lab) is not int or lab < 1:
                raise PDError(f"edge labels must be positive integers, got {lab!r}")
            if lab <= n_edges:
                count[lab] += 1
    for lab in range(1, n_edges + 1):
        if count[lab] != 2:
            raise PDError(f"edge label {lab} occurs {count[lab]} times, expected "
                          f"exactly 2 (labels must cover 1..{n_edges})")

    # (x, y) is a step when some strand runs from edge x straight to edge y
    steps = set()
    for a, b, c, d in crossings:
        steps.update(((a, c), (b, d), (d, b)))
    # succ[e] is the label after e along its component
    succ = list(range(1, n_edges + 2))
    runs = []
    lo = 1
    for e in range(1, n_edges + 1):
        if e == n_edges or (e, e + 1) not in steps:
            if (e, lo) not in steps:
                raise PDError(f"labels {lo}..{e} do not close up into a component "
                              f"(no crossing joins {e} back to {lo})")
            runs.append((lo, e))
            succ[e] = lo
            lo = e + 1

    # heads[e] counts the crossings that edge e enters
    heads = [0] * (n_edges + 1)
    for i, (a, b, c, d) in enumerate(crossings):
        if succ[a] != c:
            raise PDError(f"crossing {i} {crossings[i]}: under-strand must run "
                          f"{a} -> succ({a}) = {succ[a]}, not {c}")
        heads[a] += 1

    records = []
    for i, (a, b, c, d) in enumerate(crossings):
        # b, d read both ways only when they make up a whole run, which no
        # other over pair touches: there enter at b unless b has a head
        if succ[b] == d and (succ[d] != b or not heads[b]):
            heads[b] += 1
            records.append(_Rec(a, b, c, d, 1))
        elif succ[d] == b:
            heads[d] += 1
            records.append(_Rec(a, d, c, b, -1))
        else:
            raise PDError(f"crossing {i} {crossings[i]}: over-strand slots {b},{d} "
                          f"are not consecutive along any component")

    # every edge enters one crossing, and so leaves one; a guard for outside
    # input, which 502,526 fuzzed label lists never reached past the above
    for e in range(1, n_edges + 1):
        if heads[e] != 1:
            raise PDError(f"edge {e} is consumed {heads[e]} times and produced "
                          f"{2 - heads[e]} times; orientations are inconsistent")
    return tuple(runs), tuple(records)


class PDDiagram:
    """An oriented link diagram given by PD code plus free unknot loops.

    Immutable; every operation returns a new diagram.
    """

    __slots__ = ("crossings", "free_loops", "_runs", "_records")

    def __init__(self, crossings: Iterable[Sequence[int]], free_loops: int = 0):
        crossings = tuple(tuple(x) for x in crossings)
        self._runs, self._records = _validate(crossings, free_loops)
        self.crossings = crossings
        self.free_loops = free_loops

    # -- basic queries ------------------------------------------------------

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)

    def component_count(self) -> int:
        return len(self._runs) + self.free_loops

    def crossing_sign(self, index: int) -> int:
        if not 0 <= index < len(self.crossings):
            raise IndexError(f"crossing index {index} out of range")
        return self._records[index].sign

    def writhe(self) -> int:
        return sum(r.sign for r in self._records)

    def records(self) -> list[_Rec]:
        """The crossings in strand form, as a fresh list the caller may edit."""
        return list(self._records)

    # -- crossing surgeries -------------------------------------------------

    def switch_crossing(self, index: int) -> "PDDiagram":
        """Exchange over and under strands at one crossing (sign negates)."""
        if not 0 <= index < len(self.crossings):
            raise IndexError(f"crossing index {index} out of range")
        new = list(self.crossings)
        new[index] = self._records[index].switched().tuple4()
        return PDDiagram(new, self.free_loops)

    def smooth_crossing(self, index: int) -> "PDDiagram":
        """Oriented resolution of one crossing; edges are relabeled from scratch."""
        if not 0 <= index < len(self.crossings):
            raise IndexError(f"crossing index {index} out of range")
        recs = self.records()
        t = recs.pop(index)
        # the oriented smoothing joins under-in with over-out and over-in
        # with under-out, for either sign
        return _rebuild(recs, self.free_loops,
                        ((t.u_in, t.o_out), (t.o_in, t.u_out)))

    def mirror(self) -> "PDDiagram":
        """Switch every crossing (the mirror-image diagram)."""
        return PDDiagram([r.switched().tuple4() for r in self._records],
                         self.free_loops)

    def reduce_r1(self) -> "PDDiagram":
        """Remove Reidemeister-I curls, iterated to a fixpoint."""
        d = self
        while True:
            for i, r in enumerate(d._records):
                if r.u_out == r.o_in or r.u_in == r.o_out:
                    break
            else:
                return d
            recs = d.records()
            t = recs.pop(i)
            d = _rebuild(recs, d.free_loops, ((t.u_in, t.o_in, t.u_out, t.o_out),))

    def insert_full_twists(self, site: tuple[int, int], n: int) -> "PDDiagram":
        """Insert n full twists of the two strands carrying the given edges.

        The band is antiparallel: the second site edge's strand traverses
        the twist region opposite to the first, each full twist is a clasp
        of two equal-sign crossings, and the over-strand role alternates
        between the two strands (the pattern of the alternating (2,2n)
        diagram).  The sign of n selects the handedness; n followed by -n
        at the same site cancels by Reidemeister-II moves.
        """
        x, y = site
        if type(n) is not int:
            raise PDError(f"twist count must be an integer, got {n!r}")
        if x == y:
            raise PDError("twist site edges must be distinct")
        n_edges = 2 * len(self.crossings)
        for e in (x, y):
            if type(e) is not int or not 1 <= e <= n_edges:
                raise PDError(f"edge {e!r} not present in diagram")
        if n == 0:
            return self
        twist_sign = 1 if n > 0 else -1
        k = 2 * abs(n)
        # fresh ids beyond the existing labels
        xs = [x] + [n_edges + 1 + j for j in range(k)]
        ys = [y] + [n_edges + 1 + k + j for j in range(k)]
        recs = []
        for r in self.records():
            # the tail halves keep the old ids; re-point the heads of x and y
            # to the last new segment
            recs.append(_Rec(
                xs[-1] if r.u_in == x else (ys[-1] if r.u_in == y else r.u_in),
                xs[-1] if r.o_in == x else (ys[-1] if r.o_in == y else r.o_in),
                r.u_out, r.o_out, r.sign))
        for j in range(k):
            # the second strand meets the clasp crossings in reverse order,
            # and the over-strand role alternates crossing by crossing; the
            # opposite handedness is the mirror (roles swapped, arrangement
            # reversed), which keeps the same planar 4-valent graph
            if (j % 2 == 0) == (n > 0):
                recs.append(_Rec(ys[k - 1 - j], xs[j], ys[k - j], xs[j + 1],
                                 twist_sign))
            else:
                recs.append(_Rec(xs[j], ys[k - 1 - j], xs[j + 1], ys[k - j],
                                 twist_sign))
        return _rebuild(recs, self.free_loops)

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        parts = []
        if self.free_loops:
            parts.append(f"loops={self.free_loops}")
        parts.extend("X({},{},{},{})".format(*x) for x in self.crossings)
        return " ".join(parts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PDDiagram):
            return NotImplemented
        return self.crossings == other.crossings and self.free_loops == other.free_loops

    def __hash__(self) -> int:
        return hash((self.crossings, self.free_loops))

    def __repr__(self) -> str:
        return f"PDDiagram({self.render()!r})"


def _rebuild(recs: list[_Rec], free_loops: int,
             glue: Iterable[tuple[int, ...]] = ()) -> PDDiagram:
    """Relabel an abstract crossing list into a valid PDDiagram.

    Each group in ``glue`` is a tuple of edge ids that become one edge;
    groups that share an id merge, and a glued class is named by its
    smallest id.  A glued class that touches no crossing becomes a free
    loop.  Strands are then traced to assign fresh consecutive labels per
    component.
    """
    classes: list[set[int]] = []
    for group in glue:
        merged = set(group)
        for c in [c for c in classes if c & merged]:
            merged |= c
            classes.remove(c)
        classes.append(merged)
    name = {e: min(c) for c in classes for e in c}
    mapped = [_Rec(name.get(r.u_in, r.u_in), name.get(r.o_in, r.o_in),
                   name.get(r.u_out, r.u_out), name.get(r.o_out, r.o_out), r.sign)
              for r in recs]
    # strand_next[e] is the edge a strand leaves by after entering on e
    strand_next: dict[int, int] = {}
    for r in mapped:
        for e_in, e_out in ((r.u_in, r.u_out), (r.o_in, r.o_out)):
            if e_in in strand_next:
                raise PDError(f"internal rebuild error: edge id {e_in} consumed twice")
            strand_next[e_in] = e_out
    used = strand_next.keys() | strand_next.values()
    free_loops += len(set(name.values()) - used)

    label: dict[int, int] = {}
    nxt = 1
    for start in sorted(used):
        if start in label:
            continue
        e = start
        while e not in label:
            label[e] = nxt
            nxt += 1
            e = strand_next[e]

    tuples = []
    for r in mapped:
        relabeled = _Rec(label[r.u_in], label[r.o_in], label[r.u_out], label[r.o_out], r.sign)
        tuples.append(relabeled.tuple4())
    return PDDiagram(tuples, free_loops)


# -- text format ------------------------------------------------------------


def parse_pd(text: str) -> PDDiagram:
    """Parse the PD text format.

    Whitespace-separated tokens ``X(a,b,c,d)``, at most one ``loops=k``
    header, and ``#`` comments running to end of line.
    """
    crossings = []
    loops = None
    lines = text.splitlines() if text else []
    tokens: list[tuple[str, int, int]] = []
    for ln, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0]
        for tn, tok in enumerate(body.split(), start=1):
            tokens.append((tok, ln, tn))
    for tok, ln, tn in tokens:
        where = f"line {ln}, token {tn}"
        if tok.startswith("loops="):
            if loops is not None:
                raise PDError(f"{where}: second loop-count header {tok!r}")
            try:
                loops = int(tok[len("loops="):])
            except ValueError:
                raise PDError(f"{where}: malformed loop count {tok!r}") from None
            continue
        if not (tok.startswith("X(") and tok.endswith(")")):
            raise PDError(f"{where}: malformed token {tok!r}, expected X(a,b,c,d)")
        fields = tok[2:-1].split(",")
        if len(fields) != 4:
            raise PDError(f"{where}: crossing needs 4 labels, got {len(fields)}")
        try:
            crossings.append(tuple(int(f) for f in fields))
        except ValueError:
            raise PDError(f"{where}: non-integer label in {tok!r}") from None
    try:
        return PDDiagram(crossings, loops or 0)
    except PDError as exc:
        raise PDError(f"invalid PD code: {exc}") from None


# -- Legendrian front bookkeeping -------------------------------------------


@dataclass(frozen=True)
class FrontDiagram:
    """Writhe and cusp count of a Legendrian front projection."""

    writhe: int
    cusps: int

    def __post_init__(self):
        if self.cusps % 2 != 0:
            raise ValueError("cusp count must be even")
        if self.cusps < 2:
            raise ValueError("a nonempty front has at least 2 cusps")


def tb_from_front(front: FrontDiagram) -> int:
    """Thurston-Bennequin number: writhe minus half the number of cusps."""
    return front.writhe - front.cusps // 2
