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

import re
from dataclasses import dataclass
from heapq import heappop, heappush
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

    def switched(self) -> "_Rec":
        """The crossing with over and under strands exchanged."""
        # tuple.__new__ skips the NamedTuple constructor's argument handling
        return tuple.__new__(_Rec, (self[1], self[0], self[3], self[2], -self[4]))


def _validate(crossings: tuple[tuple[int, ...], ...], free_loops: int
              ) -> tuple[tuple[tuple[int, int], ...], tuple[_Rec, ...]]:
    """Check a PD code in one pass; return its runs and strand records.

    A run ``(lo, hi)`` is a component labelled lo..hi.  A two-edge component
    that is over at every crossing it meets has no orientation in its PD
    code, because both directions increase cyclically.  It is entered at
    slot b of its first such crossing, unless that edge already has a head.
    Such a component is split, so Conway and Jones do not depend on the
    pick.  A rebuild or a switch hands a diagram with such a component to
    this validator (see ``_trusted``), so the records of every diagram they
    build equal the validation of its code.
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

    Immutable; every operation returns a new diagram.  The constructor
    refuses a code that ``_validate`` refuses or that is not planar (see
    ``_planar``).  The builders skip the planarity test and run
    ``_validate`` only in ``_trusted``'s short-run fallback.
    """

    __slots__ = ("crossings", "free_loops", "_runs", "_records")

    def __init__(self, crossings: Iterable[Sequence[int]], free_loops: int = 0):
        crossings = tuple(tuple(x) for x in crossings)
        self._runs, self._records = _validate(crossings, free_loops)
        if not _planar(crossings):
            raise PDError("code is not planar: V - E + F != 2C over its slot rotation")
        self.crossings = crossings
        self.free_loops = free_loops

    # -- basic queries ------------------------------------------------------

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)

    def component_count(self) -> int:
        return len(self._runs) + self.free_loops

    def writhe(self) -> int:
        return sum(r.sign for r in self._records)

    def _check_index(self, index) -> None:
        if type(index) is not int:
            raise TypeError(f"crossing index must be an integer, got {index!r}")
        if not 0 <= index < len(self.crossings):
            raise IndexError(f"crossing index {index} out of range")

    # -- crossing surgeries -------------------------------------------------

    def switch_crossing(self, index: int) -> "PDDiagram":
        """Exchange over and under strands at one crossing (sign negates).

        Labels and runs are kept and the record is switched in place; the
        records go to ``_trusted``, which writes the code and makes the same
        short-run check as for a rebuild, so the result is not re-validated.
        """
        self._check_index(index)
        recs = self._records
        return _trusted(recs[:index] + (recs[index].switched(),) + recs[index + 1:],
                        self.free_loops, self._runs)

    def smooth_crossing(self, index: int) -> "PDDiagram":
        """Oriented resolution of one crossing; every edge gets a fresh label.

        The other records are written in the class names of the smoothing's
        table (see ``_smoothing``) and relabelled once.  Curls and bigons are
        kept; the skein walk smooths the working records of its switch chain
        and also removes them (see ``_smooth_reduced``).
        """
        self._check_index(index)
        recs = self._records
        parent = _smoothing(recs[index], 2 * len(recs))
        named = [(parent[a], parent[b], parent[c], parent[d], s)
                 for a, b, c, d, s in recs[:index] + recs[index + 1:]]
        return _relabel(named, self.free_loops, parent)

    def reduce_r1(self) -> "PDDiagram":
        """Remove Reidemeister-I curls, iterated to a fixpoint, in one relabel.

        The curls are glued away on the strand records, in a class table
        over edge ids kept in a list: one pass finds the curls, then a
        worklist removes them and the crossings they turn into curls (see
        ``_reduced``).  Bigons are kept.  A diagram without curls is returned
        as it is.
        """
        return _reduced(self._records, list(range(2 * len(self.crossings) + 1)),
                        self.free_loops, False, self)

    def insert_full_twists(self, site: tuple[int, int], n: int) -> "PDDiagram":
        """Insert n full twists of the two strands carrying the given edges.

        The band is antiparallel: the second site edge's strand traverses
        the twist region opposite to the first, each full twist is a clasp
        of two equal-sign crossings, and the over-strand role alternates
        between the two strands (the pattern of the alternating (2,2n)
        diagram).  The sign of n selects the handedness; n followed by -n
        at the same site cancels by Reidemeister-II moves.  The result is not
        tested for planarity: a site whose edges share no face gives a
        non-planar diagram, returned unchecked, and parsing its ``render()``
        raises PDError.
        """
        if not isinstance(site, (tuple, list)) or len(site) != 2:
            raise PDError(f"twist site must be a pair of edges, got {site!r}")
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
        for r in self._records:
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
        # every id is fresh and none is glued, so each is its own class
        return _relabel(recs, self.free_loops, list(range(n_edges + 2 * k + 1)))

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


def _planar(crossings: Sequence[tuple[int, ...]]) -> bool:
    """Whether the 4-valent graph of a valid PD code embeds in the plane
    with the counterclockwise slot order of its code as rotation.

    Slot 4i + k is slot k of crossing i.  A face leaves each slot it
    reaches by the next slot counterclockwise and the edge there, so the
    faces are the cycles of that map, ``step``.  The test is Euler's
    formula V - E + F = 2C with V = N crossings, E = 2N edges and C the
    connected pieces of the graph: face tracing gives each piece its own
    outer face.  Smoothing a crossing and removing curls and bigons keep a
    planar code planar.
    """
    n = len(crossings)
    # step[s] is the slot a face reaches from slot s; -1 once traced
    step = [0] * (4 * n)
    first = [-1] * (2 * n + 1)
    # pieces: crossings joined by edges, in a union-find with path halving
    piece = list(range(n))
    pieces = n
    s = 0
    for x in crossings:
        for e in x:
            t = first[e]
            if t < 0:
                first[e] = s
            else:
                # edge e joins slots t and s: a face leaving by the slot
                # before either crosses to the other
                step[s - 1 if s & 3 else s + 3] = t
                step[t - 1 if t & 3 else t + 3] = s
                a, b = s >> 2, t >> 2
                while piece[a] != a:
                    piece[a] = a = piece[piece[a]]
                while piece[b] != b:
                    piece[b] = b = piece[piece[b]]
                if a != b:
                    piece[b] = a
                    pieces -= 1
            s += 1
    faces = 0
    for start in range(4 * n):
        if step[start] >= 0:
            faces += 1
            s = start
            while step[s] >= 0:
                step[s], s = -1, step[s]
    return faces - n == 2 * pieces


def _smoothing(t: _Rec, n_edges: int) -> list[int]:
    """The flat class table over ids 1..n_edges of the oriented smoothing of
    t, for either sign: under-in is glued to over-out, over-in to under-out.

    Every id points at its class's name, its smallest id.  The two pairs
    share an id only through a one-edge loop under or over at both ends
    (``u_in == u_out`` or ``o_in == o_out``), which only a non-planar code
    has; the four ids then make one class.
    """
    parent = list(range(n_edges + 1))
    u_in, o_in, u_out, o_out, _ = t
    if u_in == u_out or o_in == o_out:
        parent[u_in] = parent[o_in] = parent[u_out] = parent[o_out] = min(
            u_in, o_in, u_out, o_out)
    else:
        parent[max(u_in, o_out)] = min(u_in, o_out)
        parent[max(o_in, u_out)] = min(o_in, u_out)
    return parent


def _bigon(named: list[tuple[int, ...]], head: list[int], k: int) -> int:
    """The crossing that closes a Reidemeister-II bigon after crossing k,
    else -1.

    The strand leaving k under enters it under, the two crossings have
    opposite signs, and their over classes join them, in either direction.
    ``head`` maps each class of ``named`` to the crossing that enters on it.
    """
    u_in, o_in, u_out, o_out, s = named[k]
    j = head[u_out]
    if j != k:
        j_u_in, j_o_in, _, j_o_out, j_s = named[j]
        if j_u_in == u_out and j_s != s and (o_out == j_o_in or j_o_out == o_in):
            return j
    return -1


def _reduced(recs: Sequence[tuple[int, ...]], parent: list[int], free_loops: int,
             bigons: bool, same: "PDDiagram | None" = None) -> PDDiagram:
    """The diagram of recs, named by the class table parent, with free_loops
    free loops, after its Reidemeister-I curls and, when ``bigons`` is set,
    its Reidemeister-II bigons are removed to a fixpoint, in one relabel.
    ``same``, if given, is the diagram whose records recs are; it is
    returned when none goes.

    ``parent`` is a flat class table over edge ids (see ``_smoothing``):
    every id points at its class's name, its smallest id.  So one list index
    reads a class name.  After the removals the ids that point at
    themselves name the classes left, and the records kept, written in
    those names, go to ``_relabel``.

    A curl is a crossing where the strand leaving under comes back over, or
    the strand leaving over comes back under.  A bigon is a pair of
    crossings k and j found by ``_bigon``.  Removing either glues, for each
    strand through it, the class the strand enters on, the classes between
    and the class it leaves by.  A curl's strand enters, loops back and
    leaves, so its four edge classes make one class.  A bigon glues its
    under triple and its over triple, which make one class when they
    share an id.

    One pass reads each record's class names by list index.  It notes for
    each class the crossing that leaves by it (its tail) and the one that
    enters on it (its head), and lists the curls; a second lists the first
    crossing of every bigon.  Each class has one tail and one head, so a
    glue renames two slots only: the tail of the class the strand enters on
    and the head of the class it leaves by.  Those two crossings are the
    merged class's ends, and only they can have become a curl (when they
    are one crossing) or a bigon, so only they are listed again.

    Gluing only merges classes, so a curl stays a curl and a bigon a bigon
    until a removal takes its crossing.  The removals follow a fixed order,
    because a crossing can lie in two bigons, one on each side: every curl
    first, then the bigon whose first crossing comes first in ``recs``,
    until none is left; curls found meanwhile wait for the next round.
    """
    head = [-1] * len(parent)
    tail = [-1] * len(parent)
    named = []
    curls = []
    i = 0
    for u_in, o_in, u_out, o_out, s in recs:
        u_in = parent[u_in]
        o_in = parent[o_in]
        u_out = parent[u_out]
        o_out = parent[o_out]
        named.append((u_in, o_in, u_out, o_out, s))
        head[u_in] = head[o_in] = tail[u_out] = tail[o_out] = i
        if u_out == o_in or u_in == o_out:
            curls.append(i)
        i += 1
    # ascending, so already a heap
    pairs = [k for k in range(i) if _bigon(named, head, k) >= 0] if bigons else []
    if not curls and not pairs:
        return same if same is not None else _relabel(named, free_loops, parent)
    gone = [False] * i

    def glue(c_in: int, mid: int, c_out: int) -> None:
        # a strand enters removed crossings on c_in, runs through mid and
        # leaves by c_out; a strand that closes on itself (c_in == c_out)
        # has no ends left, and the relabel makes it a free loop
        low = c_in if c_in < c_out else c_out
        if mid < low:
            low = mid
        parent[c_in] = parent[mid] = parent[c_out] = low
        before, after = tail[c_in], head[c_out]
        a, b, c, d, s = named[before]
        named[before] = (a, b, low if c == c_in else c, low if d == c_in else d, s)
        a, b, c, d, s = named[after]
        named[after] = (low if a == c_out else a, low if b == c_out else b, c, d, s)
        tail[low], head[low] = before, after
        # a removed end is a strand closed on itself, or k or j of a bigon
        # whose other glue merges this class on; when both ends are kept,
        # the class is final
        if gone[before] or gone[after]:
            return
        if before == after:
            curls.append(after)
        elif bigons:
            if _bigon(named, head, before) == after:
                heappush(pairs, before)
            elif _bigon(named, head, after) == before:
                heappush(pairs, after)

    while True:
        while curls:
            k = curls.pop()
            if gone[k]:
                continue
            u_in, o_in, u_out, o_out, _ = named[k]
            # a class that leaves and comes back both under, or both over,
            # is no curl: only a non-planar code has one
            if u_out == o_in:
                gone[k] = True
                glue(u_in, u_out, o_out)
            elif u_in == o_out:
                gone[k] = True
                glue(o_in, o_out, u_out)
        if not pairs:
            break
        while pairs:
            k = heappop(pairs)
            if gone[k]:
                continue
            j = _bigon(named, head, k)
            if j < 0:
                continue
            gone[k] = gone[j] = True
            glue(named[k][0], named[k][2], named[j][2])
            # read after the under glue, which renames the slots of k and j
            # that the over triple shares with the under one
            _, k_in, _, k_out, _ = named[k]
            _, j_in, _, j_out, _ = named[j]
            if k_out == j_in:
                glue(k_in, k_out, j_out)
            else:
                glue(j_in, j_out, k_out)
    return _relabel([r for r, removed in zip(named, gone) if not removed],
                    free_loops, parent)


def _smooth_reduced(recs: Sequence[tuple[int, ...]], index: int,
                    free_loops: int) -> PDDiagram:
    """The skein walk's smoothing child: the smoothing of crossing index of
    the strand records recs, with free_loops free loops, with its curls and
    bigons removed by ``_reduced`` under the smoothing's flat class table
    (see ``_smoothing``)."""
    return _reduced(recs[:index] + recs[index + 1:],
                    _smoothing(recs[index], 2 * len(recs)), free_loops, True)


def _relabel(named: list[tuple[int, ...]], free_loops: int,
             parent: list[int]) -> PDDiagram:
    """The PDDiagram of records written in class names.

    ``parent`` is the class table the records were named by, over edge ids
    1..len(parent) - 1: a class is named by its smallest id, the one id of
    the class that points at itself, and each becomes one edge.  A class
    that touches no crossing becomes a free loop.  Strands are then traced
    from the smallest names to assign fresh consecutive labels per
    component.  Every table here is a list indexed by edge id.

    The result is not re-validated: the runs traced here and the relabelled
    records go to ``_trusted``, which writes the code from the records and
    validates only a diagram with a run of one or two edges that is under
    at no crossing.  So the records equal ``_validate`` of the new code.

    Guards, each a ``PDError`` "internal rebuild error": the strand table,
    filled unchecked, holds fewer than two entries per record when an edge
    id is consumed or produced twice; and a traced strand that does not
    close on its start, which is also where a strand ends that reaches an
    id produced but never consumed.
    """
    size = len(parent)
    # strand_next[e] is the edge a strand leaves by after entering on e (0: none)
    strand_next = [0] * size
    produced = bytearray(size)
    for u_in, o_in, u_out, o_out, _ in named:
        strand_next[u_in] = u_out
        strand_next[o_in] = o_out
        produced[u_out] = produced[o_out] = 1
    if size - strand_next.count(0) != 2 * len(named) or produced.count(1) != 2 * len(named):
        raise PDError("internal rebuild error: an edge id is consumed or produced twice")
    label = [0] * size
    runs = []
    last = 0
    for start in range(1, size):
        if label[start]:
            continue
        if not produced[start]:
            if parent[start] == start:
                free_loops += 1
            continue
        e = start
        while not label[e]:
            last += 1
            label[e] = last
            e = strand_next[e]
        if e != start:
            raise PDError(f"internal rebuild error: strand from edge id {start} "
                          f"does not close on its start")
        runs.append((label[start], last))

    # tuple.__new__ skips the NamedTuple constructor's argument handling
    new = tuple.__new__
    return _trusted(tuple([new(_Rec, (label[a], label[b], label[c], label[d], s))
                           for a, b, c, d, s in named]), free_loops, tuple(runs))


def _trusted(records: tuple[_Rec, ...], free_loops: int,
             runs: tuple[tuple[int, int], ...]) -> PDDiagram:
    """A diagram from records and runs its caller traced or kept, unchecked.

    ``_relabel`` and ``switch_crossing`` hand over records only; the PD code
    of every diagram they build is written here.  The one check is for a
    run of one or two edges that is under at no crossing: it reads both ways
    along its over-strands, so its code does not orient it.  A diagram with
    one takes its runs and records from ``_validate`` and so the validator's
    tie-break.  Planarity is not tested: smoothing, R1 and R2 keep a code
    planar, and a twist at a site that breaks it is the one builder that
    makes a non-planar diagram.
    """
    # positive crossings have the over-strand entering at slot b
    crossings = tuple([(a, b, c, d) if s > 0 else (a, d, c, b)
                       for a, b, c, d, s in records])
    short = [run for run in runs if run[1] - run[0] < 2]
    if short:
        unders = {r.u_in for r in records}
        if any(lo not in unders and hi not in unders for lo, hi in short):
            runs, records = _validate(crossings, free_loops)
    d = PDDiagram.__new__(PDDiagram)
    d.crossings = crossings
    d.free_loops = free_loops
    d._runs = runs
    d._records = records
    return d


# -- text format ------------------------------------------------------------


def parse_pd(text: str) -> PDDiagram:
    """Parse the PD text format.

    Tokens ``X(a,b,c,d)`` separated by ASCII whitespace, at most one
    ``loops=k`` header, and ``#`` comments running to end of line.  Lines
    end at ``\n``; other whitespace, such as U+3000 or U+2028, is part of
    a token, which it makes malformed.
    """
    return _parse_lines(text.split("\n") if text else [], 1)


# a token of the text format: a run of anything but ASCII whitespace
_TOKEN = re.compile(r"[^ \t\n\r\f\v]+")
# the integers of the text format: ASCII digits after an optional minus,
# which passes here so that the validator refuses it with its own message
_LOOPS = re.compile(r"loops=-?[0-9]+")
_CROSSING = re.compile(r"X\((-?[0-9]+),(-?[0-9]+),(-?[0-9]+),(-?[0-9]+)\)")


def _parse_lines(lines: Sequence[str], first: int) -> PDDiagram:
    """``parse_pd`` of lines whose first is line ``first`` of its file."""
    crossings = []
    loops = None
    # the first and last file lines that hold a token, which a code error names
    lo = hi = 0
    for ln, line in enumerate(lines, start=first):
        for tn, tok in enumerate(_TOKEN.findall(line.split("#", 1)[0]), start=1):
            lo, hi = lo or ln, ln
            if tok.startswith("loops="):
                if loops is not None:
                    raise PDError(
                        f"line {ln}, token {tn}: second loop-count header {tok!r}")
                if not _LOOPS.fullmatch(tok):
                    raise PDError(f"line {ln}, token {tn}: "
                                  f"malformed loop count {tok!r}")
                loops = int(tok[len("loops="):])
                continue
            m = _CROSSING.fullmatch(tok)
            if m is None:
                # one ")" and at the end: two crossings joined by a
                # character that is no separator make one malformed token
                if not (tok.startswith("X(") and tok.find(")") == len(tok) - 1):
                    raise PDError(f"line {ln}, token {tn}: malformed token {tok!r}, "
                                  "expected X(a,b,c,d)")
                n_labels = tok.count(",") + 1
                if n_labels != 4:
                    raise PDError(f"line {ln}, token {tn}: crossing needs 4 labels, "
                                  f"got {n_labels}")
                raise PDError(f"line {ln}, token {tn}: non-integer label in {tok!r}")
            crossings.append(tuple(map(int, m.groups())))
    try:
        return PDDiagram(crossings, loops or 0)
    except PDError as exc:
        where = "" if not lo else f"line {lo}: " if lo == hi else f"lines {lo}-{hi}: "
        raise PDError(f"{where}invalid PD code: {exc}") from None


# -- Legendrian front bookkeeping -------------------------------------------


@dataclass(frozen=True)
class FrontDiagram:
    """Writhe and cusp count of a Legendrian front projection."""

    writhe: int
    cusps: int

    def __post_init__(self):
        for field in ("writhe", "cusps"):
            value = getattr(self, field)
            if type(value) is not int:
                raise ValueError(f"{field} must be an integer, got {value!r}")
        if self.cusps % 2 != 0:
            raise ValueError("cusp count must be even")
        if self.cusps < 2:
            raise ValueError("a nonempty front has at least 2 cusps")


def tb_from_front(front: FrontDiagram) -> int:
    """Thurston-Bennequin number: writhe minus half the number of cusps."""
    return front.writhe - front.cusps // 2
