"""PD diagrams: parsing, crossing surgeries, twist insertion, fronts."""

import hashlib
import random
import re
from itertools import islice

import pytest

from knotforge import diagram as diagram_module
from knotforge.diagram import (
    FrontDiagram,
    PDDiagram,
    PDError,
    _Rec,
    _planar,
    _relabel,
    _validate,
    parse_pd,
    tb_from_front,
)
from knotforge import skein
from knotforge.laurent import LaurentPoly

from conftest import (TABLE_NAMES, class_table, is_planar, mirror, one_edit_labels,
                      random_planar_diagrams, reduced_child, unchecked, with_curls)

TREFOIL = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"
# a valid code with no planar embedding, one edit from a planar one
NON_PLANAR = "X(1,6,2,7) X(5,7,6,1) X(4,8,5,10) X(9,2,10,3) X(8,4,9,3)"
NON_PLANAR_CROSSINGS = ((1, 6, 2, 7), (5, 7, 6, 1), (4, 8, 5, 10), (9, 2, 10, 3),
                        (8, 4, 9, 3))
NOT_PLANAR = "code is not planar: V - E + F != 2C over its slot rotation"
# trefoil with an extra positive curl spliced into edge 1 (edge 1 split
# into arcs 1, 2, 3; old labels >= 2 shifted by 2)
STACKED_CURL = "X(1,2,2,3) X(3,6,4,7) X(5,8,6,1) X(7,4,8,5)"
# a planar 10-crossing code whose skein walk reaches the short-run fallback
SHORT_RUN_CHILD = [(20, 11, 13, 12), (12, 19, 11, 20), (7, 15, 8, 14), (13, 1, 14, 10),
                   (18, 1, 19, 2), (2, 17, 3, 18), (3, 17, 4, 16), (15, 7, 16, 6),
                   (9, 4, 10, 5), (5, 8, 6, 9)]


def glued(recs, d: PDDiagram, groups) -> PDDiagram:
    """The records of d that are kept, with the given groups of d's edge
    ids glued, relabelled into a diagram."""
    name = class_table(2 * d.n_crossings + 1, groups)
    return _relabel([(name[a], name[b], name[c], name[e], s) for a, b, c, e, s in recs],
                    d.free_loops, name)


def cancel_adjacent_r2(d: PDDiagram) -> PDDiagram:
    """Cancel immediately adjacent opposite-sign crossing pairs, to a fixpoint.

    Detects pairs where one strand passes under the other at two consecutive
    crossings with opposite signs (a Reidemeister-II bigon) and removes them.
    """
    while True:
        recs = d._records
        hit = None
        for i, ri in enumerate(recs):
            for j, rj in enumerate(recs):
                if i == j or ri.sign == rj.sign:
                    continue
                if ri.u_out != rj.u_in:
                    continue
                if ri.o_out == rj.o_in or rj.o_out == ri.o_in:
                    hit = (i, j)
                    break
            if hit:
                break
        if hit is None:
            return d
        i, j = hit
        ri, rj = recs[i], recs[j]
        keep = [r for k, r in enumerate(recs) if k not in (i, j)]
        under = (ri.u_in, ri.u_out, rj.u_out)       # in, shared edge, out
        if ri.o_out == rj.o_in:                     # over strand runs the same way
            over = (ri.o_in, ri.o_out, rj.o_out)
        else:                                       # over strand runs the other way
            over = (rj.o_in, rj.o_out, ri.o_out)
        d = glued(keep, d, (under, over))


def reduce_r1_curl_by_curl(d: PDDiagram) -> PDDiagram:
    """Reference R1 reduction: remove the first curl, rebuild, repeat."""
    while True:
        for i, r in enumerate(d._records):
            if r.u_out == r.o_in or r.u_in == r.o_out:
                break
        else:
            return d
        recs = list(d._records)
        t = recs.pop(i)
        d = glued(recs, d, [(t.u_in, t.o_in, t.u_out, t.o_out)])


def full_reduce(d: PDDiagram) -> PDDiagram:
    while True:
        n = d.n_crossings
        d = cancel_adjacent_r2(d.reduce_r1())
        if d.n_crossings == n:
            return d


class TestParse:
    def test_trefoil(self):
        d = parse_pd(TREFOIL)
        assert d.n_crossings == 3
        assert d.component_count() == 1

    def test_free_loop_only(self):
        d = parse_pd("loops=1")
        assert d.n_crossings == 0
        assert d.component_count() == 1

    def test_single_curl(self):
        d = parse_pd("X(1,1,2,2)")
        assert d.component_count() == 1
        assert d.writhe() in (1, -1)

    @pytest.mark.parametrize("text, token", [
        ("X(1,4,2,5) X(3,6,4,1)\u3000X(5,2,6,3)", "X(3,6,4,1)\u3000X(5,2,6,3)"),
        ("X(1,4,2,5)\u2028X(3,6,4,1) X(5,2,6,3)", "X(1,4,2,5)\u2028X(3,6,4,1)"),
        ("X(1,4,2,5) X(3,6,4,1)\u00a0X(5,2,6,3)", "X(3,6,4,1)\u00a0X(5,2,6,3)")])
    def test_only_ascii_whitespace_separates(self, text, token):
        # str.split() would take U+3000, U+2028 and U+00A0 for separators
        # and read the trefoil
        with pytest.raises(PDError, match="malformed token") as info:
            parse_pd(text)
        assert repr(token) in str(info.value)
        assert parse_pd("X(1,4,2,5)\tX(3,6,4,1)\r\nX(5,2,6,3)\f") == parse_pd(TREFOIL)

    def test_equality_hash_and_repr(self):
        d = parse_pd(TREFOIL)
        same = PDDiagram(d.crossings)
        assert d == same and hash(d) == hash(same) and len({d, same}) == 1
        assert d != parse_pd("loops=1 " + TREFOIL)
        assert d != TREFOIL and d != d.crossings
        assert repr(d) == f"PDDiagram({TREFOIL!r})"

    def test_comments_and_whitespace(self):
        text = "# a trefoil\nX(1,4,2,5)  X(3,6,4,1) # mid\n X(5,2,6,3)\n"
        assert parse_pd(text) == parse_pd(TREFOIL)

    @pytest.mark.parametrize("text", ["", "# nothing here\n   # nor here\n"])
    def test_empty_text_rejected(self, text):
        # no crossings and no loops: there is no diagram to give a value to
        with pytest.raises(PDError, match="at least one crossing or free loop"):
            parse_pd(text)

    def test_malformed_token_reports_position(self):
        with pytest.raises(PDError, match=r"line 1, token 2"):
            parse_pd("X(1,4,2,5) Y(3,6,4,1)")

    def test_second_loops_header_reports_position(self):
        with pytest.raises(PDError, match=r"line 2, token 1: second loop-count header 'loops=1'"):
            parse_pd("loops=3 X(1,1,2,2)\nloops=1")

    def test_wrong_arity_reports_position(self):
        with pytest.raises(PDError, match=r"4 labels, got 3"):
            parse_pd("X(1,2,3)")

    def test_non_integer_label(self):
        with pytest.raises(PDError, match="non-integer"):
            parse_pd("X(1,a,2,2)")

    def test_label_occurring_once(self):
        with pytest.raises(PDError, match="occurs 1 time"):
            parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,7)")

    def test_component_not_closing_up(self):
        with pytest.raises(PDError, match="do not close up"):
            parse_pd("X(1,2,3,4) X(1,2,3,4)")

    def test_under_strand_not_following_orientation(self):
        with pytest.raises(PDError, match="under-strand must run"):
            parse_pd("X(3,2,2,1) X(1,3,4,4)")

    def test_over_strand_not_consecutive(self):
        with pytest.raises(PDError, match="not consecutive along any component"):
            parse_pd("X(6,8,5,1) X(3,2,3,7) X(4,7,4,8) X(5,2,6,1)")

    def test_inconsistent_orientation(self):
        # no crossing carries a strand from edge 1 to edge 2 or back to 1,
        # so the labels cannot be read as one oriented component run
        with pytest.raises(PDError, match="do not close up"):
            parse_pd("X(1,4,3,5) X(2,6,4,1) X(5,2,6,3)")

    @pytest.mark.parametrize("loops", [1.5, 2.0, True, "2"])
    def test_non_integer_free_loops_rejected(self, loops):
        with pytest.raises(PDError, match="free_loops must be an integer"):
            PDDiagram([], loops)

    @pytest.mark.parametrize("crossings", [
        [(True, 4, 2, 5), (3, 6, 4, True), (5, 2, 6, 3)],
        [(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3.0)],
    ])
    def test_non_integer_label_rejected(self, crossings):
        # True == 1 and 3.0 == 3, but the diagram could not be rendered as
        # PD text that parses back
        with pytest.raises(PDError, match="edge labels must be positive integers"):
            PDDiagram(crossings)

    @pytest.mark.parametrize("make, message", [
        (lambda: PDDiagram([(1, 2, 3)]), "crossing 0: expected 4 edge labels, got 3"),
        (lambda: parse_pd("loops=-1"),
         "line 1: invalid PD code: free_loops must be non-negative"),
        (lambda: parse_pd("loops=x"), "line 1, token 1: malformed loop count 'loops=x'"),
        # int() reads each of these; the format spells ASCII digits only
        (lambda: parse_pd("loops=1_0"),
         "line 1, token 1: malformed loop count 'loops=1_0'"),
        (lambda: parse_pd("loops=+1"),
         "line 1, token 1: malformed loop count 'loops=+1'"),
        (lambda: parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,0_3)"),
         "line 1, token 3: non-integer label in 'X(5,2,6,0_3)'"),
        (lambda: parse_pd("X(1,4,2,5) X(3,6,4,1)\nX(5,2,6,+3)"),
         "line 2, token 1: non-integer label in 'X(5,2,6,+3)'"),
        (lambda: parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,\u0663)"),
         "line 1, token 3: non-integer label in 'X(5,2,6,\u0663)'"),
        (lambda: parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,-3)"),
         "line 1: invalid PD code: edge labels must be positive integers, got -3"),
        # a code error names the first and last lines that hold a token
        (lambda: parse_pd("# c\nloops=1\n\nX(1,4,2,5) X(3,6,4,1) X(5,2,6,-3)\n# d\n"),
         "lines 2-4: invalid PD code: edge labels must be positive integers, got -3"),
        (lambda: parse_pd(NON_PLANAR), f"line 1: invalid PD code: {NOT_PLANAR}"),
        (lambda: PDDiagram(NON_PLANAR_CROSSINGS), NOT_PLANAR),
    ])
    def test_refusal_text(self, make, message):
        with pytest.raises(PDError) as info:
            make()
        assert str(info.value) == message

    def test_round_trip_on_table(self, table):
        for name in TABLE_NAMES:
            d = table.diagram(name)
            assert parse_pd(d.render()) == d

    def test_round_trip_on_random(self):
        for d in random_planar_diagrams(seed=7, count=100, max_crossings=12):
            assert parse_pd(d.render()) == d


class TestIsPlanar:
    # the test helper and the package's predicate count one outer face per
    # connected piece of the graph; both read crossing tuples, so a code
    # that PDDiagram refuses can be tested
    @pytest.mark.parametrize("crossings, planar", [
        (((1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)), True),                 # trefoil
        (((3, 1, 4, 2), (2, 4, 1, 3), (7, 5, 8, 6), (6, 8, 5, 7)), True),   # split two-Hopf
        (NON_PLANAR_CROSSINGS, False),
    ])
    def test_euler_formula_per_piece(self, crossings, planar):
        assert is_planar(crossings) is planar
        assert _planar(crossings) is planar

    def test_package_predicate_equals_the_helper_on_fuzzed_codes(self, table):
        # the helper is kept as the independent reference, on the codes of
        # one_edit_codes's stream before PDDiagram refuses the non-planar ones
        planar = 0
        for crossings, loops in islice(one_edit_labels(table, 2401, 10, 1), 600):
            assert _planar(crossings) is is_planar(crossings), crossings
            planar += is_planar(crossings)
        assert planar == 425


class TestPlanarityRefusal:
    """PDDiagram accepts a code exactly when the validator and the planarity
    test both do, so parse_pd and every table entry refuse a non-planar
    code; the builders do not test planarity."""

    @pytest.mark.parametrize("make", [
        lambda table: PDDiagram(NON_PLANAR_CROSSINGS),
        lambda table: parse_pd(NON_PLANAR),
        # CHANGES.md FOUND: a twist at a site whose edges share no face
        lambda table: parse_pd(table.diagram("5_2").insert_full_twists((1, 4), 1).render()),
    ])
    def test_non_planar_codes_are_refused(self, table, make):
        with pytest.raises(PDError, match=re.escape(NOT_PLANAR)):
            make(table)

    def test_split_diagrams_are_accepted(self):
        d = parse_pd("X(3,1,4,2) X(2,4,1,3) X(7,5,8,6) X(6,8,5,7)")
        assert d.component_count() == 4

    def test_twists_are_not_tested(self, table):
        # a twist at a site whose edges share no face is the one way left to
        # build a non-planar diagram
        d = table.diagram("5_2").insert_full_twists((1, 4), 1)
        assert not is_planar(d.crossings)
        assert _validate(d.crossings, d.free_loops) == (d._runs, d._records)

    def test_constructor_is_validation_and_planarity(self, table):
        accepted = refused = 0
        for crossings, loops in islice(one_edit_labels(table, 2401, 10, 1), 2000):
            try:
                _validate(crossings, loops)
            except PDError as exc:
                with pytest.raises(PDError, match=re.escape(str(exc))):
                    PDDiagram(crossings, loops)
                continue
            if is_planar(crossings):
                accepted += 1
                assert PDDiagram(crossings, loops).crossings == crossings
            else:
                refused += 1
                with pytest.raises(PDError, match=re.escape(NOT_PLANAR)):
                    PDDiagram(crossings, loops)
        assert accepted > 1000 and refused > 300


def _signs(d):
    return tuple(r.sign for r in d._records)


class TestSigns:
    def test_trefoil_all_positive(self):
        d = parse_pd(TREFOIL)
        assert _signs(d) == (1, 1, 1)
        assert d.writhe() == 3

    def test_mirror_negates(self, table):
        d = mirror(parse_pd(TREFOIL))
        assert _signs(d) == (-1, -1, -1)
        assert d.writhe() == -3
        hopf = mirror(table.diagram("hopf+"))
        assert _signs(hopf) == (-1, -1)
        assert hopf.writhe() == -2

    def test_curl_sign_is_writhe(self):
        d = parse_pd("X(1,1,2,2)")
        assert d.writhe() == d._records[0].sign

    def test_hopf_positive(self, table):
        d = table.diagram("hopf+")
        assert d.component_count() == 2
        assert d.writhe() == 2

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            parse_pd(TREFOIL).switch_crossing(3)

    def test_empty_diagram_with_loops(self):
        d = PDDiagram((), free_loops=2)
        assert d.component_count() == 2
        assert d.writhe() == 0

    def test_two_edge_tie_break(self):
        # components 5..6 and 7..8 have two edges each, so both over-strand
        # directions run along them; the validator picks b unless b is
        # already a head
        d = parse_pd("X(9,8,10,7) X(10,4,11,1) X(11,4,12,3) X(12,8,9,7) "
                     "X(5,1,6,2) X(6,3,5,2)")
        assert _signs(d) == (1, 1, -1, -1, 1, -1)
        assert skein.conway(d) == LaurentPoly()
        assert skein.jones(d) == skein.jones_bracket_oracle(d)


class TestCrossingIndex:
    @pytest.mark.parametrize("method", ["switch_crossing", "smooth_crossing"])
    @pytest.mark.parametrize("index", [True, False, 1.0, "1", None])
    def test_non_integer_index_rejected(self, method, index):
        d = parse_pd(TREFOIL)
        with pytest.raises(TypeError, match=f"got {re.escape(repr(index))}$"):
            getattr(d, method)(index)

    @pytest.mark.parametrize("method", ["switch_crossing", "smooth_crossing"])
    @pytest.mark.parametrize("index", [-1, 3])
    def test_index_out_of_range(self, method, index):
        with pytest.raises(IndexError, match="out of range"):
            getattr(parse_pd(TREFOIL), method)(index)


class TestRecords:
    def test_records_are_a_tuple_of_recs(self, table):
        # tests read and iterate d._records in place, so no builder may hand
        # out a list that a caller could edit under the diagram
        for name in TABLE_NAMES:
            d = table.diagram(name)
            built = [d, mirror(d),
                     *(d.switch_crossing(i) for i in range(d.n_crossings)),
                     *(d.smooth_crossing(i) for i in range(d.n_crossings))]
            for b in built:
                assert type(b._records) is tuple
                assert all(type(r) is _Rec for r in b._records)
                assert len(b._records) == b.n_crossings


class TestValidatorOutcomes:
    # SHA-256 of the outcomes below: any change to a check, a message, the
    # order of the checks or the records of an accepted code changes it.
    # Recomputed when the constructor began to refuse non-planar codes: the
    # outcomes of the earlier code, each accepted code that
    # conftest.is_planar calls non-planar read as NOT_PLANAR.
    DIGEST = "94fb48fda05534e4dca32fa09292d9727e1dfeab1d77dddb3f5cdd9182bd688f"

    def test_one_edit_fuzz_digest(self, table):
        bases = [table.diagram(name) for name in TABLE_NAMES]
        bases += random_planar_diagrams(seed=3, count=300, max_crossings=10)
        bases = [d for d in bases if d.n_crossings]
        rng = random.Random(2014)
        outcomes = []
        accepted = non_planar = 0
        for _ in range(20000):
            base = rng.choice(bases)
            xs = [list(x) for x in base.crossings]
            n = len(xs)
            i, j = rng.randrange(n), rng.randrange(4)
            op = rng.randrange(3)
            if op < 2:
                # swap two slots, within crossing i (op 0) or anywhere (op 1)
                k = i if op == 0 else rng.randrange(n)
                l = rng.randrange(4)
                xs[i][j], xs[k][l] = xs[k][l], xs[i][j]
            else:
                # label edit, 0 and 2N + 1 included
                xs[i][j] = rng.randrange(2 * n + 2)
            try:
                d = PDDiagram(xs, base.free_loops)
            except PDError as exc:
                outcomes.append(str(exc))
                non_planar += str(exc) == NOT_PLANAR
            else:
                accepted += 1
                outcomes.append(f"{d.component_count()} {list(d._records)}")
        assert (accepted, non_planar) == (5572, 2649)
        digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
        assert digest == self.DIGEST


class TestTrustedRebuild:
    """Rebuilds, switches and mirrors keep the runs and records they traced
    or switched without re-validating."""

    def test_every_rebuild_of_the_skein_walk_matches_the_validator(
            self, table, monkeypatch):
        built, validated, loops, roots = [], [], [], []
        validate, trusted = diagram_module._validate, diagram_module._trusted
        skein_eval, smooth, reduced = skein._skein_eval, skein._smooth_reduced, skein._reduced

        def counting_validate(crossings, free_loops):
            validated.append(crossings)
            return validate(crossings, free_loops)

        def checked_trusted(*args):
            before = len(validated)
            d = trusted(*args)
            built.append((d, len(validated) > before))
            return d

        def evaluating(d, memo):
            loops.append(d.free_loops)
            try:
                return skein_eval(d, memo)
            finally:
                loops.pop()

        def smoothing(recs, i):
            # the walk builds a node child only; every child is built here,
            # with the free loops of its node, leaves included
            named, parent = smooth(recs, i)
            diagram_module._relabel(named, loops[-1], parent)
            return named, parent

        def reducing_root(recs, parent, bigons):
            # and so is every root that loses crossings, as the walk builds
            # one that is a node
            named, parent = reduced(recs, parent, bigons)
            if len(named) < len(recs):
                diagram_module._relabel(named, roots[-1].free_loops, parent)
            return named, parent

        monkeypatch.setattr(diagram_module, "_validate", counting_validate)
        monkeypatch.setattr(diagram_module, "_trusted", checked_trusted)
        monkeypatch.setattr(skein, "_skein_eval", evaluating)
        monkeypatch.setattr(skein, "_smooth_reduced", smoothing)
        monkeypatch.setattr(skein, "_reduced", reducing_root)
        base = table.diagram("11n63")
        diagrams = [base.insert_full_twists((3, 25), n - 2) for n in range(6)]
        diagrams += random_planar_diagrams(seed=23, count=300, max_crossings=10)
        diagrams += random_planar_diagrams(seed=24, count=300, max_crossings=10)
        diagrams += random_planar_diagrams(seed=25, count=300, max_crossings=10)
        diagrams += random_planar_diagrams(seed=26, count=300, max_crossings=10)
        # no diagram above smooths into a child with a short run; this
        # planar code, one edit from a planar one (one_edit_codes(table, 23,
        # 12, 1)), smooths into a child with a two-edge run over at both its
        # crossings
        diagrams.append(PDDiagram(SHORT_RUN_CHILD))
        assert is_planar(diagrams[-1].crossings)
        built.clear()
        for d in diagrams:
            roots.append(d)
            skein.conway_jones(d)
        walked = len(built)
        mirrors = [mirror(d) for d in diagrams]
        # the walk switches records in place, so switches are built here
        switched = [d.switch_crossing(i) for d in diagrams for i in range(d.n_crossings)]
        # every diagram the walk builds, and every mirror and switch, comes
        # through the shared short-run check
        assert walked > 1000
        assert len(built) == walked + len(mirrors) + len(switched)
        assert len(switched) > 500
        after = walked + len(mirrors)
        assert [id(d) for d in mirrors] == [id(d) for d, _ in built[walked:after]]
        assert [id(d) for d in switched] == [id(d) for d, _ in built[after:]]
        for d, _ in built:
            assert validate(d.crossings, d.free_loops) == (d._runs, d._records)
        # a run of two edges that is under nowhere went through the validator
        assert any(fell_back for _, fell_back in built[:walked])
        assert any(fell_back for _, fell_back in built[walked:after])
        assert any(fell_back for _, fell_back in built[after:])
        assert sum(fell_back for _, fell_back in built) < len(built) // 4
        assert all(m.writhe() == -d.writhe() and m._runs == d._runs
                   for m, d in zip(mirrors, diagrams))

    def test_smoothing_without_short_runs_does_not_validate(self, table, monkeypatch):
        d = table.diagram("9_45")
        calls = []
        validate = diagram_module._validate
        monkeypatch.setattr(diagram_module, "_validate",
                            lambda *args: calls.append(args) or validate(*args))
        smoothed = d.smooth_crossing(10)
        assert calls == []
        assert all(hi - lo > 1 for lo, hi in smoothed._runs)
        assert validate(smoothed.crossings, smoothed.free_loops) == (
            smoothed._runs, smoothed._records)

    @pytest.mark.parametrize("crossings, index", [
        # TestSigns.test_two_edge_tie_break with a curl added: smoothing the
        # curl leaves the two-edge component 7..8, over at both its crossings
        ([(9, 8, 10, 7), (10, 4, 11, 1), (11, 4, 12, 3), (12, 8, 9, 7),
          (5, 1, 6, 2), (6, 3, 5, 2), (13, 13, 14, 14)], 6),
        # a non-planar code whose smoothing is X(1,2,1,2): the one-edge
        # component 2 is over at its only crossing
        ([(1, 4, 2, 3), (2, 4, 3, 1)], 1),
    ])
    def test_short_run_over_everywhere_is_validated(self, monkeypatch, crossings, index):
        d = unchecked(crossings)
        calls = []
        validate = diagram_module._validate
        monkeypatch.setattr(diagram_module, "_validate",
                            lambda *args: calls.append(args) or validate(*args))
        s = d.smooth_crossing(index)
        assert len(calls) == 1
        assert (s._runs, s._records) == validate(s.crossings, s.free_loops)

    @pytest.mark.parametrize("recs, size, message", [
        # edge id 1 consumed twice
        ([_Rec(1, 2, 2, 1, 1), _Rec(1, 3, 4, 3, 1)], 5,
         "an edge id is consumed or produced twice"),
        # edge id 2 produced twice
        ([_Rec(1, 3, 2, 4, 1), _Rec(2, 4, 2, 3, 1)], 5,
         "an edge id is consumed or produced twice"),
        # edge id 5 produced but never consumed: the strand runs off there
        ([_Rec(1, 3, 2, 4, 1), _Rec(2, 4, 5, 3, 1)], 6,
         "strand from edge id 2 does not close on its start"),
        # edge id 3 produced but never consumed
        ([_Rec(1, 2, 2, 3, 1)], 4,
         "strand from edge id 2 does not close on its start"),
    ])
    def test_inconsistent_records_raise(self, recs, size, message):
        with pytest.raises(PDError) as raised:
            _relabel(recs, 0, list(range(size)))
        assert str(raised.value) == f"internal rebuild error: {message}"


class TestDoubleMirror:
    """A double mirror keeps the link, and keeps the code unless a mirror
    sends a short run to the validator (see ``conftest.mirror``)."""

    def test_split_two_edge_component_may_reverse(self):
        d = PDDiagram([(1, 3, 2, 4), (2, 3, 1, 4)])
        mm = mirror(mirror(d))
        assert mm.crossings == ((2, 4, 1, 3), (1, 4, 2, 3))
        assert (mm.writhe(), mm.component_count()) == (d.writhe(), d.component_count())
        assert skein.conway_jones(mm) == skein.conway_jones(d)

    def test_table_twist_family_and_random(self, table, monkeypatch):
        base = table.diagram("11n63")
        diagrams = [base.insert_full_twists((3, 25), n - 2) for n in range(6)]
        diagrams += random_planar_diagrams(seed=23, count=300, max_crossings=10)
        diagrams += [table.diagram(name) for name in TABLE_NAMES]
        calls = []
        validate = diagram_module._validate
        monkeypatch.setattr(diagram_module, "_validate",
                            lambda *args: calls.append(args) or validate(*args))
        fell_back = moved = 0
        for d in diagrams:
            calls.clear()
            mm = mirror(mirror(d))
            if calls:
                fell_back += 1
                moved += mm != d
            else:
                assert mm == d, d.render()
            assert (mm.writhe(), mm.component_count()) == (
                d.writhe(), d.component_count()), d.render()
            assert skein.conway_jones(mm) == skein.conway_jones(d), d.render()
        # here every mirror pair that falls back reverses its short run
        assert (fell_back, moved) == (23, 23)


class TestSwitch:
    def test_unknotting_the_trefoil(self):
        d = parse_pd(TREFOIL).switch_crossing(0)
        assert skein.conway(d) == skein.conway(parse_pd("loops=1"))

    def test_involution(self):
        d = parse_pd(TREFOIL)
        assert d.switch_crossing(1).switch_crossing(1) == d

    def test_writhe_drops_by_twice_the_sign(self):
        for d in random_planar_diagrams(seed=11, count=50, max_crossings=10):
            if not d.n_crossings:
                continue
            i = d.n_crossings // 2
            assert d.switch_crossing(i).writhe() == d.writhe() - 2 * d._records[i].sign

    def test_switched_record_is_the_switch_rule(self):
        # one rule, which the skein walk spells out inline: over and under
        # exchanged, sign negated; the other records are kept.  A run of one
        # or two edges can go to the validator's tie-break (see
        # conftest.mirror), so only diagrams without one are compared
        checked = 0
        for d in random_planar_diagrams(seed=17, count=100, max_crossings=10):
            if any(hi - lo < 2 for lo, hi in d._runs):
                continue
            checked += 1
            for i, r in enumerate(d._records):
                u_in, o_in, u_out, o_out, s = r
                assert r.switched() == (o_in, u_in, o_out, u_out, -s)
                assert r.switched().switched() == r
                recs = list(d._records)
                recs[i] = r.switched()
                assert list(d.switch_crossing(i)._records) == recs
            assert list(mirror(d)._records) == [r.switched() for r in d._records]
        assert checked > 30

    def test_module_crossing_of_table_anchors(self, table):
        # switching the twist-module crossing steps the family down by one
        from knotforge.family import conway_family
        for name, n_prev in (("9_45", 0), ("11n63", 1)):
            stepped = table.diagram(name).switch_crossing(10)
            assert stepped.component_count() == 1
            assert skein.conway(stepped) == conway_family(n_prev)

    def test_validity_on_random_diagrams(self):
        # the switch is not re-validated: the code _trusted writes from the
        # switched records must validate to those records and the kept runs;
        # 1000 random diagrams, each with a crossing, random index
        rng = random.Random(3)
        for d in random_planar_diagrams(seed=13, count=1000, max_crossings=10):
            s = d.switch_crossing(rng.randrange(d.n_crossings))
            assert _validate(s.crossings, s.free_loops) == (s._runs, s._records)


class TestSmooth:
    def test_trefoil_smooths_to_hopf(self):
        d = parse_pd(TREFOIL).smooth_crossing(0)
        assert d.component_count() == 2
        nabla = skein.conway(d)
        assert nabla in (LaurentPoly.monomial(1, 1), LaurentPoly.monomial(-1, 1))

    def test_smoothing_a_curl_gives_free_loop(self):
        # the standalone curl splits into the unknot strand plus the loop,
        # both crossingless
        d = parse_pd("X(1,1,2,2)").smooth_crossing(0)
        assert d.n_crossings == 0
        assert d.free_loops == 2
        assert d.component_count() == 2

    def test_module_crossing_of_l1_gives_j0(self, table):
        smoothed = table.diagram("9_45").smooth_crossing(10)
        assert smoothed.component_count() == 2
        assert skein.conway(smoothed) == LaurentPoly.monomial(1, 3)
        assert skein.jones(smoothed) == skein.jones(table.diagram("L7n2"))

    def test_overlapping_glue_groups_merge(self):
        # both smoothing groups (1, 2) and (2, 1) name the same two edges,
        # which become one loop; these codes are not planar
        assert unchecked([(1, 2, 1, 2)]).smooth_crossing(0) == PDDiagram((), 1)
        # the groups (1, 3) and (3, 2) share the one-edge over-loop 3, and
        # (2, 4) and (4, 1) share 4: either smoothing leaves one curl
        d = unchecked([(1, 3, 2, 3), (2, 4, 1, 4)])
        assert [d.smooth_crossing(i).render() for i in (0, 1)] == ["X(1,2,1,2)"] * 2

    def test_component_count_changes_by_one(self):
        for d in random_planar_diagrams(seed=17, count=100, max_crossings=10):
            if not d.n_crossings:
                continue
            s = d.smooth_crossing(0)
            assert abs(s.component_count() - d.component_count()) == 1

    def test_validity_on_random_diagrams(self):
        # the rebuild does not re-validate: its records must be the
        # validator's
        rng = random.Random(5)
        for d in random_planar_diagrams(seed=19, count=1000, max_crossings=10):
            if d.n_crossings:
                s = d.smooth_crossing(rng.randrange(d.n_crossings))
                assert _validate(s.crossings, s.free_loops) == (s._runs, s._records)


class TestReduceR1:
    def test_single_curl(self):
        d = parse_pd("X(1,1,2,2)").reduce_r1()
        assert d.n_crossings == 0
        assert d.free_loops == 1

    def test_trefoil_unchanged(self):
        d = parse_pd(TREFOIL)
        assert d.reduce_r1() is d

    def test_curl_stacked_on_trefoil(self):
        stacked = parse_pd(STACKED_CURL)
        assert stacked.component_count() == 1
        reduced = stacked.reduce_r1()
        assert reduced.n_crossings == 3
        assert skein.conway(reduced) == skein.conway(parse_pd(TREFOIL))
        assert skein.jones(reduced) == skein.jones(parse_pd(TREFOIL))

    def test_skein_values_invariant(self):
        for d in random_planar_diagrams(seed=23, count=40, max_crossings=10):
            r = d.reduce_r1()
            assert skein.conway(r) == skein.conway(d)
            assert skein.jones(r) == skein.jones(d)

    def test_validity_on_random_diagrams(self):
        for d in random_planar_diagrams(seed=29, count=500, max_crossings=10):
            r = d.reduce_r1()
            assert _validate(r.crossings, r.free_loops) == (r._runs, r._records)

    def test_matches_curl_by_curl_reference(self):
        rng = random.Random(31)
        grown = []
        # grown from the stacked curl and the lone curl by twists and switches
        for _ in range(60):
            d = parse_pd(rng.choice((STACKED_CURL, "X(1,1,2,2)")))
            for _ in range(rng.randrange(1, 4)):
                n_edges = 2 * d.n_crossings
                x, y = rng.sample(range(1, n_edges + 1), 2)
                cand = d.insert_full_twists((x, y), rng.choice((1, -1)))
                if cand.n_crossings <= 12 and is_planar(cand.crossings):
                    d = cand
                if rng.randrange(2):
                    d = d.switch_crossing(rng.randrange(d.n_crossings))
            grown.append(d)
        bases = grown + random_planar_diagrams(seed=37, count=200, max_crossings=10)
        # unreduced smoothings hold the curls the skein walk removes
        inputs = list(bases)
        for d in bases:
            if d.n_crossings:
                inputs.append(d.smooth_crossing(rng.randrange(d.n_crossings)))
        stacked = 0
        for d in inputs:
            r, ref = d.reduce_r1(), reduce_r1_curl_by_curl(d)
            stacked += d.n_crossings - ref.n_crossings >= 2
            assert (r.n_crossings, r.component_count(), r.free_loops, r.writhe()) == (
                ref.n_crossings, ref.component_count(), ref.free_loops, ref.writhe())
            assert skein.conway_jones(r) == skein.conway_jones(ref), d.render()
            assert _validate(r.crossings, r.free_loops) == (r._runs, r._records)
            # the same code, so the skein memo sees the same keys
            assert r == ref, d.render()
        assert stacked > 30


class TestSmoothR1:
    """The walk's smoothing child is the smoothing reduced step by step:
    curls to a fixpoint, then bigons one at a time, until neither is left."""

    @staticmethod
    def _check_children(d):
        """Compare every smoothing child of d with the reference; return the
        number of children, of children that lose two or more curls, and of
        children that lose a bigon."""
        stacked = bigons = 0
        for i in range(d.n_crossings):
            child = reduced_child(d._records, i, d.free_loops)
            smoothed = d.smooth_crossing(i)
            uncurled = smoothed.reduce_r1()
            ref = full_reduce(smoothed)
            stacked += smoothed.n_crossings - uncurled.n_crossings >= 2
            bigons += ref.n_crossings < uncurled.n_crossings
            assert (child.crossings, child.free_loops, child._runs, child._records) == (
                ref.crossings, ref.free_loops, ref._runs, ref._records), (d.render(), i)
        return d.n_crossings, stacked, bigons

    def test_matches_step_by_step_reference(self, table):
        # L_6 and L_7 are the largest twist-family inputs, with the longest
        # curl cascades
        base = table.diagram("11n63")
        diagrams = [base.insert_full_twists((3, 25), n - 2) for n in range(8)]
        diagrams += random_planar_diagrams(seed=41, count=400, max_crossings=10)
        counts = [self._check_children(d) for d in diagrams]
        assert sum(c for c, _, _ in counts) > 1000
        assert sum(s for _, s, _ in counts) > 300
        assert sum(b for _, _, b in counts) > 200

    def test_children_of_diagrams_with_curls(self, table):
        # curls already present before the smoothing: the walk never meets
        # them, but callers of smooth_crossing and reduce_r1 can
        base = table.diagram("11n63")
        bases = [base.insert_full_twists((3, 25), n - 2) for n in range(4)]
        # with_curls splices into edge 1, so the crossingless unknot is left out
        bases += [d for d in map(table.diagram, TABLE_NAMES) if d.n_crossings]
        counts = [self._check_children(with_curls(d, k))
                  for d in bases for k in range(1, 5)]
        assert sum(c for c, _, _ in counts) > 500
        assert sum(s for _, s, _ in counts) > 400
        assert sum(b for _, _, b in counts) > 80

    @pytest.mark.parametrize("crossings, index, code", [
        # each crossing carries a one-edge loop under both ways (u_in = u_out)
        pytest.param([(1, 2, 1, 3), (4, 2, 4, 3)], 0, "X(2,1,2,1)", id="0-X(2,1,2,1)"),
        pytest.param([(1, 2, 1, 3), (4, 2, 4, 3)], 1, "X(1,2,1,2)", id="1-X(1,2,1,2)"),
        # each crossing carries a one-edge loop over both ways (o_in = o_out)
        pytest.param([(1, 3, 2, 3), (2, 4, 1, 4)], 0, "X(1,2,1,2)", id="over-0-X(1,2,1,2)"),
        pytest.param([(1, 3, 2, 3), (2, 4, 1, 4)], 1, "X(1,2,1,2)", id="over-1-X(1,2,1,2)"),
    ])
    def test_pairs_that_share_a_one_edge_loop(self, crossings, index, code):
        # non-planar codes whose smoothings glue two pairs that share an
        # edge, so the four ids make one class
        d = unchecked(crossings)
        assert self._check_children(d) == (2, 0, 0)
        assert reduced_child(d._records, index, d.free_loops).render() == code

    @pytest.mark.parametrize("name, count", [("unknot", 1), ("trefoil", 0),
                                             ("trefoil", -1)])
    def test_with_curls_refuses_what_it_cannot_splice(self, table, name, count):
        d = table.diagram(name)
        with pytest.raises(ValueError, match=re.escape(f"got {d.render()!r} and {count}")):
            with_curls(d, count)


class TestCancelR2:
    def test_under_and_over_groups_sharing_an_edge(self):
        # the first cancellation leaves X(4,3,5,4) X(5,3,6,2) X(1,1,2,6),
        # whose bigon has under group (4, 5, 6) and over group (2, 3, 4):
        # they share edge 4 and merge into one class, leaving one curl
        d = parse_pd("X(6,2,7,1) X(5,10,6,1) X(7,4,8,5) X(8,4,9,3) X(2,10,3,9)")
        assert cancel_adjacent_r2(d) == parse_pd("X(1,1,2,2)")


class TestInsertFullTwists:
    def test_zero_twists_is_identity(self):
        d = parse_pd(TREFOIL)
        assert d.insert_full_twists((2, 4), 0) is d

    def test_coinciding_edges_rejected(self):
        with pytest.raises(PDError):
            parse_pd(TREFOIL).insert_full_twists((2, 2), 1)

    @pytest.mark.parametrize("n", [1.5, True, 1.0])
    def test_non_integer_count_rejected(self, n):
        with pytest.raises(PDError, match="twist count must be an integer"):
            parse_pd(TREFOIL).insert_full_twists((1, 4), n)

    @pytest.mark.parametrize("site", [(1, 2, 3), (1,), 5, None, "14"])
    def test_site_that_is_no_pair_rejected(self, site):
        with pytest.raises(PDError, match="twist site must be a pair of edges"):
            parse_pd(TREFOIL).insert_full_twists(site, 1)

    @pytest.mark.parametrize("site", [(True, 4), (1, 4.0)])
    def test_non_integer_site_edge_rejected(self, site):
        with pytest.raises(PDError, match="not present in diagram"):
            parse_pd(TREFOIL).insert_full_twists(site, 1)

    def test_adds_two_n_crossings_and_stays_planar(self):
        d = parse_pd(TREFOIL)
        for n in (1, -1, 2, -2):
            t = d.insert_full_twists((2, 4), n)
            assert t.n_crossings == 3 + 2 * abs(n)
            assert is_planar(t.crossings)
            assert t.component_count() == 1

    def test_unlink_clasp(self):
        # two strands of a 2-component unlink diagram (hopf with one switch)
        u2 = parse_pd("X(4,1,3,2) X(2,3,1,4)").switch_crossing(0)
        assert skein.conway(u2) == LaurentPoly()
        clasped = u2.insert_full_twists((1, 3), 1)
        assert clasped.n_crossings == 4
        assert clasped.component_count() == 2
        # one full twist links the components once: conway of the hopf link
        assert skein.conway(clasped) == LaurentPoly.monomial(-1, 1)

    def test_twist_knot_family_from_trefoil(self, table):
        d = parse_pd(TREFOIL)
        plus = d.insert_full_twists((2, 4), 1)
        assert skein.jones(plus) == skein.jones(table.diagram("5_2"))
        minus = d.insert_full_twists((2, 4), -1)
        assert skein.conway(minus) == skein.conway(table.diagram("unknot"))

    def test_twist_then_untwist_cancels(self):
        d = parse_pd(TREFOIL)
        twisted = d.insert_full_twists((2, 4), 1)
        # labels are renumbered on rebuild; (4, 6) is the corresponding site
        # carrying the same two strands in the new labeling
        back = full_reduce(twisted.insert_full_twists((4, 6), -1))
        assert back == d

    def test_mirror_handedness_also_planar(self):
        d = parse_pd(TREFOIL)
        for n in (3, -3):
            assert is_planar(d.insert_full_twists((2, 4), n).crossings)

    def test_validity_on_random_diagrams(self):
        rng = random.Random(7)
        for d in random_planar_diagrams(seed=31, count=300, max_crossings=10):
            if not d.n_crossings:
                continue
            x, y = rng.sample(range(1, 2 * d.n_crossings + 1), 2)
            t = d.insert_full_twists((x, y), rng.choice((1, -1, 2)))
            assert _validate(t.crossings, t.free_loops) == (t._runs, t._records)


class TestFront:
    def test_paper_values(self):
        assert tb_from_front(FrontDiagram(writhe=0, cusps=2)) == -1
        assert tb_from_front(FrontDiagram(writhe=1, cusps=2)) == 0
        assert tb_from_front(FrontDiagram(writhe=0, cusps=4)) == -2

    def test_odd_cusps_rejected(self):
        with pytest.raises(ValueError):
            FrontDiagram(writhe=0, cusps=3)

    def test_too_few_cusps_rejected(self):
        with pytest.raises(ValueError):
            FrontDiagram(writhe=0, cusps=0)

    @pytest.mark.parametrize("writhe, cusps, message", [
        (1.5, 2, "writhe must be an integer, got 1.5"),
        (0, 2.0, "cusps must be an integer, got 2.0"),
        (True, 2, "writhe must be an integer, got True"),
        (0, True, "cusps must be an integer, got True"),
        ("1", 2, "writhe must be an integer, got '1'"),
    ])
    def test_non_int_fields_rejected(self, writhe, cusps, message):
        # a float would leave the exact engine through tb_from_front
        with pytest.raises(ValueError) as raised:
            FrontDiagram(writhe=writhe, cusps=cusps)
        assert str(raised.value) == message
