"""PD diagrams: parsing, crossing surgeries, twist insertion, fronts."""

import hashlib
import random

import pytest

from knotforge.diagram import (
    FrontDiagram,
    PDDiagram,
    PDError,
    _rebuild,
    parse_pd,
    tb_from_front,
)
from knotforge import skein

from conftest import is_planar, random_planar_diagrams

TREFOIL = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"


def cancel_adjacent_r2(d: PDDiagram) -> PDDiagram:
    """Cancel immediately adjacent opposite-sign crossing pairs, to a fixpoint.

    Detects pairs where one strand passes under the other at two consecutive
    crossings with opposite signs (a Reidemeister-II bigon) and removes them.
    """
    while True:
        recs = d.records()
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
        d = _rebuild(keep, d.free_loops, (under, over))


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

    def test_round_trip_on_table(self, table):
        for name in table.names():
            d = table.diagram(name)
            assert parse_pd(d.render()) == d

    def test_round_trip_on_random(self):
        for d in random_planar_diagrams(seed=7, count=100, max_crossings=12):
            assert parse_pd(d.render()) == d


def _signs(d):
    return tuple(d.crossing_sign(i) for i in range(d.n_crossings))


class TestSigns:
    def test_trefoil_all_positive(self):
        d = parse_pd(TREFOIL)
        assert _signs(d) == (1, 1, 1)
        assert d.writhe() == 3

    def test_mirror_negates(self, table):
        d = parse_pd(TREFOIL).mirror()
        assert _signs(d) == (-1, -1, -1)
        assert d.writhe() == -3
        hopf = table.diagram("hopf+").mirror()
        assert _signs(hopf) == (-1, -1)
        assert hopf.writhe() == -2

    def test_curl_sign_is_writhe(self):
        d = parse_pd("X(1,1,2,2)")
        assert d.writhe() == d.crossing_sign(0)

    def test_hopf_positive(self, table):
        d = table.diagram("hopf+")
        assert d.component_count() == 2
        assert d.writhe() == 2

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            parse_pd(TREFOIL).crossing_sign(3)

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
        assert skein.conway(d).is_zero
        assert skein.jones(d) == skein.jones_bracket_oracle(d)


class TestRecords:
    def test_records_are_a_fresh_list(self, table):
        d = table.diagram("5_2")
        before = d.records()
        d.records().pop()
        assert d.records() == before
        assert len(before) == d.n_crossings


class TestValidatorOutcomes:
    # SHA-256 of the outcomes below: any change to a check, a message, the
    # order of the checks or the records of an accepted code changes it
    DIGEST = "47147951442bf51a57c311cac37d843b83fb72726737654b90f59292f01e1efe"

    def test_one_edit_fuzz_digest(self, table):
        bases = [table.diagram(name) for name in table.names()]
        bases += random_planar_diagrams(seed=3, count=300, max_crossings=10)
        bases = [d for d in bases if d.n_crossings]
        rng = random.Random(2014)
        outcomes = []
        accepted = 0
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
            else:
                accepted += 1
                outcomes.append(f"{d.component_count()} {d.records()}")
        assert accepted == 8221
        digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
        assert digest == self.DIGEST


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
            assert d.switch_crossing(i).writhe() == d.writhe() - 2 * d.crossing_sign(i)

    def test_module_crossing_of_table_anchors(self, table):
        # switching the twist-module crossing steps the family down by one
        from knotforge.family import conway_family
        for name, n_prev in (("9_45", 0), ("11n63", 1)):
            stepped = table.diagram(name).switch_crossing(10)
            assert stepped.component_count() == 1
            assert skein.conway(stepped) == conway_family(n_prev)

    def test_validity_on_random_diagrams(self):
        # constructor re-validates; 1000 random diagrams, random index
        import random
        rng = random.Random(3)
        for d in random_planar_diagrams(seed=13, count=1000, max_crossings=10):
            if d.n_crossings:
                d.switch_crossing(rng.randrange(d.n_crossings))


class TestSmooth:
    def test_trefoil_smooths_to_hopf(self):
        d = parse_pd(TREFOIL).smooth_crossing(0)
        assert d.component_count() == 2
        nabla = skein.conway(d)
        from knotforge.laurent import LaurentPoly
        assert nabla in (LaurentPoly.monomial(1, 1), LaurentPoly.monomial(-1, 1))

    def test_smoothing_a_curl_gives_free_loop(self):
        # the standalone curl splits into the unknot strand plus the loop,
        # both crossingless
        d = parse_pd("X(1,1,2,2)").smooth_crossing(0)
        assert d.n_crossings == 0
        assert d.free_loops == 2
        assert d.component_count() == 2

    def test_module_crossing_of_l1_gives_j0(self, table):
        from knotforge.laurent import LaurentPoly
        smoothed = table.diagram("9_45").smooth_crossing(10)
        assert smoothed.component_count() == 2
        assert skein.conway(smoothed) == LaurentPoly.monomial(1, 3)
        assert skein.jones(smoothed) == skein.jones(table.diagram("L7n2"))

    def test_overlapping_glue_groups_merge(self):
        # both smoothing groups (1, 2) and (2, 1) name the same two edges,
        # which become one loop
        assert PDDiagram([(1, 2, 1, 2)]).smooth_crossing(0) == PDDiagram((), 1)

    def test_component_count_changes_by_one(self):
        for d in random_planar_diagrams(seed=17, count=100, max_crossings=10):
            if not d.n_crossings:
                continue
            s = d.smooth_crossing(0)
            assert abs(s.component_count() - d.component_count()) == 1

    def test_validity_on_random_diagrams(self):
        import random
        rng = random.Random(5)
        for d in random_planar_diagrams(seed=19, count=1000, max_crossings=10):
            if d.n_crossings:
                d.smooth_crossing(rng.randrange(d.n_crossings))


class TestReduceR1:
    def test_single_curl(self):
        d = parse_pd("X(1,1,2,2)").reduce_r1()
        assert d.n_crossings == 0
        assert d.free_loops == 1

    def test_trefoil_unchanged(self):
        d = parse_pd(TREFOIL)
        assert d.reduce_r1() == d

    def test_curl_stacked_on_trefoil(self):
        # 4-crossing code: trefoil with an extra positive curl spliced into
        # edge 1 (edge 1 split into arcs 1, 2, 3; old labels >= 2 shifted by 2)
        stacked = parse_pd("X(1,2,2,3) X(3,6,4,7) X(5,8,6,1) X(7,4,8,5)")
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

    @pytest.mark.parametrize("site", [(True, 4), (1, 4.0)])
    def test_non_integer_site_edge_rejected(self, site):
        with pytest.raises(PDError, match="not present in diagram"):
            parse_pd(TREFOIL).insert_full_twists(site, 1)

    def test_adds_two_n_crossings_and_stays_planar(self):
        d = parse_pd(TREFOIL)
        for n in (1, -1, 2, -2):
            t = d.insert_full_twists((2, 4), n)
            assert t.n_crossings == 3 + 2 * abs(n)
            assert is_planar(t)
            assert t.component_count() == 1

    def test_unlink_clasp(self):
        from knotforge.laurent import LaurentPoly
        # two strands of a 2-component unlink diagram (hopf with one switch)
        u2 = parse_pd("X(4,1,3,2) X(2,3,1,4)").switch_crossing(0)
        assert skein.conway(u2).is_zero
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
            assert is_planar(d.insert_full_twists((2, 4), n))


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
