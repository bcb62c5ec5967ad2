"""Conway/Jones skein engine and the independent bracket oracle."""

import hashlib
import random
from itertools import combinations, islice, zip_longest
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from knotforge import diagram as diagram_module
from knotforge import skein as skein_module
from knotforge.diagram import PDDiagram, PDError, parse_pd
from knotforge.family import conway_family, jones_family
from knotforge.laurent import LaurentPoly
from knotforge.skein import (
    BRACKET_ORACLE_BUDGET,
    CrossingBudgetExceeded,
    SkeinMemo,
    _closed_two_braid,
    _resolution_order,
    _sum_chain,
    _two_braid,
    conway,
    conway_jones,
    jones,
    jones_bracket_oracle,
)

from conftest import (
    TABLE_NAMES,
    bracket_state_sum_reference,
    is_planar,
    mirror,
    one_edit_codes,
    one_edit_labels,
    polys,
    random_planar_diagrams,
    unchecked,
    with_curls,
)

F = Fraction
ONE = LaurentPoly.one()
ZERO = LaurentPoly()
Z = LaurentPoly.monomial(1, 1)
V_L0 = LaurentPoly.from_exponents(
    {-1: 1, -2: -1, -3: 2, -4: -1, -5: 1, -6: -1})
TILDE_V = LaurentPoly.from_exponents(
    {-1: 2, -2: -3, -3: 3, -4: -3, -5: 2, -6: -2, -7: 1})
T_INV = LaurentPoly.monomial(1, -1)
DELTA = LaurentPoly.from_exponents({F(1, 2): 1, F(-1, 2): -1})
LOOP = LaurentPoly.from_exponents({F(1, 2): 1, F(-1, 2): 1})


class TestConway:
    def test_unknot(self):
        assert conway(parse_pd("loops=1")) == ONE

    def test_5_2(self, table):
        assert conway(table.diagram("5_2")) == LaurentPoly.from_exponents({0: 1, 2: 2})

    def test_l7n2(self, table):
        assert conway(table.diagram("L7n2")) == LaurentPoly.monomial(1, 3)

    def test_positive_hopf(self, table):
        assert conway(table.diagram("hopf+")) == -Z

    def test_split_links_vanish(self):
        split = PDDiagram(parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)").crossings,
                          free_loops=1)
        assert conway(split) == LaurentPoly()
        assert conway(PDDiagram((), free_loops=3)) == LaurentPoly()

    def test_trefoil(self):
        d = parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)")
        assert conway(d) == LaurentPoly.from_exponents({0: 1, 2: 1})


class TestJones:
    def test_unknot(self):
        assert jones(parse_pd("loops=1")) == ONE

    def test_5_2(self, table):
        assert jones(table.diagram("5_2")) == V_L0

    def test_j0_tilde_identity(self, table):
        v_j0 = jones(table.diagram("L7n2"))
        assert T_INV * DELTA * v_j0 == TILDE_V

    def test_two_component_unlink(self):
        # the engine's convention makes the skein relation of the source
        # give +(t^(1/2) + t^(-1/2)) here; pinned by the Vt identity above
        assert jones(PDDiagram((), free_loops=2)) == LOOP
        # unlink diagram with crossings: hopf with one crossing switched
        u2 = parse_pd("X(4,1,3,2) X(2,3,1,4)").switch_crossing(0)
        assert jones(u2) == LOOP

    def test_k_unlink_power_law(self):
        for k in range(1, 6):
            assert jones(PDDiagram((), free_loops=k)) == LOOP ** (k - 1)

    def test_knots_are_integral(self):
        for d in random_planar_diagrams(seed=31, count=60, max_crossings=10):
            v = jones(d)
            if d.component_count() == 1:
                assert v.is_integral

    def test_moment_constraints_on_knots(self):
        # V(K, t=1) = 1 (moment 0) and first moment 0 for every knot
        for d in random_planar_diagrams(seed=37, count=60, max_crossings=10):
            if d.component_count() != 1:
                continue
            v = jones(d)
            assert v.moment(0) == 1
            assert v.moment(1) == 0


class TestSkeinIdentities:
    def test_conway_relation_at_every_crossing(self):
        for d in random_planar_diagrams(seed=41, count=30, max_crossings=9):
            for i in range(d.n_crossings):
                plus = d if d._records[i].sign > 0 else d.switch_crossing(i)
                minus = d if d._records[i].sign < 0 else d.switch_crossing(i)
                zero = d.smooth_crossing(i)
                assert conway(plus) - conway(minus) + Z * conway(zero) \
                    == LaurentPoly()

    def test_jones_relation_at_every_crossing(self):
        t = LaurentPoly.monomial(1, 1)
        for d in random_planar_diagrams(seed=43, count=30, max_crossings=9):
            for i in range(d.n_crossings):
                plus = d if d._records[i].sign > 0 else d.switch_crossing(i)
                minus = d if d._records[i].sign < 0 else d.switch_crossing(i)
                zero = d.smooth_crossing(i)
                assert t * jones(plus) - T_INV * jones(minus) \
                    == DELTA * jones(zero)

    def test_relabeling_invariance(self, table):
        # rotating the base edge of a component leaves the values unchanged
        d = table.diagram("5_2")
        n_edges = 2 * d.n_crossings
        for shift in (1, 3, 7):
            relab = [tuple((e - 1 + shift) % n_edges + 1 for e in x)
                     for x in d.crossings]
            rotated = PDDiagram(relab)
            assert conway(rotated) == conway(d)
            assert jones(rotated) == jones(d)


def _combine_by_operators(sign, switched, smoothed):
    """The skein relations solved for the resolved crossing, by operators."""
    (nabla_sw, v_sw), (nabla_0, v_0) = switched, smoothed
    t = LaurentPoly.monomial(1, 1)
    if sign > 0:
        return (nabla_sw - Z * nabla_0,
                LaurentPoly.monomial(1, -2) * v_sw + T_INV * DELTA * v_0)
    return (nabla_sw + Z * nabla_0, LaurentPoly.monomial(1, 2) * v_sw - t * DELTA * v_0)


def _sum_chain_by_operators(chain, last):
    """The skein relations nested from the last switch of a chain back to
    the first, by operators."""
    for sign, smoothed in reversed(chain):
        last = _combine_by_operators(sign, last, smoothed)
    return last


_PAIRS = st.tuples(polys, polys)
_CHAINS = st.lists(st.tuples(st.sampled_from((1, -1)), _PAIRS), max_size=6)


class TestSumChain:
    """The walk's one-pass fold of a switch chain equals the skein
    relations applied one crossing at a time."""

    @given(_CHAINS, _PAIRS)
    def test_matches_the_nested_operator_formulas(self, chain, last):
        assert _sum_chain(chain, last) == _sum_chain_by_operators(chain, last)

    @given(_CHAINS, st.sampled_from((1, -1)), _PAIRS, _PAIRS)
    def test_chains_whose_terms_cancel(self, chain, sign, smoothed, last):
        # two crossings of opposite sign with the same smoothing cancel in
        # both sums, and leave the shift of the terms after them as it was
        pair = [(sign, smoothed), (-sign, smoothed)]
        assert _sum_chain(pair, (ZERO, ZERO)) == (ZERO, ZERO)
        assert _sum_chain(pair + chain, last) == _sum_chain(chain, last) == \
            _sum_chain_by_operators(pair + chain, last)
        # a last diagram whose terms cancel every smoothing's
        nabla, v = _sum_chain_by_operators(chain, (ZERO, ZERO))
        total = sum(s for s, _ in chain)
        cancelling = (-nabla, -(LaurentPoly.monomial(1, 2 * total) * v))
        assert _sum_chain(chain, cancelling) == (ZERO, ZERO)


def _one_mod_t2_t_1(v):
    """V mod t^2 + t + 1 as (c0, c1), for c0 + c1 t: exponents are folded
    mod 3, since t^3 = 1 there, then t^2 is replaced by -t - 1."""
    c = [0, 0, 0]
    for k, cf in v.doubled_terms().items():
        assert k % 2 == 0, "a knot's V has integral exponents"
        c[k // 2 % 3] += cf
    return c[0] - c[2], c[1] - c[2]


def _det(m):
    """Exact determinant by cofactor expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def _hoste_cofactor(d):
    """A cofactor of the Laplacian of the linking numbers between the
    components of d, in this package's sign convention.  Free loops are
    components that link nothing."""
    comp = {}
    for c, (lo, hi) in enumerate(d._runs):
        for e in range(lo, hi + 1):
            comp[e] = c
    mu = d.component_count()
    twice_lk = [[0] * mu for _ in range(mu)]
    for r in d._records:
        a, b = comp[r.u_in], comp[r.o_in]
        if a != b:
            twice_lk[a][b] += r.sign
            twice_lk[b][a] += r.sign
    lk = [[x // 2 for x in row] for row in twice_lk]
    laplacian = [[sum(lk[i]) if i == j else -lk[i][j] for j in range(mu)]
                 for i in range(mu)]
    return _det([row[1:] for row in laplacian[1:]])


class TestClassicalIdentities:
    """Checks of the walk that read nothing it computes: V of a knot is 1 mod
    t^2 + t + 1, V of a knot at t = i is (-1) to its Arf invariant, the z^2
    coefficient of nabla mod 2 (Murakami, Math. Ann. 270, 1985), and the
    z^(mu-1) coefficient of nabla is (-1)^(mu-1) times a cofactor of the
    linking-number Laplacian (Hoste, Proc. AMS 95, 1985)."""

    @staticmethod
    def _check(d):
        nabla, v = conway_jones(d)
        mu = d.component_count()
        if mu == 1:
            assert _one_mod_t2_t_1(v) == (1, 0), d.render()
            assert _at_t_equals_i(v) == ((-1) ** nabla.coeff(2), 0), d.render()
        assert nabla.coeff(mu - 1) == (-1) ** (mu - 1) * _hoste_cofactor(d), d.render()
        return mu, nabla.coeff(mu - 1)

    def test_table_twist_family_and_seeded_streams(self, table):
        diagrams = [table.diagram(name) for name in TABLE_NAMES]
        base = table.diagram("11n63")
        diagrams += [base.insert_full_twists((3, 25), n - 2) for n in range(8)]
        for seed in (29, 911, 5):
            diagrams += random_planar_diagrams(seed=seed, count=200, max_crossings=10)
        seen = [self._check(d) for d in diagrams]
        # knots, links, and links whose coefficient is not 0
        assert (sum(mu == 1 for mu, _ in seen), sum(mu > 1 for mu, _ in seen),
                sum(mu > 1 and a != 0 for mu, a in seen)) == (368, 247, 86)

    @pytest.mark.parametrize("n", range(8, 15))
    def test_twist_family_beyond_the_crossing_budget(self, table, monkeypatch, n):
        d = table.diagram("11n63").insert_full_twists((3, 25), n - 2)
        monkeypatch.setattr(skein_module, "DEFAULT_CROSSING_BUDGET", d.n_crossings)
        assert self._check(d) == (1, 1)


class TestConwayJones:
    """The pair from the one walk satisfies |nabla(2i)|^2 = |V(-1)|^2.

    Both sides are the squared determinant of the link: z = 2i is
    t^(1/2) - t^(-1/2) at t^(1/2) = i, where t = -1.  The values are
    Gaussian integers (re, im), evaluated exactly.
    """

    @staticmethod
    def _check(d):
        nabla, v = conway_jones(d)
        det_nabla = _norm(_eval_at_i(nabla, z_at_2i=True))
        det_v = _norm(_eval_at_i(v, z_at_2i=False))
        assert det_nabla == det_v, d.render()
        if d.component_count() == 1:
            assert det_v % 2 == 1, d.render()   # a knot's determinant is odd

    def test_every_table_entry(self, table):
        for name in TABLE_NAMES:
            self._check(table.diagram(name))

    def test_twist_family(self, table):
        base = table.diagram("11n63")
        for n in range(8):
            self._check(base.insert_full_twists((3, 25), n - 2))

    def test_random_diagrams(self):
        for d in random_planar_diagrams(seed=53, count=100, max_crossings=10):
            self._check(d)



class TestConventions:
    """The crossing sign is the negative of the standard one and the skein
    relations are written for it (README "Conventions"): knot V is the
    standard V, and link V is the standard V with t^(1/2) -> -t^(1/2)."""

    def test_shipped_trefoil_is_the_standard_left_trefoil(self, table):
        d = table.diagram("trefoil")
        assert d.writhe() == 3
        assert jones(d) == LaurentPoly.from_exponents({-1: 1, -3: 1, -4: -1})

    def test_hopf_plus_is_the_standard_negative_hopf_link(self, table):
        nabla, v = conway_jones(table.diagram("hopf+"))
        assert nabla == -Z
        assert v == LaurentPoly.from_exponents({F(-1, 2): 1, F(-5, 2): 1})

    def test_jones_at_one_is_two_to_the_components_minus_one(self, table):
        # the standard value is (-2)^(mu - 1)
        diagrams = [table.diagram(name) for name in TABLE_NAMES]
        diagrams += random_planar_diagrams(seed=29, count=200, max_crossings=10)
        links = 0
        for d in diagrams:
            mu = d.component_count()
            links += mu > 1
            assert jones(d).moment(0) == 2 ** (mu - 1), d.render()
        assert links > 50


class TestWalkRebuilds:
    """Each skein child is built with at most one relabel and no validation."""

    def test_children_of_the_twist_family(self, table, monkeypatch):
        calls = {"relabel": 0, "fallback": 0}
        in_trusted = []
        per_switch, per_smoothing = [], []
        relabel, validate, trusted = (
            diagram_module._relabel, diagram_module._validate, diagram_module._trusted)
        switch, smooth = PDDiagram.switch_crossing, skein_module._smooth_reduced

        def counting(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)
            return call

        def checked_validate(*args):
            # the only validation left in the walk is the short-run fallback
            assert in_trusted, "validated outside the short-run fallback"
            calls["fallback"] += 1
            return validate(*args)

        def marked_trusted(*args):
            in_trusted.append(True)
            try:
                return trusted(*args)
            finally:
                in_trusted.pop()

        def counted(fn, log):
            def child(*args):
                before = calls["relabel"]
                d = fn(*args)
                log.append(calls["relabel"] - before)
                return d
            return child

        base = table.diagram("11n63")
        diagrams = [base.insert_full_twists((3, 25), n - 2) for n in range(6)]
        # the roots of L_0 and L_1 lose bigons, so each takes one relabel
        roots = sum(reduce_root(d) is not d for d in diagrams)
        assert roots == 2
        monkeypatch.setattr(diagram_module, "_relabel", counting("relabel", relabel))
        monkeypatch.setattr(diagram_module, "_validate", checked_validate)
        monkeypatch.setattr(diagram_module, "_trusted", marked_trusted)
        monkeypatch.setattr(PDDiagram, "switch_crossing", counted(switch, per_switch))
        monkeypatch.setattr(skein_module, "_smooth_reduced", counted(smooth, per_smoothing))
        for n, d in enumerate(diagrams):
            assert conway_jones(d) == (conway_family(n), jones_family(n))
        # the walk switches its working records, so it builds no switch
        # child; each smoothing child takes one relabel, and none of them
        # has a short run for the validator
        assert per_switch == []
        assert per_smoothing and set(per_smoothing) == {1}
        assert calls["relabel"] == len(per_smoothing) + roots
        assert calls["fallback"] == 0

    @pytest.mark.parametrize("n", [*range(8, 15), 20, 50, 100])
    def test_twist_family_beyond_the_crossing_budget(self, table, monkeypatch, n):
        # L_8 .. L_14 have 25 .. 37 crossings, above DEFAULT_CROSSING_BUDGET,
        # and L_100 has 209.  A smoothing that closes a curl collapses the
        # twist region, the region's other crossings take that child over,
        # a switch is no node of its own, and the Hopf links and trefoils
        # at the bottom are leaves, so the walk visits 3 nodes, all misses
        memos = []

        class CountedMemo(SkeinMemo):
            def __init__(self):
                super().__init__()
                memos.append(self)

        d = table.diagram("11n63").insert_full_twists((3, 25), n - 2)
        monkeypatch.setattr(skein_module, "DEFAULT_CROSSING_BUDGET", d.n_crossings)
        monkeypatch.setattr(skein_module, "SkeinMemo", CountedMemo)
        assert conway_jones(d) == (conway_family(n), jones_family(n))
        assert [(m.hits, m.misses) for m in memos] == [(0, 3)]


def taken_over_children(diagrams, monkeypatch):
    """Walk each diagram and log the children its nodes take over.

    Returns, for each diagram, the pairs (value, fresh) of every crossing
    whose smoothing child a node took over from an earlier crossing of its
    chain instead of building it: the value taken over, and the value of
    the child built afresh in that crossing's state, walked with no
    take-over at all, every crossing being put in a region of its own.  Also returns the number of chain steps whose
    crossing lies in the twist region of the step before, which the walk
    may take over.
    """
    skein_eval = skein_module._skein_eval
    order_of = skein_module._resolution_order
    smooth = skein_module._smooth_reduced
    frames, nodes = [], []

    def evaluating(d, memo):
        frames.append({"d": d, "order": None, "built": [], "values": []})
        try:
            val = skein_eval(d, memo)
        finally:
            frame = frames.pop()
        if frame["order"] is not None:
            nodes.append(frame)
        if frames:
            frames[-1]["values"].append(val)
        return val

    def ordering(recs):
        order = order_of(recs)
        frames[-1]["order"] = order
        return order

    def smoothing(recs, i, loops):
        frames[-1]["built"].append(i)
        return smooth(recs, i, loops)

    logs = []
    with monkeypatch.context() as m:
        m.setattr(skein_module, "_skein_eval", evaluating)
        m.setattr(skein_module, "_resolution_order", ordering)
        m.setattr(skein_module, "_smooth_reduced", smoothing)
        m.setattr(skein_module, "DEFAULT_CROSSING_BUDGET", 10 ** 6)
        for d in diagrams:
            conway_jones(d)
            logs.append(nodes[:])
            nodes.clear()
    out, steps = [], 0
    with monkeypatch.context() as m:
        m.setattr(skein_module, "_resolution_order",
                  lambda recs: [(i, i) for i, _ in order_of(recs)])
        for walk in logs:
            pairs = []
            for node in walk:
                recs, loops = list(node["d"]._records), node["d"].free_loops
                built = dict(zip(node["built"], node["values"]))
                assert len(built) == len(node["built"])
                last = previous = None
                for i, region in node["order"]:
                    steps += region == previous
                    previous = region
                    if i in built:
                        last = built[i]
                    else:
                        fresh = skein_eval(smooth(recs, i, loops), SkeinMemo())
                        pairs.append((last, fresh))
                    recs[i] = recs[i].switched()
            out.append(pairs)
    return out, steps


class TestTwistRegionChildren:
    """A node's crossings of one twist region share one smoothing child."""

    def test_smoothing_children_of_the_twist_family(self, table, monkeypatch):
        # L_n is one long antiparallel twist region on a fixed 11n63 core,
        # so the walk builds a fixed number of children for every n >= 1
        built = []
        smooth = skein_module._smooth_reduced
        monkeypatch.setattr(skein_module, "_smooth_reduced",
                            lambda *args: built.append(None) or smooth(*args))
        monkeypatch.setattr(skein_module, "DEFAULT_CROSSING_BUDGET", 209)
        base = table.diagram("11n63")
        counts = []
        for n in range(1, 101):
            built.clear()
            d = base.insert_full_twists((3, 25), n - 2)
            assert conway_jones(d) == (conway_family(n), jones_family(n))
            counts.append(len(built))
        assert counts == [14] * 100

    def test_children_taken_over_equal_fresh_ones(self, table, monkeypatch):
        base = table.diagram("11n63")
        diagrams = [base.insert_full_twists((3, 25), n - 2) for n in range(15)]
        diagrams += random_planar_diagrams(seed=67, count=200, max_crossings=10)
        diagrams += random_planar_diagrams(seed=911, count=200, max_crossings=10)
        diagrams += [reduce_root(d) for d in islice(one_edit_codes(table, 2401, 10, 1), 600)]
        walks, steps = taken_over_children(diagrams, monkeypatch)
        for d, walk in zip(diagrams, walks):
            for value, fresh in walk:
                assert value == fresh, d.render()
        # L_n takes n - 1 children over for n >= 1 and builds 14
        assert [len(walk) for walk in walks[:15]] == [1, 0, *range(1, 14)]
        # and the seeded streams and fuzzed codes take over children too;
        # every step in the region of the step before takes one over
        assert sum(map(len, walks[15:])) > 100
        assert steps == sum(map(len, walks))

    def test_non_planar_roots_are_refused(self, table):
        # the take-over is an isotopy argument that needs a planar diagram;
        # the walk does not test its root, because no non-planar code gets
        # in: parse_pd refuses every one of the fuzzed stream above
        refused = 0
        for crossings, loops in islice(one_edit_labels(table, 2401, 10, 1), 600):
            if is_planar(crossings):
                continue
            text = f"loops={loops} " + " ".join("X({},{},{},{})".format(*x) for x in crossings)
            with pytest.raises(PDError, match="code is not planar"):
                parse_pd(text)
            refused += 1
        assert refused == 175


class TestFuzzedCodes:
    """The walk on codes one edit away from a planar code of up to 12
    crossings: every code, planar or not, is walked without an internal
    rebuild error, and on planar codes V is the oracle's.  Non-planar codes
    are built past the constructor's planarity test (see conftest.unchecked),
    as a twist at a site whose edges share no face builds one."""

    def test_walk_on_one_edit_fuzzed_codes(self, table):
        walked = planar = large = 0
        for crossings, loops in islice(one_edit_labels(table, 2020, 12, 1), 1700):
            walked += 1
            if not is_planar(crossings):
                # no oracle applies; a PDError "internal rebuild error"
                # would surface here
                conway_jones(unchecked(crossings, loops))
                continue
            d = PDDiagram(crossings, loops)
            planar += 1
            large += d.n_crossings >= 11
            assert jones(d) == jones_bracket_oracle(d), d.render()
        # planar and non-planar codes, and codes of 11-12 crossings, were met
        assert planar >= 1200 and walked - planar > 400 and large > 100

    def test_walk_equals_the_recursion_through_switch_children(self, table):
        # the walk folds each node's switch chain in one loop and takes
        # twist regions' children over; on planar codes it equals the
        # recursion that builds every switch child as a diagram and resolves
        # it on its own.  The take-over is an isotopy argument, so on
        # non-planar codes, which the walk does not test for, the two
        # part on some: those codes' values mean nothing, and PDDiagram
        # refuses them
        walked = planar = differ = 0
        for crossings, loops in islice(one_edit_labels(table, 2401, 10, 1), 860):
            walked += 1
            if is_planar(crossings):
                d = reduce_root(PDDiagram(crossings, loops))
                planar += 1
                assert conway_jones(d) == _walk_by_switch_children(d), d.render()
            else:
                d = reduce_root(unchecked(crossings, loops))
                differ += conway_jones(d) != _walk_by_switch_children(d)
        # (13 of the 259 non-planar codes here)
        assert planar >= 600 and 0 < differ < walked - planar

    def test_roots_that_lose_bigons(self, table):
        # the walk starts from the root with its bigons removed; R2 keeps
        # the link, so V is still the oracle's
        reduced = 0
        for d in islice(one_edit_codes(table, 2902, 12, 1), 800):
            if reduce_root(d).n_crossings < d.reduce_r1().n_crossings:
                reduced += 1
                assert jones(d) == jones_bracket_oracle(d), d.render()
        assert reduced > 200


_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))   # i^0 .. i^3


def _eval_at_i(p, z_at_2i):
    """p at z = 2i (a Conway polynomial) or at t^(1/2) = i (a Jones one).

    Doubled exponent k stands for z^(k/2) or (t^(1/2))^k respectively.
    """
    re = im = 0
    for k, c in p.doubled_terms().items():
        if z_at_2i:
            assert k % 2 == 0 and k >= 0
            m = k // 2
            c *= 2 ** m
        else:
            m = k
        a, b = _I_POWERS[m % 4]
        re += c * a
        im += c * b
    return re, im


def _norm(g):
    return g[0] ** 2 + g[1] ** 2


def _at_t_equals_i(v):
    """A knot's V, whose exponents are integers, at t = i, as (re, im)."""
    re = im = 0
    for k, c in v.doubled_terms().items():
        assert k % 2 == 0
        a, b = _I_POWERS[k // 2 % 4]
        re += c * a
        im += c * b
    return re, im


class TestIntegerCoefficients:
    """Every polynomial the engine and the oracle return lies over Z."""

    @staticmethod
    def _int_coeffs(p):
        return all(type(c) is int for c in p.doubled_terms().values())

    def test_table_and_twist_family(self, table):
        diagrams = [table.diagram(name) for name in TABLE_NAMES]
        base = table.diagram("11n63")
        diagrams += [base.insert_full_twists((3, 25), n - 2) for n in range(8)]
        for d in diagrams:
            nabla, v = conway_jones(d)
            assert self._int_coeffs(nabla) and self._int_coeffs(v), d.render()
            assert self._int_coeffs(conway(d)) and self._int_coeffs(jones(d))
            # the 2^N state sum runs on the table entries, L_2 among them
            if d.n_crossings <= 13:
                assert self._int_coeffs(jones_bracket_oracle(d)), d.render()


class TestOracle:
    def test_unknot(self):
        assert jones_bracket_oracle(parse_pd("loops=1")) == ONE

    def test_5_2(self, table):
        d = table.diagram("5_2")
        assert jones_bracket_oracle(d) == jones(d) == V_L0

    def test_every_table_entry(self, table):
        for name in TABLE_NAMES:
            d = table.diagram(name)
            assert jones_bracket_oracle(d) == jones(d), name

    def test_table_mirrors(self, table):
        for name in TABLE_NAMES:
            d = mirror(table.diagram(name))
            assert jones_bracket_oracle(d) == jones(d), name

    def test_200_random_diagrams(self):
        for d in random_planar_diagrams(seed=47, count=200, max_crossings=10):
            assert jones_bracket_oracle(d) == jones(d), d.render()

    def test_budget(self, table):
        d = table.diagram("5_2")
        while d.n_crossings <= BRACKET_ORACLE_BUDGET:
            d = d.insert_full_twists((1, 4), 1)
        with pytest.raises(CrossingBudgetExceeded):
            jones_bracket_oracle(d)

    # digest of the rendered V, in order, over the 7 table entries, their
    # mirrors, L_0 and 300 random_planar_diagrams(seed=1409), each with 0, 1
    # and 2 extra free loops; 945 values, pinned before merge counting
    DIGEST = "d8dc33719fe8ba5626cf7d42fe165a6a12aaa5226cf80317e064f99ac5be6850"

    def test_oracle_digest(self, table):
        bases = [table.diagram(name) for name in TABLE_NAMES]
        bases += [mirror(table.diagram(name)) for name in TABLE_NAMES]
        bases.append(table.diagram("11n63").insert_full_twists((3, 25), -2))
        bases += random_planar_diagrams(seed=1409, count=300, max_crossings=10)
        values = [jones_bracket_oracle(PDDiagram(d.crossings, d.free_loops + k)).render()
                  for d in bases for k in range(3)]
        assert len(values) == 945
        assert hashlib.sha256("\n".join(values).encode()).hexdigest() == self.DIGEST

    def test_matches_reference_on_fuzzed_codes(self, table):
        # both are state sums over the code alone, so non-planar codes,
        # built past the constructor's planarity test, are checked too
        checked = planar = large = 0
        for crossings, loops in islice(one_edit_labels(table, 1410, 10, 2), 500):
            d = unchecked(crossings, loops)
            checked += 1
            planar += is_planar(crossings)
            large += d.n_crossings >= 9
            assert jones_bracket_oracle(d) == bracket_state_sum_reference(d), d.render()
        # planar and non-planar codes, and codes of 9-10 crossings, were met
        assert 0 < planar < checked and large > 50

    def test_free_loops_multiply_by_the_loop_value(self, table):
        diagrams = [table.diagram(name) for name in TABLE_NAMES]
        diagrams += random_planar_diagrams(seed=1412, count=100, max_crossings=10)
        for d in diagrams:
            v = jones_bracket_oracle(d)
            for k in (1, 2):
                more = PDDiagram(d.crossings, d.free_loops + k)
                assert jones_bracket_oracle(more) == v * LOOP ** k, d.render()


class TestMemoKeys:
    """The labels of every skein child are pinned by the memo keys."""

    # digest of the keys conway_jones stores, in order, over the 7 table
    # entries, L_0..L_7 and 200 random_planar_diagrams(seed=911); 69 keys,
    # since closed 2-braids are leaves and not memoised
    DIGEST = "88dc39adbd968022a6375267d6d829e27026da5d65d43c9a4815770f61f51600"

    def test_memo_key_digest(self, table, monkeypatch):
        keys = []
        put = SkeinMemo.put

        def recording_put(memo, key, value):
            keys.append(repr(key))
            put(memo, key, value)

        monkeypatch.setattr(SkeinMemo, "put", recording_put)
        base = table.diagram("11n63")
        diagrams = [table.diagram(name) for name in TABLE_NAMES]
        diagrams += [base.insert_full_twists((3, 25), n - 2) for n in range(8)]
        diagrams += random_planar_diagrams(seed=911, count=200, max_crossings=10)
        for d in diagrams:
            conway_jones(d)
        assert len(keys) == 69
        assert hashlib.sha256("\n".join(keys).encode()).hexdigest() == self.DIGEST

    def test_twist_family_node_counts(self, table, monkeypatch):
        # nodes are memo lookups, hits and misses, one per diagram that the
        # walk visits and that is no leaf
        memos = []

        class CountedMemo(SkeinMemo):
            def __init__(self):
                super().__init__()
                memos.append(self)

        monkeypatch.setattr(skein_module, "SkeinMemo", CountedMemo)
        base = table.diagram("11n63")
        for n in range(8):
            conway_jones(base.insert_full_twists((3, 25), n - 2))
        # the roots of L_0 and L_1 lose bigons: 17 -> 5 and 15 -> 11 crossings;
        # the crossings of L_n's twist region share one smoothing child
        assert [m.hits + m.misses for m in memos] == [1, 3, 3, 3, 3, 3, 3, 3]


class TestBudgetAndMemo:
    def test_crossing_budget_exceeded(self, table):
        d = table.diagram("5_2")
        while d.n_crossings <= 24:
            d = d.insert_full_twists((1, 4), 1)
        with pytest.raises(CrossingBudgetExceeded):
            conway(d)
        with pytest.raises(CrossingBudgetExceeded):
            jones(d)

    def test_budget_counts_crossings_after_r1(self, table):
        # L_7 (23 crossings) with two curls: 25 crossings, 23 after R1
        d = with_curls(table.diagram("11n63").insert_full_twists((3, 25), 5), 2)
        assert (d.n_crossings, d.reduce_r1().n_crossings) == (25, 23)
        assert conway_jones(d) == (conway_family(7), jones_family(7))
        # a curl is not free when what is left is over the budget
        big = with_curls(table.diagram("5_2").insert_full_twists((1, 4), 10), 1)
        with pytest.raises(CrossingBudgetExceeded, match="25 crossings after reduction"):
            conway_jones(big)

    def test_budget_counts_crossings_after_r2(self, table):
        # L_0 with four more negative full twists: 25 crossings, all kept by
        # R1, and 15 after R2, so the walk takes it
        d = table.diagram("11n63").insert_full_twists((3, 25), -6)
        reduced = reduce_root(d)
        assert is_planar(d.crossings)
        assert (d.reduce_r1().n_crossings, reduced.n_crossings) == (25, 15)
        nabla, v = conway_jones(d)
        assert nabla == LaurentPoly.from_exponents({0: 1, 2: 2, 4: 4})
        assert v == jones_bracket_oracle(reduced)

    def test_budget_refuses_what_reduction_keeps(self, table):
        # L_8: 25 crossings before and after reduction
        d = table.diagram("11n63").insert_full_twists((3, 25), 6)
        assert is_planar(d.crossings)
        assert (d.n_crossings, reduce_root(d).n_crossings) == (25, 25)
        with pytest.raises(CrossingBudgetExceeded, match="25 crossings after reduction"):
            conway_jones(d)

    def test_budget_counts_free_loops(self):
        # after the root's reduction, so loops left by closed strands count
        assert jones(parse_pd("loops=24")) == LOOP ** 23
        for text in ("loops=25", "loops=24 X(1,1,2,2)"):
            with pytest.raises(CrossingBudgetExceeded,
                               match="25 free loops after reduction, budget is 24"):
                conway_jones(parse_pd(text))

    def test_memo_rejects_value_collision(self):
        memo = SkeinMemo()
        memo.put("k", ONE)
        memo.put("k", ONE)  # same value is fine
        with pytest.raises(AssertionError):
            memo.put("k", Z)

    def test_mirror_conjugates_jones(self, table):
        diagrams = [table.diagram(name) for name in TABLE_NAMES]
        diagrams += random_planar_diagrams(seed=59, count=200, max_crossings=10)
        for d in diagrams:
            m = mirror(d)
            nabla, v = conway_jones(d)
            m_nabla, m_v = conway_jones(m)
            # nabla(m)(z) = nabla(d)(-z), whose powers of z have the parity
            # of c - 1, so it flips sign exactly when c is even
            flips = d.component_count() % 2 == 0
            assert m.writhe() == -d.writhe(), d.render()
            assert m_v == _reciprocal_variable(v), d.render()
            assert m_nabla == (-nabla if flips else nabla), d.render()


def _reciprocal_variable(p):
    """p(1/t): every exponent negated."""
    return LaurentPoly({-k: c for k, c in p.doubled_terms().items()})


def _first_violation_by_walk(d):
    """Reference: walk labels 1..2N and return the first crossing whose
    first visit is on its under-strand, else None."""
    heads = {}
    for i, r in enumerate(d._records):
        heads[r.u_in] = (i, "u")
        heads[r.o_in] = (i, "o")
    seen = set()
    for e in range(1, 2 * d.n_crossings + 1):
        i, kind = heads[e]
        if i in seen:
            continue
        seen.add(i)
        if kind == "u":
            return i
    return None


def _curl_closing_by_smoothing(d):
    """Reference: the violation of smallest u_in whose plain smoothing has
    a curl record, else the first violation."""
    recs = d._records
    for i in sorted(range(d.n_crossings), key=lambda i: recs[i].u_in):
        r = recs[i]
        if r.u_in < r.o_in and any(
                s.u_out == s.o_in or s.u_in == s.o_out
                for s in d.smooth_crossing(i)._records):
            return i
    return _first_violation_by_walk(d)


def test_every_node_is_curl_and_bigon_free(table, monkeypatch):
    # the root and every smoothing child are reduced to a fixpoint, so the
    # root's reduction finds nothing to remove at any node the walk visits
    nodes = []
    skein_eval = skein_module._skein_eval

    def recording(d, memo):
        nodes.append(d)
        return skein_eval(d, memo)

    monkeypatch.setattr(skein_module, "_skein_eval", recording)
    base = table.diagram("11n63")
    diagrams = [base.insert_full_twists((3, 25), n - 2) for n in range(8)]
    diagrams += random_planar_diagrams(seed=67, count=200, max_crossings=10)
    diagrams += random_planar_diagrams(seed=68, count=200, max_crossings=10)
    for d in diagrams:
        conway_jones(d)
    assert len(nodes) > 500
    for d in nodes:
        assert reduce_root(d) is d, d.render()


def test_no_walk_reduces_curls_alone(table, monkeypatch):
    # the root and every smoothing child lose curls and bigons in one pass;
    # no walk runs a curl-only pass
    passes = []
    reduced = diagram_module._reduced

    def recording(recs, parent, free_loops, bigons, same=None):
        passes.append(bigons)
        return reduced(recs, parent, free_loops, bigons, same)

    # skein imports the name for the root's reduction
    monkeypatch.setattr(diagram_module, "_reduced", recording)
    monkeypatch.setattr(skein_module, "_reduced", recording)
    base = table.diagram("11n63")
    diagrams = [table.diagram(name) for name in TABLE_NAMES]
    diagrams += [base.insert_full_twists((3, 25), n - 2) for n in range(8)]
    diagrams += islice(one_edit_codes(table, 3001, 12, 1), 480)
    for d in diagrams:
        conway_jones(d)
    assert len(passes) > 1000 and all(passes)


def reduce_root(d):
    """d as conway_jones walks it: its curls and bigons removed to a
    fixpoint."""
    return diagram_module._reduced(d._records, list(range(2 * d.n_crossings + 1)),
                                   d.free_loops, True, d)


def _walk_by_switch_children(d):
    """Reference: (nabla, V) of a d that reduce_root keeps as it is, by the
    skein relation at the first crossing of its resolution order, recursing
    into its switch child, a diagram whose order is computed afresh, and its
    reduced smoothing child, with no memo."""
    order = _resolution_order(d._records)
    if not order:
        c = d.component_count()
        return (ONE if c == 1 else ZERO, LOOP ** (c - 1))
    i, _ = order[0]
    smoothed = diagram_module._smooth_reduced(d._records, i, d.free_loops)
    return _combine_by_operators(d._records[i].sign,
                                 _walk_by_switch_children(d.switch_crossing(i)),
                                 _walk_by_switch_children(smoothed))


def test_resolution_order_is_the_switch_chain(table):
    # down each switch chain: the walk's order resolves first a violation
    # whose smoothing closes a curl, a switch leaves the rest of the order
    # as it was, and the order runs out exactly at a descending diagram
    diagrams = [table.diagram(name) for name in TABLE_NAMES]
    base = table.diagram("11n63")
    diagrams += [base.insert_full_twists((3, 25), n - 2) for n in range(8)]
    diagrams += random_planar_diagrams(seed=61, count=300, max_crossings=10)
    closing = switches = 0
    for d in diagrams:
        d = d.reduce_r1()
        order = _resolution_order(d._records)
        while order:
            i, _ = order[0]
            assert i == _curl_closing_by_smoothing(d), d.render()
            closing += i != _first_violation_by_walk(d)
            d = d.switch_crossing(i)
            order = order[1:]
            assert _resolution_order(d._records) == order, d.render()
            switches += 1
        assert _first_violation_by_walk(d) is None, d.render()
    # the rule, not only its fallback, picks crossings
    assert closing > 0 and switches > 500


def two_braid_records(k, s):
    """The strand records of the closed 2-braid sigma_1^(s k), k >= 1, in a
    fixed labelling: for odd k one run 1..2k, under on its odd labels; for
    even k the runs 1..k and k+1..2k, entering crossing j on j + 1 and
    k + 1 + j, the first run over where j is even."""
    if k % 2:
        n = 2 * k
        return [(u, (u + k - 1) % n + 1, u % n + 1, (u + k) % n + 1, s)
                for u in range(1, n + 1, 2)]
    recs = []
    for j in range(k):
        a, b = j + 1, k + 1 + j
        na, nb = (j + 1) % k + 1, k + 1 + (j + 1) % k
        recs.append((a, b, na, nb, s) if j % 2 else (b, a, nb, na, s))
    return recs


def antiparallel_records(k, s, first_over_at_even):
    """The records of the closed twist of k crossings (k even) whose second
    run meets the crossings in the opposite order: the (2, k) torus link
    with one component reversed, over/under alternating along each run."""
    recs = []
    for j in range(k):
        a, na = j + 1, (j + 1) % k + 1
        b, nb = 2 * k - j, k + 1 + (k - j) % k
        over = (j % 2 == 0) == first_over_at_even
        recs.append((b, a, nb, na, s) if over else (a, b, na, nb, s))
    return recs


def two_braid_label_maps(k):
    """Every relabelling of a closed 2-braid's code: a rotation of each run
    and, for two runs, a choice of which run comes first."""
    if k % 2:
        n = 2 * k
        return [[0] + [(e - 1 + r) % n + 1 for e in range(1, n + 1)] for r in range(n)]
    maps = []
    for r1 in range(k):
        for r2 in range(k):
            for swap in (0, k):
                first = [(e - 1 + r1) % k + 1 + swap for e in range(1, k + 1)]
                second = [(e + r2) % k + 1 + k - swap for e in range(k)]
                maps.append([0] + first + second)
    return maps


def code_of(recs):
    """The PD code of strand records: a positive crossing has its over-strand
    entering at slot b."""
    return [(a, b, c, d) if s > 0 else (a, d, c, b) for a, b, c, d, s in recs]


def two_braid_reference(d):
    """Reference: (k, s) when d's records are those of sigma_1^(s k) under
    some relabelling, else None, by trying every relabelling."""
    k = d.n_crossings
    have = {tuple(r) for r in d._records}
    for s in (1, -1):
        base = two_braid_records(k, s)
        for f in two_braid_label_maps(k):
            if {(f[a], f[b], f[c], f[e], sign) for a, b, c, e, sign in base} == have:
                return k, s
    return None


class TestClosedTwoBraidLeaf:
    """Closed 2-braids sigma_1^(s k) with free loops are leaves of the walk:
    their value comes from the T(2, k) skein recurrence, without children,
    and equals the recursion through switch children and the oracle."""

    @staticmethod
    def _relabelled(k, s, rng):
        f = rng.choice(two_braid_label_maps(k))
        code = code_of([(f[a], f[b], f[c], f[e], sign)
                        for a, b, c, e, sign in two_braid_records(k, s)])
        rng.shuffle(code)
        return code

    def test_hopf_link_and_trefoil(self, table):
        hopf, trefoil = table.diagram("hopf+"), table.diagram("trefoil")
        assert (_closed_two_braid(hopf), _closed_two_braid(trefoil)) == (
            (2, 1), (3, 1))
        assert _two_braid(2, 1, 0) == (
            -Z, LaurentPoly.from_exponents({F(-1, 2): 1, F(-5, 2): 1}))
        assert _two_braid(3, 1, 0) == (
            LaurentPoly.from_exponents({0: 1, 2: 1}),
            LaurentPoly.from_exponents({-1: 1, -3: 1, -4: -1}))

    def test_leaves_equal_the_recursion_and_the_oracle(self):
        rng = random.Random(3201)
        checked = 0
        for k in range(2, 13):
            for s in (1, -1):
                for loops in range(3):
                    for _ in range(2):
                        d = PDDiagram(self._relabelled(k, s, rng), loops)
                        assert is_planar(d.crossings) and reduce_root(d) is d
                        assert _closed_two_braid(d) == two_braid_reference(d) == (k, s)
                        value = conway_jones(d)
                        assert value == _walk_by_switch_children(d), d.render()
                        assert value[1] == jones_bracket_oracle(d), d.render()
                        checked += 1
        assert checked == 11 * 2 * 3 * 2

    def test_leaves_build_no_children(self, monkeypatch):
        built = []
        smooth = skein_module._smooth_reduced
        monkeypatch.setattr(skein_module, "_smooth_reduced",
                            lambda *args: built.append(args) or smooth(*args))
        for k in range(2, 9):
            conway_jones(PDDiagram(code_of(two_braid_records(k, -1)), 1))
        assert built == []

    def test_antiparallel_twists_miss_the_leaf(self):
        # every sign and over pattern gives a planar code, or PDDiagram
        # would refuse it
        checked = 0
        for k in range(4, 13, 2):
            for s in (1, -1):
                for first_over_at_even in (True, False):
                    d = PDDiagram(code_of(antiparallel_records(k, s, first_over_at_even)))
                    assert reduce_root(d) is d
                    assert _closed_two_braid(d) is None and two_braid_reference(d) is None
                    value = conway_jones(d)
                    assert value == _walk_by_switch_children(d), d.render()
                    assert value[1] == jones_bracket_oracle(d), d.render()
                    checked += 1
        assert checked == 20

    def test_split_unions_miss_the_leaf(self):
        # two Hopf links, two trefoils and Hopf + trefoil, each piece
        # relabelled and the second's labels shifted past the first's, with
        # the two pieces' crossings interleaved in the code: the walk from
        # crossing 0 stays in one piece and comes back early
        rng = random.Random(3401)
        checked = 0
        for k1, k2 in ((2, 2), (3, 3), (2, 3), (3, 2)):
            for s1 in (1, -1):
                for s2 in (1, -1):
                    first = self._relabelled(k1, s1, rng)
                    second = [tuple(e + 2 * k1 for e in x)
                              for x in self._relabelled(k2, s2, rng)]
                    code = [x for pair in zip_longest(first, second) for x in pair if x]
                    loops = checked % 2
                    d = PDDiagram(code, loops)
                    # a Hopf link has two components, a trefoil one
                    assert d.component_count() == 4 - k1 % 2 - k2 % 2 + loops
                    assert reduce_root(d) is d
                    assert _closed_two_braid(d) is None and two_braid_reference(d) is None
                    value = conway_jones(d)
                    assert value == _walk_by_switch_children(d), d.render()
                    assert value[1] == jones_bracket_oracle(d), d.render()
                    checked += 1
        assert checked == 16

    def test_one_edit_neighbours_miss_the_leaf(self):
        # every code one slot swap away from a relabelled closed 2-braid of
        # 2..8 crossings that validates (a label edit never does)
        rng = random.Random(3202)
        neighbours = reduced_hits = 0
        for k in range(2, 9):
            for s in (1, -1):
                base = [list(x) for x in self._relabelled(k, s, rng)]
                slots = [(i, j) for i in range(k) for j in range(4)]
                for (i, j), (m, n) in combinations(slots, 2):
                    if base[i][j] == base[m][n]:
                        continue
                    xs = [list(x) for x in base]
                    xs[i][j], xs[m][n] = xs[m][n], xs[i][j]
                    try:
                        d = PDDiagram(xs, (i + m) % 2)
                    except PDError:
                        continue
                    neighbours += 1
                    assert _closed_two_braid(d) is None and two_braid_reference(d) is None
                    r = reduce_root(d)
                    if r.n_crossings:
                        assert _closed_two_braid(r) == two_braid_reference(r), r.render()
                        reduced_hits += _closed_two_braid(r) is not None
                        assert conway_jones(d) == _walk_by_switch_children(r), d.render()
        # some neighbours reduce to a shorter closed 2-braid, which is a leaf
        assert (neighbours, reduced_hits) == (102, 28)
