"""Classical and chromatic index values, extrema, and report invariants."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import sys
import time
import tracemalloc
from array import array
from contextlib import contextmanager
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chromatic_zagreb import coloring, indices
from chromatic_zagreb.coloring import (
    Coloring,
    Meter,
    _iter_chi_partitions,
    _min_coloring,
    chromatic_number,
    enumerate_min_colorings,
    is_proper,
)
from chromatic_zagreb.families import complete_graph_forms
from chromatic_zagreb.generators import generate, parse_family_spec
from chromatic_zagreb.graph import Graph
from chromatic_zagreb.indices import (
    EXTREMA_KEYS,
    ImproperColoringError,
    chromatic_extrema,
    chromatic_m1,
    chromatic_m2,
    chromatic_m3,
    classical_m1,
    classical_m2,
    classical_m3,
    full_report,
    _sweep,
)

from conftest import complete, cycle, naive_extrema, naive_extrema_witnesses, path, star

# sha256 of the JSON list of the extrema-stream reports with witnesses
EXTREMA_STREAM_SHA256 = "f7b450585850feb149a34716785da50ed6f5324e60bc0cdade095e9cb4c13df6"
# the same under permutation semantics
PERMUTATION_STREAM_SHA256 = "74b1a7127041903c79cf9462a6366057cbd7a5f44bbd65b4e5daba6ffb4f482a"


@st.composite
def graphs(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [p for p, keep in zip(pairs, picks) if keep])


def _reported(g, semantics):
    """Values and witnesses of full_report, by report key."""
    r = full_report(g, semantics)
    return {key: (r.value(key), r.witnesses[key].assignment) for key in EXTREMA_KEYS}


def _by_key(results):
    """Extrema results by report key, as (value, witness assignment)."""
    return {
        f"cm{k}_{end}": (value, witness)
        for k, (lo, lo_w, hi, hi_w) in results.items()
        for end, value, witness in (("min", lo, lo_w), ("max", hi, hi_w))
    }


def _swept(g, semantics):
    """Values and least witnesses from the coloring-stream sweep, by report key."""
    return _by_key(_sweep(g, (c.assignment for c in enumerate_min_colorings(g, semantics))))


def _least_extrema(score, ell):
    """(min, labels, max, labels) of score over all ell! labelings, each
    with the least labeling attaining it: the first, in lexicographic order."""
    labelings = list(permutations(range(1, ell + 1)))
    scores = [score(p) for p in labelings]
    lo, hi = min(scores), max(scores)
    return lo, labelings[scores.index(lo)], hi, labelings[scores.index(hi)]


def _matrix(ell, between):
    """A quotient's symmetric edge-count matrix, as indices._quotient
    builds it, from the counts of its class pairs a < b."""
    counts = [[0] * ell for _ in range(ell)]
    for (a, b), e in between.items():
        counts[a][b] = counts[b][a] = e
    return counts


def _pairs(counts):
    """(a, b, e_ab) for the class pairs a < b of an edge-count matrix."""
    return [(a, b, row[b]) for a, row in enumerate(counts) for b in range(a + 1, len(row))]


def _products(counts):
    """The cm2 sum of a quotient labeling, sum e_ab p_a p_b."""
    pairs = _pairs(counts)
    return lambda p: sum(e * p[a] * p[b] for a, b, e in pairs)


@contextmanager
def recording_walk():
    """The labelings the cm2 walk scores, in the order it scores them.

    The walk gives its twin groups of two or more classes label sets
    (``indices._group_label_sets``) and, per label set, the twin-free
    classes every permutation of the labels left (``indices.permutations``);
    each such pair is one labeling.
    """
    scored = []
    current = []  # while a walk runs: its group classes, its twin-free classes, their labels
    group_label_sets = indices._group_label_sets

    def label_sets(groups, labels):
        tied = [a for group in groups for a in group]
        single = [a for a in range(len(labels)) if a not in tied]
        for t, left in group_label_sets(groups, labels):
            current[:] = [tied, single, t]
            yield t, left
        current.clear()

    def recorded_permutations(items, *r):
        for q in permutations(items, *r):
            if current:
                tied, single, t = current
                p = [0] * (len(tied) + len(single))
                for a, x in zip(tied + single, t + q):
                    p[a] = x
                scored.append(tuple(p))
            yield q

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(indices, "_group_label_sets", label_sets)
        mp.setattr(indices, "permutations", recorded_permutations)
        yield scored


@pytest.fixture
def walked():
    with recording_walk() as scored:
        yield scored


class TestClassical:
    @pytest.mark.parametrize("g,m1,m2,m3", [
        (complete(3), 12, 12, 0),
        (path(3), 6, 4, 2),
        (complete(4), 36, 54, 0),
        (complete(2), 2, 1, 0),
        (star(5), 20, 16, 12),  # K_{1,4}: center degree 4, four edges |4-1|
        (Graph(1), 0, 0, 0),
    ])
    def test_values(self, g, m1, m2, m3):
        assert classical_m1(g) == m1
        assert classical_m2(g) == m2
        assert classical_m3(g) == m3

    def test_complete_m3_zero_for_all_orders(self):
        for n in range(2, 9):
            assert classical_m3(complete(n)) == 0


class TestChromaticPerColoring:
    def test_k3(self):
        c = Coloring((1, 2, 3), 3)
        assert chromatic_m1(complete(3), c) == 14
        assert chromatic_m2(complete(3), c) == 11
        assert chromatic_m3(complete(3), c) == 4

    def test_p3_both_labelings(self):
        g = path(3)
        lo = Coloring((1, 2, 1), 2)
        hi = Coloring((2, 1, 2), 2)
        assert chromatic_m1(g, lo) == 6
        assert chromatic_m1(g, hi) == 9
        assert chromatic_m3(g, lo) == chromatic_m3(g, hi) == 2

    def test_k2_and_k4(self):
        assert chromatic_m2(complete(2), Coloring((1, 2), 2)) == 2
        assert chromatic_m3(complete(2), Coloring((1, 2), 2)) == 1
        assert chromatic_m1(complete(4), Coloring((1, 2, 3, 4), 4)) == 30
        assert chromatic_m2(complete(4), Coloring((1, 2, 3, 4), 4)) == 35

    def test_improper_rejected(self):
        with pytest.raises(ImproperColoringError):
            chromatic_m1(complete(2), Coloring((1, 1), 1))
        with pytest.raises(ImproperColoringError):
            chromatic_m2(path(3), Coloring((1, 1, 2), 2))

    @given(graphs())
    @settings(max_examples=30, deadline=None)
    def test_m3_invariant_under_label_reversal(self, g):
        for c in enumerate_min_colorings(g, "all"):
            ell = c.palette_size
            flipped = Coloring(tuple(ell + 1 - s for s in c.assignment), ell)
            assert chromatic_m3(g, c) == chromatic_m3(g, flipped)


class TestExtrema:
    def test_star5(self):
        r = chromatic_extrema(star(5), 1)
        assert (r.minimum, r.maximum) == (8, 17)
        assert r.status == "exact" and r.semantics_used == "all"

    def test_tree_cm2_constant(self):
        for n in range(2, 9):
            r = chromatic_extrema(path(n), 2)
            assert r.minimum == r.maximum == 2 * (n - 1)

    def test_c5(self):
        r = chromatic_extrema(cycle(5), 1)
        assert (r.minimum, r.maximum) == (19, 27)

    def test_witness_is_lexicographically_least(self):
        r = chromatic_extrema(path(3), 1)
        assert r.min_witness.assignment == (1, 2, 1)
        assert r.max_witness.assignment == (2, 1, 2)

    def test_paper_compat_defaults(self):
        r = chromatic_extrema(Graph(1), 3, paper_compat=True)
        assert r.minimum == r.maximum == 1 and r.min_witness is None
        r = chromatic_extrema(Graph(1), 3, paper_compat=False)
        assert r.minimum == r.maximum == 0
        r = chromatic_extrema(Graph(1), 2, paper_compat=True)
        assert r.minimum == 0  # the index-2 default equals the raw empty sum

    def test_bad_index(self):
        with pytest.raises(ValueError):
            chromatic_extrema(path(3), 4)

    @given(graphs())
    @settings(max_examples=50, deadline=None)
    def test_matches_naive_oracle(self, g):
        truth = naive_extrema(g)
        for idx in (1, 2, 3):
            r = chromatic_extrema(g, idx)
            assert (r.minimum, r.maximum) == truth[idx]

    @given(graphs(max_n=5))
    @settings(max_examples=30, deadline=None)
    def test_reversal_of_min_witness_attains_max_under_permutation(self, g):
        r = chromatic_extrema(g, 1, semantics="permutation")
        ell = r.min_witness.palette_size
        flipped = Coloring(tuple(ell + 1 - s for s in r.min_witness.assignment), ell)
        assert chromatic_m1(g, flipped) == r.maximum

    def test_complete_graphs_cm1_constant_exhaustively(self):
        for n in range(1, 9):
            g = complete(n)
            expected = complete_graph_forms(n).cm1
            values = {chromatic_m1(g, c) for c in enumerate_min_colorings(g, "permutation")}
            assert values == {expected}

    def test_budget_fallback_flags_bounds(self, monkeypatch):
        # a cap that holds the chi search (14 units) and the canonical
        # partition (25 units), but not its 16 quotient edges as well
        g = _cycle5_join_k2()
        monkeypatch.setattr(coloring, "WORK_CAP", 30)
        r = chromatic_extrema(g, 1)
        assert r.status == "bounds_only"
        assert r.semantics_used == "permutation"
        # fallback values are genuine coloring values, hence valid bounds
        monkeypatch.undo()
        exact = chromatic_extrema(g, 1)
        assert exact.minimum <= r.minimum and r.maximum <= exact.maximum
        assert is_proper(g, r.min_witness)

    def test_budget_cap_counts_work_units(self, monkeypatch):
        # 5 chi-partitions (those of the 5-cycle): the walk's 7 vertices,
        # its 15 nodes and 7 units per partition, then per quotient its 16
        # edges and its 5! packed labelings, which give cm2 and cm3 at once.
        # The chi search takes the call's first 14 units. These caps are
        # below the walk's share, 5**6 * 7 units, so the share is the rest
        # of the meter and a walk past it leaves the DP no units
        g = _cycle5_join_k2()
        meter = Meter()
        assert len(list(_iter_chi_partitions(g, 5, meter))) == 5
        assert coloring.WORK_CAP - meter.left == 7 + 15 + 5 * 7
        indices._sweep_partitions(g, 5, _iter_chi_partitions(g, 5), meter)
        assert coloring.WORK_CAP - meter.left == 737 == 57 + 5 * (16 + 120)
        meter = Meter()
        _min_coloring(g, meter)
        assert coloring.WORK_CAP - meter.left == 14
        monkeypatch.setattr(coloring, "WORK_CAP", 751)
        at_cap = chromatic_extrema(g, 1)
        assert at_cap.status == "exact" and at_cap.semantics_used == "all"
        monkeypatch.setattr(coloring, "WORK_CAP", 750)
        below = chromatic_extrema(g, 1)
        assert below.status == "bounds_only" and below.semantics_used == "permutation"

    @pytest.mark.parametrize("n", [17, 20])
    def test_large_cliques_are_exact(self, n, meters):
        # one chi-partition with one twin-ordered labeling; pricing each
        # chi-partition at l! colorings reported them bounds_only
        r = full_report(complete(n))
        forms = complete_graph_forms(n)
        assert r.status == "exact" and r.semantics_used == "all"
        assert r.cm1_min == r.cm1_max == forms.cm1
        assert r.cm2_min == r.cm2_max == forms.cm2
        assert r.cm3_min == r.cm3_max == forms.cm3
        # the call's meter gives the walk its share and keeps the rest
        call, walk = meters
        assert walk.spent < 300

    @pytest.mark.parametrize("spec", ["multipartite:5,5,5,5", "multipartite:2,3,4,4,5",
                                      "multipartite:20,20,20"])
    def test_one_partition_multipartite_is_exact(self, spec):
        # a complete multipartite graph has one chi-partition, the canonical
        # one; in index order the walk met its share on 20,20,20 before that
        # one, in DSATUR order it takes one node per vertex
        g = generate(parse_family_spec(spec))
        r = full_report(g)
        assert r.status == "exact" and r.semantics_used == "all"
        assert r.to_json_dict(True) | {"semantics_used": "permutation"} == \
            full_report(g, "permutation").to_json_dict(True)

    @pytest.mark.parametrize("semantics", ["all", "permutation"])
    def test_wide_multipartite_reports_bounds_quickly(self, semantics):
        # 55 vertices in ten classes: the canonical partition's
        # k-colorability checks once took about 2 s of the report. Its
        # 10! cm2 labelings are refused, so cm2 takes the best labeling in
        # hand, while cm1 (a sort) and cm3 (the cut DP) stay exact
        g = generate(parse_family_spec("multipartite:" + ",".join(map(str, range(1, 11)))))
        start = time.perf_counter()
        r = full_report(g, semantics)
        assert time.perf_counter() - start < 1
        assert r.status == "bounds_only"
        assert (r.cm1_min, r.cm1_max) == (1210, 3025)
        assert (r.cm2_min, r.cm2_max) == (21516, 61446)
        assert (r.cm3_min, r.cm3_max) == (3662, 5882)

    def test_clique_scores_one_labeling(self, walked):
        # all ten classes of K10 are twins; 10! labelings took 4.7 s
        r = full_report(complete(10))
        assert r.status == "exact" and r.semantics_used == "all"
        assert walked == [tuple(range(1, 11))]
        assert r.cm1_min == r.cm1_max == 385


def _cycle5_join_k2() -> Graph:
    """C5 joined to K2: chi 5, and a greedy frontier of width 6, so the
    partition walk's share of the meter, 5**6 * 7 units, holds all of its
    751 units (``test_budget_cap_counts_work_units``)."""
    edges = [*cycle(5).edges, *[(v, w) for v in range(5) for w in (5, 6)], (5, 6)]
    g = Graph(7, edges)
    assert indices._greedy_order(g)[1] == 6
    assert 5 ** 6 * 7 > 751
    return g


def _keyed(g, ell):
    """The frontier DP's extrema over its greedy order, by report key."""
    return _by_key(indices._frontier_extrema(g, ell, indices._greedy_order(g)[0], Meter()))


@st.composite
def renumbered_graphs(draw, max_n=8):
    """Random graphs under a random numbering of their vertices, so that
    the greedy order is seldom the identity order."""
    g = draw(graphs(max_n))
    name = draw(st.permutations(range(g.order)))
    return Graph(g.order, [(name[u], name[v]) for u, v in g.edges])


THORN_C5 = generate(parse_family_spec("thorn(cycle:5;1)"))


class TestFrontierDP:
    @given(renumbered_graphs())
    @example(Graph(8))
    @example(complete(5))
    @example(Graph(8, [(0, 7), (1, 2), (3, 4), (4, 5), (3, 5)]))
    @example(THORN_C5)  # the order places each pendant after its base vertex
    @example(Graph(6, [(0, 5), (5, 1), (1, 4), (4, 2), (2, 3)]))  # a path numbered out of order
    @settings(max_examples=80, deadline=None)
    def test_matches_partition_path_and_naive(self, g):
        ell = chromatic_number(g)
        assume(ell ** g.order <= 4 ** 8)  # keeps the naive filter cheap
        dp = _keyed(g, ell)
        partitions = _iter_chi_partitions(g, ell)
        assert dp == _by_key(indices._sweep_partitions(g, ell, partitions, Meter()))
        assert dp == naive_extrema_witnesses(g)

    def test_example_orders_are_not_the_identity(self):
        assert indices._greedy_order(THORN_C5) == ([0, 5, 1, 4, 6, 2, 7, 3, 8, 9], 2)
        path6 = Graph(6, [(0, 5), (5, 1), (1, 4), (4, 2), (2, 3)])
        assert indices._greedy_order(path6) == ([0, 5, 1, 4, 2, 3], 1)

    @pytest.mark.parametrize("order", [[0, 5, 1, 4, 6, 2, 7, 3, 8, 9], list(range(10)),
                                       list(range(9, -1, -1))])
    def test_any_order_gives_the_same_keys(self, order):
        # the color fields sit by vertex index, whatever the placing order
        assert _by_key(indices._frontier_extrema(THORN_C5, 3, order, Meter())) == \
            _keyed(THORN_C5, 3)

    def test_work_cap_sends_long_inputs_past_the_dp(self, monkeypatch):
        # the chi search takes 38 and 42 units, the walk runs out its share,
        # 3**2 * n units, and the DP, which makes 303 moves on cycle:19 and
        # 339 on cycle:21, has 331 and 309 units left
        monkeypatch.setattr(coloring, "WORK_CAP", 540)
        assert full_report(cycle(19)).status == "exact"
        r = full_report(cycle(21))
        assert r.status == "bounds_only" and r.semantics_used == "permutation"

    def test_work_cap_counts_reached_states(self):
        # the walk runs out its share, 1028 * 4**3 units, and the DP makes
        # 24,640 moves from the states it reaches, where the identity order
        # makes 49,216; the canonical partition gives cm3 (1290, 2314)
        g = generate(parse_family_spec("thorn(complete:4;256)"))
        order, width = indices._greedy_order(g)
        assert width == 3
        for placing, moves in ((order, 24_640), (range(g.order), 49_216)):
            meter = Meter()
            indices._frontier_extrema(g, 4, placing, meter)
            assert coloring.WORK_CAP - meter.left == moves
        r = full_report(g)
        assert r.status == "exact" and r.semantics_used == "all"
        assert (r.cm3_min, r.cm3_max) == (1034, 2570)

    def test_frontier_width(self):
        assert indices._greedy_order(path(9))[1] == 1
        assert indices._greedy_order(cycle(9))[1] == 2
        assert indices._greedy_order(complete(6))[1] == 5
        assert indices._greedy_order(Graph(4))[1] == 0
        assert indices._greedy_order(star(6)) == ([0, 1, 2, 3, 4, 5], 1)
        # cut short once 6**width * 6 reaches the room given: the DP is not run
        assert indices._greedy_order(complete(6), 6, 6 ** 2 * 6) == ([0, 1], 2)
        assert indices._greedy_order(complete(6), 6, 6 ** 2 * 6 + 1) == ([0, 1, 2], 3)

    @pytest.mark.parametrize("spec,cm1,cm3", [
        ("thorn(cycle:9;2)", (71, 181), (28, 50)),
        ("thorn(cycle:501;2)", (3761, 10267), (1504, 3002)),
    ])
    def test_thorns_of_cycles_are_exact(self, spec, cm1, cm3):
        # numbered base first, their identity orders are as wide as the
        # base; the greedy order places each pendant by its base vertex
        g = generate(parse_family_spec(spec))
        assert indices._greedy_order(g)[1] == 2
        r = full_report(g)
        assert r.status == "exact" and r.semantics_used == "all"
        assert ((r.cm1_min, r.cm1_max), (r.cm3_min, r.cm3_max)) == (cm1, cm3)

    def test_long_cycle_holds_one_layer(self):
        # a DP that held every layer would peak at 1.9 MB here, growing
        # with the order (25 MB on cycle:3001); tracing makes each
        # allocation slow, so the input is short
        g = cycle(301)
        order = indices._greedy_order(g)[0]
        tracemalloc.start()
        try:
            indices._frontier_extrema(g, 3, order, Meter())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**19

    @pytest.mark.parametrize("spec,cm3", [
        ("thorn(complete:5;2)", (30, 52)),
        ("thorn(complete:5;3)", (35, 68)),
        ("thorn(complete:6;1)", (41, 59)),
    ])
    def test_thorns_of_cliques_are_exact(self, spec, cm3):
        # their partition walks run out the walk's share and the DP answers
        # them; a DP that also kept the colors used made 4 to 4.5 times the
        # moves, and a bound on its states turned these away
        r = full_report(generate(parse_family_spec(spec)))
        assert r.status == "exact" and r.semantics_used == "all"
        assert (r.cm3_min, r.cm3_max) == cm3

    def test_thorn_of_k7_stays_on_the_walk(self):
        # its walk's share, 7**6 * 14 units, is the whole meter, so the DP,
        # which would answer it in 35,707 moves, is left none
        g = generate(parse_family_spec("thorn(complete:7;1)"))
        keyed = _keyed(g, 7)
        assert (keyed["cm3_min"][0], keyed["cm3_max"][0]) == (63, 89)
        assert 7 ** 6 * 14 > coloring.WORK_CAP
        r = full_report(g)
        assert r.status == "bounds_only"
        assert (r.cm3_min, r.cm3_max) == (69, 83)

    @pytest.mark.parametrize("spec", ["thorn(complete:5;1)", "thorn(complete:6;1)"])
    def test_clique_thorns_match_the_partition_path(self, spec):
        # here a DP that also kept the colors used split the states that
        # the frontier's colors alone merge: 2,625 moves against 765 on
        # thorn(complete:5;1)
        g = generate(parse_family_spec(spec))
        ell = chromatic_number(g)
        partitions = _iter_chi_partitions(g, ell)
        assert _keyed(g, ell) == \
            _by_key(indices._sweep_partitions(g, ell, partitions, Meter(float("inf"))))


@st.composite
def connected_bipartite(draw, max_n=8):
    """A random tree across a random side split, plus random cross edges;
    the split is drawn over a random numbering of the vertices."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    name = draw(st.permutations(range(n)))
    cut = draw(st.integers(min_value=1, max_value=n - 1))  # name[:cut] is one side
    side = [0] * n
    for v in name[cut:]:
        side[v] = 1
    placed = [name[0], name[cut]]
    edges = {tuple(sorted(placed))}
    for v in draw(st.permutations(name[1:cut] + name[cut + 1:])):
        u = draw(st.sampled_from([u for u in placed if side[u] != side[v]]))
        edges.add((min(u, v), max(u, v)))
        placed.append(v)
    cross = [(u, v) for u in range(n) for v in range(u + 1, n)
             if side[u] != side[v] and (u, v) not in edges]
    picks = draw(st.lists(st.booleans(), min_size=len(cross), max_size=len(cross)))
    return Graph(n, sorted(edges) + [e for e, keep in zip(cross, picks) if keep])


class TestTwoColorings:
    @given(connected_bipartite(max_n=9))
    @example(complete(2))
    @example(star(6))
    @example(Graph(6, [(0, 5), (5, 1), (1, 4), (4, 2), (2, 3)]))  # a path numbered out of order
    @example(cycle(8))
    # equal sides, so the two colorings tie on cm1 and the one with vertex
    # 0 wearing 1 witnesses both ends; then unequal sides
    @example(path(4))
    @example(cycle(6))
    @example(generate(parse_family_spec("complete-bipartite:3,3")))
    @example(star(5))
    @settings(max_examples=80, deadline=None)
    def test_matches_frontier_dp_and_naive(self, g):
        assert g.is_connected() and chromatic_number(g) == 2
        expected = _keyed(g, 2)
        assert expected == naive_extrema_witnesses(g)
        for semantics in ("all", "permutation"):
            r = full_report(g, semantics)
            assert r.status == "exact" and r.semantics_used == semantics
            assert _reported(g, semantics) == expected

    def test_routing(self, monkeypatch):
        def refuse(name):
            def refused(*args):
                raise AssertionError(f"{name} reached")
            return refused

        monkeypatch.setattr(indices, "_frontier_extrema", refuse("dp"))
        monkeypatch.setattr(indices, "_iter_chi_partitions", refuse("walk"))
        for g in (complete(2), path(9), cycle(10), star(7)):
            for semantics in ("all", "permutation"):
                assert full_report(g, semantics).status == "exact"
        # two disjoint edges have four 2-colorings: the walk runs out its
        # share, 2 * 4 units, and the DP answers
        monkeypatch.undo()
        monkeypatch.setattr(indices, "_frontier_extrema", refuse("dp"))
        with pytest.raises(AssertionError, match="dp reached"):
            full_report(Graph(4, [(0, 1), (2, 3)]))


@st.composite
def quotients(draw, max_ell=7, max_count=2):
    """Class sizes and edge counts between class pairs; small ranges make twins common."""
    ell = draw(st.integers(min_value=1, max_value=max_ell))
    sizes = draw(st.lists(st.integers(1, 2), min_size=ell, max_size=ell))
    between = {}
    for a in range(ell):
        for b in range(a + 1, ell):
            between[(a, b)] = draw(st.integers(0, max_count))
    return sizes, _matrix(ell, between)


# a 7-clique quotient, one twin group; a 7-class quotient with no twins
CLIQUE_7 = ([1] * 7, _matrix(7, {(a, b): 1 for a in range(7) for b in range(a + 1, 7)}))
TWIN_FREE_7 = ([1] * 7, _matrix(7, {(a, b): (a + 2 * b) % 3
                                    for a in range(7) for b in range(a + 1, 7)}))


class TestTwinOrderedLabelings:
    @given(quotients())
    @example(CLIQUE_7)
    @settings(max_examples=80, deadline=None)
    def test_matches_filtered_permutations(self, quotient):
        lower = indices._twin_lower(*quotient)
        want = [
            p for p in permutations(range(1, len(lower) + 1))
            if all(p[i] < p[j] for j, i in enumerate(lower) if i >= 0)
        ]
        with recording_walk() as walked, pytest.MonkeyPatch.context() as mp:
            mp.setattr(indices, "PACKED_CLASSES", 0)  # every quotient walks
            got = indices._labeling_extrema(*quotient, Meter())[1]
        # each twin-ordered labeling scored exactly once, and the walk, not
        # lexicographic, still keeps the least labeling on a tie
        assert sorted(walked) == want
        assert indices._labeling_count(lower) == len(want)
        assert got == _least_extrema(_products(quotient[1]), len(lower))

    @given(quotients())
    @example(CLIQUE_7)
    @example(TWIN_FREE_7)
    @settings(max_examples=60, deadline=None)
    def test_labeling_extrema_match_all_permutations(self, quotient):
        sizes, counts = quotient
        scores = (
            lambda p: sum(s * x * x for s, x in zip(sizes, p)),
            _products(counts),
            lambda p: sum(e * abs(p[a] - p[b]) for a, b, e in _pairs(counts)),
        )
        want = [_least_extrema(score, len(sizes)) for score in scores]
        assert list(indices._labeling_extrema(sizes, counts, Meter())) == want

    def test_one_large_group_has_one_labeling(self, walked):
        counts = _matrix(40, {(a, b): 1 for a in range(40) for b in range(a + 1, 40)})
        lower = indices._twin_lower([1] * 40, counts)
        assert lower == [-1, *range(39)]
        assert indices._labeling_count(lower) == 1
        # the cm2 walk scores one labeling, its sum (820**2 - 22140) / 2
        assert indices._labeling_extrema([1] * 40, counts, Meter())[1] == \
            (325130, tuple(range(1, 41))) * 2
        assert walked == [tuple(range(1, 41))]
        # the cut DP meets 41 prefix sets, not 2**40; C(41, 3) = sum (b - a)
        assert indices._cut_extrema(counts, lower, Meter()) == (10660, tuple(range(1, 41))) * 2


class TestPackedProducts:
    # counts up to 10**6 fill the fields: 21 * 10**6 * 7 * 6 is near 2**30
    @given(quotients(max_count=10**6))
    @example(CLIQUE_7)
    @example(TWIN_FREE_7)
    @settings(max_examples=60, deadline=None)
    def test_product_extrema_match_all_permutations(self, quotient):
        sizes, counts = quotient
        want = _least_extrema(_products(counts), len(sizes))
        assert indices._labeling_extrema(sizes, counts, Meter())[1] == want

    @given(quotients())
    @example(CLIQUE_7)
    @example(TWIN_FREE_7)
    @settings(max_examples=60, deadline=None)
    def test_packed_cm3_matches_the_cut_dp(self, quotient):
        sizes, counts = quotient
        lower = indices._twin_lower(sizes, counts)
        assert indices._packed_extrema(counts, len(sizes))[1] == \
            indices._cut_extrema(counts, lower, Meter())

    def test_pair_table_fields(self):
        # the labelings of 3 classes in lexicographic order are 123, 132,
        # 213, 231, 312, 321; each gives p_a p_b, then |p_a - p_b|
        tables = indices._pair_tables(3)

        def fields(a, b):
            out = array("I")
            out.frombytes(tables[a][b].to_bytes(48, sys.byteorder))
            return list(out)

        assert fields(0, 1) == fields(1, 0) == [2, 1, 3, 2, 2, 1, 6, 1, 3, 2, 6, 1]
        assert fields(0, 2) == [3, 2, 2, 1, 6, 1, 2, 1, 6, 1, 3, 2]
        assert fields(1, 2) == [6, 1, 6, 1, 3, 2, 3, 2, 2, 1, 2, 1]
        assert tables[0][0] == tables[1][1] == tables[2][2] == 0

    def test_packed_route_skips_the_cut_dp(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the cut DP ran")

        monkeypatch.setattr(indices, "_cut_extrema", refuse)
        meter = Meter()
        found = indices._labeling_extrema(*TWIN_FREE_7, meter)
        assert coloring.WORK_CAP - meter.left == 5040
        cm3 = lambda p: sum(e * abs(p[a] - p[b]) for a, b, e in _pairs(TWIN_FREE_7[1]))
        assert found[2] == _least_extrema(cm3, 7)

    def test_nth_labeling_is_lexicographic(self):
        for ell in range(1, 7):
            for k, p in enumerate(permutations(range(1, ell + 1))):
                assert indices._nth_labeling(ell, k) == p

    def test_seven_classes_walk_no_labeling(self, walked):
        assert indices._twin_lower(*TWIN_FREE_7) == [-1] * 7
        indices._labeling_extrema(*TWIN_FREE_7, Meter())
        assert walked == []

    def test_few_labelings_walk(self, walked):
        # one twin-ordered labeling of 7! walks; its sum over all pairs of
        # 1..7 is (28**2 - 140) / 2
        assert indices._labeling_extrema(*CLIQUE_7, Meter())[1] == (322, tuple(range(1, 8))) * 2
        assert walked == [tuple(range(1, 8))]

    def test_eight_classes_walk(self, walked):
        sizes = [1] * 8
        counts = _matrix(8, {(a, b): (a + 2 * b) % 3 for a in range(8) for b in range(a + 1, 8)})
        assert indices._twin_lower(sizes, counts) == [-1] * 8
        got = indices._labeling_extrema(sizes, counts, Meter())[1]
        assert len(walked) == len(set(walked)) == 40320
        assert got == _least_extrema(_products(counts), 8)

    def test_sums_past_a_field_walk(self, walked):
        # the bound (2**30 + 3) * 3 * 2 passes 2**32, and so do the sums
        counts = _matrix(3, {(0, 1): 2**30, (0, 2): 1, (1, 2): 2})
        got = indices._labeling_extrema([1, 1, 1], counts, Meter())[1]
        assert sorted(walked) == list(permutations(range(1, 4)))
        assert got == _least_extrema(_products(counts), 3)
        assert got[2] > 2**32


@st.composite
def typed_quotients(draw, ell=8):
    """Quotients of ell classes, each of a drawn type; a class pair's edge
    count and a class's size depend only on the types, so classes of one
    type are twins, and twin groups of every shape come up."""
    types = draw(st.lists(st.integers(0, ell - 1), min_size=ell, max_size=ell))
    sizes = {t: draw(st.integers(1, 3)) for t in sorted(set(types))}
    counts = {}
    for a in range(ell):
        for b in range(a + 1, ell):
            key = tuple(sorted((types[a], types[b])))
            if key not in counts:
                counts[key] = draw(st.integers(0, 3))
    between = {(a, b): counts[tuple(sorted((types[a], types[b])))]
               for a in range(ell) for b in range(a + 1, ell)}
    return [sizes[t] for t in types], _matrix(ell, between)


def _upper(counts):
    """An 8-class edge-count matrix from its upper triangle, row by row."""
    pairs = [(a, b) for a in range(8) for b in range(a + 1, 8)]
    return _matrix(8, dict(zip(pairs, counts)))


# two extrema-stream quotients: one twin group of three, classes 1, 4 and 6;
# and two, classes 0 and 3, and 1, 5 and 6
ONE_GROUP_8 = ([2, 1, 2, 2, 1, 1, 1, 1], _upper(
    [2, 3, 2, 2, 1, 2, 2, 2, 2, 1, 1, 1, 1, 4, 2, 2, 2, 1, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1]))
TWO_GROUPS_8 = ([2, 1, 2, 2, 1, 1, 1, 1], _upper(
    [2, 4, 3, 1, 2, 2, 2, 2, 2, 1, 1, 1, 1, 4, 1, 2, 2, 1, 1, 2, 2, 2, 1, 1, 1, 1, 1, 1]))
# every class has a twin: groups 0-2, 3-5 and 6-7
NO_TWIN_FREE_8 = ([1, 1, 1, 2, 2, 2, 3, 3], _upper(
    [1, 1, 2, 2, 2, 0, 0, 1, 2, 2, 2, 0, 0, 2, 2, 2, 0, 0, 0, 0, 3, 3, 0, 3, 3, 3, 3, 1]))
# counts near 2**30 take the sums far past 2**32; classes 0 and 1 are twins
HUGE_8 = ([1] * 8, _matrix(8, {(a, b): 2**30 + (max(a, 1) + 2 * b) % 3
                              for a in range(8) for b in range(a + 1, 8)}))


class TestEightClassWalk:
    @given(typed_quotients())
    @example(ONE_GROUP_8)
    @example(TWO_GROUPS_8)
    @example(NO_TWIN_FREE_8)
    @example(HUGE_8)
    @settings(max_examples=5, deadline=None)
    def test_cm2_and_cm3_match_all_permutations(self, quotient):
        sizes, counts = quotient
        pairs = [(a, b, e) for a, b, e in _pairs(counts) if e]
        scores = (
            lambda p: sum([e * p[a] * p[b] for a, b, e in pairs]),
            lambda p: sum([e * abs(p[a] - p[b]) for a, b, e in pairs]),
        )
        want = [_least_extrema(score, 8) for score in scores]
        assert list(indices._labeling_extrema(sizes, counts, Meter())[1:]) == want

    def test_example_shapes(self):
        groups = lambda q: indices._twin_groups(indices._twin_lower(*q))
        assert groups(ONE_GROUP_8) == [[1, 4, 6]]
        assert groups(TWO_GROUPS_8) == [[0, 3], [1, 5, 6]]
        assert groups(NO_TWIN_FREE_8) == [[0, 1, 2], [3, 4, 5], [6, 7]]
        assert groups(HUGE_8) == [[0, 1]]
        assert indices._labeling_extrema(*HUGE_8, Meter())[1][0] > 2**32

    def test_meter_units(self):
        # its 3,360 twin-ordered labelings and 280 cut-DP moves
        meter = Meter()
        indices._labeling_extrema(*TWO_GROUPS_8, meter)
        assert coloring.WORK_CAP - meter.left == 3640

    def test_skipped_label_sets_are_charged(self, walked):
        # an incumbent just inside cm2's extrema walks 2 of its 560 label
        # sets, yet charges all 3,360 labelings; cm3's, past its bounds,
        # leaves cm3 out
        full = indices._labeling_extrema(*TWO_GROUPS_8, Meter())
        lo, _, hi, _ = full[1]
        lo3, hi3 = indices._pair_bounds(TWO_GROUPS_8[1])[1]
        walked.clear()
        meter = Meter()
        incumbent = [(lo + 1, hi - 1), (lo3 - 1, hi3 + 1)]
        found = indices._labeling_extrema(*TWO_GROUPS_8, meter, incumbent)
        assert coloring.WORK_CAP - meter.left == 3360
        assert found == (*full[:2], None)
        assert len(walked) == 2 * 3 * 2


@contextmanager
def unbounded():
    """_sweep_partitions with every incumbent test off: each partition
    scores both ends of cm2 and cm3, decodes each witness and walks every
    label set."""
    scored = indices._labeling_extrema
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(indices, "_labeling_extrema",
                   lambda sizes, counts, meter, incumbent: scored(sizes, counts, meter))
        yield


# extrema-stream's n11-p77: chi 8, nine chi-partitions, every quotient of
# eight classes, so each one that scores cm2 walks its labelings
N11_P77 = Graph(11, [
    (0, 1), (0, 2), (0, 3), (0, 6), (0, 8), (0, 9), (0, 10),
    (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 8), (1, 9), (1, 10),
    (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (2, 10),
    (3, 6), (3, 7), (3, 8), (3, 9), (3, 10),
    (4, 5), (4, 6), (4, 7), (4, 8), (4, 10),
    (5, 6), (5, 7), (5, 8), (5, 9), (5, 10),
    (6, 7), (6, 8), (6, 9), (6, 10),
    (7, 8), (7, 9), (7, 10),
    (8, 9), (8, 10),
])


class TestPruning:
    @given(quotients(max_ell=6, max_count=5))
    @example(CLIQUE_7)
    @example(TWIN_FREE_7)
    @settings(max_examples=60, deadline=None)
    def test_bounds_enclose_every_labeling(self, quotient):
        counts = quotient[1]
        (lo2, hi2), (lo3, hi3) = indices._pair_bounds(counts)
        pairs = _pairs(counts)
        for p in permutations(range(1, len(counts) + 1)):
            assert lo2 <= sum(e * p[a] * p[b] for a, b, e in pairs) <= hi2
            assert lo3 <= sum(e * abs(p[a] - p[b]) for a, b, e in pairs) <= hi3

    def test_bounds_of_a_path(self):
        # counts 2, 0, 1 sorted against the products 2, 3, 6 and the gaps
        # 1, 1, 2 of the label pairs of 1..3; both ends are attained
        counts = _matrix(3, {(0, 1): 2, (1, 2): 1})
        assert indices._pair_bounds(counts) == [(7, 15), (3, 5)]

    @given(renumbered_graphs(max_n=9))
    @example(THORN_C5)
    @settings(max_examples=60, deadline=None)
    def test_same_extrema_as_unbounded_and_frontier_dp(self, g):
        ell = chromatic_number(g)
        order, width = indices._greedy_order(g)
        assume(ell ** width <= 4 ** 6)  # keeps the DP's states few
        pruned = _by_key(indices._sweep_partitions(g, ell, _iter_chi_partitions(g, ell), Meter()))
        with unbounded():
            partitions = _iter_chi_partitions(g, ell)
            assert pruned == _by_key(indices._sweep_partitions(g, ell, partitions, Meter()))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(indices, "PACKED_CLASSES", 0)  # every quotient walks
            partitions = _iter_chi_partitions(g, ell)
            assert pruned == _by_key(indices._sweep_partitions(g, ell, partitions, Meter()))
        assert pruned == _by_key(indices._frontier_extrema(g, ell, order, Meter()))

    def test_dense_graph_walks_fewer_quotients(self, monkeypatch):
        walks, label_sets = [], []
        walk = indices._walked_product_extrema
        monkeypatch.setattr(indices, "_walked_product_extrema",
                            lambda *args: walks.append(args) or walk(*args))
        # the walk orders the labels left once per label set it scores
        monkeypatch.setattr(indices, "permutations",
                            lambda *args: label_sets.append(args) or permutations(*args))
        assert len(list(_iter_chi_partitions(N11_P77, 8))) == 9
        r = full_report(N11_P77)
        assert r.status == "exact" and r.semantics_used == "all"
        assert 0 < len(walks) < 9
        scored = len(label_sets)
        walks.clear()
        label_sets.clear()
        with unbounded():
            assert full_report(N11_P77).to_json_dict(True) == r.to_json_dict(True)
        assert len(walks) == 9
        assert 0 < scored < len(label_sets)

    def test_single_index_routes(self, monkeypatch):
        def refuse(name):
            def refused(*args):
                raise AssertionError(f"{name} ran")
            return refused

        def incumbent(quotient, *live):
            """An incumbent that leaves the live indices both ends, their
            own extrema, and puts the others' past their bounds."""
            found = indices._labeling_extrema(*quotient, Meter())[1:]
            return [(ends[0], ends[2]) if k in live else (lo - 1, hi + 1)
                    for k, ends, (lo, hi) in zip((2, 3), found, indices._pair_bounds(quotient[1]))]

        full = indices._labeling_extrema(*TWIN_FREE_7, Meter())
        six = ([1] * 6, [row[:6] for row in TWIN_FREE_7[1][:6]])
        only_cm2 = incumbent(TWIN_FREE_7, 2)
        only_cm2_8 = incumbent(TWO_GROUPS_8, 2)
        # neither index: cm1 alone, and nothing charged
        meter = Meter()
        assert indices._labeling_extrema(*TWIN_FREE_7, meter, incumbent(TWIN_FREE_7)) == \
            (full[0], None, None)
        assert coloring.WORK_CAP - meter.left == 0
        with monkeypatch.context() as mp:
            mp.setattr(indices, "_cut_extrema", refuse("the cut DP"))
            # cm3 alone below seven classes: the packed tables
            assert indices._labeling_extrema(*six, Meter(), incumbent(six, 3))[2] == \
                indices._packed_extrema(six[1], 6)[1]
            # cm2 alone: the packed tables, which leave cm3 out, or the
            # walk of 3,360 labelings
            assert indices._labeling_extrema(*TWIN_FREE_7, Meter(), only_cm2) == (*full[:2], None)
            meter = Meter()
            indices._labeling_extrema(*TWO_GROUPS_8, meter, only_cm2_8)
            assert coloring.WORK_CAP - meter.left == 3360
        # cm3 alone at seven classes: the cut DP's 7 * 2**6 moves, not 7! labelings
        only_cm3 = incumbent(TWIN_FREE_7, 3)
        monkeypatch.setattr(indices, "_packed_extrema", refuse("the packed tables"))
        meter = Meter()
        assert indices._labeling_extrema(*TWIN_FREE_7, meter, only_cm3) == (full[0], None, full[2])
        assert coloring.WORK_CAP - meter.left == 448

    def test_live_ends_alone_are_read(self):
        # with cm2's min and cm3's max live, the packed route reads those
        # two ends and decodes the labels of the one that reaches its target
        full = indices._labeling_extrema(*TWIN_FREE_7, Meter())
        (_, hi2), (lo3, hi3) = indices._pair_bounds(TWIN_FREE_7[1])
        assert full[2][2] < hi3
        found = indices._labeling_extrema(*TWIN_FREE_7, Meter(),
                                          [(full[1][0], hi2 + 1), (lo3 - 1, full[2][2] + 1)])
        assert found == (full[0], (*full[1][:2], -math.inf, None),
                         (math.inf, None, full[2][2], None))

    @given(typed_quotients())
    @example(ONE_GROUP_8)
    @example(TWO_GROUPS_8)
    @example(NO_TWIN_FREE_8)
    @settings(max_examples=5, deadline=None)
    def test_label_set_bounds_enclose_every_order(self, quotient):
        counts = quotient[1]
        groups = indices._twin_groups(indices._twin_lower(*quotient))
        tied = [a for group in groups for a in group]
        single = [a for a in range(8) if a not in tied]
        pair_counts = sorted([counts[a][b] for a, b in combinations(single, 2)])
        score = _products(counts)
        p = [0] * 8
        for t, left in indices._group_label_sets(groups, range(1, 9)):
            for a, x in zip(tied, t):
                p[a] = x
            base = sum(e * p[a] * p[b] for a, b, e in _pairs(counts) if a in tied and b in tied)
            weights = [sum(counts[a][b] * p[b] for b in tied) for a in single]
            low, high = indices._order_bounds(base, weights, pair_counts, left)
            for q in permutations(left):
                for a, x in zip(single, q):
                    p[a] = x
                assert low <= score(p) <= high


class TestFullReport:
    def test_p4(self):
        r = full_report(path(4))
        assert r.cm1_min == r.cm1_max == 10
        assert r.cm2_min == r.cm2_max == 6
        assert r.cm3_min == r.cm3_max == 3

    def test_k2(self):
        r = full_report(complete(2))
        assert r.cm1_min == r.cm1_max == 5

    def test_k1_compat_on_off(self):
        on = full_report(Graph(1), paper_compat=True)
        assert on.m1 == 0 and on.cm1_min == 1
        assert on.cm3_min == on.cm3_max == 1
        assert on.paper_compat_defaults_applied
        assert on.witnesses["cm3_min"] is None
        off = full_report(Graph(1))
        assert off.cm3_min == 0 and not off.paper_compat_defaults_applied

    def test_compat_is_noop_on_graphs_with_edges(self):
        a = full_report(path(3), paper_compat=True)
        b = full_report(path(3))
        assert a.to_json_dict() == b.to_json_dict()

    def test_disconnected_flagged_but_computed(self):
        g = Graph(4, [(0, 1), (2, 3)])
        r = full_report(g)
        assert not r.connected
        # every proper surjective 2-coloring splits the two edges evenly
        assert r.cm1_min == r.cm1_max == 10
        assert r.cm2_min == 4 and r.cm3_min == 2

    @pytest.mark.parametrize("g,distinct", [(complete(6), 1), (path(3), 2), (cycle(5), 3)])
    def test_each_distinct_witness_is_checked_once(self, monkeypatch, g, distinct):
        calls = []

        def counted(graph, c):
            calls.append(c.assignment)
            return is_proper(graph, c)

        monkeypatch.setattr(indices, "is_proper", counted)
        r = full_report(g)
        assert len(calls) == len(set(calls)) == distinct
        assert set(calls) == {w.assignment for w in r.witnesses.values()}

    @given(graphs())
    @settings(max_examples=30, deadline=None)
    def test_report_invariants(self, g):
        r = full_report(g)
        for k in (1, 2, 3):
            lo, hi = r.value(f"cm{k}_min"), r.value(f"cm{k}_max")
            assert lo <= hi
            for key in (f"cm{k}_min", f"cm{k}_max"):
                w = r.witnesses[key]
                assert w is not None and is_proper(g, w)
                fn = {1: chromatic_m1, 2: chromatic_m2, 3: chromatic_m3}[k]
                assert fn(g, w) == r.value(key)

    @given(graphs(max_n=7))
    @example(Graph(7))
    @example(Graph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)]))
    @settings(max_examples=60, deadline=None)
    def test_least_witnesses_match_naive_and_coloring_sweep(self, g):
        got = _reported(g, "all")
        assert got == naive_extrema_witnesses(g)
        assert got == _swept(g, "all")

    @given(graphs(max_n=7))
    @example(Graph(7))
    @example(Graph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)]))
    @example(complete(6))
    @settings(max_examples=60, deadline=None)
    def test_permutation_witnesses_match_coloring_sweep(self, g):
        assert _reported(g, "permutation") == _swept(g, "permutation")

    def test_json_and_csv_shapes(self, schema_validator):
        r = full_report(cycle(5), label="cycle:5")
        d = r.to_json_dict(include_witnesses=True)
        schema_validator(d, "index_report.schema.json")
        assert d["label"] == "cycle:5"
        assert d["witnesses"]["cm1_min"] == [1, 2, 1, 2, 3]
        # the CSV columns are the report's JSON fields, in order
        assert [*d][:-1] == list(r.CSV_FIELDS) == [*r.to_json_dict()]

    def test_extrema_stream_matches_pinned_digest(self):
        # the 120 graphs of the extrema-stream benchmark, in population
        # order: a route that moves a value or a least witness changes it
        source = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", source)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        reports = [full_report(Graph(n, edges)).to_json_dict(True)
                   for _, n, edges in workloads.population()]
        assert len(reports) == 120
        text = json.dumps(reports)
        assert hashlib.sha256(text.encode()).hexdigest() == EXTREMA_STREAM_SHA256

    def test_permutation_stream_matches_pinned_digest(self):
        # the same 120 graphs under permutation semantics: a change to a
        # canonical partition or to its labelings changes it
        source = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", source)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        reports = [full_report(Graph(n, edges), "permutation").to_json_dict(True)
                   for _, n, edges in workloads.population()]
        text = json.dumps(reports)
        assert hashlib.sha256(text.encode()).hexdigest() == PERMUTATION_STREAM_SHA256
