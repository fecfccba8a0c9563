"""Chromatic number and minimum-coloring enumeration against naive filters."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chromatic_zagreb.coloring import (
    Coloring,
    EnumerationBudgetExceeded,
    Meter,
    _greedy_coloring,
    _iter_chi_partitions,
    _min_coloring,
    canonical_partition,
    chromatic_number,
    colorings_of_partition,
    enumerate_min_colorings,
    find_coloring,
    is_proper,
    strengths,
)
from chromatic_zagreb.corpus import connected_bipartite_graphs
from chromatic_zagreb.graph import Graph

from conftest import (
    complete,
    cycle,
    naive_canonical_partition,
    naive_chi,
    naive_dsatur,
    naive_min_colorings,
    path,
    star,
)


@st.composite
def graphs(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [p for p, keep in zip(pairs, picks) if keep])


class TestColoringType:
    def test_surjectivity_enforced(self):
        with pytest.raises(ValueError):
            Coloring((1, 3), 3)
        with pytest.raises(ValueError):
            Coloring((0, 1), 2)
        Coloring((1, 2), 2)

    def test_from_assignment(self):
        c = Coloring.from_assignment([2, 1, 2])
        assert c.palette_size == 2

    def test_strengths(self):
        assert strengths(Coloring((1, 2, 1), 2)) == (2, 1)
        assert strengths(Coloring((1, 2, 3), 3)) == (1, 1, 1)

    def test_is_proper(self):
        k2 = complete(2)
        assert not is_proper(k2, Coloring((1, 1), 1))
        assert is_proper(k2, Coloring((1, 2), 2))
        assert is_proper(cycle(4), Coloring((1, 2, 1, 2), 2))
        with pytest.raises(ValueError):
            is_proper(k2, Coloring((1, 2, 1), 2))


class TestChromaticNumber:
    @pytest.mark.parametrize("g,expected", [
        (complete(4), 4),
        (cycle(5), 3),
        (path(3), 2),
        (Graph(1), 1),
        (Graph(4), 1),
        (cycle(6), 2),
        (star(7), 2),
        (Graph(5, [(0, 1), (2, 3)]), 2),
    ])
    def test_known(self, g, expected):
        assert chromatic_number(g) == expected

    def test_wheel_like(self):
        # odd cycle plus a dominating hub needs four colors
        hub = Graph(6, [(i, (i + 1) % 5) for i in range(5)] + [(i, 5) for i in range(5)])
        assert chromatic_number(hub) == 4

    @given(graphs())
    @settings(max_examples=80, deadline=None)
    def test_matches_naive(self, g):
        assert chromatic_number(g) == naive_chi(g)

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_witness_and_lower_rejection(self, g):
        chi = chromatic_number(g)
        witness = find_coloring(g, chi)
        assert witness is not None and is_proper(g, witness)
        assert witness.palette_size <= chi
        if chi > 1:
            assert find_coloring(g, chi - 1) is None

    @given(graphs(max_n=7))
    @settings(max_examples=80, deadline=None)
    def test_min_coloring_is_a_chi_witness(self, g):
        colors = _min_coloring(g.adjacency_masks, g.order)
        assert len(colors) == g.order
        assert all(colors[u] != colors[v] for u, v in g.edges)
        assert set(colors) == set(range(1, naive_chi(g) + 1))

    def test_min_coloring_beats_dsatur(self):
        # DSATUR needs 4 colors here, chi is 3: the witness must come from
        # the backtracking search, not the greedy coloring
        g = Graph(8, [(0, 1), (0, 2), (0, 4), (0, 7), (1, 3), (1, 5), (2, 5), (2, 6),
                      (3, 5), (3, 6), (3, 7), (5, 6)])
        assert max(_greedy_coloring(g.adjacency_masks, g.order)) == 4
        colors = _min_coloring(g.adjacency_masks, g.order)
        assert all(colors[u] != colors[v] for u, v in g.edges)
        assert set(colors) == {1, 2, 3} and naive_chi(g) == 3

    @given(graphs(max_n=12))
    @example(cycle(5))
    @example(Graph(8, [(0, 1), (0, 2), (0, 4), (0, 7), (1, 3), (1, 5), (2, 5), (2, 6),
                       (3, 5), (3, 6), (3, 7), (5, 6)]))
    @settings(max_examples=150, deadline=None)
    def test_greedy_coloring_is_dsatur(self, g):
        assert _greedy_coloring(g.adjacency_masks, g.order) == naive_dsatur(g)

    def test_deep_searches_run_without_recursion(self):
        long_path = path(1500)
        c = find_coloring(long_path, 2)
        assert c.palette_size == 2 and is_proper(long_path, c)
        # the DSATUR-hard graph above with a 1200-vertex path hung off vertex
        # 7: DSATUR still needs 4 colors, so chi comes from the backtracking
        # search, whose depth is the order
        g = Graph(1208, [(0, 1), (0, 2), (0, 4), (0, 7), (1, 3), (1, 5), (2, 5),
                         (2, 6), (3, 5), (3, 6), (3, 7), (5, 6), (7, 8)]
                  + [(v, v + 1) for v in range(8, 1207)])
        assert max(_greedy_coloring(g.adjacency_masks, g.order)) == 4
        colors = _min_coloring(g.adjacency_masks, g.order)
        assert all(colors[u] != colors[v] for u, v in g.edges)
        assert set(colors) == {1, 2, 3} and chromatic_number(g) == 3


class TestEnumeration:
    def test_p3_all(self):
        got = [c.assignment for c in enumerate_min_colorings(path(3), "all")]
        assert got == [(1, 2, 1), (2, 1, 2)]

    def test_k3_all(self):
        assert len(list(enumerate_min_colorings(complete(3), "all"))) == 6

    def test_k1(self):
        got = list(enumerate_min_colorings(Graph(1), "all"))
        assert [c.assignment for c in got] == [(1,)]

    def test_all_on_a_deep_path(self):
        got = [c.assignment for c in enumerate_min_colorings(path(1500), "all")]
        assert got == [tuple(1 + (v + s) % 2 for v in range(1500)) for s in (0, 1)]

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    @example(Graph(4))  # one chi-partition, chi = 1
    # several chi-partitions, whose labelings interleave in assignment order
    @example(Graph(4, [(0, 1), (2, 3)]))
    @example(Graph(4, [(0, 1), (0, 2), (1, 2)]))
    def test_all_semantics_matches_naive_filter(self, g):
        engine = [c.assignment for c in enumerate_min_colorings(g, "all")]
        assert engine == naive_min_colorings(g)

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_emissions_proper_surjective_lexicographic(self, g):
        prev = None
        for c in enumerate_min_colorings(g, "all"):
            assert is_proper(g, c)
            assert set(c.assignment) == set(range(1, c.palette_size + 1))
            if prev is not None:
                assert prev < c.assignment
            prev = c.assignment

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_permutation_count_is_chi_factorial(self, g):
        chi = chromatic_number(g)
        got = list(enumerate_min_colorings(g, "permutation"))
        assert len(got) == math.factorial(chi)
        assert all(is_proper(g, c) for c in got)

    def test_semantics_agree_on_connected_bipartite(self):
        instances = [path(n) for n in range(2, 11)] + [star(n) for n in range(3, 11)]
        instances += [g for _, g in connected_bipartite_graphs(7)]
        for g in instances:
            a = [c.assignment for c in enumerate_min_colorings(g, "all")]
            p = [c.assignment for c in enumerate_min_colorings(g, "permutation")]
            assert a == p, f"semantics differ on {g}"

    def test_semantics_differ_when_partition_not_unique(self):
        g = Graph(4, [(0, 1), (2, 3)])  # two disjoint edges: two 2-partitions
        a = list(enumerate_min_colorings(g, "all"))
        p = list(enumerate_min_colorings(g, "permutation"))
        assert len(a) == 4 and len(p) == 2


class TestCanonicalPartition:
    def test_lex_least_among_partitions(self):
        # both {{0,1},{2,3}} and {{0,1,2},{3}} are proper 2-partitions here;
        # the sorted representation ((0,1),(2,3)) is the smaller one
        g = Graph(4, [(0, 3), (1, 3)])
        assert canonical_partition(g) == ((0, 1), (2, 3))

    def test_unique_bipartition(self):
        assert canonical_partition(path(4)) == ((0, 2), (1, 3))

    def test_complete_graph(self):
        assert canonical_partition(complete(3)) == ((0,), (1,), (2,))

    @given(graphs(max_n=8))
    @settings(max_examples=150, deadline=None)
    @example(Graph(8))
    @example(Graph(8, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5), (6, 7)]))
    @example(Graph(8, [(0, 5), (5, 2), (2, 7), (7, 0), (1, 6), (6, 3), (3, 1)]))
    def test_construction_is_the_least_partition(self, g):
        least = naive_canonical_partition(g)
        assert canonical_partition(g) == least
        assert min(_iter_chi_partitions(g, len(least))) == least
        # a caller's chi-coloring, as given or relabelled, is only a start
        colors = _min_coloring(g.adjacency_masks, g.order)
        assert canonical_partition(g, colors) == least
        ell = max(colors)
        assert canonical_partition(g, [ell + 1 - c for c in colors]) == least

    def test_deep_inputs(self):
        odds, evens = tuple(range(1, 1501, 2)), tuple(range(2, 1501, 2))
        assert canonical_partition(cycle(1501)) == ((0,), odds, evens)
        assert canonical_partition(path(1500)) == (tuple(range(0, 1500, 2)),
                                                   tuple(range(1, 1500, 2)))

    def test_step_cap_counts_dead_ends(self):
        # K6 has no partition into 5 independent sets: every step is a dead end
        assert list(_iter_chi_partitions(complete(6), 5)) == []
        with pytest.raises(EnumerationBudgetExceeded):
            list(_iter_chi_partitions(complete(6), 5, Meter(5)))
        # P4's one bipartition: 4 units for the partition, 5 backtracks
        assert len(list(_iter_chi_partitions(path(4), 2, Meter(9)))) == 1
        with pytest.raises(EnumerationBudgetExceeded):
            list(_iter_chi_partitions(path(4), 2, Meter(8)))

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_partitions_in_restricted_growth_order(self, g):
        ell = naive_chi(g)
        words = set()  # class of each vertex, classes numbered by first vertex
        for ass in naive_min_colorings(g, ell):
            first: dict[int, int] = {}
            words.add(tuple(first.setdefault(c, len(first)) for c in ass))
        expected = [
            tuple(tuple(v for v in range(g.order) if word[v] == i) for i in range(ell))
            for word in sorted(words)
        ]
        assert list(_iter_chi_partitions(g, ell)) == expected

    def test_labelings_come_in_assignment_order(self):
        got = [c.assignment for c in colorings_of_partition(((1, 4), (0, 3), (2,)), 5)]
        assert got == sorted(got) and len(got) == 6
        assert got[0] == (1, 2, 3, 1, 2)
