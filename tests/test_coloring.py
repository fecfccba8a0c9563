"""Chromatic number and minimum-coloring enumeration against naive filters."""

from __future__ import annotations

import math
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chromatic_zagreb import coloring
from chromatic_zagreb.coloring import (
    Coloring,
    EnumerationBudgetExceeded,
    Meter,
    _iter_chi_partitions,
    _min_coloring,
    _search,
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


# DSATUR colors this graph with 4 colors, but chi is 3
_DSATUR_HARD = Graph(8, [(0, 1), (0, 2), (0, 4), (0, 7), (1, 3), (1, 5), (2, 5), (2, 6),
                         (3, 5), (3, 6), (3, 7), (5, 6)])
# it beside a K_{1,4} star, which needs fewer colors: DSATUR breaks the tie
# of the two degree-4 vertices by index, so these search the two in turn
_HARD_THEN_STAR = Graph(13, list(_DSATUR_HARD.edges) + [(8, j) for j in range(9, 13)])
_STAR_THEN_HARD = Graph(13, [(0, j) for j in range(1, 5)]
                        + [(u + 5, v + 5) for u, v in _DSATUR_HARD.edges])
# it beside K4, in both numberings: DSATUR colors it first (its degrees
# are the higher) with 4 colors, and chi is 4 for K4's sake
_K4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
_HARD_THEN_K4 = Graph(12, list(_DSATUR_HARD.edges) + [(u + 8, v + 8) for u, v in _K4])
_K4_THEN_HARD = Graph(12, _K4 + [(u + 4, v + 4) for u, v in _DSATUR_HARD.edges])
# K4 beside 12 disjoint K_{1,4} stars: the stars have the higher degrees
_K4_BESIDE_STARS = Graph(64, _K4 + [(c, c + j) for c in range(4, 64, 5) for j in range(1, 5)])
# the Groetzsch graph, C5's Mycielskian: triangle-free with chi = 4
_GROETZSCH = Graph(11, [(i, (i + 1) % 5) for i in range(5)]
                   + [(5 + i, (i + j) % 5) for i in range(5) for j in (1, 4)]
                   + [(10, 5 + i) for i in range(5)])


def classes(partition: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """A restricted-growth string as its classes, each ascending, in
    first-vertex order."""
    return tuple(tuple(v for v, c in enumerate(partition) if c == i)
                 for i in range(max(partition, default=-1) + 1))


def restricted_growth(parts, n: int) -> tuple[int, ...]:
    """Classes given in any order as their restricted-growth string."""
    word = [0] * n
    for i, members in enumerate(sorted(parts, key=min)):
        for v in members:
            word[v] = i
    return tuple(word)


def _naive_chi_by_component(g: Graph) -> int:
    """The largest naive_chi of a component of g on its own, chi(g)."""
    chi = 0
    left = set(range(g.order))
    while left:
        members = [min(left)]
        for u in members:
            members += [w for w in g.neighbors(u) if w not in members]
        left -= set(members)
        index = {v: i for i, v in enumerate(members)}
        edges = [(index[u], index[v]) for u, v in g.edges if u in index]
        chi = max(chi, naive_chi(Graph(len(members), edges)))
    return chi


def _first_coloring(g: Graph) -> list[int]:
    """The first full coloring of the branch and bound: DSATUR's greedy one."""
    return next(_search(g.adjacency_lists, (1 << g.order) - 1, g.order, True, Meter()))[:]


def _k_coloring(g: Graph, k: int) -> list[int] | None:
    """The deciding search's first coloring of g within k colors, or None."""
    return next(_search(g.adjacency_lists, (1 << g.order) - 1, k, True, Meter()), None)


@st.composite
def graphs(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [p for p, keep in zip(pairs, picks) if keep])


@st.composite
def two_colorable_graphs(draw, max_n=14):
    """A graph with chi <= 2: every vertex on a random side, so under a
    random numbering, and each pair across the sides an edge with one
    drawn chance in ten, none to all. Disconnected, edgeless and
    isolated-vertex inputs all come up."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    side = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    cross = [(u, v) for u in range(n) for v in range(u + 1, n) if side[u] != side[v]]
    chance = draw(st.integers(0, 10))
    picks = draw(st.lists(st.integers(0, 9), min_size=len(cross), max_size=len(cross)))
    return Graph(n, [e for e, pick in zip(cross, picks) if pick < chance])


@st.composite
def relabeled_graphs(draw, max_n=7):
    """A graph from :func:`graphs`, its vertices renumbered at random."""
    g = draw(graphs(max_n))
    perm = draw(st.permutations(range(g.order)))
    return Graph(g.order, [(perm[u], perm[v]) for u, v in g.edges])


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
    @example(_HARD_THEN_STAR)
    @example(_STAR_THEN_HARD)
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
        colors = _min_coloring(g, Meter())
        assert len(colors) == g.order
        assert all(colors[u] != colors[v] for u, v in g.edges)
        assert set(colors) == set(range(1, naive_chi(g) + 1))

    def test_min_coloring_beats_dsatur(self):
        # DSATUR needs 4 colors here, chi is 3: the witness must come from
        # the branch and bound, not its first, greedy, coloring
        g = _DSATUR_HARD
        assert max(_first_coloring(g)) == 4
        colors = _min_coloring(g, Meter())
        assert all(colors[u] != colors[v] for u, v in g.edges)
        assert set(colors) == {1, 2, 3} and naive_chi(g) == 3

    @given(graphs(max_n=12))
    @example(cycle(5))
    @example(_DSATUR_HARD)
    @settings(max_examples=150, deadline=None)
    def test_greedy_coloring_is_dsatur(self, g):
        assert _first_coloring(g) == naive_dsatur(g)

    def test_deep_searches_run_without_recursion(self):
        long_path = path(1500)
        c = find_coloring(long_path, 2)
        assert c.palette_size == 2 and is_proper(long_path, c)
        # the DSATUR-hard graph above with a 1200-vertex path hung off vertex
        # 7: DSATUR still needs 4 colors, so chi comes from the branch and
        # bound, whose depth is the order
        g = Graph(1208, list(_DSATUR_HARD.edges) + [(v, v + 1) for v in range(7, 1207)])
        assert max(_first_coloring(g)) == 4
        colors = _min_coloring(g, Meter())
        assert all(colors[u] != colors[v] for u, v in g.edges)
        assert set(colors) == {1, 2, 3} and chromatic_number(g) == 3

    @given(graphs(max_n=10))
    @example(_K4_BESIDE_STARS)
    @example(_HARD_THEN_STAR)
    @example(_STAR_THEN_HARD)
    @example(Graph(6))
    @example(Graph(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]))
    @example(cycle(5))
    @example(_GROETZSCH)
    @example(_HARD_THEN_K4)
    @example(_K4_THEN_HARD)
    @settings(max_examples=50, deadline=None)
    def test_min_coloring_is_optimal(self, g):
        # a stop before the search is exhausted must not leave too many colors
        colors = _min_coloring(g, Meter())
        assert all(colors[u] != colors[v] for u, v in g.edges)
        assert max(colors) == _naive_chi_by_component(g)
        assert colors == _min_coloring(g, Meter())

    @pytest.mark.parametrize("g", [_HARD_THEN_K4, _K4_THEN_HARD])
    def test_growth_cap_stop_beside_k4(self, g):
        # the search stops at once only when the first vertex wearing j sits
        # at depth j - 1. Here the first 4 is deep in the DSATUR-hard
        # component, so it is 3-colored anew before K4 proves 4 needed: 12
        # units for the vertices, 12 nodes for the greedy coloring and 9 more
        assert _min_coloring(g, Meter(33)) == _first_coloring(g)
        with pytest.raises(EnumerationBudgetExceeded):
            _min_coloring(g, Meter(32))
        assert chromatic_number(g) == 4

    @given(two_colorable_graphs())
    @example(Graph(1))
    @example(Graph(9))
    @example(Graph(9, [(6, 2), (2, 8), (8, 0), (5, 4)]))  # isolated vertices beside a path and an edge
    @example(star(7))
    @settings(max_examples=150, deadline=None)
    def test_two_colorable_inputs_take_dsatur_at_its_charge(self, g):
        # the 2-coloring walk stands in for the search: the same coloring
        # and the same 2n units, n live vertices and one per vertex colored
        meter = Meter()
        assert _min_coloring(g, meter) == naive_dsatur(g)
        assert meter.left == coloring.WORK_CAP - 2 * g.order
        with pytest.raises(EnumerationBudgetExceeded):
            _min_coloring(g, Meter(2 * g.order - 1))

    def test_odd_cycle_beside_a_path_reaches_the_search(self, monkeypatch):
        # the walk 2-colors the path, then meets the 5-cycle's odd edge
        g = Graph(8, [(0, 1), (1, 2)] + [(3 + i, 3 + (i + 1) % 5) for i in range(5)])
        searched = []

        def spy(nbrs, live, *args):
            searched.append(live)
            return _search(nbrs, live, *args)

        monkeypatch.setattr(coloring, "_search", spy)
        colors = _min_coloring(g, Meter())
        assert searched == [(1 << 8) - 1]
        assert colors == naive_dsatur(g) and max(colors) == 3

    @given(graphs(max_n=7), st.integers(1, 4))
    @example(_HARD_THEN_STAR, 3)
    @example(_STAR_THEN_HARD, 3)
    @settings(max_examples=80, deadline=None)
    def test_search_decides_k_colorability(self, g, k):
        colors = _k_coloring(g, k)
        assert (colors is not None) == (naive_chi(g) <= k)
        if colors is not None:
            assert max(colors) <= k and all(colors[u] != colors[v] for u, v in g.edges)

    def test_uncolorable_component_stops_the_search(self):
        # K4 beside 12 disjoint K_{1,4} stars: every star's colorings were
        # once retried for each dead end in K4 (about x3 per star, 2.6 s at
        # 12) while the search looked for 3 colors
        start = time.perf_counter()
        assert chromatic_number(_K4_BESIDE_STARS) == 4
        assert time.perf_counter() - start < 1

    def test_disconnected_non_bipartite_input(self):
        # a triangle beside 20 disjoint K_{1,5} stars has no 2-coloring;
        # the search once took about x2 per star (0.46 s at 16)
        edges = [(0, 1), (1, 2), (0, 2)]
        edges += [(c, c + j) for c in range(3, 123, 6) for j in range(1, 6)]
        g = Graph(123, edges)
        start = time.perf_counter()
        assert find_coloring(g, 2) is None
        assert _k_coloring(g, 2) is None
        assert time.perf_counter() - start < 1

    def test_dense_random_graph(self):
        # G(50, 1/2): a fixed-order search for each k once took 23 s here
        rng = random.Random(1)
        g = Graph(50, [(u, v) for u in range(50) for v in range(u + 1, 50)
                       if rng.random() < 0.5])
        start = time.perf_counter()
        assert chromatic_number(g) == 9
        assert time.perf_counter() - start < 5


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
        assert classes(canonical_partition(g)) == ((0, 1), (2, 3))

    def test_unique_bipartition(self):
        assert classes(canonical_partition(path(4))) == ((0, 2), (1, 3))

    def test_complete_graph(self):
        assert classes(canonical_partition(complete(3))) == ((0,), (1,), (2,))

    @given(graphs(max_n=8))
    @settings(max_examples=150, deadline=None)
    @example(Graph(8))
    @example(Graph(8, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5), (6, 7)]))
    @example(Graph(8, [(0, 5), (5, 2), (2, 7), (7, 0), (1, 6), (6, 3), (3, 1)]))
    def test_construction_is_the_least_partition(self, g):
        least = naive_canonical_partition(g)
        assert classes(canonical_partition(g)) == least
        assert min(map(classes, _iter_chi_partitions(g, len(least)))) == least
        # a caller's chi-coloring, as given or relabelled, is only a start
        colors = _min_coloring(g, Meter())
        assert classes(canonical_partition(g, colors)) == least
        ell = max(colors)
        assert classes(canonical_partition(g, [ell + 1 - c for c in colors])) == least

    def test_deep_inputs(self):
        odds, evens = tuple(range(1, 1501, 2)), tuple(range(2, 1501, 2))
        assert classes(canonical_partition(cycle(1501))) == ((0,), odds, evens)
        assert classes(canonical_partition(path(1500))) == (tuple(range(0, 1500, 2)),
                                                            tuple(range(1, 1500, 2)))

    def test_step_cap_counts_dead_ends(self):
        # K6 has no partition into 5 independent sets: the search charges
        # its 6 vertices, then colors 5 before the sixth is a dead end
        assert list(_iter_chi_partitions(complete(6), 5)) == []
        assert list(_iter_chi_partitions(complete(6), 5, Meter(11))) == []
        with pytest.raises(EnumerationBudgetExceeded):
            list(_iter_chi_partitions(complete(6), 5, Meter(10)))
        # P4's one bipartition: 4 units for its vertices, 4 for the nodes
        # and 4 for the partition; the dead ends on the way back cost nothing
        assert len(list(_iter_chi_partitions(path(4), 2, Meter(12)))) == 1
        with pytest.raises(EnumerationBudgetExceeded):
            list(_iter_chi_partitions(path(4), 2, Meter(11)))

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_partitions_in_restricted_growth_order(self, g):
        # the search's order is DSATUR's, but each partition comes once, as
        # its restricted-growth string in index order
        ell = naive_chi(g)
        words = set()  # class of each vertex, classes numbered by first vertex
        for ass in naive_min_colorings(g, ell):
            first: dict[int, int] = {}
            words.add(tuple(first.setdefault(c, len(first)) for c in ass))
        expected = [
            tuple(tuple(v for v in range(g.order) if word[v] == i) for i in range(ell))
            for word in sorted(words)
        ]
        got = list(_iter_chi_partitions(g, ell))
        assert all(restricted_growth(classes(p), g.order) == p for p in got)
        assert [classes(p) for p in sorted(got)] == expected

    @given(relabeled_graphs())
    @settings(max_examples=80, deadline=None)
    # classes that span components: pinning each component's first vertex
    # to one color would lose all but one of these 2-partitions
    @example(Graph(6, [(3, 1), (0, 5), (2, 4)]))
    @example(Graph(7, [(6, 2), (2, 4), (4, 6), (0, 5), (1, 3)]))
    @example(Graph(5))
    def test_each_chi_partition_comes_once(self, g):
        ell = naive_chi(g)
        got = list(_iter_chi_partitions(g, ell))
        assert len(set(got)) == len(got)
        words = set()
        for ass in naive_min_colorings(g, ell):
            first: dict[int, int] = {}
            words.add(tuple(first.setdefault(c, len(first)) for c in ass))
        assert set(got) == words

    def test_labelings_come_in_assignment_order(self):
        partition = restricted_growth(((1, 4), (0, 3), (2,)), 5)
        got = [c.assignment for c in colorings_of_partition(partition)]
        assert got == sorted(got) and len(got) == 6
        assert got[0] == (1, 2, 3, 1, 2)
