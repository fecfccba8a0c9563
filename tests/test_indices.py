"""Classical and chromatic index values, extrema, and report invariants."""

from __future__ import annotations

from collections import Counter
from itertools import permutations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chromatic_zagreb import indices
from chromatic_zagreb.coloring import (
    Coloring,
    _iter_chi_partitions,
    chromatic_number,
    enumerate_min_colorings,
    is_proper,
)
from chromatic_zagreb.families import complete_graph_forms
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
        f"cm{k}_{end}": (value, witness.assignment)
        for k, (lo, lo_w, hi, hi_w) in results.items()
        for end, value, witness in (("min", lo, lo_w), ("max", hi, hi_w))
    }


def _swept(g, semantics):
    """Values and least witnesses from the coloring-stream sweep, by report key."""
    return _by_key(_sweep(g, enumerate_min_colorings(g, semantics)))


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
        g = _cycle5_join_k2()
        monkeypatch.setattr(indices, "MAX_ORDER", 3)
        monkeypatch.setattr(indices, "MAX_COLORINGS", 5)
        r = chromatic_extrema(g, 1)
        assert r.status == "bounds_only"
        assert r.semantics_used == "permutation"
        # fallback values are genuine coloring values, hence valid bounds
        monkeypatch.undo()
        exact = chromatic_extrema(g, 1)
        assert exact.minimum <= r.minimum and r.maximum <= exact.maximum
        assert is_proper(g, r.min_witness)

    def test_budget_cap_counts_colorings(self, monkeypatch):
        # 5 chi-partitions (those of the 5-cycle) times 5! labelings
        g = _cycle5_join_k2()
        assert len(list(enumerate_min_colorings(g, "all"))) == 600
        monkeypatch.setattr(indices, "MAX_COLORINGS", 600)
        at_cap = chromatic_extrema(g, 1)
        assert at_cap.status == "exact" and at_cap.semantics_used == "all"
        monkeypatch.setattr(indices, "MAX_COLORINGS", 599)
        below = chromatic_extrema(g, 1)
        assert below.status == "bounds_only" and below.semantics_used == "permutation"

    def test_clique_scores_one_labeling(self, monkeypatch):
        # all ten classes of K10 are twins; 10! labelings took 4.7 s
        scored = []

        def counted(lower):
            for p in labelings(lower):
                scored.append(p)
                yield p

        labelings = indices._labelings
        monkeypatch.setattr(indices, "_labelings", counted)
        r = full_report(complete(10))
        assert r.status == "exact" and r.semantics_used == "all"
        assert scored == [tuple(range(1, 11))]
        assert r.cm1_min == r.cm1_max == 385


def _cycle5_join_k2() -> Graph:
    """C5 joined to K2: chi 5, and a frontier too wide for the DP."""
    edges = [*cycle(5).edges, *[(v, w) for v in range(5) for w in (5, 6)], (5, 6)]
    g = Graph(7, edges)
    assert 5 ** indices._frontier_width(g.adjacency_masks, 7) << 5 > indices.FRONTIER_STATES
    return g


class TestFrontierDP:
    @given(graphs(max_n=8))
    @example(Graph(8))
    @example(complete(5))
    @example(Graph(8, [(0, 7), (1, 2), (3, 4), (4, 5), (3, 5)]))
    @settings(max_examples=60, deadline=None)
    def test_matches_partition_path_and_naive(self, g):
        ell = chromatic_number(g)
        assume(ell ** g.order <= 4 ** 8)  # keeps the naive filter cheap
        dp = _by_key(indices._frontier_extrema(g, ell))
        assert dp == _by_key(indices._sweep_partitions(g, ell, _iter_chi_partitions(g, ell)))
        assert dp == naive_extrema_witnesses(g)

    def test_work_cap_sends_long_inputs_past_the_dp(self, monkeypatch):
        # a cycle's frontier has width 2: at most 3**2 * 2**3 = 72 states a layer
        monkeypatch.setattr(indices, "FRONTIER_WORK", 72 * 20)
        assert full_report(cycle(19)).status == "exact"
        r = full_report(cycle(21))
        assert r.status == "bounds_only" and r.semantics_used == "permutation"

    def test_frontier_width(self):
        assert indices._frontier_width(path(9).adjacency_masks, 9) == 1
        assert indices._frontier_width(cycle(9).adjacency_masks, 9) == 2
        assert indices._frontier_width(complete(6).adjacency_masks, 6) == 5
        assert indices._frontier_width(Graph(4).adjacency_masks, 4) == 0


@st.composite
def quotients(draw, max_ell=7):
    """Class sizes and edge counts between class pairs; small ranges make twins common."""
    ell = draw(st.integers(min_value=1, max_value=max_ell))
    sizes = draw(st.lists(st.integers(1, 2), min_size=ell, max_size=ell))
    between = Counter()
    for a in range(ell):
        for b in range(a + 1, ell):
            between[(a, b)] = draw(st.integers(0, 2))
    return sizes, between


class TestTwinOrderedLabelings:
    @given(quotients())
    @example(([1] * 7, Counter({(a, b): 1 for a in range(7) for b in range(a + 1, 7)})))
    @settings(max_examples=80, deadline=None)
    def test_matches_filtered_permutations(self, quotient):
        lower = indices._twin_lower(*quotient)
        want = [
            p for p in permutations(range(1, len(lower) + 1))
            if all(p[i] < p[j] for j, i in enumerate(lower) if i >= 0)
        ]
        assert list(indices._labelings(lower)) == want
        assert indices._labeling_count(lower) == len(want)

    def test_one_large_group_has_one_labeling(self):
        lower = [-1, *range(39)]
        assert list(indices._labelings(lower)) == [tuple(range(1, 41))]
        assert indices._labeling_count(lower) == 1


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
        row = r.to_csv_row()
        assert row.split(",")[0] == "cycle:5"
        assert len(row.split(",")) == len(r.csv_header().split(","))
