"""Classical and chromatic index values, extrema, and report invariants."""

from __future__ import annotations

from collections import Counter
from itertools import permutations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chromatic_zagreb import coloring, indices
from chromatic_zagreb.coloring import (
    Coloring,
    Meter,
    _iter_chi_partitions,
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


def _least_extrema(score, ell):
    """(min, labels, max, labels) of score over all ell! labelings, each
    with the least labeling attaining it."""
    scored = [(score(p), p) for p in permutations(range(1, ell + 1))]
    lo, hi = min(scored), min(scored, key=lambda t: (-t[0], t[1]))
    return (*lo, *hi)


def _products(between):
    """The cm2 sum of a quotient labeling, sum e_ab p_a p_b."""
    return lambda p: sum(e * p[a] * p[b] for (a, b), e in between.items())


@pytest.fixture
def walked(monkeypatch):
    """The labelings the cm2 walk scores, in the order it scores them."""
    scored = []

    def counted(lower):
        for p in labelings(lower):
            scored.append(p)
            yield p

    labelings = indices._labelings
    monkeypatch.setattr(indices, "_labelings", counted)
    return scored


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
        # a cap below even the canonical partition's 16 quotient edges
        g = _cycle5_join_k2()
        monkeypatch.setattr(coloring, "WORK_CAP", 5)
        r = chromatic_extrema(g, 1)
        assert r.status == "bounds_only"
        assert r.semantics_used == "permutation"
        # fallback values are genuine coloring values, hence valid bounds
        monkeypatch.undo()
        exact = chromatic_extrema(g, 1)
        assert exact.minimum <= r.minimum and r.maximum <= exact.maximum
        assert is_proper(g, r.min_witness)

    def test_budget_cap_counts_work_units(self, monkeypatch):
        # 5 chi-partitions (those of the 5-cycle): the walk's 36 backtracks
        # and 7 units per partition, then per quotient its 16 edges, the 33
        # moves of its cut DP and its 5! packed labelings
        g = _cycle5_join_k2()
        meter = Meter()
        assert len(list(_iter_chi_partitions(g, 5, meter))) == 5
        assert coloring.WORK_CAP - meter.left == 36 + 5 * 7
        indices._sweep_partitions(g, 5, _iter_chi_partitions(g, 5), meter)
        assert coloring.WORK_CAP - meter.left == 916 == 71 + 5 * (16 + 33 + 120)
        monkeypatch.setattr(coloring, "WORK_CAP", 916)
        at_cap = chromatic_extrema(g, 1)
        assert at_cap.status == "exact" and at_cap.semantics_used == "all"
        monkeypatch.setattr(coloring, "WORK_CAP", 915)
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
        (meter,) = meters
        assert meter.spent < 300

    @pytest.mark.parametrize("spec", ["multipartite:5,5,5,5", "multipartite:2,3,4,4,5"])
    def test_one_partition_multipartite_is_exact(self, spec):
        # a complete multipartite graph has one chi-partition, the canonical one
        g = generate(parse_family_spec(spec))
        r = full_report(g)
        assert r.status == "exact" and r.semantics_used == "all"
        assert r.to_json_dict(True) | {"semantics_used": "permutation"} == \
            full_report(g, "permutation").to_json_dict(True)

    def test_clique_scores_one_labeling(self, walked):
        # all ten classes of K10 are twins; 10! labelings took 4.7 s
        r = full_report(complete(10))
        assert r.status == "exact" and r.semantics_used == "all"
        assert walked == [tuple(range(1, 11))]
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
        dp = _by_key(indices._frontier_extrema(g, ell, Meter()))
        partitions = _iter_chi_partitions(g, ell)
        assert dp == _by_key(indices._sweep_partitions(g, ell, partitions, Meter()))
        assert dp == naive_extrema_witnesses(g)

    def test_work_cap_sends_long_inputs_past_the_dp(self, monkeypatch):
        # the DP makes 483 moves on cycle:19 and 543 on cycle:21
        monkeypatch.setattr(coloring, "WORK_CAP", 500)
        assert full_report(cycle(19)).status == "exact"
        r = full_report(cycle(21))
        assert r.status == "bounds_only" and r.semantics_used == "permutation"

    def test_work_cap_counts_reached_states(self):
        # its bound, 260 * 4**4 * 2**4 states, is past WORK_CAP, but the DP
        # makes 12,352 moves from the states it reaches; the canonical
        # partition gave cm3 (330, 586)
        g = generate(parse_family_spec("thorn(complete:4;64)"))
        assert indices._frontier_width(g.adjacency_masks, 260) == 4
        assert 260 * 4 ** 4 << 4 > coloring.WORK_CAP
        r = full_report(g)
        assert r.status == "exact" and r.semantics_used == "all"
        assert (r.cm3_min, r.cm3_max) == (266, 650)

    def test_frontier_width(self):
        assert indices._frontier_width(path(9).adjacency_masks, 9) == 1
        assert indices._frontier_width(cycle(9).adjacency_masks, 9) == 2
        assert indices._frontier_width(complete(6).adjacency_masks, 6) == 5
        assert indices._frontier_width(Graph(4).adjacency_masks, 4) == 0


@st.composite
def quotients(draw, max_ell=7, max_count=2):
    """Class sizes and edge counts between class pairs; small ranges make twins common."""
    ell = draw(st.integers(min_value=1, max_value=max_ell))
    sizes = draw(st.lists(st.integers(1, 2), min_size=ell, max_size=ell))
    between = Counter()
    for a in range(ell):
        for b in range(a + 1, ell):
            between[(a, b)] = draw(st.integers(0, max_count))
    return sizes, between


def _twin_lower(sizes, between):
    return indices._twin_lower(sizes, indices._edge_counts(len(sizes), between))


# a 7-clique quotient, one twin group; a 7-class quotient with no twins
CLIQUE_7 = ([1] * 7, Counter({(a, b): 1 for a in range(7) for b in range(a + 1, 7)}))
TWIN_FREE_7 = ([1] * 7, Counter({(a, b): (a + 2 * b) % 3 for a in range(7) for b in range(a + 1, 7)}))


class TestTwinOrderedLabelings:
    @given(quotients())
    @example(CLIQUE_7)
    @settings(max_examples=80, deadline=None)
    def test_matches_filtered_permutations(self, quotient):
        lower = _twin_lower(*quotient)
        want = [
            p for p in permutations(range(1, len(lower) + 1))
            if all(p[i] < p[j] for j, i in enumerate(lower) if i >= 0)
        ]
        assert list(indices._labelings(lower)) == want
        assert indices._labeling_count(lower) == len(want)

    @given(quotients())
    @example(CLIQUE_7)
    @example(TWIN_FREE_7)
    @settings(max_examples=60, deadline=None)
    def test_labeling_extrema_match_all_permutations(self, quotient):
        sizes, between = quotient
        scores = (
            lambda p: sum(s * x * x for s, x in zip(sizes, p)),
            _products(between),
            lambda p: sum(e * abs(p[a] - p[b]) for (a, b), e in between.items()),
        )
        want = [_least_extrema(score, len(sizes)) for score in scores]
        assert list(indices._labeling_extrema(sizes, between, Meter())) == want

    def test_one_large_group_has_one_labeling(self):
        lower = [-1, *range(39)]
        assert list(indices._labelings(lower)) == [tuple(range(1, 41))]
        assert indices._labeling_count(lower) == 1
        # the cut DP meets 41 prefix sets, not 2**40; C(41, 3) = sum (b - a)
        between = Counter({(a, b): 1 for a in range(40) for b in range(a + 1, 40)})
        counts = indices._edge_counts(40, between)
        assert indices._cut_extrema(counts, lower, Meter()) == (10660, tuple(range(1, 41))) * 2


class TestPackedProducts:
    # counts up to 10**6 fill the fields: 21 * 10**6 * 7 * 6 is near 2**30
    @given(quotients(max_count=10**6))
    @example(CLIQUE_7)
    @example(TWIN_FREE_7)
    @settings(max_examples=60, deadline=None)
    def test_product_extrema_match_all_permutations(self, quotient):
        sizes, between = quotient
        want = _least_extrema(_products(between), len(sizes))
        assert indices._labeling_extrema(sizes, between, Meter())[1] == want

    def test_nth_labeling_is_lexicographic(self):
        for ell in range(1, 7):
            for k, p in enumerate(permutations(range(1, ell + 1))):
                assert indices._nth_labeling(ell, k) == p

    def test_seven_classes_walk_no_labeling(self, walked):
        assert _twin_lower(*TWIN_FREE_7) == [-1] * 7
        indices._labeling_extrema(*TWIN_FREE_7, Meter())
        assert walked == []

    def test_few_labelings_walk(self, walked):
        # one twin-ordered labeling of 7! walks; its sum over all pairs of
        # 1..7 is (28**2 - 140) / 2
        assert indices._labeling_extrema(*CLIQUE_7, Meter())[1] == (322, tuple(range(1, 8))) * 2
        assert walked == [tuple(range(1, 8))]

    def test_eight_classes_walk(self, walked):
        sizes = [1] * 8
        between = Counter({(a, b): (a + 2 * b) % 3 for a in range(8) for b in range(a + 1, 8)})
        assert _twin_lower(sizes, between) == [-1] * 8
        got = indices._labeling_extrema(sizes, between, Meter())[1]
        assert len(walked) == 40320
        assert got == _least_extrema(_products(between), 8)

    def test_sums_past_a_field_walk(self, walked):
        # the bound (2**30 + 3) * 3 * 2 passes 2**32, and so do the sums
        between = Counter({(0, 1): 2**30, (0, 2): 1, (1, 2): 2})
        got = indices._labeling_extrema([1, 1, 1], between, Meter())[1]
        assert len(walked) == 6
        assert got == _least_extrema(_products(between), 3)
        assert got[2] > 2**32


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
