"""Claim registry behaviour: coverage, selection, determinism, honest verdicts."""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from chromatic_zagreb import cli, verify
from chromatic_zagreb.coloring import Coloring
from chromatic_zagreb.generators import generate, parse_family_spec
from chromatic_zagreb.indices import chromatic_m2, chromatic_m3
from chromatic_zagreb.verify import (
    REGISTRY,
    ClaimResult,
    CorpusConfig,
    UnknownClaimError,
    _report,
    build_report,
    claim_ids,
    report_to_csv,
    report_to_json,
    run_claims,
    select_claims,
)

SMALL = CorpusConfig(max_order=5, random_graph_count=12, random_tree_count=10,
                     monotonicity_samples=1, tree_max_order=6)

# sha256 of report_to_json(build_report(SMALL, run_claims(SMALL, "all")));
# it pins every expected / actual string, verdict and witness in the report
SMALL_REPORT_SHA256 = "298804b4c3ba9dc2f869f616aeb92b540dffb0bd8772f511fc0ff2e8553fb547"
# the same digest for the default config, the one `czi verify` runs: it
# alone reaches the order-7 and order-8 bipartite classes and the 7^7
# oracle decode of complete:7
DEFAULT_REPORT_SHA256 = "1fb53d56b98d31129af2f99dcea905ac019c9e38a04a4ed49959ad750bf20495"


class TestRegistry:
    def test_every_numbered_statement_covered(self):
        ids = claim_ids()
        required_prefixes = [
            "obs-i", "obs-ii", "obs-iii", "obs-iv", "obs-v", "obs-vi", "obs-vii",
            "obs-viii", "obs-ix", "obs-x", "obs-xi", "obs-xii",
            "prop-2.1-i", "prop-2.1-ii", "prop-2.1-iii",
            "thm-2.2-i", "thm-2.2-ii", "thm-2.2-iii",
            "cor-2.3-i", "cor-2.3-ii", "cor-2.3-iii",
            "thm-3.1-i", "thm-3.1-ii", "thm-3.1-iii",
            "lem-3.2-i", "lem-3.2-ii-max", "lem-3.2-ii-min-printed",
            "lem-3.2-ii-min-corrected", "lem-3.2-iii-printed", "lem-3.2-iii-minmax",
            "prop-3.3-i", "prop-3.3-ii", "prop-3.3-iii-printed",
            "prop-3.3-iii-corrected",
            "thm-3.4-i", "thm-3.4-ii", "thm-3.4-iii", "thm-3.4-iv", "thm-3.4-v",
            "thm-3.4-vi",
            "thm-4.2-i", "thm-4.2-ii", "thm-4.4", "prop-4.6",
            "oracle-extrema", "oracle-enumeration",
        ]
        for rid in required_prefixes:
            assert rid in ids, f"registry is missing {rid}"

    def test_must_hold_set(self):
        must = {c.claim_id for c in REGISTRY if c.must_hold}
        assert must == {f"obs-{r}" for r in
                        ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii",
                         "ix", "x", "xi", "xii")} | {"oracle-extrema",
                                                     "oracle-enumeration"}

    def test_ids_unique(self):
        ids = claim_ids()
        assert len(ids) == len(set(ids))


class TestSelection:
    def test_all(self):
        assert len(select_claims("all")) == len(REGISTRY)

    def test_range(self):
        got = [c.claim_id for c in select_claims("obs-i..obs-xii")]
        assert len(got) == 12 and got[0] == "obs-i" and got[-1] == "obs-xii"

    def test_prefix(self):
        got = [c.claim_id for c in select_claims("lem-3.2")]
        assert all(c.startswith("lem-3.2") for c in got) and len(got) == 6

    def test_comma_list_dedupes_and_keeps_registry_order(self):
        got = [c.claim_id for c in select_claims("thm-4.4,obs-i,thm-4.4")]
        assert got == ["obs-i", "thm-4.4"]

    def test_unknown(self):
        with pytest.raises(UnknownClaimError):
            select_claims("nonsense")
        with pytest.raises(UnknownClaimError):
            select_claims("obs-i..nonsense")
        with pytest.raises(UnknownClaimError):
            select_claims("obs-xii..obs-i")
        with pytest.raises(UnknownClaimError):
            select_claims("")


class TestDeterminism:
    def test_reports_byte_identical(self):
        a = report_to_json(build_report(SMALL, run_claims(SMALL, "all")))
        b = report_to_json(build_report(SMALL, run_claims(SMALL, "all")))
        assert a == b

    def test_report_matches_pinned_digest(self):
        text = report_to_json(build_report(SMALL, run_claims(SMALL, "all")))
        assert hashlib.sha256(text.encode()).hexdigest() == SMALL_REPORT_SHA256

    def test_default_report_matches_pinned_digest(self):
        config = CorpusConfig()
        text = report_to_json(build_report(config, run_claims(config, "all")))
        assert hashlib.sha256(text.encode()).hexdigest() == DEFAULT_REPORT_SHA256

    def test_report_cache_holds_one_run(self):
        second = CorpusConfig(max_order=4, random_graph_count=3, random_tree_count=3,
                              monotonicity_samples=1, tree_max_order=5, seed=1)
        _report.cache_clear()
        run_claims(second, "oracle-extrema")
        alone = _report.cache_info().currsize
        run_claims(SMALL, "oracle-extrema")
        assert _report.cache_info().currsize > alone
        run_claims(second, "oracle-extrema")
        assert _report.cache_info().currsize == alone

    def test_corpora_built_once_per_run(self, monkeypatch):
        calls = []

        def counted(build):
            def wrapper(*args):
                calls.append(build.__name__)
                return build(*args)
            return wrapper

        for name in ("family_corpus", "random_tree_corpus"):
            monkeypatch.setattr(verify, name, counted(getattr(verify, name)))
        for _ in range(2):
            calls.clear()
            run_claims(SMALL, "thm-3.1,thm-4.2,oracle-extrema,oracle-enumeration")
            assert sorted(calls) == ["family_corpus", "random_tree_corpus"]

    def test_oracle_runs_once_per_distinct_graph(self, monkeypatch):
        corpus = [("path:4", generate(parse_family_spec("path:4"))),
                  ("complete:4", generate(parse_family_spec("complete:4"))),
                  ("random:4:0", generate(parse_family_spec("path:4")))]
        calls = []

        def counted(g):
            calls.append(g)
            return oracle(g)

        oracle = verify.oracle_extrema
        monkeypatch.setattr(verify, "_oracle_corpus", lambda config: iter(corpus))
        monkeypatch.setattr(verify, "oracle_extrema", counted)
        res = run_claims(SMALL, "oracle-extrema")
        assert sorted(r.instance for r in res) == sorted(label for label, _ in corpus)
        assert all(r.verdict == "verified" for r in res)
        assert calls == [corpus[0][1], corpus[1][1]]

    def test_oracle_stream_runs_once_per_distinct_graph(self, monkeypatch):
        corpus = [("path:4", generate(parse_family_spec("path:4"))),
                  ("complete:4", generate(parse_family_spec("complete:4"))),
                  ("random:4:0", generate(parse_family_spec("path:4"))),
                  ("path:7", generate(parse_family_spec("path:7")))]
        calls = []

        def counted(g):
            calls.append(g)
            return oracle(g)

        oracle = verify.oracle_min_colorings
        monkeypatch.setattr(verify, "_oracle_corpus", lambda config: iter(corpus))
        monkeypatch.setattr(verify, "oracle_min_colorings", counted)
        res = run_claims(CorpusConfig(max_order=7), "oracle-enumeration")
        assert sorted(r.instance for r in res) == ["complete:4", "path:4", "random:4:0"]
        assert all(r.verdict == "verified" for r in res)
        assert calls == [corpus[0][1], corpus[1][1]]

    def test_family_list_restricts_corpus(self):
        cfg = CorpusConfig(max_order=5, random_graph_count=0, random_tree_count=5,
                           monotonicity_samples=1, tree_max_order=5,
                           families=("path", "star"))
        res = run_claims(cfg, "oracle-extrema")
        kinds = {r.instance.split(":")[0] for r in res}
        assert kinds == {"path", "star"}

    def test_seed_changes_random_instances(self):
        other = CorpusConfig(max_order=5, random_graph_count=12, random_tree_count=10,
                             monotonicity_samples=1, tree_max_order=6, seed=1)
        a = [r.actual for r in run_claims(SMALL, "thm-2.2-i")]
        b = [r.actual for r in run_claims(other, "thm-2.2-i")]
        assert a != b


class TestVerdicts:
    def test_golden_observations_all_verified(self):
        res = run_claims(SMALL, "obs-i..obs-xii")
        assert len(res) == 12
        assert all(r.verdict == "verified" for r in res)

    def test_printed_min_form_counterexample_on_k22(self):
        res = run_claims(SMALL, "lem-3.2-ii-min-printed")
        k22 = [r for r in res if r.instance == "multipartite:2,2"]
        assert len(k22) == 1 and k22[0].verdict == "counterexample"
        assert "cm2_min=0" in k22[0].expected and "cm2_min=8" in k22[0].actual

    def test_corrected_min_form_verified_everywhere(self):
        res = run_claims(SMALL, "lem-3.2-ii-min-corrected")
        assert len(res) == 31  # every sorted size tuple, r in 2..4, parts in 1..3
        assert all(r.verdict == "verified" for r in res)

    def test_minmax_assertion_refuted_at_1_1_2(self):
        res = run_claims(SMALL, "lem-3.2-iii-minmax")
        hit = [r for r in res if r.instance == "multipartite:1,1,2"]
        assert hit[0].verdict == "counterexample"
        assert "cm3=(6,7)" in hit[0].actual

    def test_printed_equal_partite_cm3_counterexample_on_k3(self):
        res = run_claims(SMALL, "prop-3.3-iii-printed")
        k3 = [r for r in res if r.instance == "equal-multipartite:1,3"]
        assert k3[0].verdict == "counterexample"
        assert "6" in k3[0].expected and "cm3=(4,4)" in k3[0].actual

    @pytest.mark.parametrize("claims,inexact,status", [
        *((claims, "report", "bounds_only") for claims in (
            "obs", "prop-2.1", "thm-2.2", "cor-2.3", "thm-3.1", "lem-3.2", "prop-3.3",
            "thm-3.4", "thm-4.2", "oracle-extrema")),
        ("cor-2.3", "supergraph", "bounds_only"),
        ("prop-4.6", "rho", "upper_bound"),
    ])
    def test_inexact_engine_value_is_not_judged(self, monkeypatch, claims, inexact, status):
        real_report, real_stability = verify.full_report, verify.stability_report
        real_subgraph, supergraphs = verify.spanning_connected_subgraph, set()
        # the thorn bases' reports build the forms, so they stay exact and
        # the m = 0 thorns, the bases themselves, are judged
        bases = {generate(spec) for spec in verify._THORN_BASES} if claims == "thm-3.4" else ()

        def report(g, **kw):
            r = real_report(g, **kw)
            if inexact == "report" and g not in bases or g in supergraphs:
                r = dataclasses.replace(r, status="bounds_only")
            return r

        def subgraph(g, rng):
            if inexact == "supergraph":
                supergraphs.add(g)
            return real_subgraph(g, rng)

        monkeypatch.setattr(verify, "full_report", report)
        monkeypatch.setattr(verify, "spanning_connected_subgraph", subgraph)
        monkeypatch.setattr(verify, "stability_report", lambda g: dataclasses.replace(
            real_stability(g), rho_status=status) if inexact == "rho" else real_stability(g))
        res = run_claims(SMALL, claims)
        judged = [r for r in res if bases and r.instance.endswith(";0)")]
        skipped = [r for r in res if r not in judged]
        assert skipped and all(
            (r.verdict, r.actual, r.witness) == ("skipped_budget", f"engine status {status}", None)
            for r in skipped)
        assert len(judged) == (24 if bases else 0)
        assert all(r.verdict == "verified" for r in judged)

    def test_inexact_engine_report_fails_oracle_extrema(self, capsys, monkeypatch):
        real = verify.full_report
        monkeypatch.setattr(verify, "full_report", lambda g, **kw: dataclasses.replace(
            real(g, **kw), status="bounds_only"))
        res = run_claims(SMALL, "oracle-extrema")
        assert res and all(
            (r.verdict, r.must_hold, r.actual, r.witness)
            == ("skipped_budget", True, "engine status bounds_only", None) for r in res)
        assert build_report(SMALL, res)["summary"]["must_hold_failures"] == ["oracle-extrema"]
        assert cli.main(["verify", "--claims", "oracle-extrema", "--max-order", "4",
                         "--random-graphs", "2"]) == 3
        assert "must-hold failures: oracle-extrema" in capsys.readouterr().err

    def test_prop_4_6_double_star_counterexample_recorded(self):
        cfg = CorpusConfig(max_order=7, random_graph_count=5, random_tree_count=5,
                           monotonicity_samples=1, tree_max_order=6)
        res = run_claims(cfg, "prop-4.6")
        bad = [r for r in res if r.verdict == "counterexample"]
        assert len(bad) == 1
        assert "rho = theta1*theta2 - size = 6" in bad[0].expected
        assert "5" in bad[0].actual

    def test_counterexample_witnesses_reevaluate_through_public_api(self):
        for claim, fn, field in [
            ("lem-3.2-ii-min-printed", chromatic_m2, "cm2_min="),
            ("lem-3.2-iii-minmax", chromatic_m3, "cm3=("),
        ]:
            for r in run_claims(SMALL, claim):
                if r.verdict != "counterexample":
                    continue
                assert r.witness is not None
                g = generate(parse_family_spec(r.instance))
                got = fn(g, Coloring.from_assignment(r.witness))
                assert str(got) in r.actual


class TestReportShapes:
    def test_summary_and_schema(self, schema_validator):
        res = run_claims(SMALL, "obs-i..obs-xii,thm-3.4-i")
        report = build_report(SMALL, res)
        schema_validator(report, "verify_report.schema.json")
        s = report["summary"]
        assert s["instances"] == len(res)
        assert s["verified"] + s["counterexample"] + s["skipped_budget"] == len(res)
        assert s["must_hold_failures"] == []
        assert report["config"]["seed"] == 0

    def test_must_hold_failure_listed(self):
        fake = [ClaimResult("oracle-extrema", "x", "e", "a", "counterexample", True)]
        report = build_report(SMALL, fake)
        assert report["summary"]["must_hold_failures"] == ["oracle-extrema"]

    def test_csv(self):
        res = run_claims(SMALL, "obs-i")
        text = report_to_csv(res)
        lines = text.strip().split("\n")
        assert lines[0].startswith("claim_id,instance")
        assert len(lines) == 2 and '"obs-i"' in lines[1]

    def test_json_round_trips(self):
        res = run_claims(SMALL, "obs-i..obs-iii")
        text = report_to_json(build_report(SMALL, res))
        assert json.loads(text)["summary"]["verified"] == 3
