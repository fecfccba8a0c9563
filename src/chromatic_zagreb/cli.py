"""Command-line front end: compute, family, stability, verify.

Exit codes: 0 success, 1 usage error, 2 parse error, 3 must-hold claim
failure, 4 a search past its work cap or memory run out: before any
report, or under --strict behind a bounds-only result or a skipped verify row.
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
from io import StringIO

from . import coloring
from . import families as fam
from .generators import FamilySpecError, generate, parse_family_spec
from .graph import Graph
from .indices import EXTREMA_KEYS, IndexReport, full_report, thorn_base_data
from .io import GraphParseError, load_graph
from .stability import stability_report
from .verify import (
    CorpusConfig,
    UnknownClaimError,
    build_report,
    claim_ids,
    report_to_csv,
    report_to_json,
    run_claims,
    select_claims,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_CLAIM_FAILURE = 3
EXIT_BUDGET = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to status 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _count(text: str) -> int:
    """argparse type for sizes and counts: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The czi parser, built once; each subcommand's ``run`` serves it."""
    parser = _Parser(prog="czi", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser(
        "compute", help="classical and chromatic Zagreb indices for one graph"
    )
    src = p_compute.add_argument_group("input (exactly one)")
    src.add_argument("--input", metavar="FILE",
                     help="graph file; format by extension: .g6, .col, .txt")
    src.add_argument("--family", metavar="SPEC",
                     help="family spec, e.g. complete:4 or thorn(path:4;2)")
    p_compute.add_argument("--semantics", choices=("all", "permutation"), default="all")
    p_compute.add_argument("--paper-compat", choices=("on", "off"), default="off",
                           help="report the conventional order-1 defaults (default off)")
    p_compute.add_argument("--witness", action="store_true",
                           help="include witness colorings in JSON output")
    p_compute.add_argument("--format", choices=("json", "csv"), default="json")
    p_compute.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    p_compute.add_argument("--strict", action="store_true",
                           help="exit 4 when results fall back to bounds")
    p_compute.set_defaults(run=_cmd_compute)

    p_family = sub.add_parser(
        "family", help="closed-form family values, with an enumeration column when cheap"
    )
    p_family.add_argument("spec", metavar="SPEC",
                          help="complete:n, tree:n, multipartite:sizes, "
                               "equal-multipartite:n,r, complete-bipartite:a,b, "
                               "thorn(base;m)")
    p_family.add_argument("--variant", choices=("as_printed", "corrected", "both"),
                          default="both")
    p_family.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p_family.add_argument("--oracle-max-order", type=_count, default=9,
                          help="enumerate the instance when its order is at most this")
    p_family.add_argument("--out", metavar="PATH")
    p_family.set_defaults(run=_cmd_family)

    p_stab = sub.add_parser("stability", help="chromatic stability verdict and number")
    p_stab.add_argument("--input", metavar="FILE")
    p_stab.add_argument("--family", metavar="SPEC")
    p_stab.add_argument("--format", choices=("line", "json"), default="line")
    p_stab.add_argument("--out", metavar="PATH", help="also write the JSON report here")
    p_stab.set_defaults(run=_cmd_stability)

    ids = claim_ids()
    id_lines = [", ".join(ids[i:i + 5]) for i in range(0, len(ids), 5)]
    p_verify = sub.add_parser(
        "verify",
        help="run the claim registry over seeded corpora and write a report",
        epilog="claim ids:\n  " + "\n  ".join(id_lines),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    defaults = CorpusConfig()
    p_verify.add_argument("--max-order", type=_count, default=defaults.max_order)
    p_verify.add_argument("--seed", type=int, default=defaults.seed)
    p_verify.add_argument("--claims", default="all",
                          help="comma list of ids, prefixes, or ranges like obs-i..obs-xii")
    p_verify.add_argument("--out", metavar="PATH",
                          help="write the JSON report here (default: stdout)")
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")
    p_verify.add_argument("--strict", action="store_true",
                          help="exit 4 when any instance was skipped on an inexact engine value")
    p_verify.add_argument("--random-graphs", type=_count, default=defaults.random_graph_count)
    p_verify.add_argument("--random-trees", type=_count, default=defaults.random_tree_count)
    p_verify.add_argument("--samples", type=_count, default=defaults.monotonicity_samples,
                          help="random instances per order in the monotonicity suites")
    p_verify.add_argument("--tree-max-order", type=_count, default=defaults.tree_max_order)
    p_verify.set_defaults(run=_cmd_verify)
    return parser


def _emit(text: str, out_path: str | None, mode: str = "w") -> None:
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:  # main maps ValueError to a usage error
        raise ValueError(f"cannot write {out_path}: {exc.strerror or exc}") from None


def _csv(rows) -> str:
    """RFC 4180 text: cells quoted only when they hold a comma, quote or newline."""
    out = StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _load_one_graph(args, parser: argparse.ArgumentParser) -> tuple[Graph, str]:
    if bool(args.input) == bool(args.family):
        parser.error("exactly one of --input and --family is required")
    if args.input:
        try:
            return load_graph(args.input), args.input
        except (OSError, UnicodeDecodeError) as exc:
            raise GraphParseError(f"cannot read {args.input}: {exc}") from None
    spec = parse_family_spec(args.family)
    return generate(spec), spec.label()


def _cmd_compute(args, parser) -> int:
    g, label = _load_one_graph(args, parser)
    report = full_report(
        g,
        semantics=args.semantics,
        paper_compat=(args.paper_compat == "on"),
        label=label,
    )
    if args.format == "csv":
        values = report.to_json_dict().values()
        cells = [str(v).lower() if isinstance(v, bool) else v for v in values]
        text = _csv([IndexReport.CSV_FIELDS, cells])
    else:
        text = report_to_json(report.to_json_dict(include_witnesses=args.witness))
    _emit(text, args.out)
    if args.strict and report.status != "exact":
        return EXIT_BUDGET
    return EXIT_OK


_CLOSED_FORM_KINDS = ("complete", "tree", "multipartite", "complete-bipartite",
                      "complete_multipartite", "equal-multipartite", "thorn")


def _family_records(spec_text: str, variants: list[str], oracle_max: int) -> list[dict]:
    """One record per variant: IndexReport-shaped fields plus formula_variant."""
    s = spec_text.strip()
    kind, _, params = s.partition(":")
    if s.startswith("thorn("):
        kind = "thorn"
    if kind not in _CLOSED_FORM_KINDS:
        raise FamilySpecError(
            f"no closed forms for kind {kind!r}; supported: complete, tree, "
            "multipartite, complete-bipartite, equal-multipartite, thorn(base;m)"
        )
    try:
        # a tree spec names only an order; it parses as the path of that order
        spec = parse_family_spec("path:" + params if kind == "tree" else s)
    except FamilySpecError:
        if kind != "tree":
            raise
        raise FamilySpecError(f"tree spec needs one order >= 1, got {s!r}") from None
    n = spec.order()
    label = s
    fixed = {"size": None, "m1": None, "m2": None, "m3": None}
    if kind == "thorn":
        if len(spec.sizes) != 1:
            raise FamilySpecError("closed thorn forms need a uniform pendant count")
        base_graph = generate(spec.base)
        f = fam.thorn_forms(thorn_base_data(base_graph, full_report(base_graph)),
                            spec.sizes[0])
        cm = {v: [getattr(f, key) for key in EXTREMA_KEYS] for v in variants}
        label = spec.label()
    elif kind == "tree":
        f = fam.tree_forms(n)
        fixed.update(size=n - 1)
        cm = {v: [f.cm1_lo, f.cm1_hi, f.cm2, f.cm2, f.cm3, f.cm3] for v in variants}
    elif kind == "complete":
        f = fam.complete_graph_forms(n)
        fixed.update(size=n * (n - 1) // 2, m1=f.m1, m2=f.m2, m3=f.m3)
        cm = {v: [f.cm1, f.cm1, f.cm2, f.cm2, f.cm3, f.cm3] for v in variants}
    elif kind == "equal-multipartite":
        f = fam.equal_multipartite_forms(spec.sizes[0], len(spec.sizes))
        cm = {}
        for v in variants:
            cm3 = f.cm3_printed if v == "as_printed" else f.cm3_pairsum
            cm[v] = [f.cm1, f.cm1, f.cm2, f.cm2, cm3, cm3]
    else:  # multipartite, complete-bipartite, complete_multipartite
        cm = {}
        for v in variants:
            f = fam.multipartite_forms(spec.sizes, v)
            cm[v] = [f.cm1_min, f.cm1_max, f.cm2_min, f.cm2_max, f.cm3, f.cm3]
        label = spec.label()
    oracle = None
    # tree forms bound every tree of the order, so there is no one graph to enumerate
    if kind != "tree" and n <= oracle_max:
        rep = full_report(generate(spec))
        oracle = {key: getattr(rep, key)
                  for key in (*EXTREMA_KEYS, "m1", "m2", "m3", "size", "status")}
    return [
        {"label": label, "formula_variant": v, "order": n, **fixed,
         **dict(zip(EXTREMA_KEYS, cm[v])), "oracle": oracle}
        for v in variants
    ]


def _family_table(records: list[dict]) -> str:
    lines = [f"family: {records[0]['label']}   order: {records[0]['order']}"]
    oracle = records[0]["oracle"]
    header = ["field"] + [r["formula_variant"] for r in records]
    # an inexact enumeration holds values of valid colorings, bounds on the extrema
    status = oracle["status"] if oracle else "n/a"
    header.append("enumeration" if status == "exact" else f"enumeration ({status})")
    rows = [header]
    for f in EXTREMA_KEYS:
        row = [f] + [str(r[f]) for r in records]
        row.append(str(oracle[f]) if oracle else "-")
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for r in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


def _cmd_family(args, parser) -> int:
    variants = ["as_printed", "corrected"] if args.variant == "both" else [args.variant]
    try:
        records = _family_records(args.spec, variants, args.oracle_max_order)
    except ValueError as exc:  # the closed forms' own checks: the spec has none
        raise FamilySpecError(str(exc)) from None
    if args.format == "json":
        text = report_to_json(records)
    elif args.format == "csv":
        cols = ["label", "formula_variant", "order", *EXTREMA_KEYS]
        oracle_cols = [*EXTREMA_KEYS, "status"]
        rows = [cols + [f"oracle_{f}" for f in oracle_cols]]
        for r in records:
            rows.append([r[c] for c in cols] + [(r["oracle"] or {}).get(f) for f in oracle_cols])
        text = _csv(rows)
    else:
        text = _family_table(records)
    _emit(text, args.out)
    return EXIT_OK


def _cmd_stability(args, parser) -> int:
    g, label = _load_one_graph(args, parser)
    report = stability_report(g, label=label)
    json_text = report_to_json(report.to_json_dict())
    if args.out:
        _emit(json_text, args.out)
    if args.format == "json":
        sys.stdout.write(json_text)
    else:
        print(f"{label}: {report.verdict_line()}")
    return EXIT_OK


def _cmd_verify(args, parser) -> int:
    config = CorpusConfig(
        max_order=args.max_order,
        seed=args.seed,
        random_graph_count=args.random_graphs,
        random_tree_count=args.random_trees,
        monotonicity_samples=args.samples,
        tree_max_order=args.tree_max_order,
    )
    try:
        select_claims(args.claims)
    except UnknownClaimError as exc:
        print(f"czi verify: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.out:  # fail on an unwritable path before the run, and keep what it holds
        _emit("", args.out, "a")
    results = run_claims(config, args.claims)
    report = build_report(config, results)
    if args.format == "csv":
        text = report_to_csv(results)
    else:
        text = report_to_json(report)
    summary = report["summary"]
    summary_line = (
        f"verified {summary['verified']}, "
        f"counterexample {summary['counterexample']}, "
        f"skipped {summary['skipped_budget']}"
    )
    if args.out:
        _emit(text, args.out)
        print(summary_line)
    else:
        sys.stdout.write(text)
        print(summary_line, file=sys.stderr)
    if summary["must_hold_failures"]:
        print(
            "must-hold failures: " + ", ".join(summary["must_hold_failures"]),
            file=sys.stderr,
        )
        return EXIT_CLAIM_FAILURE
    if args.strict and summary["skipped_budget"] > 0:
        return EXIT_BUDGET
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args, parser)
    except (GraphParseError, FamilySpecError) as exc:
        print(f"czi: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except coloring.EnumerationBudgetExceeded as exc:
        why = str(exc) or (f"a search passed the work cap of {coloring.WORK_CAP} units "
                           "before any report")
        print(f"czi: {why}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"czi: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        pass  # reported below, once the frames that hold the memory are freed
    print("czi: out of memory before any report", file=sys.stderr)
    return EXIT_BUDGET


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
