"""In-memory spans around the program's layer entry points.

The tracer wraps a function by rebinding every ``chromatic_zagreb`` module
attribute that refers to it, so callers inside the package reach the
wrapper with no change to the program. Spans are aggregated per name as
they close and read out once the workload ends: inclusive time, self time
(inclusive minus the time its child spans cover), calls, and counters.

An iterator-returning function gets an iterator span instead: only the
time spent inside ``next()`` counts, and each yielded item is counted, so
a generator consumed by an outer layer is charged to itself and not to
the consumer.
"""

from __future__ import annotations

import dataclasses
import sys
from collections import defaultdict

# verify claim ids grouped the way the per-layer metrics name them
CLAIM_GROUPS = (
    "obs", "prop-2.1", "thm-2.2", "cor-2.3", "thm-3.1", "lem-3.2", "prop-3.3",
    "thm-3.4", "thm-4.2", "thm-4.4", "prop-4.6", "stability-cycles",
    "oracle-extrema", "oracle-enumeration",
)


def claim_group(claim_id: str) -> str:
    for group in CLAIM_GROUPS:
        if claim_id == group or claim_id.startswith(group + "-"):
            return group
    raise ValueError(f"claim {claim_id!r} belongs to no metric group")


class Tracer:
    def __init__(self, clock) -> None:
        self.clock = clock
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.top_level_s = 0.0
        self._stack: list[list] = []  # [name, start, time covered by children]

    def _open(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def _close(self) -> None:
        name, start, children = self._stack.pop()
        took = self.clock() - start
        self.inclusive[name] += took
        self.self_time[name] += took - children
        if self._stack:
            self._stack[-1][2] += took
        else:
            self.top_level_s += took

    def span(self, name, fn, on_result=None, counts_error=None):
        """Wrap fn in a call span; on_result(value) sees each return value,
        and an exception of type counts_error bumps the '<name>.errors' count."""

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            self._open(name)
            try:
                value = fn(*args, **kwargs)
            except BaseException as exc:
                if counts_error is not None and isinstance(exc, counts_error):
                    self.counts[name + ".errors"] += 1
                raise
            finally:
                self._close()
            if on_result is not None:
                on_result(value)
            return value

        return wrapper

    def span_iter(self, name, fn, counts_error=None, timed=True):
        """Wrap an iterator-returning fn; with timed=False items are only counted."""

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return self.iterate(name, iter(fn(*args, **kwargs)), counts_error, timed)

        return wrapper

    def iterate(self, name, inner, counts_error, timed):
        while True:
            if timed:
                self._open(name)
            try:
                item = next(inner)
            except StopIteration:
                return
            except BaseException as exc:
                if counts_error is not None and isinstance(exc, counts_error):
                    self.counts[name + ".errors"] += 1
                raise
            finally:
                if timed:
                    self._close()
            self.counts[name + ".items"] += 1
            yield item

    def rebind(self, owner, attr: str, make_wrapper) -> None:
        """Replace owner.attr, and every package module binding of the same
        object, with make_wrapper(original)."""
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] == "chromatic_zagreb" and \
                    getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
        if getattr(owner, attr) is original:  # classes are not in sys.modules
            setattr(owner, attr, wrapper)


def install(clock) -> Tracer:
    """Trace the layers that the per-layer metrics name, timing spans by clock."""
    from chromatic_zagreb import cli, coloring, corpus, graph, indices, oracle, stability, verify

    t = Tracer(clock)

    def count_bounds_only(report) -> None:
        if report.status == "bounds_only":
            t.counts["indices.bounds_only"] += 1

    t.rebind(coloring, "chromatic_number",
             lambda f: t.span("coloring.chromatic_number", f))
    t.rebind(coloring, "_iter_all_min_colorings",
             lambda f: t.span_iter("coloring.enumeration", f,
                                   counts_error=coloring.EnumerationBudgetExceeded))
    t.rebind(coloring, "_iter_chi_partitions",
             lambda f: t.span_iter("coloring.partitions", f, timed=False))
    t.rebind(coloring, "canonical_partition",
             lambda f: t.span("coloring.canonical_partition", f))
    t.rebind(indices, "full_report",
             lambda f: t.span("indices.full_report", f, on_result=count_bounds_only))

    def sweep(f):
        inner = t.span("indices.sweep", f)
        return lambda g, colorings: inner(
            g, t.iterate("indices.sweep", iter(colorings), None, timed=False))

    t.rebind(indices, "_sweep", sweep)
    t.rebind(stability, "is_chromatically_stable",
             lambda f: t.span("stability.is_chromatically_stable", f))
    t.rebind(stability, "stability_number_bruteforce",
             lambda f: t.span("stability.rho_bruteforce", f,
                              counts_error=stability.StabilityBudgetExceeded))
    t.rebind(stability, "stability_report",
             lambda f: t.span("stability.stability_report", f))
    t.rebind(graph.Graph, "with_extra_edges",
             lambda f: t.span("graph.with_extra_edges", f))
    t.rebind(oracle, "oracle_extrema", lambda f: t.span("oracle.oracle_extrema", f))
    t.rebind(oracle, "oracle_min_colorings",
             lambda f: t.span_iter("oracle.oracle_min_colorings", f))
    t.rebind(corpus, "connected_bipartite_graphs",
             lambda f: t.span_iter("corpus.connected_bipartite_graphs", f))

    def claims(select):
        def traced_select(selection):
            return [
                dataclasses.replace(c, runner=t.span(
                    "verify.claim." + claim_group(c.claim_id), c.runner))
                for c in select(selection)
            ]
        return traced_select

    t.rebind(verify, "select_claims", claims)
    t.rebind(cli, "main", lambda f: t.span("cli.main", f))
    return t


def per_layer(t: Tracer, wall_s: float) -> dict[str, float]:
    """The per-layer metric values, except trace.overhead_s, which needs
    an untraced run as well."""
    from chromatic_zagreb import verify

    cache = verify._report.cache_info()
    out = {
        "coloring.chromatic_number.calls": t.calls["coloring.chromatic_number"],
        "coloring.chromatic_number.self_s": t.self_time["coloring.chromatic_number"],
        "coloring.enumeration.colorings": t.counts["coloring.enumeration.items"],
        "coloring.enumeration.self_s": t.self_time["coloring.enumeration"],
        "coloring.enumeration.capped": t.counts["coloring.enumeration.errors"],
        "coloring.partitions.scanned": t.counts["coloring.partitions.items"],
        "coloring.canonical_partition.self_s": t.self_time["coloring.canonical_partition"],
        "indices.full_report.calls": t.calls["indices.full_report"],
        "indices.full_report.s": t.inclusive["indices.full_report"],
        "indices.sweep.colorings": t.counts["indices.sweep.items"],
        "indices.sweep.self_s": t.self_time["indices.sweep"],
        "indices.bounds_only": t.counts["indices.bounds_only"],
        "stability.is_chromatically_stable.calls": t.calls["stability.is_chromatically_stable"],
        "stability.is_chromatically_stable.self_s":
            t.self_time["stability.is_chromatically_stable"],
        "stability.rho_bruteforce.calls": t.calls["stability.rho_bruteforce"],
        "stability.rho_bruteforce.s": t.inclusive["stability.rho_bruteforce"],
        "stability.rho_bruteforce.budget_exceeded": t.counts["stability.rho_bruteforce.errors"],
        "stability.stability_report.s": t.inclusive["stability.stability_report"],
        "graph.with_extra_edges.calls": t.calls["graph.with_extra_edges"],
        "graph.with_extra_edges.self_s": t.self_time["graph.with_extra_edges"],
        "oracle.oracle_extrema.s": t.inclusive["oracle.oracle_extrema"],
        "oracle.oracle_min_colorings.s": t.inclusive["oracle.oracle_min_colorings"],
        "corpus.connected_bipartite_graphs.s": t.inclusive["corpus.connected_bipartite_graphs"],
        "verify.report_cache.hits": cache.hits,
        "verify.report_cache.misses": cache.misses,
        "cli.self_s": t.self_time["cli.main"],
        "trace.unattributed_s": wall_s - t.top_level_s,
    }
    for group in CLAIM_GROUPS:
        out[f"verify.claim.{group}.s"] = t.inclusive["verify.claim." + group]
    return out
