"""Benchmark for the chromatic Zagreb engine.

Usage, from the repository root:

    python3 perfbench/run.py --workload verify-catalog --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Every repetition runs in a fresh interpreter (perfbench/worker.py), one at
a time, because users pay the import and the empty caches on every `czi`
call. Repetitions continue while another one fits in --seconds; at least
one always runs. With --trace 0 the end-to-end metrics are printed; with
--trace 1 one untraced and one traced repetition give the per-layer
metrics and the tracing overhead. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

Every time, set-up included, is read from perfbench/refclock.py: wall time
rescaled to a fixed reference host speed, sampled four times a second while
the work runs, so that a busy shared host does not read as a slow program.
The table shows how fast the host ran against the reference.

Metric names and the metrics reported in that JSON object come from
BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = tuple(workloads.WORKLOADS)
SETUP_SAMPLES = 11
TIME_LIMIT_S = 170  # one invocation must end within 180 s

E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
    "op_p90_ms": "ms", "inexact_share": "share", "failed_share": "share",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def layer_unit(name: str) -> str:
    return "s" if name.endswith(("_s", ".s")) else "count"


def load_definition() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


class Runner:
    """Spawns workers one at a time against a shared deadline."""

    def __init__(self) -> None:
        self.deadline = time.monotonic() + TIME_LIMIT_S

    def spawn(self, **job) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the next worker")
        job.setdefault("tiny", False)
        job.setdefault("trace", False)
        cmd = [sys.executable, str(HERE / "worker.py"), json.dumps({"src": str(SRC), **job})]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=remaining,
                                  cwd=ROOT)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {job} did not end within the time limit") from None
        if proc.returncode != 0:
            raise BenchError(f"worker {job} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setup_samples(self, count: int) -> list[float]:
        return [self.spawn(import_only=True)["setup_s"] for _ in range(count)]


def end_to_end(reps: list[dict], setup: list[float]) -> dict[str, tuple[float | None, str]]:
    """All eight end-to-end metrics as (value, note); medians over repetitions."""
    ops = sum(r["ops"] for r in reps)
    out = {
        "setup_s": (statistics.median(setup), f"median of {len(setup)} fresh imports"),
        "wall_s": (statistics.median(r["wall_s"] for r in reps),
                   f"median of {len(reps)} reps; host ran at "
                   + ", ".join(f"{r['host_speed']:.3f}" for r in reps) + " x reference"),
        "ops_per_s": (statistics.median(r["ops"] / r["wall_s"] for r in reps),
                      f"{reps[0]['ops']} ops per rep"),
    }
    for key in ("op_p50_ms", "op_p90_ms"):
        if "op_count" in reps[0]:
            out[key] = (statistics.median(r[key] for r in reps),
                        f"{reps[0]['op_count']} ops per rep")
        else:
            out[key] = (None, "n/a: fewer than 100 like-for-like ops")
    out["inexact_share"] = (sum(r["inexact"] for r in reps) / ops,
                            f"{sum(r['inexact'] for r in reps)}/{ops}")
    out["failed_share"] = (sum(r["failed"] for r in reps) / ops,
                           f"{sum(r['failed'] for r in reps)}/{ops}")
    out["peak_rss_mb"] = (statistics.median(r["peak_rss_mb"] for r in reps), "ru_maxrss")
    return out


def print_table(table: dict[str, tuple[float | None, str]]) -> None:
    for name, (value, note) in table.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<16} {shown:>12} {E2E_UNITS[name]:<6} {note}")


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """(repetitions, per-layer values or None, set-up samples)."""
    runner = Runner()
    setup = runner.setup_samples(SETUP_SAMPLES)
    if trace:
        plain = runner.spawn(workload=workload, seed=seed)
        traced = runner.spawn(workload=workload, seed=seed, trace=True)
        layers = dict(traced["per_layer"], **{
            "trace.overhead_s": traced["wall_s"] - plain["wall_s"]})
        return [plain, traced], layers, setup
    reps = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        reps.append(runner.spawn(workload=workload, seed=seed))
        if time.monotonic() - start + (time.monotonic() - began) > seconds:
            return reps, None, setup


def machine() -> str:
    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, timeout=30)
        rev = proc.stdout.strip() or rev
    return f"nproc={os.cpu_count()} python={platform.python_version()} rev={rev}"


def report(args, definition: dict) -> int:
    reps, layers, setup = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} reps={len(reps)} {machine()}")
    for r in reps:
        for op, problems in r["failures"].items():
            print(f"FAILED {op}: {'; '.join(problems)}")
    if layers is None:
        table = end_to_end(reps, setup)
        print_table(table)
        metrics = {m["name"]: {"value": table[m["name"]][0], "unit": m["unit"]}
                   for m in definition["end_to_end"]}
    else:
        for name in sorted(layers):
            print(f"  {name:<46} {layers[name]:>14.6g} {layer_unit(name)}")
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in definition["per_layer"]}
    failed = sum(r["failed"] for r in reps)
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["ops"] for r in reps),
                      "failed": failed, "metrics": metrics}))
    return 0


def self_test(definition: dict) -> int:
    """Tiny runs of every workload: clean ones must pass the gate, corrupted
    ones must fail exactly the two ops corrupted, and every metric must be
    produced with the unit BENCHMARK.json gives it."""
    runner = Runner()
    setup = runner.setup_samples(3)
    problems = []
    for m in definition["end_to_end"]:
        if E2E_UNITS.get(m["name"]) != m["unit"]:
            problems.append(f"end_to_end {m['name']}: unit {m['unit']} is not measured")
    for m in definition["per_layer"]:
        if layer_unit(m["name"]) != m["unit"]:
            problems.append(f"per_layer {m['name']}: unit {m['unit']}, "
                            f"expected {layer_unit(m['name'])}")
    for workload in WORKLOADS:
        clean = runner.spawn(workload=workload, seed=0, tiny=True)
        bad = runner.spawn(workload=workload, seed=0, tiny=True, corrupt=True)
        traced = runner.spawn(workload=workload, seed=0, tiny=True, trace=True)
        print(f"{workload}: clean failed {clean['failed']}/{clean['ops']}, "
              f"corrupted failed {bad['failed']}/{bad['ops']}")
        for op, why in bad["failures"].items():
            print(f"  caught {op}: {'; '.join(why)}")
        if clean["failed"] or clean["ops"] < 1:
            problems.append(f"{workload}: clean tiny run failed {clean['failures']}")
        if bad["failed"] != 2:
            problems.append(f"{workload}: gate caught {bad['failed']} of 2 corrupted ops")
        print_table(end_to_end([clean], setup))
        layers = dict(traced["per_layer"], **{"trace.overhead_s": 0.0})
        for m in definition["per_layer"]:
            if m["name"] not in layers:
                problems.append(f"{workload}: per-layer {m['name']} not produced")
            else:
                print(f"  {m['name']:<46} {layers[m['name']]:>14.6g} {m['unit']}")
    for p in problems:
        print(f"SELF-TEST FAILURE: {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "chromatic_zagreb" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    definition = load_definition()
    try:
        if args.self_test:
            return self_test(definition)
        if args.workload is None:
            parser.error("--workload is required")
        return report(args, definition)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
