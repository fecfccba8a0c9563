"""One repetition of one workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py '<json job>'. The job names the source
root, the workload, the seed and whether to trace, tiny-size, corrupt an
outcome (to prove the gate bites) or record reference answers. The result
is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time


def corrupt(workload: str, outcomes) -> None:
    """Break one result in each of two ops (a witness or verdict, then a value)."""

    def recolor(witness: list[int]) -> None:
        witness[0] = witness[0] % max(witness) + 1  # moves cm1 by a nonzero amount

    if workload == "verify-catalog":
        for r in outcomes["results"][:2]:
            r["verdict"] = "counterexample" if r["verdict"] == "verified" else "verified"
    elif workload == "extrema-stream":
        recolor(outcomes[0]["report"]["witnesses"]["cm1_max"])
        outcomes[1]["report"]["cm2_min"] += 1
    else:
        compute = [o["output"] for o in outcomes if o["kind"] != "stability"]
        recolor(compute[0]["witnesses"]["cm1_min"])
        compute[1]["cm1_max"] += 1


def main(job: dict) -> dict:
    sys.path.insert(0, job["src"])
    import refclock

    clock = refclock.ReferenceClock().start()
    start = clock.now()
    import chromatic_zagreb  # noqa: F401  (timed: the set-up users pay per call)
    setup_s = clock.now() - start
    if job.get("import_only"):
        clock.stop()
        return {"setup_s": setup_s}

    import gate
    import spans
    import workloads

    name = job["workload"]
    make_inputs, run = workloads.WORKLOADS[name]
    inputs = make_inputs(job["seed"], job["tiny"])
    tracer = spans.install(clock.now) if job["trace"] else None
    began, ref_began, sampled = time.perf_counter(), clock.now(), clock.sampling_s
    wall_s, op_times, outcomes = run(inputs, clock.now)
    clock.stop()
    # reference seconds per host second while the workload ran
    host_speed = (clock.now() - ref_began) / (
        time.perf_counter() - began - (clock.sampling_s - sampled))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {"setup_s": setup_s, "wall_s": wall_s, "host_speed": host_speed,
              "peak_rss_mb": peak_rss_mb}
    if job.get("record"):
        result["reference"] = gate.reference_of(name, outcomes)
        return result
    if job.get("corrupt"):
        corrupt(name, outcomes)
    ops, failures, inexact = gate.check(name, job["seed"], outcomes, job["tiny"])
    result.update(ops=ops, failed=len(failures), inexact=inexact,
                  failures=dict(list(failures.items())[:10]))
    if len(op_times or ()) >= 100:  # p90 keeps at least ten samples beyond it
        cuts = statistics.quantiles(op_times, n=10, method="inclusive")
        result.update(op_count=len(op_times), op_p50_ms=cuts[4] * 1000,
                      op_p90_ms=cuts[8] * 1000)
    if tracer is not None:
        result["per_layer"] = spans.per_layer(tracer, wall_s)
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
