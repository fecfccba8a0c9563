"""Record the gate's reference answers from the program as it stands.

Usage, from the repository root: python3 perfbench/record_references.py

verify-catalog instances change with the seed, so its answers are kept
per seed (0 and 1) and other seeds are checked without them. The other two
workloads answer the same for every seed: each only reorders a fixed set
of ops. Seeds 0 and 1 are
both recorded for them too, and must agree.
"""

from __future__ import annotations

import json
import sys

import run
from gate import REFERENCES

SEEDS = (0, 1)


def main() -> int:
    runner = run.Runner()
    runner.deadline += 3600  # recording runs every workload twice
    REFERENCES.mkdir(exist_ok=True)
    for workload in run.WORKLOADS:
        answers = {str(seed): runner.spawn(workload=workload, seed=seed, record=True)["reference"]
                   for seed in SEEDS}
        if workload == "verify-catalog":
            reference = answers
        elif answers["0"] != answers["1"]:
            print(f"{workload}: seeds 0 and 1 disagree", file=sys.stderr)
            return 1
        else:
            reference = answers["0"]
        with open(REFERENCES / f"{workload}.json", "w", encoding="utf-8") as fh:
            json.dump(reference, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"recorded {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
