"""Rewrite the golden copies that the correctness gate compares reports with.

Usage (from the repository root):

    python3 perfbench/make_golden.py

Runs one cold `visilat run` for every workload at every seed in
workloads.GOLDEN_SEEDS and stores the parts of the report that must repeat
exactly (workloads.project) in perfbench/golden/<workload>.json.  Regenerate only for a change that is meant
to alter counts or exact values, and say so in that change.
"""

import json
import os
import sys
import time

import run
import workloads


def dump(golden: dict) -> str:
    """One seed per line, so a changed value shows as a one-line diff."""
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
             for k, v in sorted(golden.items(), key=lambda kv: int(kv[0]))]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main() -> int:
    os.makedirs(run.WORK, exist_ok=True)
    os.makedirs(workloads.GOLDEN_DIR, exist_ok=True)
    for name in workloads.WORKLOADS:
        golden = {}
        for seed in workloads.GOLDEN_SEEDS:
            runner = run.Runner(name, seed, deadline=time.monotonic() + 600)
            runner.golden = {}
            golden[str(seed)] = workloads.project(runner.launch()["report"])
            print(f"{name} seed {seed}: ok", flush=True)
        path = os.path.join(workloads.GOLDEN_DIR, f"{name}.json")
        with open(path, "w") as fh:
            fh.write(dump(golden))
    return 0


if __name__ == "__main__":
    sys.exit(main())
