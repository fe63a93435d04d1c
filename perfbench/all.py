"""Run every workload for one seed and print every end-to-end metric.

    python3 perfbench/all.py --seed 7

Runs perfbench/run.py (end-to-end, --trace 0, for the run_seconds of
BENCHMARK.json) once per workload, serially, from the checkout root,
and prints each workload's metric lines (name, value, unit) under its name.
Exits 1 if a run failed or reported an incorrect result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from cases import WORKLOADS  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    seconds = json.loads(Path("BENCHMARK.json").read_text())["run_seconds"]
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=200)
        lines = proc.stdout.strip().splitlines()
        print(f"== {workload} (seed {args.seed})")
        for line in lines[:-1]:
            print(f"   {line}")
        if proc.stderr:
            print(proc.stderr, end="", file=sys.stderr)
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            print(f"   {workload}: run failed or incorrect", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
