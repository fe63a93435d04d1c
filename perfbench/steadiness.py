"""Steadiness report: two independent sets of benchmark runs, one seed each.

    python3 perfbench/steadiness.py

Runs perfbench/run.py (end-to-end, --trace 0) once per seed, serially,
set by set, for every workload.  Set k uses seeds k*100+1 .. k*100+10, so
the sets share no seed.  The report goes to perfbench/results/steadiness.json.  For each workload, set and end-to-end metric it reports the median,
the quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median; and the shift of each set's median from the first
set's, as a share of it.
A spread or shift above the metric's bound in BENCHMARK.json is marked.
Run from the checkout root.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from cases import WORKLOADS  # noqa: E402
from run import source_identity  # noqa: E402

SETS = 2
SEEDS_PER_SET = 10
OUT = Path("perfbench/results/steadiness.json")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"run failed ({workload}, seed {seed}):\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"incorrect result ({workload}, seed {seed}):\n{proc.stderr}")
    print(f"{workload} seed {seed}: " + ", ".join(
        f"{k} {v['value']:.5f}" for k, v in result["metrics"].items()),
        file=sys.stderr, flush=True)
    return result


def describe(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    # Set by set, so that the sets are minutes apart, as independent
    # sets of runs would be.
    values = {w: [] for w in WORKLOADS}
    for k in range(SETS):
        seeds = [k * 100 + i for i in range(1, SEEDS_PER_SET + 1)]
        for workload in WORKLOADS:
            runs = [run_once(workload, s, bench["run_seconds"]) for s in seeds]
            values[workload].append({"seeds": seeds, "metrics": {
                name: describe([r["metrics"][name]["value"] for r in runs])
                for name in bounds}})

    report = {"run_seconds": bench["run_seconds"], **source_identity(),
              "workloads": values}
    for workload, sets in values.items():
        for name, bound in bounds.items():
            base = sets[0]["metrics"][name]["median"]
            for k, s in enumerate(sets):
                m = s["metrics"][name]
                m["shift"] = (m["median"] - base) / base
                flag = ""
                if m["spread"] > bound:
                    flag = "  SPREAD ABOVE BOUND"
                if abs(m["shift"]) > bound:
                    flag += "  SHIFT ABOVE BOUND"
                print(f"{workload:<7} set {k} {name:<12} median {m['median']:10.5f} "
                      f"q1 {m['q1']:10.5f} q3 {m['q3']:10.5f} spread {m['spread']:7.4f} "
                      f"shift {m['shift']:+7.4f} (bound {bound}){flag}")
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
