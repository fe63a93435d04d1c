"""ctforge benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload brute --seed 1 --seconds 30 --trace 0

Run from the checkout root.  The load generator is this process alone: it
starts one worker at a time (perfbench/worker.py, a fresh interpreter, so
the module-level caches start empty as they do for a CLI user), hands it
the seeded case list and waits for its verdicts.  It repeats whole passes
until --seconds have elapsed and at least MIN_PASSES have run.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, with times
scaled to a reference machine speed measured around each pass (see
calibration_s); --trace 1 alternates untraced and traced passes and
reports the per-layer metrics, unscaled, with the tracing overhead.  The last stdout line is the JSON result; the
lines before it give every metric by name and unit.  A full record (per
case digests, per pass timings, environment) is written to
perfbench/results/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from cases import CERT_DIR, WORKLOADS, make_cases  # noqa: E402

WORKER = "perfbench/worker.py"
RESULTS = Path("perfbench/results")
SETUP_SAMPLES = 7         # set-up-only spawns, besides one per pass
MIN_PASSES = 3            # untraced passes per end-to-end run
MIN_TRACE_PASSES = 2      # of each kind in a traced run
BUDGET_S = 170            # a run must end within 180 s
CALIB_REF_S = 0.3         # calibration time that defines the reference speed


def worker_env() -> dict[str, str]:
    """The caller's environment without anything that could steer the
    worker: no CT_FORGE_THREADS, no PYTHON* settings; fixed hash seed."""
    env = {k: v for k, v in os.environ.items()
           if k != "CT_FORGE_THREADS" and not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(job: dict, env: dict, deadline: float) -> dict:
    """Run one worker; returns its set-up time, exit status and (when it
    produced one) its result."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER], env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    ready = proc.stdout.readline()
    setup = time.perf_counter() - t0
    job = dict(job, alarm_s=max(1, int(deadline - time.perf_counter())))
    try:
        proc.stdin.write(json.dumps(job).encode())
        proc.stdin.close()
    except BrokenPipeError:
        pass
    out = proc.stdout.read()
    proc.stdout.close()
    proc.wait()
    result = None
    if ready == b"ready\n" and proc.returncode == 0 and out.strip():
        result = json.loads(out.decode().splitlines()[-1])
    return {"ready": ready == b"ready\n", "setup_s": setup,
            "exit": proc.returncode, "result": result}


def calibration_s() -> float:
    """Seconds a fixed loop takes on this machine right now.

    The loop is shaped like expand_within: a sparse product of 32
    binomials in five variables, accumulated in a dict keyed by exponent
    tuples.  It runs no ctforge code, so only the machine's speed moves it.
    """
    pairs = [(i, j) for i in range(5) for j in range(5) if i != j] * 2
    t0 = time.perf_counter()
    acc = {(0,) * 5: 1}
    for f, (i, j) in enumerate(pairs[:32]):
        step = [0] * 5
        step[i], step[j] = 1, -1
        nxt: dict = {}
        for k, v in acc.items():
            nxt[k] = nxt.get(k, 0) + v
            k2 = tuple(x + y for x, y in zip(k, step))
            nxt[k2] = nxt.get(k2, 0) - v * (f + 1)
        acc = {k: v for k, v in nxt.items() if v}
    return time.perf_counter() - t0


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n={n}, no percentile has 10 samples beyond it"
    p = 100 * (n - 10) / n
    return f"n={n}, p{p:.0f}={sorted(values)[n - 11]:.6g}"


def source_identity() -> dict[str, str]:
    """Commit (read from .git when the checkout has one) and a digest of
    the package source, which identifies the code under test either way."""
    commit = "unknown"
    head = Path(".git/HEAD")
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = Path(".git") / name
            if loose.is_file():
                commit = loose.read_text().strip()
            elif Path(".git/packed-refs").is_file():
                for line in Path(".git/packed-refs").read_text().splitlines():
                    if line.endswith(" " + name):
                        commit = line.split()[0]
    digest = hashlib.sha256()
    for path in sorted(Path("src/ctforge").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def collect_failures(cases: list[dict], passes: list[dict]) -> tuple[int, int, dict]:
    """(attempted, failed, per-case record).  A case fails when its check
    failed, it raised or exited non-zero, its worker died, or its stdout
    differs from the same case's stdout in an earlier pass."""
    record = {c["id"]: {"argv": c["argv"], "stdout_sha256": None, "cert_sha256": None,
                        "seconds": [], "problems": []} for c in cases}
    attempted = failed = 0
    for k, p in enumerate(passes):
        attempted += len(cases)
        if p["result"] is None:
            failed += len(cases)
            for rec in record.values():
                rec["problems"].append(f"pass {k}: worker exited {p['exit']} without a result")
            continue
        for c in p["result"]["cases"]:
            rec = record[c["id"]]
            problems = [f"pass {k}: {x}" for x in c["problems"]]
            if rec["stdout_sha256"] is None:
                rec["stdout_sha256"], rec["cert_sha256"] = c["stdout_sha256"], c["cert_sha256"]
            elif (rec["stdout_sha256"], rec["cert_sha256"]) != (c["stdout_sha256"],
                                                               c["cert_sha256"]):
                problems.append(f"pass {k}: output differs from an earlier pass")
            if problems and c["stderr"]:
                problems.append(f"pass {k}: stderr: {c['stderr']}")
            rec["seconds"].append(c["seconds"])
            rec["problems"] += problems
            failed += bool(problems)
    return attempted, failed, record


def end_to_end(passes: list[dict], setups: list[float],
               calibration: list[float]) -> tuple[dict, dict, dict]:
    """(metrics, samples, raw medians) over the untraced passes.  Times are
    scaled to the reference speed: a pass's times by CALIB_REF_S / its own
    calibration time, set-up times by CALIB_REF_S / the run's median
    calibration time; each metric is the median of its scaled samples."""
    ok = [p for p in passes if p["result"] is not None and not p["traced"]]
    samples = {
        "wall_s": [p["result"]["wall_s"] for p in ok],
        "max_case_s": [max(c["seconds"] for c in p["result"]["cases"]) for p in ok],
        "setup_s": setups,
        "peak_rss_mb": [p["result"]["peak_rss_mb"] for p in ok],
    }
    raw = {k: statistics.median(v) for k, v in samples.items() if v}
    pass_scale = [CALIB_REF_S / p["calibration_s"] for p in ok]
    metrics = {
        "wall_s": [v * f for v, f in zip(samples["wall_s"], pass_scale)],
        "max_case_s": [v * f for v, f in zip(samples["max_case_s"], pass_scale)],
        "setup_s": [v * CALIB_REF_S / statistics.median(calibration) for v in setups],
        "peak_rss_mb": samples["peak_rss_mb"],
    }
    metrics = {k: statistics.median(v) for k, v in metrics.items() if v}
    return metrics, samples, raw


def per_layer(passes: list[dict]) -> tuple[dict, dict]:
    traced = [p for p in passes if p["result"] is not None and p["traced"]]
    plain = [p for p in passes if p["result"] is not None and not p["traced"]]
    if not traced or not plain:
        return {}, {}
    samples: dict[str, list[float]] = {}
    for p in traced:
        layers = dict(p["result"]["layers"])
        wall = p["result"]["wall_s"]
        for key in [k for k in layers if k.startswith("layer.")]:
            layers[key.replace(".self_s", ".self_share")] = layers.pop(key) / wall
        layers["trace.wall_s"] = wall
        for k, v in layers.items():
            samples.setdefault(k, []).append(v)
    metrics = {k: statistics.median(v) for k, v in samples.items()}
    untraced = statistics.median(p["result"]["wall_s"] for p in plain)
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead_ratio"] = (metrics["trace.wall_s"] - untraced) / untraced
    return metrics, samples


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()
    deadline = started + BUDGET_S

    if not Path("src/ctforge/cli.py").is_file() or not Path("BENCHMARK.json").is_file():
        print("error: run from the root of a ctforge checkout "
              "(src/ctforge and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    bench = json.loads(Path("BENCHMARK.json").read_text())
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    cases = make_cases(args.workload, args.seed)
    env = worker_env()
    RESULTS.mkdir(parents=True, exist_ok=True)
    empty = {"cases": [], "trace": 0, "cert_dir": CERT_DIR}

    # The first spawn compiles bytecode, which a user pays once, not per call.
    spawns = [spawn(empty, env, deadline) for _ in range(1 + SETUP_SAMPLES)]
    if not all(s["ready"] for s in spawns):
        print("error: the worker could not import ctforge", file=sys.stderr)
        return 1
    setups = [s["setup_s"] for s in spawns[1:]]
    calibration = [calibration_s() for _ in range(3)]

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    passes: list[dict] = []
    t_measure = time.perf_counter()
    longest = 0.0
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        t0 = time.perf_counter()
        job = {"cases": cases, "trace": int(traced), "cert_dir": CERT_DIR,
               "spans_out": str(RESULTS / f"{stem}.spans.json.gz") if traced else None}
        p = spawn(job, env, deadline)
        p["traced"] = traced
        passes.append(p)
        longest = max(longest, time.perf_counter() - t0)
        setups.append(p["setup_s"])
        calibration.append(calibration_s())
        # the machine's speed during this pass: the loops just before and after it
        p["calibration_s"] = (calibration[-2] + calibration[-1]) / 2
        if not p["ready"]:
            print("error: the worker could not import ctforge", file=sys.stderr)
            return 1
        n_plain = sum(not q["traced"] for q in passes)
        n_traced = len(passes) - n_plain
        enough = (n_plain >= MIN_TRACE_PASSES and n_traced >= MIN_TRACE_PASSES
                  if args.trace else n_plain >= MIN_PASSES)
        if enough and time.perf_counter() - t_measure >= args.seconds:
            break
        if time.perf_counter() + 1.2 * longest > deadline:
            break

    attempted, failed, record = collect_failures(cases, passes)
    e2e, e2e_samples, e2e_raw = end_to_end(passes, setups, calibration)
    layers, layer_samples = per_layer(passes) if args.trace else ({}, {})
    computed = layers if args.trace else e2e
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in computed}
    missing = [m["name"] for m in wanted if m["name"] not in computed]

    for m in wanted:
        if m["name"] in computed:
            note = ""
            if not args.trace:
                note = f"   ({tail(e2e_samples[m['name']])})"
                if m["name"].endswith("_s"):
                    note = (f"   (raw median {e2e_raw[m['name']]:.6f} s; "
                            f"{tail(e2e_samples[m['name']])})")
            print(f"{m['name']:<40} {computed[m['name']]:>14.6f} {m['unit']}{note}")
    print(f"{'fail_ratio':<40} {failed / attempted:>14.6f} ratio"
          f"   ({failed} of {attempted} case runs failed)")
    print(f"{'calibration_s':<40} {statistics.median(calibration):>14.6f} s"
          f"   (median of {len(calibration)}; times above are scaled by "
          f"{CALIB_REF_S} / the calibration around each pass, set-up by "
          f"{CALIB_REF_S} / this)")
    for cid, rec in record.items():
        for problem in rec["problems"]:
            print(f"FAIL {cid}: {problem}", file=sys.stderr)
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)

    record_file = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "env": {"nproc": os.cpu_count(), "python": platform.python_version(),
                "implementation": platform.python_implementation(),
                "platform": platform.platform(), **source_identity()},
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "metrics": {**e2e, **layers},
        "raw_medians": e2e_raw,
        "calibration_s": calibration,
        "samples": {**e2e_samples, **layer_samples},
        "passes": [{"traced": p["traced"], "setup_s": p["setup_s"], "exit": p["exit"],
                    "calibration_s": p["calibration_s"],
                    **({k: p["result"][k] for k in ("wall_s", "peak_rss_mb")}
                       if p["result"] else {})}
                   for p in passes],
        "cases": record,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record_file, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0 and not missing, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
