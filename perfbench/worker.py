"""One pass of a workload, in a fresh process.

Protocol (run.py is the other end): the worker imports ctforge, writes
"ready" on stdout, reads a JSON job from stdin, runs the job's cases one
after another through `ctforge.cli.main`, then checks every output and
writes one JSON result line on stdout.  The checks and the digests run
after the last case, outside the timed span and outside tracing.

Started with the checkout root as working directory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import signal
import sys
import time
import traceback

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
import ctforge.cli  # noqa: E402  (set-up ends when this import has finished)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def peak_rss_mb() -> float:
    """This process's peak resident memory since exec.

    VmHWM, not getrusage: Linux carries the parent's high-water mark over
    fork and exec into ru_maxrss, so a small worker would report the load
    generator's memory.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_case(argv: list[str]) -> tuple[int | None, str, str, float, float]:
    """(exit code or None if it raised, stdout, stderr, start, end)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = ctforge.cli.main(argv)
    except SystemExit as e:   # argparse usage errors
        rc = e.code if isinstance(e.code, int) else 2
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    t1 = time.perf_counter()
    return rc, out.getvalue(), err.getvalue(), t0, t1


def check_case(check: dict, rc, stdout: str) -> tuple[list[str], dict[str, str]]:
    """Problems found (empty when the case passed) and certificate digests.

    Each check avoids the route under test: brute verdicts against the
    closed form, q = 1 against a multinomial computed here, replay against
    the closed form, certificates by a JSON reload and full re-validation,
    --all-vars values against the closed form at t = q^{-b}.
    """
    from ctforge.qdyson import (certificate_from_dict, qdyson_rhs, rhs_value_at,
                                validate_certificate)
    if rc != 0:
        return [f"exit code {rc}"], {}
    kind = check["kind"]
    if kind in ("brute", "q1"):
        report = json.loads(stdout)
        if kind == "brute":
            want = str(qdyson_rhs(check["a0"], tuple(check["a"])))
        else:
            params = check["params"]
            want = math.factorial(sum(params))
            for p in params:
                want //= math.factorial(p)
            want = str(want)
        problems = []
        if report.get("ok") is not True:
            problems.append("ok is not true")
        if report.get("lhs") != want:
            problems.append(f"lhs {report.get('lhs')!r} != closed form {want!r}")
        return problems, {}
    if kind == "replay":
        want = f"identity certified; RHS = {qdyson_rhs(check['a0'], tuple(check['a']))}"
        last = stdout.rstrip("\n").rsplit("\n", 1)[-1]
        return ([] if last == want else [f"last line {last!r} != {want!r}"]), {}
    if kind == "ct_all":
        want = str(rhs_value_at(tuple(check["a"]), -check["b"]))
        got = stdout.strip()
        return ([] if got == want else [f"value {got!r} != closed form {want!r}"]), {}
    if kind == "ct_var":
        return [], {}   # exit 0 means the CLI's pfrac/series cross-check passed
    if kind == "certify":
        problems, digests = [], {}
        a = tuple(check["a"])
        lines = stdout.splitlines()
        for b in range(1, sum(a) + 1):
            path = f"{check['stem']}_b{b}.json"
            try:
                with open(path, "rb") as fh:
                    raw = fh.read()
                cert = certificate_from_dict(json.loads(raw))
                nodes = validate_certificate(cert)
            except Exception as e:   # a missing, unreadable or invalid certificate
                problems.append(f"b={b}: {type(e).__name__}: {e}")
                continue
            digests[f"b{b}"] = _sha(raw)
            if cert.params.a != a or cert.params.b != b:
                problems.append(f"b={b}: certificate params {cert.params}")
            head = f"b={b}: {nodes} nodes, "
            if not any(l.startswith(head) and l.endswith("series oracle zero")
                       for l in lines):
                problems.append(f"b={b}: no report line '{head}... series oracle zero'")
        return problems, digests
    return [f"unknown check kind {kind!r}"], {}


def main() -> None:
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    job = json.loads(sys.stdin.read())
    if not job["cases"]:
        return
    signal.alarm(job["alarm_s"])
    cert_dir = job["cert_dir"]
    shutil.rmtree(cert_dir, ignore_errors=True)
    os.makedirs(cert_dir)

    tracer = None
    if job["trace"]:
        from tracer import Tracer   # perfbench/ is this script's directory
        tracer = Tracer()
        tracer.install()
    runs = []
    for i, case in enumerate(job["cases"]):
        if tracer is not None:
            tracer.case = i
        runs.append(run_case(case["argv"]))
    if tracer is not None:
        tracer.uninstall()
    rss = peak_rss_mb()

    cases = []
    for case, (rc, stdout, stderr, t0, t1) in zip(job["cases"], runs):
        try:
            problems, certs = check_case(case["check"], rc, stdout)
        except Exception as e:   # unparsable output is a failed case
            problems, certs = [f"check raised {type(e).__name__}: {e}"], {}
        cases.append({"id": case["id"], "seconds": t1 - t0, "rc": rc,
                      "stdout_sha256": _sha(stdout.encode()), "cert_sha256": certs,
                      "problems": problems, "stderr": stderr[-2000:]})
    result = {"wall_s": runs[-1][4] - runs[0][3], "peak_rss_mb": rss, "cases": cases}
    if tracer is not None:
        result["layers"] = tracer.summary()
        if job.get("spans_out"):
            tracer.dump(job["spans_out"])
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
