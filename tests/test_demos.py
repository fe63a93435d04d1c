"""Every demo script runs to completion against the package in src/ and
prints the bytes pinned here (the sha256 of its stdout)."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
STDOUT_SHA256 = {
    "01_exact_q_arithmetic.py":
        "60147e53d7e66cbd382fbfec078cd37d224b3bd1dbe077ca54fd539620792ed9",
    "02_constant_terms.py":
        "22cf940758a1adbddf7bdbb06784b361f3bbef411e3879d43a20bb5e6258f365",
    "03_qdyson_brute_force.py":
        "74d36ec25e592e58bc43ab96389c67cecf47ece170e7cc96022f56ca98aa7942",
    "04_vanishing_certificates.py":
        "a91a8fd0bd87efa93b7d17f64bf603a0e4da99f4c4fa76ee65f2fdb1c862ab70",
    "05_classical_identities.py":
        "54dcd72e861b08a7115d30c16a5a9bb6f10ef372450d47fd58c525ae4ed73bbd",
}


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    r = subprocess.run((sys.executable, str(demo)), capture_output=True,
                       env=env, timeout=120)
    assert r.returncode == 0, r.stderr.decode()
    assert hashlib.sha256(r.stdout).hexdigest() == STDOUT_SHA256[demo.name]
