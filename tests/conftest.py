"""Fixtures shared by the test modules."""

import importlib.util
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def bench_cases():
    """perfbench/cases.py, the benchmark's case lists, loaded as a module:
    perfbench is a directory of scripts, not a package."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "cases.py"
    spec = importlib.util.spec_from_file_location("perfbench_cases", path)
    cases = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cases)
    return cases
