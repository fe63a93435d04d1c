"""Workload case lists, generated from a seed.

Every case names a parameter tuple.  The variable order is semantic (the
engine expands x0 first, then x1, ...), so two orders of the same tuple can
differ in cost by a factor of three.  Each case therefore runs in every
distinct order of its parameters, and the seed decides the sequence: the
total work of a pass is the same for every seed, while the order in which
cases meet the module-level caches changes.  All values checked are
symmetric in the parameters, so the checks do not depend on the seed either.

A case is a dict: `id` (stable across seeds, used by compare.py), `argv`
(handed to `ctforge.cli.main`) and `check` (what the worker verifies).
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("brute", "replay", "ct")

# Certificates written by `certify --json-out` land here, relative to the
# checkout root; the worker empties it before every pass.
CERT_DIR = "perfbench/results/certs"


def _csv(t) -> str:
    return ",".join(str(x) for x in t)


def _orders(rng: random.Random, params: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every distinct order of params, in a seeded sequence."""
    out = sorted(set(itertools.permutations(params)))
    rng.shuffle(out)
    return out


def kernel_expr(a: tuple[int, ...], b: int) -> str:
    """K(a, b) in the parser's syntax: the q-Dyson kernel whose full
    constant term is the constant-term side at t = q^{-b}."""
    n = len(a)
    parts = [f"qpoch(q*x{j}/x0,{a[j - 1]})" for j in range(1, n + 1)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            parts.append(f"qpoch(x{i}/x{j},{a[i - 1]})")
            parts.append(f"qpoch(q*x{j}/x{i},{a[j - 1]})")
    parts += [f"qpoch(x0/x{j},{-b})" for j in range(1, n + 1)]
    return "*".join(parts)


def _brute(rng):
    for params in ((4,) * 5, (2,) * 6, (3,) * 5, (5,) * 4):
        for p in _orders(rng, params):
            yield {"id": f"verify brute ({p[0]};{_csv(p[1:])})",
                   "argv": ["verify", "--a0", str(p[0]), "--a", _csv(p[1:]), "--json"],
                   "check": {"kind": "brute", "a0": p[0], "a": list(p[1:])}}
    for p in _orders(rng, (2,) * 5):
        yield {"id": f"verify q1 ({p[0]};{_csv(p[1:])})",
               "argv": ["verify", "--a0", str(p[0]), "--a", _csv(p[1:]),
                        "--q1", "--json"],
               "check": {"kind": "q1", "params": list(p)}}


def _replay(rng):
    for params in ((2, 2, 2, 2), (1, 1, 1, 1, 1), (3, 3, 3), (1, 1, 1, 2)):
        for p in _orders(rng, params):
            yield {"id": f"verify replay ({p[0]};{_csv(p[1:])})",
                   "argv": ["verify", "--a0", str(p[0]), "--a", _csv(p[1:]),
                            "--method", "replay"],
                   "check": {"kind": "replay", "a0": p[0], "a": list(p[1:])}}
    for a in _orders(rng, (2, 1, 1)):
        stem = f"{CERT_DIR}/cert_{'-'.join(map(str, a))}"
        yield {"id": f"certify --a {_csv(a)} --all-b --oracle",
               "argv": ["certify", "--a", _csv(a), "--all-b", "--oracle",
                        "--json-out", f"{stem}.json"],
               "check": {"kind": "certify", "a": list(a), "stem": stem}}


def _ct(rng):
    for params, b in (((2, 2, 2), 9), ((3, 3), 10)):
        for a in _orders(rng, params):
            yield {"id": f"ct K(({_csv(a)}),{b}) --all-vars",
                   "argv": ["ct", "--expr", kernel_expr(a, b), "--all-vars"],
                   "check": {"kind": "ct_all", "a": list(a), "b": b}}
    for params, b, trunc in (((3, 3), 7, 6), ((2, 1, 1), 4, 1)):
        for a in _orders(rng, params):
            yield {"id": f"ct K(({_csv(a)}),{b}) --var x0 --trunc {trunc}",
                   "argv": ["ct", "--expr", kernel_expr(a, b), "--var", "x0",
                            "--method", "both", "--trunc", str(trunc)],
                   "check": {"kind": "ct_var"}}


_WORKLOAD_CASES = {"brute": _brute, "replay": _replay, "ct": _ct}


def make_cases(workload: str, seed: int) -> list[dict]:
    """The case list of one pass: all orders of every case, shuffled."""
    rng = random.Random(f"{workload}:{seed}")
    cases = list(_WORKLOAD_CASES[workload](rng))
    rng.shuffle(cases)
    return cases
