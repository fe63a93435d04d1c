"""Timing spans around the public functions of each ctforge layer.

The tracer patches functions from outside the package: nothing under src/
knows it exists.  Each call records a span (name, start, end, parent span,
case index) in memory; `summary` derives per-name calls, self time (the
span's duration minus the time its child spans cover) and inclusive time,
plus the counters the per-layer metrics need.  Spans are written out once,
at the end of a pass, by `dump`.

The modules use `from .x import y`, so a function is bound under several
module globals (`ctforge.qdyson.ct_all_series` and `ctforge.cli.ct_all_series`
are the same object).  `install` replaces every binding of each target in
every loaded ctforge module, and `uninstall` puts the originals back.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
import time

LAYERS = ("qfield", "laurent", "ctengine", "qdyson", "tournament", "parser", "cli")

# Module-level helpers called millions of times per pass; a span around each
# would cost more than the work it measures.  Their time lands in the caller.
SKIP = {"qfield.as_scalar", "laurent.add_exps", "laurent.scale_exps"}

# Q(q) arithmetic: every QRat method that computes a value.  The
# expansion loops call them directly, so without a span their time would
# count as laurent's.  They share one name; a method that delegates to
# another (__sub__ to __neg__ and __add__) opens a nested span.
QRAT_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "inverse",
              "times_qpow", "scaled")

# Methods that are layer boundaries, and short names for the functions the
# per-layer metrics refer to.
METHODS = {
    ("qfield", "QPoly", "gcd"): "qfield.gcd",
    ("qfield", "QRat", "__init__"): "qfield.canon",
    **{("qfield", "QRat", attr): "qfield.arith" for attr in QRAT_ARITH},
    ("laurent", "FactoredForm", "expand_within"): "laurent.expand_within",
    ("laurent", "FactoredForm", "substitute"): "laurent.substitute",
}
RENAME = {
    "ctengine.ct_factored_pfrac_labeled": "ctengine.pfrac",
    "qdyson.certify_vanishing": "qdyson.certify",
    "qdyson.degree_bound_check": "qdyson.degree_bound",
    "qdyson.interpolate_eval": "qdyson.interpolate",
    "qdyson.validate_certificate": "qdyson.validate",
    "tournament.scan_witness": "tournament.scan",
}
# cli: only the entry point, so that its self time is the front end's own
# work (argument parsing, formatting, printing, JSON writing).
CLI_FUNCTIONS = ("main",)
# Counters kept by the after-hooks (reported as 0 when never hit).
COUNTERS = ("laurent.expand_within.terms_out", "ctengine.pfrac.summands",
            "qdyson.cert.nodes", "qdyson.cert.recursed", "qdyson.cert.zero_case1",
            "qdyson.cert.zero_case2", "qdyson.lhs_value_at.nonneg_calls",
            "tournament.scan.witnesses")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []   # [name, start_ns, end_ns, parent, case]
        self.stack: list[int] = []
        self.case = -1
        self.counts: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------------

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _after_hooks(self):
        def terms_out(args, kwargs, out):
            self._count("laurent.expand_within.terms_out", len(out.terms))

        def summands(args, kwargs, out):
            self._count("ctengine.pfrac.summands", len(out))

        def cert(args, kwargs, out):
            counts = out.leaf_counts()
            self._count("qdyson.cert.nodes", sum(counts.values()))
            for status in ("recursed", "zero_case1", "zero_case2"):
                self._count(f"qdyson.cert.{status}", counts.get(status, 0))

        def lhs(args, kwargs, out):
            b = args[1] if len(args) > 1 else kwargs["b"]
            if b >= 0:
                self._count("qdyson.lhs_value_at.nonneg_calls")

        def scan(args, kwargs, out):
            if out is not None:
                self._count("tournament.scan.witnesses")

        return {"laurent.expand_within": terms_out, "ctengine.pfrac": summands,
                "qdyson.certify": cert, "qdyson.lhs_value_at": lhs,
                "tournament.scan": scan}

    def wrap(self, name: str, fn, after=None):
        if name not in self.names:
            self.names.append(name)
        idx = self.names.index(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [idx, clock(), 0, stack[-1] if stack else -1, self.case]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def _targets(self):
        """(span name, original function, class or None, attribute)."""
        for layer in LAYERS:
            mod = importlib.import_module(f"ctforge.{layer}")
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                if layer == "cli" and attr not in CLI_FUNCTIONS:
                    continue
                name = f"{layer}.{attr}"
                if name not in SKIP:
                    yield RENAME.get(name, name), obj, None, attr
        for (layer, cls_name, attr), name in METHODS.items():
            cls = getattr(importlib.import_module(f"ctforge.{layer}"), cls_name)
            raw = cls.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            yield name, fn, cls, attr

    def install(self) -> None:
        hooks = self._after_hooks()
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ctforge" or n.startswith("ctforge."))]
        for name, fn, cls, attr in list(self._targets()):
            traced = self.wrap(name, fn, hooks.get(name))
            if cls is not None:
                raw = cls.__dict__[attr]
                new = staticmethod(traced) if isinstance(raw, staticmethod) else traced
                self._undo.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((mod, key, fn))
                        setattr(mod, key, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results --------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per span name: `.calls`, `.self_s`, `.total_s`; per layer:
        `layer.<name>.self_s`; plus the hook counters and the derived
        oracle and reuse metrics."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, case in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, float] = {}
        for key in (f"{n}.{f}" for n in self.names for f in ("calls", "self_s", "total_s")):
            out[key] = 0
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = 0.0
        for key in COUNTERS:
            out[key] = 0
        names = self.names
        oracle_n = oracle_self = oracle_total = lhs_brute = 0
        for i, (idx, start, end, parent, case) in enumerate(spans):
            name = names[idx]
            dur = end - start
            self_ns = dur - child_ns[i]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_ns / 1e9
            out[f"{name}.total_s"] += dur / 1e9
            out[f"layer.{name.split('.', 1)[0]}.self_s"] += self_ns / 1e9
            parent_name = names[spans[parent][0]] if parent >= 0 else None
            if name == "ctengine.ct_all_series" and parent_name == "qdyson.certify":
                oracle_n += 1
                oracle_self += self_ns
                oracle_total += dur
            elif (name == "ctengine.ct_all_bruteforce"
                  and parent_name == "qdyson.lhs_value_at"):
                lhs_brute += 1
        out.update(self.counts)
        out["qdyson.oracle.kernels"] = oracle_n
        out["qdyson.oracle.self_s"] = oracle_self / 1e9
        out["qdyson.oracle.total_s"] = oracle_total / 1e9
        nonneg = self.counts.get("qdyson.lhs_value_at.nonneg_calls", 0)
        # 1 - (brute expansions / lhs_value_at calls with b >= 0); 0 when
        # no such call was made.
        out["qdyson.lhs_reuse_ratio"] = 1 - lhs_brute / nonneg if nonneg else 0.0
        scans = out.get("tournament.scan.calls", 0)
        witnesses = self.counts.get("tournament.scan.witnesses", 0)
        out["tournament.witness_ratio"] = witnesses / scans if scans else 0.0
        return out

    def dump(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "case"],
                       "names": self.names, "spans": self.spans}, fh)
