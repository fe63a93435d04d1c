"""The benchmark's tracer still binds the functions its per-layer metrics
name, and puts every original back when uninstalled."""

import importlib.util
from pathlib import Path

from ctforge import cli, qdyson
from ctforge.qfield import QPoly

ROOT = Path(__file__).resolve().parent.parent


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_replay_spans_and_uninstall(capsys):
    originals = (qdyson.interpolate_eval, qdyson.degree_bound_check,
                 cli.verify_qdyson, QPoly.__dict__["gcd"])
    module = load_tracer()
    tracer = module.Tracer()
    tracer.install()
    try:
        # a deleted or renamed function would silently zero its metrics
        named = {*module.METHODS.values(), *module.RENAME.values(),
                 *tracer._after_hooks()}
        assert named - set(tracer.names) == set()
        assert qdyson.interpolate_eval is not originals[0]
        rc = cli.main(["verify", "--a0", "1", "--a", "1,1", "--method", "both"])
    finally:
        tracer.uninstall()
    assert rc == 0 and "certified" in capsys.readouterr().out
    summary = tracer.summary()
    for name in ("qdyson.interpolate", "qdyson.degree_bound", "qfield.gcd"):
        assert summary[f"{name}.calls"] > 0, name
    assert (qdyson.interpolate_eval, qdyson.degree_bound_check,
            cli.verify_qdyson, QPoly.__dict__["gcd"]) == originals


def test_ct_times_parsing_and_lowering_apart(capsys):
    # BENCHMARK.json's per-layer list names parser.parse and parser.lower
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        rc = cli.main(["ct", "--expr", "1/(1 - q*x0/x1)", "--var", "x0"])
    finally:
        tracer.uninstall()
    assert rc == 0 and capsys.readouterr().out == "1\n"
    summary = tracer.summary()
    for name in ("parser.parse", "parser.lower"):
        assert summary[f"{name}.calls"] > 0, name
