"""The frozen perfbench tracer still installs around today's fintopo.

perfbench/tracer.py patches fintopo functions by name, and only runs
with tracing on import it, so a fintopo name it reads that goes away
would break those runs alone.  This test installs the tracer as a traced
perfbench child does, runs the CLI and a pooled map sweep under it, and
checks that every per-layer metric BENCHMARK.json declares is reported.
Nothing under perfbench/ is written.
"""

import importlib.util
import json
from pathlib import Path

from fintopo import cli, setclasses, theorems
from fintopo.enumeration import EnumerationBudget

from helpers import force_pool

ROOT = Path(__file__).resolve().parent.parent


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_reports_every_declared_layer(monkeypatch, capsys):
    tracing = _load_tracer()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    expected = {m["name"] for m in declared
                if not m["name"].startswith("trace.")}
    class_table = setclasses.class_table
    tracer = tracing.install(tracing.Tracer("test"))
    try:
        assert setclasses.class_table is not class_table
        assert cli.main(["verify", "all"]) == 0
        force_pool(monkeypatch)
        theorems.verify("s41-iii", EnumerationBudget(max_n=2))
    finally:
        tracer.finish()
    capsys.readouterr()
    assert setclasses.class_table is class_table
    metrics = tracing.layer_metrics(tracer)
    assert expected - set(metrics) == set()
    assert metrics["theorems.pool.created"] >= 1
    assert metrics["cli.main.calls"] == 1
    assert metrics["theorems.maps_checked"] > 0
