"""perfbench/spans.py wraps ramseylb functions where their callers bind
them.  A binding that moves or disappears would make its metric read 0,
so every one of them must resolve."""

import importlib.util
import sys
from pathlib import Path

import ramseylb.cliques

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_binding_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    rank = ramseylb.cliques.rank
    tracer = spans.Tracer()
    tracer.install()  # raises TargetMissing before it wraps anything
    try:
        assert tracer.active
        assert ramseylb.cliques.rank is not rank
    finally:
        tracer.uninstall()
    assert ramseylb.cliques.rank is rank
