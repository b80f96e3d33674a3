"""The traced benchmark run patches scalarnet callables where the pipeline
looks them up (see benchmarks/tracer.py). A refactor that moves or renames one
of them would silently stop tracing it, so every binding must still resolve."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


def test_every_tracer_binding_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in tracer._bindings()
        if attr not in vars(owner)
    ]
    assert not missing, f"tracer bindings no longer resolve: {missing}"
