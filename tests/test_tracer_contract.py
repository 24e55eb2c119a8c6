"""The span tracer in perfbench/ rebinds qfiext functions by module and name.

A function that moves or is renamed breaks every traced benchmark run, which
this suite does not start, so every name the tracer lists must resolve here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{name}"
        for module, name in tracer.TRACED_FUNCTIONS
        if not callable(getattr(importlib.import_module(f"qfiext.{module}"), name, None))
    ]
    assert tracer.TRACED_FUNCTIONS and missing == []
