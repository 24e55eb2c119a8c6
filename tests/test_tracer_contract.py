"""The span tracer in perfbench/ rebinds qfiext functions by module and name.

A function that moves or is renamed breaks every traced benchmark run, which
this suite does not start, so every name the tracer lists must resolve here,
and the two construction hooks it wraps on their classes must run once per
construction.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from qfiext.family import HamiltonianFamily
from qfiext.linalg import HermitianOperator, checked_operator

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


def test_construction_hooks_resolve_on_their_classes():
    # The tracer wraps these two on the class; each constructor must call it through self.
    for cls in (HermitianOperator, HamiltonianFamily):
        assert callable(vars(cls).get("__post_init__")), cls


def test_a_replaced_hook_runs_once_per_construction(monkeypatch):
    calls = []
    for cls in (HermitianOperator, HamiltonianFamily):
        original = cls.__post_init__

        def hook(self, original=original):
            calls.append(type(self).__name__)
            original(self)

        monkeypatch.setattr(cls, "__post_init__", hook)
    op = HermitianOperator(np.eye(2))
    assert calls == ["HermitianOperator"] and not op.matrix.flags.writeable
    checked_operator(op.matrix)
    assert calls == ["HermitianOperator"]
    HamiltonianFamily(2, lambda theta: op, lambda theta: op)
    assert calls == ["HermitianOperator", "HamiltonianFamily"]
