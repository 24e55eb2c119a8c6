"""The package defines its types as plain classes, which cost nothing to create at import.

A dataclass generates and compiles its methods when its module is imported, in
every ``qfiext`` process; the model parameter tables that ``sweep`` reads from
the parameter classes' signatures must stay as they were.
"""

import dataclasses
import importlib
import inspect
import math
import pkgutil

import qfiext
from qfiext import sweep


def test_no_module_defines_a_dataclass():
    found = []
    for info in pkgutil.iter_modules(qfiext.__path__):
        module = importlib.import_module(f"qfiext.{info.name}")
        for name, obj in vars(module).items():
            imported = obj is dataclasses or getattr(obj, "__module__", None) == "dataclasses"
            if imported or (inspect.isclass(obj) and dataclasses.is_dataclass(obj)):
                found.append(f"{info.name}.{name}")
    assert found == []


def test_model_defaults_are_the_parameter_classes_defaults():
    g = 2.003
    assert list(sweep._MODEL_DEFAULTS.items()) == [
        ("nv", {"Bx": 0.0, "By": 0.0, "Bz": 0.0, "D": 2 * math.pi * 2.87e9,
                "E": 2 * math.pi * 5e6, "g": g, "t": 1e-3}),
        ("direction", {"B": None, "theta": 0.0, "phi": 0.0, "t": 1e-2, "g": g}),
        ("broken-phase-shift", {"theta": 0.0, "t": 1.0}),
        ("custom", {"theta": 0.0, "t": 1.0}),
    ]
