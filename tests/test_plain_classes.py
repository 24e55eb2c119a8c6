"""Guards over the package's modules.

The package defines its types as plain classes, which cost nothing to create at
import: a dataclass generates and compiles its methods when its module is
imported, in every ``qfiext`` process; the model parameter tables that ``sweep``
reads from the parameter classes' signatures must stay as they were. No module
but ``__init__``, which re-exports, imports a name it does not use.
"""

import ast
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


def test_no_module_imports_a_name_it_does_not_use():
    unused = []
    for info in pkgutil.iter_modules(qfiext.__path__):  # the submodules, not __init__
        module = importlib.import_module(f"qfiext.{info.name}")
        tree = ast.parse(inspect.getsource(module))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[(alias.asname or alias.name).partition(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{info.name}:{line}: {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []
