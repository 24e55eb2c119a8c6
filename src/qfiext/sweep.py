"""Parameter sweeps: grid specification, evaluation, CSV/JSON emission, presets.

A sweep evaluates the channel QFI over a grid of one variable (evaluation
point, evolution time, or an extension parameter) with everything else fixed.
A run's scenario (model, fixed parameters, extension, family file) is checked
by ``validate_scenario`` and built by ``build_scenario``, the same pair that
``qfiext report`` uses. Each run builds its model family, extension and
operator file once and evaluates what the swept variable changes for the
whole grid in one stacked expression
(``HamiltonianFamily.values``/``derivatives``). The grid then goes
through one stacked eigendecomposition pass (``qfi.channel_qfi_stack``), in
which a matrix that is the same at every point is decomposed once; every
point gets the bits ``qfi.channel_qfi`` would give it. Rows are in grid
order and floats are emitted in shortest round-trip form, so identical specs
produce byte-identical output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    FamilyFileError,
    InvalidSpec,
    ModelError,
    NonHermitianInput,
)
from .extensions import (
    AddOperator,
    Flood,
    Subtract,
    SubtractPerturbed,
    apply_extension,
    extension_offset,
)
from .family import checked_stack
from .familyfile import load_definition
from .familyfile import build_family as _build_custom_family
from .generator import GeneratorMethod
from .linalg import HermitianOperator
from .models import (
    LANDE_G_DEFAULT,
    NV_D_DEFAULT,
    NV_E_DEFAULT,
    DirectionParams,
    NvParams,
    broken_phase_shift_family,
    direction_family,
    direction_sz_operator,
    nv_family,
)
from .qfi import channel_qfi_stack

SCALES = ("linear", "log")
CSV_HEADER = "sweep_value,channel_qfi,upper_bound,ratio,generator_method,estimated_error"
# Bad input files and matrices keep their own exit code instead of becoming ModelError.
_INPUT_ERRORS = (InvalidSpec, NonHermitianInput, DimensionMismatch, FamilyFileError)

# Each model's parameters with their defaults; None marks a required parameter.
_MODEL_DEFAULTS = {
    "nv": {"Bx": 0.0, "By": 0.0, "Bz": 0.0, "D": NV_D_DEFAULT, "E": NV_E_DEFAULT,
           "g": LANDE_G_DEFAULT, "t": 1e-3},
    "direction": {"B": None, "theta": 0.0, "phi": 0.0, "g": LANDE_G_DEFAULT, "t": 1e-2},
    "broken-phase-shift": {"theta": 0.0, "t": 1.0},
    "custom": {"theta": 0.0, "t": 1.0},
}
MODELS = tuple(_MODEL_DEFAULTS)
_FILE_MODELS = ("broken-phase-shift", "custom")
# Each extension kind's fields with their defaults; None marks a required field.
# ``file`` is a path, every other field a number.
_EXTENSION_FIELDS = {
    "flood": {"beta": None, "theta0": 0.0},
    "subtract": {"theta0": None},
    "subtract-perturbed": {"theta0": None, "epsilon": None},
    "add-operator": {"file": None, "epsilon": None},
    "sz": {"kappa": None},
}
_SWEEPABLES = {
    "nv": ("B_z", "t", "beta", "epsilon"),
    "direction": ("theta", "t", "beta", "kappa", "epsilon"),
    "broken-phase-shift": ("theta", "t", "beta", "epsilon"),
    "custom": ("theta", "t", "beta", "epsilon"),
}


@dataclass(frozen=True)
class Grid:
    start: float
    stop: float
    points: int
    scale: str = "linear"

    def values(self) -> list[float]:
        if self.points == 1:
            return [float(self.start)]
        if self.scale == "log":
            return [float(x) for x in np.geomspace(self.start, self.stop, self.points)]
        return [float(x) for x in np.linspace(self.start, self.stop, self.points)]


@dataclass(frozen=True)
class SweepSpec:
    model: str
    sweep_variable: str
    grid: Grid
    fixed_params: dict = field(default_factory=dict)
    extension: Optional[dict] = None
    family_file: Optional[str] = None
    label: str = ""


@dataclass(frozen=True)
class SweepRow:
    sweep_value: float
    channel_qfi: float
    upper_bound: float
    ratio: float
    generator_method: str
    estimated_error: float


@dataclass(frozen=True)
class SweepResult:
    label: str
    rows: tuple[SweepRow, ...]


def _scenario(spec: SweepSpec) -> dict:
    return {key: getattr(spec, key) for key in ("model", "fixed_params", "extension", "family_file")}


def validate_spec(spec: SweepSpec) -> None:
    """Raise InvalidSpec (message carries the offending field path) on any problem."""
    validate_scenario(_scenario(spec), spec.sweep_variable)
    grid = spec.grid
    if grid.points < 1:
        raise InvalidSpec(f"grid.points: must be >= 1, got {grid.points}")
    if grid.scale not in SCALES:
        raise InvalidSpec(f"grid.scale: must be 'linear' or 'log', got {grid.scale!r}")
    if not (math.isfinite(grid.start) and math.isfinite(grid.stop)):
        raise InvalidSpec("grid.start/grid.stop: must be finite")
    if grid.points > 1 and not grid.start < grid.stop:
        raise InvalidSpec(f"grid.start: must be < grid.stop, got {grid.start} >= {grid.stop}")
    if grid.scale == "log" and grid.start <= 0:
        raise InvalidSpec(f"grid.start: log scale requires start > 0, got {grid.start}")
    if spec.sweep_variable not in _SWEEPABLES[spec.model]:
        raise InvalidSpec(
            f"sweep_variable: {spec.sweep_variable!r} not valid for model {spec.model!r}; "
            f"expected one of {', '.join(_SWEEPABLES[spec.model])}"
        )
    if spec.sweep_variable in ("beta", "kappa", "epsilon"):
        kinds = [kind for kind, fields in _EXTENSION_FIELDS.items() if spec.sweep_variable in fields]
        if spec.extension is None or spec.extension["kind"] not in kinds:
            raise InvalidSpec(
                f"sweep_variable: {spec.sweep_variable!r} requires extension.kind = "
                + " or ".join(map(repr, kinds))
            )


def _is_finite_number(value) -> bool:
    """A number, or a string that parses as one (CLI values), that is finite."""
    try:
        return math.isfinite(float(value))
    except (TypeError, ValueError):
        return False


def validate_scenario(scenario: dict, swept: Optional[str] = None) -> None:
    """Raise InvalidSpec naming the offending field of a scenario.

    A scenario is a run document without its grid: ``model``,
    ``fixed_params``, ``extension`` (None, or a dict whose ``kind`` names the
    extension) and ``family_file``. Parameters and extension fields are
    numbers or numeric strings. The extension field named ``swept`` comes
    from a sweep's grid and may be left out.
    """
    model = scenario["model"]
    if model not in _MODEL_DEFAULTS:
        raise InvalidSpec(f"model: must be one of {', '.join(MODELS)}, got {model!r}")
    known = _MODEL_DEFAULTS[model]
    params = scenario["fixed_params"]
    for key, value in params.items():
        if key not in known:
            raise InvalidSpec(
                f"fixed_params.{key}: unknown for model {model!r}; "
                f"expected one of {', '.join(known)}"
            )
        if not _is_finite_number(value):
            raise InvalidSpec(f"fixed_params.{key}: must be a finite number, got {value!r}")
    for key, default in known.items():
        if default is None and key not in params:
            raise InvalidSpec(f"fixed_params.{key}: required for the {model} model")
    if model == "direction" and float(params["B"]) < 0:
        raise InvalidSpec(f"fixed_params.B: must be >= 0, got {params['B']!r}")
    if model in _FILE_MODELS and not scenario["family_file"]:
        raise InvalidSpec(f"family_file: required for model {model!r}")
    if model not in _FILE_MODELS and scenario["family_file"]:
        raise InvalidSpec(f"family_file: not used by model {model!r}")
    ext = scenario["extension"]
    if ext is None:
        return
    kind = ext.get("kind") if isinstance(ext, dict) else None
    if kind not in _EXTENSION_FIELDS:
        raise InvalidSpec(
            f"extension.kind: must be one of {', '.join(_EXTENSION_FIELDS)}, got {kind!r}"
        )
    if kind == "sz" and model != "direction":
        raise InvalidSpec("extension.kind: 'sz' applies to the direction model only")
    fields = _EXTENSION_FIELDS[kind]
    for key, value in ext.items():
        if key == "kind":
            continue
        if key not in fields:
            raise InvalidSpec(
                f"extension.{key}: unknown for kind {kind!r}; expected one of {', '.join(fields)}"
            )
        if key == "file" and not (isinstance(value, str) and value):
            raise InvalidSpec(f"extension.file: must be a file path, got {value!r}")
        if key != "file" and not _is_finite_number(value):
            raise InvalidSpec(f"extension.{key}: must be a finite number, got {value!r}")
    for key, default in fields.items():
        if default is None and key not in ext and key != swept:
            raise InvalidSpec(f"extension.{key}: required for kind {kind!r}")


def build_scenario(scenario: dict, swept: Optional[str] = None, value=None):
    """The model family, evaluation point, time and extension of a checked scenario.

    Returns ``(family, theta, t, extension)``; ``extension`` is the
    ``ExtensionSpec`` to apply to ``family``, or None. ``swept`` names a
    ``_SWEEPABLES`` variable that takes ``value`` instead of its fixed or
    default value: a float, or for ``beta``, ``kappa`` and ``epsilon`` the
    (N,) array of all grid values. A file family or operator file is loaded
    once here.
    """
    model = scenario["model"]
    params = dict(_MODEL_DEFAULTS[model])
    params.update((key, float(v)) for key, v in scenario["fixed_params"].items())
    if swept in ("B_z", "theta", "t"):
        params["Bz" if swept == "B_z" else swept] = value
    if model == "nv":
        model_params = NvParams(**params)
        family, theta = nv_family(model_params), params["Bz"]
    elif model == "direction":
        model_params = DirectionParams(**params)
        family, theta = direction_family(model_params), params["theta"]
    else:
        family, theta = load_model_family(model, scenario["family_file"]), params["theta"]
    ext = scenario["extension"]
    if ext is None:
        return family, theta, params["t"], None
    kind = ext["kind"]

    def num(key: str):
        if key == swept:
            return value
        return float(ext.get(key, _EXTENSION_FIELDS[kind][key]))

    if kind == "flood":
        spec = Flood(beta=num("beta"), theta0=num("theta0"))
    elif kind == "subtract":
        spec = Subtract(theta0=num("theta0"))
    elif kind == "subtract-perturbed":
        spec = SubtractPerturbed(theta0=num("theta0"), epsilon=num("epsilon"))
    elif kind == "add-operator":
        spec = AddOperator(operator=_load_operator(ext["file"]), epsilon=num("epsilon"))
    else:  # sz: kappa * B g mu_B S_z
        spec = AddOperator(operator=direction_sz_operator(model_params), epsilon=num("kappa"))
    return family, theta, params["t"], spec


def load_model_family(model: str, family_file):
    """Family from a definition file, as the given file-backed model.

    The broken-phase-shift model restricts the file to const and linear
    coefficients and assembles theta*G + F with exact derivatives; the
    custom model accepts the full coefficient catalog.
    """
    definition = load_definition(family_file)
    if model == "custom":
        return _build_custom_family(definition)
    g_acc = np.zeros((definition.dim, definition.dim), dtype=complex)
    f_acc = np.zeros_like(g_acc)
    for k, term in enumerate(definition.terms):
        if term.coefficient.kind == "linear":
            g_acc += term.coefficient.scale * term.matrix.matrix
        elif term.coefficient.kind == "const":
            f_acc += term.coefficient.scale * term.matrix.matrix
        else:
            raise InvalidSpec(
                f"family_file: terms[{k}]: model 'broken-phase-shift' allows only "
                f"const and linear coefficients, got {term.coefficient.kind!r}"
            )
    return broken_phase_shift_family(HermitianOperator(g_acc), HermitianOperator(f_acc))


def _load_operator(path) -> HermitianOperator:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise FamilyFileError(f"cannot read operator file {str(path)!r}: {exc}") from exc
    if not isinstance(doc, dict) or "re" not in doc:
        raise FamilyFileError(f"{path}: expected an object with 're' (and optional 'im')")
    try:
        re = np.asarray(doc["re"], dtype=float)
        matrix = re + 1j * np.asarray(doc.get("im", np.zeros_like(re)), dtype=float)
    except (TypeError, ValueError) as exc:
        raise FamilyFileError(f"{path}: 're'/'im' must be equal-shape numeric matrices: {exc}") from exc
    return HermitianOperator(matrix)


def _grid_stacks(spec: SweepSpec, values: list[float]):
    """A run's H, dH/dtheta and t over its grid, the family built once.

    H and dH/dtheta are checked (N, d, d) stacks, or one (d, d) matrix where
    the swept variable does not change them; t is (N,). Only what the swept
    variable changes is stacked: the family's value and derivative for B_z
    and theta, the extension offset for beta, kappa and epsilon, and nothing
    but t itself for t.
    """
    grid = np.array(values)
    variable = spec.sweep_variable
    if variable in ("beta", "kappa", "epsilon"):
        family, theta, t, ext = build_scenario(_scenario(spec), variable, grid)
        offsets = extension_offset(family, ext)
        h = checked_stack(family.value(theta).matrix + offsets, grid, variable)
        return h, family.derivative(theta).matrix, np.full(grid.shape, t)
    family, theta, t, ext = build_scenario(_scenario(spec), variable, values[0])
    if ext is not None:
        family = apply_extension(family, ext)
    if variable == "t":
        return family.value(theta).matrix, family.derivative(theta).matrix, grid
    return family.values(grid), family.derivatives(grid), np.full(grid.shape, t)


def run_sweep(spec: SweepSpec, jobs: Optional[int] = None) -> SweepResult:
    """Evaluate all grid points, rows in grid order.

    ``jobs`` is accepted for compatibility and has no effect: the grid is
    evaluated in one stacked pass. A non-Hermitian or non-finite matrix
    names its first offending grid value. A failure other than a bad input
    file or matrix is raised as ModelError naming the first grid point,
    where the run is built.
    """
    validate_spec(spec)
    values = spec.grid.values()
    try:
        h, hdot, t = _grid_stacks(spec, values)
    except _INPUT_ERRORS:
        raise
    except Exception as exc:
        raise ModelError(f"at {spec.sweep_variable}={values[0]!r}: {exc}") from exc
    numbers = channel_qfi_stack(h, hdot, t)
    method = GeneratorMethod.SPECTRAL.value
    rows = tuple(
        SweepRow(x, cqfi, bound, ratio, method, err)
        for x, (cqfi, bound, ratio, err) in zip(values, numbers)
    )
    return SweepResult(spec.label, rows)


def _fmt(x: float) -> str:
    return repr(float(x))


def rows_to_csv(result: SweepResult) -> str:
    lines = [CSV_HEADER]
    for r in result.rows:
        lines.append(
            ",".join(
                (
                    _fmt(r.sweep_value),
                    _fmt(r.channel_qfi),
                    _fmt(r.upper_bound),
                    _fmt(r.ratio),
                    r.generator_method,
                    _fmt(r.estimated_error),
                )
            )
        )
    return "\n".join(lines) + "\n"


def rows_to_json(result: SweepResult) -> str:
    doc = {
        "label": result.label,
        "rows": [
            {
                "sweep_value": r.sweep_value,
                "channel_qfi": r.channel_qfi,
                "upper_bound": r.upper_bound,
                "ratio": r.ratio,
                "generator_method": r.generator_method,
                "estimated_error": r.estimated_error,
            }
            for r in result.rows
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def spec_from_dict(doc: dict, label: str = "") -> SweepSpec:
    """Build a SweepSpec from a decoded JSON run document."""
    try:
        grid_doc = doc["grid"]
        grid = Grid(
            start=float(grid_doc["start"]),
            stop=float(grid_doc["stop"]),
            points=int(grid_doc["points"]),
            scale=str(grid_doc.get("scale", "linear")),
        )
        spec = SweepSpec(
            model=str(doc["model"]),
            sweep_variable=str(doc["sweep_variable"]),
            grid=grid,
            fixed_params=dict(doc.get("fixed_params", {})),
            extension=doc.get("extension"),
            family_file=doc.get("family_file"),
            label=str(doc.get("label", label)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidSpec(f"run document: {exc!r}") from exc
    validate_spec(spec)
    return spec


@dataclass(frozen=True)
class Preset:
    name: str
    description: str
    runs: tuple[SweepSpec, ...]


def _preset_dir():
    return resources.files("qfiext").joinpath("data/presets")


def preset_names() -> list[str]:
    return sorted(p.name[: -len(".json")] for p in _preset_dir().iterdir() if p.name.endswith(".json"))


def load_preset(name: str) -> Preset:
    path = _preset_dir().joinpath(f"{name}.json")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise InvalidSpec(f"preset: unknown preset {name!r}; available: {', '.join(preset_names())}")
    runs = tuple(
        spec_from_dict(run, label=f"run{k}") for k, run in enumerate(doc["runs"])
    )
    return Preset(doc["name"], doc.get("description", ""), runs)


def load_config(path) -> Preset:
    """Load a config file: either one run document or {name, description, runs: [...]}."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InvalidSpec(f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except OSError as exc:
        raise InvalidSpec(f"--config: cannot read {path!r}: {exc}")
    if "runs" in doc:
        runs = tuple(spec_from_dict(run, label=f"run{k}") for k, run in enumerate(doc["runs"]))
        return Preset(doc.get("name", str(path)), doc.get("description", ""), runs)
    return Preset(str(path), "", (spec_from_dict(doc, label="run0"),))
