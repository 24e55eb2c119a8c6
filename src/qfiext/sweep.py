"""Parameter sweeps: grid specification, evaluation, CSV/JSON emission, presets.

A sweep evaluates the channel QFI over a grid of one variable (evaluation
point, evolution time, or an extension parameter) with everything else fixed.
Each run builds its model family, extension and operator file once and
evaluates what the swept variable changes for the whole grid in one stacked
expression (``HamiltonianFamily.values``/``derivatives``). The grid then goes
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
    DirectionParams,
    NvParams,
    broken_phase_shift_family,
    direction_family,
    direction_sz_operator,
    nv_family,
)
from .qfi import channel_qfi_stack

MODELS = ("nv", "direction", "broken-phase-shift", "custom")
EXTENSION_KINDS = ("flood", "subtract", "subtract-perturbed", "add-operator", "sz")
SCALES = ("linear", "log")
CSV_HEADER = "sweep_value,channel_qfi,upper_bound,ratio,generator_method,estimated_error"
# Bad input files and matrices keep their own exit code instead of becoming ModelError.
_INPUT_ERRORS = (InvalidSpec, NonHermitianInput, DimensionMismatch, FamilyFileError)

_MODEL_DEFAULTS = {
    "nv": {"Bx": 0.0, "By": 0.0, "Bz": 0.0, "D": None, "E": None, "g": None, "t": 1e-3},
    "direction": {"B": None, "theta": 0.0, "phi": 0.0, "g": None, "t": 1e-2},
    "broken-phase-shift": {"theta": 0.0, "t": 1.0},
    "custom": {"theta": 0.0, "t": 1.0},
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


def validate_spec(spec: SweepSpec) -> None:
    """Raise InvalidSpec (message carries the offending field path) on any problem."""
    if spec.model not in MODELS:
        raise InvalidSpec(f"model: must be one of {', '.join(MODELS)}, got {spec.model!r}")
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
    for key, value in spec.fixed_params.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise InvalidSpec(f"fixed_params.{key}: must be a finite number, got {value!r}")
    if spec.model in ("broken-phase-shift", "custom") and not spec.family_file:
        raise InvalidSpec(f"family_file: required for model {spec.model!r}")
    ext = spec.extension
    if ext is not None:
        kind = ext.get("kind")
        if kind not in EXTENSION_KINDS:
            raise InvalidSpec(
                f"extension.kind: must be one of {', '.join(EXTENSION_KINDS)}, got {kind!r}"
            )
        if kind == "sz" and spec.model != "direction":
            raise InvalidSpec("extension.kind: 'sz' applies to the direction model only")
    if spec.sweep_variable == "beta" and (ext is None or ext.get("kind") != "flood"):
        raise InvalidSpec("sweep_variable: 'beta' requires extension.kind = 'flood'")
    if spec.sweep_variable == "kappa" and (ext is None or ext.get("kind") != "sz"):
        raise InvalidSpec("sweep_variable: 'kappa' requires extension.kind = 'sz'")
    if spec.sweep_variable == "epsilon" and (
        ext is None or ext.get("kind") not in ("subtract-perturbed", "add-operator")
    ):
        raise InvalidSpec(
            "sweep_variable: 'epsilon' requires extension.kind = 'subtract-perturbed' "
            "or 'add-operator'"
        )


def _params(spec: SweepSpec, sweep_value: float) -> dict:
    params = dict(_MODEL_DEFAULTS[spec.model])
    params.update(spec.fixed_params)
    if spec.sweep_variable == "B_z":
        params["Bz"] = sweep_value
    elif spec.sweep_variable in ("theta", "t"):
        params[spec.sweep_variable] = sweep_value
    return params


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


def _build_base(spec: SweepSpec, params: dict):
    """Model family, evaluation point, time and model parameters of a run."""
    if spec.model == "nv":
        kwargs = {k: params[k] for k in ("Bx", "By", "Bz", "D", "E", "g", "t") if params[k] is not None}
        nv = NvParams(**kwargs)
        return nv_family(nv), params["Bz"], params["t"], nv
    if spec.model == "direction":
        if params["B"] is None:
            raise InvalidSpec("fixed_params.B: required for the direction model")
        dp = DirectionParams(
            B=params["B"], theta=params["theta"], phi=params["phi"],
            t=params["t"], **({"g": params["g"]} if params["g"] is not None else {}),
        )
        return direction_family(dp), params["theta"], params["t"], dp
    family = load_model_family(spec.model, spec.family_file)
    return family, params["theta"], params["t"], None


def _extension_operator(spec: SweepSpec, model_params) -> Optional[HermitianOperator]:
    """The operator an add-operator or sz extension adds; built once per run."""
    kind = spec.extension["kind"]
    if kind == "add-operator":
        return _load_operator(spec.extension["file"])
    if kind == "sz":
        return direction_sz_operator(model_params)
    return None


def _extension_spec(spec: SweepSpec, sweep_value, operator):
    """The run's extension with its swept parameter, if any, set to ``sweep_value``.

    ``sweep_value`` is a float, or the (N,) array of all grid values for a
    ``beta``, ``kappa`` or ``epsilon`` sweep.
    """
    ext = spec.extension
    kind = ext["kind"]

    def num(key: str, default=None):
        if key == spec.sweep_variable:
            return sweep_value
        return float(ext[key] if default is None else ext.get(key, default))

    if kind == "flood":
        return Flood(beta=num("beta"), theta0=num("theta0", 0.0))
    if kind == "subtract":
        return Subtract(theta0=num("theta0"))
    if kind == "subtract-perturbed":
        return SubtractPerturbed(theta0=num("theta0"), epsilon=num("epsilon"))
    if kind == "add-operator":
        return AddOperator(operator=operator, epsilon=num("epsilon"))
    return AddOperator(operator=operator, epsilon=num("kappa"))  # sz: kappa * B g mu_B S_z


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
    family, theta, t, model_params = _build_base(spec, _params(spec, values[0]))
    operator = None if spec.extension is None else _extension_operator(spec, model_params)
    times = np.full(grid.shape, float(t))
    if spec.sweep_variable in ("beta", "kappa", "epsilon"):
        offsets = extension_offset(family, _extension_spec(spec, grid, operator))
        h = checked_stack(family.value(theta).matrix + offsets, grid, spec.sweep_variable)
        return h, family.derivative(theta).matrix, times
    if spec.extension is not None:
        family = apply_extension(family, _extension_spec(spec, values[0], operator))
    if spec.sweep_variable == "t":
        return family.value(theta).matrix, family.derivative(theta).matrix, grid
    return family.values(grid), family.derivatives(grid), times


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
