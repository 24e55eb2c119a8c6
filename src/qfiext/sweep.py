"""Parameter sweeps: grid specification, evaluation, CSV/JSON emission, presets.

A sweep evaluates the channel QFI over a grid of one variable (evaluation
point, evolution time, or an extension parameter) with everything else fixed.
A run's scenario (model, fixed parameters, extension, family file) is checked
by ``validate_scenario`` and built from its values by ``build_scenario``, which
``qfiext report`` uses too. Each run builds its model family, extension and
operator file once and evaluates what the swept variable changes for the
whole grid in one stacked expression
(``HamiltonianFamily.values``/``derivatives``). The grid then goes
through one stacked eigendecomposition pass (``qfi.channel_qfi_stack``), in
which a matrix that is the same at every point is decomposed once; every
point gets the bits ``qfi.channel_qfi`` would give it. The results stay
columns (one list per quantity, in grid order) from the eigensolver to the
CSV or JSON text. A run with a generator or result that is not finite (an
overflow at large t) raises ModelError naming the quantity and the first
such grid value, and no row of it is written. Floats are emitted in
shortest round-trip form, each distinct float formatted once for all the CSV
runs of one command, so identical specs produce byte-identical output.
"""

from __future__ import annotations

import inspect
import json
import math
from importlib import resources
from contextlib import nullcontext
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii as _quote
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
    add_offset,
    extension_offset,
    shifted_family,
)
from .family import _formula_family, factor, hermitian_stack
from .familyfile import Coefficient, checked_sum, load_definition, load_operator, read_json
from .familyfile import build_family as _build_custom_family
from .generator import GeneratorMethod
from .linalg import as_hermitian
from .models import (
    DirectionParams,
    NvParams,
    direction_family,
    direction_sz_operator,
    gyromagnetic_ratio,
    nv_family,
    spin1_matrices,
)
from .qfi import channel_qfi_stack

SCALES = ("linear", "log")
CSV_HEADER = "sweep_value,channel_qfi,upper_bound,ratio,generator_method,estimated_error"
# Bad input files and matrices keep their own exit code instead of becoming ModelError.
_INPUT_ERRORS = (InvalidSpec, NonHermitianInput, DimensionMismatch, FamilyFileError)


def _defaults(cls) -> dict:
    parameters = inspect.signature(cls).parameters.values()
    return {p.name: None if p.default is p.empty else p.default for p in parameters}


# Each model's parameters with their defaults; None marks a required parameter.
_MODEL_DEFAULTS = {
    "nv": _defaults(NvParams),
    "direction": _defaults(DirectionParams),
    "broken-phase-shift": {"theta": 0.0, "t": 1.0},
    "custom": {"theta": 0.0, "t": 1.0},
}
MODELS = tuple(_MODEL_DEFAULTS)
_FILE_MODELS = ("broken-phase-shift", "custom")
# Each extension kind's fields with their defaults (None marks a required field;
# ``file`` is a path, every other field a number); the field that sets the kind's
# added term, named when that term, or its sum with the model's H, overflows; and
# the spec type built from the fields, where the kind has its own.
_EXTENSIONS = {
    "flood": ({"beta": None, "theta0": 0.0}, "beta", Flood),
    "subtract": ({"theta0": None}, "theta0", Subtract),
    "subtract-perturbed": ({"theta0": None, "epsilon": None}, "epsilon", SubtractPerturbed),
    "add-operator": ({"file": None, "epsilon": None}, "epsilon", None),
    "sz": ({"kappa": None}, "kappa", None),
}
_SWEEPABLES = {
    "nv": ("B_z", "t", "beta", "epsilon"),
    "direction": ("theta", "t", "beta", "kappa", "epsilon"),
    "broken-phase-shift": ("theta", "t", "beta", "epsilon"),
    "custom": ("theta", "t", "beta", "epsilon"),
}


class Grid:
    def __init__(self, start: float, stop: float, points: int, scale: str = "linear"):
        self.start, self.stop, self.points, self.scale = start, stop, points, scale

    def values(self) -> list[float]:
        if self.points == 1:
            return [float(self.start)]
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.points).tolist()
        return np.linspace(self.start, self.stop, self.points).tolist()


class SweepSpec:
    """A run: its scenario (``vars`` of a spec is one, see ``validate_scenario``), swept
    variable, grid and label. ``fixed_params`` left out is a new empty dict."""

    def __init__(self, model: str, sweep_variable: str, grid: Grid,
                 fixed_params: Optional[dict] = None, extension: Optional[dict] = None,
                 family_file: Optional[str] = None, label: str = ""):
        self.model, self.sweep_variable, self.grid = model, sweep_variable, grid
        self.fixed_params = {} if fixed_params is None else fixed_params
        self.extension, self.family_file, self.label = extension, family_file, label


class SweepResult:
    """A run's results as columns of floats, one element per grid point in grid order."""

    def __init__(self, label: str, sweep_value: list[float], channel_qfi: list[float],
                 upper_bound: list[float], ratio: list[float], estimated_error: list[float]):
        self.label, self.sweep_value, self.channel_qfi = label, sweep_value, channel_qfi
        self.upper_bound, self.ratio, self.estimated_error = upper_bound, ratio, estimated_error


def validate_spec(spec: SweepSpec) -> None:
    """Raise InvalidSpec naming ``grid.<field>`` on a bad grid."""
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


def _finite_number(value) -> Optional[float]:
    """A JSON number (int or float, not bool) as a float if that is finite, else None."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            return None
        if math.isfinite(number):
            return number
    return None


def _walk(given: dict, table: dict, where: str, owner: str, swept: Optional[str]) -> dict:
    """``given`` checked against ``table`` and returned as floats over its defaults.

    Values are finite JSON numbers (``_finite_number``; a string is none);
    ``file`` is a non-empty path. A field whose default is None is required
    unless ``swept``.
    """
    values = dict(table)
    for key, value in given.items():
        if key not in table:
            raise InvalidSpec(
                f"{where}.{key}: unknown for {owner}; expected one of {', '.join(table)}"
            )
        if key == "file":
            if not (isinstance(value, str) and value):
                raise InvalidSpec(f"{where}.file: must be a file path, got {value!r}")
            values[key] = value
            continue
        number = _finite_number(value)
        if number is None:
            raise InvalidSpec(f"{where}.{key}: must be a finite number, got {value!r}")
        values[key] = number
    for key, value in values.items():
        if value is None and key != swept:
            raise InvalidSpec(f"{where}.{key}: required for {owner}")
    return values


def validate_scenario(scenario: dict, swept: Optional[str] = None):
    """Check a scenario and return its values as ``(model, params, kind, fields)``.

    A scenario is a run document without its grid: ``model``,
    ``fixed_params``, ``extension`` (None, or a dict whose ``kind`` names the
    extension) and ``family_file``. ``swept`` names a sweep's variable, which
    must be one of the model's ``_SWEEPABLES``; a swept extension field must
    belong to the extension's kind, and comes from the grid, so it may be
    left out. ``params`` and ``fields`` map every name to its float (or
    default); without an extension ``kind`` is None and ``fields`` empty.
    """
    model = scenario["model"]
    if model not in _MODEL_DEFAULTS:
        raise InvalidSpec(f"model: must be one of {', '.join(MODELS)}, got {model!r}")
    params = _walk(
        scenario["fixed_params"], _MODEL_DEFAULTS[model], "fixed_params", f"model {model!r}", swept
    )
    if model == "direction" and params["B"] < 0:
        raise InvalidSpec(f"fixed_params.B: must be >= 0, got {scenario['fixed_params']['B']!r}")
    if model in _FILE_MODELS and not scenario["family_file"]:
        raise InvalidSpec(f"family_file: required for model {model!r}")
    if model not in _FILE_MODELS and scenario["family_file"]:
        raise InvalidSpec(f"family_file: not used by model {model!r}")
    ext, kind, fields = scenario["extension"], None, {}
    if ext is not None:
        kind = ext.get("kind") if isinstance(ext, dict) else None
        if not isinstance(kind, str) or kind not in _EXTENSIONS:
            raise InvalidSpec(
                f"extension.kind: must be one of {', '.join(_EXTENSIONS)}, got {kind!r}"
            )
        if kind == "sz" and model != "direction":
            raise InvalidSpec("extension.kind: 'sz' applies to the direction model only")
        given = {key: value for key, value in ext.items() if key != "kind"}
        fields = _walk(given, _EXTENSIONS[kind][0], "extension", f"kind {kind!r}", swept)
    if swept is not None and swept not in _SWEEPABLES[model]:
        raise InvalidSpec(
            f"sweep_variable: {swept!r} not valid for model {model!r}; "
            f"expected one of {', '.join(_SWEEPABLES[model])}"
        )
    if swept in ("beta", "kappa", "epsilon") and swept not in fields:
        kinds = [k for k, (table, *_) in _EXTENSIONS.items() if swept in table]
        raise InvalidSpec(
            f"sweep_variable: {swept!r} requires extension.kind = " + " or ".join(map(repr, kinds))
        )
    return model, params, kind, fields


def build_scenario(scenario: dict, swept: Optional[str] = None, value=None):
    """The family that a scenario describes, with its evaluation point and time.

    The scenario is checked by ``validate_scenario`` before any file is read.
    Returns ``(family, theta, t, offsets)``: ``family`` is the model's family
    with the extension's offset (``extensions.extension_offset``) added, and
    ``offsets`` is None. ``swept`` names a ``_SWEEPABLES`` variable that
    takes ``value`` instead of its fixed or default value: a float, or for
    ``beta``, ``kappa`` and ``epsilon`` the (N,) array of all grid values;
    then ``family`` is the model's own and ``offsets`` the (N, d, d) stack
    of the offsets at each. For ``B_z`` it may be that array too; the family
    does not depend on it, and it is returned as ``theta``. A file family or
    operator file is loaded once here. An added term that overflows raises
    InvalidSpec naming ``extension.beta``, ``extension.epsilon`` or
    ``extension.kappa``, as do an anchor theta0 + epsilon that is not finite
    and, where it is evaluated (``extensions.add_offset``), a sum of H(theta)
    and the offset; a model term names its field (``_check_model_terms``).
    """
    model, params, kind, fields = validate_scenario(scenario, swept)
    if swept in ("B_z", "theta", "t"):
        params["Bz" if swept == "B_z" else swept] = value
    elif swept is not None:
        fields[swept] = value
    _check_model_terms(model, params, kind, fields, swept)
    if model == "nv":  # B_z is the family's theta; nv_family does not read NvParams.Bz
        theta = params.pop("Bz")
        family = nv_family(NvParams(**params))
    elif model == "direction":
        model_params = DirectionParams(**params)
        family, theta = direction_family(model_params), params["theta"]
    else:
        family, theta = load_model_family(model, scenario["family_file"]), params["theta"]
    if kind is None:
        return family, theta, params["t"], None
    _, scale_field, spec_type = _EXTENSIONS[kind]
    if kind == "add-operator":
        spec = AddOperator(operator=load_operator(fields["file"]), epsilon=fields["epsilon"])
    elif kind == "sz":  # kappa * B g mu_B S_z
        spec = AddOperator(operator=direction_sz_operator(model_params), epsilon=fields["kappa"])
    else:
        spec = spec_type(**fields)
    try:
        offset = extension_offset(family, spec)
    except OverflowError as exc:  # a scaled term, or an anchor theta0 + epsilon
        raise InvalidSpec(f"extension.{scale_field}: {exc}") from exc
    except DimensionMismatch as exc:  # an operator file of another dimension
        raise DimensionMismatch(f"extension.file: {exc}") from exc
    if swept in ("beta", "kappa", "epsilon"):
        return family, theta, params["t"], offset
    return shifted_family(family, offset, f"extension.{scale_field}"), theta, params["t"], None


def _check_model_terms(model: str, params: dict, kind, fields: dict, swept=None) -> None:
    """Raise InvalidSpec naming the first model field that makes an entry of H not finite.

    The entries are those the model forms, with the model's own rounding:
    gamma = g mu_B / hbar (rad/(s T)); on ``direction`` gamma B; on ``nv``
    gamma (B_x s) and gamma (B_y s) off the diagonal (s = 1/sqrt(2), an entry
    of S_x), and on the diagonal gamma b and D +- gamma b, at b = B_z and at a
    subtract anchor. One of D +- gamma b is |gamma b| + |D|, named ``<field> +
    fixed_params.D``. A swept ``B_z`` (named ``B_z``) or ``epsilon`` is its (N,)
    grid, whose entries are formed under errstate, as ``extensions._scaled``
    forms its term, naming the first grid value where one is not finite.
    """
    if model not in ("nv", "direction"):
        return
    gamma = gyromagnetic_ratio(params["g"])
    entries = [("fixed_params.g", params["g"], gamma)]
    if model == "direction":
        entries.append(("fixed_params.B", params["B"], gamma * params["B"]))
    epsilon = fields.get("epsilon")
    grid = isinstance(params.get("Bz"), np.ndarray) or isinstance(epsilon, np.ndarray)
    # Float arithmetic cannot warn; a swept grid's can, and errstate costs microseconds.
    with np.errstate(over="ignore", invalid="ignore") if grid else nullcontext():
        if model == "nv":
            s = float(spin1_matrices()[0].matrix[0, 1].real)
            entries += [(f"fixed_params.{k}", params[k], gamma * (params[k] * s))
                        for k in ("Bx", "By")]
            # (field, value, b): the diagonal's gamma b at B_z and at the subtract anchors
            name = "B_z" if swept == "B_z" else "fixed_params.Bz"
            diagonal = [(name, params["Bz"], params["Bz"])]
            if kind in ("subtract", "subtract-perturbed"):
                theta0 = fields["theta0"]
                diagonal.append(("extension.theta0", theta0, theta0))
                if kind == "subtract-perturbed":
                    diagonal.append(("extension.epsilon", epsilon, theta0 + epsilon))
            terms = [(name, given, gamma * b) for name, given, b in diagonal]
            entries += terms + [(f"{name} + fixed_params.D", given, abs(term) + abs(params["D"]))
                                for name, given, term in terms]
    for name, given, entry in entries:
        if isinstance(entry, np.ndarray):  # a swept grid: its first entry that is not finite
            k = int(np.argmin(np.isfinite(entry)))
            given, entry = float(given[k]), float(entry[k])
        if not math.isfinite(entry):
            raise InvalidSpec(f"{name}: the model's term is not finite at {given!r}")


def load_model_family(model: str, family_file):
    """Family from a definition file, as the given file-backed model.

    The broken-phase-shift model restricts the file to const and linear
    coefficients and assembles theta*G + F with exact derivatives; the
    custom model accepts the full coefficient catalog.
    """
    definition = load_definition(family_file)
    if model == "custom":
        return _build_custom_family(definition)
    terms = definition.terms
    for k, coefficient in enumerate(terms.coefficients):
        if coefficient.kind not in ("const", "linear"):
            raise InvalidSpec(f"family_file: terms[{k}]: model 'broken-phase-shift' allows only "
                              f"const and linear coefficients, got {coefficient.kind!r}")
    # G = dH/dtheta and F = H(0) summed in file order; theta G + F is checked as the terms' sum.
    try:
        g, f = (as_hermitian(checked_sum(terms, c)(0.0))
                for c in (Coefficient.derivative, Coefficient.value))
    except InvalidSpec as exc:  # G and F are the same at every theta: name none
        raise InvalidSpec(str(exc).partition(" at theta=")[0]) from None
    value = checked_sum(terms, Coefficient.value, formula=lambda x: factor(x) * g.matrix + f.matrix)
    return _formula_family(definition.dim, value, g, as_hermitian(np.zeros_like(g.matrix)))


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
    # B_z (checked whole; the family does not depend on it) or an extension field is the grid.
    value = values[0] if variable in ("theta", "t") else grid
    family, theta, t, offsets = build_scenario(vars(spec), variable, value)
    if offsets is not None:
        h = add_offset(family.value(theta).matrix, offsets, f"extension.{variable}", grid, variable)
        h = hermitian_stack(h, grid, variable)
        return h, family.derivative(theta).matrix, np.full(grid.shape, t)
    if variable == "t":
        return family.value(theta).matrix, family.derivative(theta).matrix, grid
    return family.values(grid), family.derivatives(grid), np.full(grid.shape, t)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate all grid points in one stacked pass, columns in grid order.

    The spec is checked here, its grid by ``validate_spec`` and then its
    scenario by ``build_scenario``, which also covers specs built by hand. A
    non-Hermitian or non-finite matrix names its first offending grid value.
    A failure other than a bad input file or matrix is raised as ModelError
    naming the first grid point, where the run is built, and a generator or
    result that is not finite as ModelError naming the first such point.
    """
    validate_spec(spec)
    values = spec.grid.values()
    try:
        h, hdot, t = _grid_stacks(spec, values)
    except _INPUT_ERRORS:
        raise
    except Exception as exc:
        raise ModelError(f"at {spec.sweep_variable}={values[0]!r}: {exc}") from exc
    columns = channel_qfi_stack(h, hdot, t, spec.sweep_variable, values)
    return SweepResult(spec.label, values, *(column.tolist() for column in columns))


def rows_to_csv(result: SweepResult) -> str:
    return _csv_texts([result])[0]


def _csv_texts(results) -> list[str]:
    """Each result's CSV, every distinct float of all of them formatted once. Floats are
    told apart by their bits: 0.0 == -0.0, so a table keyed by value would write both alike."""
    runs = [(r.sweep_value, r.channel_qfi, r.upper_bound, r.ratio, r.estimated_error)
            for r in results]
    columns = [column for run in runs for column in run]
    floats = np.fromiter(chain.from_iterable(columns), float, sum(map(len, columns)))
    bits, where = np.unique(floats.view(np.int64), return_inverse=True)
    table = np.array(list(map(float.__repr__, bits.view(float).tolist())), dtype=object)
    texts = iter(table[where].tolist())
    method, csv = repeat(GeneratorMethod.SPECTRAL.value), []
    for run in runs:
        x, cqfi, bound, ratio, err = (list(islice(texts, len(column))) for column in run)
        rows = zip(x, cqfi, bound, ratio, method, err)
        csv.append("\n".join([CSV_HEADER, *map(",".join, rows), ""]))
    return csv


def rows_to_json(result: SweepResult) -> str:
    keys, method = CSV_HEADER.split(","), repeat(GeneratorMethod.SPECTRAL.value)
    records = zip(result.sweep_value, result.channel_qfi, result.upper_bound, result.ratio,
                  method, result.estimated_error)
    rows = [dict(zip(keys, record)) for record in records]
    return json_text({"label": result.label, "rows": rows}) + "\n"


def json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, allow_nan=False)`` (dict keys are strings),
    without the pure-Python encoder that ``indent`` makes ``json`` use. ``indent``
    is the line break before ``value``'s level."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    if isinstance(value, str):
        return _quote(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        items, brackets = [json_text(item, inner) for item in value], "[]"
    elif isinstance(value, dict):
        items = [f"{_quote(key)}: {json_text(item, inner)}" for key, item in value.items()]
        brackets = "{}"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def _grid_points(value, prefix: str) -> int:
    """A JSON integer (or an integral float such as 5.0) as the grid's point count."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise InvalidSpec(f"{prefix}grid.points: must be an integer, got {value!r}")
    return int(value)


def _grid_bound(value, key: str, prefix: str) -> float:
    """A finite JSON number (``_finite_number``) as the grid's start or stop."""
    number = _finite_number(value)
    if number is None:
        raise InvalidSpec(f"{prefix}grid.{key}: must be a finite number, got {json.dumps(value)}")
    return number


# The fields of a run document, each with its JSON types, named when a field has another type.
_RUN_FIELDS = {
    "model": ((str,), "a string"),
    "sweep_variable": ((str,), "a string"),
    "grid": ((dict,), "a JSON object"),
    "fixed_params": ((dict,), "a JSON object"),
    "extension": ((dict, type(None)), "a JSON object or null"),
    "family_file": ((str, type(None)), "a file path or null"),
    "label": ((str,), "a string"),
}


def spec_from_dict(doc, label: str = "", where: str = "") -> SweepSpec:
    """Build a SweepSpec from a decoded JSON run document; ``run_sweep`` validates it.

    Each of its ``_RUN_FIELDS`` is checked here for its JSON type only; a
    field left out takes the SweepSpec default (``label`` the one given).
    Error messages name fields from ``where`` on (``runs[k]`` for an entry
    of a ``runs`` list, nothing for a config that is one run document).
    """
    prefix = f"{where}." if where else ""
    where = where or "run document"
    if not isinstance(doc, dict):
        raise InvalidSpec(f"{where}: expected a JSON object, got {type(doc).__name__}")
    for key in ("model", "sweep_variable", "grid"):
        if key not in doc:
            raise InvalidSpec(f"{prefix}{key}: required")
    fields = {key: doc[key] for key in _RUN_FIELDS if key in doc}
    for key, value in fields.items():
        types, expected = _RUN_FIELDS[key]
        if not isinstance(value, types):
            raise InvalidSpec(f"{prefix}{key}: expected {expected}, got {type(value).__name__}")
    grid_doc = doc["grid"]
    for key in ("start", "stop", "points"):
        if key not in grid_doc:
            raise InvalidSpec(f"{prefix}grid.{key}: required")
    grid = Grid(
        start=_grid_bound(grid_doc["start"], "start", prefix),
        stop=_grid_bound(grid_doc["stop"], "stop", prefix),
        points=_grid_points(grid_doc["points"], prefix),
        scale=grid_doc.get("scale", "linear"),
    )
    return SweepSpec(**{"label": label, **fields, "grid": grid})


def _run_specs(runs) -> tuple[SweepSpec, ...]:
    """The specs of a ``runs`` list, labelled ``run<k>`` unless a run has its own label."""
    return tuple(spec_from_dict(run, f"run{k}", f"runs[{k}]") for k, run in enumerate(runs))


class Preset:
    def __init__(self, name: str, description: str, runs: tuple[SweepSpec, ...]):
        self.name, self.description, self.runs = name, description, runs


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
    return Preset(doc["name"], doc.get("description", ""), _run_specs(doc["runs"]))


def load_config(path) -> Preset:
    """Load a config file: either one run document or {name, description, runs: [...]}."""
    try:
        doc = read_json(path, "config")
    except FamilyFileError as exc:
        raise InvalidSpec(str(exc)) from exc
    if not isinstance(doc, dict):
        raise InvalidSpec(f"config: expected a JSON object, got {type(doc).__name__}")
    if "runs" in doc:
        if not isinstance(doc["runs"], list):
            raise InvalidSpec(f"runs: expected a list of run documents, got {doc['runs']!r}")
        runs = _run_specs(doc["runs"])
        return Preset(doc.get("name", str(path)), doc.get("description", ""), runs)
    return Preset(str(path), "", (spec_from_dict(doc, label="run0"),))
