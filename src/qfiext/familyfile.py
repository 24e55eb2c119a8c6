"""Custom Hamiltonian-family definition files.

A family file is a JSON document

    {
      "dim": 2,
      "terms": [
        {"coefficient": {"kind": "const", "scale": 1.0},
         "matrix": {"re": [[...], ...], "im": [[...], ...]}},
        {"coefficient": {"kind": "linear", "scale": 2.0}, "matrix": {...}},
        {"coefficient": {"kind": "sin", "scale": 1.0, "frequency": 3.0, "phase": 0.0},
         "matrix": {...}}
      ],
      "derivative_terms": [ ... optional, same shape ... ]
    }

defining H(theta) = sum_k c_k(theta) * M_k with the coefficient catalog

    const   c(theta) = scale
    linear  c(theta) = scale * theta
    sin     c(theta) = scale * sin(frequency * theta + phase)
    cos     c(theta) = scale * cos(frequency * theta + phase)

Coefficient derivatives are supplied analytically by the toolkit. When
``derivative_terms`` is present it overrides the derived derivative and is
checked against finite differences by ``validate_file``. The "im" block is
optional and defaults to zero.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import FamilyFileError, NonHermitianInput
from .family import HamiltonianFamily, FamilyValidation, factor, validate_family
from .linalg import HermitianOperator, degenerate_blocks, eig_hermitian

COEFFICIENT_KINDS = ("const", "linear", "sin", "cos")
# theta samples used for derivative validation and degeneracy reporting
VALIDATION_THETAS = (-1.0, -0.5, 0.0, 0.5, 1.0)


@dataclass(frozen=True)
class Coefficient:
    kind: str
    scale: float = 1.0
    frequency: float = 1.0
    phase: float = 0.0

    # Each takes a float theta or an (N,) array of them.

    def value(self, theta):
        if self.kind == "const":
            return self.scale
        if self.kind == "linear":
            return self.scale * theta
        if self.kind == "sin":
            return self.scale * np.sin(self.frequency * theta + self.phase)
        return self.scale * np.cos(self.frequency * theta + self.phase)

    def derivative(self, theta):
        if self.kind == "const":
            return 0.0
        if self.kind == "linear":
            return self.scale
        if self.kind == "sin":
            return self.scale * self.frequency * np.cos(self.frequency * theta + self.phase)
        return -self.scale * self.frequency * np.sin(self.frequency * theta + self.phase)

    def second_derivative(self, theta):
        if self.kind in ("const", "linear"):
            return 0.0
        w2 = self.frequency * self.frequency
        if self.kind == "sin":
            return -w2 * self.scale * np.sin(self.frequency * theta + self.phase)
        return -w2 * self.scale * np.cos(self.frequency * theta + self.phase)


@dataclass(frozen=True, eq=False)
class Term:
    coefficient: Coefficient
    matrix: HermitianOperator


@dataclass(frozen=True, eq=False)
class FamilyDefinition:
    dim: int
    terms: tuple[Term, ...]
    derivative_terms: Optional[tuple[Term, ...]] = None


def _parse_matrix(obj, dim: int, where: str) -> HermitianOperator:
    if not isinstance(obj, dict) or "re" not in obj:
        raise FamilyFileError(f"{where}: matrix must be an object with 're' (and optional 'im')")
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj.get("im", np.zeros((dim, dim))), dtype=float)
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise FamilyFileError(
            f"{where}: matrix blocks must be {dim}x{dim}, got re{re.shape} im{im.shape}"
        )
    try:
        return HermitianOperator(re + 1j * im)
    except NonHermitianInput as exc:
        raise NonHermitianInput(f"{where}: {exc}") from exc


def _parse_coefficient(obj, where: str) -> Coefficient:
    if not isinstance(obj, dict) or obj.get("kind") not in COEFFICIENT_KINDS:
        raise FamilyFileError(
            f"{where}: coefficient.kind must be one of {', '.join(COEFFICIENT_KINDS)}"
        )
    def num(key, default):
        v = obj.get(key, default)
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            raise FamilyFileError(f"{where}: coefficient.{key} must be a finite number")
        return float(v)

    return Coefficient(obj["kind"], num("scale", 1.0), num("frequency", 1.0), num("phase", 0.0))


def _parse_terms(obj, dim: int, key: str) -> tuple[Term, ...]:
    if not isinstance(obj, list) or not obj:
        raise FamilyFileError(f"{key}: must be a non-empty list of terms")
    terms = []
    for k, raw in enumerate(obj):
        where = f"{key}[{k}]"
        if not isinstance(raw, dict) or "coefficient" not in raw or "matrix" not in raw:
            raise FamilyFileError(f"{where}: term needs 'coefficient' and 'matrix'")
        terms.append(
            Term(
                _parse_coefficient(raw["coefficient"], where),
                _parse_matrix(raw["matrix"], dim, where),
            )
        )
    return tuple(terms)


def parse_definition(doc) -> FamilyDefinition:
    """Parse an already-decoded JSON document into a family definition."""
    if not isinstance(doc, dict):
        raise FamilyFileError("top level: expected a JSON object")
    dim = doc.get("dim")
    if not isinstance(dim, int) or dim < 1:
        raise FamilyFileError("dim: must be a positive integer")
    terms = _parse_terms(doc.get("terms"), dim, "terms")
    derivative_terms = None
    if "derivative_terms" in doc:
        derivative_terms = _parse_terms(doc["derivative_terms"], dim, "derivative_terms")
    return FamilyDefinition(dim, terms, derivative_terms)


def load_definition(path) -> FamilyDefinition:
    """Read and parse a family file; JSON errors carry line/column."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FamilyFileError(f"cannot read family file {str(path)!r}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FamilyFileError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_definition(doc)


def _sum_terms(terms: tuple[Term, ...], dim: int, coefficient, theta) -> np.ndarray:
    """sum_k coefficient(c_k, theta) * M_k at a float theta, or over an (N,) array of them."""
    acc = np.zeros(np.shape(theta) + (dim, dim), dtype=complex)
    for term in terms:
        acc += factor(coefficient(term.coefficient, theta)) * term.matrix.matrix
    return acc


def build_family(definition: FamilyDefinition) -> HamiltonianFamily:
    """Family with analytic coefficient derivatives (or the explicit override)."""
    dim = definition.dim
    terms = definition.terms
    explicit = definition.derivative_terms

    def value(theta):
        return _sum_terms(terms, dim, Coefficient.value, theta)

    def derivative(theta):
        if explicit is not None:
            return _sum_terms(explicit, dim, Coefficient.value, theta)
        return _sum_terms(terms, dim, Coefficient.derivative, theta)

    def second_derivative(theta):
        return _sum_terms(terms, dim, Coefficient.second_derivative, theta)

    return HamiltonianFamily.from_formulas(dim, value, derivative, second_derivative)


def load_family(path) -> HamiltonianFamily:
    return build_family(load_definition(path))


@dataclass
class FileDiagnostics:
    """Validation outcome for a family file.

    status: "ok", "invariant" (parse/schema/Hermiticity) or "derivative"
    (analytic derivative disagrees with finite differences).
    """

    status: str
    messages: list[str] = field(default_factory=list)
    derivative_check: Optional[FamilyValidation] = None
    extremal_degeneracy: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def validate_file(path) -> FileDiagnostics:
    """Full validation: schema, Hermiticity, derivative consistency, degeneracy report."""
    try:
        definition = load_definition(path)
    except (FamilyFileError, NonHermitianInput) as exc:
        return FileDiagnostics("invariant", [str(exc)])

    family = build_family(definition)
    messages: list[str] = []
    check = validate_family(family, VALIDATION_THETAS)
    degeneracy = []
    for theta in VALIDATION_THETAS:
        dec = eig_hermitian(family.derivative(theta))
        blocks = degenerate_blocks(dec.eigenvalues)
        low, high = len(blocks[0]), len(blocks[-1])
        tag = "non-degenerate" if (low == 1 and high == 1 and len(blocks) > 1) else "degenerate"
        degeneracy.append(
            f"theta={theta:g}: extremal eigenvalues of dH/dtheta {tag} "
            f"(min multiplicity {low}, max multiplicity {high})"
        )
    if not check.ok:
        messages.append(
            f"derivative mismatch: max deviation {check.max_deviation:.3e} at "
            f"theta={check.worst_theta:g} exceeds tolerance {check.tolerance:.3e}"
        )
        return FileDiagnostics("derivative", messages, check, degeneracy)
    messages.append(
        f"derivative consistent with finite differences "
        f"(max deviation {check.max_deviation:.3e} <= {check.tolerance:.3e})"
    )
    return FileDiagnostics("ok", messages, check, degeneracy)
