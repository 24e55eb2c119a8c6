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

The catalog is closed under d/dtheta (sin <-> cos, linear -> const -> 0), so
dH/dtheta and d^2H/dtheta^2 are term lists of the same matrices, summed as H
is. When ``derivative_terms`` is present it overrides the derived derivative
and is checked against finite differences by ``validate_file``. The "im"
block is optional and defaults to zero.

A term list is parsed into one ``TermStack``: each term is checked in file
order for its structure, its coefficient, non-numeric entries and its shape,
then all its matrices are converted and tested for Hermiticity as one (K, d,
d) stack, so the first failing term is named as a term-by-term parse would
name it. A sum forms the K products in one array and adds them in file order
to a zero matrix, which gives the bits of the term-by-term sum (the signed
zeros included; a reduction such as ``np.sum`` would not).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import FamilyFileError, InvalidSpec, NonHermitianInput
from .family import HamiltonianFamily, FamilyValidation, _formula_family, validate_family
from .linalg import HermitianOperator, _freeze, checked_operator, degenerate_blocks, eigh_stack
from .linalg import nondegenerate_extremes, symmetrized

COEFFICIENT_KINDS = ("const", "linear", "sin", "cos")
# theta samples used for derivative validation and degeneracy reporting
VALIDATION_THETAS = (-1.0, -0.5, 0.0, 0.5, 1.0)


class Coefficient:
    def __init__(self, kind: str, scale: float = 1.0, frequency: float = 1.0, phase: float = 0.0):
        self.kind, self.scale, self.frequency, self.phase = kind, scale, frequency, phase

    def value(self, theta):
        """c(theta) at a float theta or an (N,) array of them."""
        if self.kind == "const":
            return self.scale
        if self.kind == "linear":
            return self.scale * theta
        if self.kind == "sin":
            return self.scale * np.sin(self.frequency * theta + self.phase)
        return self.scale * np.cos(self.frequency * theta + self.phase)

    def derivative(self) -> Coefficient:
        """The catalog coefficient of dc/dtheta, with the same frequency and phase."""
        if self.kind == "const":
            return Coefficient("const", 0.0)
        if self.kind == "linear":
            return Coefficient("const", self.scale)
        if self.kind == "sin":
            return Coefficient("cos", self.scale * self.frequency, self.frequency, self.phase)
        return Coefficient("sin", -self.scale * self.frequency, self.frequency, self.phase)


class TermStack:
    """A term list: its coefficients in file order, its matrices as one read-only (K, d, d)
    stack, each ``symmetrized`` as ``HermitianOperator`` would have it, and its ``key`` in the
    file (``terms`` or ``derivative_terms``), which names a term in an error."""

    def __init__(self, coefficients: tuple[Coefficient, ...], matrices: np.ndarray, key: str):
        self.coefficients, self.matrices, self.key = coefficients, matrices, key

    def derivative(self) -> TermStack:
        """The term list of d/dtheta: each coefficient's derivative, the same matrices."""
        return TermStack(tuple(c.derivative() for c in self.coefficients), self.matrices, self.key)

    def products(self, theta) -> np.ndarray:
        """``c_k(theta) M_k`` of every term k, (K, d, d) at a float theta or (K, N, d, d) at an
        (N,) array of them: one product of the stacked coefficients."""
        grid = isinstance(theta, np.ndarray)
        values = np.empty((len(self.coefficients),) + (theta.shape if grid else ()))
        for k, c in enumerate(self.coefficients):
            values[k] = c.value(theta)
        return values[..., None, None] * (self.matrices[:, None] if grid else self.matrices)

    def sum(self, theta) -> np.ndarray:
        """sum_k c_k(theta) M_k at a float theta or an (N,) array of them. The K products are
        added in file order to a zero matrix, so the sum has the bits of a term-by-term sum.
        A sum that is not finite raises InvalidSpec naming ``family_file: <key>[k]``, the
        first term in file order whose term or running sum is not finite, at the first such
        theta."""
        with np.errstate(all="ignore"):
            products = self.products(theta)
            total = np.zeros(products.shape[1:], dtype=complex)
            for product in products:
                total += product
            finite = np.isfinite(total).all(axis=(-2, -1))
            if finite.all():
                return total
            at = float(np.atleast_1d(theta)[np.argmin(finite)])
            sums = np.cumsum(self.products(at), axis=0)
            k = int(np.argmin(np.isfinite(sums).all(axis=(-2, -1))))
        raise InvalidSpec(f"family_file: {self.key}[{k}]: the term or the sum up to it "
                          f"is not finite at theta={at!r}")


class FamilyDefinition:
    def __init__(self, dim: int, terms: TermStack, derivative_terms: Optional[TermStack] = None):
        self.dim, self.terms, self.derivative_terms = dim, terms, derivative_terms


def finite_number(value) -> Optional[float]:
    """A JSON number (int or float, not bool) as a float if that is finite, else None."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            return None
        if math.isfinite(number):
            return number
    return None


def check_keys(obj: dict, allowed, prefix: str, error=FamilyFileError, owner: str = "") -> None:
    """Raise ``error`` naming the first key of ``obj`` not in ``allowed`` (``owner``: " for x")."""
    unknown = obj.keys() - allowed
    if unknown:
        key = next(key for key in obj if key in unknown)
        raise error(f"{prefix}{key}: unknown{owner}; expected one of {', '.join(allowed)}")


_NUMBER_TYPES = {int, float}


def _non_number(block, path: str):
    """``(path, entry)`` of the first entry of nested lists that is not a JSON number, or None.

    A row of plain ``int`` and ``float`` entries (no ``bool``) is passed in one
    flat check; only other items are walked entry by entry.
    """
    if isinstance(block, list):
        for k, item in enumerate(block):
            if type(item) is list and {type(x) for x in item} <= _NUMBER_TYPES:
                continue
            found = _non_number(item, f"{path}[{k}]")
            if found is not None:
                return found
        return None
    if isinstance(block, bool) or not isinstance(block, (int, float)):
        return path, block
    return None


def _matrix_blocks(obj, where: str, dim: Optional[int]):
    """``parse_matrix``'s checks, in order, and its ``(re, im)`` arrays ("im" zero if left out)."""
    if not isinstance(obj, dict) or "re" not in obj:
        raise FamilyFileError(f"{where}: matrix must be an object with 're' (and optional 'im')")
    check_keys(obj, ("re", "im"), f"{where}: matrix.")
    for block in ("re", "im"):
        found = _non_number(obj.get(block, []), block)
        if found is not None:
            path, entry = found
            raise FamilyFileError(f"{where}: non-numeric entry {path} = {json.dumps(entry)}")
    try:
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float) if "im" in obj else np.zeros_like(re)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FamilyFileError(f"{where}: matrix blocks must be numeric matrices: {exc}") from exc
    if dim is None:
        dim = re.shape[0] if re.ndim else 1
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise FamilyFileError(
            f"{where}: matrix blocks must be {dim}x{dim}, got re{re.shape} im{im.shape}"
        )
    return re, im


def _hermitian_stack(blocks: list, where) -> np.ndarray:
    """The ``_matrix_blocks`` of K matrices as one read-only ``symmetrized`` (K, d, d) stack:
    one conversion, one check, naming the first matrix that fails by ``where(k)``."""
    parts = np.array(blocks, dtype=float)
    return _freeze(symmetrized(parts[:, 0] + 1j * parts[:, 1], where))


def parse_matrix(obj, where: str, dim: Optional[int] = None) -> HermitianOperator:
    """A ``{"re": [[..]], "im": [[..]]}`` matrix ("im" optional) as a Hermitian operator.

    Entries are JSON numbers; a string, a bool or null is not one. It must be
    ``dim`` x ``dim``, or square when ``dim`` is None; errors start with ``where``.
    """
    blocks = [_matrix_blocks(obj, where, dim)]
    return checked_operator(_hermitian_stack(blocks, lambda k: where)[0])


def _parse_coefficient(obj, where: str) -> Coefficient:
    if not isinstance(obj, dict) or obj.get("kind") not in COEFFICIENT_KINDS:
        raise FamilyFileError(
            f"{where}: coefficient.kind must be one of {', '.join(COEFFICIENT_KINDS)}"
        )
    check_keys(obj, ("kind", "scale", "frequency", "phase"), f"{where}: coefficient.")
    def num(key, default):
        number = finite_number(obj.get(key, default))
        if number is None:
            raise FamilyFileError(f"{where}: coefficient.{key} must be a finite number")
        return number

    return Coefficient(obj["kind"], num("scale", 1.0), num("frequency", 1.0), num("phase", 0.0))


def _parse_terms(obj, dim: int, key: str) -> TermStack:
    """A term list as one ``TermStack``. Each term's structure, coefficient and blocks are
    checked in file order, then all matrices at once; a non-Hermitian term before a
    malformed one is named first."""
    if not isinstance(obj, list) or not obj:
        raise FamilyFileError(f"{key}: must be a non-empty list of terms")
    where = lambda k: f"{key}[{k}]"
    coefficients, blocks = [], []
    try:
        for k, raw in enumerate(obj):
            if not isinstance(raw, dict) or "coefficient" not in raw or "matrix" not in raw:
                raise FamilyFileError(f"{where(k)}: term needs 'coefficient' and 'matrix'")
            check_keys(raw, ("coefficient", "matrix"), f"{where(k)}: ")
            coefficients.append(_parse_coefficient(raw["coefficient"], where(k)))
            blocks.append(_matrix_blocks(raw["matrix"], where(k), dim))
    except FamilyFileError:
        if blocks:
            _hermitian_stack(blocks, where)
        raise
    return TermStack(tuple(coefficients), _hermitian_stack(blocks, where), key)


def parse_definition(doc) -> FamilyDefinition:
    """Parse an already-decoded JSON document into a family definition."""
    if not isinstance(doc, dict):
        raise FamilyFileError("top level: expected a JSON object")
    check_keys(doc, ("dim", "terms", "derivative_terms"), "")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise FamilyFileError("dim: must be a positive integer")
    terms = _parse_terms(doc.get("terms"), dim, "terms")
    derivative_terms = None
    if "derivative_terms" in doc:
        derivative_terms = _parse_terms(doc["derivative_terms"], dim, "derivative_terms")
    return FamilyDefinition(dim, terms, derivative_terms)


def read_json(path, what: str):
    """The decoded JSON document of a ``what`` file; JSON errors carry line/column."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FamilyFileError(f"cannot read {what} file {str(path)!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FamilyFileError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FamilyFileError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def load_definition(path) -> FamilyDefinition:
    """Read and parse a family file."""
    return parse_definition(read_json(path, "family"))


def load_operator(path) -> HermitianOperator:
    """Read an operator file: one matrix in the format of a family file's terms."""
    return parse_matrix(read_json(path, "operator"), str(path))


def build_family(definition: FamilyDefinition) -> HamiltonianFamily:
    """Family with the derived coefficient derivatives (or the explicit override)."""
    terms, first = definition.terms, definition.terms.derivative()
    derivative = definition.derivative_terms or first
    return _formula_family(definition.dim, terms.sum, derivative.sum, first.derivative().sum)


class FileDiagnostics:
    """Validation outcome for a family file.

    status: "ok", "invariant" (parse/schema/Hermiticity) or "derivative"
    (analytic derivative disagrees with finite differences). A list left out
    is a new empty one.
    """

    def __init__(
        self, status: str, messages: Optional[list[str]] = None,
        derivative_check: Optional[FamilyValidation] = None,
        extremal_degeneracy: Optional[list[str]] = None,
    ):
        self.status, self.derivative_check = status, derivative_check
        self.messages = [] if messages is None else messages
        self.extremal_degeneracy = [] if extremal_degeneracy is None else extremal_degeneracy


def validate_file(path) -> FileDiagnostics:
    """Full validation: schema, Hermiticity, derivative consistency, degeneracy report."""
    try:  # a term that overflows at a validation theta is named by validate_family's call
        family = build_family(load_definition(path))
        check = validate_family(family, VALIDATION_THETAS)
    except (FamilyFileError, NonHermitianInput, InvalidSpec) as exc:
        return FileDiagnostics("invariant", [str(exc)])

    messages: list[str] = []
    degeneracy = []
    w, _, e = eigh_stack(family.derivatives(VALIDATION_THETAS))
    for theta, w_theta, e_theta in zip(VALIDATION_THETAS, w, e):
        blocks = degenerate_blocks(w_theta, e_theta)
        low, high = len(blocks[0]), len(blocks[-1])
        tag = "non-degenerate" if nondegenerate_extremes(blocks) else "degenerate"
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
