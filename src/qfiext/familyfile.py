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


class TermStack:
    """A term list: its coefficients in file order and its matrices as one read-only
    (K, d, d) stack, each ``symmetrized`` as ``HermitianOperator`` would have it."""

    def __init__(self, coefficients: tuple[Coefficient, ...], matrices: np.ndarray):
        self.coefficients, self.matrices = coefficients, matrices

    def products(self, coefficient, theta) -> np.ndarray:
        """``coefficient(c_k, theta) M_k`` of every term k, (K, d, d) at a float theta or
        (K, N, d, d) at an (N,) array of them: one product of the stacked coefficients."""
        grid = isinstance(theta, np.ndarray)
        values = np.empty((len(self.coefficients),) + (theta.shape if grid else ()))
        for k, c in enumerate(self.coefficients):
            values[k] = coefficient(c, theta)
        return values[..., None, None] * (self.matrices[:, None] if grid else self.matrices)


class FamilyDefinition:
    def __init__(self, dim: int, terms: TermStack, derivative_terms: Optional[TermStack] = None):
        self.dim, self.terms, self.derivative_terms = dim, terms, derivative_terms


_NUMBER_TYPES = {int, float}
_FLOAT = {float}


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


def _float_rows(block, dim: int) -> bool:
    """Whether a block is ``dim`` (>= 1) lists of ``dim`` plain floats each."""
    if type(block) is not list or len(block) != dim or not dim:
        return False
    for row in block:
        if type(row) is not list or len(row) != dim or {*map(type, row)} != _FLOAT:
            return False
    return True


def _matrix_blocks(obj, where: str, dim: Optional[int]):
    """``parse_matrix``'s checks before arithmetic, in order: ``(re, im)``, "im" None when left
    out; blocks of plain floats pass as they are, others as arrays."""
    if not isinstance(obj, dict) or "re" not in obj:
        raise FamilyFileError(f"{where}: matrix must be an object with 're' (and optional 'im')")
    re = obj["re"]
    size = dim if dim is not None else len(re) if type(re) is list else 0
    if _float_rows(re, size) and ("im" not in obj or _float_rows(obj["im"], size)):
        return re, obj.get("im")
    for block in ("re", "im"):
        found = _non_number(obj.get(block, []), block)
        if found is not None:
            path, entry = found
            raise FamilyFileError(f"{where}: non-numeric entry {path} = {json.dumps(entry)}")
    try:
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj.get("im", np.zeros_like(re)), dtype=float)
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
    zero = np.zeros((len(blocks[0][0]),) * 2)
    parts = np.array([(re, zero if im is None else im) for re, im in blocks], dtype=float)
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
    def num(key, default):
        v = obj.get(key, default)
        try:  # a bool is no number; an int beyond the float range is not finite
            ok = isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
        except OverflowError:
            ok = False
        if not ok:
            raise FamilyFileError(f"{where}: coefficient.{key} must be a finite number")
        return float(v)

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
            coefficients.append(_parse_coefficient(raw["coefficient"], where(k)))
            blocks.append(_matrix_blocks(raw["matrix"], where(k), dim))
    except FamilyFileError:
        if blocks:
            _hermitian_stack(blocks, where)
        raise
    return TermStack(tuple(coefficients), _hermitian_stack(blocks, where))


def parse_definition(doc) -> FamilyDefinition:
    """Parse an already-decoded JSON document into a family definition."""
    if not isinstance(doc, dict):
        raise FamilyFileError("top level: expected a JSON object")
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


def checked_sum(terms: TermStack, coefficient, key: str = "terms", formula=None):
    """theta -> sum_k coefficient(c_k, theta) M_k over ``terms`` (``formula`` may form the
    sum otherwise), at a float theta or an (N,) array of them. The K products are formed as
    one array and added in file order to a zero matrix, so the sum has the bits of a
    term-by-term sum. A sum that is not finite raises InvalidSpec naming ``family_file:
    <key>[k]``, the first term in file order whose term or running sum is not finite, at the
    first such theta."""

    def stacked(theta):
        products = terms.products(coefficient, theta)
        total = np.zeros(products.shape[1:], dtype=complex)
        for product in products:
            total += product
        return total

    formula = formula or stacked

    def checked(theta):
        with np.errstate(all="ignore"):
            total = formula(theta)
            finite = np.isfinite(total).all(axis=(-2, -1))
            if finite.all():
                return total
            at = float(np.atleast_1d(theta)[np.argmin(finite)])
            sums = np.cumsum(terms.products(coefficient, at), axis=0)
            k = int(np.argmin(np.isfinite(sums).all(axis=(-2, -1))))
        raise InvalidSpec(f"family_file: {key}[{k}]: the term or the sum up to it "
                          f"is not finite at theta={at!r}")

    return checked


def build_family(definition: FamilyDefinition) -> HamiltonianFamily:
    """Family with analytic coefficient derivatives (or the explicit override)."""
    terms, explicit, c = definition.terms, definition.derivative_terms, Coefficient
    derivative = (checked_sum(terms, c.derivative) if explicit is None
                  else checked_sum(explicit, c.value, "derivative_terms"))
    value, second = checked_sum(terms, c.value), checked_sum(terms, c.second_derivative)
    return _formula_family(definition.dim, value, derivative, second)


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
