"""Hamiltonian-extension transformers.

Each transformer adds a parameter-independent operator to a family, leaving
the parametric derivative untouched:

* flood               H(theta) + beta * dH/dtheta(theta0)    ("signal flooding")
* subtract            H(theta) - H(theta0)
* subtract_perturbed  H(theta) - H(theta0 + epsilon)
* add_operator        H(theta) + epsilon * V
* tensor_identity     H(theta) (x) 1  on an enlarged space

Added operators are captured by value at construction, so transformed
families are immune to later changes of their source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DegenerateExtremalEigenvalues, DimensionMismatch, InvalidSpec
from .family import HamiltonianFamily, _formula_family, factor, hermitian_stack
from .linalg import HermitianOperator, as_hermitian, degenerate_blocks, eigh_stack
from .linalg import nondegenerate_extremes, unit_scaled


@dataclass(frozen=True)
class Flood:
    beta: float
    theta0: float


@dataclass(frozen=True)
class Subtract:
    theta0: float


@dataclass(frozen=True)
class SubtractPerturbed:
    theta0: float
    epsilon: float


@dataclass(frozen=True, eq=False)
class AddOperator:
    operator: HermitianOperator
    epsilon: float


ExtensionSpec = Union[Flood, Subtract, SubtractPerturbed, AddOperator]


def _require_finite(**values):
    """Each value is a float, or an (N,) array of grid values."""
    for name, value in values.items():
        finite = np.isfinite(value).all() if isinstance(value, np.ndarray) else math.isfinite(value)
        if not finite:
            raise ValueError(f"{name} must be finite, got {value!r}")


def _first_not_finite(finite: np.ndarray, values, message: str, error=OverflowError):
    """Raise ``error(message + the first value of values where finite is False)``, if any."""
    if not finite.all():
        raise error(message + repr(float(np.atleast_1d(values)[np.argmin(finite)])))


def add_offset(h: np.ndarray, offset: np.ndarray, field=None, at=None, name: str = "theta"):
    """``h + offset``, formed without a numpy warning. With ``field``, the extension field
    that sets the offset, a sum that is not finite raises InvalidSpec naming it and
    ``name``'s first such value in ``at``; without, it is left to the Hermiticity check."""
    with np.errstate(over="ignore"):
        total = h + offset
    if field is not None:
        message = f"{field}: the added term plus H is not finite at {name}="
        _first_not_finite(np.isfinite(total).all(axis=(-2, -1)), at, message, InvalidSpec)
    return total


def shifted_family(family: HamiltonianFamily, offset: np.ndarray, field=None) -> HamiltonianFamily:
    """``family`` with the fixed (d, d) matrix ``offset`` added to its value.

    ``offset`` is Hermitian (``extension_offset`` forms it from checked
    operators), so the sum is not tested for asymmetry (``hermitized``).
    ``field`` names the sum's overflow as ``add_offset`` does; without it, an
    overflowing sum raises NonHermitianInput.
    """

    def value(theta: float) -> HermitianOperator:
        return as_hermitian(add_offset(family.value(theta).matrix, offset, field, theta))

    def values(thetas: np.ndarray) -> np.ndarray:
        return hermitian_stack(add_offset(family.values(thetas), offset, field, thetas), thetas)

    return HamiltonianFamily(
        family.dim,
        value,
        family.derivative,
        family.second_derivative,
        value_stack=values,
        derivative_stack=family.derivatives,
    )


def flood(family: HamiltonianFamily, theta0: float, beta: float) -> HamiltonianFamily:
    """Add beta * dH/dtheta(theta0); large beta drives the QFI ratio to 1."""
    return apply_extension(family, Flood(beta=beta, theta0=theta0))


def subtract(family: HamiltonianFamily, theta0: float) -> HamiltonianFamily:
    """Subtract H(theta0); the result vanishes (and saturates) at theta0."""
    return apply_extension(family, Subtract(theta0=theta0))


def subtract_perturbed(
    family: HamiltonianFamily, theta0: float, epsilon: float
) -> HamiltonianFamily:
    """Subtract H(theta0 + epsilon): subtraction with a miscalibrated anchor."""
    return apply_extension(family, SubtractPerturbed(theta0=theta0, epsilon=epsilon))


def add_operator(
    family: HamiltonianFamily, v: HermitianOperator, epsilon: float
) -> HamiltonianFamily:
    """Add epsilon * V for an arbitrary fixed Hermitian V (time-scaling engineering)."""
    return apply_extension(family, AddOperator(operator=v, epsilon=epsilon))


def tensor_identity(family: HamiltonianFamily, ancilla_dim: int) -> HamiltonianFamily:
    """Extend to H(theta) (x) identity on an ancilla of the given dimension."""
    if ancilla_dim < 1:
        raise DimensionMismatch(f"ancilla dimension must be >= 1, got {ancilla_dim}")
    eye = np.eye(ancilla_dim)[None, :, None, :]
    n = family.dim * ancilla_dim

    def lift(scalar, stack=None):  # np.kron(m, eye)'s products for each (d, d) matrix m
        def formula(theta):
            m = stack(theta) if isinstance(theta, np.ndarray) else scalar(theta).matrix
            return (m[..., :, None, :, None] * eye).reshape(m.shape[:-2] + (n, n))
        return formula

    second = None if family.second_derivative is None else lift(family.second_derivative)
    return _formula_family(
        n, lift(family.value, family.values), lift(family.derivative, family.derivatives), second
    )


def _scaled(coefficient, matrix: np.ndarray) -> np.ndarray:
    """``coefficient * matrix``; OverflowError where it is not finite.

    ``coefficient`` is a float or an (N,) array of grid values; the message
    names the first coefficient whose term is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        offset = factor(coefficient) * matrix
    finite = np.isfinite(offset).all(axis=(-2, -1))
    _first_not_finite(finite, coefficient, "the added term is not finite at coefficient ")
    return offset


def extension_offset(family: HamiltonianFamily, spec: ExtensionSpec) -> np.ndarray:
    """The fixed matrix that the extension ``spec`` adds to ``family``'s value.

    ``beta`` or ``epsilon`` may be an (N,) array of grid values instead of a
    float; the offset is then the (N, d, d) stack of the offsets at each. A
    ``beta * dH/dtheta(theta0)`` or ``epsilon * V`` that overflows, or an
    anchor ``theta0 + epsilon`` that is not finite, raises OverflowError
    naming the first such ``beta`` or ``epsilon``.
    """
    if isinstance(spec, Flood):
        _require_finite(theta0=spec.theta0, beta=spec.beta)
        return _scaled(spec.beta, family.derivative(spec.theta0).matrix)
    if isinstance(spec, Subtract):
        _require_finite(theta0=spec.theta0)
        return -family.value(spec.theta0).matrix
    if isinstance(spec, SubtractPerturbed):
        _require_finite(theta0=spec.theta0, epsilon=spec.epsilon)
        with np.errstate(over="ignore"):
            anchor = spec.theta0 + spec.epsilon
        _first_not_finite(np.isfinite(anchor), spec.epsilon, "theta0 + epsilon is not finite at ")
        return -family.values(anchor) if np.ndim(anchor) else -family.value(anchor).matrix
    if isinstance(spec, AddOperator):
        _require_finite(epsilon=spec.epsilon)
        v = spec.operator
        if v.dim != family.dim:
            raise DimensionMismatch(
                f"operator dimension {v.dim} does not match family {family.dim}"
            )
        return _scaled(spec.epsilon, v.matrix)
    raise ValueError(f"unknown extension spec: {spec!r}")


def apply_extension(family: HamiltonianFamily, spec: ExtensionSpec) -> HamiltonianFamily:
    return shifted_family(family, extension_offset(family, spec))


def predicted_subtraction_deficit(
    family: HamiltonianFamily, theta0: float, epsilon: float, t: float
) -> float:
    """Leading-order (epsilon^4) deviation channel_qfi - upper_bound of
    subtraction with the miscalibrated anchor H(theta0 + epsilon).

    With A = dH/dtheta(theta0), B = d2H/dtheta2(theta0) and a_k, |k> the
    eigenpairs of A, the subtracted Hamiltonian at theta0 is
    -epsilon A - epsilon^2 B/2 + O(epsilon^3). Expanding the generator
    K = int_0^t e^{iHs} A e^{-iHs} ds in nested commutators (Wilcox 1967)
    gives K/t = A + epsilon^2 X + O(epsilon^3) with X = -(i t/4)[B, A], and
    the epsilon^4 term -(t^2/6) ad_H^2(A) contributes the diagonal
    Z = -(t^2/24)[B, [B, A]]; every other term up to epsilon^4 is a
    commutator with A and has no diagonal in A's eigenbasis. Perturbation
    theory in that basis then shifts the extremal eigenvalues by

        delta_m = epsilon^4 (Z_mm + sum_{k != m} |X_km|^2 / (a_m - a_k)),

    and squaring the spread t(a_max - a_min + delta_max - delta_min) gives
    the returned deficit 2 t^2 (a_max - a_min)(delta_max - delta_min). On the
    direction model it equals -(gamma B t)^4 epsilon^4 / 12.

    The extremal eigenvalues of A must be non-degenerate; otherwise
    DegenerateExtremalEigenvalues is raised. A family without a second
    derivative, or a non-finite input, raises ValueError.
    X and Z are formed from A 2^-ea and B 2^-eb (``unit_scaled``), so the
    shifts are 2^(ea + 2 eb) smaller; the deficit is scaled back at the end.
    """
    _require_finite(theta0=theta0, epsilon=epsilon, t=t)
    if family.second_derivative is None:
        raise ValueError("family has no second derivative")
    hdot, hddot = family.derivative(theta0), family.second_derivative(theta0)
    (a_unit, b_unit), (ea, eb) = unit_scaled(np.array([hdot.matrix, hddot.matrix]))
    w, v, _ = eigh_stack(a_unit[None], ea[None])
    a, v = w[0], v[0]  # A's eigenvalues are a 2^ea
    if not nondegenerate_extremes(degenerate_blocks(a, ea)):
        raise DegenerateExtremalEigenvalues(
            "extremal eigenvalues of the derivative are degenerate"
        )
    ba = b_unit @ a_unit - a_unit @ b_unit
    x = -(1j * t / 4.0) * (v.conj().T @ ba @ v)
    z = -(t * t / 24.0) * (v.conj().T @ (b_unit @ ba - ba @ b_unit) @ v)

    def shift(m: int) -> float:
        others = np.arange(a.size) != m
        return float(z[m, m].real + np.sum(np.abs(x[others, m]) ** 2 / (a[m] - a[others])))

    delta_spread = epsilon**4 * (shift(a.size - 1) - shift(0))
    return float(np.ldexp(2.0 * t * t * (a[-1] - a[0]) * delta_spread, 2 * (ea + eb)))

