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

from .errors import DegenerateExtremalEigenvalues, DegenerateSpectrum, DimensionMismatch
from .family import HamiltonianFamily, checked_stack, factor
from .linalg import HermitianOperator, commutator, degenerate_blocks, eig_hermitian


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
        if isinstance(value, np.ndarray):
            finite = bool(np.isfinite(value).all())
        else:
            finite = math.isfinite(value)
        if not finite:
            raise ValueError(f"{name} must be finite, got {value!r}")


def _shifted_family(family: HamiltonianFamily, offset: np.ndarray) -> HamiltonianFamily:
    def value(theta: float) -> HermitianOperator:
        return HermitianOperator(family.value(theta).matrix + offset)

    def values(thetas: np.ndarray) -> np.ndarray:
        return checked_stack(family.values(thetas) + offset, thetas)

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
    eye = np.eye(ancilla_dim)

    def lift(fn):
        return lambda theta: HermitianOperator(np.kron(fn(theta).matrix, eye))

    second = None if family.second_derivative is None else lift(family.second_derivative)
    return HamiltonianFamily(
        family.dim * ancilla_dim, lift(family.value), lift(family.derivative), second
    )


def extension_offset(family: HamiltonianFamily, spec: ExtensionSpec) -> np.ndarray:
    """The fixed matrix that the extension ``spec`` adds to ``family``'s value.

    ``beta`` or ``epsilon`` may be an (N,) array of grid values instead of a
    float; the offset is then the (N, d, d) stack of the offsets at each.
    """
    if isinstance(spec, Flood):
        _require_finite(theta0=spec.theta0, beta=spec.beta)
        return factor(spec.beta) * family.derivative(spec.theta0).matrix
    if isinstance(spec, Subtract):
        _require_finite(theta0=spec.theta0)
        return -family.value(spec.theta0).matrix
    if isinstance(spec, SubtractPerturbed):
        _require_finite(theta0=spec.theta0, epsilon=spec.epsilon)
        anchor = spec.theta0 + spec.epsilon
        if isinstance(anchor, np.ndarray):
            return -family.values(anchor)
        return -family.value(anchor).matrix
    if isinstance(spec, AddOperator):
        _require_finite(epsilon=spec.epsilon)
        v = spec.operator
        if v.dim != family.dim:
            raise DimensionMismatch(
                f"operator dimension {v.dim} does not match family {family.dim}"
            )
        return factor(spec.epsilon) * v.matrix
    raise ValueError(f"unknown extension spec: {spec!r}")


def apply_extension(family: HamiltonianFamily, spec: ExtensionSpec) -> HamiltonianFamily:
    return _shifted_family(family, extension_offset(family, spec))


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
    """
    _require_finite(theta0=theta0, epsilon=epsilon, t=t)
    if family.second_derivative is None:
        raise ValueError("family has no second derivative")
    hdot = family.derivative(theta0)
    hddot = family.second_derivative(theta0)
    dec = eig_hermitian(hdot)
    blocks = degenerate_blocks(dec.eigenvalues)
    if len(blocks[0]) > 1 or len(blocks[-1]) > 1 or len(blocks) == 1:
        raise DegenerateExtremalEigenvalues(
            "extremal eigenvalues of the derivative are degenerate"
        )
    a, v = dec.eigenvalues, dec.eigenvectors
    ba = commutator(hddot, hdot)
    x = -(1j * t / 4.0) * (v.conj().T @ ba @ v)
    z = -(t * t / 24.0) * (v.conj().T @ (hddot.matrix @ ba - ba @ hddot.matrix) @ v)

    def shift(m: int) -> float:
        others = np.arange(a.size) != m
        return float(z[m, m].real + np.sum(np.abs(x[others, m]) ** 2 / (a[m] - a[others])))

    delta_spread = epsilon**4 * (shift(a.size - 1) - shift(0))
    return float(2.0 * t * t * (a[-1] - a[0]) * delta_spread)


def perturbed_eigenvalues_first_order(
    h: HermitianOperator, v: HermitianOperator, epsilon: float
) -> np.ndarray:
    """Eigenvalues of H + epsilon*V to first order: lambda_i + epsilon <i|V|i>.

    Requires a non-degenerate spectrum of H; output is ordered by ascending
    unperturbed eigenvalue.
    """
    _require_finite(epsilon=epsilon)
    if h.dim != v.dim:
        raise DimensionMismatch(f"dimensions differ: {h.dim} vs {v.dim}")
    dec = eig_hermitian(h)
    if any(len(b) > 1 for b in degenerate_blocks(dec.eigenvalues)):
        raise DegenerateSpectrum("H has degenerate eigenvalues")
    shifts = np.einsum("ik,ij,jk->k", dec.eigenvectors.conj(), v.matrix, dec.eigenvectors).real
    return dec.eigenvalues + epsilon * shifts
