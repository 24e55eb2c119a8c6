"""Differentiable Hamiltonian families theta -> HermitianOperator.

A family bundles a value map with its first (and optionally second)
parametric derivative. Derivative maps are analytic where the model provides
them and central finite differences otherwise. All maps must be stateless
and return identical matrices for identical arguments: a sweep evaluates
them once per grid point, or once per run when the swept variable does not
enter them, and stacks the results for one batched evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import config
from .errors import DimensionMismatch
from .linalg import HermitianOperator

MatrixFn = Callable[[float], HermitianOperator]

# cbrt(eps): standard optimum for second-order central differences.
DEFAULT_FD_STEP = float(np.cbrt(np.finfo(float).eps))
# eps**(1/4): optimum for the second-derivative stencil.
DEFAULT_FD_STEP_SECOND = float(np.finfo(float).eps ** 0.25)

# Analytic derivatives must match finite differences this closely
# (relative to 1 + max|derivative|, at step 1e-5 * max(1, |theta|)).
DERIVATIVE_CHECK_TOL = 1e-6
DERIVATIVE_CHECK_STEP = 1e-5


@dataclass(frozen=True, eq=False)
class HamiltonianFamily:
    dim: int
    value: MatrixFn
    derivative: MatrixFn
    second_derivative: Optional[MatrixFn] = None

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionMismatch(f"dimension must be >= 1, got {self.dim}")


def fd_derivative(value: MatrixFn, theta: float, h: float) -> HermitianOperator:
    """Central difference (H(theta+h) - H(theta-h)) / 2h."""
    plus = value(theta + h).matrix
    minus = value(theta - h).matrix
    return HermitianOperator((plus - minus) / (2.0 * h))


def fd_second_derivative(value: MatrixFn, theta: float, h: float) -> HermitianOperator:
    """Central second difference (H(theta+h) - 2 H(theta) + H(theta-h)) / h^2."""
    plus = value(theta + h).matrix
    mid = value(theta).matrix
    minus = value(theta - h).matrix
    return HermitianOperator((plus - 2.0 * mid + minus) / (h * h))


def family_from_callable(
    dim: int,
    value: MatrixFn,
    derivative: Optional[MatrixFn] = None,
    second_derivative: Optional[MatrixFn] = None,
    fd_step: Optional[float] = None,
) -> HamiltonianFamily:
    """Build a family, filling missing derivatives with finite differences."""
    if derivative is None:
        step = DEFAULT_FD_STEP if fd_step is None else fd_step
        derivative = lambda th: fd_derivative(value, th, step * max(1.0, abs(th)))
    if second_derivative is None:
        step2 = DEFAULT_FD_STEP_SECOND if fd_step is None else fd_step
        second_derivative = lambda th: fd_second_derivative(value, th, step2 * max(1.0, abs(th)))
    return HamiltonianFamily(dim, value, derivative, second_derivative)


@dataclass(frozen=True)
class FamilyValidation:
    """Result of checking a family's analytic derivative against finite differences."""

    max_deviation: float
    tolerance: float
    worst_theta: float

    @property
    def ok(self) -> bool:
        return self.max_deviation <= self.tolerance


def validate_family(family: HamiltonianFamily, thetas: Sequence[float]) -> FamilyValidation:
    """Compare family.derivative with a finite difference of family.value.

    The tolerance scales with QFIEXT_TOL. Hermiticity of value/derivative is
    enforced by construction of HermitianOperator and surfaces as
    NonHermitianInput from the evaluation itself.
    """
    scale = config.tolerance_scale()
    worst_ratio = -1.0
    worst = FamilyValidation(0.0, scale * DERIVATIVE_CHECK_TOL, float(thetas[0]))
    for theta in thetas:
        h = DERIVATIVE_CHECK_STEP * max(1.0, abs(theta))
        analytic = family.derivative(theta).matrix
        numeric = fd_derivative(family.value, theta, h).matrix
        dev = float(np.max(np.abs(analytic - numeric)))
        bound = scale * DERIVATIVE_CHECK_TOL * (1.0 + float(np.max(np.abs(analytic))))
        if dev / bound > worst_ratio:
            worst_ratio = dev / bound
            worst = FamilyValidation(dev, bound, float(theta))
    return worst
