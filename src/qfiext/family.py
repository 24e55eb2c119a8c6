"""Differentiable Hamiltonian families theta -> HermitianOperator.

A family bundles a value map with its first (and optionally second)
parametric derivative. Derivative maps are analytic where the model provides
them and central finite differences otherwise. All maps must be stateless
and return identical matrices for identical arguments.

A family also evaluates a whole grid at once: ``values(thetas)`` and
``derivatives(thetas)`` return checked (N, d, d) stacks, or one (d, d)
matrix when the matrix does not depend on theta. Families built by
``HamiltonianFamily.from_formulas`` (every model, file family and
extension) compute a stack in one numpy expression, from the same
shape-generic formula as their scalar maps, so ``values(thetas)[n]`` has the
bits of ``value(thetas[n]).matrix``. A family built from scalar maps alone
evaluates a grid one theta at a time. A sweep evaluates each map once per
run on its whole grid, or once at a single theta when the swept variable
does not enter it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import config
from .errors import DimensionMismatch
from .linalg import HermitianOperator, symmetrized

MatrixFn = Callable[[float], HermitianOperator]
StackFn = Callable[[np.ndarray], np.ndarray]
# A shape-generic formula maps a float theta to an unchecked (d, d) matrix and
# an (N,) array of them to an (N, d, d) stack; a HermitianOperator stands for
# a matrix that does not depend on theta.
Formula = Union[Callable, HermitianOperator]

# cbrt(eps): standard optimum for second-order central differences.
DEFAULT_FD_STEP = float(np.cbrt(np.finfo(float).eps))

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
    # Grid evaluators behind values()/derivatives(); None evaluates point by point.
    value_stack: Optional[StackFn] = field(default=None, kw_only=True, repr=False)
    derivative_stack: Optional[StackFn] = field(default=None, kw_only=True, repr=False)

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionMismatch(f"dimension must be >= 1, got {self.dim}")

    @classmethod
    def from_formulas(
        cls,
        dim: int,
        value: Formula,
        derivative: Formula,
        second_derivative: Optional[Formula] = None,
    ) -> "HamiltonianFamily":
        """Family whose scalar maps and grid evaluators share shape-generic formulas."""
        return cls(
            dim,
            _scalar_map(value),
            _scalar_map(derivative),
            None if second_derivative is None else _scalar_map(second_derivative),
            value_stack=_stack_map(value),
            derivative_stack=_stack_map(derivative),
        )

    def values(self, thetas) -> np.ndarray:
        """Checked H(theta) over a grid: (N, d, d), or (d, d) if H does not depend on theta."""
        return _evaluate(self.value, self.value_stack, thetas)

    def derivatives(self, thetas) -> np.ndarray:
        """Checked dH/dtheta over a grid: (N, d, d), or (d, d) if it does not depend on theta."""
        return _evaluate(self.derivative, self.derivative_stack, thetas)


def _evaluate(scalar: MatrixFn, stack: Optional[StackFn], thetas) -> np.ndarray:
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 1:
        raise ValueError(f"expected a 1-D grid of theta values, got shape {thetas.shape}")
    if stack is not None:
        return stack(thetas)
    return np.stack([scalar(x).matrix for x in thetas.tolist()])


def _scalar_map(formula: Formula) -> MatrixFn:
    if isinstance(formula, HermitianOperator):
        return lambda theta: formula
    return lambda theta: HermitianOperator(formula(theta))


def _stack_map(formula: Formula) -> StackFn:
    if isinstance(formula, HermitianOperator):
        return lambda thetas: formula.matrix
    return lambda thetas: checked_stack(np.asarray(formula(thetas), dtype=complex), thetas)


def checked_stack(matrices: np.ndarray, thetas: np.ndarray, name: str = "theta") -> np.ndarray:
    """``symmetrized`` over a grid; a failure names its first offending grid value."""
    return symmetrized(matrices, lambda n: f"at {name}={float(thetas[n])!r}")


def factor(theta):
    """theta as a coefficient of matrices: a float as is, an (N,) array as (N, 1, 1)."""
    return theta[:, None, None] if isinstance(theta, np.ndarray) else theta


def fd_derivative(value: MatrixFn, theta: float, h: float) -> HermitianOperator:
    """Central difference (H(theta+h) - H(theta-h)) / 2h."""
    plus = value(theta + h).matrix
    minus = value(theta - h).matrix
    return HermitianOperator((plus - minus) / (2.0 * h))


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
