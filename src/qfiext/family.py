"""Differentiable Hamiltonian families theta -> HermitianOperator.

A family bundles a value map with its first (and optionally second)
parametric derivative; each call of a map evaluates it. Every derivative map
is given explicitly (``HamiltonianFamily`` requires one): the models, file
families and extensions supply analytic ones, and ``validate_family`` checks a
derivative against a central finite difference. The single-point routes (the
three generators, ``channel_qfi``, the oracle and ``check_saturation``) share
the family's ``point(theta)``: H(theta) and dH/dtheta evaluated once, with
their decomposition.

``values(thetas)`` and ``derivatives(thetas)`` evaluate a whole grid: (N, d,
d) stacks, or one (d, d) matrix when the matrix does not depend on theta.
Formula families (every model, file family and extension) compute a stack
in one numpy expression from the same formula as their scalar maps, so
``values(thetas)[n]`` has the bits of ``value(thetas[n]).matrix``; a family
built from scalar maps alone evaluates a grid one theta at a time.

Hermiticity is checked where matrices enter: by ``HermitianOperator`` in
user-built maps and for every matrix of ``from_formulas``. The toolkit's own
formulas combine checked operators with real coefficients, so they are
Hermitian by construction and skip the asymmetry test (``hermitized``).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import DimensionMismatch
from .linalg import HermitianOperator, _freeze, as_hermitian, blocks_between, eigh_splits
from .linalg import hermitized, symmetrized, unit_scaled

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


class Point:
    """H(theta) and dH/dtheta at one theta, and their decomposition from one ``eigh_stack``.

    ``unit`` (2, d, d) is H and dH/dtheta scaled by ``unit_scaled``, and ``eigh``
    that call's (eigenvalues (2, d), eigenvectors (2, d, d), exponents (2,)),
    H's at index 0 and dH/dtheta's at index 1; all are read-only. ``blocks``
    are dH/dtheta's ``degenerate_blocks``, from the split that call formed.
    ``at_t`` is ``generator.spectral_point``'s ``(t's bits, K)`` for the latest t.
    """

    def __init__(self, key: str, value: HermitianOperator, derivative: HermitianOperator):
        self.key, self.value, self.derivative = key, value, derivative
        unit, e = unit_scaled(np.array([value.matrix, derivative.matrix]))
        self.unit = _freeze(unit)
        *eigh, split = eigh_splits(unit, e)
        self.eigh, self.blocks = tuple(map(_freeze, eigh)), blocks_between(split[1])
        self.at_t = (None, None)


class HamiltonianFamily:
    """H(theta) and its derivatives, with the ``point`` of its latest theta.

    ``value_stack`` and ``derivative_stack`` are the grid evaluators behind
    ``values``/``derivatives``; None evaluates point by point. The constructor
    checks ``dim`` in ``__post_init__``, which ``perfbench/tracer.py`` wraps.
    """

    def __init__(
        self, dim: int, value: MatrixFn, derivative: MatrixFn,
        second_derivative: Optional[MatrixFn] = None, *,
        value_stack: Optional[StackFn] = None, derivative_stack: Optional[StackFn] = None,
    ):
        self.dim, self.value, self.derivative = dim, value, derivative
        self.second_derivative = second_derivative
        self.value_stack, self.derivative_stack = value_stack, derivative_stack
        self._latest: Optional[Point] = None
        self.__post_init__()

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionMismatch(f"dimension must be >= 1, got {self.dim}")

    @classmethod
    def from_formulas(
        cls, dim: int, value: Formula, derivative: Formula,
        second_derivative: Optional[Formula] = None,
    ) -> "HamiltonianFamily":
        """Family whose scalar maps and grid evaluators share shape-generic formulas.

        Every matrix is checked as ``HermitianOperator`` checks it; a grid's
        failure names its first offending theta.
        """
        return _formula_family(dim, value, derivative, second_derivative, checked=True)

    def point(self, theta: float) -> Point:
        """The ``Point`` at theta, kept for the latest theta by its bits (0.0 and -0.0 differ).

        A map or decomposition that raises leaves the kept point as it is.
        """
        key = float(theta).hex()
        point = self._latest
        if point is None or point.key != key:
            point = Point(key, self.value(theta), self.derivative(theta))
            self._latest = point
        return point

    def values(self, thetas) -> np.ndarray:
        """H(theta) over a grid: (N, d, d), or (d, d) if H does not depend on theta."""
        return _evaluate(self.value, self.value_stack, thetas)

    def derivatives(self, thetas) -> np.ndarray:
        """dH/dtheta over a grid: (N, d, d), or (d, d) if it does not depend on theta."""
        return _evaluate(self.derivative, self.derivative_stack, thetas)


def _evaluate(scalar: MatrixFn, stack: Optional[StackFn], thetas) -> np.ndarray:
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 1:
        raise ValueError(f"expected a 1-D grid of theta values, got shape {thetas.shape}")
    if stack is not None:
        return stack(thetas)
    return np.stack([scalar(x).matrix for x in thetas.tolist()])


def _formula_family(dim, value, derivative, second_derivative=None, checked=False):
    """``from_formulas``; unless ``checked``, for the toolkit's formulas (``hermitized``)."""
    operator, stacked = (HermitianOperator, symmetrized) if checked else (as_hermitian, hermitized)

    def scalar_map(formula: Formula) -> MatrixFn:
        if isinstance(formula, HermitianOperator):
            return lambda theta: formula
        return lambda theta: operator(formula(theta))

    def stack_map(formula: Formula) -> StackFn:
        if isinstance(formula, HermitianOperator):
            return lambda thetas: formula.matrix
        return lambda thetas: stacked(np.asarray(formula(thetas), dtype=complex), _at(thetas))

    second = None if second_derivative is None else scalar_map(second_derivative)
    return HamiltonianFamily(
        dim, scalar_map(value), scalar_map(derivative), second,
        value_stack=stack_map(value), derivative_stack=stack_map(derivative),
    )


def _at(thetas: np.ndarray, name: str = "theta"):
    return lambda n: f"at {name}={float(thetas[n])!r}"


def hermitian_stack(matrices: np.ndarray, thetas: np.ndarray, name: str = "theta") -> np.ndarray:
    """``hermitized`` over a grid; a non-finite matrix is named by its first grid value."""
    return hermitized(matrices, _at(thetas, name))


def factor(theta):
    """theta as a coefficient of matrices: a float as is, an (N,) array as (N, 1, 1)."""
    return theta[:, None, None] if isinstance(theta, np.ndarray) else theta


class FamilyValidation:
    """Result of checking a family's analytic derivative against finite differences."""

    def __init__(self, max_deviation: float, tolerance: float, worst_theta: float):
        self.max_deviation, self.tolerance, self.worst_theta = max_deviation, tolerance, worst_theta

    @property
    def ok(self) -> bool:
        return self.max_deviation <= self.tolerance


def validate_family(family: HamiltonianFamily, thetas: Sequence[float]) -> FamilyValidation:
    """Compare family.derivative with a finite difference of family.value.

    Hermiticity of value/derivative is enforced by construction of
    HermitianOperator and surfaces as NonHermitianInput from the evaluation
    itself.
    """
    worst_ratio = -1.0
    worst = FamilyValidation(0.0, DERIVATIVE_CHECK_TOL, float(thetas[0]))
    for theta in thetas:
        h = DERIVATIVE_CHECK_STEP * max(1.0, abs(theta))
        analytic = family.derivative(theta).matrix
        plus, minus = family.value(theta + h).matrix, family.value(theta - h).matrix
        numeric = HermitianOperator((plus - minus) / (2.0 * h)).matrix  # central difference
        dev = float(np.max(np.abs(analytic - numeric)))
        bound = DERIVATIVE_CHECK_TOL * (1.0 + float(np.max(np.abs(analytic))))
        if dev / bound > worst_ratio:
            worst_ratio = dev / bound
            worst = FamilyValidation(dev, bound, float(theta))
    return worst
