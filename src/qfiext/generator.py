"""Local generator of parameter translations for a unitary family.

For U(theta) = exp(-i t H(theta)) the generator is the Hermitian operator

    K = i U(theta)^dag dU(theta)/dtheta = t * Integral_{-1}^{0} V(a) Hdot V(a)^dag da,

with V(a) = exp(-i a t H). Three independent evaluation routes:

* spectral  -- exact matrix elements in the eigenbasis of H(theta):
               K_lk = t * Hdot_lk * exp(i t (l_l - l_k)/2) * sinc(t (l_l - l_k)/2),
               the closed form of the integral above. Diagonal entries reduce
               to t * Hdot_kk, off-diagonal pairs with coinciding eigenvalues
               to the smooth sinc limit, so degenerate blocks need no special
               casing. This is the default public path.
* quadrature -- adaptive Gauss-Legendre evaluation of the integral.
* finite difference -- i U^dag [U(theta+h) - U(theta-h)] / 2h, the oracle the
               other two are validated against.

The sign and the placement of t inside the sinc/sine factor were fixed by
validating the spectral form against the finite-difference definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, StepTooSmall
from .family import DEFAULT_FD_STEP, HamiltonianFamily
from .linalg import HermitianOperator, eig_hermitian, eigh_stack, expm_unitary, hermitian_part

QUADRATURE_TARGET_RTOL = 1e-9
QUADRATURE_MAX_ORDER = 1024
FD_MIN_STEP_FACTOR = 1e3 * float(np.finfo(float).eps)


class GeneratorMethod(Enum):
    SPECTRAL = "spectral"
    QUADRATURE = "quadrature"
    FINITE_DIFFERENCE = "finite-difference"


@dataclass(frozen=True, eq=False)
class GeneratorResult:
    generator: HermitianOperator
    method: GeneratorMethod
    estimated_error: float
    converged: bool = True


def _hermitized(m: np.ndarray) -> HermitianOperator:
    return HermitianOperator(hermitian_part(m))


def _phase_kernel(t, eigenvalues: np.ndarray) -> np.ndarray:
    """t * exp(i t d/2) * sin(t d/2)/(t d/2) over all eigenvalue gaps d.

    ``eigenvalues`` is one spectrum (d,) or a stack (..., d); over a stack,
    ``t`` is an array that broadcasts against (..., d, d).
    """
    gaps = eigenvalues[..., :, None] - eigenvalues[..., None, :]
    return t * np.exp(0.5j * t * gaps) * np.sinc(t * gaps / (2.0 * np.pi))


def _spectral_product(t, eigenvalues: np.ndarray, eigenvectors: np.ndarray, op: np.ndarray):
    """V ((V^dag A V) * kernel) V^dag: the generator for derivative A, before hermitization."""
    v = eigenvectors
    v_dag = v.conj().swapaxes(-1, -2)
    return v @ ((v_dag @ op @ v) * _phase_kernel(t, eigenvalues)) @ v_dag


def _spectral_error(dim: int, t, hdot_max):
    """16 d eps (1 + |t| max|Hdot|), the spectral route's rounding estimate."""
    return 16.0 * dim * float(np.finfo(float).eps) * (1.0 + abs(t) * hdot_max)


def generator_spectral(family: HamiltonianFamily, theta: float, t: float) -> GeneratorResult:
    """Generator from the eigenbasis of H(theta); exact to eigensolver precision."""
    h = family.value(theta)
    hdot = family.derivative(theta)
    dec = eig_hermitian(h)
    gen = _spectral_product(t, dec.eigenvalues, dec.eigenvectors, hdot.matrix)
    err = _spectral_error(family.dim, t, float(np.max(np.abs(hdot.matrix))))
    return GeneratorResult(_hermitized(gen), GeneratorMethod.SPECTRAL, err)


def generator_spectral_stack(
    h: np.ndarray, hdot: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``generator_spectral`` at N points at once: generators (N, d, d) and errors (N,).

    ``h`` and ``hdot`` are ``HermitianOperator.matrix`` values (not checked
    again): (N, d, d) stacks, or one (d, d) matrix that holds at every point
    and is then decomposed once. ``t`` is (N,). Each generator has the bits of
    ``generator_spectral(...).generator.matrix`` at its point, hermitized
    twice as ``_hermitized`` and ``HermitianOperator`` do.
    """
    w, v = eigh_stack(h if h.ndim == 3 else h[None])
    gen = _spectral_product(t[:, None, None], w, v, hdot)
    err = _spectral_error(h.shape[-1], t, np.abs(hdot).max(axis=(-2, -1)))
    return hermitian_part(hermitian_part(gen)), err


@lru_cache(maxsize=32)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def _gauss_legendre_generator(
    t: float,
    eigenvalues: np.ndarray,
    eigenvectors: np.ndarray,
    hdot: np.ndarray,
    order: int,
) -> np.ndarray:
    # nodes/weights on [-1, 1] mapped to the integration interval [-1, 0]
    nodes, weights = _leggauss(order)
    alphas = (nodes - 1.0) / 2.0
    acc = np.zeros_like(hdot)
    vdag = eigenvectors.conj().T
    for alpha, w in zip(alphas, weights):
        u = (eigenvectors * np.exp(-1j * alpha * t * eigenvalues)) @ vdag
        acc += (w / 2.0) * (u @ hdot @ u.conj().T)
    return t * acc


def generator_quadrature(
    family: HamiltonianFamily, theta: float, t: float, order: int = 8
) -> GeneratorResult:
    """Generator by adaptive Gauss-Legendre quadrature of the integral form.

    The order doubles until successive results differ by less than
    ``QUADRATURE_TARGET_RTOL * (1 + max|result|)`` or the cap is reached, in
    which case the best estimate is returned flagged ``converged=False``.
    """
    if order < 2:
        raise ValueError(f"quadrature order must be >= 2, got {order}")
    h = family.value(theta)
    hdot = family.derivative(theta).matrix
    dec = eig_hermitian(h)

    def evaluate(n: int) -> np.ndarray:
        return _gauss_legendre_generator(t, dec.eigenvalues, dec.eigenvectors, hdot, n)

    cur = evaluate(order)
    err = None
    converged = False
    while 2 * order <= QUADRATURE_MAX_ORDER:
        order *= 2
        nxt = evaluate(order)
        err = float(np.max(np.abs(nxt - cur)))
        cur = nxt
        if err <= QUADRATURE_TARGET_RTOL * (1.0 + float(np.max(np.abs(cur)))):
            converged = True
            break
    if err is None:  # started at/above the cap: estimate against the halved order
        err = float(np.max(np.abs(cur - evaluate(max(order // 2, 2)))))
        converged = err <= QUADRATURE_TARGET_RTOL * (1.0 + float(np.max(np.abs(cur))))
    return GeneratorResult(_hermitized(cur), GeneratorMethod.QUADRATURE, err, converged)


def _fd_generator(family: HamiltonianFamily, theta: float, t: float, h: float) -> np.ndarray:
    u0 = expm_unitary(family.value(theta), t).matrix
    up = expm_unitary(family.value(theta + h), t).matrix
    um = expm_unitary(family.value(theta - h), t).matrix
    return 1j * u0.conj().T @ (up - um) / (2.0 * h)


def generator_fd(
    family: HamiltonianFamily, theta: float, t: float, h: float | None = None
) -> GeneratorResult:
    """Generator by central differences of the evolution operator.

    Error is estimated by Richardson comparison with step h/2: for a
    second-order scheme err(h) ~ (4/3) |K(h) - K(h/2)|.
    """
    if h is None:
        h = DEFAULT_FD_STEP * max(1.0, abs(theta))
    if h <= 0 or h < FD_MIN_STEP_FACTOR * max(1.0, abs(theta)):
        raise StepTooSmall(
            f"step {h!r} below safe floor {FD_MIN_STEP_FACTOR * max(1.0, abs(theta)):.3e}"
        )
    full = _fd_generator(family, theta, t, h)
    half = _fd_generator(family, theta, t, h / 2.0)
    err = (4.0 / 3.0) * float(np.max(np.abs(full - half)))
    return GeneratorResult(_hermitized(full), GeneratorMethod.FINITE_DIFFERENCE, err)


def broken_phase_shift_generator_at_zero(
    g: HermitianOperator, f: HermitianOperator, t: float
) -> HermitianOperator:
    """Closed-form generator of K(theta) = theta*G + F at theta = 0.

    In the eigenbasis {f_i, |i>} of F the matrix elements are
    t*g_ii on the diagonal and i*g_ij*(1 - exp(i t (f_i - f_j)))/(f_i - f_j)
    off the diagonal; coinciding f_i are handled through the smooth
    exp/sinc form of the same kernel.
    """
    if g.dim != f.dim:
        raise DimensionMismatch(f"dimensions differ: {g.dim} vs {f.dim}")
    dec = eig_hermitian(f)
    return _hermitized(_spectral_product(t, dec.eigenvalues, dec.eigenvectors, g.matrix))


def compute_generator(
    family: HamiltonianFamily,
    theta: float,
    t: float,
    method: GeneratorMethod = GeneratorMethod.SPECTRAL,
) -> GeneratorResult:
    """Dispatch to the requested generator evaluation route."""
    if method is GeneratorMethod.SPECTRAL:
        return generator_spectral(family, theta, t)
    if method is GeneratorMethod.QUADRATURE:
        return generator_quadrature(family, theta, t)
    if method is GeneratorMethod.FINITE_DIFFERENCE:
        return generator_fd(family, theta, t)
    raise ValueError(f"unknown generator method: {method!r}")
