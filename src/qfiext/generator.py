"""Local generator of parameter translations for a unitary family.

For U(theta) = exp(-i t H(theta)) the generator is the Hermitian operator

    K = i U(theta)^dag dU(theta)/dtheta = t * Integral_{-1}^{0} V(a) Hdot V(a)^dag da,

with V(a) = exp(-i a t H). Three independent evaluation routes:

* spectral  -- exact matrix elements in the eigenbasis of H(theta):
               K_lk = t * Hdot_lk * exp(i t (l_l - l_k)/2) * sinc(t (l_l - l_k)/2),
               the closed form of the integral above. Diagonal entries reduce
               to t * Hdot_kk, off-diagonal pairs with coinciding eigenvalues
               to the smooth sinc limit, so degenerate blocks need no special
               casing. This is the route of ``channel_qfi``, ``report`` and
               ``sweep``; it evaluates a whole stack of points at once.
* quadrature -- adaptive Gauss-Legendre evaluation of the integral.
* finite difference -- i U^dag [U(theta+h) - U(theta-h)] / 2h, the oracle the
               other two are validated against.

The sign and the placement of t inside the sinc/sine factor were fixed by
validating the spectral form against the finite-difference definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .errors import DimensionMismatch, StepTooSmall
from .family import DEFAULT_FD_STEP, HamiltonianFamily
from .linalg import HermitianOperator, _freeze, as_hermitian, check_unitary, eigh_stack
from .linalg import hermitian_part

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


def _phase_kernel(t: np.ndarray, eigenvalues: np.ndarray, lead=None) -> np.ndarray:
    """``lead`` (default t) * exp(i t d/2) * sin(t d/2)/(t d/2) over all eigenvalue gaps d.

    ``eigenvalues`` is a stack (N, d) of spectra and ``t`` is (N, 1, 1). d/2 is formed
    from halves, which cannot overflow, and has the bits of d's half where t d/2 is normal.
    """
    half = eigenvalues * 0.5
    half_gaps = half[..., :, None] - half[..., None, :]
    lead = t if lead is None else lead
    return lead * np.exp(1j * t * half_gaps) * np.sinc(t * half_gaps / np.pi)


class SpectralPoint:
    """K at one (theta, t): ``generator_in_eigenbasis``'s raw ``gen`` (1, d, d) and
    ``err`` (1,), then K's ``eigh_stack`` and ``HermitianOperator``, each formed when
    first asked for (again, if that raised). Every array is read-only."""

    def __init__(self, gen: np.ndarray, err: np.ndarray):
        self.gen, self.err = _freeze(gen), _freeze(err)

    eigh = cached_property(lambda self: tuple(_freeze(a) for a in eigh_stack(self.gen)))
    operator = cached_property(lambda self: as_hermitian(self.gen[0]))


def spectral_point(family: HamiltonianFamily, theta: float, t: float) -> SpectralPoint:
    """The ``SpectralPoint`` at (theta, t), from the family's ``point(theta)``.

    The point keeps the one for its latest t, by t's bits (0.0 and -0.0
    differ), so ``generator_spectral``, ``channel_qfi`` and
    ``channel_qfi_brute`` at one (theta, t) share one K and one
    decomposition of it.
    """
    point = family.point(theta)
    key = float(t).hex()
    if point.at_t[0] != key:
        w, v, ts = point.eigenvalues[:1], point.eigenvectors[:1], np.array([t], dtype=float)
        raw = generator_in_eigenbasis(w, v, point.derivative.matrix, ts)
        point.at_t = (key, SpectralPoint(*raw))
    return point.at_t[1]


def generator_spectral(family: HamiltonianFamily, theta: float, t: float) -> GeneratorResult:
    """Generator from the eigenbasis of H(theta); exact to eigensolver precision.

    The ``operator`` of the family's ``spectral_point``.
    """
    point = spectral_point(family, theta, t)
    return GeneratorResult(point.operator, GeneratorMethod.SPECTRAL, float(point.err[0]))


def generator_in_eigenbasis(
    w: np.ndarray, v: np.ndarray, hdot: np.ndarray, t: np.ndarray, over_t: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """The spectral generators (N, d, d) and their errors (N,) from H's ``eigh_stack``.

    ``w`` (N, d) or (1, d) and ``v`` (N, d, d) or (1, d, d) are H's
    eigenvalues and eigenvectors, ``hdot`` is dH/dtheta as an (N, d, d)
    stack or one (d, d) matrix, and ``t`` is (N,). Each generator is hermitized once, which
    makes it exactly Hermitian, so wrapping it in a ``HermitianOperator``
    leaves its bits unchanged. An overflow at large t gives a generator or
    error that is not finite, without a numpy warning; the caller checks.
    With ``over_t`` they are K/t, from the kernel without its leading t.
    """
    v_dag = v.conj().swapaxes(-1, -2)
    with np.errstate(all="ignore"):
        kernel = _phase_kernel(t[:, None, None], w, 1.0 if over_t else None)
        gen = v @ ((v_dag @ hdot @ v) * kernel) @ v_dag
        # 16 d eps (1 + |t| max|Hdot|), the spectral route's rounding estimate.
        hdot_max = np.abs(hdot).max(axis=(-2, -1))
        err = 16.0 * w.shape[-1] * float(np.finfo(float).eps) * (1.0 + abs(t) * hdot_max)
        return hermitian_part(gen), err


@lru_cache(maxsize=32)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)  # loads numpy.polynomial on first use


def _gauss_legendre_generator(
    t: float, eigenvalues: np.ndarray, eigenvectors: np.ndarray, hdot: np.ndarray, order: int
) -> np.ndarray:
    # nodes/weights on [-1, 1] mapped to the integration interval [-1, 0]
    nodes, weights = _leggauss(order)
    alphas = (nodes - 1.0) / 2.0
    # V(alpha) = exp(-i alpha t H) at every node, an (order, d, d) stack
    phases = np.exp(-1j * alphas[:, None] * t * eigenvalues)
    u = (eigenvectors * phases[:, None, :]) @ eigenvectors.conj().T
    terms = u @ hdot @ u.conj().swapaxes(-1, -2)
    return t * np.tensordot(weights / 2.0, terms, axes=1)


def generator_quadrature(
    family: HamiltonianFamily, theta: float, t: float, order: int = 8
) -> GeneratorResult:
    """Generator by adaptive Gauss-Legendre quadrature of the integral form.

    The order doubles until successive results differ by less than
    ``QUADRATURE_TARGET_RTOL * (1 + max|result|)`` or the cap is reached, in
    which case the best estimate is returned flagged ``converged=False``.
    H(theta)'s decomposition and dH/dtheta are the family's ``point(theta)``.
    """
    if order < 2:
        raise ValueError(f"quadrature order must be >= 2, got {order}")
    point = family.point(theta)
    w, v, hdot = point.eigenvalues[0], point.eigenvectors[0], point.derivative.matrix

    def evaluate(n: int) -> np.ndarray:
        return _gauss_legendre_generator(t, w, v, hdot, n)

    cur, err, converged = evaluate(order), None, False
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
    return GeneratorResult(as_hermitian(cur), GeneratorMethod.QUADRATURE, err, converged)


def generator_fd(
    family: HamiltonianFamily, theta: float, t: float, h: float | None = None
) -> GeneratorResult:
    """Generator by central differences of the evolution operator.

    Error is estimated by Richardson comparison with step h/2: for a
    second-order scheme err(h) ~ (4/3) |K(h) - K(h/2)|. H(theta)'s
    decomposition is the family's ``point(theta)``, which the other routes
    share; H at the four shifted points is decomposed in one ``eigh_stack`` call. The
    five unitaries are formed as one stack, with the bits of
    ``expm_unitary``, and pass ``check_unitary`` as one stack.
    """
    if h is None:
        h = DEFAULT_FD_STEP * max(1.0, abs(theta))
    if h <= 0 or h < FD_MIN_STEP_FACTOR * max(1.0, abs(theta)):
        raise StepTooSmall(
            f"step {h!r} below safe floor {FD_MIN_STEP_FACTOR * max(1.0, abs(theta)):.3e}"
        )
    half = h / 2.0
    point = family.point(theta)
    hs = family.values([theta + h, theta - h, theta + half, theta - half])
    w, v = eigh_stack(np.broadcast_to(hs, (4, family.dim, family.dim)))
    w, v = np.concatenate([point.eigenvalues[:1], w]), np.concatenate([point.eigenvectors[:1], v])
    stack = (v * np.exp(-1j * t * w)[:, None, :]) @ v.conj().swapaxes(-1, -2)
    u0, up, um, uph, umh = check_unitary(stack)

    def central(plus: np.ndarray, minus: np.ndarray, step: float) -> np.ndarray:
        return 1j * u0.conj().T @ (plus - minus) / (2.0 * step)

    full = central(up, um, h)
    err = (4.0 / 3.0) * float(np.max(np.abs(full - central(uph, umh, half))))
    return GeneratorResult(as_hermitian(full), GeneratorMethod.FINITE_DIFFERENCE, err)


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
    gen, _ = generator_in_eigenbasis(*eigh_stack(f.matrix[None]), g.matrix, np.array([t], float))
    return as_hermitian(gen[0])
