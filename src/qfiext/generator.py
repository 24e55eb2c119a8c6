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
               ``sweep``; it evaluates a whole stack of points at once, from
               H's eigenvalues and dH/dtheta, each scaled by a power of two.
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
from .linalg import HermitianOperator, _freeze, as_hermitian, check_unitary, eigh_stack, evolution
from .linalg import hermitian_part, unit_scaled

QUADRATURE_TARGET_RTOL = 1e-9
QUADRATURE_MAX_ORDER = 1024
_EPS = float(np.finfo(float).eps)
FD_MIN_STEP_FACTOR = 1e3 * _EPS


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


def _phase_kernel(lead: np.ndarray, half_t: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """lead * exp(i x) * sinc(x/pi), x = t d/2, over the gaps d of H's eigenvalues 2^e unit.

    ``unit`` (N, d) are spectra scaled by 2^-e, ``lead`` and ``half_t`` = t 2^(e-1)
    are (N, 1, 1): x = half_t (unit_l - unit_k) has the bits of t d/2 where that
    is normal. Where x is not finite but ``lead`` is, an entry is 0 (|sinc x| <=
    1/|x|), or ``lead`` on a zero gap. Under errstate.
    """
    gaps = unit[..., :, None] - unit[..., None, :]
    x = half_t * gaps
    kernel = lead * np.exp(1j * x) * np.sinc(x / np.pi)
    if np.isfinite(x).all():
        return kernel
    return np.where(np.isfinite(x) | np.isinf(lead), kernel, lead * (gaps == 0.0))


class SpectralPoint:
    """K at one (theta, t): ``generator_in_eigenbasis``'s ``(gen, err, k, f)``, then K's
    ``eigh_stack`` (of k, scaled by 2^-f) and ``HermitianOperator``, each formed when
    first asked for (again, if that raised). Every array is read-only."""

    def __init__(self, gen: np.ndarray, err: np.ndarray, k: np.ndarray, f: np.ndarray):
        self.gen, self.err, self.k, self.f = _freeze(gen), _freeze(err), _freeze(k), f

    eigh = cached_property(lambda self: tuple(map(_freeze, eigh_stack(self.k, self.f))))
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
        (w, v, e), ts = point.eigh, np.array([t], dtype=float)
        raw = generator_in_eigenbasis(w[:1], v[:1], e[:1], point.unit[1], e[1:], ts)
        point.at_t = (key, SpectralPoint(*raw))
    return point.at_t[1]


def generator_spectral(family: HamiltonianFamily, theta: float, t: float) -> GeneratorResult:
    """Generator from the eigenbasis of H(theta); exact to eigensolver precision.

    The ``operator`` of the family's ``spectral_point``.
    """
    point = spectral_point(family, theta, t)
    return GeneratorResult(point.operator, GeneratorMethod.SPECTRAL, float(point.err[0]))


def generator_in_eigenbasis(
    w: np.ndarray, v: np.ndarray, e: np.ndarray, unit: np.ndarray, eh, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(K, err, k, f)``: the spectral generators K (N, d, d) = 2^f k and their errors (N,).

    ``w``, ``v`` and ``e`` are H's ``eigh_stack`` at N points or at one, ``unit``
    and ``eh`` dH/dtheta's ``unit_scaled``, of an (N, d, d) stack or of one (d, d)
    matrix, and ``t`` is (N,). The kernel's lead is t, so that K has the
    unscaled formula's bits where its entries are normal; where |t| is beyond
    2^(+-960), and a product with it may leave the normal range, the lead is
    t's mantissa and t's exponent joins f, so that k keeps its digits. Each
    generator is hermitized once, so a ``HermitianOperator`` of it keeps its
    bits. An overflow at large t gives a K or error that is not finite,
    without a numpy warning; the caller checks.
    """
    v_dag = v.conj().swapaxes(-1, -2)
    m, et = np.frexp(t)
    plain = np.abs(et) < 960
    lead, f = np.where(plain, t, m), eh + np.where(plain, 0, et)
    with np.errstate(all="ignore"):
        kernel = _phase_kernel(lead[:, None, None], np.ldexp(t, e - 1)[:, None, None], w)
        k = hermitian_part(v @ ((v_dag @ unit @ v) * kernel) @ v_dag)
        # 16 d eps (1 + |t| max|Hdot|), the spectral route's rounding estimate.
        hdot_max = np.ldexp(np.abs(unit).max(axis=(-2, -1)), eh)
        err = 16.0 * w.shape[-1] * _EPS * (1.0 + abs(t) * hdot_max)
        return np.ldexp(k.view(float), f[:, None, None]).view(complex), err, k, f


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
    u = evolution(eigenvalues, eigenvectors, alphas[:, None] * t)
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
    (w, v, e), hdot = (a[0] for a in point.eigh), point.derivative.matrix
    w = np.ldexp(w, e)

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
    five unitaries are one ``evolution`` stack and pass ``check_unitary`` as one stack.
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
    shifted = eigh_stack(np.broadcast_to(hs, (4, family.dim, family.dim)))
    w, v, e = (np.concatenate([a[:1], b]) for a, b in zip(point.eigh, shifted))
    u0, up, um, uph, umh = check_unitary(evolution(np.ldexp(w, e[:, None]), v, t))

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
    ts = np.array([t], dtype=float)
    gen = generator_in_eigenbasis(*eigh_stack(f.matrix[None]), *unit_scaled(g.matrix), ts)[0]
    return as_hermitian(gen[0])
