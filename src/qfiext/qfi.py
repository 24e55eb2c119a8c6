"""Channel quantum Fisher information for unitary parameter estimation.

For a pure probe evolved by U(theta) = exp(-i t H(theta)) the QFI is
4 Var(K) in the initial state, with K the local generator. Maximizing over
probes gives the channel QFI, which equals the squared spectral spread
(semi-norm) of K and is reached by the balanced superposition of extremal
eigenvectors of K. The channel QFI never exceeds t^2 * seminorm(dH/dtheta)^2;
saturation is decided by whether the extremal eigenvectors of dH/dtheta are
eigenvectors of H.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, ModelError
from .family import HamiltonianFamily
from .generator import GeneratorMethod, generator_in_eigenbasis, generator_spectral, spectral_point
from .linalg import PureState, eigh_stack, nondegenerate_extremes, norm, scaled_eigh, unit_scaled
from .linalg import variance

# Residual tolerance (relative to the spectral norm of H) below which an
# extremal eigenvector of dH/dtheta counts as an eigenvector of H.
SATURATION_RTOL = 1e-8

_SMALLEST_NORMAL = float(np.finfo(float).tiny)

# Brute-force oracle hyperparameters (reliable for dim <= 8).
_ASCENT_ITERATIONS = 60
_ASCENT_INITIAL_STEP = 0.1


class ChannelQfiReport:
    def __init__(self, channel_qfi: float, upper_bound: float, ratio: float,
                 optimal_probe: PureState, generator_method: GeneratorMethod,
                 estimated_error: float):
        self.channel_qfi, self.upper_bound, self.ratio = channel_qfi, upper_bound, ratio
        self.optimal_probe, self.generator_method = optimal_probe, generator_method
        self.estimated_error = estimated_error


class SaturationStatus(Enum):
    SATURATES = "saturates"
    NOT_SATURATING = "not-saturating"
    DEGENERATE_SUFFICIENT_HOLDS = "degenerate-sufficient-holds"
    DEGENERATE_INCONCLUSIVE = "degenerate-inconclusive"


class SaturationVerdict:
    def __init__(self, verdict: SaturationStatus, witness: Optional[tuple[int, int]] = None):
        self.verdict, self.witness = verdict, witness


def qfi_pure(family: HamiltonianFamily, theta: float, t: float, psi0: PureState) -> float:
    """QFI of the evolved pure probe: 4 Var(K) in the initial state.

    K is the spectral generator, ``generator_spectral``.
    """
    if psi0.dim != family.dim:
        raise DimensionMismatch(f"probe dimension {psi0.dim} does not match family {family.dim}")
    gen = generator_spectral(family, theta, t).generator
    return 4.0 * variance(gen, psi0)


def upper_bound(family: HamiltonianFamily, theta: float, t: float) -> float:
    """t^2 * seminorm(dH/dtheta)^2, the channel QFI's ceiling (``_bound``), at ``point(theta)``."""
    at = family.point(theta)
    with np.errstate(all="ignore"):
        return float(_bound(np.float64(t), at.unit[1], at.eigh[2][1])[0])


def _bound(t, unit, e):
    """(bound, normal, spread) from dH/dtheta ``unit_scaled``, ``unit`` 2^e, under errstate.

    ``spread`` is that of unit's ``eigvalsh`` (``eigh`` need not agree in the
    last bit). Where t*t is normal and t*t*(2^e spread)**2 finite, that is the
    bound; elsewhere it is ldexp(|m| spread, k + e)**2 with t = m 2^k, one
    rounding from exact. ``normal``: where the squares and the bound are
    normal floats, and the bound is the first formula's.
    """
    d = scaled_eigh(unit, vectors=False, e=e)[0]
    spread = d[..., -1] - d[..., 0]
    t2, s2 = t * t, np.ldexp(spread, e) ** 2
    bound = t2 * s2
    normal = np.minimum(np.minimum(t2, s2), bound) >= _SMALLEST_NORMAL
    if (normal & (bound < np.inf)).all():
        return bound, normal, spread
    m, k = np.frexp(t)
    keep = (t2 >= _SMALLEST_NORMAL) & (bound < np.inf)
    return np.where(keep, bound, np.ldexp(np.abs(m) * spread, k + e) ** 2), normal & keep, spread


def _reduce(
    k: np.ndarray, ek: np.ndarray, unit: np.ndarray, ed, t: np.ndarray, err: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(channel QFI, upper bound, ratio, estimated error) as (N,) columns.

    ``k`` holds the ascending spectra (N, d) of the generators scaled by
    2^-ek, ``unit`` and ``ed`` are dH/dtheta's ``unit_scaled``, of an (N, d, d)
    stack or of one (d, d) matrix, and ``t``, ``ek`` and the generators' ``err``
    are (N,). The ratio is cqfi / bound where ``_bound`` is normal. Elsewhere
    the squares have lost relative precision (or underflowed to 0, or
    overflowed), so the ratio is (spread(K) / (|t| spread(dH/dtheta)))^2,
    formed from the scaled spreads and the exponents, or 1 where that
    denominator vanishes.
    """
    # Both branches of each where are formed; an overflow, 0/0 or inf/inf
    # there is left to _check_finite, not reported by numpy.
    with np.errstate(all="ignore"):
        k_spread = k[:, -1] - k[:, 0]
        cqfi = np.ldexp(k_spread, ek) ** 2
        bound, normal, d_spread = _bound(t, unit, ed)
        if normal.all():
            return cqfi, bound, cqfi / bound, err
        m, et = np.frexp(t)
        root = np.abs(m) * d_spread
        from_spreads = np.where(root > 0.0, np.ldexp(k_spread / root, ek - ed - et) ** 2, 1.0)
        return cqfi, bound, np.where(normal, cqfi / bound, from_spreads), err


_COLUMNS = ("channel_qfi", "upper_bound", "ratio", "estimated_error")
_GENERATOR = ("generator", "estimated_error")


def _check_finite(quantities, arrays, variable: str, values) -> None:
    """Raise ModelError naming the first point where one of ``arrays`` is not finite.

    Each array holds one value, or one (d, d) matrix, per point; ``values``
    are the N values of ``variable`` that the points stand for. The message
    names the first such value and, of ``quantities``, the first array that
    is not finite there.
    """
    if all(np.isfinite(a).all() for a in arrays):
        return
    finite = np.stack([np.isfinite(a).reshape(len(values), -1).all(axis=1) for a in arrays])
    point = int(np.argmin(finite.all(axis=0)))
    quantity = quantities[int(np.argmin(finite[:, point]))]
    raise ModelError(f"at {variable}={values[point]!r}: {quantity} is not finite")


def _checked_reduce(spectrum, gen, err, f, unit, ed, t, variable: str, values):
    """``_reduce`` of ``spectrum()``, the spectra of the N generators ``gen`` scaled by 2^-f,
    after ``_check_finite`` of ``gen`` and their ``err`` (LAPACK's eigh fails on the NaN or
    infinity that an overflow at large t leaves in K), and ``_check_finite`` of its columns."""
    _check_finite(_GENERATOR, (gen, err), variable, values)
    columns = _reduce(spectrum(), f, unit, ed, t, err)
    _check_finite(_COLUMNS, columns, variable, values)
    return columns


def _balanced_probe(vectors: np.ndarray) -> np.ndarray:
    """(v_max + v_min)/sqrt(2) from eigenvector columns in ascending order; at d = 1, v itself."""
    if vectors.shape[1] == 1:
        return vectors[:, 0]
    return (vectors[:, -1] + vectors[:, 0]) / np.sqrt(2.0)


def channel_qfi(family: HamiltonianFamily, theta: float, t: float) -> ChannelQfiReport:
    """Channel QFI = seminorm(K)^2 plus the bound, their ratio and the optimal probe.

    ``channel_qfi_stack`` at one point, from the family's ``spectral_point``,
    whose ``eigh`` gives K's spectrum and the optimal probe, the balanced
    superposition of K's extremal eigenvectors (K gets no ``HermitianOperator``),
    and dH/dtheta from its ``point(theta)``.
    When the bound vanishes (dH/dtheta proportional to identity) the channel QFI
    vanishes too and the ratio is defined as 1 to keep sweep output free of
    NaNs. A generator or result that is not finite (an overflow at large t)
    raises ModelError naming it and t, on every call.
    """
    point, at = spectral_point(family, theta, t), family.point(theta)
    ts = np.array([t], dtype=float)
    columns = _checked_reduce(lambda: point.eigh[0], point.gen, point.err, point.f,
                              at.unit[1], at.eigh[2][1:], ts, "t", [t])
    cqfi, bound, ratio, e = (float(column[0]) for column in columns)
    probe = PureState(_balanced_probe(point.eigh[1][0]))
    return ChannelQfiReport(cqfi, bound, ratio, probe, GeneratorMethod.SPECTRAL, e)


def channel_qfi_stack(
    h: np.ndarray, hdot: np.ndarray, t: np.ndarray, variable: str = "t", values=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``channel_qfi`` at N points in one pass, without the optimal probe.

    ``h`` and ``hdot`` are H(theta) and dH/dtheta as ``HermitianOperator.matrix``
    values (not checked again): (N, d, d) stacks, or one (d, d) matrix that
    holds at every point and is decomposed once (``eigh_stack``, then
    ``generator_in_eigenbasis``). ``t`` is (N,). Returns the
    (N,) columns channel QFI, upper bound, ratio and estimated error, each
    element the float that ``channel_qfi`` gives at that point. A generator
    or result that is not finite raises ModelError naming the first such
    point by its value in ``values`` (default ``t``) of ``variable``.
    """
    values = t.tolist() if values is None else values
    eigh, (unit, eh) = eigh_stack(h if h.ndim == 3 else h[None]), unit_scaled(hdot)
    gen, err, k, f = generator_in_eigenbasis(*eigh, unit, eh, t)
    # Eigenvalues only: no probe is formed, so eigh_stack's basis fixing,
    # which leaves the eigenvalues as they are, is skipped.
    return _checked_reduce(lambda: scaled_eigh(k, True, f)[0], gen, err, f, unit, eh, t,
                           variable, values)


def check_saturation(
    family: HamiltonianFamily, theta: float, tol: float = SATURATION_RTOL
) -> SaturationVerdict:
    """Decide whether the channel QFI can reach its upper bound at theta.

    Non-degenerate extremal eigenvalues of dH/dtheta: saturation holds iff
    both extremal eigenvectors are eigenvectors of H(theta) (residual below
    ``tol * ||H||``). With degenerate extremal eigenvalues only a sufficient
    condition is checked: some eigenvector of H lies in the maximal
    eigenspace of dH/dtheta and another in the minimal one; all of H's
    eigenvectors are projected onto each eigenspace with one product and
    one column norm. H, dH/dtheta, their decomposition and dH/dtheta's blocks
    are the family's ``point(theta)``, which ``channel_qfi`` at the same theta
    shares.
    """
    point = family.point(theta)
    (w, _), (v, dv), _ = point.eigh
    blocks = point.blocks
    low, high = blocks[0], blocks[-1]

    if nondegenerate_extremes(blocks):
        h_norm = float(max(-w[0], w[-1]))  # max |eigenvalue| of H scaled, as w ascends
        unit = point.unit[0] / h_norm if h_norm > 0.0 else point.unit[0]  # H = 0: residual 0

        def residual(vec: np.ndarray) -> float:
            return norm((hv := unit @ vec) - float((vec.conj() @ hv).real) * vec)

        ok = all(residual(dv[:, idx]) <= tol for idx in (high[0], low[0]))
        status = SaturationStatus.SATURATES if ok else SaturationStatus.NOT_SATURATING
        return SaturationVerdict(status, (low[0], high[0]))

    # Degenerate extremal eigenvalues (or dH/dtheta proportional to identity):
    # [k] for the first eigenvector of H within the block's eigenspace, or [].
    def first_inside(block: range) -> list:
        span = dv[:, block.start : block.stop]
        return np.flatnonzero(np.linalg.norm(span.conj().T @ v, axis=0) > 1.0 - tol)[:1].tolist()

    in_max, in_min = first_inside(high), first_inside(low)
    if in_max and in_min and (len(blocks) == 1 or in_max != in_min):
        return SaturationVerdict(SaturationStatus.DEGENERATE_SUFFICIENT_HOLDS, (*in_max, *in_min))
    return SaturationVerdict(SaturationStatus.DEGENERATE_INCONCLUSIVE)


def _ascend(gen: np.ndarray, psi: np.ndarray) -> float:
    """Projected gradient ascent of 4 Var(gen) on the unit sphere from every column of ``psi``.

    The (d, n) block's columns are independent starts that step together.
    Each keeps its own step: a column takes its candidate where that raises
    its value and halves its step elsewhere. Returns the best value found.

    In real arithmetic: a + ib is [a; b] and gen = R + iI is [[R, -I], [I, R]].
    One product with [gen; gen^2] serves the gradient and the candidate's
    value. The gradient is taken as an eighth with an eightfold step and Var
    without its factor 4: exact powers of two, as are 2 mean = mean + mean
    and a step divided by 1 or 2. A state, and a candidate in the same
    layout, is F-ordered ``x`` and a C-ordered block [Kx; K^2 x; mean; Var]
    with its row views; the start is scored as the first candidate and
    taken. When every column takes its candidate, the two swap instead of
    being copied. No layout may change: ``vecdot`` gets other bits from
    another BLAS kernel when both of its operands have unit stride.
    """
    d2, n = 2 * psi.shape[0], psi.shape[1]
    k = np.block([[gen.real, -gen.imag], [gen.imag, gen.real]])
    stacked = np.concatenate([k, k @ k])
    cand = np.concatenate([psi.real, psi.imag])
    x, blocks = np.empty_like(cand), np.empty((2, 2 * d2 + 2, n))
    state, trial = ((b, b[: 2 * d2], b[:d2], b[d2 : 2 * d2], b[-2], b[-1]) for b in blocks)
    step = np.full(n, 8.0 * _ASCENT_INITIAL_STEP)
    for iteration in range(_ASCENT_ITERATIONS + 1):
        if iteration:
            _, _, kx, k2x, mean, _ = state
            grad = k2x - (mean + mean) * kx
            grad -= np.vecdot(x, grad, axis=0) * x  # tangent projection
            np.multiply(step, grad, out=cand)
            cand += x
            cand /= np.sqrt(np.vecdot(cand, cand, axis=0))
        block, both, kx, _, mean, var = trial
        np.matmul(stacked, cand, out=both)
        np.vecdot(cand, kx, axis=0, out=mean)
        np.maximum(np.vecdot(kx, kx, axis=0) - mean * mean, 0.0, out=var)
        better = var > state[-1]
        if not iteration or np.count_nonzero(better) == n:
            x, cand, state, trial = cand, x, trial, state
        else:
            np.copyto(x, cand, where=better)
            np.copyto(state[0], block, where=better)
            step /= 2.0 - better
    return 4.0 * float(state[-1].max())


def channel_qfi_brute(
    family: HamiltonianFamily, theta: float, t: float, n_starts: int = 8, seed: int = 0
) -> float:
    """Best-effort maximization of 4 Var(K) over pure probes.

    Runs ``n_starts`` random restarts of projected gradient ascent as one
    batched ascent (``_ascend``) and also evaluates the balanced
    extremal-eigenvector candidate; returns the maximum found. A lower bound
    on the channel QFI by construction. K and its eigenvectors are the
    family's ``spectral_point``. The restarts come from
    ``np.random.default_rng(seed)``: start k is drawn as
    ``standard_normal(dim)`` for its real part, then for its imaginary part,
    in order of k.
    A K that is not finite, or whose 8 |K|^4 is not (the ascent squares the
    length of a step along K^2 psi), raises ModelError naming t.
    """
    if n_starts < 1:
        raise ValueError(f"n_starts must be >= 1, got {n_starts}")
    point = spectral_point(family, theta, t)
    _check_finite(_GENERATOR, (point.gen, point.err), "t", [t])
    w, _, e = point.eigh
    with np.errstate(over="ignore"):
        k = float(np.ldexp(max(-w[0, 0], w[0, -1]), e[0]))  # |K|
    if not 8.0 * (k * k) * (k * k) < math.inf:  # a float product overflows without a warning
        raise ModelError(f"at t={t!r}: 8 |K|^4 is not finite, which the oracle's ascent needs")
    candidate = 4.0 * variance(point.operator, PureState(_balanced_probe(point.eigh[1][0])))
    # One draw fills (start, real/imaginary, component) in the order of per-start draws.
    z = np.random.default_rng(seed).standard_normal((n_starts, 2, family.dim))
    starts = (z[:, 0] + 1j * z[:, 1]).T
    starts /= np.linalg.norm(starts, axis=0)
    return max(candidate, _ascend(point.operator.matrix, starts))
