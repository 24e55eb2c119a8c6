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
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, ModelError
from .family import HamiltonianFamily
from .generator import GeneratorMethod, generator_in_eigenbasis, generator_spectral, spectral_point
from .linalg import PureState, degenerate_blocks, eigh_stack, variance

# Residual tolerance (relative to the spectral norm of H) below which an
# extremal eigenvector of dH/dtheta counts as an eigenvector of H.
SATURATION_RTOL = 1e-8

_SMALLEST_NORMAL = float(np.finfo(float).tiny)

# Brute-force oracle hyperparameters (reliable for dim <= 8).
_ASCENT_ITERATIONS = 60
_ASCENT_INITIAL_STEP = 0.1


@dataclass(frozen=True, eq=False)
class ChannelQfiReport:
    channel_qfi: float
    upper_bound: float
    ratio: float
    optimal_probe: PureState
    generator_method: GeneratorMethod
    estimated_error: float


class SaturationStatus(Enum):
    SATURATES = "saturates"
    NOT_SATURATING = "not-saturating"
    DEGENERATE_SUFFICIENT_HOLDS = "degenerate-sufficient-holds"
    DEGENERATE_INCONCLUSIVE = "degenerate-inconclusive"


@dataclass(frozen=True)
class SaturationVerdict:
    verdict: SaturationStatus
    witness: Optional[tuple[int, int]] = None


def qfi_pure(family: HamiltonianFamily, theta: float, t: float, psi0: PureState) -> float:
    """QFI of the evolved pure probe: 4 Var(K) in the initial state.

    K is the spectral generator, ``generator_spectral``.
    """
    if psi0.dim != family.dim:
        raise DimensionMismatch(f"probe dimension {psi0.dim} does not match family {family.dim}")
    gen = generator_spectral(family, theta, t).generator
    return 4.0 * variance(gen, psi0)


def upper_bound(family: HamiltonianFamily, theta: float, t: float) -> float:
    """t^2 * seminorm(dH/dtheta)^2, the ceiling for the channel QFI (see ``_bound``)."""
    d = np.linalg.eigvalsh(family.derivative(theta).matrix)
    with np.errstate(all="ignore"):
        return float(_bound(np.float64(t), d[-1] - d[0], d))


def _bound(t, spread, d):
    """t * t * spread**2, or (|t| spread)**2 where that is not finite (inf * 0, say), with a
    spread beyond the largest float formed from halves of the spectra ``d``; under errstate."""
    bound = t * t * spread**2
    finite = np.isfinite(bound)
    if finite.all():
        return bound
    halves = np.abs(t) * (d[..., -1] * 0.5 - d[..., 0] * 0.5) * 2.0
    root = np.where(np.isfinite(spread), np.abs(t) * spread, halves)
    return np.where(finite, bound, root**2)


def _reduce(
    k: np.ndarray, hdot: np.ndarray, t: np.ndarray, err: np.ndarray, eigh=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(channel QFI, upper bound, ratio, estimated error) as (N,) columns.

    ``k`` holds the ascending spectra (N, d) of the generators, ``hdot`` is
    dH/dtheta as an (N, d, d) stack or one (d, d) matrix, and ``t`` and the
    generators' ``err`` are (N,). The ratio is cqfi / bound, or 1 when the
    bound vanishes. Once the bound is below the smallest normal float, the
    squares have lost relative precision (or underflowed to 0), so the ratio
    is formed from their square roots, the spreads of K and of t dH/dtheta.
    Where |t| spread(dH/dtheta) is itself below it, K is rounding noise, and
    ``_unit_ratio`` forms the ratio there from H's ``eigh``, if given.
    """
    # eigvalsh as upper_bound does: eigh need not agree in the last bit.
    d = np.linalg.eigvalsh(hdot)
    # Both branches of each where are formed; an overflow, 0/0 or inf/inf
    # there is left to _check_finite, not reported by numpy.
    with np.errstate(all="ignore"):
        d_spread = d[..., -1] - d[..., 0]
        k_spread = k[:, -1] - k[:, 0]
        bound_spread = np.abs(t) * d_spread
        cqfi = k_spread * k_spread
        bound = _bound(t, d_spread, d)
        from_spreads = np.where(bound_spread > 0.0, (k_spread / bound_spread) ** 2, 1.0)
        ratio = np.where(bound >= _SMALLEST_NORMAL, cqfi / bound, from_spreads)
        if eigh is not None and bound.min() < _SMALLEST_NORMAL:  # else bound_spread is normal
            noise = (bound_spread > 0.0) & (bound_spread < _SMALLEST_NORMAL)
            ratio[noise] = _unit_ratio(eigh, hdot, t, noise)
    return cqfi, bound, ratio, err


def _unit_ratio(eigh, hdot: np.ndarray, t: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The ratio at the points ``at`` from D = 2^e dH/dtheta (exact), max|entry| in [1/2, 1),
    and D's generator over t (the kernel without its t), whose spread is at most D's."""
    w, v, hdot = (np.broadcast_to(a, (len(t), *a.shape[1:]))[at]
                  for a in (*eigh, hdot.reshape(-1, *hdot.shape[-2:])))
    e = np.frexp(np.abs(hdot).max(axis=(-2, -1)))[1]
    unit = np.ldexp(hdot.view(float), -e[:, None, None]).view(complex)
    k, d = np.linalg.eigvalsh([generator_in_eigenbasis(w, v, unit, t[at], over_t=True)[0], unit])
    return ((k[:, -1] - k[:, 0]) / (d[:, -1] - d[:, 0])) ** 2


_COLUMNS = ("channel_qfi", "upper_bound", "ratio", "estimated_error")


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


# K holds a NaN or infinity after an overflow at large t; LAPACK's eigh then
# fails with "Eigenvalues did not converge", so K is checked before it.
_GENERATOR = ("generator", "estimated_error")


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
    _check_finite(_GENERATOR, (point.gen, point.err), "t", [t])
    kw, kv = point.eigh
    eigh = at.eigenvalues[:1], at.eigenvectors[:1]
    columns = _reduce(kw, at.derivative.matrix, np.array([t], dtype=float), point.err, eigh)
    _check_finite(_COLUMNS, columns, "t", [t])
    cqfi, bound, ratio, e = (float(column[0]) for column in columns)
    probe = PureState(_balanced_probe(kv[0]))
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
    eigh = eigh_stack(h if h.ndim == 3 else h[None])
    gen, err = generator_in_eigenbasis(*eigh, hdot, t)
    _check_finite(_GENERATOR, (gen, err), variable, values)
    # Eigenvalues only: no probe is formed, so eigh_stack's basis fixing,
    # which leaves the eigenvalues as they are, is skipped.
    columns = _reduce(np.linalg.eigh(gen)[0], hdot, t, err, eigh)
    _check_finite(_COLUMNS, columns, variable, values)
    return columns


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
    one column norm. H, dH/dtheta and their decomposition are the family's
    ``point(theta)``, which ``channel_qfi`` at the same theta shares.
    """
    point = family.point(theta)
    h, (w, dw), (v, dv) = point.value.matrix, point.eigenvalues, point.eigenvectors
    blocks = degenerate_blocks(dw)
    low, high = blocks[0], blocks[-1]

    if len(low) == 1 and len(high) == 1 and len(blocks) > 1:
        h_norm = float(max(-w[0], w[-1]))  # max |eigenvalue|, as w ascends
        unit = h / h_norm if h_norm > 0.0 else h  # no overflow; H = 0 has residual 0

        def residual(vec: np.ndarray) -> float:  # np.linalg.norm's bits
            r = (hv := unit @ vec) - float((vec.conj() @ hv).real) * vec
            return math.sqrt(r.real.dot(r.real) + r.imag.dot(r.imag))

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
    k = float(max(-point.eigh[0][0, 0], point.eigh[0][0, -1]))  # |K|
    if not 8.0 * (k * k) * (k * k) < math.inf:  # a float product overflows without a warning
        raise ModelError(f"at t={t!r}: 8 |K|^4 is not finite, which the oracle's ascent needs")
    candidate = 4.0 * variance(point.operator, PureState(_balanced_probe(point.eigh[1][0])))
    # One draw fills (start, real/imaginary, component) in the order of per-start draws.
    z = np.random.default_rng(seed).standard_normal((n_starts, 2, family.dim))
    starts = (z[:, 0] + 1j * z[:, 1]).T
    starts /= np.linalg.norm(starts, axis=0)
    return max(candidate, _ascend(point.operator.matrix, starts))
