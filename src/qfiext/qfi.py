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

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from . import config
from .errors import DimensionMismatch
from .family import HamiltonianFamily
from .generator import (
    GeneratorMethod,
    GeneratorResult,
    compute_generator,
    generator_spectral_stack,
)
from .linalg import (
    PureState,
    degenerate_blocks,
    eig_hermitian,
    seminorm,
    variance,
)

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


def qfi_pure(
    family: HamiltonianFamily,
    theta: float,
    t: float,
    psi0: PureState,
    method: GeneratorMethod = GeneratorMethod.SPECTRAL,
) -> float:
    """QFI of the evolved pure probe: 4 Var(K) in the initial state."""
    if psi0.dim != family.dim:
        raise DimensionMismatch(f"probe dimension {psi0.dim} does not match family {family.dim}")
    gen = compute_generator(family, theta, t, method).generator
    return 4.0 * variance(gen, psi0)


def upper_bound(family: HamiltonianFamily, theta: float, t: float) -> float:
    """t^2 * seminorm(dH/dtheta)^2, the ceiling for the channel QFI."""
    return _bound(t, seminorm(family.derivative(theta)))


def _bound(t: float, hdot_seminorm: float) -> float:
    return t * t * hdot_seminorm**2


def _ratio(cqfi: float, bound: float, spread: float, bound_spread: float) -> float:
    """cqfi / bound, or 1 when the bound vanishes.

    ``spread`` and ``bound_spread`` = |t| seminorm(dH/dtheta) are the square
    roots of the two. Once the bound is below the smallest normal float, the
    squares have lost relative precision (or underflowed to 0), so the ratio
    is formed from the spreads instead.
    """
    if bound >= _SMALLEST_NORMAL:
        return cqfi / bound
    return (spread / bound_spread) ** 2 if bound_spread > 0.0 else 1.0


def _report_from_generator(
    family: HamiltonianFamily, theta: float, t: float, gres: GeneratorResult
) -> ChannelQfiReport:
    dec = eig_hermitian(gres.generator)
    spread = float(dec.eigenvalues[-1] - dec.eigenvalues[0])
    cqfi = spread * spread
    probe = PureState((dec.eigenvectors[:, -1] + dec.eigenvectors[:, 0]) / np.sqrt(2.0))
    hdot_spread = seminorm(family.derivative(theta))
    bound = _bound(t, hdot_spread)
    ratio = _ratio(cqfi, bound, spread, abs(t) * hdot_spread)
    return ChannelQfiReport(cqfi, bound, ratio, probe, gres.method, gres.estimated_error)


def channel_qfi(
    family: HamiltonianFamily,
    theta: float,
    t: float,
    method: GeneratorMethod = GeneratorMethod.SPECTRAL,
) -> ChannelQfiReport:
    """Channel QFI = seminorm(K)^2 plus the bound, their ratio and the optimal probe.

    When the bound vanishes (dH/dtheta proportional to identity) the channel
    QFI vanishes too and the ratio is defined as 1 to keep sweep output free
    of NaNs.
    """
    gres = compute_generator(family, theta, t, method)
    return _report_from_generator(family, theta, t, gres)


def channel_qfi_stack(
    h: np.ndarray, hdot: np.ndarray, t: np.ndarray
) -> list[tuple[float, float, float, float]]:
    """``channel_qfi`` by the spectral route at N points in one pass.

    ``h`` and ``hdot`` are H(theta) and dH/dtheta as ``HermitianOperator.matrix``
    values (not checked again): (N, d, d) stacks, or one (d, d) matrix that
    holds at every point and is decomposed once. ``t`` is (N,). Returns
    (channel QFI, upper bound, ratio, estimated error) per point, each the
    float that ``channel_qfi`` gives at that point. The optimal probe is not
    formed.
    """
    gen, err = generator_spectral_stack(h, hdot, t)
    # eigh as eig_hermitian calls it and eigvalsh as seminorm does: the two
    # LAPACK drivers need not agree in the last bit.
    k = np.linalg.eigh(gen)[0]
    d = np.linalg.eigvalsh(hdot)
    d_spread = np.broadcast_to(d[..., -1] - d[..., 0], t.shape)
    points = []
    for ti, k_spread, hdot_spread, e in zip(
        t.tolist(), (k[:, -1] - k[:, 0]).tolist(), d_spread.tolist(), err.tolist()
    ):
        cqfi = k_spread * k_spread
        bound = _bound(ti, hdot_spread)
        points.append((cqfi, bound, _ratio(cqfi, bound, k_spread, abs(ti) * hdot_spread), e))
    return points


def check_saturation(
    family: HamiltonianFamily, theta: float, tol: float = SATURATION_RTOL
) -> SaturationVerdict:
    """Decide whether the channel QFI can reach its upper bound at theta.

    Non-degenerate extremal eigenvalues of dH/dtheta: saturation holds iff
    both extremal eigenvectors are eigenvectors of H(theta) (residual below
    ``tol * ||H||``). With degenerate extremal eigenvalues only a sufficient
    condition is checked: some eigenvector of H lies in the maximal
    eigenspace of dH/dtheta and another in the minimal one.
    """
    h = family.value(theta)
    hdot = family.derivative(theta)
    hdec = eig_hermitian(h)
    ddec = eig_hermitian(hdot)
    blocks = degenerate_blocks(ddec.eigenvalues)
    low, high = blocks[0], blocks[-1]
    dim = family.dim
    h_norm = float(np.max(np.abs(hdec.eigenvalues)))

    if len(low) == 1 and len(high) == 1 and len(blocks) > 1:
        ok = True
        for idx in (high[0], low[0]):
            vec = ddec.eigenvectors[:, idx]
            mean = float((vec.conj() @ (h.matrix @ vec)).real)
            resid = float(np.linalg.norm(h.matrix @ vec - mean * vec))
            ok = ok and resid <= tol * h_norm
        status = SaturationStatus.SATURATES if ok else SaturationStatus.NOT_SATURATING
        return SaturationVerdict(status, (low[0], high[0]))

    # Degenerate extremal eigenvalues (or dH/dtheta proportional to identity).
    max_span = ddec.eigenvectors[:, high.start : high.stop]
    min_span = ddec.eigenvectors[:, low.start : low.stop]
    in_max = in_min = None
    for k in range(dim):
        u = hdec.eigenvectors[:, k]
        if in_max is None and float(np.linalg.norm(max_span.conj().T @ u)) > 1.0 - tol:
            in_max = k
        if in_min is None and float(np.linalg.norm(min_span.conj().T @ u)) > 1.0 - tol:
            in_min = k
    if in_max is not None and in_min is not None and (len(blocks) == 1 or in_max != in_min):
        return SaturationVerdict(SaturationStatus.DEGENERATE_SUFFICIENT_HOLDS, (in_max, in_min))
    return SaturationVerdict(SaturationStatus.DEGENERATE_INCONCLUSIVE)


def _qfi_of_vector(gen: np.ndarray, psi: np.ndarray) -> float:
    v = gen @ psi
    mean = float((psi.conj() @ v).real)
    return 4.0 * max(float((v.conj() @ v).real) - mean * mean, 0.0)


def _ascend(gen: np.ndarray, psi: np.ndarray) -> float:
    """Projected gradient ascent of 4 Var(gen) on the unit sphere."""
    gen2 = gen @ gen
    best = _qfi_of_vector(gen, psi)
    step = _ASCENT_INITIAL_STEP
    for _ in range(_ASCENT_ITERATIONS):
        gpsi = gen @ psi
        mean = float((psi.conj() @ gpsi).real)
        grad = 8.0 * (gen2 @ psi) - 16.0 * mean * gpsi
        grad -= (psi.conj() @ grad) * psi  # tangent projection
        cand = psi + step * grad
        cand /= np.linalg.norm(cand)
        val = _qfi_of_vector(gen, cand)
        if val > best:
            best, psi = val, cand
        else:
            step /= 2.0
    return best


def channel_qfi_brute(
    family: HamiltonianFamily,
    theta: float,
    t: float,
    n_starts: int = 8,
    seed: Optional[int] = None,
) -> float:
    """Best-effort maximization of 4 Var(K) over pure probes.

    Runs ``n_starts`` seeded random restarts of projected gradient ascent and
    also evaluates the balanced extremal-eigenvector candidate; returns the
    maximum found. A lower bound on the channel QFI by construction.
    """
    if n_starts < 1:
        raise ValueError(f"n_starts must be >= 1, got {n_starts}")
    if seed is None:
        seed = config.oracle_seed()
    rng = np.random.default_rng(seed)
    gen = compute_generator(family, theta, t).generator
    dec = eig_hermitian(gen)
    candidate = (dec.eigenvectors[:, -1] + dec.eigenvectors[:, 0]) / np.sqrt(2.0)
    best = _qfi_of_vector(gen.matrix, candidate)
    for _ in range(n_starts):
        psi = rng.standard_normal(family.dim) + 1j * rng.standard_normal(family.dim)
        psi /= np.linalg.norm(psi)
        best = max(best, _ascend(gen.matrix, psi))
    return best
