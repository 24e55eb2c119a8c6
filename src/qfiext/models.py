"""Physical Hamiltonian constructors with SI-unit boundaries.

This is the only module that touches SI quantities (Tesla, seconds, Bohr
magneton, hbar). Constructed families are in internal units: angular
frequency (rad/s) with hbar = 1, so channel-QFI outputs carry units of one
over the squared estimation parameter (1/T^2 for NV axial-field estimation,
dimensionless-per-rad^2 for angle estimation).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DimensionMismatch
from .family import HamiltonianFamily, _formula_family, factor
from .linalg import HermitianOperator, as_hermitian

MU_B = 9.2740100783e-24  # Bohr magneton, J/T
HBAR = 1.054571817e-34  # reduced Planck constant, J*s
LANDE_G_DEFAULT = 2.003  # NV-center electronic g-factor
NV_D_DEFAULT = 2 * math.pi * 2.87e9  # axial zero-field splitting, rad/s
NV_E_DEFAULT = 2 * math.pi * 5e6  # off-axis zero-field splitting, rad/s


def gyromagnetic_ratio(g: float = LANDE_G_DEFAULT) -> float:
    """g * mu_B / hbar in rad/(s*T)."""
    return g * MU_B / HBAR


@functools.cache
def spin1_matrices() -> tuple[HermitianOperator, HermitianOperator, HermitianOperator]:
    """Dimensionless spin-1 matrices with S_z = diag(1, 0, -1) and [S_x, S_y] = i S_z.

    Built once per process and shared by every caller; their arrays are read-only.
    """
    s = 1.0 / math.sqrt(2.0)
    sx = as_hermitian(np.array([[0, s, 0], [s, 0, s], [0, s, 0]], dtype=complex))
    sy = as_hermitian(np.array([[0, -1j * s, 0], [1j * s, 0, -1j * s], [0, 1j * s, 0]]))
    sz = as_hermitian(np.diag([1.0, 0.0, -1.0]).astype(complex))
    return sx, sy, sz


class NvParams:
    """NV-center triplet parameters; fields in Tesla, D/E in rad/s, t in seconds."""

    def __init__(self, Bx: float = 0.0, By: float = 0.0, Bz: float = 0.0, D: float = NV_D_DEFAULT,
                 E: float = NV_E_DEFAULT, g: float = LANDE_G_DEFAULT, t: float = 1e-3):
        self.Bx, self.By, self.Bz, self.D, self.E, self.g, self.t = Bx, By, Bz, D, E, g, t
        for name in ("Bx", "By", "Bz", "D", "E", "g", "t"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"NvParams.{name} must be finite")


class DirectionParams:
    """Spin-1 probe in a magnetic field of magnitude B (Tesla) at polar angle
    theta and azimuth phi (rad); t in seconds."""

    def __init__(self, B: float, theta: float = 0.0, phi: float = 0.0, t: float = 1e-2,
                 g: float = LANDE_G_DEFAULT):
        self.B, self.theta, self.phi, self.t, self.g = B, theta, phi, t, g
        if not (math.isfinite(B) and B >= 0.0):
            raise ValueError(f"DirectionParams.B must be finite and >= 0, got {B!r}")
        for name in ("theta", "phi", "t", "g"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"DirectionParams.{name} must be finite")


def nv_family(params: NvParams) -> HamiltonianFamily:
    """NV triplet Hamiltonian as a family over the axial field B_z (Tesla).

    H(B_z) = g mu_B (B_x S_x + B_y S_y + B_z S_z)/hbar + D S_z^2 + E (S_x^2 - S_y^2),
    a broken phase shift B_z * G + F with constant derivative G = g mu_B S_z / hbar.
    """
    sx, sy, sz = spin1_matrices()
    gamma = gyromagnetic_ratio(params.g)
    static = (
        gamma * (params.Bx * sx.matrix + params.By * sy.matrix)
        + params.D * (sz.matrix @ sz.matrix)
        + params.E * (sx.matrix @ sx.matrix - sy.matrix @ sy.matrix)
    )
    slope, zero = as_hermitian(gamma * sz.matrix), as_hermitian(np.zeros((3, 3), dtype=complex))
    return _formula_family(3, lambda bz: factor(bz) * slope.matrix + static, slope, zero)


def nv_flooded_family(params: NvParams, beta: float) -> HamiltonianFamily:
    """NV family with the flooding term beta * g mu_B S_z / hbar added (beta in Tesla)."""
    from .extensions import flood

    return flood(nv_family(params), params.Bz, beta)


def _direction_axis(theta, phi: float) -> np.ndarray:
    """Unit field axis at polar angle theta: (3,) for a float, (3, N) for an (N,) array."""
    sin = np.sin(theta)
    return np.array([sin * math.cos(phi), sin * math.sin(phi), np.cos(theta)])


def direction_family(params: DirectionParams) -> HamiltonianFamily:
    """Field-direction probe as a family over the polar angle theta (rad).

    H(theta) = g mu_B B (sin(theta)cos(phi) S_x + sin(theta)sin(phi) S_y
    + cos(theta) S_z) / hbar; eigenvalues are 0 and +-(g mu_B B / hbar),
    independent of theta.
    """
    sx, sy, sz = spin1_matrices()
    omega = gyromagnetic_ratio(params.g) * params.B
    spin = np.stack([sx.matrix, sy.matrix, sz.matrix])
    phi = params.phi

    def along(vec: np.ndarray) -> np.ndarray:
        return omega * np.einsum("i...,ijk->...jk", vec, spin)

    def derivative(theta):
        cos = np.cos(theta)
        return along(np.array([cos * math.cos(phi), cos * math.sin(phi), -np.sin(theta)]))

    return _formula_family(
        3,
        lambda theta: along(_direction_axis(theta, phi)),
        derivative,
        lambda theta: -along(_direction_axis(theta, phi)),
    )


def direction_sz_operator(params: DirectionParams) -> HermitianOperator:
    """The z-field term B * g mu_B S_z / hbar, added kappa times by direction_sz_family."""
    _, _, sz = spin1_matrices()
    return as_hermitian(params.B * gyromagnetic_ratio(params.g) * sz.matrix)


def direction_sz_family(params: DirectionParams, kappa: float) -> HamiltonianFamily:
    """Direction probe with an added z field of strength kappa*B.

    The extra term kappa * B * g mu_B S_z / hbar makes the eigenvalues depend
    on theta, which restores quadratic time scaling of the channel QFI.
    """
    if not math.isfinite(kappa):
        raise ValueError(f"kappa must be finite, got {kappa!r}")
    from .extensions import add_operator

    return add_operator(direction_family(params), direction_sz_operator(params), kappa)


def direction_reference_qfi(params: DirectionParams) -> float:
    """Closed-form channel QFI of the direction probe: 16 sin^2(g mu_B B t / 2 hbar)."""
    half_phase = gyromagnetic_ratio(params.g) * params.B * params.t / 2.0
    return 16.0 * math.sin(half_phase) ** 2


def direction_reference_subtraction_qfi(
    params: DirectionParams, theta0: float, epsilon: float
) -> float:
    """Closed-form channel QFI at theta0 after subtracting H(theta0 + epsilon).

    4 (g mu_B B t / hbar)^2 cos^2(eps/2) + 4 sin^2((g mu_B B t / hbar) sin(eps/2));
    at epsilon = 0 this equals the upper bound, and the deviation grows as
    epsilon^4.
    """
    a = gyromagnetic_ratio(params.g) * params.B * params.t
    return 4.0 * a * a * math.cos(epsilon / 2.0) ** 2 + 4.0 * math.sin(
        a * math.sin(epsilon / 2.0)
    ) ** 2


def broken_phase_shift_family(g: HermitianOperator, f: HermitianOperator) -> HamiltonianFamily:
    """K(theta) = theta*G + F with exact derivative G and vanishing second derivative."""
    if g.dim != f.dim:
        raise DimensionMismatch(f"dimensions differ: {g.dim} vs {f.dim}")
    return _formula_family(
        g.dim,
        lambda theta: factor(theta) * g.matrix + f.matrix,
        g,
        as_hermitian(np.zeros((g.dim, g.dim), dtype=complex)),
    )
