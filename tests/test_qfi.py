"""Tests for pure-state QFI, channel QFI, bound, saturation and the brute-force oracle."""

import numpy as np
import pytest

import qfiext.config as config
from qfiext import (
    DimensionMismatch,
    DirectionParams,
    HamiltonianFamily,
    HermitianOperator,
    PureState,
    SaturationStatus,
    channel_qfi,
    channel_qfi_brute,
    check_saturation,
    direction_family,
    direction_reference_qfi,
    eig_hermitian,
    generator_spectral,
    gyromagnetic_ratio,
    nv_family,
    nv_flooded_family,
    NvParams,
    qfi_pure,
    seminorm,
    spin1_matrices,
    subtract,
    tensor_identity,
    upper_bound,
)
from qfiext.qfi import channel_qfi_stack
from helpers import commuting_family, gue, polynomial_family

SX, SY, SZ = spin1_matrices()


def phase_shift(g: HermitianOperator) -> HamiltonianFamily:
    zero = np.zeros((g.dim, g.dim), dtype=complex)
    return HamiltonianFamily(
        g.dim,
        lambda th: HermitianOperator(th * g.matrix),
        lambda th: g,
        lambda th: HermitianOperator(zero),
    )


class TestQfiPure:
    def test_phase_shift_balanced_probe(self):
        fam = phase_shift(SZ)
        psi = PureState(np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0))
        assert qfi_pure(fam, 0.3, 1.0, psi) == pytest.approx(4.0, abs=1e-12)

    def test_generator_eigenvector_gives_zero(self):
        rng = np.random.default_rng(30)
        fam = polynomial_family(rng, 4)
        gen = generator_spectral(fam, 0.5, 1.1).generator
        vec = eig_hermitian(gen).eigenvectors[:, 1]
        assert qfi_pure(fam, 0.5, 1.1, PureState(vec)) == pytest.approx(0.0, abs=1e-10)

    def test_direction_optimal_probe_hits_closed_form(self):
        params = DirectionParams(B=1e-9, theta=np.pi / 3, phi=np.pi / 4, t=7e-3)
        fam = direction_family(params)
        report = channel_qfi(fam, params.theta, params.t)
        value = qfi_pure(fam, params.theta, params.t, report.optimal_probe)
        assert value == pytest.approx(direction_reference_qfi(params), rel=1e-9)

    def test_dimension_mismatch(self):
        fam = phase_shift(SZ)
        with pytest.raises(DimensionMismatch):
            qfi_pure(fam, 0.0, 1.0, PureState(np.array([1.0, 0.0])))


class TestChannelQfi:
    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_phase_shift_saturates(self, t):
        rng = np.random.default_rng(31)
        g = gue(4, rng)
        report = channel_qfi(phase_shift(g), 0.7, t)
        assert report.channel_qfi == pytest.approx(t * t * seminorm(g) ** 2, rel=1e-10)
        assert report.ratio == pytest.approx(1.0, abs=1e-10)

    def test_direction_closed_forms(self):
        params = DirectionParams(B=1e-9, theta=np.pi / 3, phi=np.pi / 4, t=3e-3)
        report = channel_qfi(direction_family(params), params.theta, params.t)
        a = gyromagnetic_ratio() * params.B * params.t
        assert report.channel_qfi == pytest.approx(16.0 * np.sin(a / 2.0) ** 2, rel=1e-9)
        assert report.upper_bound == pytest.approx(4.0 * a * a, rel=1e-12)

    def test_direction_ratio_at_pi_phase(self):
        # g muB B t / hbar = pi: channel QFI 16, bound 4 pi^2, ratio 4/pi^2.
        b = 1e-9
        t = np.pi / (gyromagnetic_ratio() * b)
        params = DirectionParams(B=b, theta=np.pi / 3, phi=np.pi / 4, t=t)
        report = channel_qfi(direction_family(params), params.theta, params.t)
        assert report.channel_qfi == pytest.approx(16.0, rel=1e-9)
        assert report.ratio == pytest.approx(0.4052847345693511, rel=1e-9)

    def test_optimal_probe_reproduces_channel_qfi(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            fam = polynomial_family(rng, int(rng.integers(2, 6)))
            theta = float(rng.uniform(-1, 1))
            t = float(rng.uniform(0.3, 2.0))
            report = channel_qfi(fam, theta, t)
            value = qfi_pure(fam, theta, t, report.optimal_probe)
            assert value == pytest.approx(report.channel_qfi, rel=1e-9, abs=1e-12)

    def test_bound_invariant_campaign(self):
        rng = np.random.default_rng(33)
        for _ in range(500):
            fam = polynomial_family(rng, int(rng.integers(2, 5)))
            theta = float(rng.uniform(-1, 1))
            t = float(rng.uniform(0.1, 3.0))
            report = channel_qfi(fam, theta, t)
            assert report.channel_qfi <= report.upper_bound * (1.0 + 1e-9)
            assert 0.0 <= report.ratio <= 1.0 + 1e-9

    def test_theta_independent_family_ratio_convention(self):
        const = gue(3, np.random.default_rng(34))
        zero = np.zeros((3, 3), dtype=complex)
        fam = HamiltonianFamily(
            3,
            lambda th: const,
            lambda th: HermitianOperator(zero),
            lambda th: HermitianOperator(zero),
        )
        report = channel_qfi(fam, 0.5, 1.0)
        assert report.upper_bound == 0.0
        assert report.channel_qfi <= 1e-18
        assert report.ratio == 1.0

    @pytest.mark.parametrize("scale", [8.461208957574161e-160, 1e-170])
    def test_ratio_from_spreads_when_the_squares_are_subnormal(self, scale):
        # A phase shift saturates; its QFI and bound fall below the smallest
        # normal float (or underflow to 0) while their square roots do not.
        g = HermitianOperator(scale * gue(2, np.random.default_rng(36)).matrix)
        report = channel_qfi(phase_shift(g), 0.0, 2.0)
        assert report.upper_bound < np.finfo(float).tiny
        assert report.ratio == pytest.approx(1.0, abs=1e-12)
        (row,) = channel_qfi_stack(np.zeros((2, 2), dtype=complex), g.matrix, np.array([2.0]))
        assert row[:3] == (report.channel_qfi, report.upper_bound, report.ratio)

    def test_stack_decomposes_grid_constant_matrices_once_with_the_same_bits(self):
        rng = np.random.default_rng(37)
        h, hdot = gue(3, rng).matrix, gue(3, rng).matrix
        t = np.linspace(0.1, 2.0, 7)
        h_stack, hdot_stack = (np.repeat(m[None], t.size, axis=0) for m in (h, hdot))
        full = channel_qfi_stack(h_stack, hdot_stack, t)
        assert channel_qfi_stack(h, hdot, t) == full
        assert channel_qfi_stack(h, hdot_stack, t) == full
        assert channel_qfi_stack(h_stack, hdot, t) == full

    def test_upper_bound_trivials(self):
        rng = np.random.default_rng(35)
        fam = polynomial_family(rng, 3)
        assert upper_bound(fam, 0.2, 0.0) == 0.0
        nv = nv_family(NvParams(Bx=0.1, t=1e-3))
        gamma = gyromagnetic_ratio()
        assert upper_bound(nv, 0.0, 1e-3) == pytest.approx(4.0 * (1e-3 * gamma) ** 2, rel=1e-12)


class TestAncillaNoOp:
    def test_tensor_identity_preserves_channel_qfi(self):
        rng = np.random.default_rng(36)
        for _ in range(10):
            fam = polynomial_family(rng, 3)
            extended = tensor_identity(fam, 2)
            theta = float(rng.uniform(-1, 1))
            t = float(rng.uniform(0.3, 1.5))
            c0 = channel_qfi(fam, theta, t).channel_qfi
            c1 = channel_qfi(extended, theta, t).channel_qfi
            assert abs(c1 - c0) <= 1e-10 * max(1.0, c0)


class TestSaturationVerdict:
    def test_phase_shift_saturates(self):
        g = gue(4, np.random.default_rng(37))
        verdict = check_saturation(phase_shift(g), 0.4)
        assert verdict.verdict is SaturationStatus.SATURATES

    def test_nv_small_axial_field_not_saturating(self):
        fam = nv_family(NvParams(Bx=0.1, t=1e-3))
        verdict = check_saturation(fam, 1e-6)
        assert verdict.verdict is SaturationStatus.NOT_SATURATING

    def test_flooded_nv_ratio_grows_toward_bound(self):
        params = NvParams(Bx=0.1, t=1e-3)
        ratios = []
        for beta in (1e-3, 1e-1, 10.0):
            fam = nv_flooded_family(params, beta)
            ratios.append(channel_qfi(fam, 1e-6, params.t).ratio)
        assert ratios == sorted(ratios)
        assert ratios[-1] > 0.99

    def test_subtracted_family_saturates_at_anchor(self):
        rng = np.random.default_rng(38)
        fam = subtract(polynomial_family(rng, 4), theta0=0.3)
        verdict = check_saturation(fam, 0.3)
        assert verdict.verdict is SaturationStatus.SATURATES

    def test_saturates_implies_ratio_one(self):
        rng = np.random.default_rng(39)
        cases = [phase_shift(gue(4, rng)) for _ in range(5)]
        cases += [commuting_family(rng, 4) for _ in range(5)]
        for fam in cases:
            theta = float(rng.uniform(-1, 1))
            verdict = check_saturation(fam, theta)
            if verdict.verdict is SaturationStatus.SATURATES:
                report = channel_qfi(fam, theta, 1.2)
                assert report.ratio == pytest.approx(1.0, abs=1e-7)

    def test_degenerate_sufficient_holds_for_commuting_degenerate_derivative(self):
        # dH/dtheta = diag(1,1,-1,-1), H diagonal: H eigenvectors lie in both
        # extremal eigenspaces of the derivative.
        d = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
        h0 = np.diag([0.3, 0.7, -0.2, 0.9]).astype(complex)
        fam = HamiltonianFamily(
            4,
            lambda th: HermitianOperator(h0 + th * d),
            lambda th: HermitianOperator(d),
        )
        verdict = check_saturation(fam, 0.1)
        assert verdict.verdict is SaturationStatus.DEGENERATE_SUFFICIENT_HOLDS

    def test_degenerate_inconclusive_for_generic_h(self):
        rng = np.random.default_rng(40)
        d = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
        h0 = gue(4, rng).matrix
        fam = HamiltonianFamily(
            4,
            lambda th: HermitianOperator(h0 + th * d),
            lambda th: HermitianOperator(d),
        )
        verdict = check_saturation(fam, 0.2)
        assert verdict.verdict is SaturationStatus.DEGENERATE_INCONCLUSIVE


class TestBruteForceOracle:
    def test_dim2_exact(self):
        rng = np.random.default_rng(41)
        fam = polynomial_family(rng, 2)
        report = channel_qfi(fam, 0.4, 1.3)
        brute = channel_qfi_brute(fam, 0.4, 1.3, n_starts=4, seed=7)
        assert brute == pytest.approx(report.channel_qfi, abs=1e-9)

    def test_direction_model(self):
        params = DirectionParams(B=1e-9, theta=np.pi / 3, phi=np.pi / 4, t=5e-3)
        fam = direction_family(params)
        brute = channel_qfi_brute(fam, params.theta, params.t, n_starts=6, seed=1)
        assert brute == pytest.approx(direction_reference_qfi(params), abs=1e-6)

    def test_never_exceeds_seminorm_value(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            fam = polynomial_family(rng, int(rng.integers(2, 5)))
            theta = float(rng.uniform(-1, 1))
            report = channel_qfi(fam, theta, 1.0)
            brute = channel_qfi_brute(fam, theta, 1.0, n_starts=4, seed=3)
            assert brute <= report.channel_qfi + 1e-9
            assert brute == pytest.approx(report.channel_qfi, rel=1e-4)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(43)
        fam = polynomial_family(rng, 3)
        a = channel_qfi_brute(fam, 0.1, 1.0, n_starts=5, seed=11)
        b = channel_qfi_brute(fam, 0.1, 1.0, n_starts=5, seed=11)
        assert a == b

    def test_rejects_zero_starts(self):
        rng = np.random.default_rng(44)
        with pytest.raises(ValueError):
            channel_qfi_brute(polynomial_family(rng, 3), 0.0, 1.0, n_starts=0)


class TestEnvironmentDefaults:
    def test_oracle_seed_env(self, monkeypatch):
        monkeypatch.delenv("QFIEXT_SEED", raising=False)
        assert config.oracle_seed() == 0
        monkeypatch.setenv("QFIEXT_SEED", "17")
        assert config.oracle_seed() == 17

    def test_tolerance_scale_env(self, monkeypatch):
        monkeypatch.delenv("QFIEXT_TOL", raising=False)
        assert config.tolerance_scale() == 1.0
        monkeypatch.setenv("QFIEXT_TOL", "2.5")
        assert config.tolerance_scale() == 2.5

    def test_brute_force_uses_env_seed_by_default(self, monkeypatch):
        rng = np.random.default_rng(45)
        fam = polynomial_family(rng, 3)
        monkeypatch.setenv("QFIEXT_SEED", "5")
        a = channel_qfi_brute(fam, 0.2, 1.0, n_starts=3)
        b = channel_qfi_brute(fam, 0.2, 1.0, n_starts=3, seed=5)
        assert a == b
