"""Tests for the physical model constructors and their closed-form references."""

import numpy as np
import pytest

from qfiext import (
    DimensionMismatch,
    DirectionParams,
    HBAR,
    HermitianOperator,
    LANDE_G_DEFAULT,
    MU_B,
    NV_D_DEFAULT,
    NV_E_DEFAULT,
    NvParams,
    broken_phase_shift_family,
    broken_phase_shift_generator_at_zero,
    channel_qfi,
    direction_family,
    direction_reference_qfi,
    direction_reference_subtraction_qfi,
    direction_sz_family,
    flood,
    generator_spectral,
    gyromagnetic_ratio,
    nv_family,
    nv_flooded_family,
    spin1_matrices,
    upper_bound,
)
from helpers import gue

SX, SY, SZ = spin1_matrices()
GAMMA = gyromagnetic_ratio()


class TestSpin1:
    def test_sz_diagonal(self):
        assert np.array_equal(SZ.matrix, np.diag([1.0, 0.0, -1.0]).astype(complex))

    def test_commutation_relations(self):
        assert np.allclose(SX.matrix @ SY.matrix - SY.matrix @ SX.matrix, 1j * SZ.matrix, atol=1e-15)
        assert np.allclose(SY.matrix @ SZ.matrix - SZ.matrix @ SY.matrix, 1j * SX.matrix, atol=1e-15)
        assert np.allclose(SZ.matrix @ SX.matrix - SX.matrix @ SZ.matrix, 1j * SY.matrix, atol=1e-15)

    def test_casimir(self):
        total = SX.matrix @ SX.matrix + SY.matrix @ SY.matrix + SZ.matrix @ SZ.matrix
        assert np.allclose(total, 2.0 * np.eye(3), atol=1e-15)

    def test_built_once_and_read_only(self):
        assert spin1_matrices() is spin1_matrices()
        for op in spin1_matrices():
            assert not op.matrix.flags.writeable
            with pytest.raises(ValueError):
                op.matrix[0, 0] = 1.0


class TestNvFamily:
    def test_broken_phase_shift_structure(self):
        fam = nv_family(NvParams(Bx=0.02, By=0.01))
        for bz in (0.0, 0.3, -0.2):
            diff = fam.value(bz).matrix - fam.value(0.0).matrix
            assert np.allclose(diff, bz * GAMMA * SZ.matrix, rtol=1e-12, atol=1e-3)
        assert np.allclose(fam.derivative(0.1).matrix, GAMMA * SZ.matrix, rtol=1e-15)

    def test_zero_field_hamiltonian_terms(self):
        fam = nv_family(NvParams())
        expected = NV_D_DEFAULT * SZ.matrix @ SZ.matrix + NV_E_DEFAULT * (
            SX.matrix @ SX.matrix - SY.matrix @ SY.matrix
        )
        assert np.allclose(fam.value(0.0).matrix, expected, rtol=1e-15, atol=0)

    def test_upper_bound_value(self):
        params = NvParams(Bx=0.1, t=1e-3)
        fam = nv_family(params)
        expected = 4.0 * (params.t * params.g * MU_B / HBAR) ** 2
        for bz in (1e-6, 0.3):
            assert upper_bound(fam, bz, params.t) == pytest.approx(expected, rel=1e-12)

    def test_low_field_plateau_positive(self):
        params = NvParams(Bx=0.1, By=0.0, t=1e-3)
        fam = nv_family(params)
        report = channel_qfi(fam, 0.0, params.t)
        assert report.channel_qfi > 1.0
        assert report.ratio < 1e-10

    def test_large_field_ratio_approaches_one(self):
        params = NvParams(Bx=0.1, By=0.0, t=1e-3)
        fam = nv_family(params)
        ratios = [channel_qfi(fam, bz, params.t).ratio for bz in (0.5, 1.0, 2.0, 5.0)]
        assert ratios == sorted(ratios)
        assert ratios[1] > 0.985  # 0.98979 at 1 T for these constants
        for r in ratios[2:]:
            assert r >= 0.99

    def test_si_boundary_zero_inputs_give_zero_operator(self):
        fam = nv_family(NvParams(Bx=0.0, By=0.0, D=0.0, E=0.0))
        assert np.all(fam.value(0.0).matrix == 0.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            NvParams(Bx=float("nan"))


class TestNvFlooded:
    def test_zero_beta_matches_plain_family(self):
        params = NvParams(Bx=0.1)
        a = nv_flooded_family(params, 0.0)
        b = nv_family(params)
        for bz in (0.0, 1e-3):
            assert np.array_equal(a.value(bz).matrix, b.value(bz).matrix)

    def test_matches_generic_flood_transformer(self):
        params = NvParams(Bx=0.1)
        a = nv_flooded_family(params, 0.05)
        b = flood(nv_family(params), params.Bz, 0.05)
        for bz in (1e-6, 0.2):
            assert np.array_equal(a.value(bz).matrix, b.value(bz).matrix)

    def test_ratio_monotone_in_beta_at_small_field(self):
        params = NvParams(Bx=0.1, t=1e-3)
        ratios = [
            channel_qfi(nv_flooded_family(params, beta), 1e-6, params.t).ratio
            for beta in (1e-6, 1e-3, 1e-1)
        ]
        assert ratios[0] < ratios[1] < ratios[2]

    def test_flooding_equals_field_shift(self):
        params = NvParams(Bx=0.1, t=1e-3)
        plain = nv_family(params)
        for beta in (1e-6, 1e-3, 1e-1):
            flooded_c = channel_qfi(nv_flooded_family(params, beta), 1e-6, params.t).channel_qfi
            shifted_c = channel_qfi(plain, 1e-6 + beta, params.t).channel_qfi
            assert abs(flooded_c - shifted_c) <= 1e-10 * max(1.0, shifted_c)


class TestDirectionFamily:
    def test_eigenvalues_theta_independent(self):
        params = DirectionParams(B=1e-9, theta=0.9, phi=1.3)
        fam = direction_family(params)
        for theta in (0.0, 0.7, 2.1):
            eigs = np.linalg.eigvalsh(fam.value(theta).matrix)
            mag = GAMMA * params.B
            assert np.allclose(eigs, [-mag, 0.0, mag], atol=1e-12 * mag + 1e-15)

    def test_channel_qfi_closed_form_over_angles(self):
        rng = np.random.default_rng(70)
        for _ in range(5):
            params = DirectionParams(
                B=1e-9,
                theta=float(rng.uniform(0.1, 3.0)),
                phi=float(rng.uniform(0.0, 6.2)),
                t=float(rng.uniform(1e-3, 5e-2)),
            )
            report = channel_qfi(direction_family(params), params.theta, params.t)
            assert report.channel_qfi == pytest.approx(direction_reference_qfi(params), rel=1e-9)
            a = GAMMA * params.B * params.t
            assert report.upper_bound == pytest.approx(4.0 * a * a, rel=1e-12)

    def test_periodicity_in_time(self):
        params = DirectionParams(B=1e-9, theta=np.pi / 3, phi=np.pi / 4)
        fam = direction_family(params)
        period = 2.0 * np.pi / (GAMMA * params.B)
        for t in (3e-3, 1.1e-2):
            c0 = channel_qfi(fam, params.theta, t).channel_qfi
            c1 = channel_qfi(fam, params.theta, t + period).channel_qfi
            assert c1 == pytest.approx(c0, rel=1e-6)

    def test_generator_eigenvalues(self):
        params = DirectionParams(B=1e-9, theta=np.pi / 3, phi=np.pi / 4, t=8e-3)
        gen = generator_spectral(direction_family(params), params.theta, params.t).generator
        eigs = np.linalg.eigvalsh(gen.matrix)
        s = 2.0 * np.sin(GAMMA * params.B * params.t / 2.0)
        assert np.allclose(np.sort(eigs), np.sort([0.0, s, -s]), atol=1e-8)

    def test_negative_field_rejected(self):
        with pytest.raises(ValueError):
            DirectionParams(B=-1.0)

    def test_nonfinite_angle_rejected(self):
        with pytest.raises(ValueError, match=r"^DirectionParams.theta must be finite$"):
            DirectionParams(B=1.0, theta=float("inf"))


class TestDirectionSz:
    def test_zero_kappa_matches_direction_family(self):
        params = DirectionParams(B=1e-9, theta=0.4, phi=0.2)
        a = direction_sz_family(params, 0.0)
        b = direction_family(params)
        for theta in (0.0, 1.0):
            assert np.array_equal(a.value(theta).matrix, b.value(theta).matrix)

    def test_extended_eigenvalues_magnitude_form(self):
        params = DirectionParams(B=1e-9, theta=np.pi / 3, phi=np.pi / 4)
        for kappa in (1.0, 10.0):
            fam = direction_sz_family(params, kappa)
            eigs = np.linalg.eigvalsh(fam.value(params.theta).matrix)
            mag = GAMMA * params.B * np.sqrt(1.0 + kappa**2 + 2.0 * kappa * np.cos(params.theta))
            assert np.allclose(eigs, [-mag, 0.0, mag], rtol=1e-10, atol=1e-8)

    def test_nonfinite_kappa_rejected(self):
        with pytest.raises(ValueError, match=r"^kappa must be finite, got nan$"):
            direction_sz_family(DirectionParams(B=1e-9), float("nan"))

    def test_derivative_unchanged(self):
        params = DirectionParams(B=1e-9, theta=0.4, phi=0.2)
        a = direction_sz_family(params, 10.0)
        b = direction_family(params)
        assert np.array_equal(a.derivative(0.4).matrix, b.derivative(0.4).matrix)

    def test_kappa_ordering_of_channel_qfi(self):
        params = DirectionParams(B=1e-9, theta=np.pi / 3, phi=np.pi / 4)
        t = 5e-2
        values = [
            channel_qfi(direction_sz_family(params, kappa), params.theta, t).channel_qfi
            for kappa in (1.0, 10.0, 1e9)
        ]
        assert values[0] < values[1] < values[2]

    def test_huge_kappa_ratio_below_one(self):
        params = DirectionParams(B=1e-9, theta=np.pi / 3, phi=np.pi / 4)
        fam = direction_sz_family(params, 1e9)
        for t in (1e-2, 1e-1):
            ratio = channel_qfi(fam, params.theta, t).ratio
            assert ratio < 1.0
            assert ratio == pytest.approx(np.sin(params.theta) ** 2, abs=0.05)


class TestReferenceFormulas:
    def test_subtraction_reference_at_zero_equals_bound(self):
        params = DirectionParams(B=1e-9, theta=np.pi / 3, phi=np.pi / 4, t=1e-2)
        bound = 4.0 * (GAMMA * params.B * params.t) ** 2
        assert direction_reference_subtraction_qfi(params, params.theta, 0.0) == pytest.approx(
            bound, rel=1e-15
        )

    def test_subtraction_reference_quartic_falloff(self):
        params = DirectionParams(B=1e-9, theta=np.pi / 3, phi=np.pi / 4, t=1e-2)
        bound = direction_reference_subtraction_qfi(params, params.theta, 0.0)
        eps = np.geomspace(1e-3, 1e-1, 9)
        deficit = [bound - direction_reference_subtraction_qfi(params, params.theta, float(e)) for e in eps]
        slope = np.polyfit(np.log(eps), np.log(deficit), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.1)

    def test_cross_validation_against_toolkit(self):
        from qfiext import subtract_perturbed

        params = DirectionParams(B=1e-9, theta=np.pi / 3, phi=np.pi / 4, t=1e-2)
        fam = direction_family(params)
        for eps in (0.05, 0.3):
            measured = channel_qfi(
                subtract_perturbed(fam, params.theta, eps), params.theta, params.t
            ).channel_qfi
            reference = direction_reference_subtraction_qfi(params, params.theta, eps)
            assert measured == pytest.approx(reference, rel=1e-6)


class TestBrokenPhaseShiftFamily:
    def test_pure_phase_shift_ratio_one(self):
        g = gue(3, np.random.default_rng(71))
        fam = broken_phase_shift_family(g, HermitianOperator(np.zeros((3, 3))))
        assert channel_qfi(fam, 0.8, 1.2).ratio == pytest.approx(1.0, abs=1e-10)

    def test_commuting_g_f_ratio_one(self):
        rng = np.random.default_rng(72)
        basis = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
        g = HermitianOperator((basis * rng.standard_normal(4)) @ basis.conj().T)
        f = HermitianOperator((basis * rng.standard_normal(4)) @ basis.conj().T)
        fam = broken_phase_shift_family(g, f)
        for theta in (-0.7, 0.0, 1.4):
            assert channel_qfi(fam, theta, 0.9).ratio == pytest.approx(1.0, abs=1e-9)

    def test_generator_at_zero_matches_closed_form(self):
        rng = np.random.default_rng(73)
        g, f = gue(4, rng), gue(4, rng)
        fam = broken_phase_shift_family(g, f)
        spec = generator_spectral(fam, 0.0, 1.3).generator
        closed = broken_phase_shift_generator_at_zero(g, f, 1.3)
        assert np.max(np.abs(spec.matrix - closed.matrix)) < 1e-10

    def test_derivatives(self):
        rng = np.random.default_rng(74)
        g, f = gue(3, rng), gue(3, rng)
        fam = broken_phase_shift_family(g, f)
        assert np.array_equal(fam.derivative(0.5).matrix, g.matrix)
        assert np.all(fam.second_derivative(0.5).matrix == 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            broken_phase_shift_family(SZ, HermitianOperator(np.eye(2)))


def test_default_constants():
    assert LANDE_G_DEFAULT == 2.003
    assert NV_D_DEFAULT == pytest.approx(2 * np.pi * 2.87e9, rel=1e-15)
    assert NV_E_DEFAULT == pytest.approx(2 * np.pi * 5e6, rel=1e-15)
    assert GAMMA == pytest.approx(LANDE_G_DEFAULT * MU_B / HBAR, rel=1e-15)
