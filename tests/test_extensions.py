"""Tests for the Hamiltonian-extension transformers and their predictions."""

import re
import warnings

import numpy as np
import pytest

from qfiext import (
    AddOperator,
    DegenerateExtremalEigenvalues,
    DimensionMismatch,
    DirectionParams,
    Flood,
    HamiltonianFamily,
    HermitianOperator,
    NonHermitianInput,
    NvParams,
    PureState,
    Subtract,
    SubtractPerturbed,
    add_operator,
    apply_extension,
    broken_phase_shift_family,
    channel_qfi,
    direction_family,
    direction_reference_subtraction_qfi,
    expm_unitary,
    flood,
    gyromagnetic_ratio,
    nv_family,
    predicted_subtraction_deficit,
    qfi_pure,
    seminorm,
    spin1_matrices,
    subtract,
    subtract_perturbed,
    tensor_identity,
    upper_bound,
)
from qfiext.extensions import extension_offset
from helpers import commuting_family, gue, polynomial_family, random_state

SX, SY, SZ = spin1_matrices()


def beta_qfi_fd(family, theta0, beta, t, psi0):
    """QFI with respect to the flooding strength, by central differences on the state.

    The flooded evolution exp(-i t (H(theta0) + b * Hdot(theta0))) is
    differentiated in b at fixed theta0; 4(<dpsi|dpsi> - |<psi|dpsi>|^2).
    """
    h0 = family.value(theta0).matrix
    d0 = family.derivative(theta0).matrix
    step = 1e-5 * max(1.0, abs(beta))

    def state(b):
        u = expm_unitary(HermitianOperator(h0 + b * d0), t).matrix
        return u @ psi0

    dpsi = (state(beta + step) - state(beta - step)) / (2.0 * step)
    psi = state(beta)
    return 4.0 * (float((dpsi.conj() @ dpsi).real) - abs(psi.conj() @ dpsi) ** 2)


class TestFlood:
    def test_zero_beta_is_identity(self):
        rng = np.random.default_rng(50)
        fam = polynomial_family(rng, 4)
        flooded = flood(fam, theta0=0.3, beta=0.0)
        for theta in (-0.7, 0.0, 1.1):
            assert np.array_equal(flooded.value(theta).matrix, fam.value(theta).matrix)

    def test_broken_phase_shift_becomes_shifted_family(self):
        rng = np.random.default_rng(51)
        g, f = gue(4, rng), gue(4, rng)
        fam = broken_phase_shift_family(g, f)
        beta = 0.8
        flooded = flood(fam, theta0=0.2, beta=beta)
        for theta in (-0.4, 0.0, 0.9):
            assert np.allclose(
                flooded.value(theta).matrix, fam.value(theta + beta).matrix, atol=1e-12
            )

    def test_derivative_passthrough(self):
        rng = np.random.default_rng(52)
        fam = polynomial_family(rng, 3)
        flooded = flood(fam, 0.1, 2.0)
        for theta in (-1.0, 0.5):
            assert np.array_equal(
                flooded.derivative(theta).matrix, fam.derivative(theta).matrix
            )

    def test_theta_beta_qfi_equality(self):
        rng = np.random.default_rng(53)
        for _ in range(5):
            dim = int(rng.integers(2, 5))
            fam = polynomial_family(rng, dim)
            theta0 = float(rng.uniform(-0.5, 0.5))
            beta = float(rng.uniform(0.2, 1.5))
            t = float(rng.uniform(0.5, 1.5))
            psi0 = random_state(rng, dim)
            flooded = flood(fam, theta0, beta)
            lhs = qfi_pure(flooded, theta0, t, PureState(psi0))
            rhs = beta_qfi_fd(fam, theta0, beta, t, psi0)
            assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_large_beta_saturates_bound(self):
        rng = np.random.default_rng(54)
        for _ in range(10):
            dim = int(rng.integers(2, 6))
            fam = polynomial_family(rng, dim)
            theta0 = float(rng.uniform(-0.5, 0.5))
            h = fam.value(theta0)
            d = fam.derivative(theta0)
            beta = 1e4 * seminorm(h) / seminorm(d)
            report = channel_qfi(flood(fam, theta0, beta), theta0, 1.0)
            assert report.ratio > 0.999

    def test_shift_identity_for_broken_phase_shift(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            g, f = gue(3, rng), gue(3, rng)
            fam = broken_phase_shift_family(g, f)
            theta0 = float(rng.uniform(-1, 1))
            beta = float(rng.uniform(-1, 1))
            t = float(rng.uniform(0.5, 1.5))
            flooded_value = channel_qfi(flood(fam, theta0, beta), theta0, t).channel_qfi
            shifted_value = channel_qfi(fam, theta0 + beta, t).channel_qfi
            assert abs(flooded_value - shifted_value) <= 1e-10 * max(1.0, shifted_value)


class TestSubtract:
    def test_vanishes_at_anchor(self):
        rng = np.random.default_rng(56)
        fam = polynomial_family(rng, 4)
        sub = subtract(fam, theta0=0.7)
        assert np.all(sub.value(0.7).matrix == 0.0)

    def test_saturates_at_anchor(self):
        rng = np.random.default_rng(57)
        for _ in range(5):
            fam = polynomial_family(rng, int(rng.integers(2, 5)))
            theta0 = float(rng.uniform(-1, 1))
            report = channel_qfi(subtract(fam, theta0), theta0, 1.3)
            assert report.ratio == pytest.approx(1.0, abs=1e-9)

    def test_phase_shift_shifts_origin(self):
        g = gue(3, np.random.default_rng(58))
        zero = HermitianOperator(np.zeros((3, 3)))
        fam = broken_phase_shift_family(g, zero)
        sub = subtract(fam, theta0=0.4)
        for theta in (-0.3, 0.9):
            assert np.allclose(
                sub.value(theta).matrix, (theta - 0.4) * g.matrix, atol=1e-12
            )
            assert channel_qfi(sub, theta, 1.0).ratio == pytest.approx(1.0, abs=1e-9)


class TestSubtractPerturbed:
    def test_zero_epsilon_matches_subtract(self):
        rng = np.random.default_rng(59)
        fam = polynomial_family(rng, 3)
        a = subtract_perturbed(fam, 0.3, 0.0)
        b = subtract(fam, 0.3)
        for theta in (-0.5, 0.3, 1.2):
            assert np.array_equal(a.value(theta).matrix, b.value(theta).matrix)

    @pytest.mark.parametrize("epsilon", [0.01, 0.05, 0.1])
    def test_direction_model_matches_closed_form(self, epsilon):
        params = DirectionParams(B=1e-9, theta=np.pi / 3, phi=np.pi / 4, t=1e-2)
        fam = direction_family(params)
        sub = subtract_perturbed(fam, params.theta, epsilon)
        measured = channel_qfi(sub, params.theta, params.t).channel_qfi
        reference = direction_reference_subtraction_qfi(params, params.theta, epsilon)
        assert measured == pytest.approx(reference, rel=1e-6)

    def test_deficit_scales_at_least_quadratically(self):
        rng = np.random.default_rng(60)
        fam = polynomial_family(rng, 3)
        theta0, t = 0.3, 1.1
        bound = channel_qfi(fam, theta0, t).upper_bound
        eps = np.geomspace(1e-4, 1e-2, 7)
        deficits = []
        for e in eps:
            c = channel_qfi(subtract_perturbed(fam, theta0, float(e)), theta0, t).channel_qfi
            deficits.append(max(bound - c, 1e-300))
        slope = np.polyfit(np.log(eps), np.log(deficits), 1)[0]
        assert slope >= 2.0

    def test_deficit_even_in_epsilon_for_direction_model(self):
        params = DirectionParams(B=1e-9, theta=np.pi / 3, phi=np.pi / 4, t=1e-2)
        fam = direction_family(params)
        for epsilon in (0.05, 0.2, 0.4):
            plus = channel_qfi(
                subtract_perturbed(fam, params.theta, epsilon), params.theta, params.t
            ).channel_qfi
            minus = channel_qfi(
                subtract_perturbed(fam, params.theta, -epsilon), params.theta, params.t
            ).channel_qfi
            assert plus == pytest.approx(minus, rel=1e-9)

    def test_anchor_that_overflows_names_epsilon_quietly(self):
        fam = direction_family(DirectionParams(B=1e-9))
        message = r"^theta0 \+ epsilon is not finite at 1e\+308$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=message):
                subtract_perturbed(fam, 1e308, 1e308)
            with pytest.raises(OverflowError, match=message):
                spec = SubtractPerturbed(theta0=1e308, epsilon=np.array([-1e308, 1e308, 1.7e308]))
                extension_offset(fam, spec)


class TestPredictedDeficit:
    def test_commuting_family_gives_zero(self):
        rng = np.random.default_rng(61)
        fam = commuting_family(rng, 4)
        assert predicted_subtraction_deficit(fam, 0.2, 0.01, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_zero_epsilon_gives_zero(self):
        rng = np.random.default_rng(62)
        fam = polynomial_family(rng, 3)
        assert predicted_subtraction_deficit(fam, 0.2, 0.0, 1.0) == 0.0

    def test_degenerate_extremal_eigenvalues_rejected(self):
        d = np.diag([1.0, 1.0, -1.0]).astype(complex)
        fam = HamiltonianFamily(
            3,
            lambda th: HermitianOperator(th * d),
            lambda th: HermitianOperator(d),
            lambda th: HermitianOperator(np.zeros((3, 3), dtype=complex)),
        )
        with pytest.raises(DegenerateExtremalEigenvalues):
            predicted_subtraction_deficit(fam, 0.0, 0.01, 1.0)

    def test_requires_second_derivative(self):
        fam = HamiltonianFamily(
            2,
            lambda th: HermitianOperator(np.diag([th, -th])),
            lambda th: HermitianOperator(np.diag([1.0, -1.0])),
        )
        with pytest.raises(ValueError):
            predicted_subtraction_deficit(fam, 0.0, 0.01, 1.0)

    def test_spread_beyond_the_largest_float_gives_zero_quietly(self):
        # A's spread, 3.4e308, overflows; it is formed scaled, so a zero shift gives 0.0.
        d = np.diag([1.7e308, -1.7e308]).astype(complex)
        fam = HamiltonianFamily(
            2,
            lambda th: HermitianOperator(th * d),
            lambda th: HermitianOperator(d),
            lambda th: HermitianOperator(np.zeros((2, 2), dtype=complex)),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert predicted_subtraction_deficit(fam, 0.0, 0.01, 1.0) == 0.0

    def test_products_beyond_the_largest_float_give_a_finite_deficit_quietly(self):
        # |X_km|^2 is about 1e310; the deficit scales as |A|^2 |B|^2, so it is 1e310
        # times that of A and B divided by 1e100 and 1e55.
        a, b = np.diag([1.0, -1.0]).astype(complex), np.array([[0.0, 1.0], [1.0, 0.0]], complex)

        def family(sa: float, sb: float) -> HamiltonianFamily:
            return HamiltonianFamily(
                2,
                lambda th: HermitianOperator(th * sa * a + th * th / 2.0 * sb * b),
                lambda th: HermitianOperator(sa * a + th * sb * b),
                lambda th: HermitianOperator(sb * b),
            )

        small = predicted_subtraction_deficit(family(1.0, 1.0), 0.0, 1e-3, 1.0)
        assert small == pytest.approx(-1.0 / 3.0 * 1e-12, rel=1e-12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            large = predicted_subtraction_deficit(family(1e100, 1e55), 0.0, 1e-3, 1.0)
        assert np.isfinite(large)
        assert large / 1e155 / 1e155 == pytest.approx(small, rel=1e-12)

    def test_direction_model_matches_closed_form(self):
        # The direction deficit is -a^4 eps^4 / 12 + O(eps^6) with a = gamma*B*t.
        params = DirectionParams(B=1e-9, theta=0.7, phi=0.3)
        fam = direction_family(params)
        a = gyromagnetic_ratio(params.g) * params.B * params.t
        bound = upper_bound(fam, params.theta, params.t)
        for epsilon in (1e-2, 3e-2):
            predicted = predicted_subtraction_deficit(fam, params.theta, epsilon, params.t)
            exact = direction_reference_subtraction_qfi(params, params.theta, epsilon) - bound
            assert predicted == pytest.approx(exact, rel=1e-3)
            assert predicted == pytest.approx(-(a**4) * epsilon**4 / 12.0, rel=1e-12)


class TestAddOperator:
    def test_zero_epsilon_identity(self):
        rng = np.random.default_rng(63)
        fam = polynomial_family(rng, 3)
        out = add_operator(fam, gue(3, rng), 0.0)
        for theta in (-0.2, 0.8):
            assert np.array_equal(out.value(theta).matrix, fam.value(theta).matrix)

    def test_direction_z_field_eigenvalues(self):
        # Adding kappa*B*gamma*Sz to the direction Hamiltonian gives the
        # field-magnitude spectrum 0, +-gamma*B*sqrt(1 + k^2 + 2k cos(theta)).
        params = DirectionParams(B=1e-9, theta=np.pi / 3, phi=np.pi / 4)
        kappa = 2.5
        fam = direction_family(params)
        gamma_b = gyromagnetic_ratio() * params.B
        extended = add_operator(
            fam, HermitianOperator(gamma_b * SZ.matrix), kappa
        )
        eigs = np.linalg.eigvalsh(extended.value(params.theta).matrix)
        mag = gamma_b * np.sqrt(1.0 + kappa**2 + 2.0 * kappa * np.cos(params.theta))
        assert np.allclose(eigs, [-mag, 0.0, mag], rtol=1e-12, atol=1e-6)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(64)
        with pytest.raises(DimensionMismatch):
            add_operator(polynomial_family(rng, 3), gue(2, rng), 1.0)


class TestDerivativePreservation:
    def test_every_transformer_keeps_the_derivative(self):
        rng = np.random.default_rng(75)
        fam = polynomial_family(rng, 3)
        v = gue(3, rng)
        transformed = [
            flood(fam, 0.2, 0.7),
            subtract(fam, 0.2),
            subtract_perturbed(fam, 0.2, 0.05),
            add_operator(fam, v, 0.4),
        ]
        for out in transformed:
            for theta in (-0.8, 0.0, 1.3):
                assert np.array_equal(
                    out.derivative(theta).matrix, fam.derivative(theta).matrix
                )
                assert np.array_equal(
                    out.second_derivative(theta).matrix,
                    fam.second_derivative(theta).matrix,
                )


class TestApplyExtension:
    def test_dispatch_matches_direct_calls(self):
        rng = np.random.default_rng(68)
        fam = polynomial_family(rng, 3)
        v = gue(3, rng)
        pairs = [
            (Flood(beta=0.4, theta0=0.1), flood(fam, 0.1, 0.4)),
            (Subtract(theta0=0.2), subtract(fam, 0.2)),
            (SubtractPerturbed(theta0=0.2, epsilon=0.05), subtract_perturbed(fam, 0.2, 0.05)),
            (AddOperator(operator=v, epsilon=0.3), add_operator(fam, v, 0.3)),
        ]
        for spec, direct in pairs:
            out = apply_extension(fam, spec)
            assert np.array_equal(out.value(0.6).matrix, direct.value(0.6).matrix)

    def test_ancilla_of_dimension_zero_rejected(self):
        fam = polynomial_family(np.random.default_rng(71), 2)
        with pytest.raises(DimensionMismatch, match=r"^ancilla dimension must be >= 1, got 0$"):
            tensor_identity(fam, 0)

    def test_unknown_spec_rejected(self):
        fam, spec = polynomial_family(np.random.default_rng(72), 2), object()
        with pytest.raises(ValueError, match=f"^unknown extension spec: {re.escape(repr(spec))}$"):
            extension_offset(fam, spec)

    def test_nonfinite_parameters_rejected(self):
        rng = np.random.default_rng(69)
        fam = polynomial_family(rng, 3)
        with pytest.raises(ValueError):
            flood(fam, theta0=float("nan"), beta=1.0)
        with pytest.raises(ValueError):
            subtract(fam, theta0=float("inf"))

    def test_sum_that_overflows_is_not_hermitian_input_quietly(self):
        # H's D ~ 1e308 plus beta dH/dtheta ~ 1e297 * 1.8e11 overflows in the sum alone.
        fam = flood(nv_family(NvParams(D=1e308)), 0.0, 1e297)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonHermitianInput, match="non-finite entry"):
                fam.value(0.0)
            with pytest.raises(NonHermitianInput, match="non-finite entry"):
                fam.values(np.array([0.0, 1.0]))

    def test_overflowing_added_term_names_its_coefficient(self):
        fam = direction_family(DirectionParams(B=1.0))  # dH/dtheta ~ gamma B ~ 1.8e11
        v = HermitianOperator(1e10 * gue(3, np.random.default_rng(70)).matrix)
        message = r"^the added term is not finite at coefficient 1e\+300$"
        with pytest.raises(OverflowError, match=message):
            flood(fam, theta0=0.1, beta=1e300)
        with pytest.raises(OverflowError, match=message):
            add_operator(fam, v, 1e300)
        with pytest.raises(OverflowError, match=message):
            extension_offset(fam, Flood(beta=np.array([1.0, 1e300, 1e301]), theta0=0.1))
