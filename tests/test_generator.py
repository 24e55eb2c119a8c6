"""Tests for the local-generator computations."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qfiext import (
    DimensionMismatch,
    GeneratorMethod,
    HamiltonianFamily,
    HermitianOperator,
    ModelError,
    NonHermitianInput,
    NvParams,
    StepTooSmall,
    UnitaryOperator,
    broken_phase_shift_family,
    broken_phase_shift_generator_at_zero,
    channel_qfi,
    channel_qfi_brute,
    generator_fd,
    generator_quadrature,
    generator_spectral,
    nv_family,
    gyromagnetic_ratio,
    seminorm,
    spin1_matrices,
    tensor_identity,
    DirectionParams,
    direction_family,
)
from qfiext import generator
from qfiext.family import DEFAULT_FD_STEP
from qfiext.linalg import eigh_stack, expm_unitary, hermitian_part
from helpers import (
    commuting_family,
    cross_check_cases,
    gauss_legendre_loop,
    gue,
    near_degenerate,
    polynomial_family,
)

SX, SY, SZ = spin1_matrices()


def phase_shift_family(generator: HermitianOperator) -> HamiltonianFamily:
    zero = np.zeros((generator.dim, generator.dim), dtype=complex)
    return HamiltonianFamily(
        generator.dim,
        lambda th: HermitianOperator(th * generator.matrix),
        lambda th: generator,
        lambda th: HermitianOperator(zero),
    )


class TestSpectral:
    def test_phase_shift_gives_t_times_generator(self):
        fam = phase_shift_family(SZ)
        res = generator_spectral(fam, theta=0.4, t=1.7)
        assert res.method is GeneratorMethod.SPECTRAL
        assert np.allclose(res.generator.matrix, 1.7 * SZ.matrix, atol=1e-12)

    def test_direction_family_generator_eigenvalues(self):
        params = DirectionParams(B=1e-9, theta=np.pi / 3, phi=np.pi / 4, t=1e-2)
        fam = direction_family(params)
        res = generator_spectral(fam, params.theta, params.t)
        eigs = np.linalg.eigvalsh(res.generator.matrix)
        half_phase = gyromagnetic_ratio() * params.B * params.t / 2.0
        s = 2.0 * abs(np.sin(half_phase))
        assert np.allclose(eigs, [-s, 0.0, s], atol=1e-10)

    def test_matches_fd_on_random_polynomial_family(self):
        rng = np.random.default_rng(14)
        fam = polynomial_family(rng, 4)
        spec = generator_spectral(fam, 0.7, 1.3)
        fd = generator_fd(fam, 0.7, 1.3)
        diff = np.max(np.abs(spec.generator.matrix - fd.generator.matrix))
        assert diff < max(1e-6, 10.0 * fd.estimated_error)

    def test_hermitian_output(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            fam = polynomial_family(rng, 5)
            g = generator_spectral(fam, 0.2, 0.9).generator.matrix
            assert np.max(np.abs(g - g.conj().T)) < 1e-9

    def test_linear_in_t_at_first_order(self):
        rng = np.random.default_rng(16)
        fam = polynomial_family(rng, 4)
        hdot = fam.derivative(0.3).matrix
        devs = []
        for t in (1e-4, 1e-5):
            g = generator_spectral(fam, 0.3, t).generator.matrix
            devs.append(np.max(np.abs(g / t - hdot)))
        assert devs[0] / devs[1] == pytest.approx(10.0, rel=0.5)

    def test_degenerate_hamiltonian_matches_fd(self):
        # H(0) = diag(1,1,0) has a degenerate block; the kernel form must
        # still agree with the finite-difference definition.
        sz2 = SZ.matrix @ SZ.matrix
        fam = HamiltonianFamily(
            3,
            lambda th: HermitianOperator(th * SX.matrix + sz2),
            lambda th: SX,
        )
        spec = generator_spectral(fam, 0.0, 1.4)
        fd = generator_fd(fam, 0.0, 1.4)
        assert np.max(np.abs(spec.generator.matrix - fd.generator.matrix)) < 1e-7

    def test_commuting_family_degenerates_to_t_hdot(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            fam = commuting_family(rng, 4)
            for theta in (-0.5, 0.0, 0.8):
                g = generator_spectral(fam, theta, 1.4).generator.matrix
                assert np.max(np.abs(g - 1.4 * fam.derivative(theta).matrix)) < 1e-9


class TestQuadrature:
    def test_phase_shift_exact_at_any_order(self):
        fam = phase_shift_family(SZ)
        res = generator_quadrature(fam, 0.3, 2.1, order=2)
        assert np.allclose(res.generator.matrix, 2.1 * SZ.matrix, atol=1e-12)
        assert res.converged

    def test_zero_time_gives_zero(self):
        rng = np.random.default_rng(19)
        fam = polynomial_family(rng, 3)
        res = generator_quadrature(fam, 0.5, 0.0)
        assert np.allclose(res.generator.matrix, 0.0, atol=1e-15)

    def test_agrees_with_spectral_on_nv_family(self):
        # Evolution time chosen so the integrand's t*spread(H) ~ 40 rad stays
        # inside the single-panel Gauss-Legendre envelope (order cap 1024).
        fam = nv_family(NvParams(Bx=1e-4, t=1e-9))
        theta, t = 1e-4, 1e-9
        quad = generator_quadrature(fam, theta, t)
        spec = generator_spectral(fam, theta, t)
        assert quad.converged
        scale = np.max(np.abs(spec.generator.matrix))
        diff = np.max(np.abs(quad.generator.matrix - spec.generator.matrix))
        assert diff < 1e-8 * scale

    def test_reports_nonconvergence_for_fast_oscillation(self):
        # At t = 1e-3 s the NV integrand completes ~1e6 oscillations; no
        # 1024-node rule can resolve that, and the flag must say so.
        fam = nv_family(NvParams(Bx=1e-4, t=1e-3))
        res = generator_quadrature(fam, 1e-4, 1e-3)
        assert not res.converged
        assert res.estimated_error > 0

    def test_error_estimate_honored_when_converged(self):
        rng = np.random.default_rng(20)
        fam = polynomial_family(rng, 4)
        res = generator_quadrature(fam, 0.4, 1.1)
        assert res.converged
        assert res.estimated_error <= 1e-9 * (1.0 + np.max(np.abs(res.generator.matrix)))

    def test_stacked_nodes_equal_the_per_node_loop(self, monkeypatch):
        # Summation order differs, so the bound is set from float64 rounding.
        stacked = generator._gauss_legendre_generator
        cases = cross_check_cases(np.random.default_rng(25))
        cases.append((nv_family(NvParams(Bx=1e-4, t=1e-3)), 1e-4, 1e-3))  # not converging

        def quadrature(rule, fam, theta, t):
            orders = []

            def recorded(*args):
                orders.append(args[-1])
                return rule(*args)

            monkeypatch.setattr(generator, "_gauss_legendre_generator", recorded)
            return generator_quadrature(fam, theta, t), orders

        converged = []
        for fam, theta, t in cases:
            res, orders = quadrature(stacked, fam, theta, t)
            ref, ref_orders = quadrature(gauss_legendre_loop, fam, theta, t)
            k = ref.generator.matrix
            assert np.max(np.abs(res.generator.matrix - k)) <= 1e-13 * (1.0 + np.max(np.abs(k)))
            assert (res.converged, orders) == (ref.converged, ref_orders)
            converged.append(res.converged)
        assert converged == [True] * (len(cases) - 1) + [False]

    @pytest.mark.parametrize("order", [513, 600, 1024])
    def test_order_at_the_cap_is_checked_against_the_halved_order(self, monkeypatch, order):
        # t * spread(H) is about 0.2 rad, which any of these rules resolves.
        fam, theta, t = direction_family(DirectionParams(B=1e-9)), 0.7, 1e-3
        rule, orders = generator._gauss_legendre_generator, []

        def recorded(*args):
            orders.append(args[-1])
            return rule(*args)

        monkeypatch.setattr(generator, "_gauss_legendre_generator", recorded)
        res = generator_quadrature(fam, theta, t, order=order)
        assert orders == [order, order // 2]
        assert res.converged
        k = generator_spectral(fam, theta, t).generator.matrix
        assert res.estimated_error <= 1e-9 * (1.0 + np.max(np.abs(res.generator.matrix)))
        assert np.max(np.abs(res.generator.matrix - k)) <= 1e-12 * np.max(np.abs(k))

    def test_order_at_the_cap_reports_what_its_half_misses(self):
        # t * spread(H) is about 2e3 rad: 300 nodes do not resolve the integrand.
        res = generator_quadrature(direction_family(DirectionParams(B=1e-6)), 0.7, 1e-2, order=600)
        assert not res.converged
        assert res.estimated_error > 1.0

    def test_rejects_tiny_order(self):
        rng = np.random.default_rng(21)
        with pytest.raises(ValueError):
            generator_quadrature(polynomial_family(rng, 3), 0.0, 1.0, order=1)


class TestFiniteDifference:
    def test_phase_shift(self):
        fam = phase_shift_family(SZ)
        res = generator_fd(fam, 0.2, 1.0, h=1e-5)
        assert np.allclose(res.generator.matrix, SZ.matrix, atol=1e-8)

    def test_direction_family_seminorm(self):
        params = DirectionParams(B=1e-9, theta=np.pi / 3, phi=np.pi / 4, t=1e-2)
        fam = direction_family(params)
        res = generator_fd(fam, params.theta, params.t)
        half_phase = gyromagnetic_ratio() * params.B * params.t / 2.0
        assert seminorm(res.generator) == pytest.approx(4.0 * abs(np.sin(half_phase)), abs=1e-6)

    def test_step_too_small_rejected(self):
        rng = np.random.default_rng(22)
        with pytest.raises(StepTooSmall):
            generator_fd(polynomial_family(rng, 3), 0.0, 1.0, h=1e-14)

    def test_second_order_convergence(self):
        # Halving the step should cut the error by ~4 (Richardson self-check).
        rng = np.random.default_rng(23)
        fam = polynomial_family(rng, 4)
        truth = generator_spectral(fam, 0.3, 1.2).generator.matrix
        err = []
        for h in (1e-3, 5e-4):
            g = generator_fd(fam, 0.3, 1.2, h=h).generator.matrix
            err.append(np.max(np.abs(g - truth)))
        assert err[0] / err[1] == pytest.approx(4.0, rel=0.15)

    def test_one_unitary_at_theta_keeps_the_bits_of_two(self, monkeypatch):
        # Reference: each step evaluates U(theta) itself, 6 exponentials per call.
        def central(family, theta, t, h):
            u0 = expm_unitary(family.value(theta), t).matrix
            up = expm_unitary(family.value(theta + h), t).matrix
            um = expm_unitary(family.value(theta - h), t).matrix
            return 1j * u0.conj().T @ (up - um) / (2.0 * h)

        calls = []

        def counted(*args):
            calls.append(args)
            return eigh_stack(*args)

        monkeypatch.setattr(generator, "eigh_stack", counted)
        for fam, theta, t in cross_check_cases(np.random.default_rng(24)):
            h = DEFAULT_FD_STEP * max(1.0, abs(theta))
            full, half = central(fam, theta, t, h), central(fam, theta, t, h / 2.0)
            err = (4.0 / 3.0) * float(np.max(np.abs(full - half)))
            calls.clear()
            res = generator_fd(fam, theta, t)
            assert len(calls) == 1
            reference = HermitianOperator(hermitian_part(full)).matrix
            assert res.generator.matrix.tobytes() == reference.tobytes()
            assert res.estimated_error == err


    def test_rejects_a_non_unitary_evolution(self, monkeypatch):
        # Eigenvectors scaled by 1.001 at the four shifted points: the first
        # unitary that fails is U(theta + h), with UnitaryOperator's message.
        fam = polynomial_family(np.random.default_rng(25), 3)
        theta, t = 0.3, 1.2
        w, v, e = eigh_stack(fam.value(theta + DEFAULT_FD_STEP).matrix[None])
        u = (1.001 * v[0] * np.exp(-1j * t * np.ldexp(w[0], e[0]))) @ (1.001 * v[0]).conj().T
        with pytest.raises(DimensionMismatch) as expected:
            UnitaryOperator(u)
        monkeypatch.setattr(
            generator, "eigh_stack", lambda m: (lambda w, v, e: (w, 1.001 * v, e))(*eigh_stack(m))
        )
        with pytest.raises(DimensionMismatch) as raised:
            generator_fd(fam, theta, t)
        assert str(raised.value) == str(expected.value)


class TestBrokenPhaseShiftGenerator:
    def test_commuting_diagonal_case(self):
        g = HermitianOperator(np.diag([2.0, -1.0, 0.5]))
        f = HermitianOperator(np.diag([1.0, 3.0, -2.0]))
        out = broken_phase_shift_generator_at_zero(g, f, t=1.3)
        assert np.allclose(out.matrix, 1.3 * g.matrix, atol=1e-12)

    def test_zero_f_reduces_to_phase_shift(self):
        rng = np.random.default_rng(24)
        g = gue(4, rng)
        out = broken_phase_shift_generator_at_zero(
            g, HermitianOperator(np.zeros((4, 4))), t=0.9
        )
        assert np.allclose(out.matrix, 0.9 * g.matrix, atol=1e-12)

    def test_matches_fd_of_family_at_zero(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            g, f = gue(4, rng), gue(4, rng)
            fam = broken_phase_shift_family(g, f)
            closed = broken_phase_shift_generator_at_zero(g, f, t=1.1)
            fd = generator_fd(fam, 0.0, 1.1)
            assert np.max(np.abs(closed.matrix - fd.generator.matrix)) < 1e-7

    @pytest.mark.parametrize("t", [1e-11, 1e-3])
    def test_nv_at_zero_field_matches_spectral(self, t):
        params = NvParams(Bx=1e-3)
        fam = nv_family(params)
        gamma = gyromagnetic_ratio(params.g)
        g = HermitianOperator(gamma * SZ.matrix)
        f = fam.value(0.0)
        closed = broken_phase_shift_generator_at_zero(g, f, t)
        spec = generator_spectral(fam, 0.0, t).generator
        scale = np.max(np.abs(spec.matrix))
        assert np.max(np.abs(closed.matrix - spec.matrix)) < 1e-7 * max(scale, 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            broken_phase_shift_generator_at_zero(SZ, HermitianOperator(np.eye(2)), 1.0)


class TestMethodAgreement:
    def test_three_routes_agree_on_campaign(self):
        rng = np.random.default_rng(26)
        for _ in range(30):
            dim = int(rng.integers(2, 7))
            fam = polynomial_family(rng, dim)
            theta = float(rng.uniform(-1.0, 1.0))
            t = float(rng.uniform(0.5, 1.5))
            results = [
                generator_spectral(fam, theta, t).generator.matrix,
                generator_quadrature(fam, theta, t).generator.matrix,
                generator_fd(fam, theta, t).generator.matrix,
            ]
            for i in range(3):
                for j in range(i + 1, 3):
                    assert np.max(np.abs(results[i] - results[j])) < 1e-6

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 4),
        lift=st.booleans(),
        offset=st.floats(-1e-2, 1e-2),
    )
    def test_routes_agree_near_degeneracy(self, seed, dim, lift, offset):
        # H(theta0) has one eigenvalue gap within 1% of the degeneracy tolerance.
        rng = np.random.default_rng(seed)
        a = near_degenerate(rng, dim, 1.0, 1.0 + offset)
        b, c = gue(dim, rng).matrix, gue(dim, rng).matrix
        theta0, t = float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.5, 1.5))
        fam = HamiltonianFamily(
            dim,
            lambda th: HermitianOperator(a + (th - theta0) * b + (th - theta0) ** 2 * c),
            lambda th: HermitianOperator(b + 2.0 * (th - theta0) * c),
        )
        if lift:
            fam = tensor_identity(fam, 2)
        results = [
            route(fam, theta0, t).generator.matrix
            for route in (generator_spectral, generator_quadrature, generator_fd)
        ]
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.max(np.abs(results[i] - results[j])) < 1e-6
        brute = channel_qfi_brute(fam, theta0, t, n_starts=4, seed=seed)
        assert brute <= channel_qfi(fam, theta0, t).channel_qfi + 1e-9


class TestSpectralPoint:
    """The K that a family keeps for its latest (theta, t)."""

    def test_same_bits_hit_and_signed_zero_is_another_point(self):
        fam = polynomial_family(np.random.default_rng(90), 3)
        point = generator.spectral_point(fam, 0.2, 0.0)
        assert generator.spectral_point(fam, 0.2, 0.0) is point
        negative = generator.spectral_point(fam, 0.2, -0.0)
        assert negative is not point
        assert generator.spectral_point(fam, 0.2, -0.0) is negative

    def test_another_t_at_the_same_theta_recomputes(self):
        fam = polynomial_family(np.random.default_rng(91), 3)
        first = generator.spectral_point(fam, 0.2, 1.0)
        second = generator.spectral_point(fam, 0.2, 1.5)
        assert second is not first
        assert not np.array_equal(second.gen, first.gen)
        again = generator.spectral_point(fam, 0.2, 1.0)
        assert again is not first
        assert np.array_equal(again.gen, first.gen) and np.array_equal(again.err, first.err)

    def test_overflowing_t_raises_on_every_call(self):
        fam = nv_family(NvParams(Bz=0.1))
        for _ in range(2):
            with pytest.raises(ModelError, match=r"^at t=1e\+300: generator is not finite$"):
                channel_qfi(fam, 0.1, 1e300)
            with pytest.raises(NonHermitianInput, match="non-finite entry"):
                generator_spectral(fam, 0.1, 1e300)

    def test_arrays_are_read_only(self):
        fam = polynomial_family(np.random.default_rng(92), 3)
        point = generator.spectral_point(fam, 0.2, 1.0)
        for array in (point.gen, point.err, *point.eigh, point.operator.matrix):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0


class TestPhaseKernel:
    @staticmethod
    def plain_gaps_kernel(t, w):
        """The kernel from the plain gaps of w, which overflow beyond the largest float."""
        gaps = w[..., :, None] - w[..., None, :]
        return t * np.exp(0.5j * t * gaps) * np.sinc(t * gaps / (2.0 * np.pi))

    @staticmethod
    def kernel(t: float, w: np.ndarray) -> np.ndarray:
        """``generator_in_eigenbasis``'s K for H = diag(w) and an all-ones dH/dtheta: the kernel."""
        w, v, e = eigh_stack(np.diag(w).astype(complex)[None])
        assert (v == np.eye(w.shape[1])).all()
        ones = np.ones(v.shape, dtype=complex)
        return generator.generator_in_eigenbasis(w, v, e, ones, 0, np.array([t]))[0]

    def test_spread_beyond_the_largest_float_gives_t_quietly(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kernel = self.kernel(1e-320, np.array([-1.7e308, 0.0, 1.7e308]))
        assert kernel[0, 0, 2] == kernel[0, 2, 0] == 1e-320
        assert np.isfinite(kernel).all()

    def test_a_phase_beyond_the_largest_float_gives_zero_off_a_zero_gap(self):
        # t d/2 overflows on the outer gaps while t is finite: |t sinc(t d/2)| <= 2/|d|.
        kernel = self.kernel(1e10, np.array([-1e300, 0.0, 0.0, 1e300]))
        assert (kernel[0, [0, 3], [3, 0]] == 0.0).all()
        assert (kernel[0, [0, 1, 2, 1, 2, 3], [0, 1, 2, 2, 1, 3]] == 1e10).all()
        assert np.isfinite(kernel).all()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.lists(st.floats(-1e150, 1e150), min_size=1, max_size=5),
        st.floats(1e-100, 1e100) | st.floats(-1e100, -1e-100),
    )
    def test_bits_of_the_plain_gaps_where_t_times_the_gaps_is_normal(self, values, t):
        # Below the normal range, halving and the gaps' products may round otherwise.
        w = np.sort(np.array(values))[None]
        gaps = np.abs(w[0, :, None] - w[0, None, :])
        assume(not (0 < np.abs(w)).any() or np.abs(w[w != 0]).min() > 1e-290)
        assume(not (0 < gaps).any() or abs(t) * gaps[gaps > 0].min() > 1e-290)
        new, old = self.kernel(t, w[0]), self.plain_gaps_kernel(np.array([t])[:, None, None], w)
        assert new.tobytes() == old.tobytes()
