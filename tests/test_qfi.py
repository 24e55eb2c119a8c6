"""Tests for pure-state QFI, channel QFI, bound, saturation and the brute-force oracle."""

import hashlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfiext import generator, qfi
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
    direction_sz_family,
    direction_reference_qfi,
    eig_hermitian,
    flood,
    generator_spectral,
    gyromagnetic_ratio,
    nv_family,
    nv_flooded_family,
    NvParams,
    qfi_pure,
    random_hermitian,
    seminorm,
    spin1_matrices,
    subtract,
    tensor_identity,
    upper_bound,
)
from qfiext.linalg import unit_scaled
from qfiext.qfi import channel_qfi_stack
from helpers import (
    commuting_family, cross_check_cases, gue, polynomial_family, reference_ascend, verify_calls,
)
from qfiext.errors import ModelError

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
        cqfi, bound, ratio, _ = channel_qfi_stack(
            np.zeros((2, 2), dtype=complex), g.matrix, np.array([2.0])
        )
        assert (cqfi.tolist(), bound.tolist(), ratio.tolist()) == (
            [report.channel_qfi], [report.upper_bound], [report.ratio]
        )

    @pytest.mark.parametrize("scale", [1e-315, 1e-320])
    def test_ratio_where_t_times_the_derivative_spread_is_subnormal(self, scale):
        # K is rounding noise there; the ratio comes from dH/dtheta scaled by a power
        # of two and its generator over t, and a phase shift saturates.
        g = HermitianOperator(scale * gue(3, np.random.default_rng(38)).matrix)
        report = channel_qfi(phase_shift(g), 0.0, 2.0)
        assert report.ratio == pytest.approx(1.0, abs=1e-12)
        ratio = channel_qfi_stack(np.zeros((3, 3), dtype=complex), g.matrix, np.array([2.0]))[2]
        assert ratio.tolist() == [report.ratio]

    def test_stack_decomposes_grid_constant_matrices_once_with_the_same_bits(self):
        rng = np.random.default_rng(37)
        h, hdot = gue(3, rng).matrix, gue(3, rng).matrix
        t = np.linspace(0.1, 2.0, 7)
        h_stack, hdot_stack = (np.repeat(m[None], t.size, axis=0) for m in (h, hdot))

        def bits(columns):
            return [column.tobytes() for column in columns]

        full = bits(channel_qfi_stack(h_stack, hdot_stack, t))
        assert len(full) == 4 and all(len(column) == 8 * t.size for column in full)
        assert bits(channel_qfi_stack(h, hdot, t)) == full
        assert bits(channel_qfi_stack(h, hdot_stack, t)) == full
        assert bits(channel_qfi_stack(h_stack, hdot, t)) == full

    def test_columns_match_the_per_point_float_formulas_bit_for_bit(self):
        # Reference: bound and ratio formed point by point in Python floats.
        tiny = float(np.finfo(float).tiny)
        rng = np.random.default_rng(40)
        for _ in range(200):
            n, d = int(rng.integers(1, 6)), int(rng.integers(1, 5))
            scale = 10.0 ** rng.uniform(-170, 150)
            k = np.sort(scale * rng.standard_normal((n, d)), axis=1)
            hdot = np.stack([gue(d, rng).matrix * scale for _ in range(n)])
            t = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3, 3, n)
            err = rng.uniform(0.0, 1.0, n)
            columns = qfi._reduce(k, np.zeros(n, dtype=int), *unit_scaled(hdot), t, err)
            # Beyond max|entry| of about 1e-120 ... 1e140, LAPACK rescales a matrix by a
            # factor that is not a power of two, which moves the last bits of its spectrum;
            # eigvalsh of hdot scaled by 2^-p, p nearest log2(scale), keeps them.
            p = round(np.log2(scale))
            d = np.linalg.eigvalsh(np.ldexp(hdot.view(float), -p).view(complex))
            d_spread = [float(np.ldexp(s[-1] - s[0], p)) for s in d]
            unscaled = [float(s[-1] - s[0]) for s in np.linalg.eigvalsh(hdot)]
            for i in range(n):
                assert abs(d_spread[i] - unscaled[i]) <= 8 * np.spacing(unscaled[i])
                spread, ti = float(k[i, -1] - k[i, 0]), float(t[i])
                cqfi = spread * spread
                bound = ti * ti * d_spread[i] ** 2
                bound_spread = abs(ti) * d_spread[i]
                if min(ti * ti, d_spread[i] ** 2, bound) >= tiny:
                    ratio = cqfi / bound
                else:
                    ratio = (spread / bound_spread) ** 2 if bound_spread > 0.0 else 1.0
                assert [float(c[i]) for c in columns] == [cqfi, bound, ratio, err[i]]

    def test_one_dimensional_family_has_zero_qfi_and_the_one_probe(self):
        fam = phase_shift(HermitianOperator(np.array([[2.0]])))
        report = channel_qfi(fam, 0.4, 1.5)
        assert (report.channel_qfi, report.upper_bound, report.ratio) == (0.0, 0.0, 1.0)
        assert np.abs(report.optimal_probe.amplitudes).tolist() == [1.0]
        assert channel_qfi_brute(fam, 0.4, 1.5, n_starts=1, seed=0) == 0.0

    def test_upper_bound_trivials(self):
        rng = np.random.default_rng(35)
        fam = polynomial_family(rng, 3)
        assert upper_bound(fam, 0.2, 0.0) == 0.0
        nv = nv_family(NvParams(Bx=0.1, t=1e-3))
        gamma = gyromagnetic_ratio()
        assert upper_bound(nv, 0.0, 1e-3) == pytest.approx(4.0 * (1e-3 * gamma) ** 2, rel=1e-12)

    def test_upper_bound_whose_derivative_spread_overflows_is_finite_and_quiet(self):
        # spread(dH/dtheta) = 2 gamma B is beyond the largest float; (|t| spread)^2 is not.
        fam = direction_family(DirectionParams(B=5.6e296))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert seminorm(fam.derivative(0.0)) == np.inf
            bound = upper_bound(fam, 0.0, 1e-300)
        assert bound == pytest.approx((1e-300 * 2 * gyromagnetic_ratio() * 5.6e296) ** 2)
        assert bound == channel_qfi(fam, 0.0, 1e-300).upper_bound

    def test_upper_bound_whose_t_squared_overflows_is_finite(self):
        # t * t overflows and seminorm(dH/dtheta)^2 underflows; (|t| seminorm)^2 is a float.
        fam = direction_family(DirectionParams(B=1e-250, t=1e200))
        root = 1e200 * seminorm(fam.derivative(0.0))
        assert upper_bound(fam, 0.0, 1e200) == root * root > 0.0
        assert upper_bound(fam, 0.0, 1e200) == channel_qfi(fam, 0.0, 1e200).upper_bound


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

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 4),
        st.integers(1, 4),
        st.floats(-1.0, 1.0),
        st.floats(0.5, 1.5),
    )
    def test_property_over_gue_families_and_ancilla_dimensions(self, seed, dim, ancilla, theta, t):
        # Criterion 10's bound; the lift keeps np.kron's bits.
        fam = polynomial_family(np.random.default_rng(seed), dim)
        lifted = tensor_identity(fam, ancilla)
        kron = np.kron(fam.value(theta).matrix, np.eye(ancilla))
        assert lifted.value(theta).matrix.tobytes() == HermitianOperator(kron).matrix.tobytes()
        c0 = channel_qfi(fam, theta, t).channel_qfi
        c1 = channel_qfi(lifted, theta, t).channel_qfi
        assert abs(c1 - c0) <= 1e-10 * max(1.0, c0)


class TestSaturationVerdict:
    def test_phase_shift_saturates(self):
        g = gue(4, np.random.default_rng(37))
        verdict = check_saturation(phase_shift(g), 0.4)
        assert verdict.verdict is SaturationStatus.SATURATES

    @pytest.mark.parametrize("theta", [0.4, 1e100, 1e200])
    def test_phase_shift_saturates_at_any_scale(self, theta):
        # Unscaled, the squared residual of H overflowed once ||H|| ~ 1e154.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdict = check_saturation(phase_shift(random_hermitian(3, 1)), theta)
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


def _shared_pass_cases() -> list:
    """(family, theta, t) with non-degenerate, ancilla-lifted (all degenerate) and
    direction + S_z spectra, and the NV level anti-crossing."""
    rng = np.random.default_rng(110)
    cases = cross_check_cases(rng)
    for dim in (1, 2, 3, 4):
        fam = polynomial_family(rng, dim)
        cases.append((fam, float(rng.uniform(-1, 1)), float(rng.uniform(0.5, 1.5))))
    for kappa in (0.0, 0.5, 10.0):
        params = DirectionParams(B=1e-9, theta=1.047, phi=0.785, t=1e-2)
        cases.append((direction_sz_family(params, kappa), params.theta, params.t))
    params = NvParams(Bx=0.1, t=1e-3)
    cases.append((flood(nv_family(params), 0.1024, 0.1), 0.1024, params.t))
    cases.append((phase_shift(gue(3, rng)), 0.4, 1.1))
    cases.append((tensor_identity(commuting_family(rng, 3), 2), 0.2, 0.9))
    d = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    h0 = np.diag([0.3, 0.7, -0.2, 0.9]).astype(complex)
    fam = HamiltonianFamily(
        4, lambda th: HermitianOperator(h0 + th * d), lambda th: HermitianOperator(d)
    )
    cases.append((fam, 0.1, 1.3))
    return cases


def _bits(report, verdict) -> tuple:
    return (
        np.array([report.channel_qfi, report.upper_bound, report.ratio,
                  report.estimated_error]).tobytes(),
        report.optimal_probe.amplitudes.tobytes(),
        report.generator_method,
        verdict.verdict,
        verdict.witness,
    )


class TestSharedPointPass:
    @pytest.mark.parametrize("case", range(len(_shared_pass_cases())))
    def test_equals_channel_qfi_then_check_saturation(self, case):
        # On one family the two share its point; each on a fresh family has its own.
        fam, theta, t = _shared_pass_cases()[case]
        shared = (channel_qfi(fam, theta, t), check_saturation(fam, theta))
        separate = (
            channel_qfi(_shared_pass_cases()[case][0], theta, t),
            check_saturation(_shared_pass_cases()[case][0], theta),
        )
        assert _bits(*shared) == _bits(*separate)

    def test_cases_reach_every_verdict(self):
        verdicts = {check_saturation(fam, theta).verdict for fam, theta, _ in _shared_pass_cases()}
        assert verdicts == set(SaturationStatus)

    def test_evaluates_each_matrix_once_and_decomposes_h_once(self, monkeypatch):
        calls = {"value": 0, "derivative": 0}
        base = polynomial_family(np.random.default_rng(111), 3)

        def counted(name):
            def fn(theta):
                calls[name] += 1
                return getattr(base, name)(theta)
            return fn

        fam = HamiltonianFamily(3, counted("value"), counted("derivative"))
        h = base.value(0.3).matrix
        decomposed = []
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            decomposed.append(np.array_equal(a.reshape(-1, 3, 3)[0], unit_scaled(h)[0]))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        channel_qfi(fam, 0.3, 1.1)
        check_saturation(fam, 0.3)
        assert calls == {"value": 1, "derivative": 1}
        # H with dH/dtheta (the verdict's eigenvectors) in one stack, then K.
        assert decomposed == [True, False]

    def test_overflowing_generator_names_t_before_eigh(self):
        fam = nv_family(NvParams(Bz=0.1))
        for call in (lambda: channel_qfi(fam, 0.1, 1e300),
                     lambda: channel_qfi_brute(fam, 0.1, 1e300)):
            with pytest.raises(ModelError, match=r"^at t=1e\+300: generator is not finite$"):
                call()

    def test_overflowing_generator_names_first_grid_value(self):
        fam = nv_family(NvParams(Bz=0.1))
        t = np.array([1e-3, 1e300, np.inf])
        h, hdot = fam.value(0.1).matrix, fam.derivative(0.1).matrix
        with pytest.raises(ModelError, match=r"^at t=1e\+300: generator is not finite$"):
            channel_qfi_stack(h, hdot, t)


# sha256 of the bytes of every verify_calls result on the cases of seed 130,
# recorded before the entry points shared one evaluation and decomposition of H.
_VERIFY_SEQUENCE_SHA256 = "0b872992783d591140d1427c84020275315b11b11ef0609a14d2a9fb27fb4b49"


def _verify_cases() -> list:
    return cross_check_cases(np.random.default_rng(130))


class TestVerifySequence:
    """The verify benchmark's entry points, called in its order on one family."""

    @pytest.mark.parametrize("index", range(len(_verify_cases())))
    def test_each_result_has_the_bits_of_a_fresh_family(self, index):
        shared = [call() for call in verify_calls(*_verify_cases()[index], index)]
        fresh = [verify_calls(*_verify_cases()[index], index)[k]() for k in range(len(shared))]
        assert shared == fresh

    def test_bytes_are_pinned(self):
        digest = hashlib.sha256()
        for index, case in enumerate(_verify_cases()):
            for call in verify_calls(*case, index):
                digest.update(call())
        assert digest.hexdigest() == _VERIFY_SEQUENCE_SHA256

    @pytest.mark.parametrize("index", range(len(_verify_cases())))
    def test_evaluates_each_matrix_once_and_makes_five_decompositions(self, index, monkeypatch):
        fam, theta, t = _verify_cases()[index]
        calls = []

        def counted(name):
            def fn(x):
                calls.append((name, x))
                return getattr(fam, name)(x)
            return fn

        counted_family = HamiltonianFamily(
            fam.dim, counted("value"), counted("derivative"),
            value_stack=fam.values, derivative_stack=fam.derivatives,
        )
        decomposed, generators = [], []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: decomposed.append(len(a)) or eigh(a))
        in_eigenbasis = generator.generator_in_eigenbasis
        monkeypatch.setattr(
            generator, "generator_in_eigenbasis",
            lambda *args: generators.append(len(args[0])) or in_eigenbasis(*args),
        )
        for call in verify_calls(counted_family, theta, t, index):
            call()
        assert sorted(calls) == [("derivative", theta), ("value", theta)]
        # H with dH/dtheta (kept for the saturation verdict); H at the four
        # shifted finite-difference points; K, once for channel_qfi and the oracle.
        assert decomposed == [2, 4, 1]
        assert generators == [1]


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

    def test_a_generator_too_large_for_the_ascent_raises_naming_t_without_a_warning(self):
        fam = polynomial_family(np.random.default_rng(46), 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # 8 |K|^4 is finite below about |K| = 1e76 and the ascent runs there.
            brute = channel_qfi_brute(fam, 0.3, 1e75, n_starts=4, seed=5)
            assert brute == pytest.approx(channel_qfi(fam, 0.3, 1e75).channel_qfi, rel=1e-4)
            for t in (1e77, 1e160):
                with pytest.raises(ModelError, match="^" + re.escape(f"at t={t!r}: 8 |K|^4 is not")):
                    channel_qfi_brute(fam, 0.3, t)
            with pytest.raises(ModelError, match=r"^at t=inf: generator is not finite$"):
                channel_qfi_brute(fam, 0.3, float("inf"))

    def test_rejects_zero_starts(self):
        rng = np.random.default_rng(44)
        with pytest.raises(ValueError):
            channel_qfi_brute(polynomial_family(rng, 3), 0.0, 1.0, n_starts=0)


def _reference_qfi_of_vector(gen, psi):
    v = gen @ psi
    mean = float((psi.conj() @ v).real)
    return 4.0 * max(float((v.conj() @ v).real) - mean * mean, 0.0)


def _reference_ascend(gen, psi):
    gen2 = gen @ gen
    best = _reference_qfi_of_vector(gen, psi)
    step = qfi._ASCENT_INITIAL_STEP
    for _ in range(qfi._ASCENT_ITERATIONS):
        gpsi = gen @ psi
        mean = float((psi.conj() @ gpsi).real)
        grad = 8.0 * (gen2 @ psi) - 16.0 * mean * gpsi
        grad -= (psi.conj() @ grad) * psi
        cand = psi + step * grad
        cand /= np.linalg.norm(cand)
        val = _reference_qfi_of_vector(gen, cand)
        if val > best:
            best, psi = val, cand
        else:
            step /= 2.0
    return best


def reference_brute(family, theta, t, n_starts, seed):
    """The oracle with one restart after another, each a vector ascent."""
    rng = np.random.default_rng(seed)
    gen = generator_spectral(family, theta, t).generator
    candidate = qfi._balanced_probe(eig_hermitian(gen).eigenvectors)
    best = _reference_qfi_of_vector(gen.matrix, candidate)
    for _ in range(n_starts):
        psi = rng.standard_normal(family.dim) + 1j * rng.standard_normal(family.dim)
        psi /= np.linalg.norm(psi)
        best = max(best, _reference_ascend(gen.matrix, psi))
    return best


def assert_matches_reference(family, theta, t, n_starts, seed):
    batched = channel_qfi_brute(family, theta, t, n_starts=n_starts, seed=seed)
    reference = reference_brute(family, theta, t, n_starts, seed)
    # Where K is proportional to identity (d = 1, or its lift) the channel QFI
    # is 0 and both sides are rounding noise of 4 Var(K), about eps ||K||^2.
    k = generator_spectral(family, theta, t).generator
    floor = 1e-12 * np.linalg.norm(k.matrix, 2) ** 2 if seminorm(k) < 1e-12 else 0.0
    assert abs(batched - reference) <= 1e-12 * reference + floor


class TestBatchedOracleMatchesPerStartLoop:
    @pytest.mark.parametrize("n_starts", [1, 3, 8])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_gue_polynomial_families(self, dim, n_starts):
        rng = np.random.default_rng(100 + dim)
        for seed in range(5):
            fam = polynomial_family(rng, dim)
            theta, t = float(rng.uniform(-1, 1)), float(rng.uniform(0.5, 1.5))
            assert_matches_reference(fam, theta, t, n_starts, seed)

    @pytest.mark.parametrize("n_starts", [1, 3, 8])
    def test_flooded_subtracted_and_lifted_families(self, n_starts):
        cases = cross_check_cases(np.random.default_rng(101))
        for seed, (fam, theta, t) in enumerate(cases):
            assert_matches_reference(fam, theta, t, n_starts, seed)

    @pytest.mark.parametrize("n_starts", [1, 3, 8])
    def test_direction_model(self, n_starts):
        params = DirectionParams(B=1e-9, theta=np.pi / 3, phi=np.pi / 4, t=5e-3)
        assert_matches_reference(direction_family(params), params.theta, params.t, n_starts, 1)

    @pytest.mark.parametrize("iterations", [1, 4, 15, 60])
    @pytest.mark.parametrize("n_starts", [1, 3, 8])
    def test_ascent_block_matches_ascents_one_by_one(self, monkeypatch, n_starts, iterations):
        # Short ascents have not converged, so each start's path shows in the result.
        monkeypatch.setattr(qfi, "_ASCENT_ITERATIONS", iterations)
        rng = np.random.default_rng(103)
        for fam, theta, t in cross_check_cases(rng):
            gen = generator_spectral(fam, theta, t).generator.matrix
            shape = (fam.dim, n_starts)
            z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            starts = z / np.linalg.norm(z, axis=0)
            reference = max(_reference_ascend(gen, starts[:, k]) for k in range(n_starts))
            assert qfi._ascend(gen, starts) == pytest.approx(reference, rel=1e-12)

    def test_starts_are_the_per_start_draws(self, monkeypatch):
        blocks = []
        ascend = qfi._ascend

        def capture(gen, psi):
            blocks.append(psi.copy())
            return ascend(gen, psi)

        monkeypatch.setattr(qfi, "_ascend", capture)
        fam = polynomial_family(np.random.default_rng(102), 3)
        channel_qfi_brute(fam, 0.2, 1.0, n_starts=5, seed=9)
        rng = np.random.default_rng(9)
        for k in range(5):
            psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            expected = psi / np.linalg.norm(psi)
            np.testing.assert_allclose(blocks[0][:, k], expected, rtol=0, atol=1e-15)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 8),
    n_starts=st.integers(1, 8),
    lifted=st.booleans(),
)
def test_ascent_has_the_bytes_of_the_reference(seed, dim, n_starts, lifted):
    # GUE generators, lifted onto a 2-dim ancilla (dimension 2-8) as
    # tensor_identity lifts them, and starts drawn as channel_qfi_brute draws them.
    rng = np.random.default_rng(seed)
    gen = random_hermitian((dim + 1) // 2 if lifted else dim, rng)
    if lifted:
        constant = HamiltonianFamily.from_formulas(gen.dim, gen, gen)
        gen = tensor_identity(constant, 2).value(0.0)
    z = rng.standard_normal((n_starts, 2, gen.dim))
    starts = (z[:, 0] + 1j * z[:, 1]).T
    starts /= np.linalg.norm(starts, axis=0)
    found = np.float64(qfi._ascend(gen.matrix, starts)).tobytes()
    assert found == np.float64(reference_ascend(gen.matrix, starts)).tobytes()

def test_ascent_alone_reaches_the_seminorm_on_criterion_7_cases(monkeypatch):
    # channel_qfi_brute seeds its maximum with the exact maximiser, so only
    # the ascent on its own shows whether the restarts climb.
    blocks = []
    ascend = qfi._ascend
    monkeypatch.setattr(qfi, "_ascend", lambda gen, psi: blocks.append((gen, psi)) or 0.0)
    rng = np.random.default_rng(107)
    worst = overshoot = 0.0
    for k in range(50):
        dim = int(rng.integers(2, 5))
        fam = polynomial_family(rng, dim)
        theta = float(rng.uniform(-1.0, 1.0))
        t = float(rng.uniform(0.5, 1.5))
        closed = channel_qfi(fam, theta, t).channel_qfi
        channel_qfi_brute(fam, theta, t, n_starts=8, seed=k)
        gen, starts = blocks[-1]
        assert starts.shape == (dim, 8)
        found = ascend(gen, starts)
        worst = max(worst, abs(found - closed) / closed)
        overshoot = max(overshoot, found - closed)
    assert len(blocks) == 50
    assert worst < 1e-2
    assert overshoot <= 1e-9


class TestEnvironmentDefaults:
    def test_default_seed_is_0(self, monkeypatch):
        blocks = []
        monkeypatch.setattr(qfi, "_ascend", lambda gen, psi: blocks.append(psi) or 0.0)
        fam = polynomial_family(np.random.default_rng(45), 3)
        channel_qfi_brute(fam, 0.2, 1.0, n_starts=3)
        channel_qfi_brute(fam, 0.2, 1.0, n_starts=3, seed=0)
        channel_qfi_brute(fam, 0.2, 1.0, n_starts=3, seed=1)
        assert np.array_equal(blocks[0], blocks[1])
        assert not np.array_equal(blocks[0], blocks[2])

    def test_default_ignores_the_qfiext_seed_variable(self, monkeypatch):
        blocks = []
        monkeypatch.setattr(qfi, "_ascend", lambda gen, psi: blocks.append(psi) or 0.0)
        fam = polynomial_family(np.random.default_rng(45), 3)
        monkeypatch.setenv("QFIEXT_SEED", "5")
        channel_qfi_brute(fam, 0.2, 1.0, n_starts=3)
        channel_qfi_brute(fam, 0.2, 1.0, n_starts=3, seed=0)
        assert np.array_equal(blocks[0], blocks[1])
