"""Tests for the Hermitian matrix calculus layer."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfiext import (
    DimensionMismatch,
    HermitianOperator,
    NonHermitianInput,
    PureState,
    UnitaryOperator,
    eig_hermitian,
    expm_unitary,
    random_hermitian,
    seminorm,
    spin1_matrices,
    variance,
)
from qfiext.linalg import (
    _fix_phases, check_unitary, degenerate_blocks, eigh_stack, scaled_eigh, symmetrized,
)
from helpers import (
    eig_hermitian_reference,
    fix_phases_by_column,
    gue,
    near_degenerate,
    random_state,
    taylor_expm,
)

SX, SY, SZ = spin1_matrices()


class TestHermitianOperator:
    def test_symmetrizes_rounding_noise(self):
        m = np.array([[1.0, 0.5 + 1e-15j], [0.5, 2.0]])
        op = HermitianOperator(m)
        assert np.array_equal(op.matrix, op.matrix.conj().T)

    def test_rejects_real_asymmetry(self):
        with pytest.raises(NonHermitianInput, match=r"A\[0\]\[1\]"):
            HermitianOperator(np.array([[1.0, 1.0], [0.0, 2.0]]))

    @pytest.mark.parametrize(
        "entries",
        [
            [[np.nan, 1.0], [0.0, 1.0]],
            [[1.0, np.nan], [np.nan, 1.0]],
            [[np.inf, 0.0], [0.0, 1.0]],
            [[1.0, np.inf], [0.0, 1.0]],
            [[1.0, complex(0.0, -np.inf)], [complex(0.0, np.inf), 1.0]],
        ],
    )
    def test_rejects_non_finite_entries(self, entries):
        with pytest.raises(NonHermitianInput, match="non-finite entry"):
            HermitianOperator(np.array(entries, dtype=complex))

    def test_stacked_check_names_first_offending_matrix(self):
        good = np.array([[1.0, 0.5j], [-0.5j, 2.0]])
        stack = np.stack([good, [[1.0, 1.0], [0.0, 2.0]], [[np.nan, 0.0], [0.0, 1.0]]])
        with pytest.raises(NonHermitianInput, match=r"^at x=1: matrix is not Hermitian"):
            symmetrized(stack, lambda n: f"at x={n}")
        with pytest.raises(NonHermitianInput, match=r"^matrix 1: matrix is not Hermitian"):
            symmetrized(stack[:2])
        with pytest.raises(NonHermitianInput, match=r"^matrix 1: matrix has a non-finite entry"):
            symmetrized(stack[[0, 2, 1]])

    def test_stacked_check_symmetrizes_each_matrix_like_the_constructor(self):
        rng = np.random.default_rng(3)
        stack = np.stack([gue(3, rng).matrix + 1e-15j * rng.standard_normal((3, 3)) for _ in range(6)])
        out = symmetrized(stack)
        for n in range(6):
            assert out[n].tobytes() == HermitianOperator(stack[n]).matrix.tobytes()

    def test_large_finite_hermitian_matrix_stays_finite(self):
        # Above max|entry| = finfo.max/2 the sum m + m^dag overflows.
        big = np.array([[1e308, 0.0], [0.0, 1.0]], dtype=complex)
        small = np.array([[1.0, 0.5 + 1e-15j], [0.5, 2.0]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            one = HermitianOperator(big).matrix
            stack = symmetrized(np.stack([big, small]))
        assert one.tobytes() == big.tobytes()
        assert stack[0].tobytes() == big.tobytes()
        assert stack[1].tobytes() == ((small + small.conj().T) / 2).tobytes()

    def test_far_from_hermitian_near_float_max_rejected_without_warning(self):
        # m - m^dag overflows to inf; the rejection names that asymmetry.
        skew = np.array([[0.0, 1e308], [-1e308, 0.0]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonHermitianInput, match=r"^matrix is not Hermitian: .* = inf "):
                HermitianOperator(skew)
            with pytest.raises(NonHermitianInput, match=r"^matrix 1: matrix is not Hermitian"):
                symmetrized(np.stack([np.eye(2, dtype=complex), skew]))

    def test_stacked_infinite_entry_rejected_without_warning(self):
        infinite = np.array([[1.0, np.inf], [0.0, 1.0]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonHermitianInput, match=r"^matrix 0: matrix has a non-finite entry"):
                symmetrized(infinite[None])

    def test_entry_whose_modulus_overflows_does_not_hide_an_asymmetry(self):
        # |a| is beyond the largest float, so max|entry| was inf and any asymmetry passed.
        a = 1.5e308 + 1.5e308j
        skew = np.array([[0, a, 1e300], [np.conj(a), 0, 0], [0, 0, 0]])
        fine = np.array([[0, a, 0], [np.conj(a), 0, 0], [0, 0, 0]])
        message = (
            r"matrix is not Hermitian: \|A\[0\]\[2\] - conj\(A\[2\]\[0\]\)\| = 1\.000e\+300 "
            r"exceeds 1e-12 \* max\|entry\| = 2\.121e\+296$"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonHermitianInput, match="^" + message):
                HermitianOperator(skew)
            with pytest.raises(NonHermitianInput, match="^matrix 0: " + message):
                symmetrized(skew[None])
            assert HermitianOperator(fine).matrix.tobytes() == fine.tobytes()
            assert symmetrized(fine[None]).tobytes() == fine.tobytes()

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            HermitianOperator(np.zeros((2, 3)))

    def test_zero_matrix_accepted(self):
        op = HermitianOperator(np.zeros((4, 4)))
        assert op.dim == 4

    def test_immutable(self):
        op = HermitianOperator(np.eye(2))
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0


class TestPureState:
    def test_accepts_unit_vector(self):
        psi = PureState(np.array([1.0, 0.0, 0.0]))
        assert psi.dim == 3

    def test_rejects_a_matrix(self):
        with pytest.raises(DimensionMismatch, match=r"^expected a vector, got shape \(2, 2\)$"):
            PureState(np.eye(2))

    def test_rejects_far_from_unit(self):
        with pytest.raises(ValueError):
            PureState(np.array([2.0, 0.0]))


class TestEig:
    def test_diagonal_matrix(self):
        dec = eig_hermitian(HermitianOperator(np.diag([3.0, 1.0, 0.0])))
        assert np.allclose(dec.eigenvalues, [0.0, 1.0, 3.0])

    def test_spin1_sx_spectrum(self):
        dec = eig_hermitian(SX)
        assert np.allclose(dec.eigenvalues, [-1.0, 0.0, 1.0], atol=1e-14)

    def test_recomposition_random_gue(self):
        a = gue(5, np.random.default_rng(11))
        dec = eig_hermitian(a)
        rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
        norm = float(np.max(np.abs(a.matrix)))
        assert np.max(np.abs(rebuilt - a.matrix)) < 1e-10 * norm

    def test_unitarity_of_eigenvectors(self):
        dec = eig_hermitian(gue(6, np.random.default_rng(2)))
        v = dec.eigenvectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(6))) < 1e-10

    def test_eigenvalues_ascending(self):
        dec = eig_hermitian(gue(7, np.random.default_rng(3)))
        assert np.all(np.diff(dec.eigenvalues) >= 0)

    def test_degenerate_block_gets_canonical_basis(self):
        dec = eig_hermitian(HermitianOperator(np.diag([1.0, 1.0, 0.0])))
        # eigenvalue 0 -> e2; the doubly degenerate eigenvalue 1 -> {e0, e1}
        expected = np.zeros((3, 3), dtype=complex)
        expected[2, 0] = 1.0
        expected[0, 1] = 1.0
        expected[1, 2] = 1.0
        assert np.allclose(dec.eigenvectors, expected, atol=1e-14)

    def test_blocks_of_a_spread_beyond_the_largest_float(self):
        # Unscaled, as eig_hermitian gives them, and scaled, as eigh_stack does: the
        # spread 3.4e308 is not a float, and 0 and 1e-14 are within its tolerance.
        m = HermitianOperator(np.diag([1.7e308, 1e-14, 0.0, -1.7e308]))
        w, _, e = eigh_stack(m.matrix[None])
        expected = [range(0, 1), range(1, 3), range(3, 4)]
        assert degenerate_blocks(eig_hermitian(m).eigenvalues) == expected
        assert degenerate_blocks(w[0], e[0]) == expected
        assert degenerate_blocks(np.array([-1.7e308, 1.7e308])) == [range(0, 1), range(1, 2)]

    def test_identity_fully_degenerate(self):
        dec = eig_hermitian(HermitianOperator(np.eye(4)))
        assert np.allclose(dec.eigenvectors, np.eye(4), atol=1e-14)

    def test_decomposes_an_operator_once_into_read_only_arrays(self, monkeypatch):
        a = gue(3, np.random.default_rng(6))
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
        dec = eig_hermitian(a)
        assert calls == [(1, 3, 3)]
        for array in (dec.eigenvalues, dec.eigenvectors):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_spread_beyond_the_float_maximum_keeps_the_eigenvectors(self):
        # max - min overflows; that made every gap degenerate and the basis canonical.
        a = HermitianOperator(np.diag([1.7e308, -1.7e308]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dec = eig_hermitian(a)
        residual = np.abs(a.matrix @ dec.eigenvectors - dec.eigenvectors * dec.eigenvalues)
        assert dec.eigenvalues.tolist() == [-1.7e308, 1.7e308]
        assert residual.max() <= 1e-15 * 1.7e308

    def test_deterministic_for_identical_input(self):
        rng = np.random.default_rng(5)
        m = gue(4, rng)
        d1 = eig_hermitian(m)
        d2 = eig_hermitian(HermitianOperator(m.matrix.copy()))
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestStackedEig:
    def test_decomposes_the_fixture_shaped_matrix_at_every_scale(self):
        # [[s, .4+.2i, 0], [.4-.2i, 0, .4], [0, .4, -s]]: unscaled, LAPACK's eigh stops
        # with "did not converge" at hundreds of these s.
        s = np.geomspace(1e100, 1e307, 2000)
        m = np.zeros((s.size, 3, 3), dtype=complex)
        m[:, 0, 0], m[:, 2, 2] = s, -s
        m[:, 0, 1], m[:, 1, 0] = 0.4 + 0.2j, 0.4 - 0.2j
        m[:, 1, 2] = m[:, 2, 1] = 0.4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, v, e = eigh_stack(m)
            values, _, exponents = scaled_eigh(m, vectors=False)
        assert np.array_equal(e, exponents)
        for spectrum in (w, values):
            assert np.isfinite(spectrum).all()
            assert np.ldexp(spectrum[:, 2], e) == pytest.approx(s, rel=1e-14)
            assert np.ldexp(spectrum[:, 0], e) == pytest.approx(-s, rel=1e-14)
        assert np.abs(v.conj().swapaxes(1, 2) @ v - np.eye(3)).max() < 1e-14

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 6),
        count=st.integers(1, 5),
        ancilla=st.sampled_from([1, 2]),
        exponent=st.integers(-12, 12),
    )
    def test_fix_phases_equals_column_loop(self, seed, dim, count, ancilla, exponent):
        # ancilla=2 lifts onto H (x) 1: degenerate spectra, exact zeros and tied magnitudes.
        rng = np.random.default_rng(seed)
        stack = np.stack(
            [np.kron(gue(dim, rng).matrix, np.eye(ancilla)) * 10.0**exponent for _ in range(count)]
        )
        vectors = np.linalg.eigh(stack)[1]
        fixed = _fix_phases(vectors)
        for n in range(count):
            expected = fix_phases_by_column(vectors[n])
            assert same_bits(fixed[n], expected)
            assert same_bits(_fix_phases(vectors[n]), expected)

    def test_eigh_stack_equals_eig_hermitian(self):
        rng = np.random.default_rng(12)
        ops = [gue(4, rng) for _ in range(3)]
        ops += [HermitianOperator(np.kron(gue(2, rng).matrix, np.eye(2))) for _ in range(3)]
        ops += [
            HermitianOperator(np.eye(4)),
            HermitianOperator(np.zeros((4, 4))),
            HermitianOperator(np.diag([1.0, 1.0, 2.0, 3.0])),
            # rank 2: a doubly degenerate zero and tied entry magnitudes
            HermitianOperator(SX.matrix[:2, :2].repeat(2, 0).repeat(2, 1)),
        ]
        w, v, e = eigh_stack(np.stack([op.matrix for op in ops]))
        for n, op in enumerate(ops):
            dec = eig_hermitian(op)
            assert same_bits(np.ldexp(w[n], e[n]), dec.eigenvalues)
            assert same_bits(v[n], dec.eigenvectors)


    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 6),
        kinds=st.lists(st.sampled_from(("gue", "gap", "zero", "identity")), min_size=1, max_size=5),
        ancilla=st.integers(1, 3),
        exponent=st.integers(-12, 12),
        offset=st.floats(-1e-2, 1e-2),
    )
    def test_eigh_stack_and_eig_hermitian_equal_the_reference(
        self, seed, dim, kinds, ancilla, exponent, offset
    ):
        rng = np.random.default_rng(seed)
        scale = 10.0**exponent
        ops = []
        for kind in kinds:
            if kind == "gap" and dim > 1:
                m = near_degenerate(rng, dim, scale, 1.0 + offset)
            elif kind in ("gue", "gap"):
                m = gue(dim, rng).matrix * scale
            else:
                m = np.zeros((dim, dim)) if kind == "zero" else np.eye(dim)
            ops.append(HermitianOperator(np.kron(m, np.eye(ancilla))))
        w, v, e = eigh_stack(np.stack([op.matrix for op in ops]))
        for n, op in enumerate(ops):
            ref_w, ref_v = eig_hermitian_reference(op)
            dec = eig_hermitian(op)
            assert same_bits(np.ldexp(w[n], e[n]), ref_w) and same_bits(v[n], ref_v)
            assert same_bits(dec.eigenvalues, ref_w) and same_bits(dec.eigenvectors, ref_v)


class TestExpm:
    def test_zero_time_is_identity(self):
        u = expm_unitary(gue(4, np.random.default_rng(0)), 0.0)
        assert np.allclose(u.matrix, np.eye(4), atol=1e-14)

    def test_sz_at_pi(self):
        u = expm_unitary(SZ, np.pi)
        assert np.allclose(u.matrix, np.diag([-1.0, 1.0, -1.0]), atol=1e-12)

    def test_matches_taylor_series(self):
        a = gue(4, np.random.default_rng(9))
        t = 0.3
        u = expm_unitary(a, t)
        oracle = taylor_expm(-1j * t * a.matrix)
        assert np.max(np.abs(u.matrix - oracle)) < 1e-9

    def test_group_property(self):
        a = gue(5, np.random.default_rng(21))
        u1 = expm_unitary(a, 0.7).matrix
        u2 = expm_unitary(a, 1.9).matrix
        u12 = expm_unitary(a, 2.6).matrix
        assert np.max(np.abs(u1 @ u2 - u12)) < 1e-9


    def test_spread_beyond_the_float_maximum(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = expm_unitary(HermitianOperator(np.diag([1.7e308, -1.7e308])), 1e-310)
        expected = np.diag(np.exp(-1j * 1e-310 * np.array([1.7e308, -1.7e308])))
        assert np.max(np.abs(u.matrix - expected)) < 1e-15


class TestCheckUnitary:
    def test_rejects_a_nan_matrix_alone_and_in_a_stack(self):
        nan = np.full((2, 2), np.nan, dtype=complex)
        message = r"^matrix is not unitary: max \|U\^dag U - 1\| = nan$"
        for m in (nan, np.stack([np.eye(2, dtype=complex), nan])):
            with pytest.raises(DimensionMismatch, match=message):
                check_unitary(m)
        with pytest.raises(DimensionMismatch, match=message):
            UnitaryOperator(nan)

    def test_names_the_first_failing_matrix_of_a_stack(self):
        stack = np.stack([np.eye(2), 1.5 * np.eye(2), np.full((2, 2), np.nan)]).astype(complex)
        with pytest.raises(DimensionMismatch, match=r"= 1\.250e\+00$"):
            check_unitary(stack)
        assert np.array_equal(check_unitary(stack[:1]), stack[:1])


class TestSeminorm:
    def test_spin1_sz(self):
        assert seminorm(SZ) == pytest.approx(2.0, abs=1e-14)

    def test_identity_vanishes(self):
        assert seminorm(HermitianOperator(np.eye(5))) == pytest.approx(0.0, abs=1e-14)

    def test_triangle_inequality_campaign(self):
        rng = np.random.default_rng(100)
        for _ in range(1000):
            b = gue(6, rng)
            c = gue(6, rng)
            total = seminorm(HermitianOperator(b.matrix + c.matrix))
            assert total <= seminorm(b) + seminorm(c) + 1e-10

    def test_unitary_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = gue(5, rng)
            u = expm_unitary(gue(5, rng), 1.0).matrix
            rotated = HermitianOperator(u @ a.matrix @ u.conj().T)
            assert seminorm(rotated) == pytest.approx(seminorm(a), abs=1e-9)


class TestExpectationVariance:
    def test_eigenstate(self):
        up = PureState(np.array([1.0, 0.0, 0.0]))
        assert variance(SZ, up) == pytest.approx(0.0, abs=1e-14)

    def test_balanced_superposition(self):
        psi = PureState(np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0))
        assert variance(SZ, psi) == pytest.approx(1.0, abs=1e-14)

    def test_popoviciu_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = gue(4, rng)
            psi = PureState(random_state(rng, 4))
            assert 4.0 * variance(a, psi) <= seminorm(a) ** 2 + 1e-9

    def test_popoviciu_equality_at_balanced_extremal_probe(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = gue(5, rng)
            dec = eig_hermitian(a)
            psi = PureState((dec.eigenvectors[:, -1] + dec.eigenvectors[:, 0]) / np.sqrt(2.0))
            assert 4.0 * variance(a, psi) == pytest.approx(seminorm(a) ** 2, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            variance(SZ, PureState(np.array([1.0, 0.0])))


class TestRandomHermitian:
    def test_deterministic_per_seed(self):
        a = random_hermitian(3, 42)
        b = random_hermitian(3, 42)
        assert np.array_equal(a.matrix, b.matrix)

    def test_hermitian_invariant(self):
        a = random_hermitian(5, 1)
        assert np.array_equal(a.matrix, a.matrix.conj().T)

    def test_gue_mean_spectral_spread(self):
        # For 2x2 GUE with this normalization the spread is sqrt(2)*chi_3
        # distributed, so E[spread] = 4/sqrt(pi) = 2.2567583341910251.
        rng = np.random.default_rng(0)
        spreads = [seminorm(random_hermitian(2, rng)) for _ in range(1000)]
        expected = 2.2567583341910251
        assert abs(np.mean(spreads) - expected) < 0.1 * expected

    def test_rejects_bad_dimension(self):
        with pytest.raises(DimensionMismatch):
            random_hermitian(0, 1)
