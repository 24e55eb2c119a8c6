"""Tests for grid evaluation of Hamiltonian families: values() and derivatives().

Every family the toolkit builds evaluates a whole grid from the same formula
as its scalar maps, so each stacked matrix must carry the bits of the scalar
evaluation at its grid value.
"""

import json
import math
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfiext import (
    DimensionMismatch,
    DirectionParams,
    HamiltonianFamily,
    HermitianOperator,
    NonHermitianInput,
    NvParams,
    add_operator,
    broken_phase_shift_family,
    direction_family,
    direction_sz_family,
    flood,
    nv_family,
    random_hermitian,
    subtract,
    subtract_perturbed,
    tensor_identity,
)
from qfiext import linalg
from qfiext.family import factor
from qfiext.familyfile import parse_definition, build_family
from qfiext.models import gyromagnetic_ratio
from qfiext.sweep import load_model_family
from helpers import family_documents, matrix_doc, polynomial_family

KINDS = ("const", "linear", "sin", "cos")

finite = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
grids = st.lists(finite, min_size=1, max_size=12)


def assert_stack_matches_scalar(family: HamiltonianFamily, thetas: list[float]):
    values = family.values(thetas)
    derivatives = family.derivatives(thetas)
    assert values.shape in ((len(thetas), family.dim, family.dim), (family.dim, family.dim))
    for n, theta in enumerate(thetas):
        value = values if values.ndim == 2 else values[n]
        derivative = derivatives if derivatives.ndim == 2 else derivatives[n]
        assert value.tobytes() == family.value(theta).matrix.tobytes()
        assert derivative.tobytes() == family.derivative(theta).matrix.tobytes()


def direction_params(phi):
    return DirectionParams(B=1.3e-9, theta=0.4, phi=phi, t=1e-2)


class TestStackedEqualsScalar:
    @settings(max_examples=40, deadline=None)
    @given(grids, st.floats(-0.2, 0.2), st.floats(0.0, 0.2), st.floats(-0.1, 0.1))
    def test_nv(self, thetas, bx, by, bz):
        assert_stack_matches_scalar(nv_family(NvParams(Bx=bx, By=by, Bz=bz)), thetas)

    @settings(max_examples=40, deadline=None)
    @given(grids, st.floats(0.1, 3.0))
    def test_direction(self, thetas, phi):
        assert_stack_matches_scalar(direction_family(direction_params(phi)), thetas)

    @settings(max_examples=40, deadline=None)
    @given(grids, st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_broken_phase_shift(self, thetas, seed, dim):
        rng = np.random.default_rng(seed)
        family = broken_phase_shift_family(random_hermitian(dim, rng), random_hermitian(dim, rng))
        assert_stack_matches_scalar(family, thetas)

    @settings(max_examples=60, deadline=None)
    @given(grids, family_documents(min_dim=1, explicit_derivative=True))
    def test_custom_file(self, thetas, doc):
        assert_stack_matches_scalar(build_family(parse_definition(doc)), thetas)

    @settings(max_examples=60, deadline=None)
    @given(
        grids,
        st.sampled_from(("nv", "direction", "custom")),
        st.sampled_from(("flood", "subtract", "subtract-perturbed", "add-operator", "sz")),
        st.floats(-1.0, 1.0),
        st.floats(-0.5, 0.5),
        st.integers(0, 2**32 - 1),
    )
    def test_extensions(self, thetas, model, kind, theta0, parameter, seed):
        rng = np.random.default_rng(seed)
        params = direction_params(0.7)
        if kind == "sz":
            family = direction_sz_family(params, parameter)
        else:
            if model == "nv":
                family = nv_family(NvParams(Bx=0.1))
            elif model == "direction":
                family = direction_family(params)
            else:
                doc = {
                    "dim": 2,
                    "terms": [
                        {"coefficient": {"kind": k, "scale": 0.7, "frequency": 1.3},
                         "matrix": matrix_doc(random_hermitian(2, rng).matrix)}
                        for k in KINDS
                    ],
                }
                family = build_family(parse_definition(doc))
            if kind == "flood":
                family = flood(family, theta0, parameter)
            elif kind == "subtract":
                family = subtract(family, theta0)
            elif kind == "subtract-perturbed":
                family = subtract_perturbed(family, theta0, parameter)
            else:
                family = add_operator(family, random_hermitian(family.dim, rng), parameter)
        assert_stack_matches_scalar(family, thetas)

    @settings(max_examples=20, deadline=None)
    @given(grids, st.integers(0, 2**32 - 1))
    def test_family_from_scalar_maps_loops_over_the_grid(self, thetas, seed):
        family = polynomial_family(np.random.default_rng(seed), 3)
        assert family.value_stack is None
        assert_stack_matches_scalar(family, thetas)
        assert family.values(thetas).shape == (len(thetas), 3, 3)


    @settings(max_examples=40, deadline=None)
    @given(
        grids,
        st.sampled_from(("nv", "direction", "custom", "positional", "positional-first-only")),
        st.integers(1, 3),
        family_documents(min_dim=1, max_dim=3, explicit_derivative=True),
        st.integers(0, 2**32 - 1),
    )
    def test_tensor_identity(self, thetas, base, ancilla, doc, seed):
        if base == "nv":
            family = nv_family(NvParams(Bx=0.1))
        elif base == "direction":
            family = direction_family(direction_params(0.7))
        elif base == "custom":
            family = build_family(parse_definition(doc))
        else:
            family = polynomial_family(np.random.default_rng(seed), 2)
            if base == "positional-first-only":
                family = HamiltonianFamily(family.dim, family.value, family.derivative)
        lifted = tensor_identity(family, ancilla)
        assert lifted.value_stack is not None
        assert_stack_matches_scalar(lifted, thetas)
        maps = [(lifted.value, family.value), (lifted.derivative, family.derivative)]
        if family.second_derivative is None:
            assert lifted.second_derivative is None
        else:
            maps.append((lifted.second_derivative, family.second_derivative))
        for theta in thetas:
            for lifted_map, base_map in maps:
                kron = HermitianOperator(np.kron(base_map(theta).matrix, np.eye(ancilla)))
                assert lifted_map(theta).matrix.tobytes() == kron.matrix.tobytes()


class TestGridConstantMatrices:
    def test_nv_derivative_is_one_matrix(self):
        family = flood(nv_family(NvParams(Bx=0.1)), 0.0, 1e-3)
        assert family.values([0.0, 0.5, 1.0]).shape == (3, 3, 3)
        assert family.derivatives([0.0, 0.5, 1.0]).shape == (3, 3)

    def test_direction_derivative_varies(self):
        family = direction_family(direction_params(0.7))
        assert family.derivatives([0.0, 0.5]).shape == (2, 3, 3)

    def test_rejects_non_grid_argument(self):
        with pytest.raises(ValueError, match="1-D grid"):
            nv_family(NvParams()).values(0.5)


class TestStackedHermiticity:
    LOWER = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)

    def skewed(self) -> HamiltonianFamily:
        """Hermitian at theta = 0 only."""
        return HamiltonianFamily.from_formulas(
            2, lambda theta: factor(theta) * self.LOWER + np.eye(2), HermitianOperator(np.eye(2))
        )

    def test_failure_names_first_offending_grid_value(self):
        family = self.skewed()
        with pytest.raises(NonHermitianInput, match=r"^at theta=0\.25: matrix is not Hermitian"):
            family.values([0.0, 0.0, 0.25, -1.0])
        with pytest.raises(NonHermitianInput, match="not Hermitian"):
            family.value(0.25)

    def test_shifted_family_names_its_grid_value(self):
        family = add_operator(self.skewed(), HermitianOperator(np.eye(2)), 1.0)
        with pytest.raises(NonHermitianInput, match=r"^at theta=-1\.0: "):
            family.values([0.0, -1.0, 0.25])

    def test_nan_term_rejected_in_file_family(self):
        doc = {
            "dim": 2,
            "terms": [
                {"coefficient": {"kind": "linear"}, "matrix": {"re": [[float("nan"), 0], [0, 1]]}}
            ],
        }
        with pytest.raises(NonHermitianInput, match=r"terms\[0\]: matrix has a non-finite entry"):
            parse_definition(json.loads(json.dumps(doc)))


def _checked_constructors(monkeypatch):
    """Point every module's unchecked constructors at the checked ones."""
    for name, module in list(sys.modules.items()):
        if name == "qfiext" or name.startswith("qfiext."):
            for unchecked, checked in (("as_hermitian", HermitianOperator),
                                       ("hermitized", linalg.symmetrized)):
                if getattr(module, unchecked, None) is getattr(linalg, unchecked):
                    monkeypatch.setattr(module, unchecked, checked)


def _outcome(evaluate):
    """The bytes that ``evaluate()`` gives, or the type and message of what it raises.

    Large entries can overflow a sum of the family's terms, with numpy's
    warning on both sides; that is not what is compared here.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return evaluate().tobytes()
    except Exception as exc:  # noqa: BLE001 - compared between the two sides
        return type(exc), str(exc)


def _toolkit_family(model, extension, ancilla, big, rng, directory):
    """A family as the toolkit builds it; ``big`` puts entries above half the float maximum."""
    def gue(scale=1.0):
        m = random_hermitian(2, rng).matrix
        return m / np.abs(m).max() * scale

    huge = 1.5e308 if big else 1.0
    if model == "nv":
        family = nv_family(NvParams(Bx=0.1, D=1e308 if big else 2e10))
    elif model in ("direction", "sz"):
        b = 1.2e308 / gyromagnetic_ratio() if big else 1.3e-9
        params = DirectionParams(B=b, theta=0.4, phi=0.7, t=1e-2)
        family = direction_sz_family(params, 0.05) if model == "sz" else direction_family(params)
    else:
        kinds = ("linear", "const") if model == "broken-phase-shift" else KINDS
        terms = [{"coefficient": {"kind": kind, "scale": 0.7, "frequency": 1.3},
                  "matrix": matrix_doc(gue(huge if kind == "const" else 1.0))} for kind in kinds]
        path = Path(directory) / "family.json"
        path.write_text(json.dumps({"dim": 2, "terms": terms}), encoding="utf-8")
        family = load_model_family(model, path)
    if extension == "flood":
        family = flood(family, 0.2, 0.6)
    elif extension == "subtract":
        family = subtract(family, 0.2)
    elif extension == "subtract-perturbed":
        family = subtract_perturbed(family, 0.2, 0.05)
    elif extension == "add-operator":
        family = add_operator(family, random_hermitian(family.dim, rng), 0.3)
    return tensor_identity(family, ancilla) if ancilla > 1 else family


class TestUncheckedFormulasKeepTheCheckedBits:
    """The toolkit's formulas skip the asymmetry test and keep the checked bits."""

    @settings(max_examples=80, deadline=None)
    @given(
        grids,
        st.sampled_from(("nv", "direction", "sz", "broken-phase-shift", "custom")),
        st.sampled_from((None, "flood", "subtract", "subtract-perturbed", "add-operator")),
        st.integers(1, 3),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_values_and_grids_equal_the_checked_construction(
        self, thetas, model, extension, ancilla, big, seed
    ):
        def outcomes(directory):
            rng = np.random.default_rng(seed)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    family = _toolkit_family(model, extension, ancilla, big, rng, directory)
            except Exception as exc:  # noqa: BLE001 - an overflowing extension term
                return [(type(exc), str(exc))]
            found = [_outcome(lambda: family.values(thetas)),
                     _outcome(lambda: family.derivatives(thetas))]
            for theta in thetas:
                found += [_outcome(lambda: family.value(theta).matrix),
                          _outcome(lambda: family.derivative(theta).matrix)]
            return found

        with tempfile.TemporaryDirectory() as directory:
            unchecked = outcomes(directory)
            with pytest.MonkeyPatch.context() as monkeypatch:
                _checked_constructors(monkeypatch)
                checked = outcomes(directory)
        assert unchecked == checked

    def test_entries_above_half_the_float_maximum_take_the_halved_sum(self):
        with tempfile.TemporaryDirectory() as directory:
            family = _toolkit_family("custom", None, 1, True, np.random.default_rng(3), directory)
            value = family.value(0.1).matrix
        assert np.abs(value).max() > np.finfo(float).max / 2 and np.isfinite(value).all()

    def test_a_non_finite_entry_raises_the_checked_message(self):
        family = flood(nv_family(NvParams()), 0.0, 1e-3)
        for evaluate in (lambda: family.value(1e300), lambda: family.values([0.0, 1e300])):
            with pytest.raises(NonHermitianInput, match="matrix has a non-finite entry") as raised:
                with np.errstate(over="ignore"):
                    evaluate()
            with pytest.MonkeyPatch.context() as monkeypatch:
                _checked_constructors(monkeypatch)
                with pytest.raises(NonHermitianInput) as expected:
                    with np.errstate(over="ignore"):
                        evaluate()
            assert str(raised.value) == str(expected.value)


def test_dimension_zero_rejected():
    value = lambda theta: HermitianOperator(np.eye(1))
    with pytest.raises(DimensionMismatch, match=r"^dimension must be >= 1, got 0$"):
        HamiltonianFamily(0, value, value)


class TestRememberedPoint:
    """A family keeps the ``point`` of its latest theta, keyed by theta's bits."""

    @staticmethod
    def family(calls: list, fails=lambda theta: False) -> HamiltonianFamily:
        def value(theta):
            calls.append(theta)
            if fails(theta):
                raise ValueError(f"no value at {theta!r}")
            return HermitianOperator(np.diag([theta, -theta]).astype(complex))

        return HamiltonianFamily(2, value, lambda theta: HermitianOperator(np.diag([1.0, -1.0])))

    def test_same_theta_is_evaluated_once(self):
        calls = []
        fam = self.family(calls)
        first = fam.point(0.3)
        assert fam.point(0.3) is first
        assert first.derivative is fam.point(0.3).derivative
        assert calls == [0.3]

    def test_zero_and_negative_zero_are_evaluated_separately(self):
        calls = []
        fam = self.family(calls)
        plus = fam.point(0.0)
        minus = fam.point(-0.0)
        assert plus is not minus and fam.point(-0.0) is minus
        assert [math.copysign(1.0, theta) for theta in calls] == [1.0, -1.0]

    def test_a_map_that_raises_raises_again_and_keeps_the_latest_point(self):
        calls = []
        fam = self.family(calls, fails=lambda theta: theta > 0.5)
        kept = fam.point(0.2)
        for _ in range(2):
            with pytest.raises(ValueError, match="no value at 1.0"):
                fam.point(1.0)
        assert fam.point(0.2) is kept
        assert calls == [0.2, 1.0, 1.0]

    def test_a_map_that_raised_once_is_called_again(self):
        calls = []
        fam = self.family(calls, fails=lambda theta: len(calls) == 1)
        with pytest.raises(ValueError):
            fam.point(0.7)
        assert fam.point(0.7) is fam.point(0.7)
        assert calls == [0.7, 0.7]

    def test_grid_evaluation_keeps_the_point(self):
        calls = []
        fam = self.family(calls)
        first = fam.point(0.3)
        grid = fam.values([0.1, 0.3, 0.5])
        assert fam.point(0.3) is first
        assert calls == [0.3, 0.1, 0.3, 0.5]
        assert np.array_equal(grid[1], first.value.matrix)
