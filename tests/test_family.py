"""Tests for grid evaluation of Hamiltonian families: values() and derivatives().

Every family the toolkit builds evaluates a whole grid from the same formula
as its scalar maps, so each stacked matrix must carry the bits of the scalar
evaluation at its grid value.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfiext import (
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
)
from qfiext.family import factor
from qfiext.familyfile import parse_definition, build_family
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
