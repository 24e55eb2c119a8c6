"""Tests for the custom family definition file format."""

import json

import numpy as np
import pytest
from importlib import resources

from qfiext import FamilyFileError, NonHermitianInput, validate_family
from qfiext.cli import main
from qfiext.familyfile import (
    build_family,
    load_definition,
    parse_definition,
    parse_matrix,
    validate_file,
)
from qfiext.family import factor
from qfiext.linalg import HermitianOperator, hermitized

FIXTURES = resources.files("qfiext").joinpath("data/fixtures")


def fixture_path(name: str) -> str:
    return str(FIXTURES.joinpath(name))


def write_doc(tmp_path, doc) -> str:
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


BASE_DOC = {
    "dim": 2,
    "terms": [
        {
            "coefficient": {"kind": "linear", "scale": 2.0},
            "matrix": {"re": [[1.0, 0.0], [0.0, -1.0]]},
        },
        {
            "coefficient": {"kind": "sin", "scale": 0.5, "frequency": 3.0, "phase": 0.2},
            "matrix": {"re": [[0.0, 1.0], [1.0, 0.0]], "im": [[0.0, 0.5], [-0.5, 0.0]]},
        },
        {
            "coefficient": {"kind": "cos", "scale": 1.5, "frequency": 2.0},
            "matrix": {"re": [[0.3, 0.0], [0.0, 0.1]]},
        },
    ],
}


class TestParsing:
    def test_shipped_valid_fixture_loads(self):
        fam = build_family(load_definition(fixture_path("valid-family.json")))
        assert fam.dim == 3
        assert np.allclose(
            fam.derivative(0.7).matrix, np.diag([1.0, 0.0, -1.0]).astype(complex)
        )

    def test_parse_error_reports_line_and_column(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"dim": 2,\n  "terms": [}', encoding="utf-8")
        with pytest.raises(FamilyFileError, match=r"line 2, column 13"):
            load_definition(str(path))

    def test_missing_dim(self):
        with pytest.raises(FamilyFileError, match="dim"):
            parse_definition({"terms": []})

    def test_empty_terms(self):
        with pytest.raises(FamilyFileError, match="terms"):
            parse_definition({"dim": 2, "terms": []})

    def test_unknown_coefficient_kind(self, tmp_path):
        doc = {
            "dim": 1,
            "terms": [{"coefficient": {"kind": "tan"}, "matrix": {"re": [[1.0]]}}],
        }
        with pytest.raises(FamilyFileError, match=r"terms\[0\].*kind"):
            parse_definition(doc)

    def test_wrong_matrix_shape(self):
        doc = {
            "dim": 2,
            "terms": [{"coefficient": {"kind": "const"}, "matrix": {"re": [[1.0]]}}],
        }
        with pytest.raises(FamilyFileError, match="2x2"):
            parse_definition(doc)

    def test_non_hermitian_matrix_flagged_with_term_index(self):
        doc = {
            "dim": 2,
            "terms": [
                {"coefficient": {"kind": "const"}, "matrix": {"re": [[0.0, 1.0], [0.0, 0.0]]}}
            ],
        }
        with pytest.raises(NonHermitianInput, match=r"terms\[0\]"):
            parse_definition(doc)


# A bad entry at re[1][0], each also in a ragged block and in one nested deeper.
BAD_ENTRIES = [True, "1", None]
BAD_BLOCKS = [
    lambda bad: [[1, 0], [bad, 1]],
    lambda bad: [[1, 0, 2], [bad]],
    lambda bad: [[1], [bad, [2]]],
]


class TestParseMatrix:
    @pytest.mark.parametrize("block", BAD_BLOCKS)
    @pytest.mark.parametrize("bad", BAD_ENTRIES)
    def test_non_number_entry_is_named(self, bad, block):
        expected = f"m: non-numeric entry re[1][0] = {json.dumps(bad)}"
        with pytest.raises(FamilyFileError) as raised:
            parse_matrix({"re": block(bad)}, "m")
        assert str(raised.value) == expected
        with pytest.raises(FamilyFileError) as raised:
            parse_matrix({"re": [[1, 0], [0, 1]], "im": block(bad)}, "m")
        assert str(raised.value) == expected.replace("re[", "im[")

    def test_numbers_of_any_list_shape_reach_the_shape_check(self):
        for block in ([[1, 0], [0]], [1, 0], [[[1.0]]], 5):
            with pytest.raises(FamilyFileError, match="matrix blocks must"):
                parse_matrix({"re": block}, "m", 2)

    def test_ints_floats_and_numpy_floats_parse_alike(self):
        plain = parse_matrix({"re": [[1, 0.5], [0.5, -2]], "im": [[0, 1], [-1, 0]]}, "m")
        numpy_floats = [[np.float64(1), np.float64(0.5)], [np.float64(0.5), np.float64(-2)]]
        other = parse_matrix({"re": numpy_floats, "im": [[0.0, 1.0], [-1.0, 0.0]]}, "m")
        assert plain.matrix.tobytes() == other.matrix.tobytes()


class TestBuiltFamilies:
    def test_value_matches_manual_sum(self, tmp_path):
        fam = build_family(load_definition(write_doc(tmp_path, BASE_DOC)))
        theta = 0.9
        expected = (
            2.0 * theta * np.diag([1.0, -1.0])
            + 0.5 * np.sin(3.0 * theta + 0.2) * np.array([[0, 1 + 0.5j], [1 - 0.5j, 0]])
            + 1.5 * np.cos(2.0 * theta) * np.diag([0.3, 0.1])
        )
        assert np.allclose(fam.value(theta).matrix, expected, atol=1e-15)

    def test_analytic_derivatives_consistent_with_fd(self, tmp_path):
        fam = build_family(load_definition(write_doc(tmp_path, BASE_DOC)))
        check = validate_family(fam, (-1.0, -0.3, 0.0, 0.4, 1.2))
        assert check.ok

    def test_second_derivative_present(self, tmp_path):
        fam = build_family(load_definition(write_doc(tmp_path, BASE_DOC)))
        expected = -0.5 * 9.0 * np.sin(3.0 * 0.1 + 0.2) * np.array(
            [[0, 1 + 0.5j], [1 - 0.5j, 0]]
        ) + (-1.5 * 4.0 * np.cos(2.0 * 0.1)) * np.diag([0.3, 0.1])
        assert np.allclose(fam.second_derivative(0.1).matrix, expected, atol=1e-14)

    def test_derivative_terms_override(self, tmp_path):
        doc = dict(BASE_DOC)
        doc["derivative_terms"] = [
            {"coefficient": {"kind": "const", "scale": 2.0}, "matrix": {"re": [[1.0, 0.0], [0.0, -1.0]]}}
        ]
        fam = build_family(parse_definition(doc))
        assert np.allclose(fam.derivative(0.5).matrix, np.diag([2.0, -2.0]), atol=1e-15)


class TestValidateFile:
    def test_valid_fixture_ok(self):
        diag = validate_file(fixture_path("valid-family.json"))
        assert diag.status == "ok"
        assert diag.derivative_check is not None and diag.derivative_check.ok
        assert len(diag.extremal_degeneracy) == 5

    def test_corrupt_derivative_fixture(self):
        diag = validate_file(fixture_path("corrupt-derivative.json"))
        assert diag.status == "derivative"
        assert any("derivative mismatch" in m for m in diag.messages)
        assert diag.derivative_check.max_deviation == pytest.approx(0.5, abs=1e-9)

    def test_non_hermitian_fixture(self):
        diag = validate_file(fixture_path("nonhermitian-family.json"))
        assert diag.status == "invariant"
        assert any("not Hermitian" in m for m in diag.messages)

    def test_extremal_eigenvalues_of_a_spread_beyond_the_largest_float(self, tmp_path):
        # dH/dtheta = diag(1.7e308, -1.7e308): its spread is not a float.
        term = {"coefficient": {"kind": "linear", "scale": 1.0},
                "matrix": {"re": [[1.7e308, 0.0], [0.0, -1.7e308]]}}
        diag = validate_file(write_doc(tmp_path, {"dim": 2, "terms": [term]}))
        assert diag.status == "ok"
        assert all("non-degenerate (min multiplicity 1, max multiplicity 1)" in line
                   for line in diag.extremal_degeneracy)

    def test_missing_file(self):
        diag = validate_file("does-not-exist.json")
        assert diag.status == "invariant"



def _signed_zero_doc(rng: np.random.Generator) -> dict:
    """A family document of 1-6 terms over all four kinds whose coefficients and
    matrices hold +0.0 and -0.0: random Hermitian matrices with zeroed entries,
    some without "im", some with int entries (which take the array path)."""
    dim = int(rng.integers(1, 5))
    zero = lambda: float(rng.choice([0.0, -0.0]))

    def number():
        return zero() if rng.random() < 0.3 else float(rng.standard_normal())

    def matrix():
        re, im = rng.standard_normal((2, dim, dim))
        re, im = (re + re.T) / 2, (im - im.T) / 2
        for i, j in zip(*np.nonzero(rng.random((dim, dim)) < 0.3)):
            re[i, j] = re[j, i] = zero()
            im[i, j], im[j, i] = zero(), zero()
        np.fill_diagonal(im, 0.0)
        doc = {"re": re.tolist()}
        if rng.random() < 0.8:
            doc["im"] = im.tolist()
        if rng.random() < 0.2:
            doc["re"][0][0] = 0
        return doc

    def terms(count):
        return [{"coefficient": {"kind": str(rng.choice(["const", "linear", "sin", "cos"])),
                                 "scale": number(), "frequency": number(), "phase": number()},
                 "matrix": matrix()} for _ in range(count)]

    doc = {"dim": dim, "terms": terms(int(rng.integers(1, 7)))}
    if rng.random() < 0.5:
        doc["derivative_terms"] = terms(int(rng.integers(1, 4)))
    return doc


# The coefficient catalog, written apart from ``familyfile``: each kind's c, dc/dtheta and
# d^2c/dtheta^2 as functions of (scale, frequency, phase, theta).
CATALOG = {
    "const": (lambda s, w, p, x: s, lambda s, w, p, x: 0.0, lambda s, w, p, x: 0.0),
    "linear": (lambda s, w, p, x: s * x, lambda s, w, p, x: s, lambda s, w, p, x: 0.0),
    "sin": (lambda s, w, p, x: s * np.sin(w * x + p),
            lambda s, w, p, x: s * w * np.cos(w * x + p),
            lambda s, w, p, x: -(w * w) * s * np.sin(w * x + p)),
    "cos": (lambda s, w, p, x: s * np.cos(w * x + p),
            lambda s, w, p, x: -s * w * np.sin(w * x + p),
            lambda s, w, p, x: -(w * w) * s * np.cos(w * x + p)),
}


def _term_matrix(term: dict) -> np.ndarray:
    m = term["matrix"]
    re = np.asarray(m["re"], dtype=float)
    return HermitianOperator(re + 1j * np.asarray(m.get("im", np.zeros_like(re)))).matrix


def term_by_term(terms: list, theta, order: int = 0) -> np.ndarray:
    """The reference sum of the ``order``-th derivatives of the terms' coefficients: each
    term's matrix checked on its own, each term's product formed on its own and added in file
    order to a zero matrix, then hermitized as a family's matrices are."""
    total = None
    for term in terms:
        c, matrix = term["coefficient"], _term_matrix(term)
        if total is None:
            total = np.zeros(np.shape(theta) + matrix.shape, dtype=complex)
        value = CATALOG[c["kind"]][order](c["scale"], c["frequency"], c["phase"], theta)
        total = total + factor(value) * matrix
    return hermitized(total)


@pytest.mark.parametrize("seed", range(40))
def test_stacked_sums_have_the_bits_of_the_term_by_term_sum(seed):
    """H and dH/dtheta keep the reference's bits. d^2H/dtheta^2 is the derivative of the
    derivative's coefficients, which rounds differently from the textbook -(w*w)*s formula:
    within 4 eps * sum_k |s_k| w_k^2 max|M_k| over the sin and cos terms."""
    rng = np.random.default_rng(seed)
    doc = _signed_zero_doc(rng)
    family = build_family(parse_definition(doc))
    terms = doc["terms"]
    derivative_terms, order = (doc["derivative_terms"], 0) if "derivative_terms" in doc \
        else (terms, 1)
    tolerance = 4 * np.finfo(float).eps * sum(
        abs(term["coefficient"]["scale"]) * term["coefficient"]["frequency"] ** 2
        * np.abs(_term_matrix(term)).max()
        for term in terms if term["coefficient"]["kind"] in ("sin", "cos"))
    grid = np.concatenate([[0.0, -0.0], rng.uniform(-3.0, 3.0, 5)])
    for theta in grid.tolist():
        assert family.value(theta).matrix.tobytes() == term_by_term(terms, theta).tobytes()
        assert family.derivative(theta).matrix.tobytes() == \
            term_by_term(derivative_terms, theta, order).tobytes()
        second = family.second_derivative(theta).matrix - term_by_term(terms, theta, 2)
        assert np.abs(second).max() <= tolerance
    assert family.values(grid).tobytes() == term_by_term(terms, grid).tobytes()
    assert family.derivatives(grid).tobytes() == \
        term_by_term(derivative_terms, grid, order).tobytes()


H2 = {"re": [[1.0, 0.5], [0.5, -1.0]], "im": [[0.0, 0.25], [-0.25, 0.0]]}
SKEW = {"re": [[0.0, 1.0], [0.0, 0.0]]}
NOT_HERMITIAN = ("matrix is not Hermitian: |A[0][1] - conj(A[1][0])| = 1.000e+00 "
                 "exceeds 1e-12 * max|entry| = 1.000e-12")


def _term(matrix, kind="const"):
    return {"coefficient": {"kind": kind}, "matrix": matrix}


# Which failing term is named, in file order, when a file has more than one fault.
FIRST_FAULT = [
    ([_term(SKEW), _term(H2, "tan")], f"terms[0]: {NOT_HERMITIAN}"),
    ([{"coefficient": {"kind": "const"}}, _term(SKEW)],
     "terms[0]: term needs 'coefficient' and 'matrix'"),
    ([_term(H2), _term({"re": [[float("nan"), 0.0], [0.0, 1.0]]})],
     "terms[1]: matrix has a non-finite entry A[0][0] = (nan+0j)"),
    ([_term(H2), _term({"re": [[1.0, 0.0], [0.0]]})],
     "terms[1]: matrix blocks must be numeric matrices: setting an array element with a "
     "sequence. The requested array has an inhomogeneous shape after 1 dimensions. The "
     "detected shape was (2,) + inhomogeneous part."),
    ([_term(H2), _term(SKEW), _term({"re": [[1.0, 0.0], [0.0]]})], f"terms[1]: {NOT_HERMITIAN}"),
    ([_term(H2), _term(H2, "tan"), _term(SKEW)],
     "terms[1]: coefficient.kind must be one of const, linear, sin, cos"),
]


@pytest.mark.parametrize("terms, message", FIRST_FAULT)
def test_the_first_fault_in_file_order_is_named(tmp_path, capsys, terms, message):
    path = write_doc(tmp_path, {"dim": 2, "terms": terms})
    code = main(["report", "--model", "custom", "--family-file", path])
    assert (code, capsys.readouterr().err) == (2, f"error: {message}\n")
