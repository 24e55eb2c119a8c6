"""Shared test utilities: random family factories and small oracles."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from qfiext import HamiltonianFamily, HermitianOperator, random_hermitian


def gue(dim: int, rng: np.random.Generator) -> HermitianOperator:
    return random_hermitian(dim, rng)


def polynomial_family(rng: np.random.Generator, dim: int) -> HamiltonianFamily:
    """H(theta) = A + theta*B + theta^2*C with GUE coefficients and analytic derivatives."""
    a = gue(dim, rng).matrix
    b = gue(dim, rng).matrix
    c = gue(dim, rng).matrix
    return HamiltonianFamily(
        dim,
        lambda th: HermitianOperator(a + th * b + th * th * c),
        lambda th: HermitianOperator(b + 2.0 * th * c),
        lambda th: HermitianOperator(2.0 * c),
    )


def commuting_family(rng: np.random.Generator, dim: int) -> HamiltonianFamily:
    """H(theta) = A + theta*B with [A, B] = 0 (common eigenbasis, random spectra)."""
    basis = np.linalg.qr(
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    )[0]
    da = rng.standard_normal(dim)
    db = rng.standard_normal(dim)
    a = (basis * da) @ basis.conj().T
    b = (basis * db) @ basis.conj().T
    return HamiltonianFamily(
        dim,
        lambda th: HermitianOperator(a + th * b),
        lambda th: HermitianOperator(b),
        lambda th: HermitianOperator(np.zeros((dim, dim), dtype=complex)),
    )


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


def taylor_expm(matrix: np.ndarray, terms: int = 30) -> np.ndarray:
    """Truncated Taylor series of exp(matrix); independent oracle for expm_unitary."""
    out = np.eye(matrix.shape[0], dtype=complex)
    term = np.eye(matrix.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ matrix / k
        out = out + term
    return out


def matrix_doc(m: np.ndarray) -> dict:
    """A matrix as a family file writes it."""
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


@st.composite
def family_documents(
    draw, min_dim=2, max_dim=4, kinds=("const", "linear", "sin", "cos"), explicit_derivative=False
):
    """A family file document with GUE term matrices and random coefficients.

    With ``explicit_derivative`` about half of the documents carry
    ``derivative_terms``. Coefficient parameters are normal floats or zero:
    a subnormal input carries fewer than 53 significant bits, so no result
    derived from it has full relative precision.
    """
    dim = draw(st.integers(min_dim, max_dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def number(bound):
        return draw(st.floats(-bound, bound, allow_subnormal=False))

    def terms(count):
        return [
            {
                "coefficient": {
                    "kind": draw(st.sampled_from(kinds)),
                    "scale": number(2.0),
                    "frequency": number(3.0),
                    "phase": number(3.0),
                },
                "matrix": matrix_doc(random_hermitian(dim, rng).matrix),
            }
            for _ in range(count)
        ]

    doc = {"dim": dim, "terms": terms(draw(st.integers(1, 4)))}
    if explicit_derivative and draw(st.booleans()):
        doc["derivative_terms"] = terms(draw(st.integers(1, 3)))
    return doc
