"""Shared test utilities: random family factories and small oracles."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from qfiext import (
    Flood,
    channel_qfi,
    channel_qfi_brute,
    check_saturation,
    generator_fd,
    generator_quadrature,
    generator_spectral,
    HamiltonianFamily,
    HermitianOperator,
    SubtractPerturbed,
    apply_extension,
    random_hermitian,
    tensor_identity,
)
from qfiext import qfi
from qfiext.linalg import (
    DEGENERACY_ATOL,
    DEGENERACY_RTOL,
    _canonical_block_basis,
    degenerate_blocks,
)


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


def near_degenerate(rng: np.random.Generator, dim: int, scale: float, factor: float):
    """A random-basis Hermitian matrix with one gap ``factor`` times the degeneracy tolerance.

    At dim >= 3 the gap is interior and the spread is 2 * scale. At dim 2 the
    gap is the spread, so it sits at the absolute tolerance.
    """
    if dim == 2:
        w = np.array([0.0, DEGENERACY_ATOL * factor])
    else:
        w = np.sort(rng.uniform(-scale, scale, dim))
        w[0], w[-1] = -scale, scale
        k = int(rng.integers(1, dim - 1))
        w[k] = w[k - 1] + max(DEGENERACY_RTOL * 2.0 * scale, DEGENERACY_ATOL) * factor
    basis = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
    return (basis * np.sort(w)) @ basis.conj().T


def cross_check_cases(rng: np.random.Generator, dims=(2, 3, 4)) -> list:
    """(family, theta, t) as the verify benchmark builds them, each also lifted onto an ancilla.

    Per dimension: a GUE polynomial family as it is, flooded, and subtracted
    with a miscalibrated derivative; the lift onto a 2-dim ancilla makes every
    spectrum degenerate.
    """
    cases = []
    for dim in dims:
        for kind in (None, "flood", "subtract-perturbed"):
            fam = polynomial_family(rng, dim)
            theta, t = float(rng.uniform(-1, 1)), float(rng.uniform(0.5, 1.5))
            if kind == "flood":
                beta, theta0 = float(rng.uniform(0.1, 1.0)), float(rng.uniform(-1, 1))
                fam = apply_extension(fam, Flood(beta=beta, theta0=theta0))
            elif kind == "subtract-perturbed":
                epsilon = float(rng.uniform(-0.3, 0.3))
                fam = apply_extension(fam, SubtractPerturbed(theta0=theta, epsilon=epsilon))
            cases += [(fam, theta, t), (tensor_identity(fam, 2), theta, t)]
    return cases


def _generator_bytes(result) -> bytes:
    return b"".join([
        result.generator.matrix.tobytes(), np.float64(result.estimated_error).tobytes(),
        result.method.value.encode(), bytes([result.converged]),
    ])


def _report_bytes(report) -> bytes:
    columns = [report.channel_qfi, report.upper_bound, report.ratio, report.estimated_error]
    return b"".join([
        np.array(columns).tobytes(), report.optimal_probe.amplitudes.tobytes(),
        report.generator_method.value.encode(),
    ])


def _verdict_bytes(verdict) -> bytes:
    return f"{verdict.verdict.value} {verdict.witness!r}".encode()


def verify_calls(fam, theta: float, t: float, index: int) -> list:
    """The single-point entry points in the order the verify benchmark calls them.

    Each is a call without arguments that returns its result as bytes; the
    oracle is seeded by the case ``index``.
    """
    return [
        lambda: _generator_bytes(generator_spectral(fam, theta, t)),
        lambda: _generator_bytes(generator_quadrature(fam, theta, t)),
        lambda: _generator_bytes(generator_fd(fam, theta, t)),
        lambda: _report_bytes(channel_qfi(fam, theta, t)),
        lambda: np.float64(channel_qfi_brute(fam, theta, t, n_starts=8, seed=index)).tobytes(),
        lambda: _verdict_bytes(check_saturation(fam, theta)),
    ]


# The oracle's ascent as it was before its temporaries moved into buffers:
# the reference whose float bytes ``qfi._ascend`` must keep.
def reference_score(stacked: np.ndarray, x: np.ndarray, block: tuple) -> None:
    """[Kx; K^2 x; mean; Var] of the columns of ``x`` into ``block``, a block and its row views."""
    _, both, kx, _, mean, var = block
    np.matmul(stacked, x, out=both)
    np.vecdot(x, kx, axis=0, out=mean)
    np.maximum(np.vecdot(kx, kx, axis=0) - mean * mean, 0.0, out=var)


def reference_ascend(gen: np.ndarray, psi: np.ndarray) -> float:
    """Projected gradient ascent of 4 Var(gen) on the unit sphere from every column of ``psi``.

    The (d, n) block's columns are independent starts that step together.
    Each keeps its own step: a column takes its candidate where that raises
    its value and halves its step elsewhere. Returns the best value found.

    In real arithmetic: a + ib is [a; b] and gen = R + iI is [[R, -I], [I, R]].
    One product with [gen; gen^2] serves the gradient and the candidate's
    value. The gradient is taken as an eighth with an eightfold step and Var
    without its factor 4: exact powers of two. A state, and a candidate in the
    same layout, is F-ordered ``x`` and a C-ordered ``reference_score`` block; when
    every column takes its candidate, the two swap instead of being copied.
    No layout may change: ``vecdot`` gets other bits from another BLAS kernel
    when both of its operands have unit stride.
    """
    d2 = 2 * psi.shape[0]
    k = np.block([[gen.real, -gen.imag], [gen.imag, gen.real]])
    stacked = np.concatenate([k, k @ k])
    x = np.concatenate([psi.real, psi.imag])
    cand, blocks = np.empty_like(x), np.empty((2, 2 * d2 + 2, psi.shape[1]))
    state, trial = ((b, b[: 2 * d2], b[:d2], b[d2 : 2 * d2], b[-2], b[-1]) for b in blocks)
    reference_score(stacked, x, state)
    step = np.full(psi.shape[1], 8.0 * qfi._ASCENT_INITIAL_STEP)
    for _ in range(qfi._ASCENT_ITERATIONS):
        _, _, kx, k2x, mean, var = state
        grad = k2x - 2.0 * mean * kx
        grad -= np.vecdot(x, grad, axis=0) * x  # tangent projection
        np.multiply(step, grad, out=cand)
        cand += x
        cand /= np.sqrt(np.vecdot(cand, cand, axis=0))
        reference_score(stacked, cand, trial)
        better = trial[-1] > var
        if better.all():
            x, cand, state, trial = cand, x, trial, state
        else:
            np.copyto(x, cand, where=better)
            np.copyto(state[0], trial[0], where=better)
            np.divide(step, 2.0, out=step, where=~better)
    return 4.0 * float(state[-1].max())


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


def gauss_legendre_loop(
    t: float, eigenvalues: np.ndarray, eigenvectors: np.ndarray, hdot: np.ndarray, order: int
) -> np.ndarray:
    """The Gauss-Legendre sum of the generator integral, one node at a time.

    Reference for the stacked nodes of ``generator._gauss_legendre_generator``.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    acc = np.zeros_like(hdot)
    vdag = eigenvectors.conj().T
    for alpha, w in zip((nodes - 1.0) / 2.0, weights):
        u = (eigenvectors * np.exp(-1j * alpha * t * eigenvalues)) @ vdag
        acc += (w / 2.0) * (u @ hdot @ u.conj().T)
    return t * acc


def fix_phases_by_column(vectors: np.ndarray) -> np.ndarray:
    """Reference: the per-column loop that _fix_phases replaces."""
    out = vectors.copy()
    idx = np.argmax(np.abs(out), axis=0)
    for k in range(out.shape[1]):
        pivot = out[idx[k], k]
        mag = abs(pivot)
        if mag > 0.0:
            out[:, k] *= pivot.conjugate() / mag
    return out


def eig_hermitian_reference(a: HermitianOperator) -> tuple[np.ndarray, np.ndarray]:
    """The deterministic eigendecomposition of one matrix, step by step.

    A 2-D ``eigh``, the canonical basis of each degenerate block, then the
    per-column phase loop: the bits ``linalg.eigh_stack`` must give each point.
    """
    w, v = np.linalg.eigh(a.matrix)
    for block in degenerate_blocks(w):
        if len(block) > 1:
            v[:, block.start : block.stop] = _canonical_block_basis(v[:, block.start : block.stop])
    return w, fix_phases_by_column(v)


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
