"""Dense Hermitian matrix calculus for small complex matrices.

All operators are plain numpy arrays wrapped in thin immutable value types.
Internal unit convention: Hamiltonians are angular frequencies (rad/s) with
hbar = 1; SI conversions happen in :mod:`qfiext.models` only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonHermitianInput

# Hermiticity acceptance: max |A - A^dag| <= HERMITICITY_RTOL * max |A|
HERMITICITY_RTOL = 1e-12
# Two eigenvalues count as degenerate when closer than
# max(DEGENERACY_RTOL * spread, DEGENERACY_ATOL).
DEGENERACY_RTOL = 1e-9
DEGENERACY_ATOL = 1e-13
# Unit-norm acceptance for state vectors.
NORM_RTOL = 1e-6

_GS_RANK_TOL = 1e-6


def _square_complex(entries) -> np.ndarray:
    m = np.array(entries, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M^dag)/2 of one matrix or of each matrix of a stack (..., d, d)."""
    return (m + m.conj().swapaxes(-1, -2)) / 2


def _hermiticity_error(m: np.ndarray, asym: np.ndarray, scale: float, prefix: str):
    finite = np.isfinite(m)
    if not finite.all():
        i, j = np.unravel_index(int(np.argmin(finite)), finite.shape)
        return NonHermitianInput(f"{prefix}matrix has a non-finite entry A[{i}][{j}] = {m[i, j]}")
    i, j = np.unravel_index(int(asym.argmax()), asym.shape)
    return NonHermitianInput(
        f"{prefix}matrix is not Hermitian: |A[{i}][{j}] - conj(A[{j}][{i}])| = {asym[i, j]:.3e} "
        f"exceeds {HERMITICITY_RTOL:.0e} * max|entry| = {HERMITICITY_RTOL * scale:.3e}"
    )


def symmetrized(m: np.ndarray, where=None) -> np.ndarray:
    """``hermitian_part`` of one complex matrix (d, d) or of a stack (N, d, d), checked.

    Raises NonHermitianInput when a matrix is further from Hermitian than
    ``HERMITICITY_RTOL * max|entry|`` or holds a NaN or infinite entry. Over a
    stack the message names the first offending matrix by ``where(n)``
    (default ``"matrix n"``).
    """
    m_dag = m.conj().swapaxes(-1, -2)
    scale = np.abs(m).max(axis=(-2, -1))
    # Equal to worst <= RTOL * scale on finite values. An entry that is NaN or
    # infinite makes scale and worst NaN or infinite, and the difference NaN.
    if m.ndim == 2:
        # A finite scale rules out a non-finite entry for the price of a scalar
        # test; such an entry is rejected before inf - inf in m - m_dag can warn.
        if not math.isfinite(scale) and not np.isfinite(m).all():
            raise _hermiticity_error(m, None, float(scale), "")
        asym = np.abs(m - m_dag)
        if not HERMITICITY_RTOL * scale - asym.max() >= 0:
            raise _hermiticity_error(m, asym, float(scale), "")
        return (m + m_dag) / 2
    with np.errstate(invalid="ignore"):  # inf - inf of a non-finite entry
        asym = np.abs(m - m_dag)
    ok = HERMITICITY_RTOL * scale - asym.max(axis=(-2, -1)) >= 0
    if not ok.all():
        n = int(np.flatnonzero(~ok)[0])
        prefix = f"{where(n) if where else f'matrix {n}'}: "
        raise _hermiticity_error(m[n], asym[n], float(scale[n]), prefix)
    return (m + m_dag) / 2


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Immutable dense complex Hermitian matrix.

    The constructor symmetrizes rounding-level asymmetry, (A + A^dag)/2, and
    rejects anything beyond ``HERMITICITY_RTOL * max|entry|`` as well as
    non-finite entries (see ``symmetrized``).
    """

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _freeze(symmetrized(_square_complex(self.matrix))))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class UnitaryOperator:
    """Immutable unitary matrix (U^dag U = 1 within 1e-10)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _square_complex(self.matrix)
        defect = float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))
        if defect > 1e-10:
            raise DimensionMismatch(f"matrix is not unitary: max |U^dag U - 1| = {defect:.3e}")
        object.__setattr__(self, "matrix", _freeze(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class PureState:
    """Immutable unit-norm complex state vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        v = np.array(self.amplitudes, dtype=np.complex128)
        if v.ndim != 1 or v.size < 1:
            raise DimensionMismatch(f"expected a vector, got shape {v.shape}")
        n = float(np.linalg.norm(v))
        if abs(n - 1.0) > NORM_RTOL:
            raise ValueError(f"state norm {n!r} is not 1 within {NORM_RTOL:.0e}")
        object.__setattr__(self, "amplitudes", _freeze(v / n))

    @classmethod
    def normalized(cls, vector) -> "PureState":
        """Build a state from any nonzero vector by normalizing it."""
        v = np.asarray(vector, dtype=np.complex128)
        n = float(np.linalg.norm(v))
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(v / n)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Ascending real eigenvalues and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


def degeneracy_tolerance(eigenvalues: np.ndarray):
    """max(DEGENERACY_RTOL * spread, DEGENERACY_ATOL) of ascending eigenvalues.

    Over a stack (..., d) of spectra it gives one tolerance per spectrum.
    """
    spread = eigenvalues[..., -1] - eigenvalues[..., 0]
    return np.maximum(DEGENERACY_RTOL * spread, DEGENERACY_ATOL)


def degenerate_blocks(eigenvalues: np.ndarray) -> list[range]:
    """Group ascending eigenvalues into blocks chained by the degeneracy tolerance."""
    tol = degeneracy_tolerance(eigenvalues)
    w = eigenvalues.tolist()
    blocks = []
    start = 0
    for k in range(1, len(w)):
        if w[k] - w[k - 1] > tol:
            blocks.append(range(start, k))
            start = k
    blocks.append(range(start, len(w)))
    return blocks


def _canonical_block_basis(block_vectors: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of span(block_vectors).

    Gram-Schmidt over the canonical basis vectors projected into the block
    subspace, in index order, so degenerate subspaces get a reproducible basis
    independent of eigensolver arbitrariness.
    """
    dim, size = block_vectors.shape
    projector = block_vectors @ block_vectors.conj().T
    basis: list[np.ndarray] = []
    for idx in range(dim):
        cand = projector[:, idx].copy()
        for b in basis:
            cand -= (b.conj() @ cand) * b
        norm = float(np.linalg.norm(cand))
        if norm > _GS_RANK_TOL:
            basis.append(cand / norm)
            if len(basis) == size:
                break
    if len(basis) < size:  # projected canonical set was rank-deficient; keep solver basis
        return block_vectors
    return np.column_stack(basis)


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive.

    Works on one matrix or a stack (..., d, d) of them. The columns are unit
    eigenvectors, so no pivot is zero. Its magnitude is taken as
    hypot(re, im), which equals the scalar abs() of a complex entry bit for
    bit; numpy's vectorized complex abs does not.
    """
    idx = np.argmax(np.abs(vectors), axis=-2, keepdims=True)
    pivot = np.take_along_axis(vectors, idx, axis=-2)
    return vectors * (pivot.conj() / np.hypot(pivot.real, pivot.imag))


def _canonicalize_blocks(eigenvalues: np.ndarray, vectors: np.ndarray) -> None:
    """Replace the columns of each degenerate block by its canonical basis, in place."""
    for block in degenerate_blocks(eigenvalues):
        if len(block) > 1:
            sl = slice(block.start, block.stop)
            vectors[:, sl] = _canonical_block_basis(vectors[:, sl])


def eig_hermitian(a: HermitianOperator) -> EigenDecomposition:
    """Eigendecomposition with ascending eigenvalues and a deterministic basis.

    Within degenerate blocks the basis is re-orthonormalized against the
    canonical basis order; every eigenvector phase is fixed so identical
    inputs give identical outputs.
    """
    w, v = np.linalg.eigh(a.matrix)
    _canonicalize_blocks(w, v)
    return EigenDecomposition(_freeze(w), _freeze(_fix_phases(v)))


def eigh_stack(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``eig_hermitian`` over a stack (N, d, d): eigenvalues (N, d), eigenvectors (N, d, d).

    The matrices are taken as Hermitian without a check (pass
    ``HermitianOperator.matrix`` values). Each point gets the bits
    ``eig_hermitian`` gives it: one batched ``eigh``, the canonical block
    basis only at the points whose spectrum has a degenerate block, and one
    phase fix for the whole stack.
    """
    w, v = np.linalg.eigh(matrices)
    # "not >" rather than "<=", so that a NaN gap goes to degenerate_blocks too.
    split = np.diff(w, axis=-1) > degeneracy_tolerance(w)[:, None]
    for n in np.flatnonzero(~split.all(axis=-1)):
        _canonicalize_blocks(w[n], v[n])
    return w, _fix_phases(v)


def expm_unitary(a: HermitianOperator, t: float) -> UnitaryOperator:
    """Evolution operator exp(-i t A) via the spectral decomposition of A."""
    dec = eig_hermitian(a)
    phases = np.exp(-1j * t * dec.eigenvalues)
    u = (dec.eigenvectors * phases) @ dec.eigenvectors.conj().T
    return UnitaryOperator(u)


def seminorm(a: HermitianOperator) -> float:
    """Spectral spread max(eig) - min(eig); vanishes on multiples of identity."""
    w = np.linalg.eigvalsh(a.matrix)
    return float(w[-1] - w[0])


def _check_dims(a: HermitianOperator, dim: int):
    if a.dim != dim:
        raise DimensionMismatch(f"operator dimension {a.dim} does not match {dim}")


def expectation(a: HermitianOperator, psi: PureState) -> float:
    """<psi|A|psi> (real for Hermitian A)."""
    _check_dims(a, psi.dim)
    v = psi.amplitudes
    return float((v.conj() @ (a.matrix @ v)).real)


def variance(a: HermitianOperator, psi: PureState) -> float:
    """<A^2> - <A>^2 in the given state; clamped to be non-negative."""
    _check_dims(a, psi.dim)
    v = a.matrix @ psi.amplitudes
    mean = float((psi.amplitudes.conj() @ v).real)
    second = float((v.conj() @ v).real)
    return max(second - mean * mean, 0.0)


def commutator(a: HermitianOperator, b: HermitianOperator) -> np.ndarray:
    """AB - BA as a plain complex matrix (anti-Hermitian for Hermitian inputs)."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions differ: {a.dim} vs {b.dim}")
    return a.matrix @ b.matrix - b.matrix @ a.matrix


def random_hermitian(dim: int, seed) -> HermitianOperator:
    """GUE sample: H = (X + X^dag)/2 with X of i.i.d. standard complex normals.

    Diagonal entries are N(0,1), off-diagonal entries have unit total variance.
    ``seed`` may be an int or a ``numpy.random.Generator``.
    """
    if dim < 1:
        raise DimensionMismatch(f"dimension must be >= 1, got {dim}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator((x + x.conj().T) / 2)
