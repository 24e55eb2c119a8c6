"""Dense Hermitian matrix calculus for small complex matrices.

All operators are plain numpy arrays wrapped in thin immutable value types.
Internal unit convention: Hamiltonians are angular frequencies (rad/s) with
hbar = 1; SI conversions happen in :mod:`qfiext.models` only.
Every Hermitian decomposition is ``scaled_eigh``'s, of the matrix scaled by
2^-e to max|entry| in [1/2, 1): its eigenvalues, which neither overflow nor
underflow, come with e, and callers form spreads and gaps from both.
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
_HALF_MAX = float(np.finfo(float).max) / 2  # above this max|entry|, m + m^dag can overflow


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


def _hermiticity_error(m: np.ndarray, asym: np.ndarray, tol: float, prefix: str):
    finite = np.isfinite(m)
    if not finite.all():
        i, j = np.unravel_index(int(np.argmin(finite)), finite.shape)
        return NonHermitianInput(f"{prefix}matrix has a non-finite entry A[{i}][{j}] = {m[i, j]}")
    i, j = np.unravel_index(int(asym.argmax()), asym.shape)
    return NonHermitianInput(
        f"{prefix}matrix is not Hermitian: |A[{i}][{j}] - conj(A[{j}][{i}])| = {asym[i, j]:.3e} "
        f"exceeds {HERMITICITY_RTOL:.0e} * max|entry| = {tol:.3e}"
    )


def symmetrized(m: np.ndarray, where=None) -> np.ndarray:
    """``hermitian_part`` of one complex matrix (d, d) or of a stack (N, d, d), checked.

    A matrix whose max|entry| exceeds half the largest float is tested and
    averaged as m/2 and m^dag/2, which cannot overflow.

    Raises NonHermitianInput when a matrix is further from Hermitian than
    ``HERMITICITY_RTOL * max|entry|`` or holds a NaN or infinite entry. Over a
    stack the message names the first offending matrix by ``where(n)``
    (default ``"matrix n"``).
    """
    return _hermitian_part(m, where, True)


def hermitized(m: np.ndarray, where=None) -> np.ndarray:
    """``symmetrized`` without the asymmetry test, for matrices Hermitian by construction."""
    return _hermitian_part(m, where, False)


def _hermitian_part(m: np.ndarray, where, checked: bool) -> np.ndarray:
    m_dag = m.conj().swapaxes(-1, -2)
    scale = np.abs(m).max(axis=(-2, -1))
    # Equal to worst <= RTOL * scale on finite values. An entry that is NaN or
    # infinite makes scale and worst NaN or infinite, and the difference NaN.
    if m.ndim == 2 and scale <= _HALF_MAX:
        # The common case. Such a scale rules out a non-finite entry and an
        # overflow in m - m_dag, so it needs no errstate, which costs more
        # than the rest of the check.
        if checked:
            asym = np.abs(m - m_dag)
            if not HERMITICITY_RTOL * scale - asym.max() >= 0:
                raise _hermiticity_error(m, asym, float(HERMITICITY_RTOL * scale), "")
        return (m + m_dag) / 2
    if m.ndim == 3 and (scale <= _HALF_MAX).all():  # the same for a stack
        if not checked:
            return (m + m_dag) / 2
        asym, tol = np.abs(m - m_dag), HERMITICITY_RTOL * scale
        ok = tol - asym.max(axis=(-2, -1)) >= 0
        if ok.all():
            return (m + m_dag) / 2
    elif checked:
        # Above _HALF_MAX, tested on m/2 and m^dag/2 and doubled: exact, and
        # the halves' moduli cannot overflow, as |m| can (scale is then inf).
        two = np.where(scale > _HALF_MAX, 2.0, 1.0)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow, or inf - inf
            half = m / two[..., None, None]
            asym = np.abs(half - half.conj().swapaxes(-1, -2)) * two[..., None, None]
            tol = HERMITICITY_RTOL * np.abs(half).max(axis=(-2, -1)) * two
            ok = tol - asym.max(axis=(-2, -1)) >= 0
    else:  # a finite matrix passes the test above (its modulus may overflow)
        asym, tol, ok = None, scale, np.isfinite(m).all(axis=(-2, -1))
    if m.ndim == 2 and not ok:
        raise _hermiticity_error(m, asym, float(tol), "")
    if not ok.all():
        n = int(np.flatnonzero(~ok)[0])
        prefix = f"{where(n) if where else f'matrix {n}'}: "
        raise _hermiticity_error(m[n], asym if asym is None else asym[n], float(tol[n]), prefix)
    big = scale > _HALF_MAX
    if not big.any():
        return (m + m_dag) / 2
    out = m / 2 + m_dag / 2
    out[~big] = (m[~big] + m_dag[~big]) / 2  # for one matrix, ~big selects nothing
    return out


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


def as_hermitian(m: np.ndarray) -> HermitianOperator:
    """``HermitianOperator(m)``, through ``hermitized``, for a matrix Hermitian by construction."""
    return checked_operator(hermitized(np.asarray(m, dtype=np.complex128)))


def checked_operator(matrix: np.ndarray) -> HermitianOperator:
    """A ``HermitianOperator`` of a matrix that ``symmetrized`` or ``hermitized`` returned,
    as it is."""
    op = object.__new__(HermitianOperator)
    object.__setattr__(op, "matrix", _freeze(matrix))
    return op


def check_unitary(m: np.ndarray) -> np.ndarray:
    """``m``, one matrix (d, d) or a stack (N, d, d), if each is unitary within 1e-10.

    Raises DimensionMismatch giving max |U^dag U - 1| of the first matrix that is not.
    """
    defects = np.abs(m.conj().swapaxes(-1, -2) @ m - np.eye(m.shape[-1])).max(axis=(-2, -1))
    bad = np.flatnonzero(~(defects <= 1e-10))  # a NaN defect fails too
    if bad.size:
        defect = float(defects.flat[bad[0]])
        raise DimensionMismatch(f"matrix is not unitary: max |U^dag U - 1| = {defect:.3e}")
    return m


@dataclass(frozen=True, eq=False)
class UnitaryOperator:
    """Immutable unitary matrix (U^dag U = 1 within 1e-10, ``check_unitary``)."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _freeze(check_unitary(_square_complex(self.matrix))))


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

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Ascending real eigenvalues and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _degeneracy_splits(w: np.ndarray, e) -> np.ndarray:
    """Where ascending eigenvalues w (..., d) of matrices scaled by 2^-e (...) split into blocks:
    at each gap (..., d - 1) above max(DEGENERACY_RTOL * spread, DEGENERACY_ATOL 2^-e), "not >"
    rather than "<=", so that a NaN gap counts as degenerate."""
    # ATOL 2^-e, as the unscaled gaps split against ATOL; 2^1000 ATOL is above every unit gap.
    atol = np.ldexp(DEGENERACY_ATOL, np.minimum(-e, 1000))
    tol = np.maximum(DEGENERACY_RTOL * (w[..., -1] - w[..., 0]), atol)
    return w[..., 1:] - w[..., :-1] > tol[..., None]


def degenerate_blocks(eigenvalues: np.ndarray, e=None) -> list[range]:
    """Group ascending eigenvalues into the blocks between their degeneracy splits.

    Given ``e``, they are ``eigh_stack``'s, of a matrix scaled by 2^-e, and the
    blocks are its splits. Without, they are unscaled, and are scaled here
    first: their spread would overflow.
    """
    if e is None:
        e = int(np.frexp(np.abs(eigenvalues).max())[1])
        eigenvalues = np.ldexp(eigenvalues, -e)
    return blocks_between(_degeneracy_splits(eigenvalues, e))


def blocks_between(splits: np.ndarray) -> list[range]:
    """The blocks of d ascending eigenvalues between their (d - 1,) ``_degeneracy_splits``."""
    cuts = [0, *(k + 1 for k in splits.nonzero()[0].tolist()), splits.size + 1]
    return list(map(range, cuts[:-1], cuts[1:]))


def nondegenerate_extremes(blocks: list[range]) -> bool:
    """Whether the lowest and the highest ``degenerate_blocks`` are distinct single eigenvalues."""
    return len(blocks) > 1 and len(blocks[0]) == 1 and len(blocks[-1]) == 1


def norm(v: np.ndarray) -> float:
    """The Euclidean norm of a complex vector, with ``np.linalg.norm``'s bits."""
    return math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))


def _canonical_block_basis(block_vectors: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of span(block_vectors).

    Gram-Schmidt over the canonical basis vectors projected into the block
    subspace, in index order, so degenerate subspaces get a reproducible basis
    independent of eigensolver arbitrariness.
    """
    dim, size = block_vectors.shape
    projector = block_vectors @ block_vectors.conj().T
    basis: list[tuple[np.ndarray, np.ndarray]] = []  # each vector with its conjugate
    for idx in range(dim):
        cand = projector[:, idx].copy()
        for b, b_conj in basis:
            cand -= (b_conj @ cand) * b
        length = norm(cand)
        if length > _GS_RANK_TOL:
            basis.append((b := cand / length, b.conj()))
            if len(basis) == size:
                break
    if len(basis) < size:  # projected canonical set was rank-deficient; keep solver basis
        return block_vectors
    return np.column_stack([b for b, _ in basis])


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive.

    Works on one matrix or a stack (..., d, d). Each column's pivot, its first
    entry of largest ``np.abs``, is gathered by one flat index into the
    columns laid out as rows. No pivot of a unit column is zero. Its magnitude
    is hypot(re, im), which equals the scalar abs() of a complex entry bit for
    bit; numpy's vectorized complex abs does not.
    """
    d = vectors.shape[-1]
    columns = vectors.swapaxes(-1, -2).reshape(-1, d)
    pivot = columns.take(np.abs(columns).argmax(axis=1) + np.arange(0, columns.size, d))
    phase = pivot.conj() / np.hypot(pivot.real, pivot.imag)
    return vectors * phase.reshape(vectors.shape[:-2] + (1, d))


def eig_hermitian(a: HermitianOperator) -> EigenDecomposition:
    """``eigh_stack`` of ``a``'s matrix as an ``EigenDecomposition``, eigenvalues scaled back."""
    w, v, e = eigh_stack(a.matrix[None])
    with np.errstate(over="ignore"):
        return EigenDecomposition(_freeze(np.ldexp(w[0], e[0])), _freeze(v[0]))


def unit_scaled(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(matrices 2^-e, e)``: each complex matrix (..., d, d) scaled by ``np.ldexp`` (a product
    with 2^-e overflows on a subnormal matrix), its largest real or imaginary part into
    [1/2, 1); e = 0 on a zero matrix."""
    parts = matrices.view(float)
    e = np.frexp(np.abs(parts).max(axis=(-2, -1)))[1]
    return np.ldexp(parts, -e[..., None, None]).view(complex), e


def scaled_eigh(matrices: np.ndarray, vectors: bool = True, e=None):
    """``(w, v, e)``: ``eigh`` of each matrix ``unit_scaled``, or ``eigvalsh`` and v = None.

    ``matrices``, one complex matrix (d, d) or a stack (N, d, d), are taken as
    Hermitian; given ``e``, as scaled by 2^-e already. Unscaled, LAPACK rescales
    a matrix of max|entry| beyond about 1e-120 ... 1e140 by a factor that is
    not a power of two, which moves the last bits of its results or fails to
    converge.
    """
    if e is None:
        matrices, e = unit_scaled(matrices)
    if vectors:
        return (*np.linalg.eigh(matrices), e)
    return np.linalg.eigvalsh(matrices), None, e


def eigh_stack(matrices: np.ndarray, e=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``scaled_eigh`` of a stack (N, d, d), deterministically: (w (N, d), v, e (N,)).

    One batched ``eigh``; at each point whose spectrum has a degenerate block
    (``degenerate_blocks``), that block's columns become its
    ``_canonical_block_basis``; then one phase fix for the whole stack. A
    point gets the same bits in any stack.
    """
    return eigh_splits(matrices, e)[:3]


def eigh_splits(matrices: np.ndarray, e=None):
    """``eigh_stack``'s ``(w, v, e)`` and the ``_degeneracy_splits`` (N, d - 1) it formed;
    ``blocks_between`` of a point's row are its ``degenerate_blocks``."""
    w, v, e = scaled_eigh(matrices, True, e)
    split = _degeneracy_splits(w, e)
    if not split.all():
        for n in np.flatnonzero(~split.all(axis=1)).tolist():
            for block in blocks_between(split[n]):
                if len(block) > 1:
                    cols = slice(block.start, block.stop)
                    v[n, :, cols] = _canonical_block_basis(v[n, :, cols])
    return w, _fix_phases(v), e, split


def evolution(w: np.ndarray, v: np.ndarray, t) -> np.ndarray:
    """exp(-i t A) for A = v diag(w) v^dag, broadcast over the leading axes of w and t:
    one matrix, a stack of decompositions (w (N, d), v (N, d, d)) or of times (t (N, 1))."""
    phases = np.exp(-1j * t * w)
    return (v * phases[..., None, :]) @ v.conj().swapaxes(-1, -2)


def expm_unitary(a: HermitianOperator, t: float) -> UnitaryOperator:
    """Evolution operator exp(-i t A) via the spectral decomposition of A."""
    dec = eig_hermitian(a)
    return UnitaryOperator(evolution(dec.eigenvalues, dec.eigenvectors, t))


def seminorm(a: HermitianOperator) -> float:
    """Spectral spread max(eig) - min(eig), inf beyond the largest float; 0 on c * 1."""
    w, _, e = scaled_eigh(a.matrix, vectors=False)
    with np.errstate(over="ignore"):
        return float(np.ldexp(w[-1] - w[0], e))


def variance(a: HermitianOperator, psi: PureState) -> float:
    """<A^2> - <A>^2 in the given state; clamped to be non-negative."""
    if a.dim != psi.dim:
        raise DimensionMismatch(f"operator dimension {a.dim} does not match {psi.dim}")
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
