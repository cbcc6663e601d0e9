"""Dense complex-matrix kernels: decompositions, norms, functional calculus.

Everything here operates on plain ``numpy`` complex matrices at desk scale
(n <= ~64).  All outputs are freshly allocated; nothing mutates its input.
Every eigensolve and SVD of opgeo passes through this module.  Every
kernel rejects an input that is not finite with LinalgError before LAPACK
sees it, so an overflow that the caller's errstate let through neither
prints a LAPACK error nor carries nan into a decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from opgeo.errors import LinalgError


def _require_finite(m: np.ndarray) -> None:
    if not np.isfinite(m).all():
        raise LinalgError("matrix has non-finite entries")


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex128 array, rejecting non-finite entries."""
    m = np.array(a, dtype=np.complex128)
    if m.ndim != 2:
        raise LinalgError(f"expected a 2-d array, got ndim={m.ndim}")
    _require_finite(m)
    return m


def _require_square(m: np.ndarray) -> None:
    if m.shape[0] != m.shape[1]:
        raise LinalgError(f"expected a square matrix, got shape {m.shape}")


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigendecomposition A = U diag(eigenvalues) U* of a Hermitian matrix.

    Eigenvalues ascend; eigenvector columns are orthonormal.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class SVDResult:
    """A = left @ diag(singular_values) @ right*, singular values descending."""

    left: np.ndarray
    singular_values: np.ndarray
    right: np.ndarray


@dataclass(frozen=True)
class PolarDecomposition:
    """Left polar factorization A = absolute @ isometry with a unitary
    isometry factor and absolute = (AA*)^(1/2).

    For singular A the isometry is the deterministic unitary completion
    delivered by the SVD frames (isometry = W V*).
    """

    absolute: np.ndarray
    isometry: np.ndarray


def _hermitian_part(a) -> np.ndarray:
    """(A + A*)/2 of a square matrix, formed halves first, so no entry of a
    finite A overflows.  It has the bits of numpy's 0.5 * (A + A*) wherever
    that sum neither overflows nor goes subnormal, signed zeros included.
    On a Hermitian A it is A; the Hermitian part of -iA is the skew part
    (A - A*)/2i."""
    m = np.ascontiguousarray(as_matrix(a))  # C order: its float64 view is its parts
    _require_square(m)
    m.view(np.float64)[...] *= 0.5  # exact, part by part: 0.5 * m would sign some zeros anew
    h = m + m.conj().T
    h *= 1.0  # the complex product signs zeros as 0.5 * (A + A*) does
    return h


def hermitian_eig(a) -> SpectralDecomposition:
    """Eigendecomposition of the Hermitian part (A + A*)/2 of a square
    matrix (`_hermitian_part`), eigenvalues ascending."""
    w, u = np.linalg.eigh(_hermitian_part(a))
    return SpectralDecomposition(eigenvalues=w, eigenvectors=u)


def hermitian_eigvals(a) -> np.ndarray:
    """The eigenvalues of `hermitian_eig`, ascending, from LAPACK's
    values-only routine: they may differ from `hermitian_eig`'s in the last
    bits."""
    return np.linalg.eigvalsh(_hermitian_part(a))


def svd(a) -> SVDResult:
    """Singular value decomposition A = W diag(sigma) V* with W, V unitary."""
    m = as_matrix(a)
    w, s, vh = np.linalg.svd(m)
    return SVDResult(left=w, singular_values=s, right=vh.conj().T)


def svd_stack(a) -> tuple[SVDResult, ...]:
    """The SVD of each matrix of a stack, one LAPACK call for the stack:
    the same results as `svd` of each matrix, bit for bit."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 3:
        raise LinalgError(f"expected a stack of matrices, got ndim={m.ndim}")
    _require_finite(m)
    w, s, vh = np.linalg.svd(m)
    return tuple(SVDResult(left=wi, singular_values=si, right=vhi.T) for wi, si, vhi in zip(w, s, vh.conj()))


def singular_values(a) -> np.ndarray:
    """Singular values, descending, of a matrix or of each matrix of a
    stack: the one guarded LAPACK path of every norm below."""
    m = np.asarray(a, dtype=np.complex128)
    _require_finite(m)
    return np.linalg.svd(m, compute_uv=False)


def operator_norm(a) -> float:
    """Largest singular value: the LAPACK call behind np.linalg.norm(m, 2),
    without its reduction, so the same number bit for bit."""
    return float(singular_values(a)[0])


def trace_norm(a) -> float:
    """Sum of singular values (dual norm to the operator norm)."""
    return float(np.sum(singular_values(a)))


def direct_sum_norm(blocks) -> float:
    """The direct-sum operator norm max_i ||b_i|| of an element given as one
    array per block, such as a residual that a route only measures."""
    return max(operator_norm(b) for b in blocks)


def direct_sum_norms(stacks) -> np.ndarray:
    """The direct-sum norms of several elements of one algebra, given as one
    stack per block (element j's block i is stacks[i][j]): one LAPACK call
    per block, the same numbers as `direct_sum_norm` of each, bit for bit."""
    return reduce(np.maximum, (singular_values(s)[:, 0] for s in stacks))


def unitary_residual(blocks) -> float:
    """max_i ||b_i* b_i - 1|| over the square arrays b_i."""
    return direct_sum_norm(b.conj().T @ b - np.eye(b.shape[0]) for b in blocks)


def polar(a) -> PolarDecomposition:
    """Left polar decomposition A = |A| u of a square matrix, with
    |A| = (AA*)^(1/2) and the unitary factor u = W V* from the SVD
    A = W diag(sigma) V*, which fixes a deterministic unitary completion on
    the kernel.
    """
    m = as_matrix(a)
    _require_square(m)
    res = svd(m)
    w, s, v = res.left, res.singular_values, res.right
    absolute = (w * s) @ w.conj().T
    absolute = 0.5 * (absolute + absolute.conj().T)
    return PolarDecomposition(absolute=absolute, isometry=w @ v.conj().T)


def apply_function_hermitian(a, fn) -> np.ndarray:
    """Functional calculus: U diag(fn(lambda_i)) U* on the Hermitian part
    of A, decomposed by `hermitian_eig`.

    `fn` is sampled on the spectrum; it may be scalar or vectorized.
    """
    dec = hermitian_eig(a)
    vals = np.asarray([fn(float(ev)) for ev in dec.eigenvalues], dtype=np.complex128)
    u = dec.eigenvectors
    out = (u * vals) @ u.conj().T
    if np.allclose(vals.imag, 0.0):
        out = 0.5 * (out + out.conj().T)
    return out
