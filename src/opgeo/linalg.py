"""Dense complex-matrix kernels: decompositions, norms, functional calculus.

Everything here operates on plain ``numpy`` complex matrices at desk scale
(n <= ~64).  All outputs are freshly allocated; nothing mutates its input.
Every kernel rejects an input that is not finite with LinalgError before
LAPACK sees it, so an overflow that the caller's errstate let through
neither prints a LAPACK error nor carries nan into a decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from opgeo.errors import LinalgError

#: relative ||A - A*|| up to which an input counts as Hermitian
HERMITIAN_RESIDUAL_BOUND = 1e-9


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


def hermitian_residual(a: np.ndarray) -> float:
    """Operator norm of A - A*."""
    return operator_norm(a - a.conj().T)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigendecomposition A = U diag(eigenvalues) U* of a Hermitian matrix.

    Eigenvalues ascend; eigenvector columns are orthonormal.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return (u * self.eigenvalues) @ u.conj().T


@dataclass(frozen=True)
class SVDResult:
    """A = left @ diag(singular_values) @ right*, singular values descending."""

    left: np.ndarray
    singular_values: np.ndarray
    right: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.left * self.singular_values) @ self.right.conj().T


@dataclass(frozen=True)
class PolarDecomposition:
    """Polar factorization with a unitary isometry factor.

    side "left":  A = absolute @ isometry,  absolute = (AA*)^(1/2)
    side "right": A = isometry @ absolute,  absolute = (A*A)^(1/2)

    For singular A the isometry is the deterministic unitary completion
    delivered by the SVD frames (isometry = W V*).
    """

    side: str
    absolute: np.ndarray
    isometry: np.ndarray


def hermitian_eig(a, tol: float = HERMITIAN_RESIDUAL_BOUND) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Rejects non-square or non-Hermitian input (relative tolerance `tol`).
    """
    m = as_matrix(a)
    _require_square(m)
    scale = max(1.0, operator_norm(m))
    resid = hermitian_residual(m)
    if resid > tol * scale:
        raise LinalgError(
            f"matrix is not Hermitian: ||A - A*|| = {resid:.3e} exceeds {tol:.1e}*max(1,||A||)"
        )
    h = 0.5 * m + 0.5 * m.conj().T  # halves first: no overflow
    w, u = np.linalg.eigh(h)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=u)


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


def operator_norm(a) -> float:
    """Largest singular value: the LAPACK call behind np.linalg.norm(m, 2),
    without its reduction, so the same number bit for bit."""
    m = np.asarray(a, dtype=np.complex128)
    _require_finite(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def trace_norm(a) -> float:
    """Sum of singular values (dual norm to the operator norm)."""
    m = np.asarray(a, dtype=np.complex128)
    _require_finite(m)
    if m.size == 0:
        return 0.0
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def singular_values(a) -> np.ndarray:
    """Singular values, descending, of a matrix or of each matrix of a
    stack."""
    m = np.asarray(a, dtype=np.complex128)
    _require_finite(m)
    return np.linalg.svd(m, compute_uv=False)


def direct_sum_norm(blocks) -> float:
    """The direct-sum operator norm max_i ||b_i|| of an element given as one
    array per block, such as a residual that a route only measures."""
    return max(operator_norm(b) for b in blocks)


def direct_sum_norms(stacks) -> np.ndarray:
    """The direct-sum norms of several elements of one algebra, given as one
    stack per block (element j's block i is stacks[i][j]): one LAPACK call
    per block, the same numbers as `direct_sum_norm` of each, bit for bit."""
    return reduce(np.maximum, (singular_values(s)[:, 0] for s in stacks))


def polar(a, side: str = "left") -> PolarDecomposition:
    """Polar decomposition of a square matrix with a unitary isometry factor.

    The left convention writes A = |A| u with |A| = (AA*)^(1/2); the right
    convention writes A = u |A| with |A| = (A*A)^(1/2).  In both the unitary
    factor is u = W V* from the SVD A = W diag(sigma) V*, which fixes a
    deterministic unitary completion on the kernel.
    """
    if side not in ("left", "right"):
        raise LinalgError(f"side must be 'left' or 'right', got {side!r}")
    m = as_matrix(a)
    _require_square(m)
    res = svd(m)
    w, s, v = res.left, res.singular_values, res.right
    u = w @ v.conj().T
    if side == "left":
        absolute = (w * s) @ w.conj().T
    else:
        absolute = (v * s) @ v.conj().T
    absolute = 0.5 * (absolute + absolute.conj().T)
    return PolarDecomposition(side=side, absolute=absolute, isometry=u)


def apply_function_hermitian(a, fn, tol: float = HERMITIAN_RESIDUAL_BOUND) -> np.ndarray:
    """Functional calculus: U diag(fn(lambda_i)) U* for Hermitian A.

    `fn` is sampled on the spectrum; it may be scalar or vectorized.
    """
    dec = hermitian_eig(a, tol=tol)
    vals = np.asarray([fn(float(ev)) for ev in dec.eigenvalues], dtype=np.complex128)
    u = dec.eigenvectors
    out = (u * vals) @ u.conj().T
    if np.allclose(vals.imag, 0.0):
        out = 0.5 * (out + out.conj().T)
    return out
