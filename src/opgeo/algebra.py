"""Finite direct sums of full matrix algebras, their duals, and norming sets.

The algebra is a direct sum of full complex matrix blocks with the max
norm across blocks.  Its dual is carried on the same block structure via
the trace pairing f(x) = sum_i tr(a_i x_i), with dual norm the sum of
block trace norms.  The face of the dual ball exposed by a norm-one
element x is parameterized exactly through the block SVD frames of x.
`Tolerances`, the one tolerance policy of the package, is defined here, the
lowest layer that reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from opgeo import linalg
from opgeo.errors import PreconditionError, ShapeMismatchError

BORDERLINE_THRESHOLD = 1e-4
#: singular values below this times the largest do not count toward a rank
SPAN_RANK_TOL = 1e-7


@dataclass(frozen=True)
class Tolerances:
    """The one tolerance policy.  `equality`: two computed quantities that
    agree in exact arithmetic count as equal.  `classification`: a measured
    deviation decides a predicate."""

    equality: float = 1e-8
    classification: float = 1e-6

    def __post_init__(self):
        for name, value in self.as_dict().items():
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"tolerance {name} must be finite and positive, got {value!r}")
        if not self.equality <= self.classification:
            raise ValueError(
                f"tolerances must be ordered equality <= classification, got {self.as_dict()}"
            )

    def as_dict(self) -> dict:
        return {"equality": self.equality, "classification": self.classification}


DEFAULT_TOLERANCES = Tolerances()


@dataclass(frozen=True)
class AlgebraShape:
    """Block dimensions [n_1, ..., n_k] of a direct sum of full matrix algebras."""

    block_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.block_dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"block dims must be positive and nonempty, got {dims}")
        object.__setattr__(self, "block_dims", dims)

    @property
    def dual_dimension(self) -> int:
        """Complex dimension of the dual: sum of n_i^2."""
        return sum(d * d for d in self.block_dims)

    def __str__(self) -> str:
        return "+".join(f"M{d}" for d in self.block_dims)


def _check_blocks(shape: AlgebraShape, blocks) -> tuple[np.ndarray, ...]:
    if len(blocks) != len(shape.block_dims):
        raise ShapeMismatchError(
            f"expected {len(shape.block_dims)} blocks, got {len(blocks)}"
        )
    out = []
    for dim, b in zip(shape.block_dims, blocks):
        m = linalg.as_matrix(b)
        if m.shape != (dim, dim):
            raise ShapeMismatchError(f"block of shape {m.shape} does not match M{dim}")
        m.setflags(write=False)
        out.append(m)
    return tuple(out)


@dataclass(frozen=True)
class Element:
    """A block-diagonal operator in the direct-sum algebra."""

    shape: AlgebraShape
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", _check_blocks(self.shape, self.blocks))

    @cached_property
    def svds(self) -> tuple[linalg.SVDResult, ...]:
        """Block SVDs W diag(sigma) V*, taken once per element: the spectral
        snapshot the classifiers read x's norm and frames from.  Caching is
        sound because `_check_blocks` makes every block read-only."""
        return tuple(linalg.svd(b) for b in self.blocks)

    @property
    def norm(self) -> float:
        """Direct-sum operator norm ||x|| = max_i sigma_max(x_i), from `svds`."""
        return max(float(r.singular_values[0]) for r in self.svds)

    @classmethod
    def from_blocks(cls, blocks) -> "Element":
        mats = [linalg.as_matrix(b) for b in blocks]
        shape = AlgebraShape(tuple(m.shape[0] for m in mats))
        return cls(shape, tuple(mats))

    @classmethod
    def identity(cls, shape: AlgebraShape) -> "Element":
        return cls(shape, tuple(np.eye(d, dtype=np.complex128) for d in shape.block_dims))

    @classmethod
    def zero(cls, shape: AlgebraShape) -> "Element":
        return cls(shape, tuple(np.zeros((d, d), dtype=np.complex128) for d in shape.block_dims))

    def _binary(self, other: "Element", op) -> "Element":
        if self.shape != other.shape:
            raise ShapeMismatchError("elements live in different algebras")
        return Element(self.shape, tuple(op(a, b) for a, b in zip(self.blocks, other.blocks)))

    def __add__(self, other: "Element") -> "Element":
        return self._binary(other, np.add)

    def __sub__(self, other: "Element") -> "Element":
        return self._binary(other, np.subtract)

    def __matmul__(self, other: "Element") -> "Element":
        return self._binary(other, np.matmul)

    def __mul__(self, scalar) -> "Element":
        s = complex(scalar)
        return Element(self.shape, tuple(s * b for b in self.blocks))

    __rmul__ = __mul__

    def __neg__(self) -> "Element":
        return self * (-1.0)

    @property
    def H(self) -> "Element":
        """Blockwise conjugate transpose."""
        return Element(self.shape, tuple(b.conj().T for b in self.blocks))

    def assemble(self) -> np.ndarray:
        """Dense block-diagonal matrix carrying all blocks."""
        n = sum(self.shape.block_dims)
        out = np.zeros((n, n), dtype=np.complex128)
        pos = 0
        for b in self.blocks:
            d = b.shape[0]
            out[pos : pos + d, pos : pos + d] = b
            pos += d
        return out


def take_snapshots(elements) -> None:
    """Take the `svds` of several elements of one algebra with one stacked
    SVD per block: the same snapshots, bit for bit, as each element's own,
    which later reads of `svds` and `norm` return."""
    shape = elements[0].shape
    if any(e.shape != shape for e in elements):
        raise ShapeMismatchError("elements live in different algebras")
    per_block = [linalg.svd_stack([e.blocks[i] for e in elements]) for i in range(len(shape.block_dims))]
    for e, svds in zip(elements, zip(*per_block)):
        vars(e)["svds"] = svds  # where the cached_property keeps its value


@dataclass(frozen=True)
class Functional:
    """A dual element under the trace pairing: f(x) = sum_i tr(a_i x_i)."""

    shape: AlgebraShape
    densities: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "densities", _check_blocks(self.shape, self.densities))

    @classmethod
    def from_densities(cls, densities) -> "Functional":
        mats = [linalg.as_matrix(a) for a in densities]
        shape = AlgebraShape(tuple(m.shape[0] for m in mats))
        return cls(shape, tuple(mats))

    def vectorize(self) -> np.ndarray:
        """Flat complex coordinate vector (used for span-rank computations)."""
        return np.concatenate([a.ravel() for a in self.densities])


def element_norm(x: Element) -> float:
    """Direct-sum operator norm from the singular values alone, for
    independent re-checks (x.norm reads x's snapshot)."""
    return linalg.direct_sum_norm(x.blocks)


def functional_norm(f: Functional) -> float:
    """Dual norm: sum of block trace norms."""
    return sum(linalg.trace_norm(a) for a in f.densities)


def evaluate(f: Functional, x: Element) -> complex:
    """Trace pairing f(x) = sum_i tr(a_i x_i)."""
    if f.shape != x.shape:
        raise ShapeMismatchError("functional and element shapes differ")
    return complex(sum(np.trace(a @ b) for a, b in zip(f.densities, x.blocks)))


@dataclass(frozen=True)
class NormingSetDescription:
    """Exact parameterization of the norming functionals of a norm-one element.

    Members are exactly the functionals with densities a_i = V_i c_i W_i*
    where W_i, V_i are the SVD frames of block i in base.svds, c_i is PSD,
    supported on the sigma = 1 singular subspace J_i = unit_indices[i], the
    traces sum to one across blocks, and a_i = 0 on inactive blocks, those
    with J_i empty.
    """

    base: Element
    unit_indices: tuple[tuple[int, ...], ...]
    warnings: tuple[str, ...] = field(default=())

    @property
    def span_dim(self) -> int:
        return sum(len(j) ** 2 for j in self.unit_indices)

    @property
    def active_blocks(self) -> tuple[int, ...]:
        return tuple(i for i, j in enumerate(self.unit_indices) if j)


def norming_set(x: Element, *, tol: Tolerances = DEFAULT_TOLERANCES) -> NormingSetDescription:
    """Describe the set of functionals with f(x) = ||f|| = 1.

    With c = tol.classification: requires ||x|| = 1 within c.  A block
    participates iff its operator norm is within c of one; within a
    participating block only the singular directions with sigma >= 1 - c
    carry dual mass.  Singular values in the borderline band
    [1 - 1e-4, 1 - c) are surfaced as warnings because the span dimension
    is discontinuous there.
    """
    cut = tol.classification
    nrm = x.norm
    if abs(nrm - 1.0) > cut:
        raise PreconditionError(f"norming_set requires ||x|| = 1, got {nrm!r}")
    unit_indices = []
    warnings = []
    for i, res in enumerate(x.svds):
        s = res.singular_values
        borderline = np.where((s >= 1.0 - BORDERLINE_THRESHOLD) & (s < 1.0 - cut))[0]
        if borderline.size:
            warnings.append(
                f"block {i}: singular values {s[borderline].tolist()} are within "
                f"[1-{BORDERLINE_THRESHOLD:.0e}, 1-{cut:.0e}) of the activity cliff"
            )
        unit_indices.append(tuple(int(j) for j in np.where(s >= 1.0 - cut)[0]))
    return NormingSetDescription(x, tuple(unit_indices), tuple(warnings))


def sample_norming_densities(
    desc: NormingSetDescription, rng: np.random.Generator, count: int
) -> tuple[np.ndarray, ...]:
    """Draw `count` random members of the described norming set at once.

    Returns one density stack of shape (count, n_i, n_i) per block, zero on
    inactive blocks.  Per active block the coefficient c is GG* for complex
    Gaussian G on the unit singular subspace and zero off it, and the
    density is the frame product V c W*; traces are normalized jointly per
    sample, so each member has dual norm exactly one.  The generator is read
    as by `count` single draws: per sample, per active block, the real k x k
    draw of G and then the imaginary one.
    """
    if not desc.active_blocks:
        raise PreconditionError("description has no active block")
    ks = [len(desc.unit_indices[i]) for i in desc.active_blocks]
    draws = rng.standard_normal((count, sum(2 * k * k for k in ks)))
    coefficients, pos = [], 0
    for k in ks:
        re, im = draws[:, pos : pos + 2 * k * k].reshape(count, 2, k, k).transpose(1, 0, 2, 3)
        g = re + 1j * im
        coefficients.append(g @ g.conj().transpose(0, 2, 1))
        pos += 2 * k * k
    del draws, re, im, g  # freed before the frame products, whose stacks are as large
    total = sum(np.trace(h, axis1=1, axis2=2).real for h in coefficients)
    densities = [np.zeros((count, d, d), dtype=np.complex128) for d in desc.base.shape.block_dims]
    for i, h in zip(desc.active_blocks, coefficients):
        res, idx, c = desc.base.svds[i], desc.unit_indices[i], densities[i]
        c[(slice(None),) + np.ix_(idx, idx)] = h
        c /= total[:, None, None]
        densities[i] = res.right @ c @ res.left.conj().T
    return tuple(densities)


def sample_norming_functional(desc: NormingSetDescription, rng: np.random.Generator) -> Functional:
    """Draw one random member of the described norming set: the single
    draw of `sample_norming_densities`."""
    return Functional(desc.base.shape, tuple(a[0] for a in sample_norming_densities(desc, rng, 1)))


def coordinate_rows(densities: tuple[np.ndarray, ...]) -> np.ndarray:
    """Coordinate vectors of a density stack, one row per sample, laid out
    as by `Functional.vectorize`."""
    return np.concatenate([a.reshape(len(a), -1) for a in densities], axis=1)


def numeric_span_rank(fs, tol: float = SPAN_RANK_TOL) -> int:
    """Complex-linear rank of a family of functionals, given as Functionals
    or as the rows of `coordinate_rows`.

    Counts singular values of the stacked coordinate vectors above
    tol * sigma_max.
    """
    if len(fs) == 0:
        return 0
    mat = fs if isinstance(fs, np.ndarray) else np.stack([f.vectorize() for f in fs])
    s = linalg.singular_values(mat)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


@dataclass(frozen=True)
class NormingMinimum:
    """Result of minimizing Re f(x) over the norming set of a unitary."""

    value: float
    hermitian_residual: float


def min_real_over_norming(
    u: Element, x: Element, *, tol: Tolerances = DEFAULT_TOLERANCES
) -> NormingMinimum:
    """inf of Re f(x) over functionals norming the unitary u.

    u counts as unitary when ||u*u - 1|| <= tol.equality; a u*u that
    overflows raises LinalgError.  The infimum equals the min over blocks
    of the smallest eigenvalue of the Hermitian part of x u*; the Hermitian
    residual max_i ||(xu*)_i - (xu*)_i*|| is reported alongside (it
    vanishes exactly when all f(x) are real).
    """
    if u.shape != x.shape:
        raise ShapeMismatchError("unitary and element shapes differ")
    dev = linalg.direct_sum_norm(b.conj().T @ b - np.eye(b.shape[0]) for b in u.blocks)
    if dev > tol.equality:
        raise PreconditionError(f"u is not unitary: ||u*u - 1|| = {dev:.3e}")
    products = [xb @ ub.conj().T for xb, ub in zip(x.blocks, u.blocks)]
    resid = linalg.direct_sum_norm(m - m.conj().T for m in products)
    value = min(float(np.linalg.eigvalsh(0.5 * m + 0.5 * m.conj().T)[0]) for m in products)  # halves first
    return NormingMinimum(value=value, hermitian_residual=resid)
