"""Dual-route operator classifiers, witnesses, and certificates.

Every class of operators gets an algebraic oracle (built from products and
adjoints) and a geometric route (built from norms and norming functionals
only).  Non-partial-isometries are refuted by an explicit witness element;
invertibles are certified by a unitary together with a spectral gap; the
unitary route reads the norming span off a construction.  Where no witness
exists, the partial-isometry route reads one frame probe from the inactive
singular frames of x: per block y = W_K V_K*, where K holds the singular
values below the activity cut 1 - tol.classification of `norming_set`.  The
probe lies in X1 by the face test of `x1_member`, and its X2 deviation is
the largest inactive singular value s, the largest of any direction of X1
(`_frame_probe`), so the route asks whether X2 holds on it.  The
extreme-point route asks whether x has an inactive frame at all, which on a
norm-one x is span_dim < dual_dim: diag(1, 0.9995, 0) in M3 has no witness
(no singular value lies in [gap, 1 - gap]), and both routes say False, X2
failing on the probe at deviation 0.9995.  No random stream is read, so a
verdict depends on x alone.  The extreme points of the unit ball are the
unitaries, so the extreme-point oracle is the unitary oracle.

Every public classifier takes its operands and, when it reads a
tolerance, the keyword-only `tol`; the witness function and the grids are
the constants below.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from opgeo import linalg
from opgeo.algebra import (
    DEFAULT_TOLERANCES,
    Element,
    NormingSetDescription,
    Tolerances,
    element_norm,
    norming_set,
    sample_norming_densities,
)
from opgeo.errors import (
    DegenerateInputError,
    MalformedCertificateError,
    PreconditionError,
    ShapeMismatchError,
)


#: a norm at or below this counts as zero
_NEGLIGIBLE = 1e-12
#: a defect corner of smaller norm gives no direction to test
_DEFECT_FLOOR = 1e-8
#: the scales alpha of the Lumer criterion
LUMER_ALPHAS = (1e-2, 1e-3, 1e-4)
#: slopes may reach this multiple of their scale alpha (Lumer criterion)
_LUMER_FACTOR = 10.0

#: a singular value ratio s of x/||x|| admits a witness when s lies in
#: [gap, 1 - gap]
_WITNESS_GAP = 1e-3
#: the 16th roots of unity, the phases of the X2 grid and of the defect audit
_PHASES = np.exp(1j * np.pi * np.arange(16) / 8.0)
#: the X2 grid b: 13 log-spaced radii (increasing, one row each) times _PHASES
_B_GRID = np.logspace(-3.0, 3.0, 13)[:, None] * _PHASES[None, :]
#: a direction belongs to X1 / X2 when its deviation is at most this
_MEMBER_TOL = 1e-7
#: the t of the defect audit
_DEFECT_T_GRID = (0.1, 0.5, 1.0, 2.0, 10.0)


def _witness_function(s):
    """phi(s) = s(1 - s): vanishes at 0 and 1, positive between, at most
    1/s - 1; elementwise on arrays."""
    return s * (1.0 - s)


@dataclass(frozen=True)
class PartialIsometryWitness:
    """Checkable refutation of partial-isometry membership.

    y stays in both comparison sets at small scales (||x +/- y|| = ||x||)
    yet breaks the max identity at b = ||x||/||y||, with a strictly positive
    margin ||x + by|| - ||x||.
    """

    y: Element
    b: float
    norm_plus: float
    norm_minus: float
    norm_at_b: float
    margin: float
    spectral_point: float


@dataclass(frozen=True)
class InvertibilityCertificate:
    """Unitary direction plus spectral gap certifying invertibility."""

    u: Element
    epsilon: float


@dataclass(frozen=True)
class Verdict:
    """Outcome of a dual-route classification."""

    predicate: str
    algebraic: bool
    geometric: bool
    evidence: dict
    tolerances: dict

    @property
    def agreement(self) -> bool:
        return self.algebraic == self.geometric


def norm_one_gate(x: Element, *, tol: Tolerances = DEFAULT_TOLERANCES) -> tuple[float, str | None]:
    """(||x||, None) when ||x|| = 1 within tol.classification, else
    (||x||, why not); ||x|| is x.norm.  The zero element raises DegenerateInputError."""
    nrm = x.norm
    if nrm <= _NEGLIGIBLE:
        raise DegenerateInputError("the zero element has no norm-one classification")
    if abs(nrm - 1.0) > tol.classification:
        return nrm, f"requires norm 1, got {nrm!r}"
    return nrm, None


def _same_algebra(x: Element, y: Element) -> None:
    """A direction y from another algebra than x raises ShapeMismatchError,
    also when y is zero."""
    if x.shape != y.shape:
        raise ShapeMismatchError("elements live in different algebras")


def _grid_norms(xs, ys, bs) -> np.ndarray:
    """||x + b y|| for every b in the flat sequence of scalars bs, x and y
    given as one array per block of one algebra, one stacked SVD per block."""
    bs = np.asarray(bs, dtype=np.complex128)[:, None, None]
    return linalg.direct_sum_norms([xb[None, :, :] + bs * yb[None, :, :] for xb, yb in zip(xs, ys)])


def _unit(b: np.ndarray) -> np.ndarray:
    """The unit of b's block, as Element.identity builds it."""
    return np.eye(b.shape[0], dtype=np.complex128)


# ---------------------------------------------------------------------------
# partial isometries


def is_partial_isometry_algebraic(x: Element, *, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """x x* x = x within tol.classification (support identity oracle)."""
    return linalg.direct_sum_norm((b @ b.conj().T) @ b - b for b in x.blocks) <= tol.classification


def construct_witness(
    x: Element, *, tol: Tolerances = DEFAULT_TOLERANCES
) -> PartialIsometryWitness | None:
    """Build the refuting element y = phi(|x|/||x||) x for the ray of x, or
    None if no singular value of x/||x|| lies in [gap, 1 - gap].

    |x| is the left absolute value (xx*)^(1/2) per block, so from the block
    SVDs x = W diag(sigma) V* in x.svds, y = W diag(phi(sigma/||x||) sigma) V*,
    and ||y|| is the largest of those values (phi >= 0 on [0, 1]).  The
    spectral point maximizes phi(s) * s among admissible s = sigma/||x||,
    which drives the margin at b = ||x||/||y||.  A witness that fails the
    rule of `verify_witness` at `tol` raises PreconditionError.
    """
    nrm, off = norm_one_gate(x, tol=tol)
    if off:
        raise PreconditionError(f"operation {off}")
    ratios = [r.singular_values / nrm for r in x.svds]
    admissible = [
        float(s) for rs in ratios for s in rs if _WITNESS_GAP <= s <= 1.0 - _WITNESS_GAP
    ]
    if not admissible:
        return None
    t = max(admissible, key=lambda s: _witness_function(s) * s)

    scaled = [_witness_function(rs) * r.singular_values for r, rs in zip(x.svds, ratios)]
    y = Element(x.shape, tuple((r.left * c) @ r.right.conj().T for r, c in zip(x.svds, scaled)))
    y_norm = max(float(c.max()) for c in scaled)
    witness, verified, deviation = _measure_witness(x, nrm, y, nrm / y_norm, t, tol)
    if not verified:
        raise PreconditionError(
            f"witness invariant violated: deviation {deviation!r}, margin {witness.margin!r}"
        )
    return witness


def _measure_witness(
    x: Element, nrm: float, y: Element, b: float, spectral_point: float, tol: Tolerances
) -> tuple[PartialIsometryWitness, bool, float]:
    """(witness, verified, deviation) for (y, b) measured on x, ||x|| = nrm."""
    norm_plus, norm_minus, norm_at_b = map(float, _grid_norms(x.blocks, y.blocks, [1.0, -1.0, b]))
    deviation = max(abs(norm_plus - nrm), abs(norm_minus - nrm))
    margin = norm_at_b - nrm
    witness = PartialIsometryWitness(y, b, norm_plus, norm_minus, norm_at_b, margin, spectral_point)
    return witness, deviation <= tol.equality and margin > 0.0, deviation


def verify_witness(
    x: Element, w: PartialIsometryWitness, *, tol: Tolerances = DEFAULT_TOLERANCES
) -> tuple[bool, float, float]:
    """(verified, margin, deviation) of w re-measured on x, by the rule that
    `construct_witness` applies: deviation = max | ||x +/- y|| - ||x|| | is at
    most tol.equality and margin = ||x + by|| - ||x|| is positive.  ||x||
    is measured afresh, not read from x's snapshot.

    A witness whose y lives in another algebra raises ShapeMismatchError.
    """
    _same_algebra(x, w.y)
    nrm = element_norm(x)
    measured, verified, deviation = _measure_witness(x, nrm, w.y, w.b, w.spectral_point, tol)
    return verified, measured.margin, deviation


#: relative rounding allowance of one computed operator norm or norm bound
#: (backward-stable SVD, the closed-form bounds of `_x2_bounds` and the norm
#: of `verify_certificate`: a few n * eps for n <= 64, with room to spare)
_NORM_ROUNDING = 1e-12


def x1_member(x: Element, y: Element, *, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """Tester for the symmetric-perturbation set of a norm-one x: does some
    a > 0 give ||x + ay|| = ||x - ay|| = 1?

    Per block the unit ball is the spectrahedron {z : [[1, z], [z*, 1]] >= 0},
    and the answer is read off its face at x (Akemann and Pedersen, Proc.
    London Math. Soc. 1992; Ramana and Goldman, J. Global Optim. 1995).  Let
    W_J, V_J be the unit singular frames of x, sigma >= 1 - tol.classification
    as in `norming_set`.  Then y is in X1 exactly when y V_J = 0 and
    W_J* y = 0 on every block:

    - only if: for a unit singular vector v with yv != 0,
      ||(x +/- ay)v||^2 = 1 +/- 2a Re<xv, yv> + a^2 ||yv||^2 exceeds 1 for
      one sign; W_J* y != 0 is the same with adjoints.
    - if: y maps the complement of V_J into that of W_J, so
      x +/- ay = W_J V_J* + (x' +/- ay') with ||x'|| = s < 1, and
      a = (1 - s)/||y|| keeps both norms at 1.

    The answer is that of `_in_face` on the face norming_set(x).  An x off
    norm one raises PreconditionError, the zero element DegenerateInputError.
    """
    _same_algebra(x, y)
    _, off = norm_one_gate(x, tol=tol)
    if off:
        raise PreconditionError(f"x1_member {off}")
    return _in_face(norming_set(x, tol=tol), [y])[0]


def _in_face(face: NormingSetDescription, ys) -> list[bool]:
    """The face test of `x1_member` for x = face.base on each direction of
    the sequence ys, whose face a caller testing many directions builds
    once: max(||y V_J||, ||W_J* y||) / ||y|| <= member_tol (1e-7), the
    frames read from x.svds and ||y|| from y.svds, one stacked call per
    active block for all of ys.  A zero y answers True."""
    norms = np.array([y.norm for y in ys])
    deviation = np.zeros(norms.size)
    for i, (res, j) in enumerate(zip(face.base.svds, face.unit_indices)):
        if j:
            w, v = res.left[:, list(j)], res.right[:, list(j)]
            yb = np.stack([y.blocks[i] for y in ys])
            pairs = np.stack([yb @ v, yb.conj().transpose(0, 2, 1) @ w], axis=1)  # ||W_J* y|| = ||y* W_J||
            deviation = np.maximum(deviation, linalg.singular_values(pairs)[:, :, 0].max(axis=1))
    return (deviation <= _MEMBER_TOL * norms).tolist()


def x2_deviation(x: Element, y: Element) -> float:
    """max over the b-grid of | ||x + by|| - max(1, ||by||) |, the 208
    points measured in one stack per block.  ||y|| is measured afresh, not
    read from y's snapshot."""
    _same_algebra(x, y)
    y_norm = element_norm(y)
    if y_norm <= _NEGLIGIBLE:
        return abs(element_norm(x) - 1.0)
    bs = _B_GRID.ravel()
    return float(np.max(np.abs(_grid_norms(x.blocks, y.blocks, bs) - np.maximum(1.0, np.abs(bs) * y_norm))))


def x2_member(x: Element, y: Element) -> bool:
    """Tester for the max-identity set: ||x + by|| = max(1, ||by||) on the grid.

    The answer is that of x2_deviation(x, y) <= member_tol.  With
    r = max(1, |b| ||y||), ||y|| read from y's snapshot, and the rounding
    allowance d = 2 * _NORM_ROUNDING * (r + ||x||), bounds read from the
    snapshots `svds` decide it where they can, without measuring ||x + by||:

    - per point b: ||x + by|| >= ||(x + by) v|| for the top right singular
      vector v of a block of x, then of y, two matvecs per block for the
      whole grid.  Above r + member_tol + d anywhere, the answer is False.
      x's vectors are held against the r of ||y||_F >= ||y||, so they alone
      reject most directions off X2 without y's SVD.
    - per radius: the two bounds of `_x2_bounds`.  Within member_tol - d of
      r on both sides at every radius, the answer is True.

    Anything else is measured by `x2_deviation`.  On a defect direction of
    a partial isometry the bounds are exact, so nothing is measured.
    """
    _same_algebra(x, y)
    tol = _MEMBER_TOL
    rho = np.abs(_B_GRID[:, 0])
    # x's vectors first, against the r of ||y||_F >= ||y||: they reject most
    # directions off X2 before y is decomposed
    r = np.maximum(1.0, rho * np.sqrt(sum(np.vdot(yb, yb).real for yb in y.blocks)))
    on_x = _top_images(x, y, x)
    at_points = _vector_lower_bound(on_x)
    if np.any(at_points > (r + tol + 2.0 * _NORM_ROUNDING * (r + x.norm))[:, None]):
        return False
    on_y = _top_images(x, y, y)
    r, upper, lower = _x2_bounds(x, y, on_x, on_y)
    d = 2.0 * _NORM_ROUNDING * (r + x.norm)
    at_points = np.maximum(at_points, _vector_lower_bound(on_y))
    if np.any(at_points > (r + tol + d)[:, None]):
        return False
    if np.all(upper <= r + tol - d) and np.all(lower >= r - tol + d):
        return True
    return x2_deviation(x, y) <= tol


def _top_images(x: Element, y: Element, snapshot: Element) -> list[tuple[np.ndarray, np.ndarray]]:
    """(x v, y v) per block, v the top right singular vector of the block of
    snapshot (x or y): the two matvecs that `_vector_lower_bound` and
    `_x2_bounds` share."""
    return [(xb @ r.right[:, 0], yb @ r.right[:, 0]) for xb, yb, r in zip(x.blocks, y.blocks, snapshot.svds)]


def _vector_lower_bound(images) -> np.ndarray:
    """max over blocks of ||(x + by) v|| = ||xv + b yv|| at every point b of
    the X2 grid, from the `_top_images` (xv, yv)."""
    lower = 0.0
    for xv, yv in images:
        w = xv + _B_GRID[:, :, None] * yv
        lower = np.maximum(lower, np.sqrt(np.einsum("rpi,rpi->rp", w, w.conj()).real))
    return lower


def _x2_bounds(x: Element, y: Element, on_x, on_y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(r, upper, lower) per radius rho of the X2 grid: r = max(1, rho ||y||)
    and upper >= ||x + by|| >= lower at every phase of |b| = rho, read from
    the snapshots of x and y, two matrix products per block, and the
    `_top_images` on_x of x's vectors and on_y of y's.  Per block:

    - above: (x + by)*(x + by) = x*x + rho^2 y*y + (b x*y + its adjoint), so
      ||x + by||^2 <= ||x*x + rho^2 y*y|| + 2 rho ||x*y||_F.  With
      S = [x; rho y], x*x + rho^2 y*y = S*S, whose norm is that of
      SS* = [[xx*, rho xy*], [rho yx*, rho^2 yy*]].  A block matrix has
      norm at most that of its nonnegative matrix of block norms (Bhatia,
      Matrix Analysis, 1997), here [[a, k], [k, c]] with a = ||x||^2,
      c = rho^2 ||y||^2 and k = rho ||xy*||_F, whose largest eigenvalue is
      (a + c + sqrt((a - c)^2 + 4k^2)) / 2.
    - below: ||x + by|| >= sigma_max(x) - rho ||y v_x|| and
      ||x + by|| >= rho sigma_max(y) - ||x v_y||, with v_x, v_y the top
      right singular vectors of the block of x and of y.

    On a defect direction of a partial isometry (x*y = xy* = 0, y v_x = 0,
    x v_y = 0) both sides equal max(||x||, rho ||y||).
    """
    rho = np.abs(_B_GRID[:, 0])
    upper = lower = 0.0
    for xb, yb, rx, ry, (_, yv), (xv, _) in zip(x.blocks, y.blocks, x.svds, y.svds, on_x, on_y):
        sx, sy = rx.singular_values[0], rho * ry.singular_values[0]
        k, cross = (np.sqrt(np.vdot(m, m).real) for m in (xb @ yb.conj().T, xb.conj().T @ yb))
        top = 0.5 * (sx**2 + sy**2 + np.sqrt((sx**2 - sy**2) ** 2 + 4.0 * (rho * k) ** 2))
        upper = np.maximum(upper, np.sqrt(top + 2.0 * rho * cross))
        lower = np.maximum(lower, sx - rho * np.sqrt(np.vdot(yv, yv).real))
        lower = np.maximum(lower, sy - np.sqrt(np.vdot(xv, xv).real))
    return np.maximum(1.0, rho * y.norm), upper, lower


def x2_deviation_bound(x: Element, y: Element) -> float:
    """A certified bound on | ||x + by|| - max(1, |b| ||y||) | at every
    radius |b| = rho of the X2 grid and at every phase of b, not only the
    grid's 16, read from the snapshots of x and y without measuring
    ||x + by||: the largest over the radii of max(upper - r, r - lower, 0),
    with (r, upper, lower) from `_x2_bounds`.

    So it is at least x2_deviation(x, y) up to the rounding allowance
    2 * _NORM_ROUNDING * (r + ||x||).  On a defect direction of a partial
    isometry both sides are exact and the bound is rounding.  A zero y
    gives | ||x|| - 1 |; a y from another algebra raises ShapeMismatchError.
    """
    _same_algebra(x, y)
    if y.norm <= _NEGLIGIBLE:
        return abs(element_norm(x) - 1.0)
    r, upper, lower = _x2_bounds(x, y, _top_images(x, y, x), _top_images(x, y, y))
    return float(max(0.0, np.max(np.maximum(upper - r, r - lower))))


def _draw_directions(x: Element, rng: np.random.Generator, defect) -> list[Element | None]:
    """Normalized directions of x, one per flag of the sequence `defect`,
    each from a complex Gaussian A, the generator read as by one draw per
    direction in turn: per block the real part of A, then the imaginary
    part.  A True flag takes the defect corner (1-q) A (1-p), p = x*x,
    q = xx*, and gives None at or below _DEFECT_FLOOR; a False flag takes A
    itself.  All are normalized with one stacked singular-value call per
    block."""
    dims = x.shape.block_dims
    draws = rng.standard_normal((len(defect), sum(2 * d * d for d in dims)))
    corners = np.flatnonzero(defect)
    stacks, pos = [], 0
    for b, d in zip(x.blocks, dims):
        re, im = draws[:, pos : pos + 2 * d * d].reshape(-1, 2, d, d).transpose(1, 0, 2, 3)
        a = re + 1j * im
        pos += 2 * d * d
        if corners.size:
            a[corners] = (np.eye(d) - b @ b.conj().T) @ a[corners] @ (np.eye(d) - b.conj().T @ b)
        stacks.append(a)
    norms = linalg.direct_sum_norms(stacks).tolist()
    return [
        None if d and nrm <= _DEFECT_FLOOR else Element(x.shape, tuple(complex(1.0 / nrm) * a[k] for a in stacks))
        for k, (d, nrm) in enumerate(zip(defect, norms))
    ]


def _defect_direction(x: Element, rng: np.random.Generator) -> Element | None:
    """One defect direction of `_draw_directions`, or None; gate criterion 1
    draws it."""
    return _draw_directions(x, rng, (True,))[0]


def _random_direction(x: Element, rng: np.random.Generator) -> Element:
    """One random direction of `_draw_directions`."""
    return _draw_directions(x, rng, (False,))[0]


def _frame_probe(x: Element, face: NormingSetDescription) -> Element | None:
    """The partial isometry y = W_K V_K* per block, K the inactive indices
    (sigma < 1 - tol.classification, outside the unit frame J of
    face = norming_set(x)), or None when no block has an inactive index.  On
    a partial isometry K is the kernel, and y lies in the defect corner
    (1 - xx*) A (1 - x*x).

    It is the direction of X1 with the largest X2 deviation (Akemann and
    Pedersen, Proc. London Math. Soc. 1992).  Let s be the largest inactive
    singular value over the blocks.

    - y is in X1: y V_J = 0 and W_J* y = 0, and a = 1 - s keeps
      ||x +/- ay|| <= 1 (the "if" half of `x1_member`).
    - its deviation is s: per block x + by = W diag(sigma_J, sigma_K + b) V*,
      so at b = rho >= 1, ||x + by|| = max(||x||, s + rho).
    - no unit y' in X1 deviates more: x + by' = W_J diag(sigma_J) V_J* plus
      x' + by' with ||x'|| = s, so max(||x||, |b| - s) <= ||x + by'|| <=
      max(||x||, s + |b|).

    So X2 holds on all of X1, up to the member tolerance, exactly when it
    holds on y, and one X2 test on y decides the route."""
    frames = list(zip(x.svds, face.unit_indices))  # J is a prefix of the descending sigma
    if all(len(j) == r.singular_values.size for r, j in frames):
        return None
    return Element(x.shape, tuple(r.left[:, len(j):] @ r.right[:, len(j):].conj().T for r, j in frames))


def is_partial_isometry_geometric(x: Element, *, tol: Tolerances = DEFAULT_TOLERANCES) -> Verdict:
    """Geometric route: no witness exists and X2 holds on the frame probe
    W_K V_K* of `_frame_probe`, which lies in X1 by construction and has the
    largest X2 deviation of any direction of X1, so X1 = X2 on it is X2
    alone; a unitary has no inactive frame, and `directions_checked` reads
    0, else 1."""
    pi = is_partial_isometry_algebraic(x, tol=tol)
    witness = construct_witness(x, tol=tol)
    return _pi_verdict(x, pi, witness, norming_set(x, tol=tol), tol)


def _pi_verdict(
    x: Element, pi: bool, witness: PartialIsometryWitness | None, face: NormingSetDescription, tol: Tolerances
) -> Verdict:
    if witness is not None:
        geometric, evidence = False, {"witness": witness}
    else:
        probe = _frame_probe(x, face)
        geometric = probe is None or x2_member(x, probe)
        evidence = {"directions_checked": int(probe is not None)}
    return Verdict("partial_isometry", pi, geometric, evidence, tol.as_dict())


def is_extreme_point(x: Element, *, tol: Tolerances = DEFAULT_TOLERANCES) -> Verdict:
    """Extreme points of the unit ball: no symmetric perturbation survives.

    In a direct sum of full matrix algebras the extreme points of the unit
    ball are exactly the unitaries (Kadison, Isometries of operator
    algebras, Ann. Math. 1951), so the algebraic route is the unitary
    oracle `is_unitary_algebraic`.  Geometric route: no witness and no
    inactive singular frame.  An inactive frame carries a probe in X1 (see
    `_frame_probe`), and without one X1 is {0} by the face test of
    `x1_member`.  On a norm-one x, no inactive frame is exactly
    span_dim == dual_dim of `norming_set`.
    """
    witness = construct_witness(x, tol=tol)
    span_full = norming_set(x, tol=tol).span_dim == x.shape.dual_dimension
    return _extreme_verdict(is_unitary_algebraic(x, tol=tol), witness, span_full, tol)


def _extreme_verdict(
    unitary: bool, witness: PartialIsometryWitness | None, span_full: bool, tol: Tolerances
) -> Verdict:
    evidence = {} if witness is None else {"witness": witness}
    return Verdict("extreme_point", unitary, witness is None and span_full, evidence, tol.as_dict())


# ---------------------------------------------------------------------------
# unitaries


def is_unitary_algebraic(x: Element, *, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """x*x = xx* = 1 within tol.classification, from one norm: on square
    blocks x*x and xx* have the same eigenvalues sigma^2, so
    ||xx* - 1|| = ||x*x - 1|| = max |sigma^2 - 1|."""
    return linalg.unitary_residual(x.blocks) <= tol.classification


def is_unitary_geometric(x: Element, *, tol: Tolerances = DEFAULT_TOLERANCES) -> Verdict:
    """Geometric route: the norming set spans the full dual.

    The span dimension is read off the exact parameterization, and the
    verdict rests on it.  The frames certify it: on an active block with
    unit singular frames W_J, V_J (k = |J|), the k^2 spanning pure states
    v v* of M_k give norming functionals V_J v v* W_J*, of value
    f_v(x) = v* (W_J* x V_J) v = 1 (`_spanning_values` of the compression),
    spanning k^2 dimensions because `_hermitian_from_states` inverts those
    values.  The evidence reports
    max |f_v(x) - 1| and the frame deviations ||W_J* W_J - 1||,
    ||V_J* V_J - 1||.  Elements of norm != 1 have an empty norming set in
    this sense and are geometrically non-unitary, with the reason of
    `norm_one_gate`; the zero element raises DegenerateInputError.
    """
    _, off = norm_one_gate(x, tol=tol)
    if off:
        evidence = {"dual_dimension": x.shape.dual_dimension, "reason": off}
        return Verdict("unitary", is_unitary_algebraic(x, tol=tol), False, evidence, tol.as_dict())
    return _unitary_verdict(x, norming_set(x, tol=tol), tol)


def _unitary_verdict(x: Element, desc: NormingSetDescription, tol: Tolerances) -> Verdict:
    """`is_unitary_geometric` on a norm-one x whose norming set is desc."""
    algebraic = is_unitary_algebraic(x, tol=tol)
    dual_dim = x.shape.dual_dimension
    evidence: dict = {"dual_dimension": dual_dim, "span_dim": desc.span_dim, "warnings": list(desc.warnings)}
    value_dev = left_dev = right_dev = 0.0
    for i in desc.active_blocks:
        j, r = list(desc.unit_indices[i]), x.svds[i]
        w, v, one = r.left[:, j], r.right[:, j], np.eye(len(j))
        values = _spanning_values(w.conj().T @ x.blocks[i] @ v)
        value_dev = max(value_dev, float(np.max(np.abs(values - 1.0))))
        left_dev = max(left_dev, linalg.operator_norm(w.conj().T @ w - one))
        right_dev = max(right_dev, linalg.operator_norm(v.conj().T @ v - one))
    evidence["norming_value_deviation"] = value_dev
    evidence["left_frame_deviation"] = left_dev
    evidence["right_frame_deviation"] = right_dev
    geometric = desc.span_dim == dual_dim
    return Verdict("unitary", algebraic, geometric, evidence, tol.as_dict())


def norming_annihilates_defect(
    x: Element, samples: int, rng: np.random.Generator, *, tol: Tolerances = DEFAULT_TOLERANCES
) -> float:
    """max over sampled norming functionals of |f(1 - x*x)| for a partial
    isometry x; vanishes because dual mass sits on the unit singular frame."""
    desc = norming_set(x, tol=tol)
    defect = [_unit(b) - b.conj().T @ b for b in x.blocks]
    stacks = sample_norming_densities(desc, rng, samples)
    values = sum(np.einsum("sjk,kj->s", stacks[i], defect[i]) for i in desc.active_blocks)
    return float(np.max(np.abs(values), initial=0.0))


@dataclass(frozen=True)
class DefectNormReport:
    """Norm identities for x + a t p with p = 1 - x*x, x a partial isometry.

    identity_deviation: max | ||x + atp||^2 - ||xx* + t^2 p|| |  (exact identity:
        the cross terms cancel because xp = 0).
    inequality_slack: max over the grid of ||x + atp||^2 - (1 + t^2), clipped
        at zero (the bound used to force f(p) = 0).
    orthogonal_case_deviation: max | ||x + atp|| - max(1, |t|) |; zero exactly
        when xx* is orthogonal to p, and strictly positive otherwise.
    """

    identity_deviation: float
    inequality_slack: float
    orthogonal_case_deviation: float


def defect_norm_identity(x: Element) -> DefectNormReport:
    """Audit the defect-perturbation norm identities over t in
    (0.1, 0.5, 1, 2, 10) and the 16th roots of unity a."""
    p = [_unit(b) - b.conj().T @ b for b in x.blocks]
    t = np.array(_DEFECT_T_GRID)
    reference = _grid_norms([b @ b.conj().T for b in x.blocks], p, t * t)[:, None]
    nrm = _grid_norms(x.blocks, p, (t[:, None] * _PHASES).ravel()).reshape(t.size, -1)
    return DefectNormReport(
        identity_deviation=float(np.max(np.abs(nrm * nrm - reference))),
        inequality_slack=max(0.0, float(np.max(nrm * nrm - (1.0 + t * t)[:, None]))),
        orthogonal_case_deviation=float(np.max(np.abs(nrm - np.maximum(1.0, t)[:, None]))),
    )


# ---------------------------------------------------------------------------
# invertibility


def element_min_singular_value(x: Element) -> float:
    """Smallest singular value over the blocks, from x's snapshot."""
    return min(float(r.singular_values[-1]) for r in x.svds)


def invertibility_certificate(
    x: Element, *, tol: Tolerances = DEFAULT_TOLERANCES
) -> InvertibilityCertificate | None:
    """Certificate (u, epsilon) with u the left-polar unitary and epsilon the
    smallest singular value; None when sigma_min <= tol.classification.  The
    SVD b = W diag(sigma) V* in x.svds gives both: u = W V* = polar(b)."""
    sigma_min = element_min_singular_value(x)
    if sigma_min <= tol.classification:
        return None
    u_blocks = [r.left @ r.right.conj().T for r in x.svds]
    return InvertibilityCertificate(
        u=Element(x.shape, tuple(u_blocks)), epsilon=sigma_min
    )


def verify_certificate(
    x: Element, cert: InvertibilityCertificate, *, tol: Tolerances = DEFAULT_TOLERANCES
) -> bool:
    """Check a certificate (u, epsilon) with one norm.  Let
    d = max_i ||u_i* u_i - 1||, t = 1/||x|| (x.norm, from x's snapshot) and
    gap = t (epsilon - tol.equality).  Accept when d <= tol.equality,
    gap > _NORM_ROUNDING and

        ||u - t x|| <= sqrt(1 - d) - gap.

    - Sound: ||u*u - 1|| <= d gives sigma_min(u) >= sqrt(1 - d), and Weyl's
      inequality sigma_min(tx) >= sigma_min(u) - ||u - tx|| then gives
      sigma_min(tx) >= gap.  Allowing _NORM_ROUNDING for the rounding of
      the measured norm, every accepted certificate proves
      sigma_min(x) >= epsilon - tol.equality - _NORM_ROUNDING ||x||, which
      gap > _NORM_ROUNDING keeps above 0.  This holds for any t > 0, so the
      snapshot only chooses t.
    - Exact on the polar certificate: u = W V* and x = W diag(sigma) V* give
      u - tx = W (1 - t sigma) V*, and t = 1/||x|| puts every 1 - t sigma_i
      in [0, 1), so ||u - tx|| = 1 - t sigma_min.  There the rule is
      sigma_min >= epsilon - tol.equality, up to the rounding d of u.

    The cut d <= tol.equality is a contract, not a soundness condition: the
    sqrt(1 - d) term pays for any d < 1, and the cut keeps u what a
    certificate names, a unitary up to rounding.

    The unitaries are an invariant of the Banach space (Kadison, Ann. Math.
    1951), so the test reads x only through ||x|| and ||u - tx||.  Malformed
    certificates (epsilon not positive and finite, block mismatch) raise
    MalformedCertificateError; the zero element and a well-formed
    certificate that fails return False.
    """
    if not isinstance(cert, InvertibilityCertificate):
        raise MalformedCertificateError("not an invertibility certificate")
    if not (cert.epsilon > 0.0) or not np.isfinite(cert.epsilon):
        raise MalformedCertificateError(f"epsilon must be positive, got {cert.epsilon!r}")
    if cert.u.shape != x.shape:
        raise MalformedCertificateError("certificate unitary has mismatched block structure")
    d = linalg.unitary_residual(cert.u.blocks)
    t = 1.0 / x.norm if x.norm > 0.0 else 0.0  # 1/||x|| overflows to inf below ~1e-308
    gap = t * (cert.epsilon - tol.equality)
    if d > tol.equality or not _NORM_ROUNDING < gap < np.inf:
        return False
    distance = linalg.direct_sum_norm(u - complex(t) * b for u, b in zip(cert.u.blocks, x.blocks))
    return bool(distance <= max(0.0, 1.0 - d) ** 0.5 - gap)


def _invertible_verdict(x: Element, tol: Tolerances) -> Verdict:
    """sigma_min > tol.classification against the certificate, re-checked."""
    cert = invertibility_certificate(x, tol=tol)
    sigma_min = element_min_singular_value(x)
    geometric = cert is not None and verify_certificate(x, cert, tol=tol)
    evidence = {"sigma_min": sigma_min} | ({} if cert is None else {"certificate": cert})
    return Verdict("invertible", sigma_min > tol.classification, geometric, evidence, tol.as_dict())


# ---------------------------------------------------------------------------
# unit-dependent predicates: the unit of a direct sum of matrix algebras is
# unique, the blockwise identity, and each route below builds it


def lumer_slopes(x: Element, alphas: tuple[float, ...] = LUMER_ALPHAS) -> dict[float, float]:
    """Signed slopes d(alpha) = (||1 + i alpha x|| - 1) / alpha for both signs."""
    signed = [s for a in alphas for s in (a, -a)]
    norms = _grid_norms([_unit(b) for b in x.blocks], x.blocks, [1j * s for s in signed])
    return {s: (float(n) - 1.0) / s for s, n in zip(signed, norms)}


def is_self_adjoint_lumer(x: Element) -> bool:
    """Lumer criterion: ||1 + i alpha x|| = 1 + o(alpha) as alpha -> 0
    relative to ||x||.

    Slopes are taken at the scales alpha / s, alpha in LUMER_ALPHAS and
    s = max(1, ||x||), and must decay linearly:
    max |d(+/-alpha/s)| <= 10 (alpha/s) s^2, compared as
    max |d| / s <= 10 alpha so that no square of ||x|| overflows.  An x
    whose norm overflows raises OverflowError.
    """
    scale = max(1.0, x.norm)
    if not np.isfinite(scale):
        raise OverflowError("the norm of x overflows")
    scaled = tuple(a / scale for a in LUMER_ALPHAS)
    slopes = lumer_slopes(x, scaled)
    return all(
        max(abs(slopes[s]), abs(slopes[-s])) / scale <= _LUMER_FACTOR * a
        for a, s in zip(LUMER_ALPHAS, scaled)
    )


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs j < k of M_n, in `np.triu_indices` order, as read-only
    index arrays (j, k)."""
    pairs = np.triu_indices(n, 1)
    for a in pairs:
        a.flags.writeable = False
    return pairs


def _spanning_values(b: np.ndarray) -> np.ndarray:
    """The values v* b v of the n^2 pure states v v* spanning the states on
    M_n, read from the entries of b: e_j gives b_jj, then each pair j < k of
    `_pairs(n)` gives, side by side, with m = (b_jj + b_kk)/2,
    (e_j + e_k)/sqrt2:    m + (b_jk + b_kj)/2,
    (e_j + i e_k)/sqrt2:  m + i (b_jk - b_kj)/2.
    This is the exact expansion of v* b v, so a route that reads these
    values reads b only through the n^2 state values.  Every entry is
    halved before it is added, as in `_hermitian_from_states`, so only a
    value beyond the largest float overflows."""
    n = b.shape[0]
    j, k = _pairs(n)
    half_jk, half_kj = 0.5 * b[j, k], 0.5 * b[k, j]
    diag = b.diagonal()
    mid = 0.5 * diag[j] + 0.5 * diag[k]
    vals = np.empty(n * n, dtype=np.complex128)
    vals[:n] = diag
    vals[n::2] = mid + (half_jk + half_kj)
    vals[n + 1 :: 2] = mid + 1j * (half_jk - half_kj)
    return vals


def _state_values(b: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """tr(v v* b) = v* b v for every column v of vecs."""
    return np.einsum("ij,ij->j", vecs.conj(), b @ vecs)


def _hermitian_from_states(vals: np.ndarray, n: int) -> np.ndarray:
    """The Hermitian h whose `_spanning_values` are the real array vals.
    With m = (h_jj + h_kk)/2, the pair (j, k) reads m + Re h_jk and
    m - Im h_jk."""
    j, k = _pairs(n)
    mid = 0.5 * vals[j] + 0.5 * vals[k]  # halves first: no overflow
    h = np.diag(vals[:n]).astype(np.complex128)
    h[j, k] = (vals[n::2] - mid) + 1j * (mid - vals[n + 1 :: 2])
    h[k, j] = h[j, k].conj()
    return h


def is_self_adjoint_states(x: Element, *, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """f(x) real, within tol.equality, for the spanning family of
    matrix-unit-derived states."""
    return _states_real([_spanning_values(b) for b in x.blocks], tol)


def _states_real(spanning: list[np.ndarray], tol: Tolerances) -> bool:
    """Every spanning state value of x, one array per block, real within
    tol.equality."""
    return all(np.max(np.abs(vals.imag)) <= tol.equality for vals in spanning)


def _self_adjoint_verdict(
    x: Element, herm_dev: float, spanning: list[np.ndarray], tol: Tolerances
) -> Verdict:
    """herm_dev = ||x - x*|| within tol.classification against the Lumer
    and state routes; spanning holds the `_spanning_values` of x's blocks."""
    lumer, states = is_self_adjoint_lumer(x), _states_real(spanning, tol)
    evidence = {"lumer": lumer, "states": states}
    return Verdict("self_adjoint", herm_dev <= tol.classification, lumer and states, evidence, tol.as_dict())


def recover_adjoint(x: Element) -> Element:
    """Recover x* from norm data alone: x = h + ik with h, k self-adjoint,
    and x* = h - ik.

    States are the norming functionals of the unit, so their values are
    norm data, and f(x) = f(h) + i f(k) with f(h), f(k) real.  Per block the
    n^2 spanning states are evaluated on x once (`_spanning_values`);
    `_hermitian_from_states` inverts the real parts to h and the imaginary
    parts to k in closed form.  x enters only through these values."""
    out_blocks = []
    for b in x.blocks:
        n = b.shape[0]
        vals = _spanning_values(b)
        out_blocks.append(
            _hermitian_from_states(vals.real, n) - 1j * _hermitian_from_states(vals.imag, n)
        )
    return Element(x.shape, tuple(out_blocks))


def is_positive(x: Element, *, tol: Tolerances = DEFAULT_TOLERANCES) -> Verdict:
    """Three-route positivity: spectral oracle, state values, and the
    norm-shift inequality || ||x|| 1 - x || <= ||x||.

    Per block, the state route evaluates the n^2 spanning states, the
    eigenstates of the Hermitian part H = (x + x*)/2 and those of the skew
    part K = (x - x*)/2i.  A state f has f(x) = f(H) + i f(K), and the
    values of the states on a Hermitian form the interval between its
    extreme eigenvalues, attained at eigenstates (Bonsall and Duncan,
    Numerical Ranges, 1971).  So the smallest real part (`state_min_real`)
    is lambda_min(H) and the largest |imaginary part| (`state_max_imag`)
    is ||K||, and all three routes are unanimous on clean inputs.  The
    Hermitian residual ||x - x*|| is compared with tol.classification,
    eigenvalues and state values with tol.equality.
    """
    return _positive_verdict(x, _hermitian_deviation(x), [_spanning_values(b) for b in x.blocks], tol)


def _hermitian_deviation(x: Element) -> float:
    """||x - x*||, on x's arrays."""
    return linalg.direct_sum_norm(b - b.conj().T for b in x.blocks)


def _positive_verdict(x: Element, herm_dev: float, spanning: list[np.ndarray], tol: Tolerances) -> Verdict:
    """`is_positive`, where spanning holds the `_spanning_values` of x's
    blocks; only the 2n eigenstates per block are evaluated here."""
    lam_min = min_re = np.inf
    max_im = 0.0
    for b, span in zip(x.blocks, spanning):
        h = linalg.hermitian_eig(b)
        lam_min = min(lam_min, float(h.eigenvalues[0]))
        k_states = linalg.hermitian_eig(-1j * b).eigenvectors  # the Hermitian part of -ib is K
        vals = np.concatenate([span, _state_values(b, np.concatenate([h.eigenvectors, k_states], axis=1))])
        min_re = min(min_re, float(vals.real.min()))
        max_im = max(max_im, float(np.abs(vals.imag).max()))
    spectral = herm_dev <= tol.classification and lam_min >= -tol.equality
    state_route = min_re >= -tol.equality and max_im <= tol.equality

    # norm route: real on the spanning states, as in is_self_adjoint_states
    nrm = x.norm
    shift_ok = linalg.direct_sum_norm(complex(nrm) * _unit(b) - b for b in x.blocks) <= nrm + tol.equality
    norm_route = _states_real(spanning, tol) and shift_ok

    evidence = {
        "lambda_min": lam_min,
        "state_min_real": min_re,
        "state_max_imag": max_im,
        "conditions": {"spectral": spectral, "states": state_route, "norm_shift": norm_route},
        "unanimous": spectral == state_route == norm_route,
    }
    return Verdict("positive", spectral, state_route and norm_route, evidence, tol.as_dict())


def is_projection(x: Element, *, tol: Tolerances = DEFAULT_TOLERANCES) -> Verdict:
    """Three-route projection test: idempotent-Hermitian oracle, positive
    partial isometry, and the symmetry x = (1 + v)/2 with v self-adjoint
    unitary, each residual within tol.classification."""
    herm_dev = _hermitian_deviation(x)
    positive = _positive_verdict(x, herm_dev, [_spanning_values(b) for b in x.blocks], tol)
    return _projection_verdict(x, is_partial_isometry_algebraic(x, tol=tol), herm_dev, positive, tol)


def _projection_verdict(x: Element, pi: bool, herm_dev: float, pos: Verdict, tol: Tolerances) -> Verdict:
    """v = 2x - 1 has v - v* = 2(x - x*) bit for bit, so the symmetry reads
    2 herm_dev: doubling is exact, and the real unit leaves the imaginary
    diagonal alone."""
    cut = tol.classification
    oracle = linalg.direct_sum_norm(b @ b - b for b in x.blocks) <= cut and herm_dev <= cut
    pi_and_positive = pi and pos.algebraic and pos.geometric
    v = [complex(2.0) * b - _unit(b) for b in x.blocks]  # before the cut: an overflow of 2x raises here
    symmetry = 2.0 * herm_dev <= cut and linalg.unitary_residual(v) <= cut
    evidence = {
        "conditions": {
            "idempotent_hermitian": oracle,
            "positive_partial_isometry": pi_and_positive,
            "symmetry_unitary": symmetry,
        },
        "unanimous": oracle == pi_and_positive == symmetry,
    }
    return Verdict("projection", oracle, pi_and_positive and symmetry, evidence, tol.as_dict())


# ---------------------------------------------------------------------------
# one classify pass


def classify_all(
    x: Element, *, unit: bool, tol: Tolerances = DEFAULT_TOLERANCES
) -> dict[str, Verdict | str]:
    """Each predicate, in report order, mapped to its verdict or to the reason
    its norm-one route does not apply; self-adjoint, positive and projection
    only when unit.  The PI oracle, the witness, the norming set,
    ||x - x*|| and the positivity verdict are computed once each, where the
    standalone routes run in this order first would (off norm one, the PI
    oracle waits for the projection route).  The extreme-point verdict reads
    the unitary verdict's span_dim == dual_dim.  The zero element raises
    DegenerateInputError."""
    _, off = norm_one_gate(x, tol=tol)
    verdicts: dict[str, Verdict | str] = {}
    pi = None
    if off is None:
        pi = is_partial_isometry_algebraic(x, tol=tol)
        witness = construct_witness(x, tol=tol)
        face = norming_set(x, tol=tol)
        verdicts["partial_isometry"] = _pi_verdict(x, pi, witness, face, tol)
        unitary = verdicts["unitary"] = _unitary_verdict(x, face, tol)
        verdicts["extreme_point"] = _extreme_verdict(unitary.algebraic, witness, unitary.geometric, tol)
    else:
        verdicts.update(dict.fromkeys(("partial_isometry", "unitary", "extreme_point"), off))
    verdicts["invertible"] = _invertible_verdict(x, tol)
    if unit:
        herm_dev = _hermitian_deviation(x)
        spanning = [_spanning_values(b) for b in x.blocks]
        verdicts["self_adjoint"] = _self_adjoint_verdict(x, herm_dev, spanning, tol)
        positive = verdicts["positive"] = _positive_verdict(x, herm_dev, spanning, tol)
        pi = is_partial_isometry_algebraic(x, tol=tol) if pi is None else pi
        verdicts["projection"] = _projection_verdict(x, pi, herm_dev, positive, tol)
    return verdicts
