"""Dual-route operator classifiers, witnesses, and certificates.

Every class of operators gets an algebraic oracle (built from products and
adjoints) and a geometric route (built from norms and norming functionals
only).  Non-partial-isometries are refuted by an explicit witness element;
invertibles are certified by a unitary together with a spectral gap; the
unitary route reads the norming span off a construction.  Where no witness
exists, the partial-isometry route reads defect probes drawn from the
inactive singular frames of x: per block y = W_K G V_K*, where K holds the
singular values below the activity cut 1 - tol.classification of
`norming_set`.  Each probe lies in X1 by the face test of `x1_member`, so the
route asks whether X2 holds on each.  The extreme-point route asks whether x
has an inactive frame at all, which on a norm-one x is span_dim < dual_dim:
diag(1, 0.9995, 0) in M3 has no witness (no singular value lies in
[gap, 1 - gap]), and both routes say False, X2 failing on the first probe.
The probes come from a fixed stream, so a verdict depends on x alone.  The
extreme points of the unit ball are the unitaries, so the extreme-point
oracle is the unitary oracle.

Every public classifier takes its operands and, when it reads a
tolerance, the keyword-only `tol`; the witness function, the grids and the
sample counts are the constants below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from opgeo import linalg
from opgeo.algebra import (
    DEFAULT_TOLERANCES,
    Element,
    NormingMinimum,
    NormingSetDescription,
    Tolerances,
    element_norm,
    min_real_over_norming,
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
#: inactive-frame draws behind the probes of the partial-isometry route
_N_DIRECTIONS = 6
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


def _grid_norms(x: Element, y: Element, bs) -> np.ndarray:
    """||x + b y|| for every b in the flat sequence of scalars bs, one
    stacked SVD per block.  A y from another algebra raises ShapeMismatchError."""
    if x.shape != y.shape:
        raise ShapeMismatchError("elements live in different algebras")
    bs = np.asarray(bs, dtype=np.complex128)
    norms = np.zeros(bs.shape[0])
    for xb, yb in zip(x.blocks, y.blocks):
        stack = xb[None, :, :] + bs[:, None, None] * yb[None, :, :]
        s = np.linalg.svd(stack, compute_uv=False)
        norms = np.maximum(norms, s[:, 0])
    return norms


# ---------------------------------------------------------------------------
# partial isometries


def is_partial_isometry_algebraic(x: Element, *, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """x x* x = x within tol.classification (support identity oracle)."""
    return element_norm(x @ x.H @ x - x) <= tol.classification


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
    norm_plus, norm_minus, norm_at_b = map(float, _grid_norms(x, y, [1.0, -1.0, b]))
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
    nrm = element_norm(x)
    measured, verified, deviation = _measure_witness(x, nrm, w.y, w.b, w.spectral_point, tol)
    return verified, measured.margin, deviation


#: relative rounding allowance of one computed operator norm or norm bound
#: (backward-stable SVD and Cholesky: a few n * eps for n <= 64, with room
#: to spare)
_NORM_ROUNDING = 1e-12


def _direction_norm(x: Element, y: Element) -> float:
    """||y|| for a direction y of x's algebra; a y from another algebra
    raises ShapeMismatchError, also when y is zero."""
    if x.shape != y.shape:
        raise ShapeMismatchError("elements live in different algebras")
    return element_norm(y)


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

    The answer is max(||y V_J||, ||W_J* y||) / ||y|| <= member_tol (1e-7),
    the frames read from x.svds.  A zero y answers True.  An x off norm one
    raises PreconditionError, the zero element DegenerateInputError.
    """
    y_norm = _direction_norm(x, y)
    _, off = norm_one_gate(x, tol=tol)
    if off:
        raise PreconditionError(f"x1_member {off}")
    if y_norm <= _NEGLIGIBLE:
        return True
    deviation = 0.0
    for res, yb, j in zip(x.svds, y.blocks, norming_set(x, tol=tol).unit_indices):
        if j:
            w, v = res.left[:, list(j)], res.right[:, list(j)]
            pair = np.stack([yb @ v, yb.conj().T @ w])  # ||W_J* y|| = ||y* W_J||
            deviation = max(deviation, float(linalg.singular_values(pair)[:, 0].max()))
    return deviation <= _MEMBER_TOL * y_norm


def x2_deviation(x: Element, y: Element) -> float:
    """max over the b-grid of | ||x + by|| - max(1, ||by||) |, measured in
    two chunks: the 16 phases of the largest radius, then the other radii."""
    y_norm = _direction_norm(x, y)
    if y_norm <= _NEGLIGIBLE:
        return abs(element_norm(x) - 1.0)
    return max(
        float(np.max(np.abs(_grid_norms(x, y, bs) - np.maximum(1.0, np.abs(bs) * y_norm))))
        for bs in (_B_GRID[-1], _B_GRID[:-1].ravel())
    )


def x2_member(x: Element, y: Element) -> bool:
    """Tester for the max-identity set: ||x + by|| = max(1, ||by||) on the grid.

    The answer is that of x2_deviation(x, y) <= member_tol.  With
    r = max(1, |b| ||y||) and the rounding allowance
    d = 2 * _NORM_ROUNDING * (r + ||x||), two certified bounds decide it
    where they can, without measuring ||x + by||:

    - below, per point b: ||x + by|| >= ||(x + by) v|| for the top right
      singular vector v of a block of x, then of y (from the snapshots
      `svds`), two matvecs per block for the whole grid.  Above
      r + member_tol + d anywhere, the answer is False, and x's vectors
      alone reject most directions off X2 without y's SVD; at least
      r - member_tol + d settles that side of the point.
    - above, per radius rho: for |b| = rho, (x + by)*(x + by) is at most
      x*x + rho^2 y*y + 2 rho ||x*y||_F 1, so a successful Cholesky
      factorisation of c^2 1 minus that, on every block, gives
      ||x + by|| <= c at all 16 phases up to rounding far below d (Higham,
      Accuracy and Stability of Numerical Algorithms, 2002, section 10.1).
      At c = r + member_tol - d it settles the other side of the radii whose
      points all settled below; at c = r - member_tol - d, on the other
      radii, it answers False.

    Only radii that neither bound settles are measured, by one stacked SVD
    per block (`_grid_norms`), and compared with member_tol.  On a defect
    direction of a partial isometry both bounds are exact (y v_x = 0,
    x v_y = 0 and x*y = 0), so nothing is measured.
    """
    y_norm = _direction_norm(x, y)
    if y_norm <= _NEGLIGIBLE:
        return abs(element_norm(x) - 1.0) <= _MEMBER_TOL
    tol = _MEMBER_TOL
    rho = np.abs(_B_GRID[:, 0])
    r = np.maximum(1.0, rho * y_norm)
    d = 2.0 * _NORM_ROUNDING * (r + x.norm)
    lower = 0.0
    for snapshot in (x, y):
        for xb, yb, res in zip(x.blocks, y.blocks, snapshot.svds):
            v = res.right[:, 0]
            w = xb @ v + _B_GRID[:, :, None] * (yb @ v)
            lower = np.maximum(lower, np.sqrt(np.einsum("rpi,rpi->rp", w, w.conj()).real))
        if np.any(lower > (r + tol + d)[:, None]):
            return False
    grams = []
    for xb, yb in zip(x.blocks, y.blocks):
        xh = xb.conj().T
        cross = xh @ yb
        grams.append((xh @ xb, yb.conj().T @ yb, 2.0 * np.sqrt(np.vdot(cross, cross).real)))
    open_ = np.any(lower < (r - tol + d)[:, None], axis=1)
    if open_.any() and _certainly_below(grams, rho[open_], (r - tol - d)[open_]):
        return False
    if not open_.all() and not _certainly_below(grams, rho[~open_], (r + tol - d)[~open_]):
        open_[:] = True
    if not open_.any():
        return True
    norms = _grid_norms(x, y, _B_GRID[open_].ravel()).reshape(-1, _PHASES.size)
    return bool(np.all(np.abs(norms - r[open_, None]) <= tol))


def _certainly_below(grams, rho: np.ndarray, c: np.ndarray) -> bool:
    """Whether c^2 1 - x*x - rho^2 y*y - 2 rho ||x*y||_F 1 has a Cholesky
    factorisation for every radius rho and every block, one stack per
    block; grams holds per block (x*x, y*y, 2 ||x*y||_F)."""
    try:
        for xx, yy, cross in grams:
            m = -(xx + (rho**2)[:, None, None] * yy)
            i = np.arange(xx.shape[0])
            m[:, i, i] += (c**2 - rho * cross)[:, None]
            np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


def _defect_direction(x: Element, rng: np.random.Generator) -> Element | None:
    """A normalized direction from the corner (1-q) A (1-p), p = x*x, q = xx*,
    or None below _DEFECT_FLOOR; harness T1F and gate criterion 1 draw it."""
    shape = x.shape
    blocks = []
    for b in x.blocks:
        d = b.shape[0]
        p = b.conj().T @ b
        q = b @ b.conj().T
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        blocks.append((np.eye(d) - q) @ g @ (np.eye(d) - p))
    y = Element(shape, tuple(blocks))
    nrm = element_norm(y)
    if nrm <= _DEFECT_FLOOR:
        return None
    return (1.0 / nrm) * y


def _random_direction(x: Element, rng: np.random.Generator) -> Element:
    blocks = [
        rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for d in x.shape.block_dims
    ]
    y = Element(x.shape, tuple(blocks))
    return (1.0 / element_norm(y)) * y


def _defect_probes(x: Element, face: NormingSetDescription, rng: np.random.Generator):
    """_N_DIRECTIONS normalized probes y = W_K G V_K* per block, drawn on
    demand from rng: K holds the inactive indices, sigma < 1 -
    tol.classification (outside the unit frame J of face = norming_set(x)),
    and G is complex Gaussian.  y V_J = 0 and W_J* y = 0, so each probe is in
    X1 (the "if" half of `x1_member`, with a = 1 - max sigma_K).  On a
    partial isometry K is the kernel, the defect corner (1 - xx*) A (1 - x*x).
    An x with no inactive index gives no probe."""
    frames = []
    for res, j in zip(x.svds, face.unit_indices):
        k = [i for i in range(len(res.singular_values)) if i not in j]
        frames.append((res.left[:, k], res.right[:, k].conj().T, len(k)))
    if not any(n for _, _, n in frames):
        return
    for _ in range(_N_DIRECTIONS):
        gs = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _, _, n in frames]
        scale = max(linalg.operator_norm(g) for g in gs)
        yield Element(x.shape, tuple(w @ (g / scale) @ vh for (w, vh, _), g in zip(frames, gs)))


def is_partial_isometry_geometric(x: Element, *, tol: Tolerances = DEFAULT_TOLERANCES) -> Verdict:
    """Geometric route: no witness exists and X2 holds on each defect probe
    drawn from default_rng(0).  The probes come from the inactive singular
    frames of x (`_defect_probes`), so each lies in X1 by construction, and
    X1 = X2 on them is X2 alone; a unitary has no inactive frame, and
    `directions_checked` reads 0."""
    pi = is_partial_isometry_algebraic(x, tol=tol)
    witness = construct_witness(x, tol=tol)
    probes = _defect_probes(x, norming_set(x, tol=tol), np.random.default_rng(0))
    return _pi_verdict(x, pi, witness, probes, tol)


def _pi_verdict(
    x: Element, pi: bool, witness: PartialIsometryWitness | None, probes, tol: Tolerances
) -> Verdict:
    evidence: dict = {}
    if witness is not None:
        evidence["witness"] = witness
        geometric = False
    else:
        geometric, checked = True, 0
        for checked, y in enumerate(probes, 1):
            if not x2_member(x, y):
                geometric = False
                break
        evidence["directions_checked"] = checked
    return Verdict("partial_isometry", pi, geometric, evidence, tol.as_dict())


def is_extreme_point(x: Element, *, tol: Tolerances = DEFAULT_TOLERANCES) -> Verdict:
    """Extreme points of the unit ball: no symmetric perturbation survives.

    In a direct sum of full matrix algebras the extreme points of the unit
    ball are exactly the unitaries (Kadison, Isometries of operator
    algebras, Ann. Math. 1951), so the algebraic route is the unitary
    oracle `is_unitary_algebraic`.  Geometric route: no witness and no
    inactive singular frame.  An inactive frame carries a probe in X1 (see
    `_defect_probes`), and without one X1 is {0} by the face test of
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
    """x*x = xx* = 1 within tol.classification."""
    one = Element.identity(x.shape)
    return (
        element_norm(x.H @ x - one) <= tol.classification
        and element_norm(x @ x.H - one) <= tol.classification
    )


def is_unitary_geometric(x: Element, *, tol: Tolerances = DEFAULT_TOLERANCES) -> Verdict:
    """Geometric route: the norming set spans the full dual.

    The span dimension is read off the exact parameterization, and the
    verdict rests on it.  The frames certify it: on an active block with
    unit singular frames W_J, V_J (k = |J|), the k^2 pure states v v* of
    `_state_vectors(k)` give norming functionals V_J v v* W_J*, of value
    f_v(x) = v* (W_J* x V_J) v = 1, spanning k^2 dimensions because
    `_hermitian_from_states` inverts the state table.  The evidence reports
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
        values = _state_values(w.conj().T @ x.blocks[i] @ v, _state_vectors(len(j)))
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
    defect = Element.identity(x.shape) - x.H @ x
    stacks = sample_norming_densities(desc, rng, samples)
    values = sum(np.einsum("sjk,kj->s", stacks[i], defect.blocks[i]) for i in desc.active_blocks)
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
    one = Element.identity(x.shape)
    p = one - x.H @ x
    t = np.array(_DEFECT_T_GRID)
    reference = _grid_norms(x @ x.H, p, t * t)[:, None]
    nrm = _grid_norms(x, p, (t[:, None] * _PHASES).ravel()).reshape(t.size, -1)
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
    """Check a certificate: u unitary, xu* Hermitian, lambda_min >= epsilon,
    each within tol.equality.

    Malformed certificates (epsilon <= 0, block mismatch) raise; a well-formed
    certificate that fails the spectral conditions returns False.
    """
    return _check_certificate(x, cert, tol)[0]


def _check_certificate(
    x: Element, cert: InvertibilityCertificate, tol: Tolerances
) -> tuple[bool, NormingMinimum | None]:
    """`verify_certificate`'s verdict with the one minimum it read, None
    when u is not unitary."""
    if not isinstance(cert, InvertibilityCertificate):
        raise MalformedCertificateError("not an invertibility certificate")
    if not (cert.epsilon > 0.0) or not np.isfinite(cert.epsilon):
        raise MalformedCertificateError(f"epsilon must be positive, got {cert.epsilon!r}")
    if cert.u.shape != x.shape:
        raise MalformedCertificateError("certificate unitary has mismatched block structure")
    try:
        result = min_real_over_norming(cert.u, x, tol=tol)
    except PreconditionError:
        return False, None
    hermitian = result.hermitian_residual <= tol.equality
    return hermitian and result.value >= cert.epsilon - tol.equality, result


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
    norms = _grid_norms(Element.identity(x.shape), x, [1j * s for s in signed])
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


def _state_vectors(n: int) -> np.ndarray:
    """Columns v of the n^2 pure states v v* spanning the states on M_n:
    e_j, then for each pair j < k in `np.triu_indices` order, (e_j + e_k)/sqrt2
    and (e_j + i e_k)/sqrt2 side by side."""
    j, k = np.triu_indices(n, 1)
    pair = n + 2 * np.arange(j.size)
    vecs = np.zeros((n, n * n), dtype=np.complex128)
    vecs[np.arange(n), np.arange(n)] = 1.0
    vecs[j, pair] = vecs[k, pair] = vecs[j, pair + 1] = 1.0 / np.sqrt(2.0)
    vecs[k, pair + 1] = 1j / np.sqrt(2.0)
    return vecs


def _state_values(b: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """tr(v v* b) = v* b v for every column v of vecs."""
    return np.einsum("ij,ij->j", vecs.conj(), b @ vecs)


def _hermitian_from_states(vals: np.ndarray, n: int) -> np.ndarray:
    """The Hermitian h whose values on the states of `_state_vectors(n)` are
    the real array vals.  With m = (h_jj + h_kk)/2, the pair (j, k) reads
    m + Re h_jk and m - Im h_jk."""
    j, k = np.triu_indices(n, 1)
    mid = 0.5 * vals[j] + 0.5 * vals[k]  # halves first: no overflow
    h = np.diag(vals[:n]).astype(np.complex128)
    h[j, k] = (vals[n::2] - mid) + 1j * (mid - vals[n + 1 :: 2])
    h[k, j] = h[j, k].conj()
    return h


def is_self_adjoint_states(x: Element, *, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """f(x) real, within tol.equality, for the spanning family of
    matrix-unit-derived states."""
    return all(
        np.max(np.abs(_state_values(b, _state_vectors(b.shape[0])).imag)) <= tol.equality
        for b in x.blocks
    )


def _self_adjoint_verdict(x: Element, herm_dev: float, tol: Tolerances) -> Verdict:
    """herm_dev = ||x - x*|| within tol.classification against the Lumer and state routes."""
    lumer, states = is_self_adjoint_lumer(x), is_self_adjoint_states(x, tol=tol)
    evidence = {"lumer": lumer, "states": states}
    return Verdict("self_adjoint", herm_dev <= tol.classification, lumer and states, evidence, tol.as_dict())


def recover_adjoint(x: Element) -> Element:
    """Recover x* from norm data alone: x = h + ik with h, k self-adjoint,
    and x* = h - ik.

    States are the norming functionals of the unit, so their values are
    norm data, and f(x) = f(h) + i f(k) with f(h), f(k) real.  Per block the
    n^2 spanning states are evaluated on x once; `_hermitian_from_states`
    inverts the real parts to h and the imaginary parts to k in closed form.
    x enters only through these values."""
    out_blocks = []
    for b in x.blocks:
        n = b.shape[0]
        vals = _state_values(b, _state_vectors(n))
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
    return _positive_verdict(x, element_norm(x - x.H), tol)


def _positive_verdict(x: Element, herm_dev: float, tol: Tolerances) -> Verdict:
    lam_min = min_re = np.inf
    max_im = spanning_max_im = 0.0
    for b in x.blocks:
        n = b.shape[0]
        eigvals, h_states = np.linalg.eigh(0.5 * (b + b.conj().T))
        lam_min = min(lam_min, float(eigvals[0]))
        _, k_states = np.linalg.eigh(-0.5j * (b - b.conj().T))
        vals = _state_values(b, np.concatenate([_state_vectors(n), h_states, k_states], axis=1))
        min_re = min(min_re, float(vals.real.min()))
        max_im = max(max_im, float(np.abs(vals.imag).max()))
        spanning_max_im = max(spanning_max_im, float(np.abs(vals[: n * n].imag).max()))
    spectral = herm_dev <= tol.classification and lam_min >= -tol.equality
    state_route = min_re >= -tol.equality and max_im <= tol.equality

    # norm route: real on the spanning states, as in is_self_adjoint_states
    nrm = x.norm
    shift_ok = element_norm(nrm * Element.identity(x.shape) - x) <= nrm + tol.equality
    norm_route = spanning_max_im <= tol.equality and shift_ok

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
    herm_dev = element_norm(x - x.H)
    positive = _positive_verdict(x, herm_dev, tol)
    return _projection_verdict(x, is_partial_isometry_algebraic(x, tol=tol), herm_dev, positive, tol)


def _projection_verdict(x: Element, pi: bool, herm_dev: float, pos: Verdict, tol: Tolerances) -> Verdict:
    """v = 2x - 1 has v - v* = 2(x - x*) bit for bit, so the symmetry reads
    2 herm_dev: doubling is exact, and the real unit leaves the imaginary
    diagonal alone."""
    cut = tol.classification
    oracle = element_norm(x @ x - x) <= cut and herm_dev <= cut
    pi_and_positive = pi and pos.algebraic and pos.geometric
    v = 2.0 * x - Element.identity(x.shape)
    symmetry = 2.0 * herm_dev <= cut and is_unitary_algebraic(v, tol=tol)
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
        probes = _defect_probes(x, face, np.random.default_rng(0))
        verdicts["partial_isometry"] = _pi_verdict(x, pi, witness, probes, tol)
        unitary = verdicts["unitary"] = _unitary_verdict(x, face, tol)
        verdicts["extreme_point"] = _extreme_verdict(unitary.algebraic, witness, unitary.geometric, tol)
    else:
        verdicts.update(dict.fromkeys(("partial_isometry", "unitary", "extreme_point"), off))
    verdicts["invertible"] = _invertible_verdict(x, tol)
    if unit:
        herm_dev = element_norm(x - x.H)
        verdicts["self_adjoint"] = _self_adjoint_verdict(x, herm_dev, tol)
        positive = verdicts["positive"] = _positive_verdict(x, herm_dev, tol)
        pi = is_partial_isometry_algebraic(x, tol=tol) if pi is None else pi
        verdicts["projection"] = _projection_verdict(x, pi, herm_dev, positive, tol)
    return verdicts
