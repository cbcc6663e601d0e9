"""Dual-route operator classifiers, witnesses, and certificates.

Every class of operators gets an algebraic oracle (built from products and
adjoints) and a geometric route (built from norms and norming functionals
only).  Non-partial-isometries are refuted by an explicit witness element;
invertibles are certified by a unitary together with a spectral gap.  The
membership testers for the two comparison sets of the partial-isometry
characterization exist to exhibit the equivalence on samples; verdicts always
rest on the exact witness / span / certificate constructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from opgeo import linalg
from opgeo.algebra import (
    Element,
    Functional,
    NormingMinimum,
    element_norm,
    evaluate,
    min_real_over_norming,
    norming_set,
    numeric_span_rank,
    sample_norming_functional,
)
from opgeo.errors import (
    DegenerateInputError,
    MalformedCertificateError,
    PreconditionError,
    ShapeMismatchError,
)


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

#: a norm, or a witness-function value, at or below this counts as zero
_NEGLIGIBLE = 1e-12
#: points of (0, 1) at which a witness function is validated
_PHI_GRID = np.linspace(1e-4, 1.0 - 1e-4, 2001)
#: a defect corner of smaller norm gives no direction to test
_DEFECT_FLOOR = 1e-8
#: the scales alpha of the Lumer criterion
LUMER_ALPHAS = (1e-2, 1e-3, 1e-4)


def default_witness_function(s: float) -> float:
    """s(1-s): vanishes at 0 and 1, positive between, bounded by 1/s - 1."""
    return s * (1.0 - s)


def _validate_witness_function(phi: Callable[[float], float]) -> None:
    if abs(phi(0.0)) > _NEGLIGIBLE or abs(phi(1.0)) > _NEGLIGIBLE:
        raise ValueError("witness function must vanish at 0 and 1")
    vals = np.array([phi(float(s)) for s in _PHI_GRID])
    if np.any(vals <= 0.0):
        raise ValueError("witness function must be positive on (0, 1)")
    if np.any(vals > 1.0 / _PHI_GRID - 1.0 + _NEGLIGIBLE):
        raise ValueError("witness function must satisfy phi(s) <= 1/s - 1")


@dataclass(frozen=True)
class WitnessConfig:
    """Knobs for witness construction and the X1/X2 membership testers."""

    witness_function: Callable[[float], float] = default_witness_function
    gap: float = 1e-3
    b_radii: tuple[float, ...] = tuple(np.logspace(-3.0, 3.0, 13))
    n_phases: int = 16
    a_floor: float = 1e-3    # lower end of the X1 search, relative to 1/||y||
    a_ceiling: float = 10.0  # upper end, relative to 1/||y||
    a_grid_points: int = 40
    member_tol: float = 1e-7

    def __post_init__(self):
        _validate_witness_function(self.witness_function)
        if not (0.0 < self.gap < 0.5):
            raise ValueError("gap must lie in (0, 1/2)")

    def b_grid(self) -> np.ndarray:
        """Complex grid of log-spaced radii times 16th-roots-of-unity phases."""
        phases = np.exp(1j * np.pi * np.arange(self.n_phases) / 8.0)
        return (np.asarray(self.b_radii)[:, None] * phases[None, :]).ravel()


DEFAULT_WITNESS_CONFIG = WitnessConfig()


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
    (||x||, why not).  The zero element raises DegenerateInputError."""
    nrm = element_norm(x)
    if nrm <= _NEGLIGIBLE:
        raise DegenerateInputError("the zero element has no norm-one classification")
    if abs(nrm - 1.0) > tol.classification:
        return nrm, f"requires norm 1, got {nrm!r}"
    return nrm, None


def _grid_norms(x: Element, y: Element, bs: np.ndarray) -> np.ndarray:
    """||x + b y|| for every b in the flat complex array bs (batched SVD)."""
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
    x: Element,
    cfg: WitnessConfig = DEFAULT_WITNESS_CONFIG,
    *, tol: Tolerances = DEFAULT_TOLERANCES,
) -> PartialIsometryWitness | None:
    """Build the refuting element y = phi(|x|/||x||) x for the ray of x, or
    None if no singular value of x/||x|| lies in [gap, 1 - gap].

    |x| is the left absolute value (xx*)^(1/2) per block, so from the block
    SVDs x = W diag(sigma) V*, y = W diag(phi(sigma/||x||) sigma) V*.  The
    spectral point maximizes phi(s) * s among admissible s = sigma/||x||,
    which drives the margin at b = ||x||/||y||.  A witness that fails the
    rule of `verify_witness` at `tol` raises PreconditionError.
    """
    nrm, off = norm_one_gate(x, tol=tol)
    if off:
        raise PreconditionError(f"operation {off}")
    phi = cfg.witness_function
    admissible = [
        float(s)
        for b in x.blocks
        for s in linalg.singular_values(b) / nrm
        if cfg.gap <= s <= 1.0 - cfg.gap
    ]
    if not admissible:
        return None
    t = max(admissible, key=lambda s: phi(s) * s)

    y_blocks = []
    for w, sigma, vh in map(np.linalg.svd, x.blocks):
        scaled = np.array([phi(float(s)) for s in sigma / nrm]) * sigma
        y_blocks.append((w * scaled) @ vh)
    y = Element(x.shape, tuple(y_blocks))
    witness, verified, deviation = _measure_witness(x, nrm, y, nrm / element_norm(y), t, tol)
    if not verified:
        raise PreconditionError(
            f"witness invariant violated: deviation {deviation!r}, margin {witness.margin!r}"
        )
    return witness


def _measure_witness(
    x: Element, nrm: float, y: Element, b: float, spectral_point: float, tol: Tolerances
) -> tuple[PartialIsometryWitness, bool, float]:
    """(witness, verified, deviation) for (y, b) measured on x, ||x|| = nrm."""
    norm_plus, norm_minus = element_norm(x + y), element_norm(x - y)
    norm_at_b = element_norm(x + b * y)
    deviation = max(abs(norm_plus - nrm), abs(norm_minus - nrm))
    margin = norm_at_b - nrm
    witness = PartialIsometryWitness(y, b, norm_plus, norm_minus, norm_at_b, margin, spectral_point)
    return witness, deviation <= tol.equality and margin > 0.0, deviation


def verify_witness(
    x: Element, w: PartialIsometryWitness, *, tol: Tolerances = DEFAULT_TOLERANCES
) -> tuple[bool, float, float]:
    """(verified, margin, deviation) of w re-measured on x, by the rule that
    `construct_witness` applies: deviation = max | ||x +/- y|| - ||x|| | is at
    most tol.equality and margin = ||x + by|| - ||x|| is positive.

    A witness whose y lives in another algebra raises ShapeMismatchError.
    """
    nrm = element_norm(x)
    measured, verified, deviation = _measure_witness(x, nrm, w.y, w.b, w.spectral_point, tol)
    return verified, measured.margin, deviation


#: relative rounding allowance of one computed operator norm (backward-stable
#: SVD: a few n * eps for n <= 64, with room to spare)
_NORM_ROUNDING = 1e-12


def _pm_norms(x: Element, y: Element, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(||x + ay||, ||x - ay||) for every a in the real array a, one stacked
    SVD per block."""
    plus, minus = _grid_norms(x, y, np.concatenate([a, -a])).reshape(2, -1)
    return plus, minus


def _convex_floor(a: np.ndarray, f: np.ndarray, lo: int, hi: int) -> float:
    """Lower bound on [a[lo], a[hi]] of a convex function sampled as f at the
    increasing points a; -inf when no sample outside a step bounds it."""
    bound = np.inf
    for i in range(lo, hi):
        p, q = a[i], a[i + 1]
        lines = []  # (anchor, value, slope) of secants extended into [p, q]
        if i >= 1:
            lines.append((p, f[i], (f[i] - f[i - 1]) / (p - a[i - 1])))
        if i + 2 < len(a):
            lines.append((q, f[i + 1], (f[i + 2] - f[i + 1]) / (a[i + 2] - q)))
        if not lines:
            return -np.inf
        points = [p, q]
        if len(lines) == 2 and lines[0][2] != lines[1][2]:
            (t0, v0, s0), (t1, v1, s1) = lines
            points.append(min(max((v1 - v0 + s0 * t0 - s1 * t1) / (s0 - s1), p), q))
        bound = min(
            bound, min(max(v + s * (t - t0) for t0, v, s in lines) for t in points)
        )
    return float(bound)


def x1_member(x: Element, y: Element, cfg: WitnessConfig = DEFAULT_WITNESS_CONFIG) -> bool:
    """Tester for the symmetric-perturbation set: does some a > 0 give
    ||x + ay|| = ||x - ay|| = 1?

    The target is D(a) = max(| ||x+ay|| - 1 |, | ||x-ay|| - 1 |) <= member_tol
    for some a on a log-grid over [a_floor, a_ceiling] / ||y|| or in the step
    bracket [grid[k-1], grid[k+1]] around the grid minimizer k.  This is a
    harness tester, not a decision procedure.  Four stages, all on the raw
    block arrays:

    1. Grid.  Both signs at every grid point come from one stacked SVD per
       block.
    2. Accept.  A grid point with D <= member_tol answers True.
    3. Reject.  F(a) = max(||x+ay||, ||x-ay||) is convex (a max of norms of
       affine maps), and D(a) <= member_tol forces F(a) <= 1 + member_tol.
       Secant slopes of a convex function do not decrease, so the secant
       through two neighbouring grid samples, extended past them, lies below
       F there.  On each bracket step the secants from the steps on either
       side thus bound F from below.  If that bound exceeds 1 + member_tol
       by more than the rounding of the samples and of the refinement's own
       evaluations (_NORM_ROUNDING times F, widened by the secant's lever
       1 + 2 * step ratio), no point of the bracket qualifies: False.
    4. Refine.  An undecided bracket runs a golden-section search of D,
       stopping early once D <= member_tol / 10.
    """
    y_norm = element_norm(y)
    if y_norm <= _NEGLIGIBLE:
        # 0 belongs to both comparison sets; admitted by continuity.
        return True
    tol = cfg.member_tol

    def objective(a: float) -> float:
        plus, minus = _pm_norms(x, y, np.array([a]))
        return float(max(abs(plus[0] - 1.0), abs(minus[0] - 1.0)))

    grid = np.geomspace(cfg.a_floor / y_norm, cfg.a_ceiling / y_norm, cfg.a_grid_points)
    plus, minus = _pm_norms(x, y, grid)
    vals = np.maximum(np.abs(plus - 1.0), np.abs(minus - 1.0))
    k = int(np.argmin(vals))
    best = float(vals[k])
    if best <= tol:
        return True
    lo, hi = max(k - 1, 0), min(k + 1, len(grid) - 1)
    f = np.maximum(plus, minus)
    lever = 1.0 + 2.0 * (grid[1] / grid[0] if len(grid) > 1 else 1.0)
    if _convex_floor(grid, f, lo, hi) > 1.0 + tol + _NORM_ROUNDING * lever * float(f.max()):
        return False

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(grid[lo]), float(grid[hi])
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = objective(c), objective(d)
    for _ in range(60):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(d)
        best = min(best, fc, fd)
        if best <= tol / 10.0:
            break
    return best <= tol


def x2_deviation(x: Element, y: Element, cfg: WitnessConfig = DEFAULT_WITNESS_CONFIG) -> float:
    """max over the b-grid of | ||x + by|| - max(1, ||by||) |."""
    y_norm = element_norm(y)
    if y_norm <= _NEGLIGIBLE:
        return abs(element_norm(x) - 1.0)
    bs = cfg.b_grid()
    norms = _grid_norms(x, y, bs)
    reference = np.maximum(1.0, np.abs(bs) * y_norm)
    return float(np.max(np.abs(norms - reference)))


def x2_member(x: Element, y: Element, cfg: WitnessConfig = DEFAULT_WITNESS_CONFIG) -> bool:
    """Tester for the max-identity set: ||x + by|| = max(1, ||by||) on the grid."""
    return x2_deviation(x, y, cfg) <= cfg.member_tol


def _defect_direction(x: Element, rng: np.random.Generator) -> Element | None:
    """A normalized direction from the corner (1-q) A (1-p), p = x*x, q = xx*."""
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


def is_partial_isometry_geometric(
    x: Element,
    cfg: WitnessConfig = DEFAULT_WITNESS_CONFIG,
    rng: np.random.Generator | None = None,
    n_directions: int = 6,
    *, tol: Tolerances = DEFAULT_TOLERANCES,
) -> Verdict:
    """Geometric route: no witness exists and the two comparison-set testers
    agree on sampled directions (defect corner and random)."""
    rng = rng if rng is not None else np.random.default_rng(0)
    algebraic = is_partial_isometry_algebraic(x, tol=tol)
    witness = construct_witness(x, cfg, tol=tol)
    evidence: dict = {}
    if witness is not None:
        evidence["witness"] = witness
        geometric = False
    else:
        equivalent = True
        checked = 0
        for _ in range(n_directions):
            y = _defect_direction(x, rng)
            if y is not None:
                checked += 1
                if x1_member(x, y, cfg) != x2_member(x, y, cfg):
                    equivalent = False
                    break
            y = _random_direction(x, rng)
            checked += 1
            if x1_member(x, y, cfg) != x2_member(x, y, cfg):
                equivalent = False
                break
        evidence["directions_checked"] = checked
        geometric = equivalent
    return Verdict("partial_isometry", algebraic, geometric, evidence, tol.as_dict())


def is_extreme_point(
    x: Element,
    cfg: WitnessConfig = DEFAULT_WITNESS_CONFIG,
    rng: np.random.Generator | None = None,
    n_directions: int = 6,
    *, tol: Tolerances = DEFAULT_TOLERANCES,
) -> Verdict:
    """Extreme points of the unit ball: no symmetric perturbation survives.

    Algebraic route: partial isometry with a full support on one side in
    every block (forces unitary blocks here).  Geometric route: no witness
    and every sampled nonzero defect direction fails the X1 test.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    pi = is_partial_isometry_algebraic(x, tol=tol)
    full_support = True
    for b in x.blocks:
        d = b.shape[0]
        left = linalg.operator_norm(np.eye(d) - b @ b.conj().T)
        right = linalg.operator_norm(np.eye(d) - b.conj().T @ b)
        if min(left, right) > tol.classification:
            full_support = False
            break
    algebraic = pi and full_support

    witness = construct_witness(x, cfg, tol=tol)
    evidence: dict = {}
    if witness is not None:
        evidence["witness"] = witness
        geometric = False
    else:
        geometric = True
        for _ in range(n_directions):
            y = _defect_direction(x, rng)
            if y is None:
                continue
            if x1_member(x, y, cfg):
                geometric = False
                break
    return Verdict("extreme_point", algebraic, geometric, evidence, tol.as_dict())


# ---------------------------------------------------------------------------
# unitaries


def is_unitary_algebraic(x: Element, *, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """x*x = xx* = 1 within tol.classification."""
    one = Element.identity(x.shape)
    return (
        element_norm(x.H @ x - one) <= tol.classification
        and element_norm(x @ x.H - one) <= tol.classification
    )


def is_unitary_geometric(
    x: Element,
    rng: np.random.Generator | None = None,
    rank_check: bool = True,
    *, tol: Tolerances = DEFAULT_TOLERANCES,
) -> Verdict:
    """Geometric route: the norming set spans the full dual.

    The span dimension is read off the exact parameterization; a sampled
    numeric span rank cross-checks it.  Elements of norm != 1 have an empty
    norming set in this sense and are geometrically non-unitary.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    algebraic = is_unitary_algebraic(x, tol=tol)
    dual_dim = x.shape.dual_dimension
    evidence: dict = {"dual_dimension": dual_dim}
    nrm = element_norm(x)
    if abs(nrm - 1.0) > tol.classification:
        evidence["reason"] = f"norm {nrm!r} is not 1; norming set empty"
        return Verdict("unitary", algebraic, False, evidence, tol.as_dict())
    desc = norming_set(x, tol.classification)
    evidence["span_dim"] = desc.span_dim
    evidence["warnings"] = list(desc.warnings)
    if rank_check and desc.active_blocks:
        samples = [
            sample_norming_functional(desc, rng) for _ in range(3 * max(desc.span_dim, 1))
        ]
        evidence["numeric_span_rank"] = numeric_span_rank(samples)
    geometric = desc.span_dim == dual_dim
    return Verdict("unitary", algebraic, geometric, evidence, tol.as_dict())


def norming_annihilates_defect(
    x: Element, samples: int, rng: np.random.Generator, *, tol: Tolerances = DEFAULT_TOLERANCES
) -> float:
    """max over sampled norming functionals of |f(1 - x*x)| for a partial
    isometry x; vanishes because dual mass sits on the unit singular frame."""
    desc = norming_set(x, tol.classification)
    defect = Element.identity(x.shape) - x.H @ x
    worst = 0.0
    for _ in range(samples):
        f = sample_norming_functional(desc, rng)
        worst = max(worst, abs(evaluate(f, defect)))
    return worst


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


def defect_norm_identity(
    x: Element,
    t_grid: tuple[float, ...] = (0.1, 0.5, 1.0, 2.0, 10.0),
    n_phases: int = 16,
) -> DefectNormReport:
    """Audit the defect-perturbation norm identities over a t and phase grid."""
    one = Element.identity(x.shape)
    p = one - x.H @ x
    q = x @ x.H
    phases = np.exp(1j * np.pi * np.arange(n_phases) / 8.0)
    identity_dev = 0.0
    slack = 0.0
    orth_dev = 0.0
    for t in t_grid:
        reference = element_norm(q + (t * t) * p)
        for a in phases:
            nrm = element_norm(x + (a * t) * p)
            identity_dev = max(identity_dev, abs(nrm * nrm - reference))
            slack = max(slack, nrm * nrm - (1.0 + t * t))
            orth_dev = max(orth_dev, abs(nrm - max(1.0, t)))
    return DefectNormReport(
        identity_deviation=identity_dev,
        inequality_slack=max(0.0, slack),
        orthogonal_case_deviation=orth_dev,
    )


# ---------------------------------------------------------------------------
# invertibility


def element_min_singular_value(x: Element) -> float:
    return min(float(linalg.singular_values(b)[-1]) for b in x.blocks)


def invertibility_certificate(
    x: Element, *, tol: Tolerances = DEFAULT_TOLERANCES
) -> InvertibilityCertificate | None:
    """Certificate (u, epsilon) with u the left-polar unitary and epsilon the
    smallest singular value; None when sigma_min <= tol.classification.  One
    SVD per block b = W diag(sigma) V* gives both: u = W V* = polar(b)."""
    svds = [np.linalg.svd(b) for b in x.blocks]
    sigma_min = min(float(s[-1]) for _, s, _ in svds)
    if sigma_min <= tol.classification:
        return None
    u_blocks = [w @ vh for w, _, vh in svds]
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
    if not isinstance(cert, InvertibilityCertificate):
        raise MalformedCertificateError("not an invertibility certificate")
    if not (cert.epsilon > 0.0) or not np.isfinite(cert.epsilon):
        raise MalformedCertificateError(f"epsilon must be positive, got {cert.epsilon!r}")
    if cert.u.shape != x.shape:
        raise MalformedCertificateError("certificate unitary has mismatched block structure")
    try:
        result: NormingMinimum = min_real_over_norming(cert.u, x, unitary_tol=tol.equality)
    except PreconditionError:
        return False
    if result.hermitian_residual > tol.equality:
        return False
    return result.value >= cert.epsilon - tol.equality


# ---------------------------------------------------------------------------
# unit-dependent predicates


def _require_unit(x: Element, unit: Element, tol: Tolerances) -> None:
    if unit.shape != x.shape:
        raise ShapeMismatchError("unit and element shapes differ")
    dev = element_norm(unit - Element.identity(unit.shape))
    if dev > tol.equality:
        raise PreconditionError(f"supplied unit is not the identity: deviation {dev:.3e}")


def lumer_slopes(
    x: Element, unit: Element, alphas: tuple[float, ...] = LUMER_ALPHAS,
    *, tol: Tolerances = DEFAULT_TOLERANCES,
) -> dict[float, float]:
    """Signed slopes d(alpha) = (||1 + i alpha x|| - 1) / alpha for both signs."""
    _require_unit(x, unit, tol)
    out = {}
    for a in alphas:
        for signed in (a, -a):
            out[signed] = (element_norm(unit + (1j * signed) * x) - 1.0) / signed
    return out


def is_self_adjoint_lumer(
    x: Element,
    unit: Element,
    alphas: tuple[float, ...] = LUMER_ALPHAS,
    factor: float = 10.0,
    *, tol: Tolerances = DEFAULT_TOLERANCES,
) -> bool:
    """Lumer criterion: ||1 + i alpha x|| = 1 + o(alpha).

    For each scale the two signed slopes must decay linearly:
    max |d(+/-alpha)| <= factor * alpha * max(1, ||x||^2).
    """
    slopes = lumer_slopes(x, unit, alphas, tol=tol)
    bound_scale = max(1.0, element_norm(x) ** 2)
    for a in alphas:
        worst = max(abs(slopes[a]), abs(slopes[-a]))
        if worst > factor * a * bound_scale:
            return False
    return True


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


def is_self_adjoint_states(x: Element, unit: Element, *, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """f(x) real, within tol.equality, for the spanning family of
    matrix-unit-derived states."""
    _require_unit(x, unit, tol)
    return all(
        np.max(np.abs(_state_values(b, _state_vectors(b.shape[0])).imag)) <= tol.equality
        for b in x.blocks
    )


def recover_adjoint(x: Element, unit: Element, *, tol: Tolerances = DEFAULT_TOLERANCES) -> Element:
    """Recover x* from norm data alone: x = h + ik with h, k self-adjoint,
    and x* = h - ik.

    States are the norming functionals of the unit, so their values are
    norm data, and f(x) = f(h) + i f(k) with f(h), f(k) real.  Per block the
    n^2 spanning states are evaluated on x once; `_hermitian_from_states`
    inverts the real parts to h and the imaginary parts to k in closed form.
    x enters only through these values."""
    _require_unit(x, unit, tol)
    out_blocks = []
    for b in x.blocks:
        n = b.shape[0]
        vals = _state_values(b, _state_vectors(n))
        out_blocks.append(
            _hermitian_from_states(vals.real, n) - 1j * _hermitian_from_states(vals.imag, n)
        )
    return Element(x.shape, tuple(out_blocks))


def is_positive(
    x: Element,
    unit: Element,
    rng: np.random.Generator | None = None,
    samples: int = 50,
    *, tol: Tolerances = DEFAULT_TOLERANCES,
) -> Verdict:
    """Three-route positivity: spectral oracle, state values, and the
    norm-shift inequality || ||x|| 1 - x || <= ||x||.

    The state route evaluates the spanning basis, the eigenstates of the
    Hermitian part, and `samples` random pure states; its minimum equals
    the smallest eigenvalue of the Hermitian part, so all three routes are
    unanimous on clean inputs.  The Hermitian residual is compared with
    tol.classification, eigenvalues and state values with tol.equality.
    """
    _require_unit(x, unit, tol)
    rng = rng if rng is not None else np.random.default_rng(0)

    herm_dev = element_norm(x - x.H)
    lam_min = np.inf
    min_re = np.inf
    max_im = 0.0
    spanning_max_im = 0.0
    for b in x.blocks:
        n = b.shape[0]
        eigvals, eigvecs = np.linalg.eigh(0.5 * (b + b.conj().T))
        lam_min = min(lam_min, float(eigvals[0]))
        # same draw order as one (real n, imaginary n) pair per sample
        draws = rng.standard_normal((samples, 2, n))
        pure = (draws[:, 0] + 1j * draws[:, 1]).T
        pure /= np.linalg.norm(pure, axis=0)
        vals = _state_values(b, np.concatenate([_state_vectors(n), eigvecs, pure], axis=1))
        min_re = min(min_re, float(vals.real.min()))
        max_im = max(max_im, float(np.abs(vals.imag).max()))
        spanning_max_im = max(spanning_max_im, float(np.abs(vals[: n * n].imag).max()))
    spectral = herm_dev <= tol.classification and lam_min >= -tol.equality
    state_route = min_re >= -tol.equality and max_im <= tol.equality

    # norm route: real on the spanning states, as in is_self_adjoint_states
    nrm = element_norm(x)
    shift_ok = element_norm(nrm * unit - x) <= nrm + tol.equality
    norm_route = spanning_max_im <= tol.equality and shift_ok

    evidence = {
        "lambda_min": None if lam_min is np.inf else float(lam_min),
        "state_min_real": None if min_re is np.inf else float(min_re),
        "state_max_imag": float(max_im),
        "conditions": {
            "spectral": spectral,
            "states": state_route,
            "norm_shift": norm_route,
        },
        "unanimous": spectral == state_route == norm_route,
    }
    return Verdict("positive", spectral, state_route and norm_route, evidence, tol.as_dict())


def is_projection(
    x: Element,
    unit: Element,
    rng: np.random.Generator | None = None,
    *, tol: Tolerances = DEFAULT_TOLERANCES,
) -> Verdict:
    """Three-route projection test: idempotent-Hermitian oracle, positive
    partial isometry, and the symmetry x = (1 + v)/2 with v self-adjoint
    unitary, each residual within tol.classification."""
    _require_unit(x, unit, tol)
    cut = tol.classification
    oracle = element_norm(x @ x - x) <= cut and element_norm(x - x.H) <= cut

    pos = is_positive(x, unit, rng=rng, tol=tol)
    pi_and_positive = is_partial_isometry_algebraic(x, tol=tol) and pos.algebraic and pos.geometric

    v = 2.0 * x - unit
    one = Element.identity(x.shape)
    symmetry = (
        element_norm(v - v.H) <= cut
        and element_norm(v.H @ v - one) <= cut
        and element_norm(v @ v.H - one) <= cut
    )

    evidence = {
        "conditions": {
            "idempotent_hermitian": oracle,
            "positive_partial_isometry": pi_and_positive,
            "symmetry_unitary": symmetry,
        },
        "unanimous": oracle == pi_and_positive == symmetry,
    }
    return Verdict("projection", oracle, pi_and_positive and symmetry, evidence, tol.as_dict())
