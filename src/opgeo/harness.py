"""Seeded property suites exercising every characterization-level contract.

Each suite draws fresh operators from the generators and asserts the exact
contracts of the classify/algebra modules.  Per-trial RNG streams are
derived from (seed, suite, trial index), so the report is reproducible
bit-for-bit and independent of execution order.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from opgeo import algebra, classify
from opgeo.algebra import AlgebraShape, Element, element_norm, min_real_over_norming
from opgeo.classify import (
    DEFAULT_TOLERANCES,
    Tolerances,
    construct_witness,
    defect_norm_identity,
    invertibility_certificate,
    is_extreme_point,
    is_positive,
    is_projection,
    is_self_adjoint_lumer,
    is_self_adjoint_states,
    norming_annihilates_defect,
    recover_adjoint,
    verify_certificate,
    x2_deviation_bound,
    x2_member,
    element_min_singular_value,
)
# bench/test_bench.py asserts opgeo.harness.x1_member, a name the benchmark's tracer rebinds
from opgeo.classify import x1_member  # noqa: F401
from opgeo.generators import (
    _haar_block,
    gen_ginibre,
    gen_hermitian,
    gen_invertible,
    gen_norm_one_non_pi,
    gen_partial_isometry,
    gen_positive,
    gen_singular,
    gen_unitary,
    random_ranks,
)

DEFAULT_SHAPES = (
    AlgebraShape((2,)),
    AlgebraShape((4,)),
    AlgebraShape((6,)),
    AlgebraShape((2, 3)),
)

SUITE_IDS = {
    "T1F": 1,
    "T1B": 2,
    "T1X": 3,
    "T2": 4,
    "T2P": 5,
    "T4": 6,
    "LUMER": 7,
    "P6": 8,
    "P7": 9,
    "ADJ": 10,
}

ALL_SUITES = tuple(SUITE_IDS)

#: suites whose trials draw a norm-one non-partial-isometry, which needs a
#: block of dimension >= 2
_NON_PI_SUITES = frozenset({"T1B", "T1X", "T2", "P7"})
#: suites whose trials draw a rank-deficient nonzero partial isometry, which
#: needs more than a single M1 block
_PROPER_PI_SUITES = frozenset({"T1X", "T2", "T2P", "P7"})


#: largest block dimension a trial may draw: the desk scale, n <= 64
MAX_BLOCK_DIM = 64
#: bound on the rounding of an exact identity (T2P norms, T4 certificate values)
_IDENTITY_BOUND = 1e-9
#: a drawn non-projection partial isometry is redrawn until ||x - x*|| exceeds this
_MIN_SKEW = 1e-3
#: norming functionals T2 samples beyond span_dim, whose stack then has rank
#: span_dim with high probability (Halko, Martinsson and Tropp, SIAM Rev. 2011)
_SPAN_OVERSAMPLING = 10


def _undrawable(suite: str, shape: AlgebraShape) -> str | None:
    """Why the generators of `suite` cannot draw at `shape`, or None."""
    if suite in _NON_PI_SUITES and max(shape.block_dims) < 2:
        return "needs a block of dimension >= 2"
    if suite in _PROPER_PI_SUITES and sum(shape.block_dims) < 2:
        return "needs more than a single M1 block"
    return None


@dataclass(frozen=True)
class TrialConfig:
    seed: int = 0
    trials: int = 20
    shapes: tuple[AlgebraShape, ...] = DEFAULT_SHAPES
    tolerances: Tolerances = DEFAULT_TOLERANCES
    suites: tuple[str, ...] = ALL_SUITES

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        unknown = [s for s in self.suites if s not in SUITE_IDS]
        if unknown:
            raise ValueError(f"unknown suite name(s): {unknown}")
        for shape in self.shapes:
            if max(shape.block_dims) > MAX_BLOCK_DIM:
                raise ValueError(f"shape {shape} has a block above dimension {MAX_BLOCK_DIM}")
        for suite in self.suites:
            for shape in self.shapes:
                reason = _undrawable(suite, shape)
                if reason:
                    raise ValueError(f"suite {suite} cannot draw at shape {shape}: {reason}")


@dataclass
class SuiteResult:
    name: str
    trials: int = 0
    passes: int = 0
    max_deviation: float = 0.0
    wall_time_s: float = 0.0
    failures: list[dict] = field(default_factory=list)


@dataclass
class SuiteReport:
    config: TrialConfig
    suites: list[SuiteResult]

    @property
    def all_passed(self) -> bool:
        return all(r.passes == r.trials for r in self.suites)

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "config": {
                "seed": self.config.seed,
                "trials": self.config.trials,
                "shapes": [str(s) for s in self.config.shapes],
                "tolerances": self.config.tolerances.as_dict(),
                "suites": list(self.config.suites),
            },
            "suites": [],
        }
        for r in self.suites:
            entry = {
                "name": r.name,
                "trials": r.trials,
                "passes": r.passes,
                "max_deviation": r.max_deviation,
                "failures": r.failures,
            }
            if include_timing:
                entry["wall_time_s"] = r.wall_time_s
            out["suites"].append(entry)
        return out

    def to_json(self, include_timing: bool = False) -> str:
        return json.dumps(self.to_dict(include_timing), sort_keys=True, indent=2)

    def to_text(self) -> str:
        lines = [
            f"seed={self.config.seed} trials={self.config.trials} "
            f"shapes={','.join(str(s) for s in self.config.shapes)}"
        ]
        for r in self.suites:
            status = "PASS" if r.passes == r.trials else "FAIL"
            lines.append(
                f"{status} {r.name}: {r.passes}/{r.trials} passed, "
                f"max deviation {r.max_deviation:.3e}"
            )
            for f in r.failures:
                lines.append(
                    f"  failure trial={f['trial']} seed={f['seed']} shape={f['shape']} "
                    f"deviation={f['deviation']:.3e} retry_passed={f['retry_passed']}"
                )
        return "\n".join(lines) + "\n"


def _trial_rng(seed: int, suite: str, trial: int) -> np.random.Generator:
    return np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, SUITE_IDS[suite], trial])


# ---------------------------------------------------------------------------
# per-suite trial bodies: return (passed, deviation); a trial that fails
# before it can measure reports deviation 1.0


def _trial_t1f(shape, rng, tol: Tolerances):
    """The forward direction on a partial isometry x.  Each defect
    direction y must lie in X1, and its deviation is `x2_deviation_bound`,
    which certifies | ||x + by|| - max(1, |b| ||y||) | <= dev at every phase
    of each radius |b| = rho of the X2 grid, per block from

        ||x + by||^2 <= lambda_max([[a, k], [k, c]]) + 2 rho ||x*y||_F,
        ||x + by|| >= max(sigma_max(x) - rho ||y v_x||, rho sigma_max(y) - ||x v_y||),

    a = ||x||^2, c = rho^2 ||y||^2, k = rho ||xy*||_F the block norms of
    SS* for S = [x; rho y] (`classify._x2_bounds`), v_x, v_y the top right
    singular vectors.  Each random direction z must get the same answer
    from X1 and X2.  X1 is the face test of `x1_member` on the one face of x.
    The four defect and four random directions are drawn, normalized,
    decomposed and face-tested as stacks, one numpy.linalg call per block
    for each step (per active block for the face test); the X2 bound and X2
    run per direction."""
    x = gen_partial_isometry(shape, random_ranks(shape, rng), rng)
    face = algebra.norming_set(x, tol=tol)  # x has norm one
    drawn = classify._draw_directions(x, rng, (True, False) * 4)
    ys = [y for y in drawn[0::2] if y is not None]
    zs = drawn[1::2]
    algebra.take_snapshots(ys + zs)
    dev = max([0.0] + [x2_deviation_bound(x, y) for y in ys])
    in_x1 = classify._in_face(face, ys + zs)
    in_x2 = [x2_member(x, z) for z in zs]
    ok = all(in_x1[: len(ys)]) and in_x1[len(ys) :] == in_x2
    return ok and dev <= tol.equality, dev


def _trial_t1b(shape, rng, tol: Tolerances):
    x = gen_norm_one_non_pi(shape, rng)
    w = construct_witness(x, tol=tol)
    if w is None:
        return False, 1.0
    dev = max(abs(w.norm_plus - 1.0), abs(w.norm_minus - 1.0))
    ok = dev <= tol.equality and w.margin >= 0.05 and not x2_member(x, w.y)
    return ok, dev


def _draw_norm_one(shape, rng) -> tuple[Element, bool]:
    """A unitary, a proper partial isometry or a norm-one non-partial
    isometry, one third each, and whether it is unitary."""
    case = int(rng.integers(0, 3))
    if case == 0:
        return gen_unitary(shape, rng), True
    if case == 1:
        return gen_partial_isometry(shape, random_ranks(shape, rng, proper=True), rng), False
    return gen_norm_one_non_pi(shape, rng), False


def _trial_t1x(shape, rng, tol: Tolerances):
    x, expected = _draw_norm_one(shape, rng)
    v = is_extreme_point(x, tol=tol)
    ok = v.agreement and v.algebraic == expected
    return ok, 0.0 if ok else 1.0


def _trial_t2(shape, rng, tol: Tolerances):
    x, expect_full = _draw_norm_one(shape, rng)
    desc = algebra.norming_set(x, tol=tol)  # x has norm one
    v = classify._unitary_verdict(x, desc, tol)
    span = v.evidence["span_dim"]  # >= 1
    stacks = algebra.sample_norming_densities(desc, rng, span + _SPAN_OVERSAMPLING)
    rank = algebra.numeric_span_rank(algebra.coordinate_rows(stacks))
    dev = float(abs(rank - span))
    ok = (
        v.agreement
        and v.geometric == expect_full
        and (span == shape.dual_dimension) == expect_full
        and rank == span
    )
    return ok, dev


def _trial_t2p(shape, rng, tol: Tolerances):
    x = gen_partial_isometry(shape, random_ranks(shape, rng, proper=True), rng)
    ann = norming_annihilates_defect(x, 50, rng, tol=tol)
    rep = defect_norm_identity(x)
    dev = max(ann, rep.identity_deviation, rep.inequality_slack)
    ok = (
        ann <= tol.equality
        and rep.identity_deviation <= _IDENTITY_BOUND
        and rep.inequality_slack <= _IDENTITY_BOUND
    )
    return ok, dev


def _trial_t4(shape, rng, tol: Tolerances):
    if int(rng.integers(0, 2)) == 0:
        x = gen_invertible(shape, rng)
        cert = invertibility_certificate(x, tol=tol)
        if cert is None:
            return False, 1.0
        if not verify_certificate(x, cert, tol=tol):
            return False, 1.0
        res = min_real_over_norming(cert.u, x, tol=tol)  # the independent oracle
        dev = max(res.hermitian_residual, abs(res.value - element_min_singular_value(x)))
        return dev <= _IDENTITY_BOUND, dev
    x = gen_singular(shape, rng)
    cert = invertibility_certificate(x, tol=tol)
    if cert is not None:
        return False, 1.0
    u = Element(x.shape, tuple(r.left @ r.right.conj().T for r in x.svds))
    res = min_real_over_norming(u, x, tol=tol)
    dev = abs(min(res.value, 0.0))
    return res.value <= tol.classification, dev


def _trial_lumer(shape, rng, tol: Tolerances):
    if int(rng.integers(0, 2)) == 0:
        x = gen_hermitian(shape, rng)
        expected = True
    else:
        h = gen_hermitian(shape, rng)
        k = gen_hermitian(shape, rng)
        nk = element_norm(k)
        if nk < 0.3:
            k = (0.3 / nk) * k
        x = h + 0.5j * k
        expected = False
    lum = is_self_adjoint_lumer(x)
    states = is_self_adjoint_states(x, tol=tol)
    ok = lum == expected and states == expected
    return ok, 0.0 if ok else 1.0


def _trial_p6(shape, rng, tol: Tolerances):
    unit = Element.identity(shape)
    case = int(rng.integers(0, 3))
    if case == 0:
        x = gen_positive(shape, rng)
        expected = True
    elif case == 1:
        x = -1.0 * gen_positive(shape, rng) - 0.1 * unit
        expected = False
    else:
        while True:
            x = gen_ginibre(shape, rng)
            if element_norm(x - x.H) > 0.1:
                break
        expected = False
    v = is_positive(x, tol=tol)
    ok = v.evidence["unanimous"] and v.algebraic == expected and v.agreement
    return ok, 0.0 if ok else 1.0


def _gen_projection(shape, rng) -> Element:
    blocks = []
    for n in shape.block_dims:
        w = _haar_block(n, rng)
        k = int(rng.integers(0, n + 1))
        s = np.zeros(n)
        s[:k] = 1.0
        blocks.append((w * s) @ w.conj().T)
    return Element(shape, tuple(blocks))


def _trial_p7(shape, rng, tol: Tolerances):
    case = int(rng.integers(0, 3))
    if case == 0:
        x = _gen_projection(shape, rng)
        expected = True
    elif case == 1:
        while True:
            x = gen_partial_isometry(shape, random_ranks(shape, rng, proper=True), rng)
            if element_norm(x - x.H) > _MIN_SKEW:
                break
        expected = False
    else:
        x = gen_norm_one_non_pi(shape, rng)
        expected = False
    v = is_projection(x, tol=tol)
    ok = v.evidence["unanimous"] and v.algebraic == expected and v.agreement
    return ok, 0.0 if ok else 1.0


def _trial_adj(shape, rng, tol: Tolerances):
    x = gen_ginibre(shape, rng)
    star = recover_adjoint(x)
    dev = element_norm(star - x.H)
    twice = recover_adjoint(star)
    dev = max(dev, element_norm(twice - x))
    return dev <= tol.equality, dev


_TRIALS = {
    "T1F": _trial_t1f,
    "T1B": _trial_t1b,
    "T1X": _trial_t1x,
    "T2": _trial_t2,
    "T2P": _trial_t2p,
    "T4": _trial_t4,
    "LUMER": _trial_lumer,
    "P6": _trial_p6,
    "P7": _trial_p7,
    "ADJ": _trial_adj,
}


def run_suite(cfg: TrialConfig) -> SuiteReport:
    """Run the configured suites and assemble a deterministic report.

    On a failing trial the harness re-runs it once from the same RNG stream
    and records both outcomes, separating environment noise from a
    reproducible contract violation.
    """
    results = []
    for name in cfg.suites:
        body = _TRIALS[name]
        res = SuiteResult(name=name)
        start = time.perf_counter()
        for trial in range(cfg.trials):
            shape = cfg.shapes[trial % len(cfg.shapes)]
            ok, dev = body(shape, _trial_rng(cfg.seed, name, trial), cfg.tolerances)
            if not ok:
                retry_ok, retry_dev = body(
                    shape, _trial_rng(cfg.seed, name, trial), cfg.tolerances
                )
                res.failures.append(
                    {
                        "trial": trial,
                        "seed": cfg.seed,
                        "shape": str(shape),
                        "deviation": float(dev),
                        "retry_deviation": float(retry_dev),
                        "retry_passed": bool(retry_ok),
                    }
                )
            else:
                res.passes += 1
            res.trials += 1
            res.max_deviation = max(res.max_deviation, float(dev))
        res.wall_time_s = time.perf_counter() - start
        results.append(res)
    return SuiteReport(config=cfg, suites=results)
