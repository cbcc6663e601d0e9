"""Acceptance gate: end-to-end contract checks at fixed tolerances.

Each criterion prints a single PASS/FAIL line on the real stdout so the
gate is legible in any pytest capture mode.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import brute_force_norming_maximizer, distance_to_norming_face
from opgeo.algebra import (
    AlgebraShape,
    Element,
    element_norm,
    min_real_over_norming,
    norming_set,
    numeric_span_rank,
    sample_norming_functional,
)
from opgeo.classify import (
    construct_witness,
    defect_norm_identity,
    element_min_singular_value,
    invertibility_certificate,
    is_positive,
    is_projection,
    is_self_adjoint_lumer,
    is_self_adjoint_states,
    lumer_slopes,
    norming_annihilates_defect,
    recover_adjoint,
    verify_certificate,
    x2_deviation,
    _defect_direction,
)
from opgeo.generators import (
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
from opgeo.linalg import polar

SHAPES = (
    AlgebraShape((2,)),
    AlgebraShape((4,)),
    AlgebraShape((6,)),
    AlgebraShape((2, 3)),
)


@pytest.fixture
def report(capsys):
    def emit(num: int, passed: bool, detail: str) -> None:
        status = "PASS" if passed else "FAIL"
        with capsys.disabled():
            print(f"[{status}] criterion {num}: {detail}", flush=True)

    return emit


def test_criterion_1_forward_direction_comparison_sets(report):
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(200):
        shape = SHAPES[trial % len(SHAPES)]
        x = gen_partial_isometry(shape, random_ranks(shape, rng), rng)
        for _ in range(20):
            y = _defect_direction(x, rng)
            if y is None:
                break
            worst = max(worst, x2_deviation(x, y))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed <= 30.0
    report(1, ok, f"max x2 deviation {worst:.3e} over 200 isometries in {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed <= 30.0


def test_criterion_2_backward_direction_witnesses(report):
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    worst_eq = 0.0
    worst_margin = np.inf
    for trial in range(200):
        shape = SHAPES[trial % len(SHAPES)]
        x = gen_norm_one_non_pi(shape, rng)
        w = construct_witness(x)
        assert w is not None
        worst_eq = max(worst_eq, abs(w.norm_plus - 1.0), abs(w.norm_minus - 1.0))
        worst_margin = min(worst_margin, w.margin)
    elapsed = time.perf_counter() - start
    ok = worst_eq <= 1e-8 and worst_margin >= 0.05 and elapsed <= 10.0
    report(
        2,
        ok,
        f"witness equality dev {worst_eq:.3e}, min margin {worst_margin:.3f} in {elapsed:.1f}s",
    )
    assert worst_eq <= 1e-8
    assert worst_margin >= 0.05
    assert elapsed <= 10.0


def test_criterion_3_norming_span_characterizes_unitaries(report):
    rng = np.random.default_rng(103)
    start = time.perf_counter()
    rank_mismatches = 0

    def span_with_rank_check(x):
        nonlocal rank_mismatches
        desc = norming_set(x)
        samples = [
            sample_norming_functional(desc, rng) for _ in range(3 * max(desc.span_dim, 1))
        ]
        if numeric_span_rank(samples) != desc.span_dim:
            rank_mismatches += 1
        return desc.span_dim

    full_ok = True
    for trial in range(100):
        shape = SHAPES[trial % len(SHAPES)]
        if span_with_rank_check(gen_unitary(shape, rng)) != shape.dual_dimension:
            full_ok = False
    deficient_ok = True
    for trial in range(100):
        shape = SHAPES[trial % len(SHAPES)]
        if trial % 2 == 0:
            x = gen_partial_isometry(shape, random_ranks(shape, rng, proper=True), rng)
        else:
            x = gen_norm_one_non_pi(shape, rng)
        if span_with_rank_check(x) >= shape.dual_dimension:
            deficient_ok = False
    elapsed = time.perf_counter() - start
    ok = full_ok and deficient_ok and rank_mismatches == 0 and elapsed <= 60.0
    report(
        3,
        ok,
        f"span full on unitaries: {full_ok}, deficient otherwise: {deficient_ok}, "
        f"rank mismatches {rank_mismatches} in {elapsed:.1f}s",
    )
    assert full_ok and deficient_ok
    assert rank_mismatches == 0
    assert elapsed <= 60.0


def test_criterion_4_defect_annihilation_and_norm_identity(report):
    rng = np.random.default_rng(104)
    worst_annihilation = 0.0
    worst_identity = 0.0
    worst_slack = 0.0
    for trial in range(100):
        shape = SHAPES[trial % len(SHAPES)]
        x = gen_partial_isometry(shape, random_ranks(shape, rng, proper=True), rng)
        worst_annihilation = max(
            worst_annihilation, norming_annihilates_defect(x, 100, rng)
        )
        rep = defect_norm_identity(x)
        worst_identity = max(worst_identity, rep.identity_deviation)
        worst_slack = max(worst_slack, rep.inequality_slack)
    ok = worst_annihilation <= 1e-8 and worst_identity <= 1e-9 and worst_slack <= 1e-9
    report(
        4,
        ok,
        f"annihilation {worst_annihilation:.3e}, identity dev {worst_identity:.3e}, "
        f"slack {worst_slack:.3e}",
    )
    assert worst_annihilation <= 1e-8
    assert worst_identity <= 1e-9
    assert worst_slack <= 1e-9


@pytest.mark.xfail(
    strict=True,
    reason="the max(1,|t|) reference for ||x + atp|| holds only when xx* is "
    "orthogonal to 1 - x*x; the exact identity audited above is the attainable "
    "contract, and this literal form fails on generic partial isometries",
)
def test_criterion_4_literal_max_reference():
    rng = np.random.default_rng(1040)
    worst = 0.0
    for _ in range(20):
        x = gen_partial_isometry(AlgebraShape((2,)), (1,), rng)
        worst = max(worst, defect_norm_identity(x).orthogonal_case_deviation)
    assert worst <= 1e-9


def test_criterion_5_invertibility_certificates(report):
    rng = np.random.default_rng(105)
    worst_residual = 0.0
    worst_gap = 0.0
    all_verified = True
    for trial in range(200):
        shape = SHAPES[trial % len(SHAPES)]
        x = gen_invertible(shape, rng)
        cert = invertibility_certificate(x)
        assert cert is not None
        if not verify_certificate(x, cert):
            all_verified = False
        res = min_real_over_norming(cert.u, x)
        worst_residual = max(worst_residual, res.hermitian_residual)
        worst_gap = max(worst_gap, abs(res.value - element_min_singular_value(x)))
    singular_ok = True
    worst_lam = -np.inf
    for trial in range(50):
        shape = SHAPES[trial % len(SHAPES)]
        x = gen_singular(shape, rng)
        if invertibility_certificate(x) is not None:
            singular_ok = False
            continue
        u = Element(x.shape, tuple(polar(b).isometry for b in x.blocks))
        lam = min_real_over_norming(u, x).value
        worst_lam = max(worst_lam, lam)
        if lam > 1e-6:
            singular_ok = False
    ok = (
        all_verified
        and worst_residual <= 1e-9
        and worst_gap <= 1e-9
        and singular_ok
    )
    report(
        5,
        ok,
        f"residual {worst_residual:.3e}, |lambda_min - sigma_min| {worst_gap:.3e}, "
        f"singular lambda_min <= {worst_lam:.3e}",
    )
    assert all_verified
    assert worst_residual <= 1e-9
    assert worst_gap <= 1e-9
    assert singular_ok


def test_criterion_6_self_adjointness_and_adjoint_recovery(report):
    rng = np.random.default_rng(106)
    hermitian_ok = True
    for trial in range(200):
        shape = SHAPES[trial % len(SHAPES)]
        h = gen_hermitian(shape, rng)
        if not (is_self_adjoint_lumer(h) and is_self_adjoint_states(h)):
            hermitian_ok = False
    skew_ok = True
    worst_slope = np.inf
    for trial in range(200):
        shape = SHAPES[trial % len(SHAPES)]
        h = gen_hermitian(shape, rng)
        k = gen_hermitian(shape, rng)
        k = (1.0 / element_norm(k)) * k
        x = h + 0.5j * k
        if is_self_adjoint_lumer(x) or is_self_adjoint_states(x):
            skew_ok = False
        slopes = lumer_slopes(x, alphas=(1e-3,))
        worst_slope = min(worst_slope, max(abs(slopes[1e-3]), abs(slopes[-1e-3])))
    adjoint_dev = 0.0
    involution_dev = 0.0
    for trial in range(200):
        shape = SHAPES[trial % len(SHAPES)]
        x = gen_ginibre(shape, rng)
        star = recover_adjoint(x)
        adjoint_dev = max(adjoint_dev, element_norm(star - x.H))
        involution_dev = max(involution_dev, element_norm(recover_adjoint(star) - x))
    ok = (
        hermitian_ok
        and skew_ok
        and worst_slope >= 0.1
        and adjoint_dev <= 1e-8
        and involution_dev <= 1e-8
    )
    report(
        6,
        ok,
        f"hermitian both routes: {hermitian_ok}, non-hermitian rejected: {skew_ok}, "
        f"min slope {worst_slope:.3f}, adjoint dev {adjoint_dev:.3e}",
    )
    assert hermitian_ok and skew_ok
    assert worst_slope >= 0.1
    assert adjoint_dev <= 1e-8
    assert involution_dev <= 1e-8


def _random_projection(shape, rng):
    blocks = []
    for n in shape.block_dims:
        k = int(rng.integers(0, n + 1))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, _ = np.linalg.qr(g)
        blocks.append(q[:, :k] @ q[:, :k].conj().T)
    return Element(shape, tuple(blocks))


def test_criterion_7_positivity_and_projection_routes(report):
    rng = np.random.default_rng(107)
    all_ok = True
    shift_agrees = True

    def check_positive(x, expected):
        nonlocal all_ok, shift_agrees
        v = is_positive(x)
        cond = v.evidence["conditions"]
        if not v.evidence["unanimous"] or v.algebraic != expected:
            all_ok = False
        if cond["norm_shift"] != cond["spectral"]:
            shift_agrees = False

    for trial in range(200):
        shape = SHAPES[trial % len(SHAPES)]
        one = Element.identity(shape)
        check_positive(gen_positive(shape, rng), True)
        h = gen_hermitian(shape, rng)
        lam = min(float(np.linalg.eigvalsh(b)[0]) for b in h.blocks)
        check_positive(h - (lam + 0.5) * one, False)

    for trial in range(200):
        shape = SHAPES[trial % len(SHAPES)]
        p = _random_projection(shape, rng)
        v = is_projection(p)
        if not (v.algebraic and v.geometric and v.evidence["unanimous"]):
            all_ok = False
        q = gen_positive(shape, rng)
        if element_norm(q @ q - q) <= 1e-3:
            continue
        v = is_projection(q)
        if v.algebraic or v.geometric or not v.evidence["unanimous"]:
            all_ok = False

    ok = all_ok and shift_agrees
    report(
        7,
        ok,
        f"routes unanimous on members and non-members: {all_ok}, "
        f"norm-shift agrees with spectral: {shift_agrees}",
    )
    assert all_ok
    assert shift_agrees


def test_criterion_8_brute_force_norming_face(report):
    rng = np.random.default_rng(108)
    worst_gap = 0.0
    worst_dist = 0.0
    for _ in range(20):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        x = g / np.linalg.norm(g, 2)
        a, value = brute_force_norming_maximizer(x, rng)
        worst_gap = max(worst_gap, abs(value - 1.0))
        worst_dist = max(worst_dist, distance_to_norming_face(x, a))
    ok = worst_gap <= 1e-6 and worst_dist <= 1e-6
    report(
        8, ok, f"maximizer value gap {worst_gap:.3e}, face distance {worst_dist:.3e}"
    )
    assert worst_gap <= 1e-6
    assert worst_dist <= 1e-6


def test_criterion_9_cli_end_to_end(tmp_path, report):
    import opgeo
    from opgeo import documents

    # the child runs the opgeo under test, also when it is not installed
    paths = [str(Path(opgeo.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}

    def cli(*argv, stdin=None):
        return subprocess.run(
            [sys.executable, "-m", "opgeo.cli", *argv],
            capture_output=True,
            text=True,
            input=stdin,
            env=env,
        )

    id3 = tmp_path / "id3.json"
    id3.write_text(
        json.dumps(documents.element_to_doc(Element.identity(AlgebraShape((3,)))))
    )
    res = cli("classify", str(id3), "--unit")
    classify_ok = res.returncode == 0
    if classify_ok:
        verdicts = json.loads(res.stdout)["verdicts"]
        classify_ok = len(verdicts) == 7 and all(
            v["algebraic"] and v["geometric"] for v in verdicts
        )
    res2 = cli("classify", str(id3), "--unit")
    bytes_ok = res.stdout == res2.stdout

    x = gen_invertible(AlgebraShape((2, 3)), np.random.default_rng(9))
    xdoc = tmp_path / "x.json"
    xdoc.write_text(json.dumps(documents.element_to_doc(x)))
    emit = cli("certify", str(xdoc), "--predicate", "invertible")
    cert = tmp_path / "cert.json"
    cert.write_text(emit.stdout)
    verify = cli(
        "certify", str(xdoc), "--predicate", "invertible", "--verify", str(cert)
    )
    certify_ok = (
        emit.returncode == 0
        and verify.returncode == 0
        and json.loads(verify.stdout)["verified"] is True
    )

    start = time.perf_counter()
    harness = cli("harness")
    elapsed = time.perf_counter() - start
    harness_ok = harness.returncode == 0 and elapsed <= 300.0

    ok = classify_ok and bytes_ok and certify_ok and harness_ok
    report(
        9,
        ok,
        f"classify(I3) all true: {classify_ok}, identical bytes: {bytes_ok}, "
        f"certify round-trip: {certify_ok}, harness exit 0 in {elapsed:.1f}s",
    )
    assert classify_ok
    assert bytes_ok
    assert certify_ok
    assert harness_ok
