import dataclasses
import io
import json
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from conftest import count_linalg, diag_element, random_complex, random_hermitian, same_bits
from opgeo import algebra, classify, documents, linalg
from opgeo.algebra import (
    DEFAULT_TOLERANCES,
    AlgebraShape,
    Element,
    Functional,
    Tolerances,
    element_norm,
    evaluate,
    functional_norm,
    norming_set,
    numeric_span_rank,
    sample_norming_functional,
)
from opgeo.classify import (
    InvertibilityCertificate,
    _defect_direction,
    _invertible_verdict,
    _random_direction,
    construct_witness,
    defect_norm_identity,
    element_min_singular_value,
    invertibility_certificate,
    is_extreme_point,
    is_partial_isometry_algebraic,
    is_partial_isometry_geometric,
    is_positive,
    is_projection,
    is_self_adjoint_lumer,
    is_self_adjoint_states,
    is_unitary_algebraic,
    is_unitary_geometric,
    lumer_slopes,
    norming_annihilates_defect,
    recover_adjoint,
    verify_certificate,
    verify_witness,
    x1_member,
    x2_deviation,
    x2_deviation_bound,
    x2_member,
)
from opgeo.cli import main
from opgeo.errors import (
    DegenerateInputError,
    LinalgError,
    MalformedCertificateError,
    PreconditionError,
    ShapeMismatchError,
)
from opgeo.generators import (
    gen_ginibre,
    gen_hermitian,
    gen_invertible,
    gen_norm_one_non_pi,
    gen_partial_isometry,
    gen_positive,
    gen_unitary,
    random_ranks,
)

M2 = AlgebraShape((2,))
M2_M3 = AlgebraShape((2, 3))


def unit(shape: AlgebraShape) -> Element:
    return Element.identity(shape)


class TestConfig:
    def test_tolerances_defaults(self):
        t = Tolerances()
        assert (t.equality, t.classification) == (1e-8, 1e-6)
        assert t.as_dict() == {"equality": 1e-8, "classification": 1e-6}

    def test_witness_function_values(self):
        phi = classify._witness_function
        assert phi(0.5) == pytest.approx(0.25)
        assert phi(0.0) == 0.0
        assert phi(1.0) == 0.0
        s = np.linspace(1e-4, 1.0 - 1e-4, 2001)
        assert np.all(phi(s) > 0.0)
        assert np.all(phi(s) <= 1.0 / s - 1.0)
        assert np.array_equal(phi(s), [phi(float(t)) for t in s])

    @pytest.mark.parametrize(
        "values",
        [
            {"equality": -1.0},
            {"classification": 0.0},
            {"equality": float("nan")},
            {"classification": float("inf")},
            {"classification": 1e-9},
            {"equality": 1e-5},
        ],
    )
    def test_tolerances_rejects_bad_values(self, values):
        with pytest.raises(ValueError):
            Tolerances(**values)


class TestPartialIsometryOracle:
    def test_unit_and_diagonal(self):
        assert is_partial_isometry_algebraic(unit(M2_M3))
        assert is_partial_isometry_algebraic(diag_element([1.0, 0.0]))
        assert not is_partial_isometry_algebraic(diag_element([1.0, 0.5]))

    def test_random_partial_isometry(self, rng):
        x = gen_partial_isometry(M2_M3, random_ranks(M2_M3, rng), rng)
        assert is_partial_isometry_algebraic(x)

    @pytest.mark.parametrize(
        "oracle",
        [is_partial_isometry_algebraic, is_unitary_algebraic, is_projection],
        ids=["partial_isometry", "unitary", "projection"],
    )
    def test_overflowing_residual_raises_before_lapack(self, capfd, oracle):
        # x x* and x*x overflow on 1e200 * 1 in M3.  Outside the CLI, which
        # raises at the overflow itself, numpy only flags it, so the residual
        # carries inf or nan: it must raise the finiteness error of an
        # Element block, and never reach LAPACK, which prints DLASCL errors
        # on such a matrix
        x = 1e200 * unit(AlgebraShape((3,)))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(LinalgError, match="^matrix has non-finite entries$"):
                oracle(x)
        assert "DLASCL" not in capfd.readouterr().err


class TestWitness:
    def test_worked_example(self):
        w = construct_witness(diag_element([1.0, 0.5]))
        np.testing.assert_allclose(
            w.y.blocks[0], np.diag([0.0, 0.125]), atol=1e-12
        )
        assert w.b == pytest.approx(8.0)
        assert w.norm_plus == pytest.approx(1.0)
        assert w.norm_minus == pytest.approx(1.0)
        assert w.norm_at_b == pytest.approx(1.5)
        assert w.margin == pytest.approx(0.5)
        assert w.spectral_point == pytest.approx(0.5)

    def test_verify_witness_applies_the_construction_rule(self):
        x = diag_element([1.0, 0.5])
        w = construct_witness(x)
        verified, margin, deviation = verify_witness(x, w)
        assert verified and deviation <= 1e-15
        assert margin == pytest.approx(0.5)
        # b = 0 leaves x + by = x: no margin
        assert verify_witness(x, dataclasses.replace(w, b=0.0))[:2] == (False, 0.0)
        # a witness of another operator breaks ||x +/- y|| = ||x||
        assert not verify_witness(diag_element([1.0, 0.9]), w)[0]

    def test_ray_witness_off_unit_norm(self):
        # ||x|| = 1 + 5e-7 passes the default norm gate; the witness is built
        # for the ray of x and its invariants hold against ||x||
        x = diag_element([1.0 + 5e-7, 0.5, 0.2])
        w = construct_witness(x)
        assert verify_witness(x, w)[0]
        assert max(abs(w.norm_plus - element_norm(x)), abs(w.norm_minus - element_norm(x))) <= 1e-15

    def test_none_for_partial_isometry(self, rng):
        assert construct_witness(unit(M2_M3)) is None
        x = gen_partial_isometry(M2_M3, random_ranks(M2_M3, rng), rng)
        assert construct_witness(x) is None

    def test_margin_lower_bound(self, rng):
        for _ in range(20):
            x = gen_norm_one_non_pi(M2_M3, rng)
            w = construct_witness(x)
            assert w is not None
            assert w.margin >= 0.05
            assert w.margin >= w.spectral_point - 1e-9

    def test_rejects_wrong_norm(self):
        with pytest.raises(PreconditionError):
            construct_witness(diag_element([2.0, 0.5]))

    def test_rejects_zero(self):
        with pytest.raises(DegenerateInputError):
            construct_witness(diag_element([0.0, 0.0]))

    @pytest.mark.parametrize(("delta", "accepted"), [(1e-9, True), (1e-7, False)])
    def test_witness_deviation_cut_is_equality(self, delta, accepted):
        # y + delta e1 e1* on x = diag(1, 0.5) moves ||x +/- y|| to 1 +/- delta,
        # a deviation of delta, a decade either side of tol.equality and
        # below tol.classification
        x = diag_element([1.0, 0.5])
        w = construct_witness(x)
        nudged = w.y + Element.from_blocks([np.diag([delta, 0.0])])
        verified, margin, deviation = verify_witness(x, dataclasses.replace(w, y=nudged))
        assert deviation == pytest.approx(delta, rel=1e-6)
        assert margin > 0.0
        assert verified is accepted

    @pytest.mark.parametrize(("s", "exists"), [(5e-4, False), (5e-3, True), (1.0 - 5e-3, True), (1.0 - 5e-4, False)])
    def test_witness_gap(self, s, exists):
        # a witness needs a singular value ratio in [1e-3, 1 - 1e-3]; the
        # distance of s from 0 or 1 is five times the gap 1e-3, or half of it
        w = construct_witness(diag_element([1.0, s]))
        assert (w is not None) is exists
        if exists:
            assert verify_witness(diag_element([1.0, s]), w)[0]


class TestComparisonSets:
    def test_witness_separates_the_sets(self):
        x = diag_element([1.0, 0.5])
        w = construct_witness(x)
        assert x1_member(x, w.y)
        assert not x2_member(x, w.y)
        dev = x2_deviation(x, w.y)
        assert dev >= w.margin - 1e-9

    def test_defect_direction_in_both_sets(self):
        x = diag_element([1.0, 0.0])
        y = diag_element([0.0, 1.0])
        assert x1_member(x, y)
        assert x2_member(x, y)
        assert x2_deviation(x, y) <= 1e-10

    @pytest.mark.parametrize(("corner", "kept"), [(1e-9, False), (1e-7, True)])
    def test_defect_floor(self, corner, kept):
        # on x = diag(1, s) the corner (1 - xx*) A (1 - x*x) of the draw A is
        # (1 - s^2)^2 a_22 e2 e2*; s puts its norm either side of 1e-8
        g = np.random.default_rng(11).standard_normal((2, 2, 2))  # A's real part, then its imaginary part
        a22 = abs(complex(g[0, 1, 1], g[1, 1, 1]))
        s = np.sqrt(1.0 - np.sqrt(corner / a22))
        assert (1.0 - s * s) ** 2 * a22 == pytest.approx(corner, rel=1e-6)
        x = diag_element([1.0, s])
        y, z = classify._draw_directions(x, np.random.default_rng(11), (True, False))
        assert z is not None and (y is not None) == kept
        if kept:
            assert abs(y.blocks[0][1, 1]) == pytest.approx(1.0, rel=1e-12)
            assert np.count_nonzero(y.blocks[0]) == 1

    def test_zero_direction_in_both_sets(self):
        x = unit(M2)
        zero = diag_element([0.0, 0.0])
        assert x1_member(x, zero)
        assert x2_member(x, zero)

    def test_unitary_has_no_x1_members(self, rng):
        u = gen_unitary(M2, rng)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        y = Element.from_blocks([g / np.linalg.norm(g, 2)])
        assert not x1_member(u, y)


def seed_x1_member(x: Element, y: Element) -> bool:
    """Reference oracle: the Element-based grid plus golden-section X1 tester
    that the raw-array x1_member replaced, kept verbatim with the seed's grid
    (40 points over [1e-3, 10] / ||y||) and member_tol 1e-7."""
    y_norm = element_norm(y)
    if y_norm <= 1e-12:
        # 0 belongs to both comparison sets; admitted by continuity.
        return True

    def objective(a: float) -> float:
        dev_p = abs(element_norm(x + a * y) - 1.0)
        dev_m = abs(element_norm(x - a * y) - 1.0)
        return max(dev_p, dev_m)

    lo = 1e-3 / y_norm
    hi = 10.0 / y_norm
    grid = np.geomspace(lo, hi, 40)
    vals = [objective(float(a)) for a in grid]
    k = int(np.argmin(vals))
    best = vals[k]
    left = grid[max(k - 1, 0)]
    right = grid[min(k + 1, len(grid) - 1)]

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(left), float(right)
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
        if best <= 1e-7 / 10.0:
            break
    return best <= 1e-7


def _x1_corpus(shape: AlgebraShape, rng: np.random.Generator):
    """(x, y, kind) triples: partial isometries, norm-one non-PIs and
    unitaries, plus a half-norm copy of one of them and copies scaled by
    1 - delta, against zero, random, defect and witness directions and
    defect directions nudged off the defect corner (kinds "nudged 1e-3" and
    "nudged 1e-7").  The scaled copies pass the norm gate and keep their
    unit frame, so their defect directions lie off it by about delta."""
    xs = [
        gen_partial_isometry(shape, random_ranks(shape, rng), rng),
        gen_norm_one_non_pi(shape, rng),
        gen_unitary(shape, rng),
    ]
    xs.append(0.5 * xs[int(rng.integers(0, 3))])
    xs.extend((1.0 - delta) * xs[int(rng.integers(0, 3))] for delta in (1e-7, 5e-7, 1e-6))
    for x in xs:
        yield x, Element.zero(shape), "zero"
        yield x, _random_direction(x, rng), "random"
        d = _defect_direction(x, rng)
        if d is not None:
            yield x, d, "defect"
            for eps, kind in ((1e-3, "nudged 1e-3"), (1e-7, "nudged 1e-7")):
                yield x, d + eps * _random_direction(x, rng), kind
        if abs(element_norm(x) - 1.0) <= 1e-12:
            w = construct_witness(x)
            if w is not None:
                yield x, w.y, "witness"
                yield x, 3.7 * w.y, "witness"


class TestX1Member:
    @pytest.mark.parametrize(
        "dims", [(2,), (4,), (6,), (8,), (2, 3), (16,)], ids=lambda d: "+".join(f"M{n}" for n in d)
    )
    def test_matches_seed_oracle(self, dims):
        # the face test against the grid search it replaced.  Off norm one it
        # raises.  A 1e-3 nudge leaves the face by 5e-4 to 1e-3 of ||y||, so
        # it is not in X1, though the grid's first point accepted most.
        # Near the cut 1e-7, the two testers may differ: a 1e-7 nudge, and
        # the defect direction of an x scaled by 1 - delta, which lies off
        # the unit frame by about delta.  Everywhere else they agree.
        rng = np.random.default_rng(sum(dims) * 101 + len(dims))
        outcomes = []
        for _ in range(2):
            for x, y, kind in _x1_corpus(AlgebraShape(dims), rng):
                if classify.norm_one_gate(x)[1] is not None:
                    with pytest.raises(PreconditionError):
                        x1_member(x, y)
                    continue
                got = x1_member(x, y)
                assert type(got) is bool
                scaled = abs(element_norm(x) - 1.0) > 1e-12
                near_cut = kind == "nudged 1e-7" or (kind == "defect" and scaled)
                if kind == "nudged 1e-3":
                    assert got is False
                elif not near_cut:
                    assert got == seed_x1_member(x, y)
                outcomes.append(got)
        assert True in outcomes and False in outcomes

    def test_off_norm_one_raises(self):
        # ||x + ay|| = ||x - ay|| = 1/2 + a for this pair; X1 is asked of
        # norm-one x only
        with pytest.raises(PreconditionError):
            x1_member(diag_element([0.5, 0.5]), diag_element([1.0, -1.0]))
        with pytest.raises(DegenerateInputError):
            x1_member(diag_element([0.0, 0.0]), diag_element([1.0, -1.0]))

    @pytest.mark.parametrize("cls", ["pi", "nonpi"])
    @pytest.mark.parametrize("dims", [(2,), (6,), (2, 3)], ids=lambda d: "+".join(f"M{n}" for n in d))
    def test_frame_probes_keep_the_norm_at_one(self, dims, cls):
        # the "if" half of the face test: the frame probe has norm one, and
        # with s the largest inactive singular value, a = 1 - s keeps
        # ||x +/- ay|| <= 1
        rng = np.random.default_rng(sum(dims) * 127 + len(dims))
        shape = AlgebraShape(dims)
        for _ in range(5):
            if cls == "pi":
                x = gen_partial_isometry(shape, random_ranks(shape, rng, proper=True), rng)
            else:
                x = gen_norm_one_non_pi(shape, rng)
            face = norming_set(x)
            s = max(  # the unit frame J is a prefix of the descending singular values
                float(r.singular_values[len(j)])
                for r, j in zip(x.svds, face.unit_indices)
                if len(j) < len(r.singular_values)
            )
            y = classify._frame_probe(x, face)
            assert element_norm(y) == pytest.approx(1.0, abs=1e-14)
            assert x1_member(x, y)
            a = 1.0 - s
            assert max(element_norm(x + a * y), element_norm(x - a * y)) <= 1.0 + 1e-12

    @pytest.mark.parametrize(
        "dims", [(2,), (4,), (2, 3)], ids=lambda d: "+".join(f"M{n}" for n in d)
    )
    def test_isometries_of_the_algebra_keep_the_answer(self, dims):
        # Kadison: (x, y) -> (u x w, u y w) with u, w unitary, and the
        # blockwise transpose, an isometry onto the opposite algebra, keep
        # norms, so they keep X1
        shape = AlgebraShape(dims)
        rng = np.random.default_rng(sum(dims) * 131 + len(dims))
        u, w = gen_unitary(shape, rng), gen_unitary(shape, rng)

        def transpose(z):
            return Element(z.shape, tuple(b.T for b in z.blocks))

        answers = []
        for x, y, kind in _x1_corpus(shape, rng):
            if abs(element_norm(x) - 1.0) > 1e-12 or kind == "nudged 1e-7":
                continue
            got = x1_member(x, y)
            assert x1_member(u @ x @ w, u @ y @ w) is got
            assert x1_member(transpose(x), transpose(y)) is got
            answers.append(got)
        assert True in answers and False in answers

    @pytest.mark.parametrize("deviation", [2e-8, 5e-7])
    @pytest.mark.parametrize("c", [1e-3, 1e3, 1j, 1e-13, 1e-200], ids=["1e-3", "1e3", "i", "1e-13", "1e-200"])
    def test_scaling_y_keeps_the_answer(self, c, deviation):
        # X1 is a cone, so the face test holds max(||y V_J||, ||W_J* y||)
        # against 1e-7 ||y||.  In M2+M3, y leaves the unit frame of x only
        # by `deviation` ||y||, within a decade of the cut on either side,
        # where an absolute 1e-7 would flip the answer at c = 1e-3 or 1e3,
        # and an absolute zero test on ||y|| at c = 1e-13 or 1e-200
        x = diag_element([1.0, 0.5], [0.3, 1.0, 0.2])
        y = Element.from_blocks([np.array([[0.0, deviation], [0.0, 1.0]]), np.diag([0.5, 0.0, 0.7])])
        assert x1_member(x, y) is (deviation < 1e-7)
        assert x1_member(x, c * y) is x1_member(x, y)

    def test_classify_linalg_call_budget(self, tmp_path, monkeypatch):
        # one M6 rank-3 partial isometry (the small_ops draw); the
        # Element-based X1 search made 2020 calls, 88 before one classify
        # pass, 80 before the routes shared their defect probes, 47 while
        # X1 was a grid search, 35 while X2 took ||y|| apart from y's
        # snapshot, 29 while the route tested six Gaussian frame probes and
        # 13 while X2 took a Cholesky stack
        x = _small_ops_mix(AlgebraShape((6,)), np.random.default_rng(6))["pi"]
        calls, matrices = _classify_linalg_calls(x, tmp_path, monkeypatch)
        assert calls <= 12
        # matrices decomposed, a stack counting each of its matrices: 2446
        # while every X1 call took the 80-matrix grid, 1432 before one pass,
        # 1424 before shared probes, 1294 while X2 measured its 208 points
        # per probe, 130 while X1 measured its first grid point, 112 while
        # X2 took ||y|| apart, 106 with six probes, 30 with a 13-radius
        # Cholesky stack; now x's and the probe's SVDs, singular-value norms
        # and 2 eigh
        assert matrices <= 17

    # before one classify pass: 65 calls (166 matrices) and 26 (35); before
    # shared probes and the unitary oracle: 57 (158), 16 (23) and 82 (1426);
    # the projection took 1296 matrices while X2 measured its whole grid;
    # while X1 was a grid search and the witness measured ||y||: 21 (26),
    # 16 (23) and 49 (132); the projection took 37 (114) while X2 took
    # ||y|| apart from y's snapshot, 31 (108) while the route tested six
    # Gaussian frame probes, and 15 (32) while X2 took a Cholesky stack; the
    # unitary and the non-PI took 15 (20) and 15 (22) while the certificate
    # check took an eigvalsh of the Hermitian part of xu*; the unitary and
    # the projection took 14 (19) while the unitary oracle measured both
    # ||x*x - 1|| and ||xx* - 1||
    @pytest.mark.parametrize(
        ("cls", "max_calls", "max_matrices"), [("unitary", 13, 18), ("nonpi", 14, 21), ("projection", 13, 18)]
    )
    def test_classify_linalg_call_budget_by_class(self, tmp_path, monkeypatch, cls, max_calls, max_matrices):
        x = _small_ops_mix(AlgebraShape((6,)), np.random.default_rng(6))[cls]
        calls, matrices = _classify_linalg_calls(x, tmp_path, monkeypatch)
        assert calls <= max_calls
        assert matrices <= max_matrices

    # Elements constructed, each a validated copy of its blocks: 21, 23, 25,
    # 24, 19 and 28 (pi, unitary, projection, nonpi, ginibre, positive, at
    # M6 and at M2+M3 alike) while every oracle residual was a chain of
    # Elements, 3, 3, 3, 4, 3, 4 while the Lumer unit was one; now the
    # input, the witness y, the certificate u and the frame probe, the
    # routes that apply
    @pytest.mark.parametrize("cls", ["pi", "unitary", "projection", "nonpi", "ginibre", "positive"])
    @pytest.mark.parametrize("dims", [(6,), (2, 3)], ids=["M6", "M2+M3"])
    def test_classify_element_budget(self, tmp_path, monkeypatch, dims, cls):
        x = _small_ops_mix(AlgebraShape(dims), np.random.default_rng(sum(dims)))[cls]
        path = tmp_path / "x.json"
        path.write_text(json.dumps(documents.element_to_doc(x)))
        built = _count_elements(monkeypatch)
        with redirect_stdout(io.StringIO()):
            assert main(["classify", str(path), "--unit"]) == 0
        assert built[0] <= 3


def _classify_linalg_calls(x: Element, tmp_path, monkeypatch) -> tuple[int, int]:
    """numpy.linalg calls of one `classify --unit` on x, and the matrices
    they decompose, a stack counting each of its matrices."""
    path = tmp_path / "x.json"
    path.write_text(json.dumps(documents.element_to_doc(x)))
    calls = count_linalg(monkeypatch, "svd", "norm", "eigh", "eigvalsh", "lstsq", "cholesky")
    with redirect_stdout(io.StringIO()):
        assert main(["classify", str(path), "--unit"]) == 0
    return sum(calls.values()), sum(n * int(np.prod(stack)) for (_, stack), n in calls.items())


def _same_element(a: Element, b: Element) -> bool:
    return a.shape == b.shape and all(np.array_equal(p, q) for p, q in zip(a.blocks, b.blocks))


def _small_ops_mix(shape: AlgebraShape, rng: np.random.Generator) -> dict:
    """One draw of each class of the benchmark's small_ops mix."""
    low = tuple(max(1, n // 2) for n in shape.block_dims)
    w = gen_partial_isometry(shape, tuple(n - 1 for n in shape.block_dims), rng)
    return {
        "pi": gen_partial_isometry(shape, low, rng),
        "unitary": gen_unitary(shape, rng),
        "projection": w @ w.H,
        "nonpi": gen_norm_one_non_pi(shape, rng),
        "ginibre": gen_ginibre(shape, rng),
        "positive": gen_positive(shape, rng),
    }


class TestSpectralSnapshot:
    @pytest.mark.parametrize("cls", ["pi", "unitary", "projection", "nonpi", "ginibre", "positive"])
    @pytest.mark.parametrize("dims", [(6,), (2, 3)], ids=["M6", "M2+M3"])
    def test_classify_decomposes_each_block_once(self, tmp_path, monkeypatch, dims, cls):
        x = _small_ops_mix(AlgebraShape(dims), np.random.default_rng(sum(dims)))[cls]
        path = tmp_path / "x.json"
        path.write_text(json.dumps(documents.element_to_doc(x)))
        per_block = [0] * len(x.blocks)
        for name in ("svd", "norm"):
            original = getattr(np.linalg, name)

            def counted(a, *args, _original=original, **kwargs):
                for i, b in enumerate(x.blocks):
                    if np.shape(a) == b.shape and np.array_equal(a, b):
                        per_block[i] += 1
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        with redirect_stdout(io.StringIO()):
            assert main(["classify", str(path), "--unit"]) == 0
        assert per_block == [1] * len(x.blocks)


class TestOneClassifyPass:
    """`classify_all` computes each shared quantity once, and its verdicts
    are those of the standalone routes."""

    @pytest.mark.parametrize("cls", ["pi", "unitary", "projection", "nonpi", "ginibre", "positive"])
    @pytest.mark.parametrize("dims", [(6,), (2, 3)], ids=["M6", "M2+M3"])
    def test_classify_computes_each_shared_quantity_once(self, tmp_path, monkeypatch, dims, cls):
        x = _small_ops_mix(AlgebraShape(dims), np.random.default_rng(sum(dims)))[cls]
        path = tmp_path / "x.json"
        path.write_text(json.dumps(documents.element_to_doc(x)))
        seen = Counter()
        for name in ("construct_witness", "is_partial_isometry_algebraic"):
            original = getattr(classify, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                seen[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(classify, name, counted)
        calls = count_linalg(monkeypatch, "eigh")
        with redirect_stdout(io.StringIO()):
            assert main(["classify", str(path), "--unit"]) == 0
        norm_one = abs(x.norm - 1.0) <= DEFAULT_TOLERANCES.classification
        assert seen["construct_witness"] == int(norm_one)  # the witness is built for norm-one inputs only
        assert seen["is_partial_isometry_algebraic"] == 1
        assert calls == Counter({("eigh", ()): 2 * len(x.blocks)})  # one positivity evaluation

    @pytest.mark.parametrize("cls", ["pi", "unitary", "projection", "nonpi", "ginibre", "positive"])
    @pytest.mark.parametrize("dims", [(6,), (2, 3)], ids=["M6", "M2+M3"])
    def test_routes_share_one_set_of_defect_probes(self, tmp_path, monkeypatch, dims, cls):
        # at most one probe from the inactive frames per pass, X2 asked of
        # that probe alone and X1 of none (the probe lies in X1), one norming
        # set read by the probe and the unitary and extreme-point verdicts,
        # and the unitary oracle evaluated on x once
        x = _small_ops_mix(AlgebraShape(dims), np.random.default_rng(sum(dims)))[cls]
        path = tmp_path / "x.json"
        path.write_text(json.dumps(documents.element_to_doc(x)))
        probes, faces, x1_seen, x2_seen, unitary_on_x = [], [], [], [], []
        build = classify._frame_probe

        def recorded_probe(*args):
            y = build(*args)
            if y is not None:
                probes.append(y)
            return y

        def recorder(name, log, arg):
            original = getattr(classify, name)

            def recorded(*args, **kwargs):
                got = original(*args, **kwargs)
                log.append(arg(args, got))
                return got

            monkeypatch.setattr(classify, name, recorded)

        monkeypatch.setattr(classify, "_frame_probe", recorded_probe)
        recorder("norming_set", faces, lambda args, got: _same_element(args[0], x))
        recorder("x1_member", x1_seen, lambda args, got: args[1])
        recorder("x2_member", x2_seen, lambda args, got: args[1])
        recorder("is_unitary_algebraic", unitary_on_x, lambda args, got: _same_element(args[0], x))
        with redirect_stdout(io.StringIO()):
            assert main(["classify", str(path), "--unit"]) == 0
        norm_one = abs(x.norm - 1.0) <= DEFAULT_TOLERANCES.classification
        assert len(probes) <= 1
        assert x1_seen == []
        assert [id(y) for y in x2_seen] == [id(y) for y in probes]
        assert faces == [True] * int(norm_one)
        assert unitary_on_x.count(True) == int(norm_one)

    @pytest.mark.parametrize("shape", [M2, M2_M3, AlgebraShape((6,))], ids=str)
    def test_a_unitary_has_no_defect_probes(self, shape):
        v = classify.classify_all(gen_unitary(shape, np.random.default_rng(2)), unit=False)
        assert v["partial_isometry"].evidence == {"directions_checked": 0}
        assert v["extreme_point"].algebraic and v["extreme_point"].geometric

    @pytest.mark.parametrize("cls", ["pi", "unitary", "projection", "nonpi", "ginibre", "positive"])
    @pytest.mark.parametrize("dims", [(6,), (2, 3)], ids=["M6", "M2+M3"])
    def test_pass_matches_the_standalone_routes(self, dims, cls):
        x = _small_ops_mix(AlgebraShape(dims), np.random.default_rng(sum(dims)))[cls]
        verdicts = classify.classify_all(x, unit=True)
        assert list(verdicts) == [
            "partial_isometry", "unitary", "extreme_point", "invertible", "self_adjoint", "positive", "projection"
        ]
        routes = {
            "partial_isometry": is_partial_isometry_geometric,
            "unitary": is_unitary_geometric,
            "extreme_point": is_extreme_point,
            "positive": is_positive,
            "projection": is_projection,
        }
        _, off = classify.norm_one_gate(x)
        for name, route in routes.items():
            if name in ("partial_isometry", "unitary", "extreme_point") and off is not None:
                assert verdicts[name] == off
            else:
                assert documents.verdict_to_doc(verdicts[name]) == documents.verdict_to_doc(route(x))

    def test_without_unit_the_unit_routes_are_left_out(self):
        x = gen_ginibre(M2_M3, np.random.default_rng(3))
        verdicts = classify.classify_all(x, unit=False)
        assert list(verdicts) == ["partial_isometry", "unitary", "extreme_point", "invertible"]
        assert verdicts["unitary"] == f"requires norm 1, got {x.norm!r}"

    def test_zero_element_raises(self):
        with pytest.raises(DegenerateInputError):
            classify.classify_all(0.0 * unit(M2_M3), unit=True)


#: the seed's X2 grid: 13 log-spaced radii times the 16th roots of unity
SEED_B_GRID = (np.logspace(-3.0, 3.0, 13)[:, None] * np.exp(1j * np.pi * np.arange(16) / 8.0)[None, :]).ravel()


def seed_x2_deviation(x: Element, y: Element) -> float:
    """Reference oracle: the whole-grid X2 deviation that the chunked
    x2_deviation and x2_member replaced, kept verbatim."""
    y_norm = element_norm(y)
    if y_norm <= 1e-12:
        return abs(element_norm(x) - 1.0)
    bs = SEED_B_GRID
    norms = classify._grid_norms(x.blocks, y.blocks, bs)
    reference = np.maximum(1.0, np.abs(bs) * y_norm)
    return float(np.max(np.abs(norms - reference)))


class TestX2Member:
    @pytest.mark.parametrize(
        "dims", [(2,), (4,), (6,), (8,), (2, 3), (16,)], ids=lambda d: "+".join(f"M{n}" for n in d)
    )
    def test_matches_seed_oracle(self, dims):
        rng = np.random.default_rng(sum(dims) * 103 + len(dims))
        outcomes = []
        for _ in range(2):
            for x, y, _ in _x1_corpus(AlgebraShape(dims), rng):
                expected = seed_x2_deviation(x, y)
                assert x2_deviation(x, y) == expected
                got = x2_member(x, y)
                assert type(got) is bool
                assert got == (expected <= classify._MEMBER_TOL == 1e-7)
                outcomes.append(got)
        assert True in outcomes and False in outcomes

    @staticmethod
    def _m8_partial_isometry():
        rng = np.random.default_rng(8)
        x = gen_partial_isometry(AlgebraShape((8,)), (5,), rng)
        x.svds  # the snapshot a classify pass has already taken
        return x, rng

    def test_random_direction_takes_no_grid_svd(self, monkeypatch):
        # the bound from x's top singular vectors exceeds the reference: no
        # grid point is measured, the bounds are not formed, and nothing is
        # factorised besides y's snapshot
        def refuse(*args):
            raise AssertionError("bounds formed")

        monkeypatch.setattr(classify, "_x2_bounds", refuse)
        x, rng = self._m8_partial_isometry()
        snapshotted, fresh = _random_direction(x, rng), _random_direction(x, rng)
        algebra.take_snapshots([snapshotted])  # as harness T1F does
        calls = count_linalg(monkeypatch, "svd", "cholesky")
        assert x2_member(x, snapshotted) is False
        assert calls == Counter()
        assert x2_member(x, fresh) is False
        assert calls == Counter({("svd", ()): 1})

    def test_defect_probe_takes_no_grid_svd(self, monkeypatch):
        x, rng = self._m8_partial_isometry()
        y = _defect_direction(x, rng)
        calls = count_linalg(monkeypatch, "svd", "cholesky", "eigvalsh")
        assert x2_member(x, y) is True
        # y's snapshot; the closed-form bounds certify every radius and phase
        assert calls == Counter({("svd", ()): 1})

    def test_frame_probe_reads_the_direction_norm_from_its_snapshot(self, monkeypatch):
        # ||y|| is sigma_max of y's snapshot, which the bounds read anyway:
        # no operator norm besides the one SVD per block
        rng = np.random.default_rng(23)
        x = gen_partial_isometry(M2_M3, (1, 2), rng)
        x.svds  # the snapshot a classify pass has already taken
        y = classify._frame_probe(x, norming_set(x))
        calls = count_linalg(monkeypatch, "svd", "norm", "cholesky", "eigvalsh")
        assert x2_member(x, y) is True
        assert calls == Counter({("svd", ()): 2})

    @pytest.mark.parametrize(
        "dims", [(2,), (4,), (6,), (8,), (2, 3), (16,)], ids=lambda d: "+".join(f"M{n}" for n in d)
    )
    def test_near_the_cut_every_branch_matches_the_deviation(self, monkeypatch, dims):
        rng = np.random.default_rng(sum(dims) * 107 + len(dims))
        corpus = list(_near_cut_corpus(AlgebraShape(dims), rng))
        measured = []
        deviation_of = classify.x2_deviation

        def recorded_deviation(*args):
            measured.append(args)
            return deviation_of(*args)

        branches = Counter()
        for x, y, target in corpus:
            deviation = x2_deviation(x, y)
            assert abs(deviation - target) <= 1e-4 * target
            measured.clear()
            with monkeypatch.context() as m:
                m.setattr(classify, "x2_deviation", recorded_deviation)
                got = x2_member(x, y)
            assert got == (deviation <= 1e-7)
            branches["measured" if measured else "bounds", got] += 1
        assert set(branches) == {("bounds", True), ("bounds", False), ("measured", True), ("measured", False)}

    @pytest.mark.parametrize(
        "dims", [(2,), (8,), (32,), (64,), (16, 16)], ids=lambda d: "+".join(f"M{n}" for n in d)
    )
    def test_frame_probe_measures_nothing(self, monkeypatch, dims):
        # the probe of a classify pass on a partial isometry: the bounds are
        # exact there, so neither the deviation nor a grid norm is measured
        shape = AlgebraShape(dims)
        x = gen_partial_isometry(shape, tuple(n // 2 for n in dims), np.random.default_rng(sum(dims)))
        y = classify._frame_probe(x, norming_set(x))

        def refuse(*args):
            raise AssertionError("measured")

        monkeypatch.setattr(classify, "x2_deviation", refuse)
        monkeypatch.setattr(classify, "_grid_norms", refuse)
        assert x2_member(x, y) is True

    def test_classify_takes_no_factorisation_or_eigenvalue_stack(self, tmp_path, monkeypatch):
        x = _small_ops_mix(AlgebraShape((6,)), np.random.default_rng(6))["pi"]
        path = tmp_path / "x.json"
        path.write_text(json.dumps(documents.element_to_doc(x)))
        calls = count_linalg(monkeypatch, "cholesky", "eigvalsh")
        with redirect_stdout(io.StringIO()):
            assert main(["classify", str(path), "--unit"]) == 0
        assert calls == Counter()


def _rounding_allowance(x: Element, y: Element) -> float:
    """2 * _NORM_ROUNDING * (r + ||x||) at the largest radius of the grid."""
    r = max(1.0, float(np.abs(classify._B_GRID).max()) * element_norm(y))
    return 2.0 * classify._NORM_ROUNDING * (r + element_norm(x))


_BOUND_DIMS = [(2,), (4,), (6,), (8,), (2, 3), (16,)]


class TestX2DeviationBound:
    @pytest.mark.parametrize("dims", _BOUND_DIMS, ids=lambda d: "+".join(f"M{n}" for n in d))
    def test_bounds_the_measured_grid(self, dims):
        shape = AlgebraShape(dims)
        rng = np.random.default_rng(sum(dims) * 109 + len(dims))
        pairs = list(_x1_corpus(shape, rng))
        for _ in range(10):
            x = gen_partial_isometry(shape, random_ranks(shape, rng), rng)
            pairs.append((x, _random_direction(x, rng), "random"))
        for x, y, _ in pairs:
            assert x2_deviation_bound(x, y) + _rounding_allowance(x, y) >= x2_deviation(x, y)

    @pytest.mark.parametrize("dims", _BOUND_DIMS, ids=lambda d: "+".join(f"M{n}" for n in d))
    def test_bounds_every_phase(self, dims):
        # b = rho e^{i pi/17} lies off the grid's 16 phases
        shape = AlgebraShape(dims)
        rng = np.random.default_rng(sum(dims) * 113 + len(dims))
        rho = np.abs(classify._B_GRID[:, 0])
        phase = np.exp(1j * np.pi / 17.0)
        for x, y, _ in _x1_corpus(shape, rng):
            if element_norm(y) <= 1e-12:
                continue
            r = np.maximum(1.0, rho * element_norm(y))
            off_grid = np.max(np.abs(classify._grid_norms(x.blocks, y.blocks, rho * phase) - r))
            assert x2_deviation_bound(x, y) + _rounding_allowance(x, y) >= off_grid

    @pytest.mark.parametrize(
        "dims", [(2,), (4,), (6,), (2, 3), (16, 16)], ids=lambda d: "+".join(f"M{n}" for n in d)
    )
    def test_vanishes_on_defect_directions(self, dims):
        # x*y = 0, y v_x = 0 and x v_y = 0: both sides are exact
        shape = AlgebraShape(dims)
        rng = np.random.default_rng(sum(dims) * 127 + len(dims))
        drawn = 0
        for _ in range(10):
            x = gen_partial_isometry(shape, random_ranks(shape, rng), rng)
            y = _defect_direction(x, rng)
            if y is not None:
                drawn += 1
                assert x2_deviation_bound(x, y) <= 1e-10
        assert drawn

    def test_zero_direction_and_other_algebras(self):
        x = diag_element([1.0, 0.5])
        for scale in (1.0, 0.5, 1.0 - 1e-7):
            y = Element.zero(M2)
            expected = abs(scale - 1.0)
            assert x2_deviation_bound(scale * x, y) == x2_deviation(scale * x, y) == expected
        for y in (Element.zero(M2_M3), unit(M2_M3)):
            with pytest.raises(ShapeMismatchError):
                x2_deviation_bound(x, y)


def _x2_bounds(x: Element, y: Element):
    """`classify._x2_bounds` on the top singular images of x's and y's vectors."""
    return classify._x2_bounds(x, y, classify._top_images(x, y, x), classify._top_images(x, y, y))


class TestX2Bounds:
    """`classify._x2_bounds`, the per-radius bounds that `x2_member` and
    `x2_deviation_bound` share."""

    @pytest.mark.parametrize(
        "dims", [(2,), (4,), (6,), (8,), (16,), (2, 3)], ids=lambda d: "+".join(f"M{n}" for n in d)
    )
    def test_bounds_every_point(self, dims):
        # witnesses y and 3.7 y have x*y != 0 and xy* != 0, so the
        # off-diagonal block norm k of the upper bound matters there
        shape = AlgebraShape(dims)
        rng = np.random.default_rng(sum(dims) * 131 + len(dims))
        pairs = [(x, y) for x, y, _ in _x1_corpus(shape, rng)]
        for _ in range(5):
            x = gen_ginibre(shape, rng)
            pairs.append((x, _random_direction(x, rng)))
        off_grid = np.abs(classify._B_GRID[:, :1]) * np.exp(1j * np.pi / 17.0)
        for x, y in pairs:
            r, upper, lower = _x2_bounds(x, y)
            d = 2.0 * classify._NORM_ROUNDING * (r + element_norm(x))
            for bs in (classify._B_GRID, off_grid):
                norms = classify._grid_norms(x.blocks, y.blocks, bs.ravel()).reshape(bs.shape)
                assert np.all(norms <= (upper + d)[:, None])
                assert np.all(norms >= (lower - d)[:, None])

    @pytest.mark.parametrize("dims", [(2,), (6,), (64,), (16, 16)], ids=lambda d: "+".join(f"M{n}" for n in d))
    def test_exact_on_defect_directions_and_frame_probes(self, dims):
        shape = AlgebraShape(dims)
        rng = np.random.default_rng(sum(dims) * 137 + len(dims))
        for _ in range(3):
            x = gen_partial_isometry(shape, tuple(n // 2 for n in dims), rng)
            for y in (_defect_direction(x, rng), classify._frame_probe(x, norming_set(x))):
                r, upper, lower = _x2_bounds(x, y)
                assert np.all(upper - r <= 1e-12 * r)
                assert np.all(r - lower <= 1e-12 * r)


def _near_cut_corpus(shape: AlgebraShape, rng: np.random.Generator):
    """(x, y, target) with x2_deviation(x, y) = target = 1e-7 (1 +/- 1e-3):
    a defect direction y of a partial isometry x, either with x scaled by
    1 +/- target (the deviation sits at the small radii, where r = 1) or
    with y tilted by t times a random direction, t found by bisection."""
    x = gen_partial_isometry(shape, tuple(max(1, n // 2) for n in shape.block_dims), rng)
    y = _defect_direction(x, rng)
    z = _random_direction(x, rng)
    for target in (1e-7 * (1.0 - 1e-3), 1e-7 * (1.0 + 1e-3)):
        for sign in (1.0, -1.0):
            yield (1.0 + sign * target) * x, y, target
        lo, hi = 0.0, 1e-3
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if x2_deviation(x, y + mid * z) < target else (lo, mid)
        yield x, y + hi * z, target


def seed_defect_norm_identity(x: Element) -> classify.DefectNormReport:
    """Reference oracle: the per-point defect audit that the two stacked
    sweeps of defect_norm_identity replaced, kept verbatim."""
    one = Element.identity(x.shape)
    p = one - x.H @ x
    q = x @ x.H
    identity_dev = 0.0
    slack = 0.0
    orth_dev = 0.0
    for t in (0.1, 0.5, 1.0, 2.0, 10.0):
        reference = element_norm(q + (t * t) * p)
        for a in np.exp(1j * np.pi * np.arange(16) / 8.0):
            nrm = element_norm(x + (a * t) * p)
            identity_dev = max(identity_dev, abs(nrm * nrm - reference))
            slack = max(slack, nrm * nrm - (1.0 + t * t))
            orth_dev = max(orth_dev, abs(nrm - max(1.0, t)))
    return classify.DefectNormReport(
        identity_deviation=identity_dev,
        inequality_slack=max(0.0, slack),
        orthogonal_case_deviation=orth_dev,
    )


def seed_lumer_slopes(x: Element, alphas=(1e-2, 1e-3, 1e-4)) -> dict:
    """Reference oracle: the per-scale Lumer slopes that the one stacked sweep
    of lumer_slopes replaced, kept verbatim."""
    unit = Element.identity(x.shape)
    out = {}
    for a in alphas:
        for signed in (a, -a):
            out[signed] = (element_norm(unit + (1j * signed) * x) - 1.0) / signed
    return out


def seed_measure_witness(x: Element, nrm: float, y: Element, b: float, spectral_point: float, tol):
    """Reference oracle: the three-norm witness measurement that the one
    stacked sweep of _measure_witness replaced, kept verbatim."""
    norm_plus, norm_minus = element_norm(x + y), element_norm(x - y)
    norm_at_b = element_norm(x + b * y)
    deviation = max(abs(norm_plus - nrm), abs(norm_minus - nrm))
    margin = norm_at_b - nrm
    witness = classify.PartialIsometryWitness(
        y, b, norm_plus, norm_minus, norm_at_b, margin, spectral_point
    )
    return witness, deviation <= tol.equality and margin > 0.0, deviation


_WITNESS_FIELDS = ("b", "norm_plus", "norm_minus", "norm_at_b", "margin", "spectral_point")


def _witness_numbers(w) -> tuple:
    return tuple(getattr(w, key) for key in _WITNESS_FIELDS)


def _verify_direction(x: Element, y: Element):
    """verify_witness of x on a witness whose direction is y."""
    return verify_witness(x, classify.PartialIsometryWitness(y, 1.0, 1.0, 1.0, 1.0, 0.0, 0.5))


def _count_elements(monkeypatch) -> list:
    """Count Element constructions (every one validates its blocks)."""
    built = [0]
    original = algebra._check_blocks

    def counted(shape, blocks):
        built[0] += 1
        return original(shape, blocks)

    monkeypatch.setattr(algebra, "_check_blocks", counted)
    return built


_SWEEP_DIMS = [(2,), (4,), (6,), (2, 3), (16,)]


def _sweep_ids(dims) -> str:
    return "+".join(f"M{n}" for n in dims)


class TestNormSweeps:
    """The defect audit, the Lumer slopes and the witness measurement take
    their norms from _grid_norms, with the answers of the per-point loops."""

    @pytest.mark.parametrize("dims", _SWEEP_DIMS, ids=_sweep_ids)
    def test_defect_audit_matches_seed_oracle(self, dims):
        shape = AlgebraShape(dims)
        rng = np.random.default_rng(sum(dims) * 107 + len(dims))
        for proper in (True, False):
            for _ in range(3):
                x = gen_partial_isometry(shape, random_ranks(shape, rng, proper=proper), rng)
                assert defect_norm_identity(x) == seed_defect_norm_identity(x)
        shift = Element.from_blocks([np.array([[0.0, 1.0], [0.0, 0.0]])])
        assert defect_norm_identity(shift) == seed_defect_norm_identity(shift)

    @pytest.mark.parametrize("dims", [(2,), (2, 3), (8,)], ids=_sweep_ids)
    def test_lumer_slopes_match_seed_oracle(self, dims):
        shape = AlgebraShape(dims)
        rng = np.random.default_rng(sum(dims) * 109)
        xs = [unit(shape), gen_hermitian(shape, rng), gen_ginibre(shape, rng)]
        xs += [(c * 1j) * unit(shape) for c in (1.0, 20.0, 1e4, 1e6)]
        for x in xs:
            scale = max(1.0, x.norm)
            for alphas in (classify.LUMER_ALPHAS, tuple(a / scale for a in classify.LUMER_ALPHAS)):
                got, expected = lumer_slopes(x, alphas), seed_lumer_slopes(x, alphas)
                assert list(got.items()) == list(expected.items())
                assert all(type(v) is float for v in got.values())

    @pytest.mark.parametrize("dims", _SWEEP_DIMS, ids=_sweep_ids)
    def test_witness_measurement_matches_seed_oracle(self, dims):
        shape = AlgebraShape(dims)
        rng = np.random.default_rng(sum(dims) * 113 + len(dims))
        tol = DEFAULT_TOLERANCES
        for _ in range(3):
            x, other = gen_norm_one_non_pi(shape, rng), gen_norm_one_non_pi(shape, rng)
            w = construct_witness(x)
            # b = ||x||/||y|| reads ||y|| off x's snapshot, so it may differ
            # from a fresh measurement of y in its last digits
            assert w.b == pytest.approx(x.norm / element_norm(w.y), rel=1e-14, abs=0.0)
            expected, _, _ = seed_measure_witness(x, x.norm, w.y, w.b, w.spectral_point, tol)
            assert _witness_numbers(w) == _witness_numbers(expected)
            for z, b in ((x, w.b), (x, 0.0), (other, w.b), (x, -2.5 * w.b)):
                nrm = element_norm(z)
                got = classify._measure_witness(z, nrm, w.y, b, w.spectral_point, tol)
                seed = seed_measure_witness(z, nrm, w.y, b, w.spectral_point, tol)
                assert _witness_numbers(got[0]) == _witness_numbers(seed[0])
                assert got[1:] == seed[1:]
                assert verify_witness(z, dataclasses.replace(w, b=b)) == (
                    seed[1], seed[0].margin, seed[2]
                )

    def test_defect_audit_is_two_stacked_svds_per_block(self, monkeypatch, rng):
        x = gen_partial_isometry(M2_M3, random_ranks(M2_M3, rng, proper=True), rng)
        calls = count_linalg(monkeypatch, "svd", "norm")
        built = _count_elements(monkeypatch)
        defect_norm_identity(x)
        # ||xx* + t^2 p|| over the 5 t, ||x + atp|| over the 5 x 16 grid
        assert calls == Counter({("svd", (5,)): 2, ("svd", (80,)): 2})
        # 6 while the audit swept Elements (1, x*, x*x, p, x* again and
        # xx*); now p and xx* are arrays
        assert built[0] == 0

    def test_lumer_slopes_are_one_stacked_svd_per_block(self, monkeypatch, rng):
        x = gen_ginibre(M2_M3, rng)
        calls = count_linalg(monkeypatch, "svd", "norm")
        built = _count_elements(monkeypatch)
        lumer_slopes(x)
        assert calls == Counter({("svd", (6,)): 2})
        assert built[0] == 0  # 1 while the unit was an Element

    def test_witness_measurement_is_one_stacked_svd_per_block(self, monkeypatch, rng):
        x = gen_norm_one_non_pi(M2_M3, rng)
        w = construct_witness(x)
        calls = count_linalg(monkeypatch, "svd", "norm")
        built = _count_elements(monkeypatch)
        assert verify_witness(x, w)[0]
        # ||x|| measured afresh (linalg.operator_norm, one singular-value
        # call per block), then ||x + y||, ||x - y||, ||x + by||
        assert calls == Counter({("svd", ()): 2, ("svd", (3,)): 2})
        assert built[0] == 0

    @pytest.mark.parametrize(
        ("x_dims", "y_dims"),
        [((2, 3), (2,)), ((2,), (2, 3)), ((3,), (2,)), ((2, 3), (3, 2)), ((2,), (3,)), ((2,), (2, 2))],
        ids=["M2+M3,M2", "M2,M2+M3", "M3,M2", "M2+M3,M3+M2", "M2,M3", "M2,M2+M2"],
    )
    @pytest.mark.parametrize(
        "tester", [x1_member, x2_member, x2_deviation, pytest.param(_verify_direction, id="verify_witness")]
    )
    def test_direction_of_another_algebra_raises(self, tester, x_dims, y_dims):
        # the testers once answered from the shared blocks, let numpy's
        # broadcast error escape, or took a zero y's shortcut unchecked;
        # the norm sweep reads arrays, so each entry point checks y
        rng = np.random.default_rng(17)
        x = gen_norm_one_non_pi(AlgebraShape(x_dims), rng)
        y = _random_direction(gen_ginibre(AlgebraShape(y_dims), rng), rng)
        for direction in (y, Element.zero(y.shape)):
            with pytest.raises(ShapeMismatchError):
                tester(x, direction)


class TestPartialIsometryVerdicts:
    def test_partial_isometry(self, rng):
        x = gen_partial_isometry(M2_M3, random_ranks(M2_M3, rng), rng)
        v = is_partial_isometry_geometric(x)
        assert v.algebraic and v.geometric and v.agreement
        assert v.evidence["directions_checked"] == 1

    def test_non_partial_isometry(self):
        v = is_partial_isometry_geometric(diag_element([1.0, 0.5]))
        assert not v.algebraic and not v.geometric and v.agreement
        assert v.evidence["witness"].margin == pytest.approx(0.5)

    def test_extreme_point_unitary(self, rng):
        u = gen_unitary(M2_M3, rng)
        v = is_extreme_point(u)
        assert v.algebraic and v.geometric

    def test_extreme_point_proper_isometry_fails(self):
        v = is_extreme_point(diag_element([1.0, 0.0]))
        assert not v.algebraic and not v.geometric


def _inactive_frame_corpus(shape: AlgebraShape, rng: np.random.Generator, count: int, band=(-8.0, -4.0)):
    """(x, s) pairs: x = U diag(sigma) V* per block with Haar U and V,
    sigma = 1 on the first k indices of each block (k >= 1 on the first) and
    log-uniform in 10^band below, s the largest of those below."""
    for _ in range(count):
        blocks, s = [], 0.0
        for i, n in enumerate(shape.block_dims):
            k = int(rng.integers(1 if i == 0 else 0, n))
            sigma = np.concatenate([np.ones(k), np.sort(10.0 ** rng.uniform(*band, n - k))[::-1]])
            s = max([s, *sigma[k:]])
            u, v = (gen_unitary(AlgebraShape((n,)), rng).blocks[0] for _ in range(2))
            blocks.append((u * sigma) @ v.conj().T)
        yield Element(shape, tuple(blocks)), float(s)


class TestFrameProbe:
    """`_frame_probe` is W_K V_K* on the inactive frames of x, and its X2
    deviation is the largest inactive singular value s, the largest over X1."""

    DIMS = [(2,), (4,), (6,), (2, 3)]

    @pytest.mark.parametrize("dims", DIMS, ids=lambda d: "+".join(f"M{n}" for n in d))
    def test_deviation_is_the_largest_inactive_singular_value(self, dims):
        shape = AlgebraShape(dims)
        rng = np.random.default_rng(sum(dims) * 139 + len(dims))
        for x, s in _inactive_frame_corpus(shape, rng, 6):
            face = norming_set(x)
            y = classify._frame_probe(x, face)
            deviation = x2_deviation(x, y)
            assert abs(deviation - s) <= 1e-12
            # no Gaussian direction of the same frames, which spans X1,
            # deviates more
            for _ in range(4):
                gs = [random_complex(n - len(j), rng) for n, j in zip(dims, face.unit_indices)]
                frames = zip(x.svds, face.unit_indices, gs)
                z = Element(shape, tuple(r.left[:, len(j):] @ g @ r.right[:, len(j):].conj().T for r, j, g in frames))
                z = (1.0 / element_norm(z)) * z
                assert x1_member(x, z)
                assert x2_deviation(x, z) <= deviation + 1e-13

    @pytest.mark.parametrize("dims", DIMS, ids=lambda d: "+".join(f"M{n}" for n in d))
    def test_isometries_of_the_algebra_keep_the_verdict_and_the_deviation(self, dims):
        # x -> u x w (u, w unitary) and the blockwise transpose, an isometry
        # onto the opposite algebra, map the probe of x to the probe of the
        # image; s half a decade or more off the member tolerance 1e-7, on
        # both sides
        shape = AlgebraShape(dims)
        rng = np.random.default_rng(sum(dims) * 149 + len(dims))
        u, w = gen_unitary(shape, rng), gen_unitary(shape, rng)

        def transpose(z):
            return Element(z.shape, tuple(b.T for b in z.blocks))

        def answer(z):
            v = is_partial_isometry_geometric(z)
            return (v.algebraic, v.geometric, v.evidence["directions_checked"])

        verdicts = []
        corpus = [z for band in ((-8.0, -7.5), (-5.5, -4.0)) for z in _inactive_frame_corpus(shape, rng, 3, band)]
        for x, _ in corpus:
            deviation = x2_deviation(x, classify._frame_probe(x, norming_set(x)))
            verdicts.append(answer(x))
            for image in (u @ x @ w, transpose(x)):
                assert answer(image) == verdicts[-1]
                probe = classify._frame_probe(image, norming_set(image))
                assert x2_deviation(image, probe) == pytest.approx(deviation, abs=1e-12)
        assert {v[1] for v in verdicts} == {True, False}

    @pytest.mark.parametrize("shape", [M2, M2_M3, AlgebraShape((6,))], ids=str)
    def test_a_unitary_has_no_probe(self, shape):
        x = gen_unitary(shape, np.random.default_rng(3))
        assert classify._frame_probe(x, norming_set(x)) is None

    def test_classify_reads_no_random_stream(self, monkeypatch):
        rng = np.random.default_rng(5)
        xs = [gen_partial_isometry(M2_M3, (1, 2), rng), gen_unitary(M2_M3, rng), gen_norm_one_non_pi(M2_M3, rng)]

        def refuse(*args, **kwargs):
            raise AssertionError("a classify pass drew from a random stream")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        for x in xs:
            verdicts = classify.classify_all(x, unit=True)
            assert verdicts["partial_isometry"].agreement
            assert is_partial_isometry_geometric(x).agreement


class TestUnitary:
    def test_algebraic(self, rng):
        assert is_unitary_algebraic(unit(M2_M3))
        assert is_unitary_algebraic(gen_unitary(M2_M3, rng))
        assert not is_unitary_algebraic(diag_element([1.0, 0.5]))

    def test_geometric_full_span(self, rng):
        u = gen_unitary(M2_M3, rng)
        v = is_unitary_geometric(u)
        assert v.algebraic and v.geometric
        assert v.evidence["span_dim"] == 13
        assert "numeric_span_rank" not in v.evidence
        for key in SPAN_EVIDENCE:
            assert 0.0 <= v.evidence[key] <= 1e-13

    def test_geometric_deficient_span(self, rng):
        v = is_unitary_geometric(diag_element([1.0, 0.5]))
        assert not v.algebraic and not v.geometric
        assert v.evidence["span_dim"] == 1
        for key in SPAN_EVIDENCE:
            assert 0.0 <= v.evidence[key] <= 1e-13

    def test_inactive_m1_block(self, rng):
        # 0.5 + U in M1+M2: the norming span is U's 4 dimensions of the 5 of
        # the dual, so neither route calls x unitary or an extreme point
        x = Element(AlgebraShape((1, 2)), (np.array([[0.5]]), gen_unitary(M2, rng).blocks[0]))
        standalone = [is_unitary_geometric(x), is_extreme_point(x)]
        verdicts = classify.classify_all(x, unit=False)
        for v in standalone + [verdicts["unitary"], verdicts["extreme_point"]]:
            assert (v.algebraic, v.geometric) == (False, False), v.predicate
        for v in (standalone[0], verdicts["unitary"]):
            assert (v.evidence["span_dim"], v.evidence["dual_dimension"]) == (4, 5)

    def test_geometric_wrong_norm(self, rng):
        v = is_unitary_geometric(diag_element([2.0, 2.0]))
        assert not v.geometric
        assert v.evidence["reason"] == "requires norm 1, got 2.0"
        with pytest.raises(DegenerateInputError):
            is_unitary_geometric(0.0 * unit(M2_M3))


SPAN_EVIDENCE = ("norming_value_deviation", "left_frame_deviation", "right_frame_deviation")


def seed_state_vectors(n: int) -> np.ndarray:
    """The seed's table of the n^2 spanning states on M_n, one column v per
    state v v*, kept as the oracle of `_spanning_values`."""
    eye = np.eye(n, dtype=np.complex128)
    cols = list(eye)
    for j in range(n):
        for k in range(j + 1, n):
            cols.append((eye[j] + eye[k]) / np.sqrt(2.0))
            cols.append((eye[j] + 1j * eye[k]) / np.sqrt(2.0))
    return np.stack(cols, axis=1)


class TestSpanConstruction:
    """The norming span certified from the frames of x's snapshot: k^2 pure
    states per active block give k^2 norming functionals spanning span_dim."""

    @pytest.mark.parametrize(
        "make, span",
        [
            (lambda rng: gen_unitary(M2, rng), 4),
            (lambda rng: gen_unitary(M2_M3, rng), 13),
            (lambda rng: gen_unitary(AlgebraShape((8,)), rng), 64),
            (lambda rng: gen_unitary(AlgebraShape((16,)), rng), 256),
            (lambda rng: gen_partial_isometry(AlgebraShape((8,)), (5,), rng), 25),
        ],
        ids=["M2", "M2+M3", "M8", "M16", "M8-PI"],
    )
    def test_constructed_evidence(self, monkeypatch, make, span):
        x = make(np.random.default_rng(16))
        sizes = []
        for name in ("svd", "norm"):
            original = getattr(np.linalg, name)

            def sized(a, *args, _original=original, **kwargs):
                sizes.append(np.size(a))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, sized)
        v = is_unitary_geometric(x)
        monkeypatch.undo()
        assert v.evidence["span_dim"] == span
        assert "numeric_span_rank" not in v.evidence
        for key in SPAN_EVIDENCE:
            assert 0.0 <= v.evidence[key] <= 1e-13
        # no sampled stack: every decomposition is of one block-sized matrix
        assert max(sizes) <= max(x.shape.block_dims) ** 2

        # the construction the evidence stands for, built out explicitly
        desc = norming_set(x)
        fs = []
        for i in desc.active_blocks:
            j = list(desc.unit_indices[i])
            w, v_ = x.svds[i].left[:, j], x.svds[i].right[:, j]
            for vec in seed_state_vectors(len(j)).T:
                densities = [np.zeros((d, d), dtype=np.complex128) for d in x.shape.block_dims]
                densities[i] = v_ @ np.outer(vec, vec.conj()) @ w.conj().T
                fs.append(Functional(x.shape, tuple(densities)))
        assert len(fs) == span
        for f in fs:
            assert abs(evaluate(f, x) - 1.0) <= 1e-12
            assert functional_norm(f) == pytest.approx(1.0, abs=1e-12)
        assert numeric_span_rank(fs) == span


class TestDefectStructure:
    def test_annihilation(self, rng):
        x = gen_partial_isometry(M2_M3, random_ranks(M2_M3, rng, proper=True), rng)
        assert norming_annihilates_defect(x, 100, rng) <= 1e-8

    @pytest.mark.parametrize("dims", [(4,), (2, 3), (6,)])
    def test_annihilation_matches_the_per_sample_loop(self, rng, dims):
        shape = AlgebraShape(dims)
        x = gen_partial_isometry(shape, random_ranks(shape, rng, proper=True), rng)
        desc, defect = norming_set(x), Element.identity(shape) - x.H @ x
        oracle_rng, batched_rng = np.random.default_rng(11), np.random.default_rng(11)
        oracle = max(
            abs(evaluate(sample_norming_functional(desc, oracle_rng), defect)) for _ in range(100)
        )
        assert abs(norming_annihilates_defect(x, 100, batched_rng) - oracle) <= 1e-15

    def test_annihilation_builds_no_functional_per_sample(self, monkeypatch, rng):
        built = []
        monkeypatch.setattr(algebra.Functional, "__post_init__", lambda f: built.append(f))
        x = gen_partial_isometry(M2_M3, random_ranks(M2_M3, rng, proper=True), rng)
        norming_annihilates_defect(x, 100, rng)
        assert built == []

    def test_orthogonal_case_exact(self):
        rep = defect_norm_identity(diag_element([1.0, 0.0]))
        assert rep.identity_deviation <= 1e-9
        assert rep.inequality_slack <= 1e-9
        assert rep.orthogonal_case_deviation <= 1e-9

    def test_shift_matrix_breaks_max_formula(self):
        x = Element.from_blocks([np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)])
        rep = defect_norm_identity(x)
        assert rep.identity_deviation <= 1e-9
        assert rep.inequality_slack <= 1e-9
        # ||x + 2p|| = sqrt(5), reference max(1, 2) = 2
        assert rep.orthogonal_case_deviation >= np.sqrt(5.0) - 2.0 - 1e-9

    def test_random_partial_isometry(self, rng):
        x = gen_partial_isometry(M2_M3, random_ranks(M2_M3, rng, proper=True), rng)
        rep = defect_norm_identity(x)
        assert rep.identity_deviation <= 1e-9
        assert rep.inequality_slack <= 1e-9


class TestInvertibility:
    def test_worked_example(self):
        cert = invertibility_certificate(diag_element([2.0, 1.0]))
        np.testing.assert_allclose(cert.u.blocks[0], np.eye(2), atol=1e-12)
        assert cert.epsilon == pytest.approx(1.0)
        assert verify_certificate(diag_element([2.0, 1.0]), cert)

    def test_singular_gets_none(self):
        assert invertibility_certificate(diag_element([1.0, 0.0])) is None

    def test_random_invertible(self, rng):
        x = gen_invertible(M2_M3, rng)
        cert = invertibility_certificate(x)
        assert cert is not None
        assert cert.epsilon == pytest.approx(element_min_singular_value(x))
        assert verify_certificate(x, cert)

    def test_overstated_epsilon_rejected(self):
        x = diag_element([2.0, 1.0])
        bad = InvertibilityCertificate(u=unit(M2), epsilon=3.0)
        assert not verify_certificate(x, bad)

    def test_non_unitary_direction_rejected(self):
        x = diag_element([2.0, 1.0])
        bad = InvertibilityCertificate(u=diag_element([1.0, 0.5]), epsilon=0.5)
        assert not verify_certificate(x, bad)

    @pytest.mark.parametrize(
        "x, epsilon",
        [
            # epsilon - equality < 0 proves nothing: the Hermitian-part rule
            # read lambda_min = 0 >= 5e-9 - 1e-8 and accepted this singular x
            (diag_element([1.0, 0.0]), 5e-9),
            # t = 1/||x|| = 5e-301 leaves a gap far below the rounding of a norm
            (Element.from_blocks([1e300 * np.ones((2, 2), dtype=complex)]), 1.0),
            (Element.zero(M2), 1.0),
        ],
        ids=["epsilon-below-the-slack", "gap-below-rounding", "zero"],
    )
    def test_singular_rejected(self, x, epsilon):
        assert verify_certificate(x, InvertibilityCertificate(unit(M2), epsilon)) is False

    @pytest.mark.parametrize("epsilon", [1.1e-8, 1.45e-8])
    def test_nearly_unitary_u_pays_its_defect(self, epsilon):
        # ||u*u - 1|| = 0.99e-8 passes the unitarity check, and ||u - x|| is
        # 1 - 0.495e-8 on the singular diag(1, 0): a bound 1 - gap, without
        # sqrt(1 - d), would accept
        u = diag_element([1.0, np.sqrt(1.0 - 0.99e-8)])
        x = diag_element([1.0, 0.0])
        assert element_norm(u - x) <= 1.0 - (epsilon - DEFAULT_TOLERANCES.equality)
        assert not verify_certificate(x, InvertibilityCertificate(u, epsilon))

    @pytest.mark.parametrize(("excess", "verified"), [(0.5, True), (2.0, False)])
    def test_epsilon_slack_is_equality(self, excess, verified):
        # on diag(2, 1) with u = 1 the rule reads epsilon <= sigma_min + equality
        eps = 1.0 + excess * DEFAULT_TOLERANCES.equality
        assert verify_certificate(diag_element([2.0, 1.0]), InvertibilityCertificate(unit(M2), eps)) is verified

    def test_non_normal_certificate_accepted(self):
        # sigma_min(x) = 1 and ||1 - x/2|| = 0.61 <= 1 - (0.5 - 1e-8)/2: xu* is
        # not Hermitian, which the Hermitian-part rule required
        c, s = np.cos(0.3), np.sin(0.3)
        x = Element.from_blocks([np.diag([2.0, 1.0]) @ np.array([[c, -s], [s, c]], dtype=complex)])
        assert element_min_singular_value(x) == pytest.approx(1.0)
        assert verify_certificate(x, InvertibilityCertificate(unit(M2), 0.5)) is True

    def test_accepted_certificates_are_sound(self):
        # Weyl: an accepted (u, epsilon) proves sigma_min(x) >= epsilon -
        # equality - rounding ||x||, whatever u and epsilon were offered
        rng = np.random.default_rng(29)
        accepted = 0
        for _ in range(200):
            x = gen_ginibre(M2_M3, rng) if rng.random() < 0.5 else gen_invertible(M2_M3, rng)
            u = gen_unitary(M2_M3, rng) if rng.random() < 0.3 else invertibility_certificate(x).u
            epsilon = element_min_singular_value(x) * rng.uniform(0.5, 1.5) + 1e-3
            if verify_certificate(x, InvertibilityCertificate(u, epsilon)):
                accepted += 1
                bound = epsilon - DEFAULT_TOLERANCES.equality - classify._NORM_ROUNDING * x.norm
                assert element_min_singular_value(x) >= bound
        assert 0 < accepted < 200

    def test_two_singular_value_norms_per_block(self, monkeypatch):
        # with x's snapshot taken: ||u*u - 1|| and ||u - tx|| per block, and
        # no eigendecomposition
        x = gen_invertible(M2_M3, np.random.default_rng(3))
        cert = invertibility_certificate(x)
        calls = []
        for name in ("svd", "norm", "eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counted(a, *args, _original=original, _name=name, **kwargs):
                calls.append((_name, np.shape(a), kwargs.get("compute_uv", True)))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        assert verify_certificate(x, cert)
        assert sorted(calls) == sorted([("svd", (n, n), False) for n in (2, 3)] * 2)

    @pytest.mark.parametrize(("d", "verified"), [(1e-9, True), (5e-8, False), (1e-7, False)])
    def test_unitarity_cut_is_equality(self, d, verified):
        # u = diag(1, sqrt(1 - d)) on x = 1 passes the norm test for any
        # such d (||u - x|| ~ d/2 against sqrt(1 - d) - 0.5), so the answer
        # is the cut ||u*u - 1|| = d <= equality alone, a decade either side
        u = diag_element([1.0, np.sqrt(1.0 - d)])
        assert verify_certificate(unit(M2), InvertibilityCertificate(u, 0.5)) is verified

    def test_malformed_raises(self):
        x = diag_element([2.0, 1.0])
        with pytest.raises(MalformedCertificateError):
            verify_certificate(x, InvertibilityCertificate(u=unit(M2), epsilon=0.0))
        with pytest.raises(MalformedCertificateError):
            verify_certificate(x, InvertibilityCertificate(u=unit(M2), epsilon=np.nan))
        with pytest.raises(MalformedCertificateError):
            verify_certificate(
                x, InvertibilityCertificate(u=Element.identity(M2_M3), epsilon=1.0)
            )
        with pytest.raises(MalformedCertificateError):
            verify_certificate(x, {"u": None, "epsilon": 1.0})


class TestInvertibleVerdict:
    def test_one_svd_per_block(self, monkeypatch):
        drawn = gen_invertible(M2_M3, np.random.default_rng(5))
        x = Element(drawn.shape, drawn.blocks)  # not yet decomposed
        decompositions = []
        svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            # operator norms take singular values only; count the full SVDs
            if kwargs.get("compute_uv", True):
                decompositions.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        v = _invertible_verdict(x, DEFAULT_TOLERANCES)
        assert v.algebraic and v.geometric
        assert v.evidence["sigma_min"] == v.evidence["certificate"].epsilon
        assert decompositions == [(2, 2), (3, 3)]

    def test_certificate_unitary_is_the_polar_factor(self):
        x = gen_invertible(M2_M3, np.random.default_rng(7))
        cert = invertibility_certificate(x)
        for u, b in zip(cert.u.blocks, x.blocks):
            assert np.array_equal(u, linalg.polar(b).isometry)
        assert cert.epsilon == pytest.approx(element_min_singular_value(x), rel=1e-14)

    def test_singular_verdict(self):
        v = _invertible_verdict(diag_element([1.0, 0.0]), DEFAULT_TOLERANCES)
        assert (v.algebraic, v.geometric) == (False, False)
        assert v.evidence == {"sigma_min": 0.0}


class TestSelfAdjoint:
    def test_lumer_hermitian(self, rng):
        assert is_self_adjoint_lumer(diag_element([1.0, -1.0]))
        assert is_self_adjoint_lumer(gen_hermitian(M2_M3, rng))

    def test_lumer_skew(self):
        x = 1j * unit(M2)
        slopes = lumer_slopes(x)
        assert slopes[1e-3] == pytest.approx(-1.0, abs=1e-6)
        assert not is_self_adjoint_lumer(x)

    def test_states_route(self, rng):
        h = gen_hermitian(M2_M3, rng)
        assert is_self_adjoint_states(h)
        assert not is_self_adjoint_states(h + 0.5j * gen_hermitian(M2_M3, rng))

    def test_routes_agree(self, rng):
        for _ in range(10):
            h = gen_hermitian(M2_M3, rng)
            k = gen_hermitian(M2_M3, rng)
            x = h + 0.5j * k
            expected = element_norm(k) <= 1e-8
            assert is_self_adjoint_lumer(x) == expected
            assert is_self_adjoint_states(x) == expected

    @pytest.mark.parametrize("c", [1.0, 20.0, 1e3, 1e4, 1e6])
    def test_lumer_skew_at_any_scale(self, c):
        # slopes of c*i*1 are c in size; at absolute scales alpha they sat
        # under 10 * alpha * c^2 from c = 1e4 on
        x = (c * 1j) * unit(M2)
        assert is_self_adjoint_lumer(x) is False
        assert is_self_adjoint_states(x) is False

    def test_lumer_huge_norm(self):
        # ||x||^2 = 1e400 is beyond float range; the bound never forms it
        assert is_self_adjoint_lumer(1e200 * unit(AlgebraShape((3,)))) is True

    @pytest.mark.parametrize(
        "skew, expected", [(1e-4, True), (5e-4, True), (2e-3, False), (1e-2, False)]
    )
    def test_lumer_cut_on_its_own(self, skew, expected):
        # the slopes of h + i skew k tend to ||skew k|| = skew, and at the
        # smallest alpha, 1e-4, the bound is 10 alpha = 1e-3: a decade and a
        # factor of two below it pass, a factor of two and a decade above fail
        rng = np.random.default_rng(4)
        h, k = (gen_hermitian(M2_M3, rng) for _ in range(2))
        x = (1.0 / element_norm(h)) * h + (1j * skew / element_norm(k)) * k
        assert is_self_adjoint_lumer(x) is expected


class TestRecoverAdjoint:
    def test_skew_unit(self):
        adj = recover_adjoint(1j * unit(M2))
        np.testing.assert_allclose(adj.blocks[0], -1j * np.eye(2), atol=1e-10)

    def test_matches_conjugate_transpose(self, rng):
        h = gen_hermitian(M2_M3, rng)
        k = gen_hermitian(M2_M3, rng)
        x = h + 1j * k
        adj = recover_adjoint(x)
        assert element_norm(adj - x.H) <= 1e-8

    def test_involution(self, rng):
        x = gen_hermitian(M2_M3, rng) + 1j * gen_hermitian(M2_M3, rng)
        twice = recover_adjoint(recover_adjoint(x))
        assert element_norm(twice - x) <= 1e-8


class TestStateTable:
    """Every state route reads the values of the n^2 spanning states."""

    @pytest.mark.parametrize("n", [*range(1, 9), 16, 64])
    def test_spanning_values_match_the_seed_table(self, n):
        b = random_complex(n, np.random.default_rng(n))
        vecs = seed_state_vectors(n)
        expected = np.einsum("ij,ij->j", vecs.conj(), b @ vecs)
        vals = classify._spanning_values(b)
        assert vals.shape == (n * n,)
        assert np.max(np.abs(vals - expected)) <= 1e-15 * np.max(np.abs(b))

    @pytest.mark.parametrize("dims", [(1,), (2,), (6,), (2, 3)], ids=lambda d: "+".join(f"M{n}" for n in d))
    def test_hermitian_from_states_inverts_state_values(self, dims, rng):
        for n in dims:
            h = random_hermitian(n, rng)
            vals = classify._spanning_values(h)
            assert np.max(np.abs(vals.imag)) <= 1e-14
            back = classify._hermitian_from_states(vals.real, n)
            assert np.array_equal(back, back.conj().T)
            np.testing.assert_allclose(back, h, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("dims", [(1,), (2,), (2, 3), (16,)], ids=lambda d: "+".join(f"M{n}" for n in d))
    def test_recover_adjoint_to_rounding(self, dims):
        rng = np.random.default_rng(sum(dims))
        x = Element.from_blocks([3.0 * random_complex(n, rng) for n in dims])
        star = recover_adjoint(x)
        assert element_norm(star - x.H) <= 1e-13 * max(1.0, element_norm(x))

    @pytest.mark.parametrize("scale", [1e150, 1e307, 8e307])
    def test_unit_commands_keep_their_exit_codes_at_large_scales(self, tmp_path, scale):
        # the parent's exit codes: classify --unit overflows elsewhere at
        # these scales (exit 2, one stderr line); adjoint --unit reads only
        # the state values, whose halves add below the largest float
        rng = np.random.default_rng(8)
        draws = ([random_complex(3, rng)], [random_hermitian(2, rng), random_complex(3, rng)], [np.ones((2, 2))])
        for blocks in draws:
            x = Element.from_blocks([(b / np.max(np.abs(b))) * scale for b in blocks])
            path = tmp_path / "x.json"
            path.write_text(documents.dumps(documents.element_to_doc(x)))
            for command, expected in (("classify", 2), ("adjoint", 0)):
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = main([command, str(path), "--unit"])
                assert code == expected
                if expected:
                    assert out.getvalue() == "" and err.getvalue().count("\n") == 1
                    assert err.getvalue().startswith("error: input out of floating-point range: ")
                else:
                    assert err.getvalue() == ""
                    star = documents.element_from_doc(json.loads(out.getvalue()))
                    for s_b, b in zip(star.blocks, x.blocks):
                        assert np.max(np.abs(s_b - b.conj().T)) <= 1e-15 * scale

    def test_adjoint_command_takes_no_svd_or_lstsq(self, tmp_path, monkeypatch):
        x = Element.from_blocks([random_complex(16, np.random.default_rng(16))])
        path = tmp_path / "x16.json"
        path.write_text(json.dumps(documents.element_to_doc(x)))
        calls = count_linalg(monkeypatch, "svd", "lstsq")
        with redirect_stdout(io.StringIO()):
            assert main(["adjoint", str(path), "--unit"]) == 0
        assert calls == Counter()

    @staticmethod
    def _count_state_evaluations(monkeypatch, x: Element) -> tuple[list, list]:
        """Per block of x, the `_spanning_values` calls on that block, and the
        column counts of every `_state_values` call."""
        per_block, columns = [0] * len(x.blocks), []
        spanning, values = classify._spanning_values, classify._state_values

        def counted_spanning(b):
            for i, block in enumerate(x.blocks):
                per_block[i] += b.shape == block.shape and np.array_equal(b, block)
            return spanning(b)

        def counted_values(b, vecs):
            columns.append(vecs.shape[1])
            return values(b, vecs)

        monkeypatch.setattr(classify, "_spanning_values", counted_spanning)
        monkeypatch.setattr(classify, "_state_values", counted_values)
        return per_block, columns

    def test_is_positive_evaluates_states_once_per_block(self, monkeypatch, rng):
        x = gen_hermitian(M2_M3, rng)
        per_block, columns = self._count_state_evaluations(monkeypatch, x)
        v = is_positive(x)
        assert v.evidence["unanimous"]
        # the n^2 spanning states once, then the n eigenstates of H and of K
        assert per_block == [1, 1]
        assert columns == [2 + 2, 3 + 3]

    @pytest.mark.parametrize("cls", ["pi", "unitary", "projection", "nonpi", "ginibre", "positive"])
    def test_classify_evaluates_spanning_states_once_per_block(self, tmp_path, monkeypatch, cls):
        x = _small_ops_mix(M2_M3, np.random.default_rng(5))[cls]
        path = tmp_path / "x.json"
        path.write_text(json.dumps(documents.element_to_doc(x)))
        per_block, columns = self._count_state_evaluations(monkeypatch, x)
        with redirect_stdout(io.StringIO()):
            assert main(["classify", str(path), "--unit"]) == 0
        # the self-adjoint and positive verdicts share one evaluation; the
        # table evaluation reads only the 2n eigenstates of H and K
        assert per_block == [1, 1]
        assert columns == [2 + 2, 3 + 3]


class TestPositive:
    def test_members(self):
        for x in (diag_element([1.0, 0.0]), diag_element([0.0, 0.0]), unit(M2)):
            v = is_positive(x)
            assert v.algebraic and v.geometric
            assert v.evidence["unanimous"]

    def test_non_members(self):
        for x in (diag_element([1.0, -1.0]), 1j * unit(M2)):
            v = is_positive(x)
            assert not v.algebraic and not v.geometric
            assert v.evidence["unanimous"]

    def test_lambda_min_evidence(self):
        v = is_positive(diag_element([1.0, -1.0]))
        assert v.evidence["lambda_min"] == pytest.approx(-1.0)

    def test_state_max_imag_is_the_skew_norm(self):
        # K = (x - x*)/2i = 2e-8 uu* has norm 2e-8, above tol.equality; random
        # states saw about 8e-9 and 4e-9 of it and let the state route pass
        rng = np.random.default_rng(7)
        for n in (8, 32):
            u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            u /= np.linalg.norm(u)
            x = Element.from_blocks([np.diag(np.linspace(1.0, 0.5, n)) + 2e-8j * np.outer(u, u.conj())])
            v = is_positive(x)
            assert v.evidence["state_max_imag"] == pytest.approx(2e-8, rel=1e-6)
            assert v.evidence["conditions"]["states"] is False
            # ||x - x*|| = 4e-8 passes the spectral oracle's classification cut
            assert v.evidence["conditions"]["spectral"] is True
            assert v.evidence["unanimous"] is False

    @pytest.mark.parametrize("dims", [(1,), (2,), (6,), (2, 3), (16,)], ids=lambda d: "+".join(f"M{n}" for n in d))
    def test_evidence_reads_the_eigenstates_of_h_and_k(self, dims):
        # the spellings H = 0.5 (x + x*) and K = -0.5i (x - x*) of numpy,
        # which overflow at the largest floats, give the same bits
        rng = np.random.default_rng(sum(dims))
        draws = [
            [random_complex(n, rng) for n in dims],
            [random_hermitian(n, rng) for n in dims],
            [np.diag(rng.choice([0.0, 1.0, 0.5], size=n)).astype(np.complex128) for n in dims],
        ]
        for blocks in draws:
            x = Element.from_blocks(blocks)
            lam_min, min_re, max_im = np.inf, np.inf, 0.0
            for b in x.blocks:
                w, h_states = np.linalg.eigh(0.5 * (b + b.conj().T))
                _, k_states = np.linalg.eigh(-0.5j * (b - b.conj().T))
                vals = np.concatenate(
                    [classify._spanning_values(b), classify._state_values(b, np.hstack([h_states, k_states]))]
                )
                lam_min, min_re = min(lam_min, float(w[0])), min(min_re, float(vals.real.min()))
                max_im = max(max_im, float(np.abs(vals.imag).max()))
            ev = is_positive(x).evidence
            assert same_bits(
                [ev["lambda_min"], ev["state_min_real"], ev["state_max_imag"]], [lam_min, min_re, max_im]
            )

    @pytest.mark.parametrize(
        ("block", "positive", "lambda_min"),
        [(np.eye(3), True, 1.0), (np.array([[1.0, 1.0], [0.0, 1.0]]), False, 0.5)],
        ids=["1e308*I3", "1e308-M2-non-hermitian"],
    )
    def test_largest_floats_keep_their_verdict(self, block, positive, lambda_min):
        # the spectral route once formed x + x*, which overflows here, and
        # LAPACK then solved an infinite matrix: lambda_min read inf
        x = Element.from_blocks([1e308 * block])
        with np.errstate(over="raise", invalid="raise"):
            v = is_positive(x)
        assert v.algebraic is v.geometric is positive
        assert is_positive(x).evidence["lambda_min"] == pytest.approx(lambda_min * 1e308, rel=1e-15)

    def test_classify_unit_at_the_largest_floats_exits_2(self, tmp_path):
        # classify --unit still overflows at 1e308 * 1 in M3, in x x* x
        path = tmp_path / "x.json"
        path.write_text(documents.dumps(documents.element_to_doc(Element.from_blocks([1e308 * np.eye(3)]))))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            assert main(["classify", str(path), "--unit"]) == 2
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1

    @pytest.mark.parametrize(("eps", "shift_ok"), [(1e-9, True), (1e-7, False)])
    def test_norm_shift_slack_is_equality(self, eps, shift_ok):
        # x = diag(1, -eps) has ||x|| = 1 and || ||x|| 1 - x || = 1 + eps:
        # the norm-shift inequality holds up to equality, a decade either side
        v = is_positive(diag_element([1.0, -eps]))
        assert v.evidence["conditions"]["norm_shift"] is shift_ok


@pytest.mark.parametrize(
    "s",
    [
        pytest.param(
            1e-6,
            marks=pytest.mark.xfail(
                strict=True,
                reason="the PI oracle cuts at tol.classification (1e-6), X2 at the "
                "fixed member tolerance 1e-7: algebraic True, geometric False",
            ),
        ),
        pytest.param(
            2e-7,
            marks=pytest.mark.xfail(
                strict=True,
                reason="the PI oracle cuts at tol.classification (1e-6), X2 at the "
                "fixed member tolerance 1e-7: algebraic True, geometric False",
            ),
        ),
        # the frame probe's X2 deviation is s exactly, below the member
        # tolerance 1e-7
        5e-8,
        # s counts as active (s >= 1 - 1e-6), so the probe comes from the
        # kernel frame alone, as for a partial isometry
        1.0 - 5e-7,
    ],
)
def test_pi_routes_agree_next_to_the_cut(s):
    v = is_partial_isometry_geometric(diag_element([1.0, s, 0.0]))
    assert v.algebraic == v.geometric


@pytest.mark.parametrize(
    "d",
    [
        pytest.param(
            1e-6,
            marks=pytest.mark.xfail(
                strict=True,
                reason="s = 1 - 1e-6 counts as active (s >= 1 - 1e-6), so x has no "
                "inactive frame and no probe, and both geometric answers are True, "
                "while the oracles see |1 - s^2| ~ 2e-6 > 1e-6",
            ),
        ),
        # s is inactive: its frame gives the probe c e22, which is in X1
        # and off X2, and the extreme-point route sees the inactive frame
        1e-5,
        3e-5,
    ],
)
@pytest.mark.parametrize("route", [is_partial_isometry_geometric, is_extreme_point], ids=["pi", "extreme"])
def test_norm_one_routes_agree_just_below_a_unitary(route, d):
    v = route(diag_element([1.0, 1.0 - d]))
    assert v.algebraic == v.geometric


@pytest.mark.xfail(
    strict=True,
    reason="the unitary oracle sees ||x*x - 1|| ~ 2d > 1e-6, the span route counts "
    "sigma >= 1 - 1e-6 as active: algebraic False, geometric True",
)
@pytest.mark.parametrize("d", [7.5e-7, 9e-7])
def test_unitary_routes_agree_just_below_a_unitary(d):
    v = is_unitary_geometric(diag_element([1.0, 1.0 - d]))
    assert v.algebraic == v.geometric


def test_x1_answer_is_independent_of_the_phase_just_below_a_unitary():
    # ||x +- a c e22|| = 1 for every a <= d when |c| = 1, so each c e22 is in
    # X1; the X1 grid search started at a = 1e-3/||y||, above d, and its
    # answer depended on c
    e22 = np.diag([0.0, 1.0])
    answers = {
        (d, c): x1_member(diag_element([1.0, 1.0 - d]), Element.from_blocks([c * e22]))
        for d in (1e-5, 1e-4, 5e-4)
        for c in (1, np.exp(1j * np.pi / 4), 1j)
    }
    assert all(answers.values()), answers


@pytest.mark.xfail(
    strict=True,
    reason="the spectral oracle accepts ||x - x*|| <= tol.classification, the "
    "state route needs ||K|| = ||x - x*|| / 2 <= tol.equality",
)
def test_positivity_routes_agree_on_a_small_skew_part():
    u = np.ones(4) / 2.0
    x = Element.from_blocks([np.diag(np.linspace(1.0, 0.5, 4)) + 1e-7j * np.outer(u, u)])
    assert is_positive(x).evidence["unanimous"]


class TestProjection:
    def test_member(self):
        v = is_projection(diag_element([1.0, 0.0]))
        assert v.algebraic and v.geometric
        assert all(v.evidence["conditions"].values())

    def test_non_member_all_routes(self):
        v = is_projection(diag_element([1.0, 0.5]))
        assert not v.algebraic and not v.geometric
        assert not any(v.evidence["conditions"].values())
        assert v.evidence["unanimous"]

    def test_unitary_is_not_projection(self):
        v = is_projection(diag_element([1.0, -1.0]))
        assert not v.algebraic and not v.geometric

    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 64])
    def test_symmetry_reads_the_hermitian_residual(self, n, scale):
        # v = 2x - 1 has v - v* = 2(x - x*) bit for bit, so the symmetry
        # condition reads 2 ||x - x*|| in place of ||v - v*||
        rng = np.random.default_rng(n)
        for _ in range(5):
            x = Element.from_blocks([scale * random_complex(n, rng)])
            v = 2.0 * x - unit(x.shape)
            assert np.array_equal((v - v.H).blocks[0], 2.0 * (x - x.H).blocks[0])
            assert element_norm(v - v.H) == 2.0 * element_norm(x - x.H)

    @pytest.mark.parametrize(("skew", "symmetric"), [(1e-7, True), (1.5e-6, False), (1e-5, False)])
    def test_symmetry_cut_reads_twice_the_hermitian_residual(self, skew, symmetric):
        # x = diag(1 + i skew/4, 0): ||x|| = 1 to rounding, ||v - v*|| =
        # 2 ||x - x*|| = skew and ||v*v - 1|| = skew^2/4, so the symmetry
        # condition is skew <= classification, a decade either side, and at
        # 1.5e-6 it reads ||v - v*||, not ||x - x*|| = 7.5e-7
        v = is_projection(diag_element([1.0 + 0.25j * skew, 0.0]))
        assert v.evidence["conditions"]["symmetry_unitary"] is symmetric


E12 = np.array([[0.0, 1.0], [0.0, 0.0]])
E22 = np.diag([0.0, 1.0])
LOOSE = Tolerances(classification=1e-3)


class TestTolerancePolicy:
    """Every classifier decides with the Tolerances it is given."""

    @pytest.mark.parametrize(
        "route, diagonal, perturbation",
        [
            (is_partial_isometry_geometric, [1.0, 0.0], E22),
            (is_extreme_point, [1.0, 1.0], -E22),
            (is_unitary_geometric, [1.0, 1.0], E12),
            (is_positive, [1.0, 0.0], E12),
            (is_projection, [1.0, 0.0], E12),
        ],
    )
    def test_verdict_routes(self, route, diagonal, perturbation):
        # a member perturbed by 1e-4: outside the default classification
        # tolerance, inside 1e-3
        x = Element.from_blocks([np.diag(diagonal) + 1e-4 * perturbation])
        strict = route(x)
        loose = route(x, tol=LOOSE)
        assert strict.tolerances == DEFAULT_TOLERANCES.as_dict()
        assert loose.tolerances == LOOSE.as_dict()
        assert (strict.algebraic, loose.algebraic) == (False, True)

    @pytest.mark.parametrize(
        "decide, tol",
        [
            (lambda tol: is_partial_isometry_algebraic(diag_element([1.0, 1e-4]), tol=tol), LOOSE),
            (lambda tol: is_unitary_algebraic(diag_element([1.0, 1.0 - 1e-4]), tol=tol), LOOSE),
            # sigma_min = 1e-4: certified at the default, singular at 1e-3
            (lambda tol: invertibility_certificate(diag_element([1.0, 1e-4]), tol=tol) is None, LOOSE),
            (
                lambda tol: verify_certificate(
                    diag_element([2.0, 1.0]),
                    InvertibilityCertificate(u=unit(M2), epsilon=1.0 + 1e-4),
                    tol=tol,
                ),
                Tolerances(equality=1e-3, classification=1e-3),
            ),
            (
                lambda tol: is_self_adjoint_states(
                    Element.from_blocks([np.diag([1.0, 0.0]) + 1e-4j * E12]), tol=tol
                ),
                Tolerances(equality=1e-3, classification=1e-3),
            ),
        ],
    )
    def test_boolean_routes(self, decide, tol):
        assert (decide(DEFAULT_TOLERANCES), decide(tol)) == (False, True)
