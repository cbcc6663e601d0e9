import dataclasses
import io
import json
from collections import Counter
from contextlib import redirect_stdout

import numpy as np
import pytest

from conftest import diag_element, random_complex, random_hermitian
from opgeo import classify, documents, linalg
from opgeo.algebra import AlgebraShape, Element, element_norm
from opgeo.classify import (
    DEFAULT_TOLERANCES,
    DEFAULT_WITNESS_CONFIG,
    InvertibilityCertificate,
    Tolerances,
    WitnessConfig,
    _defect_direction,
    _random_direction,
    construct_witness,
    default_witness_function,
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
    x2_member,
)
from opgeo.cli import _invertible_verdict, main
from opgeo.errors import (
    DegenerateInputError,
    MalformedCertificateError,
    PreconditionError,
    ShapeMismatchError,
)
from opgeo.generators import (
    gen_hermitian,
    gen_invertible,
    gen_norm_one_non_pi,
    gen_partial_isometry,
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
        assert default_witness_function(0.5) == pytest.approx(0.25)
        assert default_witness_function(0.0) == 0.0
        assert default_witness_function(1.0) == 0.0

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

    def test_rejects_bad_witness_function(self):
        with pytest.raises(ValueError):
            WitnessConfig(witness_function=lambda s: 5.0)


class TestPartialIsometryOracle:
    def test_unit_and_diagonal(self):
        assert is_partial_isometry_algebraic(unit(M2_M3))
        assert is_partial_isometry_algebraic(diag_element([1.0, 0.0]))
        assert not is_partial_isometry_algebraic(diag_element([1.0, 0.5]))

    def test_random_partial_isometry(self, rng):
        x = gen_partial_isometry(M2_M3, random_ranks(M2_M3, rng), rng)
        assert is_partial_isometry_algebraic(x)


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


def seed_x1_member(x: Element, y: Element, cfg: WitnessConfig = DEFAULT_WITNESS_CONFIG) -> bool:
    """Reference oracle: the Element-based grid plus golden-section X1 tester
    that the raw-array x1_member replaced, kept verbatim."""
    y_norm = element_norm(y)
    if y_norm <= 1e-12:
        # 0 belongs to both comparison sets; admitted by continuity.
        return True

    def objective(a: float) -> float:
        dev_p = abs(element_norm(x + a * y) - 1.0)
        dev_m = abs(element_norm(x - a * y) - 1.0)
        return max(dev_p, dev_m)

    lo = cfg.a_floor / y_norm
    hi = cfg.a_ceiling / y_norm
    grid = np.geomspace(lo, hi, cfg.a_grid_points)
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
        if best <= cfg.member_tol / 10.0:
            break
    return best <= cfg.member_tol


def _x1_corpus(shape: AlgebraShape, rng: np.random.Generator):
    """(x, y) pairs: partial isometries, norm-one non-PIs and unitaries, plus a
    half-norm copy of one of them, against defect, random, witness and zero
    directions and defect directions nudged off the defect corner."""
    xs = [
        gen_partial_isometry(shape, random_ranks(shape, rng), rng),
        gen_norm_one_non_pi(shape, rng),
        gen_unitary(shape, rng),
    ]
    xs.append(0.5 * xs[int(rng.integers(0, 3))])
    for x in xs:
        yield x, Element.zero(shape)
        yield x, _random_direction(x, rng)
        d = _defect_direction(x, rng)
        if d is not None:
            yield x, d
            for eps in (1e-3, 1e-7):
                yield x, d + eps * _random_direction(x, rng)
        if abs(element_norm(x) - 1.0) <= 1e-12:
            w = construct_witness(x)
            if w is not None:
                yield x, w.y
                yield x, 3.7 * w.y


def _count_linalg(monkeypatch, *names) -> Counter:
    """Count calls of the named numpy.linalg functions by (name, stack shape)."""
    calls = Counter()
    for name in names:
        original = getattr(np.linalg, name)

        def counted(a, *args, _original=original, _name=name, **kwargs):
            calls[_name, np.shape(a)[:-2]] += 1
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestX1Member:
    @pytest.mark.parametrize(
        "dims", [(2,), (4,), (6,), (8,), (2, 3), (16,)], ids=lambda d: "+".join(f"M{n}" for n in d)
    )
    def test_matches_seed_oracle(self, dims):
        rng = np.random.default_rng(sum(dims) * 101 + len(dims))
        outcomes = []
        for _ in range(2):
            for x, y in _x1_corpus(AlgebraShape(dims), rng):
                expected = seed_x1_member(x, y)
                got = x1_member(x, y)
                assert type(got) is bool
                assert got == expected
                outcomes.append(got)
        assert True in outcomes and False in outcomes

    def test_refinement_finds_an_isolated_member(self, monkeypatch):
        # ||x + ay|| = ||x - ay|| = 1/2 + a: D vanishes only at a = 1/2, off the grid
        x = diag_element([0.5, 0.5])
        y = diag_element([1.0, -1.0])
        assert seed_x1_member(x, y)
        calls = _count_linalg(monkeypatch, "svd")
        assert x1_member(x, y)
        assert calls["svd", (2,)] > 10  # golden-section steps, one (+, -) pair each

    @pytest.mark.parametrize(
        ("a_floor", "expected", "refined"),
        [(4e-4, True, False), (4.7e-4, False, True), (5e-4, False, False)],
    )
    def test_stages_near_the_tolerance(self, monkeypatch, a_floor, expected, refined):
        # x = 1, y = i: D(a) = sqrt(1 + a^2) - 1 rises from a = a_floor, and the
        # tolerance 1e-7 sits between D(4e-4) and D(5e-4); in between, the
        # secant bound is too weak to reject and the refinement decides
        x = Element.from_blocks([np.array([[1.0]])])
        y = Element.from_blocks([np.array([[1j]])])
        cfg = WitnessConfig(a_floor=a_floor)
        assert seed_x1_member(x, y, cfg) is expected
        calls = _count_linalg(monkeypatch, "svd")
        assert x1_member(x, y, cfg) is expected
        assert calls["svd", (80,)] == 1  # the whole grid, both signs, in one SVD
        assert (calls["svd", (2,)] > 0) is refined

    def test_classify_linalg_call_budget(self, tmp_path, monkeypatch):
        # one M6 rank-3 partial isometry; the Element-based X1 search made 2020
        x = gen_partial_isometry(AlgebraShape((6,)), (3,), np.random.default_rng(6))
        path = tmp_path / "pi6.json"
        path.write_text(json.dumps(documents.element_to_doc(x)))
        calls = _count_linalg(monkeypatch, "svd", "norm", "eigh", "eigvalsh", "lstsq")
        with redirect_stdout(io.StringIO()):
            assert main(["classify", str(path), "--unit"]) == 0
        assert sum(calls.values()) <= 250


class TestPartialIsometryVerdicts:
    def test_partial_isometry(self, rng):
        x = gen_partial_isometry(M2_M3, random_ranks(M2_M3, rng), rng)
        v = is_partial_isometry_geometric(x, rng=rng)
        assert v.algebraic and v.geometric and v.agreement
        assert v.evidence["directions_checked"] > 0

    def test_non_partial_isometry(self, rng):
        v = is_partial_isometry_geometric(diag_element([1.0, 0.5]), rng=rng)
        assert not v.algebraic and not v.geometric and v.agreement
        assert v.evidence["witness"].margin == pytest.approx(0.5)

    def test_extreme_point_unitary(self, rng):
        u = gen_unitary(M2_M3, rng)
        v = is_extreme_point(u, rng=rng)
        assert v.algebraic and v.geometric

    def test_extreme_point_proper_isometry_fails(self, rng):
        v = is_extreme_point(diag_element([1.0, 0.0]), rng=rng)
        assert not v.algebraic and not v.geometric


class TestUnitary:
    def test_algebraic(self, rng):
        assert is_unitary_algebraic(unit(M2_M3))
        assert is_unitary_algebraic(gen_unitary(M2_M3, rng))
        assert not is_unitary_algebraic(diag_element([1.0, 0.5]))

    def test_geometric_full_span(self, rng):
        u = gen_unitary(M2_M3, rng)
        v = is_unitary_geometric(u, rng=rng)
        assert v.algebraic and v.geometric
        assert v.evidence["span_dim"] == 13
        assert v.evidence["numeric_span_rank"] == 13

    def test_geometric_deficient_span(self, rng):
        v = is_unitary_geometric(diag_element([1.0, 0.5]), rng=rng)
        assert not v.algebraic and not v.geometric
        assert v.evidence["span_dim"] == 1

    def test_geometric_wrong_norm(self, rng):
        v = is_unitary_geometric(diag_element([2.0, 2.0]), rng=rng)
        assert not v.geometric
        assert "reason" in v.evidence


class TestDefectStructure:
    def test_annihilation(self, rng):
        x = gen_partial_isometry(M2_M3, random_ranks(M2_M3, rng, proper=True), rng)
        assert norming_annihilates_defect(x, 100, rng) <= 1e-8

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
        x = gen_invertible(M2_M3, np.random.default_rng(5))
        calls = _count_linalg(monkeypatch, "svd")
        v = _invertible_verdict(x, DEFAULT_TOLERANCES)
        assert v.algebraic and v.geometric
        assert v.evidence["sigma_min"] == v.evidence["certificate"].epsilon
        assert sum(calls.values()) == 2

    def test_certificate_unitary_is_the_polar_factor(self):
        x = gen_invertible(M2_M3, np.random.default_rng(7))
        cert = invertibility_certificate(x)
        for u, b in zip(cert.u.blocks, x.blocks):
            assert np.array_equal(u, linalg.polar(b, side="left").isometry)
        assert cert.epsilon == pytest.approx(element_min_singular_value(x), rel=1e-14)

    def test_singular_verdict(self):
        v = _invertible_verdict(diag_element([1.0, 0.0]), DEFAULT_TOLERANCES)
        assert (v.algebraic, v.geometric) == (False, False)
        assert v.evidence == {"sigma_min": 0.0}


class TestSelfAdjoint:
    def test_lumer_hermitian(self, rng):
        one = unit(M2)
        assert is_self_adjoint_lumer(diag_element([1.0, -1.0]), one)
        h = gen_hermitian(M2_M3, rng)
        assert is_self_adjoint_lumer(h, unit(M2_M3))

    def test_lumer_skew(self):
        one = unit(M2)
        x = 1j * one
        slopes = lumer_slopes(x, one)
        assert slopes[1e-3] == pytest.approx(-1.0, abs=1e-6)
        assert not is_self_adjoint_lumer(x, one)

    def test_states_route(self, rng):
        one = unit(M2_M3)
        h = gen_hermitian(M2_M3, rng)
        assert is_self_adjoint_states(h, one)
        assert not is_self_adjoint_states(h + 0.5j * gen_hermitian(M2_M3, rng), one)

    def test_routes_agree(self, rng):
        one = unit(M2_M3)
        for _ in range(10):
            h = gen_hermitian(M2_M3, rng)
            k = gen_hermitian(M2_M3, rng)
            x = h + 0.5j * k
            expected = element_norm(k) <= 1e-8
            assert is_self_adjoint_lumer(x, one) == expected
            assert is_self_adjoint_states(x, one) == expected

    def test_requires_identity_unit(self):
        with pytest.raises(PreconditionError):
            lumer_slopes(unit(M2), diag_element([1.0, 0.5]))
        with pytest.raises(ShapeMismatchError):
            lumer_slopes(unit(M2), Element.identity(M2_M3))


class TestRecoverAdjoint:
    def test_skew_unit(self):
        one = unit(M2)
        adj = recover_adjoint(1j * one, one)
        np.testing.assert_allclose(adj.blocks[0], -1j * np.eye(2), atol=1e-10)

    def test_matches_conjugate_transpose(self, rng):
        one = unit(M2_M3)
        h = gen_hermitian(M2_M3, rng)
        k = gen_hermitian(M2_M3, rng)
        x = h + 1j * k
        adj = recover_adjoint(x, one)
        assert element_norm(adj - x.H) <= 1e-8

    def test_involution(self, rng):
        one = unit(M2_M3)
        x = gen_hermitian(M2_M3, rng) + 1j * gen_hermitian(M2_M3, rng)
        twice = recover_adjoint(recover_adjoint(x, one), one)
        assert element_norm(twice - x) <= 1e-8


def seed_state_vectors(n: int) -> np.ndarray:
    """The seed's loop construction of `_state_vectors`, kept as the oracle."""
    eye = np.eye(n, dtype=np.complex128)
    cols = list(eye)
    for j in range(n):
        for k in range(j + 1, n):
            cols.append((eye[j] + eye[k]) / np.sqrt(2.0))
            cols.append((eye[j] + 1j * eye[k]) / np.sqrt(2.0))
    return np.stack(cols, axis=1)


class TestStateTable:
    """Every state route reads the values of the n^2 spanning states."""

    def test_state_vectors_match_the_seed_loop(self):
        for n in range(1, 7):
            assert np.array_equal(classify._state_vectors(n), seed_state_vectors(n))

    @pytest.mark.parametrize("dims", [(1,), (2,), (6,), (2, 3)], ids=lambda d: "+".join(f"M{n}" for n in d))
    def test_hermitian_from_states_inverts_state_values(self, dims, rng):
        for n in dims:
            h = random_hermitian(n, rng)
            vals = classify._state_values(h, classify._state_vectors(n))
            assert np.max(np.abs(vals.imag)) <= 1e-14
            back = classify._hermitian_from_states(vals.real, n)
            assert np.array_equal(back, back.conj().T)
            np.testing.assert_allclose(back, h, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("dims", [(1,), (2,), (2, 3), (16,)], ids=lambda d: "+".join(f"M{n}" for n in d))
    def test_recover_adjoint_to_rounding(self, dims):
        rng = np.random.default_rng(sum(dims))
        x = Element.from_blocks([3.0 * random_complex(n, rng) for n in dims])
        star = recover_adjoint(x, unit(x.shape))
        assert element_norm(star - x.H) <= 1e-13 * max(1.0, element_norm(x))

    def test_adjoint_command_takes_no_svd_or_lstsq(self, tmp_path, monkeypatch):
        x = Element.from_blocks([random_complex(16, np.random.default_rng(16))])
        path = tmp_path / "x16.json"
        path.write_text(json.dumps(documents.element_to_doc(x)))
        calls = _count_linalg(monkeypatch, "svd", "lstsq")
        with redirect_stdout(io.StringIO()):
            assert main(["adjoint", str(path), "--unit"]) == 0
        assert calls == Counter()

    def test_is_positive_evaluates_states_once_per_block(self, monkeypatch, rng):
        columns = []
        original = classify._state_values

        def counted(b, vecs):
            columns.append(vecs.shape[1])
            return original(b, vecs)

        monkeypatch.setattr(classify, "_state_values", counted)
        v = is_positive(gen_hermitian(M2_M3, rng), unit(M2_M3), rng=rng)
        assert v.evidence["unanimous"]
        # n^2 spanning states, n eigenstates, 50 random states per block
        assert columns == [4 + 2 + 50, 9 + 3 + 50]


class TestPositive:
    def test_members(self, rng):
        one = unit(M2)
        for x in (diag_element([1.0, 0.0]), diag_element([0.0, 0.0]), one):
            v = is_positive(x, one, rng=rng)
            assert v.algebraic and v.geometric
            assert v.evidence["unanimous"]

    def test_non_members(self, rng):
        one = unit(M2)
        for x in (diag_element([1.0, -1.0]), 1j * one):
            v = is_positive(x, one, rng=rng)
            assert not v.algebraic and not v.geometric
            assert v.evidence["unanimous"]

    def test_lambda_min_evidence(self, rng):
        one = unit(M2)
        v = is_positive(diag_element([1.0, -1.0]), one, rng=rng)
        assert v.evidence["lambda_min"] == pytest.approx(-1.0)


class TestProjection:
    def test_member(self, rng):
        one = unit(M2)
        v = is_projection(diag_element([1.0, 0.0]), one, rng=rng)
        assert v.algebraic and v.geometric
        assert all(v.evidence["conditions"].values())

    def test_non_member_all_routes(self, rng):
        one = unit(M2)
        v = is_projection(diag_element([1.0, 0.5]), one, rng=rng)
        assert not v.algebraic and not v.geometric
        assert not any(v.evidence["conditions"].values())
        assert v.evidence["unanimous"]

    def test_unitary_is_not_projection(self, rng):
        one = unit(M2)
        v = is_projection(diag_element([1.0, -1.0]), one, rng=rng)
        assert not v.algebraic and not v.geometric


E12 = np.array([[0.0, 1.0], [0.0, 0.0]])
E22 = np.diag([0.0, 1.0])
LOOSE = Tolerances(classification=1e-3)


class TestTolerancePolicy:
    """Every classifier decides with the Tolerances it is given."""

    @pytest.mark.parametrize(
        "route, needs_unit, diagonal, perturbation",
        [
            (is_partial_isometry_geometric, False, [1.0, 0.0], E22),
            (is_extreme_point, False, [1.0, 1.0], -E22),
            (is_unitary_geometric, False, [1.0, 1.0], E12),
            (is_positive, True, [1.0, 0.0], E12),
            (is_projection, True, [1.0, 0.0], E12),
        ],
    )
    def test_verdict_routes(self, route, needs_unit, diagonal, perturbation):
        # a member perturbed by 1e-4: outside the default classification
        # tolerance, inside 1e-3
        x = Element.from_blocks([np.diag(diagonal) + 1e-4 * perturbation])
        args = (x, Element.identity(x.shape)) if needs_unit else (x,)
        strict = route(*args, rng=np.random.default_rng(0))
        loose = route(*args, rng=np.random.default_rng(0), tol=LOOSE)
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
                    Element.from_blocks([np.diag([1.0, 0.0]) + 1e-4j * E12]), unit(M2), tol=tol
                ),
                Tolerances(equality=1e-3, classification=1e-3),
            ),
        ],
    )
    def test_boolean_routes(self, decide, tol):
        assert (decide(DEFAULT_TOLERANCES), decide(tol)) == (False, True)
