import json
from collections import Counter

import numpy as np
import pytest

from conftest import count_linalg, same_bits
from opgeo import algebra, classify, harness, linalg
from opgeo.algebra import DEFAULT_TOLERANCES, AlgebraShape, Element
from opgeo.harness import (
    ALL_SUITES,
    DEFAULT_SHAPES,
    MAX_BLOCK_DIM,
    SUITE_IDS,
    TrialConfig,
    _trial_rng,
    run_suite,
)


class TestConfig:
    def test_defaults(self):
        cfg = TrialConfig()
        assert cfg.seed == 0
        assert cfg.trials == 20
        assert cfg.shapes == DEFAULT_SHAPES
        assert cfg.suites == ALL_SUITES

    def test_rejects_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            TrialConfig(suites=("T1F", "BOGUS"))

    @pytest.mark.parametrize(
        ("suite", "dims"), [("T1B", (1,)), ("T1B", (1, 1)), ("P7", (1, 1)), ("T2P", (1,))]
    )
    def test_rejects_undrawable_shape(self, suite, dims):
        with pytest.raises(ValueError, match="cannot draw"):
            TrialConfig(suites=(suite,), shapes=(AlgebraShape(dims),))

    def test_block_dimension_bound(self):
        TrialConfig(shapes=(AlgebraShape((2, MAX_BLOCK_DIM)),))
        with pytest.raises(ValueError, match=f"above dimension {MAX_BLOCK_DIM}"):
            TrialConfig(shapes=(AlgebraShape((2,)), AlgebraShape((MAX_BLOCK_DIM + 1,))))

    def test_accepts_m1_where_drawable(self):
        cfg = TrialConfig(trials=2, suites=("T1F", "T2P", "ADJ"), shapes=(AlgebraShape((1, 1)),))
        assert run_suite(cfg).all_passed

    def test_rejects_non_positive_trials(self):
        with pytest.raises(ValueError):
            TrialConfig(trials=0)


class TestTrialStreams:
    def test_streams_reproducible(self):
        a = _trial_rng(0, "T2", 1).standard_normal(8)
        b = _trial_rng(0, "T2", 1).standard_normal(8)
        assert np.array_equal(a, b)

    def test_streams_independent(self):
        draws = {
            (suite, trial): tuple(_trial_rng(5, suite, trial).standard_normal(4))
            for suite in SUITE_IDS
            for trial in range(3)
        }
        assert len(set(draws.values())) == len(draws)


class TestRunSuite:
    def test_each_suite_passes(self):
        cfg = TrialConfig(seed=1, trials=4)
        report = run_suite(cfg)
        assert report.all_passed
        assert [r.name for r in report.suites] == list(ALL_SUITES)
        for r in report.suites:
            assert r.passes == r.trials == 4
            assert r.failures == []
            assert r.max_deviation <= 1e-6

    def test_report_byte_identical(self):
        cfg = TrialConfig(seed=3, trials=2, suites=("T1F", "T2", "P6"))
        first = run_suite(cfg).to_json()
        second = run_suite(cfg).to_json()
        assert first == second

    def test_timing_excluded_by_default(self):
        cfg = TrialConfig(seed=0, trials=1, suites=("T1B",))
        report = run_suite(cfg)
        doc = json.loads(report.to_json())
        assert "wall_time_s" not in doc["suites"][0]
        timed = json.loads(report.to_json(include_timing=True))
        assert "wall_time_s" in timed["suites"][0]
        assert report.suites[0].wall_time_s > 0.0

    def test_text_format(self):
        cfg = TrialConfig(seed=0, trials=2, suites=("T1F",))
        text = run_suite(cfg).to_text()
        assert "PASS T1F: 2/2 passed" in text

    def test_custom_shapes(self):
        cfg = TrialConfig(
            seed=9, trials=3, shapes=(AlgebraShape((3,)),), suites=("T4", "ADJ")
        )
        report = run_suite(cfg)
        assert report.all_passed
        doc = report.to_dict()
        assert doc["config"]["shapes"] == ["M3"]


class TestSpanRankCheck:
    def test_t2_fails_when_the_sampled_rank_disagrees(self, monkeypatch):
        cfg = TrialConfig(seed=0, trials=4, suites=("T2",))
        assert run_suite(cfg).all_passed
        # every sampled functional counted as independent: rank span_dim + 10
        monkeypatch.setattr(algebra, "numeric_span_rank", len)
        (result,) = run_suite(cfg).suites
        assert result.passes == 0
        assert {f["deviation"] for f in result.failures} == {10.0}


class TestT2:
    def test_one_norming_set_per_trial(self, monkeypatch):
        # the unitary verdict and the sampler read one description of x
        calls = []
        build = algebra.norming_set

        def counted(x, *, tol):
            calls.append(x)
            return build(x, tol=tol)

        monkeypatch.setattr(algebra, "norming_set", counted)
        monkeypatch.setattr(classify, "norming_set", counted)
        assert run_suite(TrialConfig(seed=0, trials=20, suites=("T2",))).all_passed
        assert len(calls) == 20


# The per-direction T1F trial, the reference for the stacked one: each
# direction drawn, normalized, decomposed and face-tested on its own.


def _reference_defect_direction(x, rng):
    blocks = []
    for b in x.blocks:
        d = b.shape[0]
        p = b.conj().T @ b
        q = b @ b.conj().T
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        blocks.append((np.eye(d) - q) @ g @ (np.eye(d) - p))
    nrm = linalg.direct_sum_norm(blocks)
    if nrm <= classify._DEFECT_FLOOR:
        return None
    return Element(x.shape, tuple(complex(1.0 / nrm) * b for b in blocks))


def _reference_random_direction(x, rng):
    blocks = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in x.shape.block_dims]
    s = complex(1.0 / linalg.direct_sum_norm(blocks))
    return Element(x.shape, tuple(s * b for b in blocks))


def _reference_in_face(face, y):
    y_norm = y.norm
    if y_norm <= classify._NEGLIGIBLE:
        return True
    deviation = 0.0
    for res, yb, j in zip(face.base.svds, y.blocks, face.unit_indices):
        if j:
            w, v = res.left[:, list(j)], res.right[:, list(j)]
            pair = np.stack([yb @ v, yb.conj().T @ w])
            deviation = max(deviation, float(linalg.singular_values(pair)[:, 0].max()))
    return deviation <= classify._MEMBER_TOL * y_norm


def _reference_t1f(shape, rng, tol, seen: Counter):
    x = harness.gen_partial_isometry(shape, harness.random_ranks(shape, rng), rng)
    face = algebra.norming_set(x, tol=tol)
    seen["empty unit frames"] += sum(not j for j in face.unit_indices)
    dev = 0.0
    ok = True
    for _ in range(4):
        y = _reference_defect_direction(x, rng)
        seen["vanishing corners"] += y is None
        if y is not None:
            dev = max(dev, harness.x2_deviation_bound(x, y))
            if not _reference_in_face(face, y):
                ok = False
        z = _reference_random_direction(x, rng)
        if _reference_in_face(face, z) != harness.x2_member(x, z):
            ok = False
    return ok and dev <= tol.equality, dev


#: T1F's mean numpy.linalg matrices per trial over seeds 0-49 while each
#: direction was taken on its own (27.56, 31.16, 33.8, 60.4), times 50
_PER_DIRECTION_MATRICES = {(2,): 1378, (4,): 1558, (16,): 1690, (2, 3): 3020}


class TestT1FStacks:
    def test_stacked_trial_matches_the_reference_loop(self):
        seen = Counter()
        for dims in [(1,), (2,), (4,), (1, 2), (3, 1), (2, 2), (16,)]:
            shape = AlgebraShape(dims)
            for seed in range(50):
                ok, dev = _reference_t1f(shape, _trial_rng(seed, "T1F", 0), DEFAULT_TOLERANCES, seen)
                got = harness._trial_t1f(shape, _trial_rng(seed, "T1F", 0), DEFAULT_TOLERANCES)
                assert got[0] is ok and same_bits(got[1], dev), (shape, seed)
        assert seen["vanishing corners"] and seen["empty unit frames"]

    @pytest.mark.parametrize("defect", [True, False], ids=["defect", "random"])
    def test_one_direction_draws_keep_their_streams(self, defect):
        # gate criterion 1 and the tests draw single directions
        draw = classify._defect_direction if defect else classify._random_direction
        reference = _reference_defect_direction if defect else _reference_random_direction
        for dims in [(1,), (2,), (1, 2), (16,)]:
            shape = AlgebraShape(dims)
            for seed in range(10):
                rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                x = harness.gen_partial_isometry(shape, harness.random_ranks(shape, rng), rng)
                harness.gen_partial_isometry(shape, harness.random_ranks(shape, ref_rng), ref_rng)
                for _ in range(3):
                    y, expected = draw(x, rng), reference(x, ref_rng)
                    assert (y is None) == (expected is None)
                    assert y is None or all(same_bits(a, b) for a, b in zip(y.blocks, expected.blocks))
                assert rng.bit_generator.state == ref_rng.bit_generator.state

    # numpy.linalg calls per trial, mean over seeds 0-49: 22.0 at M2, 24.4
    # at M4, 26.2 at M16 and 48.6 at M2+M3 while each direction was
    # normalized, decomposed and face-tested on its own; now two QRs per
    # block draw x, and x's SVD, the norms, the snapshots and the face test
    # take one call per block each (per active block for the face test)
    @pytest.mark.parametrize(
        ("dims", "max_calls"), [((2,), 6), ((4,), 6), ((16,), 6), ((2, 3), 12)], ids=["M2", "M4", "M16", "M2+M3"]
    )
    def test_linalg_call_budget(self, monkeypatch, dims, max_calls):
        calls = count_linalg(monkeypatch, "svd", "norm", "eigh", "eigvalsh", "lstsq", "cholesky", "qr")
        shape, per_trial, matrices = AlgebraShape(dims), [], 0
        for seed in range(50):
            calls.clear()
            harness._trial_t1f(shape, _trial_rng(seed, "T1F", 0), DEFAULT_TOLERANCES)
            per_trial.append(sum(calls.values()))
            matrices += sum(n * int(np.prod(stack)) for (_, stack), n in calls.items())
        assert max(per_trial) <= max_calls
        # matrices decomposed, a stack counting each of its matrices: the
        # stacks take the matrices the separate calls took
        assert matrices <= _PER_DIRECTION_MATRICES[dims]


class TestT1F:
    """Seed 813040783, `--trials 2`: trial 0 of T1F draws a rank-1 partial
    isometry in M2 whose third random direction z lies off X2 (deviation
    0.19).  The X1 grid search accepted z at its first point
    a = 1e-3/||z||, where max ||x +/- az|| - 1 is only 8.2e-8; the face test
    rejects it, since z is 0.355 ||z|| off the unit frame of x."""

    SEED = 813040783

    def _third_random_direction(self):
        shape = TrialConfig(seed=self.SEED, trials=2).shapes[0]
        rng = _trial_rng(self.SEED, "T1F", 0)
        x = harness.gen_partial_isometry(shape, harness.random_ranks(shape, rng), rng)
        for _ in range(3):
            classify._defect_direction(x, rng)
            z = classify._random_direction(x, rng)
        return x, z

    def test_x2_rejects_the_near_set_direction(self):
        x, z = self._third_random_direction()
        assert x.shape == AlgebraShape((2,))
        assert classify.x2_deviation(x, z) == pytest.approx(0.192, abs=1e-3)
        assert classify.x2_member(x, z) is False

    def test_x1_rejects_the_near_set_direction(self):
        x, z = self._third_random_direction()
        assert classify.x1_member(x, z) is False
        assert run_suite(TrialConfig(seed=self.SEED, trials=2, suites=("T1F",))).all_passed

    def test_one_norming_set_per_trial(self, monkeypatch):
        # the eight X1 answers of a trial read one face of x
        calls = []
        build = algebra.norming_set

        def counted(x, *, tol):
            calls.append(x)
            return build(x, tol=tol)

        monkeypatch.setattr(algebra, "norming_set", counted)
        monkeypatch.setattr(classify, "norming_set", counted)
        assert run_suite(TrialConfig(seed=0, trials=20, suites=("T1F",))).all_passed
        assert len(calls) == 20

    def test_defect_directions_take_the_certified_bound(self, monkeypatch):
        # their deviation is read from the snapshots: no grid is measured on
        # them, neither by x2_deviation nor by any other route
        defects, measured = [], []
        draw, grid_norms = classify._draw_directions, classify._grid_norms

        def recorded_draw(x, rng, defect):
            drawn = draw(x, rng, defect)
            defects.extend(y for y, d in zip(drawn, defect) if d)
            return drawn

        def recorded_grid_norms(xs, ys, bs):
            measured.append(ys)
            return grid_norms(xs, ys, bs)

        def unexpected(x, y):
            raise AssertionError("x2_deviation called")

        monkeypatch.setattr(classify, "_draw_directions", recorded_draw)
        monkeypatch.setattr(classify, "_grid_norms", recorded_grid_norms)
        monkeypatch.setattr(classify, "x2_deviation", unexpected)
        (result,) = run_suite(TrialConfig(seed=0, trials=20, suites=("T1F",))).suites
        assert result.passes == 20
        assert 0.0 < result.max_deviation <= 1e-10
        assert len(defects) == 80
        assert not any(y is not None and y.blocks is m for y in defects for m in measured)


class TestT4:
    def test_one_norming_minimum_per_trial(self, monkeypatch):
        # the invertible branch reads its deviation and its verdict from one
        # evaluation, the singular branch from one of its own
        calls, invertible = [], []
        minimum, draw = algebra.min_real_over_norming, harness.gen_invertible

        def counted(u, x, *, tol):
            calls.append(x)
            return minimum(u, x, tol=tol)

        def counted_draw(shape, rng):
            invertible.append(shape)
            return draw(shape, rng)

        monkeypatch.setattr(harness, "min_real_over_norming", counted)
        monkeypatch.setattr(harness, "gen_invertible", counted_draw)
        assert run_suite(TrialConfig(seed=0, trials=8, suites=("T4",))).all_passed
        assert 0 < len(invertible) < 8  # both branches ran
        assert len(calls) == 8


class TestFailedTrials:
    @pytest.mark.parametrize(
        ("suite", "route"), [("T1B", "construct_witness"), ("T4", "invertibility_certificate")]
    )
    def test_a_failed_trial_reports_deviation_one(self, monkeypatch, suite, route):
        # no witness or no certificate: the trial fails before it can measure
        monkeypatch.setattr(harness, route, lambda x, *, tol: None)
        report = run_suite(TrialConfig(seed=0, trials=4, suites=(suite,)))
        (result,) = report.suites
        assert result.failures
        assert {f["deviation"] for f in result.failures} == {1.0}
        assert result.max_deviation == 1.0
        assert f"FAIL {suite}: {result.passes}/4 passed, max deviation 1.000e+00" in report.to_text()

        def reject(name):
            raise ValueError(f"{name} is not standard JSON")

        json.loads(report.to_json(), parse_constant=reject)
