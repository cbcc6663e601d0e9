import json

import numpy as np
import pytest

from opgeo import algebra, classify, harness
from opgeo.algebra import AlgebraShape
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

        monkeypatch.setattr(classify, "min_real_over_norming", counted)
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
