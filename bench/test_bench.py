"""Self-tests of the benchmark.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run  # first: it sets OPENBLAS_NUM_THREADS before numpy is imported

sys.path.insert(0, str(run.SRC))

import hostspeed  # noqa: E402
import numpy as np  # noqa: E402
import pytest  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from opgeo.algebra import AlgebraShape  # noqa: E402


def _counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if not k.endswith("self_ms") and k != "trace.overhead_pct"}


def _traced_counts(workload: str, seed: int, workdir) -> dict:
    workdir.mkdir()
    stream = workloads.build(workload, seed, 1, workdir)
    traced = run.run_traced(stream, 0.0, run.Runner(), window_cycles=1)
    metrics, _ = run.per_layer(traced)
    return _counts(metrics)


@pytest.mark.parametrize("workload", ["small_ops", "harness"])
def test_traced_counts_repeat_for_a_seed(workload, tmp_path):
    first = _traced_counts(workload, 5, tmp_path / "a")
    second = _traced_counts(workload, 5, tmp_path / "b")
    assert first["linalg.operator_norm.calls"] > 0
    assert first["linalg.lapack_work"] > 0
    assert first == second


def test_tracer_rebinds_every_namespace_and_restores_it():
    import opgeo.algebra
    import opgeo.classify
    import opgeo.cli
    import opgeo.harness

    originals = (opgeo.algebra.element_norm, opgeo.classify.x1_member, np.linalg.svd, opgeo.algebra.Element.__init__)
    tr = tracer.Tracer()
    with tr:
        assert opgeo.cli.element_norm is opgeo.algebra.element_norm is opgeo.harness.element_norm
        assert opgeo.harness.x1_member is opgeo.classify.x1_member is not originals[1]
        x = opgeo.algebra.Element.identity(opgeo.algebra.AlgebraShape((2,)))
        opgeo.harness.element_norm(x)
    assert tr.self_times()["algebra.element_norm"][0] == 1
    assert tr.extra["lapack_calls"] == 1
    assert (opgeo.algebra.element_norm, opgeo.classify.x1_member, np.linalg.svd, opgeo.algebra.Element.__init__) == originals
    assert opgeo.harness.x1_member is originals[1]


def _run_items(items, tmp_path) -> run.Runner:
    runner = run.Runner()
    runner.run_ops([op for item in items for op in workloads.item_ops(item, tmp_path)])
    return runner


def test_planted_wrong_expectation_raises_fail_ratio(tmp_path):
    rng = np.random.default_rng(7)
    ((*items,),) = workloads.draw_items([(4,)], 1, rng, tmp_path, "t")
    runner = _run_items(items, tmp_path)
    assert runner.attempted > len(items)
    assert runner.failures == []

    pi = next(it for it in items if it.cls == "pi" and "partial_isometry" in it.clean)
    pi.expected["partial_isometry"] = False
    runner = _run_items(items, tmp_path)
    assert len(runner.failures) / runner.attempted > 0
    assert [f["label"] for f in runner.failures] == ["pi@M4"]


def test_tracker_gives_each_op_the_next_probe(monkeypatch):
    probes = iter([0.002, 0.004])
    monkeypatch.setattr(hostspeed, "probe", lambda: next(probes))
    monkeypatch.setattr(hostspeed, "INTERVAL_S", 3600.0)
    tr = hostspeed.Tracker()
    tr.after_op(0.1)
    tr.after_op(0.2)
    tr.flush()
    tr.after_op(0.3)
    tr.flush()
    tr.flush()  # nothing pending: no probe
    assert tr.ops == [0.1, 0.2, 0.3]
    assert tr.probe_of_op == [0.002, 0.002, 0.004]


def test_scaling_leaves_the_unshared_part_as_timed():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.scaled(1.0, 2 * ref) == pytest.approx(0.5)
    assert hostspeed.scaled(1.0, 2 * ref, share=0.3) == pytest.approx(0.85)
    assert hostspeed.scaled(1.0, 2 * ref, share=0.0) == 1.0


@pytest.mark.parametrize("dims", [(2,), (8,), (32,), (2, 3), (16, 16)])
def test_stratified_ranks_are_proper_and_ordered(dims):
    shape = AlgebraShape(dims)
    rng = np.random.default_rng(1)
    for _ in range(20):
        low, mid, high = (workloads.stratified_ranks(shape, k, rng) for k in range(workloads.RANK_STRATA))
        for ranks in (low, mid, high):
            assert all(1 <= r < n for r, n in zip(ranks, dims))
        assert all(a <= b <= c for a, b, c in zip(low, mid, high))


def test_harness_check_rejects_a_failing_suite():
    report = {"config": {"seed": 3}, "suites": [{"name": "T1F", "trials": 2, "passes": 1, "wall_time_s": 0.1}]}
    assert workloads.check_harness(3)(1, json.dumps(report)) == "suites FAIL: T1F"
    report["suites"][0]["passes"] = 2
    assert workloads.check_harness(3)(0, json.dumps(report)) is None


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "small_ops", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
