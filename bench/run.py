"""opgeo benchmark: three in-process workloads timed end to end, and a
separate traced run that reports per-layer counts and self times.

Usage (from the repository root):

    python3 bench/run.py [--workload small_ops|large_blocks|harness|all]
                         [--seed N] [--seconds S] [--trace 0|1]

Each workload is a closed loop with one client: the next ``opgeo`` command
starts when the previous one has returned.  Commands run in this process
through ``opgeo.cli.main`` with stdout captured.  The loop runs whole
cycles of the workload's command mix and stops at the cycle boundary
nearest to ``--seconds``, so every run measures the same mix.  Command and
set-up times are scaled to a reference host speed by the probe in
``hostspeed.py``; the times as measured are printed too.  The last line of stdout is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.  A full report is written under ``.bench_out/``.
"""

from __future__ import annotations

import os

# must precede the first numpy import, here and in every child process
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import hostspeed
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

#: fresh interpreters started per run to measure setup_s
SETUP_SAMPLES = 15

LAPACK_SPAN_PREFIX = "numpy."

WORKLOADS = ("small_ops", "large_blocks", "harness")


def child_env() -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_sample() -> float:
    """Wall time of one fresh `python -m opgeo.cli --version` process, which
    imports opgeo.cli and builds the parser.

    The wait has no timeout: with one, subprocess polls the child in steps
    of up to 50 ms, which would quantise the measurement.
    """
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "opgeo.cli", "--version"],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.DEVNULL,
        check=True,
    )
    return time.perf_counter() - t0


def scaled_setup_sample() -> tuple[float, float]:
    """(seconds as timed, seconds at the reference host speed) of one
    setup sample; the host speed is the mean of a probe before and one after."""
    before = hostspeed.probe()
    dt = setup_sample()
    after = hostspeed.probe()
    return dt, hostspeed.scaled(dt, 0.5 * (before + after))


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception as exc:  # the record must not stop the run
        blas = {"error": repr(exc)}
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "opgeo").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
        "seed": seed,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


class Runner:
    """Runs ops through opgeo.cli.main, checks them and keeps the tallies."""

    def __init__(self):
        from opgeo import cli

        self.cli = cli
        self.attempted = 0
        self.failures: list[dict] = []

    def execute(self, op, tracer=None, op_id: int = -1):
        """Run one op; returns (exit code, stdout, stderr, seconds), or None
        when the evidence file it needs was not emitted."""
        if op.needs is not None and not op.needs.exists():
            return None
        if tracer is not None:
            tracer.current_op = op_id
            if op.needs is not None:
                tracer.extra["documents.bytes_in"] += op.needs.stat().st_size
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(list(op.argv))
            except SystemExit as exc:  # argparse exits; sys.exit(None) is 0, a message is 1
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            except Exception:  # an op that raises is a failed op, not a stopped run
                code = "exception"
                err.write(traceback.format_exc())
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.current_op = -1
        if op.emits is not None:
            if code == 0:
                op.emits.write_text(out.getvalue())
            else:
                op.emits.unlink(missing_ok=True)
        return code, out.getvalue(), err.getvalue(), dt

    def check(self, op, result) -> bool:
        """Check one op's outcome; a failure is recorded with its reason."""
        code, out, err, _ = result
        self.attempted += 1
        if code == "exception":
            reason = "raised: " + err.strip().splitlines()[-1]
        else:
            try:
                reason = op.check(code, out)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                reason = f"unexpected output: {exc!r}"
        if reason is not None:
            self.failures.append({"command": " ".join(op.argv), "label": op.label, "reason": reason})
            return False
        return True

    def run_ops(self, ops, tracer=None, after=None) -> list:
        """Run ops in order, then check them; returns [(op, result, ok)].

        `after`, if given, is called with the result of each op that ran.  Checks run
        after the ops so that a traced pass sees only program work.
        """
        done = []
        try:
            if tracer is not None:
                tracer.install()
            for op in ops:
                result = self.execute(op, tracer, len(done))
                if result is not None:
                    done.append((op, result))
                    if after is not None:
                        after(result)
        finally:
            if tracer is not None:
                tracer.uninstall()
        return [(op, result, self.check(op, result)) for op, result in done]


def run_untraced(stream, seconds: float, runner: Runner) -> dict:
    """Run whole cycles until the cycle boundary nearest to `seconds`.

    The host-speed probe runs between ops, at most every
    hostspeed.INTERVAL_S.  The setup_s samples are taken one after each
    cycle, so that they spread over the run instead of catching one moment
    of a host whose speed drifts; samples still missing at the end are
    taken then.
    """
    runner.run_ops(stream.warmup)
    setup_sample()  # unmeasured: fills the file cache and writes bytecode
    tracker = hostspeed.Tracker()
    timed = []  # ops in the order they ran
    harness_walls: dict[str, list] = {}
    setup_times = []
    t_start = time.perf_counter()
    cycles = 0
    while True:
        ops = stream.cycles[cycles % len(stream.cycles)]
        done = runner.run_ops(ops, after=lambda result: tracker.after_op(result[3]))
        for op, (_, out, _, _), ok in done:
            timed.append(op)
            if op.kind == "harness" and ok:
                for suite in json.loads(out)["suites"]:
                    harness_walls.setdefault(suite["name"], []).append(suite["wall_time_s"])
        tracker.flush()
        cycles += 1
        if len(setup_times) < SETUP_SAMPLES:
            setup_times.append(scaled_setup_sample())
        elapsed = time.perf_counter() - t_start
        if elapsed + 0.5 * elapsed / cycles >= seconds:
            break
    setup_times += [scaled_setup_sample() for _ in range(SETUP_SAMPLES - len(setup_times))]
    return {
        "timed": list(zip(timed, tracker.ops, tracker.probe_of_op)),
        "probe_share": stream.probe_share,
        "cycles": cycles,
        "harness_walls": harness_walls,
        "setup_times": setup_times,
    }


def end_to_end(measured: dict) -> tuple[dict, list[str]]:
    """The metric values and the human-readable lines that describe them."""
    timed = measured["timed"]
    setup_times = [scaled for _, scaled in measured["setup_times"]]
    setup_raw = [dt for dt, _ in measured["setup_times"]]
    all_ops = [dt for _, dt, _ in timed]
    probes = [p for _, _, p in timed]
    n = len(all_ops)
    share = measured["probe_share"]
    scaled_s = sum(hostspeed.scaled(dt, p, share) for _, dt, p in timed)
    how = (
        f"at the reference host speed, {share:.0%} of it scaled; the probe took "
        f"{statistics.mean(probes) / hostspeed.REFERENCE_S:.3f}x its reference time on average"
    )
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": n / scaled_s,
        "raw_ops_per_s": n / sum(all_ops),
        "op_p50_ms": 1000.0 * statistics.median(all_ops),
        "peak_rss_mb": peak_mb,
    }
    lines = [
        f"metric setup_s = {metrics['setup_s']!r} s (median of {len(setup_times)} fresh "
        f"`python -m opgeo.cli --version` processes, each at the reference host speed)",
        f"info raw_setup_s = {statistics.median(setup_raw)!r} s (the same median as timed)",
        f"metric ops_per_s = {metrics['ops_per_s']!r} 1/s ({n} ops in {measured['cycles']} cycles, "
        f"{scaled_s:.3f} s inside opgeo.cli.main {how})",
        f"info raw_ops_per_s = {metrics['raw_ops_per_s']!r} 1/s ({sum(all_ops):.3f} s inside opgeo.cli.main as timed)",
        f"metric op_p50_ms = {metrics['op_p50_ms']!r} ms (n={n}, as timed)",
    ]
    # p90 needs at least ten samples beyond it
    if n >= 100:
        p90 = statistics.quantiles(all_ops, n=10, method="inclusive")[8]
        lines.append(f"metric op_p90_ms = {1000.0 * p90!r} ms (n={n}, as timed)")
    else:
        lines.append(f"metric op_p90_ms omitted: {n} ops < 100")
    for kind in ("classify", "evidence"):
        lat = [dt for op, dt, _ in timed if op.kind == kind]
        if lat:
            lines.append(f"metric {kind}_p50_ms = {1000.0 * statistics.median(lat)!r} ms (n={len(lat)}, as timed)")
    lines.append(f"metric peak_rss_mb = {peak_mb!r} MB (ru_maxrss of this process)")
    for suite, walls in measured["harness_walls"].items():
        lines.append(
            f"info harness.{suite}.wall_s median = {statistics.median(walls)!r} s (n={len(walls)}, from --timing)"
        )
    return metrics, lines


# ---------------------------------------------------------------------------
# traced run


def run_traced(stream, seconds: float, runner: Runner, window_cycles: int) -> dict:
    """Alternate an untraced and a traced pass over a fixed window of ops
    until `seconds` have elapsed.  Counts come from the first traced pass
    (they repeat exactly for a seed); self times from all traced passes;
    the overhead compares the paired passes, which run the same ops."""
    window = [op for cycle in stream.cycles[:window_cycles] for op in cycle]
    runner.run_ops(stream.warmup)
    passes = []
    untraced_s = traced_s = 0.0
    untraced_n = traced_n = 0
    t_start = time.perf_counter()
    while True:
        done = runner.run_ops(window)
        untraced_s += sum(r[3] for _, r, _ in done)
        untraced_n += len(done)
        tr = tracing.Tracer()
        done = runner.run_ops(window, tracer=tr)
        traced_s += sum(r[3] for _, r, _ in done)
        traced_n += len(done)
        passes.append((tr, done))
        if time.perf_counter() - t_start >= seconds:
            break
    return {
        "passes": passes,
        "untraced_ops_per_s": untraced_n / untraced_s,
        "traced_ops_per_s": traced_n / traced_s,
    }


#: functions whose self time is reported in the JSON line: each runs on
#: every workload, so none reads a constant zero
SELF_MS_METRICS = (
    "linalg.svd",
    "linalg.polar",
    "linalg.hermitian_eig",
    "linalg.operator_norm",
    "linalg.singular_values",
    "linalg.apply_function_hermitian",
    "algebra.Element",
    "algebra.element_norm",
    "algebra.norming_set",
    "algebra.sample_norming_functional",
    "algebra.numeric_span_rank",
    "algebra.min_real_over_norming",
    "classify.construct_witness",
    "classify.x1_member",
    "classify.x2_member",
    "classify.x2_deviation",
    "classify.is_extreme_point",
    "classify.is_unitary_geometric",
    "classify.invertibility_certificate",
    "classify.verify_certificate",
    "classify.is_self_adjoint_lumer",
    "classify.is_self_adjoint_states",
    "classify.is_positive",
    "classify.is_projection",
    "classify.recover_adjoint",
    "cli.main",
)


def per_layer(traced: dict) -> tuple[dict, dict]:
    """(metrics for the JSON line, full per-function table)."""
    passes = traced["passes"]
    first, first_done = passes[0]
    n_ops = len(first_done)
    counts = first.self_times()
    n_traced = sum(len(done) for _, done in passes)
    self_ns: dict[str, int] = {}
    for tr, _ in passes:
        for name, (_, ns) in tr.self_times().items():
            self_ns[name] = self_ns.get(name, 0) + ns

    names = [f"{layer}.{fn}" for layer, (_, fns) in tracing.LAYERS.items() for fn in fns]
    names += [f"generators.{fn}" for fn in tracing.generator_functions()]
    names += [tracing.ELEMENT_SPAN] + [f"numpy.{fn}" for fn in tracing.NUMPY_FUNCTIONS]
    table = {
        name: {
            "calls_per_op": counts.get(name, (0, 0))[0] / n_ops,
            "self_ms_per_op": self_ns.get(name, 0) / 1e6 / n_traced,
        }
        for name in names
    }
    extra = first.extra
    commands = Counter(op.argv[0] for op, _, _ in first_done)
    x1_calls = counts.get("classify.x1_member", (0, 0))[0]
    metrics = {}
    for name in names:
        if name.startswith(LAPACK_SPAN_PREFIX):
            continue
        key = "algebra.Element.per_op" if name == tracing.ELEMENT_SPAN else f"{name}.calls"
        metrics[key] = table[name]["calls_per_op"]
    for name in SELF_MS_METRICS:
        metrics[f"{name}.self_ms"] = table[name]["self_ms_per_op"]
    metrics.update(
        {
            "linalg.lapack_calls": extra["lapack_calls"] / n_ops,
            "linalg.lapack_work": extra["lapack_work"] / n_ops,
            "linalg.lapack_self_ms": sum(
                v["self_ms_per_op"] for k, v in table.items() if k.startswith(LAPACK_SPAN_PREFIX)
            ),
            "algebra.numeric_span_rank.rows_per_span_dim": (
                extra["numeric_span_rank.rows"] / extra["numeric_span_rank.rank"]
                if extra["numeric_span_rank.rank"]
                else 0.0
            ),
            "classify.construct_witness.per_classify": (
                sum(1 for i in first.op_ids("classify.construct_witness") if first_done[i][0].argv[0] == "classify")
                / commands["classify"]
                if commands["classify"]
                else 0.0
            ),
            "classify.x1_member.norms_per_call": (
                first.calls_under("algebra.element_norm", "classify.x1_member") / x1_calls if x1_calls else 0.0
            ),
            "documents.bytes_in": extra["documents.bytes_in"] / n_ops,
            "documents.bytes_out": extra["documents.bytes_out"] / n_ops,
            "trace.overhead_pct": 100.0
            * (traced["untraced_ops_per_s"] - traced["traced_ops_per_s"])
            / traced["untraced_ops_per_s"],
        }
    )
    details = {
        "functions": table,
        "lapack_calls_by_function": {k: v / n_ops for k, v in extra.items() if k.startswith("lapack_calls.")},
        "commands_in_window": dict(commands),
        "untraced_ops_per_s": traced["untraced_ops_per_s"],
        "traced_ops_per_s": traced["traced_ops_per_s"],
        "traced_passes": len(passes),
        "window_ops": n_ops,
    }
    return metrics, details


# ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    import workloads

    t0 = time.perf_counter()
    stream = workloads.build(workload, seed, seconds, workdir)
    draw_s = time.perf_counter() - t0
    runner = Runner()
    lines = [f"set-up: drew {stream.n_inputs} operators and {sum(map(len, stream.cycles))} commands in {draw_s:.3f} s"]
    if trace:
        traced = run_traced(stream, seconds, runner, window_cycles=1)
        metrics, details = per_layer(traced)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl.gz"
        traced["passes"][0][0].write_spans(spans_path)
        lines.append(f"spans of the first traced pass: {spans_path.relative_to(ROOT)}")
        lines.append(
            f"trace overhead: {metrics['trace.overhead_pct']:.1f}% lower ops_per_s "
            f"({details['traced_ops_per_s']:.3f} traced vs {details['untraced_ops_per_s']:.3f} untraced, "
            f"same {details['window_ops']}-op window, {details['traced_passes']} pass pairs)"
        )
        for name, row in details["functions"].items():
            if row["calls_per_op"]:
                lines.append(
                    f"layer {name}: {row['calls_per_op']:.3f} calls/op, {row['self_ms_per_op']:.4f} ms/op self"
                )
    else:
        measured = run_untraced(stream, seconds, runner)
        metrics, metric_lines = end_to_end(measured)
        lines += metric_lines
        details = {
            "setup_s_samples": [{"seconds": dt, "scaled_s": sc} for dt, sc in measured["setup_times"]],
            "cycles": measured["cycles"],
            "ops": [
                {"command": " ".join(op.argv), "label": op.label, "seconds": dt, "probe_s": p}
                for op, dt, p in measured["timed"]
            ],
        }
    failed = len(runner.failures)
    lines.append(f"metric fail_ratio = {failed / runner.attempted!r} ({failed}/{runner.attempted} ops)")
    for f in runner.failures:
        lines.append(f"FAILED {f['label']}: {f['command']}: {f['reason']}")
    return {
        "workload": workload,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
        "details": details,
        "failures": runner.failures,
        "lines": lines,
    }


def units(trace: bool) -> dict:
    """name -> unit of the metrics the JSON line carries, from BENCHMARK.json.

    Latency medians are computed but not listed there: over a mix whose
    latencies cluster by shape and command they land near a cluster edge and
    swing with the draw, while throughput averages over the whole mix.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "opgeo" / "cli.py").is_file():
        print(f"error: opgeo sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import opgeo.cli  # noqa: F401  (fails here, before any output, if the package is broken)

    env = environment(args.seed)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    workdir = WORK / f"{os.getpid()}"
    results = []
    try:
        for name in names:
            if workdir.exists():
                shutil.rmtree(workdir)
            workdir.mkdir(parents=True)
            print(f"== opgeo benchmark: workload={name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
            print("env: " + json.dumps(env, sort_keys=True))
            res = run_workload(name, args.seed, args.seconds, bool(args.trace), workdir)
            for line in res["lines"]:
                print(line)
            results.append(res)
            OUT.mkdir(exist_ok=True)
            report = {k: v for k, v in res.items() if k != "lines"}
            report.update(env=env, seconds=args.seconds, trace=args.trace)
            (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=2))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    unit_of = units(bool(args.trace))
    metrics = {}
    for res in results:
        missing = sorted(unit_of.keys() - res["metrics"].keys())
        if missing:
            print(f"error: {res['workload']} did not measure {missing}", file=sys.stderr)
            return 1
        prefix = f"{res['workload']}." if len(results) > 1 else ""
        for name, unit in unit_of.items():
            metrics[prefix + name] = {"value": res["metrics"][name], "unit": unit}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
