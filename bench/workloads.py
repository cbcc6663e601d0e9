"""The benchmark's workloads: seeded inputs, the command stream each
workload runs, and the outcome each command must have.

Inputs are drawn with ``opgeo.generators`` and written as operator
documents before anything is timed.  Expected verdicts come from the
generator class; a predicate whose draw lies near a decision threshold is
marked unclean and its verdict is not compared (exit code and output format
still are).  No input is filtered or re-drawn.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from opgeo import documents, generators
from opgeo.algebra import AlgebraShape, Element

WORKLOADS = ("small_ops", "large_blocks", "harness")

SMALL_SHAPES = ((2,), (4,), (6,), (8,), (2, 3))
LARGE_SHAPES = ((16,), (24,), (32,), (16, 16))

#: classes drawn per shape in one cycle.  Partial isometries are drawn twice
#: so that four of seven classify commands run the X1 search: the median
#: classify latency then sits inside the slow mode, not on the boundary
#: between the two modes.
CLASS_MIX = ("pi", "pi", "unitary", "projection", "nonpi", "ginibre", "positive")

#: rank stratum of each rank-deficient class in CLASS_MIX, by position.  The
#: ranks 1..n-1 of a block are split into RANK_STRATA runs and each of these
#: draws takes its ranks from its own run, so every cycle holds a low-, a
#: middle- and a high-rank draw per shape.  The cost of the X1 search grows
#: with the rank, and unstratified ranks made the work of a cycle swing by
#: half from one seed to the next.
RANK_STRATA = 3
STRATUM = {0: 0, 1: 2, 3: 1}

PREDICATES = (
    "partial_isometry",
    "unitary",
    "extreme_point",
    "invertible",
    "self_adjoint",
    "positive",
    "projection",
)

_F, _T = False, True
#: class -> expected verdict per predicate (None: not applicable, norm != 1).
#: "pi" and "projection" are drawn with a rank-deficient block.
EXPECTED = {
    "pi": dict(zip(PREDICATES, (_T, _F, _F, _F, _F, _F, _F))),
    "nonpi": dict(zip(PREDICATES, (_F, _F, _F, _T, _F, _F, _F))),
    "unitary": dict(zip(PREDICATES, (_T, _T, _T, _T, _F, _F, _F))),
    "ginibre": dict(zip(PREDICATES, (None, None, None, _T, _F, _F, _F))),
    "positive": dict(zip(PREDICATES, (_F, _F, _F, _T, _T, _T, _F))),
    "projection": dict(zip(PREDICATES, (_T, _F, _F, _F, _T, _T, _T))),
}

INVERTIBLE_CLASSES = ("unitary", "ginibre", "positive")

#: a measured deviation inside (NEAR, far) makes the draw unclean for a
#: predicate; far is FAR, or INVERTIBLE_FAR for the smallest singular value
#: (the decision threshold there is 1e-6)
NEAR, FAR, INVERTIBLE_FAR = 1e-9, 1e-2, 1e-4


def stratified_ranks(shape: AlgebraShape, stratum: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Block ranks drawn from run `stratum` of 1..n-1, so every block is
    rank-deficient and none is zero; blocks need n >= 2.  Higher strata
    never give a lower rank."""
    ranks = []
    for n in shape.block_dims:
        runs = np.array_split(np.arange(1, n), RANK_STRATA)
        k = stratum
        while runs[k].size == 0:  # fewer ranks than strata: the run below
            k -= 1
        ranks.append(int(rng.choice(runs[k])))
    return tuple(ranks)


def draw(cls: str, shape: AlgebraShape, rng: np.random.Generator, stratum: int = 0) -> Element:
    if cls == "pi":
        return generators.gen_partial_isometry(shape, stratified_ranks(shape, stratum, rng), rng)
    if cls == "projection":
        w = generators.gen_partial_isometry(shape, stratified_ranks(shape, stratum, rng), rng)
        return w @ w.H
    return {
        "nonpi": generators.gen_norm_one_non_pi,
        "unitary": generators.gen_unitary,
        "ginibre": generators.gen_ginibre,
        "positive": generators.gen_positive,
    }[cls](shape, rng)


def _opnorm(b: np.ndarray) -> float:
    return float(np.linalg.svd(b, compute_uv=False)[0])


def _clear(value: float, far: float = FAR) -> bool:
    """True when a deviation is clearly zero or clearly not zero."""
    return value < NEAR or value > far


def clean_predicates(x: Element) -> frozenset[str]:
    """Predicates whose decision the draw of x leaves away from a threshold."""
    sv = np.concatenate([np.linalg.svd(b, compute_uv=False) for b in x.blocks])
    herm = max(_opnorm(b - b.conj().T) for b in x.blocks)
    idem = max(_opnorm(b @ b - b) for b in x.blocks)
    lam = min(float(np.linalg.eigvalsh(0.5 * (b + b.conj().T))[0]) for b in x.blocks)
    pi_dev = float(np.max(np.minimum(sv, np.abs(1.0 - sv))))
    unitary_dev = float(np.max(np.abs(1.0 - sv)))
    clean = set()
    if _clear(pi_dev):
        clean.add("partial_isometry")
    if _clear(unitary_dev):
        clean.add("unitary")
    if _clear(pi_dev) and _clear(unitary_dev):
        clean.add("extreme_point")
    if _clear(float(np.min(sv)), INVERTIBLE_FAR):
        clean.add("invertible")
    if _clear(herm):
        clean.add("self_adjoint")
        if herm > FAR or lam > -1e-12 or lam < -FAR:
            clean.add("positive")
        if _clear(idem):
            clean.add("projection")
    return frozenset(clean)


@dataclass
class Item:
    """One drawn operator and what its commands must report."""

    cls: str
    shape: AlgebraShape
    x: Element
    path: Path
    expected: dict
    clean: frozenset


@dataclass
class Op:
    """One CLI command and the check of its outcome."""

    kind: str  # "classify", "evidence" or "harness"
    argv: list
    check: Callable[[int, str], str | None]
    emits: Path | None = None  # stdout is written here for a later --verify
    needs: Path | None = None  # evidence file read by this command
    label: str = ""


@dataclass
class Stream:
    """A workload's command cycles plus the warm-up commands."""

    warmup: list
    cycles: list  # list of lists of Op
    n_inputs: int = 0
    #: share of command time that moves with the host-speed probe (see
    #: hostspeed.py); the rest is counted as timed
    probe_share: float = 1.0


# ---------------------------------------------------------------------------
# checks


def _parse(out: str):
    try:
        return json.loads(out), None
    except ValueError as exc:
        return None, f"output does not parse: {exc}"


def _output(code: int, out: str, what: str):
    """(document, None) for exit 0 with JSON output, else (None, reason)."""
    if code != 0:
        return None, f"exit {code}, expected 0 ({what})"
    return _parse(out)


def check_classify(item: Item) -> Callable[[int, str], str | None]:
    def check(code: int, out: str) -> str | None:
        doc, err = _output(code, out, "a report")
        if err:
            return err
        verdicts = {v.get("predicate"): v for v in doc.get("verdicts", [])}
        if set(verdicts) != set(PREDICATES):
            return f"predicates {sorted(verdicts)} != {sorted(PREDICATES)}"
        for pred in PREDICATES:
            want, v = item.expected[pred], verdicts[pred]
            if want is None:
                if v.get("status") != "not-applicable":
                    return f"{pred}: status {v.get('status')!r}, expected not-applicable"
                continue
            if v.get("status") != "classified":
                return f"{pred}: status {v.get('status')!r}, expected classified"
            if pred not in item.clean:
                continue
            if v["algebraic"] != want or v["geometric"] != want:
                return (
                    f"{pred}: algebraic={v['algebraic']} geometric={v['geometric']}, "
                    f"class {item.cls} expects {want}"
                )
            if pred in ("positive", "projection") and not v["evidence"].get("unanimous"):
                return f"{pred}: routes not unanimous on a clean draw"
        return None

    return check


def check_witness_emit(item: Item):
    def check(code: int, out: str) -> str | None:
        doc, err = _output(code, out, "a witness")
        if err:
            return err
        if doc.get("type") != "partial-isometry-witness":
            return f"type {doc.get('type')!r}"
        if not doc["margin"] > 0.0:
            return f"witness margin {doc['margin']!r} is not positive"
        return None

    return check


def check_no_witness(code: int, out: str) -> str | None:
    if code != 4:
        return f"exit {code}, expected 4 (no witness for a partial isometry)"
    if out.strip():
        return "a witness was printed for a partial isometry"
    return None


def check_certificate_emit(item: Item):
    clean = "invertible" in item.clean

    def check(code: int, out: str) -> str | None:
        if not clean and code == 4:
            return None
        doc, err = _output(code, out, "a certificate")
        if err:
            return err
        if doc.get("type") != "invertibility-certificate":
            return f"type {doc.get('type')!r}"
        sigma = min(float(np.linalg.svd(b, compute_uv=False)[-1]) for b in item.x.blocks)
        if abs(doc["epsilon"] - sigma) > 1e-8 * max(1.0, sigma):
            return f"epsilon {doc['epsilon']!r} != sigma_min {sigma!r}"
        return None

    return check


def check_verified(code: int, out: str) -> str | None:
    doc, err = _output(code, out, "evidence accepted")
    if err:
        return err
    if doc.get("verified") is not True:
        return f"verified={doc.get('verified')!r}"
    return None


def check_adjoint(item: Item):
    def check(code: int, out: str) -> str | None:
        doc, err = _output(code, out, "an adjoint")
        if err:
            return err
        try:
            star = documents.element_from_doc(doc)
        except documents.DocumentError as exc:
            return f"adjoint document: {exc}"
        if star.shape != item.x.shape:
            return f"adjoint shape {star.shape} != {item.x.shape}"
        scale = max(1.0, max(_opnorm(b) for b in item.x.blocks))
        dev = max(_opnorm(a - b.conj().T) for a, b in zip(star.blocks, item.x.blocks))
        if dev > 1e-8 * scale:
            return f"||recovered - x*|| = {dev:.3e}"
        return None

    return check


def check_harness(seed: int):
    def check(code: int, out: str) -> str | None:
        doc, err = _parse(out)
        if err:
            return err
        if doc["config"]["seed"] != seed:
            return f"report seed {doc['config']['seed']} != {seed}"
        failed = [s["name"] for s in doc["suites"] if s["passes"] != s["trials"]]
        if failed:
            return f"suites FAIL: {','.join(failed)}"
        if code != 0:
            return f"exit {code}, expected 0"
        if any("wall_time_s" not in s for s in doc["suites"]):
            return "--timing report lacks wall_time_s"
        return None

    return check


# ---------------------------------------------------------------------------
# streams


def item_ops(item: Item, workdir: Path) -> list:
    """classify --unit for every operator, plus the class's evidence commands.

    Each partial isometry is also asked for a refuting witness, which must be
    refused with exit 4, so the negative outcome of that route is checked too.
    """
    p = str(item.path)
    label = f"{item.cls}@{item.shape}"
    ops = [Op("classify", ["classify", p, "--unit"], check_classify(item), label=label)]
    stem = item.path.stem
    if item.cls == "pi":
        # a partial isometry has no refuting witness: exit 4, nothing emitted
        ops.append(
            Op("evidence", ["certify", p, "--predicate", "partial-isometry"], check_no_witness, label=label)
        )
    if item.cls == "nonpi":
        wit = workdir / f"{stem}.witness.json"
        pred = ["--predicate", "partial-isometry"]
        ops.append(Op("evidence", ["certify", p, *pred], check_witness_emit(item), emits=wit, label=label))
        ops.append(
            Op("evidence", ["certify", p, *pred, "--verify", str(wit)], check_verified, needs=wit, label=label)
        )
    if item.cls in INVERTIBLE_CLASSES:
        cert = workdir / f"{stem}.cert.json"
        pred = ["--predicate", "invertible"]
        ops.append(Op("evidence", ["certify", p, *pred], check_certificate_emit(item), emits=cert, label=label))
        ops.append(
            Op("evidence", ["certify", p, *pred, "--verify", str(cert)], check_verified, needs=cert, label=label)
        )
    if item.cls == "ginibre":
        ops.append(Op("evidence", ["adjoint", p, "--unit"], check_adjoint(item), label=label))
    return ops


def draw_items(shapes, n_cycles: int, rng: np.random.Generator, workdir: Path, prefix: str) -> list:
    """n_cycles cycles of CLASS_MIX x shapes, written as operator documents."""
    cycles = []
    k = 0
    for _ in range(n_cycles):
        cycle = []
        for dims in shapes:
            shape = AlgebraShape(dims)
            for i, cls in enumerate(CLASS_MIX):
                x = draw(cls, shape, rng, STRATUM.get(i, 0))
                path = workdir / f"{prefix}{k:05d}.json"
                path.write_text(documents.dumps(documents.element_to_doc(x, label=f"{cls}@{shape}")))
                cycle.append(Item(cls, shape, x, path, dict(EXPECTED[cls]), clean_predicates(x)))
                k += 1
        cycles.append(cycle)
    return cycles


def operator_stream(shapes, n_cycles: int, rng: np.random.Generator, workdir: Path) -> Stream:
    """Warm-up on one extra cycle at the smallest shape, then n_cycles cycles."""
    smallest = min(shapes, key=lambda d: (sum(x * x for x in d), d))
    (warm_items,) = draw_items([smallest], 1, rng, workdir, "warm")
    cycles = draw_items(shapes, n_cycles, rng, workdir, "op")
    warmup = [op for item in warm_items for op in item_ops(item, workdir)]
    ops = [[op for item in cycle for op in item_ops(item, workdir)] for cycle in cycles]
    return Stream(warmup, ops, n_inputs=len(warm_items) + sum(map(len, cycles)))


def harness_op(seed: int, *extra: str) -> Op:
    argv = ["harness", "--format", "json", "--timing", *extra, "--seed", str(seed)]
    return Op("harness", argv, check_harness(seed), label=f"seed={seed}")


#: trials per suite in one harness invocation, and invocations per cycle.
#: Short invocations give each run well over 100 ops, so the host-speed
#: probe that follows each op tracks the host closely and op_p90_ms is
#: printed.
HARNESS_TRIALS = 2
HARNESS_PER_CYCLE = 10


def harness_stream(n_cycles: int, rng: np.random.Generator) -> Stream:
    """HARNESS_PER_CYCLE harness invocations per cycle, each with its own seed."""
    seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=n_cycles * HARNESS_PER_CYCLE + 1)]
    trials = ["--trials", str(HARNESS_TRIALS)]
    warm = harness_op(seeds[0], "--trials", "1")
    ops = [harness_op(s, *trials) for s in seeds[1:]]
    cycles = [ops[i : i + HARNESS_PER_CYCLE] for i in range(0, len(ops), HARNESS_PER_CYCLE)]
    return Stream([warm], cycles)


def build(workload: str, seed: int, seconds: float, workdir: Path) -> Stream:
    """Draw the inputs of a workload; enough cycles for `seconds` on a fast host."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "small_ops":
        return operator_stream(SMALL_SHAPES, max(2, int(seconds)), rng, workdir)
    if workload == "large_blocks":
        # The traced run puts about 70% of this time in numpy.linalg calls
        # on dense blocks, which do not slow down in step with the probe
        stream = operator_stream(LARGE_SHAPES, max(1, int(seconds) // 10), rng, workdir)
        stream.probe_share = 0.3
        return stream
    if workload == "harness":
        return harness_stream(max(2, int(seconds)), rng)
    raise ValueError(f"unknown workload {workload!r}")
