"""Command-line surface: classify operators, emit/verify evidence, run suites.

Exit codes: 0 success, 2 input error, 3 precondition violation,
4 negative certification (no certificate / verification rejected).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

import opgeo
from opgeo import documents
# bench/test_bench.py asserts opgeo.cli.element_norm, a name the benchmark's tracer rebinds
from opgeo.algebra import AlgebraShape, element_norm  # noqa: F401
from opgeo.algebra import DEFAULT_TOLERANCES, Tolerances
from opgeo.classify import classify_all, recover_adjoint
from opgeo.errors import (
    LinalgError,
    MalformedCertificateError,
    PreconditionError,
    ShapeMismatchError,
)
from opgeo.harness import ALL_SUITES, DEFAULT_SHAPES, MAX_BLOCK_DIM, TrialConfig, run_suite

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_NEGATIVE = 4


def _parse_tolerances(pairs) -> Tolerances:
    """The frozen DEFAULT_TOLERANCES when no --tol is given, else a
    validated copy with the NAME=VALUE pairs applied."""
    if not pairs:
        return DEFAULT_TOLERANCES
    values = DEFAULT_TOLERANCES.as_dict()
    for item in pairs:
        if "=" not in item:
            raise ValueError(f"--tol expects NAME=VALUE, got {item!r}")
        name, _, raw = item.partition("=")
        if name not in values:
            raise ValueError(f"tolerance {name!r} is unknown; choose from {sorted(values)}")
        values[name] = float(raw)
    return Tolerances(**values)


def _parse_shapes(text: str) -> tuple[AlgebraShape, ...]:
    shapes = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        dims = tuple(int(part.lstrip("Mm")) for part in token.split("+"))
        shapes.append(AlgebraShape(dims))
    if not shapes:
        raise ValueError("no shapes given")
    return tuple(shapes)


def _unit_requested(args, doc) -> bool:
    # `unit_identified` is a JSON boolean: element_from_doc checks it
    return args.unit or doc.get("unit_identified", False)


def cmd_classify(args) -> int:
    x, doc, raw = documents.load_element(args.input)
    tol = args.tolerances
    verdicts = documents.report_verdicts(classify_all(x, unit=_unit_requested(args, doc), tol=tol))
    report = {
        "tool": "opgeo",
        "version": opgeo.__version__,
        "input_digest": documents.digest(raw),
        "label": doc.get("label"),
        "tolerances": tol.as_dict(),
        "verdicts": verdicts,
    }
    print(documents.dumps(report))
    return EXIT_OK


def cmd_certify(args) -> int:
    x, doc, raw = documents.load_element(args.input)
    tol = args.tolerances
    kind = documents.evidence_kinds()[args.predicate]
    if args.verify:
        with open(args.verify, "rb") as fh:
            evidence = kind.read(fh.read())
        report = kind.verify(x, evidence, tol=tol)
        print(documents.dumps(report))
        if not report["verified"]:
            print(f"not verified: the {kind.noun} fails on this operator", file=sys.stderr)
            return EXIT_NEGATIVE
        return EXIT_OK
    evidence = kind.build(x, tol=tol)
    if evidence is None:
        print(kind.refusal, file=sys.stderr)
        return EXIT_NEGATIVE
    print(documents.dumps(kind.to_doc(evidence)))
    return EXIT_OK


def cmd_harness(args) -> int:
    try:
        seed = args.seed
        if seed is None:
            raw = os.environ.get("OPGEO_SEED", "0")
            try:
                seed = int(raw)
            except ValueError:
                raise ValueError(f"OPGEO_SEED must be an integer, got {raw!r}") from None
        suites = tuple(s.strip().upper() for s in args.suites.split(",") if s.strip())
        cfg = TrialConfig(
            seed=seed,
            trials=args.trials,
            shapes=_parse_shapes(args.shapes),
            tolerances=args.tolerances,
            suites=suites or ALL_SUITES,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report = run_suite(cfg)
    if args.format == "json":
        print(report.to_json(include_timing=args.timing))
    else:
        sys.stdout.write(report.to_text())
    return EXIT_OK if report.all_passed else 1


def cmd_adjoint(args) -> int:
    x, doc, raw = documents.load_element(args.input)
    if not _unit_requested(args, doc):
        print("error: adjoint recovery requires an identified unit (--unit)", file=sys.stderr)
        return EXIT_PRECONDITION
    star = recover_adjoint(x)
    print(documents.dumps(documents.element_to_doc(star, label=doc.get("label"))))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: every `main` call
    parses with the same object, which no caller mutates."""
    parser = argparse.ArgumentParser(
        prog="opgeo",
        description="Classify operators in finite direct sums of matrix algebras "
        "and emit checkable witnesses, certificates, and suite reports.",
    )
    parser.add_argument("--version", action="version", version=f"opgeo {opgeo.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tol(p):
        p.add_argument(
            "--tol",
            action="append",
            metavar="NAME=VALUE",
            help="override a tolerance: equality (computed quantities agree; "
            "default 1e-8) or classification (a deviation decides a predicate; "
            "default 1e-6), with equality <= classification",
        )

    p = sub.add_parser("classify", help="run all applicable classifiers on an operator")
    p.add_argument("input", help="operator document path, or - for stdin")
    p.add_argument("--unit", action="store_true", help="treat the blockwise identity as an identified unit")
    add_tol(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("certify", help="emit or verify a certificate/witness")
    p.add_argument("input", help="operator document path, or - for stdin")
    p.add_argument("--predicate", required=True, choices=list(documents.evidence_kinds()))
    p.add_argument("--verify", metavar="FILE", help="re-check an existing evidence file")
    add_tol(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("harness", help="run the seeded property suites")
    p.add_argument("--seed", type=int, help="default: the OPGEO_SEED environment variable, else 0")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--suites", default=",".join(ALL_SUITES))
    p.add_argument(
        "--shapes",
        default=",".join(str(s) for s in DEFAULT_SHAPES),
        help="comma-separated, block dims joined by + (e.g. M2,M4,M2+M3), "
        f"each at most {MAX_BLOCK_DIM}",
    )
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.add_argument("--timing", action="store_true", help="include wall times in JSON output")
    add_tol(p)
    p.set_defaults(func=cmd_harness)

    p = sub.add_parser("adjoint", help="recover the adjoint from norm data (reads no tolerance)")
    p.add_argument("input", help="operator document path, or - for stdin")
    p.add_argument("--unit", action="store_true", help="treat the blockwise identity as an identified unit")
    add_tol(p)  # accepted and validated as for every command; the recovery reads none
    p.set_defaults(func=cmd_adjoint)

    return parser


def main(argv=None) -> int:
    """Run one command.  Library errors that reach here become one stderr
    line: a violated precondition exits 3, an unreadable, mismatched or
    malformed input 2, and so does an input whose arithmetic overflows
    (a floating-point overflow or invalid operation raises here instead of
    warning and carrying inf or nan into a verdict)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.tolerances = _parse_tolerances(getattr(args, "tol", None))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        with np.errstate(over="raise", invalid="raise"):
            return args.func(args)
    except PreconditionError as exc:  # includes DegenerateInputError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (
        OSError, documents.DocumentError, ShapeMismatchError, MalformedCertificateError, LinalgError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (OverflowError, FloatingPointError) as exc:
        print(f"error: input out of floating-point range: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
