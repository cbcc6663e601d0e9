"""Command-line surface: classify operators, emit/verify evidence, run suites.

Exit codes: 0 success, 2 input error, 3 precondition violation,
4 negative certification (no certificate / verification rejected).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

import opgeo
from opgeo import documents
from opgeo.algebra import Element, element_norm
from opgeo.classify import (
    Tolerances,
    construct_witness,
    element_min_singular_value,
    invertibility_certificate,
    is_extreme_point,
    is_partial_isometry_geometric,
    is_positive,
    is_projection,
    is_self_adjoint_lumer,
    is_self_adjoint_states,
    is_unitary_geometric,
    norm_one_gate,
    verify_certificate,
    verify_witness,
    recover_adjoint,
    Verdict,
)
from opgeo.errors import (
    LinalgError,
    MalformedCertificateError,
    PreconditionError,
    ShapeMismatchError,
)
from opgeo.harness import ALL_SUITES, DEFAULT_SHAPES, TrialConfig, run_suite
from opgeo.algebra import AlgebraShape

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_NEGATIVE = 4


def _parse_tolerances(pairs) -> Tolerances:
    values = Tolerances().as_dict()
    for item in pairs or []:
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
    return bool(getattr(args, "unit", False) or doc.get("unit_identified", False))


def _self_adjoint_verdict(x: Element, unit: Element, tol: Tolerances) -> Verdict:
    algebraic = element_norm(x - x.H) <= tol.classification
    lumer = is_self_adjoint_lumer(x, unit, tol=tol)
    states = is_self_adjoint_states(x, unit, tol=tol)
    return Verdict(
        "self_adjoint",
        algebraic,
        lumer and states,
        {"lumer": lumer, "states": states},
        tol.as_dict(),
    )


def _invertible_verdict(x: Element, tol: Tolerances) -> Verdict:
    cert = invertibility_certificate(x, tol=tol)
    sigma_min = cert.epsilon if cert is not None else element_min_singular_value(x)
    algebraic = sigma_min > tol.classification
    geometric = cert is not None and verify_certificate(x, cert, tol=tol)
    evidence = {"sigma_min": sigma_min}
    if cert is not None:
        evidence["certificate"] = cert
    return Verdict("invertible", algebraic, geometric, evidence, tol.as_dict())


def cmd_classify(args) -> int:
    x, doc, raw = documents.load_element(args.input)
    tol = args.tolerances
    rng = np.random.default_rng(0)
    _, off = norm_one_gate(x, tol=tol)

    verdicts = []
    if off is None:
        verdicts.append(
            documents.verdict_to_doc(is_partial_isometry_geometric(x, rng=rng, tol=tol))
        )
        verdicts.append(documents.verdict_to_doc(is_unitary_geometric(x, rng=rng, tol=tol)))
        verdicts.append(documents.verdict_to_doc(is_extreme_point(x, rng=rng, tol=tol)))
    else:
        for name in ("partial_isometry", "unitary", "extreme_point"):
            verdicts.append(documents.not_applicable_doc(name, off))
    verdicts.append(documents.verdict_to_doc(_invertible_verdict(x, tol)))

    if _unit_requested(args, doc):
        unit = Element.identity(x.shape)
        verdicts.append(documents.verdict_to_doc(_self_adjoint_verdict(x, unit, tol)))
        verdicts.append(documents.verdict_to_doc(is_positive(x, unit, rng=rng, tol=tol)))
        verdicts.append(documents.verdict_to_doc(is_projection(x, unit, rng=rng, tol=tol)))

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

    if args.predicate == "invertible":
        if args.verify:
            try:
                with open(args.verify, "rb") as fh:
                    cert_doc = json.loads(fh.read())
                cert = documents.certificate_from_doc(cert_doc)
            except (OSError, ValueError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_INPUT
            accepted = verify_certificate(x, cert, tol=tol)
            print(documents.dumps({"verified": accepted, "epsilon": cert.epsilon}))
            if not accepted:
                print("not verified: the certificate fails on this operator", file=sys.stderr)
            return EXIT_OK if accepted else EXIT_NEGATIVE
        cert = invertibility_certificate(x, tol=tol)
        if cert is None:
            print("no certificate: operator is numerically singular", file=sys.stderr)
            return EXIT_NEGATIVE
        print(documents.dumps(documents.certificate_to_doc(cert)))
        return EXIT_OK

    # partial-isometry: the witness refutes membership
    if args.verify:
        try:
            with open(args.verify, "rb") as fh:
                wdoc = json.loads(fh.read())
            w = documents.witness_from_doc(wdoc)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        verified, margin, deviation = verify_witness(x, w, tol=tol)
        print(documents.dumps({"verified": verified, "margin": margin, "deviation": deviation}))
        if not verified:
            print("not verified: the witness fails on this operator", file=sys.stderr)
        return EXIT_OK if verified else EXIT_NEGATIVE
    witness = construct_witness(x, tol=tol)
    if witness is None:
        print(
            "no witness: operator is a partial isometry at this resolution",
            file=sys.stderr,
        )
        return EXIT_NEGATIVE
    print(documents.dumps(documents.witness_to_doc(witness)))
    return EXIT_OK


def cmd_harness(args) -> int:
    try:
        suites = tuple(s.strip().upper() for s in args.suites.split(",") if s.strip())
        cfg = TrialConfig(
            seed=args.seed,
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
    unit = Element.identity(x.shape)
    star = recover_adjoint(x, unit, tol=args.tolerances)
    print(documents.dumps(documents.element_to_doc(star, label=doc.get("label"))))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument(
        "--predicate",
        required=True,
        choices=["invertible", "partial-isometry"],
    )
    p.add_argument("--verify", metavar="FILE", help="re-check an existing evidence file")
    add_tol(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("harness", help="run the seeded property suites")
    p.add_argument("--seed", type=int, default=int(os.environ.get("OPGEO_SEED", "0")))
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--suites", default=",".join(ALL_SUITES))
    p.add_argument(
        "--shapes",
        default=",".join(str(s) for s in DEFAULT_SHAPES),
        help="comma-separated, block dims joined by + (e.g. M2,M4,M2+M3)",
    )
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.add_argument("--timing", action="store_true", help="include wall times in JSON output")
    add_tol(p)
    p.set_defaults(func=cmd_harness)

    p = sub.add_parser("adjoint", help="recover the adjoint from norm data")
    p.add_argument("input", help="operator document path, or - for stdin")
    p.add_argument("--unit", action="store_true")
    add_tol(p)
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
