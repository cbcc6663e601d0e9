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
    verify_certificate,
    recover_adjoint,
    Verdict,
)
from opgeo.errors import (
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
            raise ValueError(f"unknown tolerance {name!r}; choose from {sorted(values)}")
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


def _load(path: str):
    return documents.load_element(path)


def _unit_requested(args, doc) -> bool:
    return bool(getattr(args, "unit", False) or doc.get("unit_identified", False))


def _self_adjoint_verdict(x: Element, unit: Element, tol: Tolerances) -> Verdict:
    algebraic = element_norm(x - x.H) <= tol.classification
    lumer = is_self_adjoint_lumer(x, unit)
    states = is_self_adjoint_states(x, unit, tol=tol.equality)
    return Verdict(
        "self_adjoint",
        algebraic,
        lumer and states,
        {"lumer": lumer, "states": states},
        tol.as_dict(),
    )


def _invertible_verdict(x: Element, tol: Tolerances) -> Verdict:
    sigma_min = element_min_singular_value(x)
    algebraic = sigma_min > tol.classification
    cert = invertibility_certificate(x, threshold=tol.classification)
    geometric = cert is not None and verify_certificate(x, cert, tol=tol.equality)
    evidence = {"sigma_min": sigma_min}
    if cert is not None:
        evidence["certificate"] = cert
    return Verdict("invertible", algebraic, geometric, evidence, tol.as_dict())


def cmd_classify(args) -> int:
    try:
        x, doc, raw = _load(args.input)
    except documents.DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    tol = args.tolerances
    rng = np.random.default_rng(0)
    nrm = element_norm(x)
    if nrm <= 1e-12:
        print("error: the zero element has no norm-one classification", file=sys.stderr)
        return EXIT_PRECONDITION

    verdicts = []
    norm_one = abs(nrm - 1.0) <= tol.classification
    if norm_one:
        verdicts.append(
            documents.verdict_to_doc(is_partial_isometry_geometric(x, rng=rng))
        )
        verdicts.append(documents.verdict_to_doc(is_unitary_geometric(x, tol.classification, rng=rng)))
        verdicts.append(documents.verdict_to_doc(is_extreme_point(x, rng=rng)))
    else:
        reason = f"requires norm 1, got {nrm!r}"
        for name in ("partial_isometry", "unitary", "extreme_point"):
            verdicts.append(documents.not_applicable_doc(name, reason))
    verdicts.append(documents.verdict_to_doc(_invertible_verdict(x, tol)))

    if _unit_requested(args, doc):
        unit = Element.identity(x.shape)
        verdicts.append(documents.verdict_to_doc(_self_adjoint_verdict(x, unit, tol)))
        verdicts.append(documents.verdict_to_doc(is_positive(x, unit, rng=rng)))
        verdicts.append(documents.verdict_to_doc(is_projection(x, unit, rng=rng)))

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
    try:
        x, doc, raw = _load(args.input)
    except documents.DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
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
            accepted = verify_certificate(x, cert, tol=tol.equality)
            print(documents.dumps({"verified": accepted, "epsilon": cert.epsilon}))
            return EXIT_OK if accepted else EXIT_NEGATIVE
        cert = invertibility_certificate(x, threshold=tol.classification)
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
        dev = max(
            abs(element_norm(x + w.y) - 1.0),
            abs(element_norm(x - w.y) - 1.0),
        )
        margin = element_norm(x + w.b * w.y) - 1.0
        accepted = dev <= tol.equality and margin > 0.0
        print(documents.dumps({"verified": accepted, "margin": margin, "deviation": dev}))
        return EXIT_OK if accepted else EXIT_NEGATIVE
    witness = construct_witness(x, eq_tol=tol.equality)
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
    try:
        x, doc, raw = _load(args.input)
    except documents.DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if not _unit_requested(args, doc):
        print("error: adjoint recovery requires an identified unit (--unit)", file=sys.stderr)
        return EXIT_PRECONDITION
    unit = Element.identity(x.shape)
    star = recover_adjoint(x, unit)
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
            help="override a tolerance (decomposition, equality, classification)",
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
    line: a violated precondition exits 3, mismatched or malformed input 2."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.tolerances = _parse_tolerances(getattr(args, "tol", None))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except PreconditionError as exc:  # includes DegenerateInputError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ShapeMismatchError, MalformedCertificateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
