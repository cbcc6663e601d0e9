"""JSON wire formats for operators, witnesses, certificates, and reports.

Matrices travel as row-major lists of [re, im] pairs so that round-trips
are bit-exact (Python's float repr is shortest-round-trip decimal).
"""

from __future__ import annotations

import hashlib
import json
from itertools import chain

import numpy as np

from opgeo.algebra import AlgebraShape, Element
from opgeo.classify import (
    InvertibilityCertificate,
    PartialIsometryWitness,
    Verdict,
)


class DocumentError(ValueError):
    """The document does not parse into a valid object."""


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def _block_to_pairs(b: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in b.ravel()]


def _json_numbers(values) -> bool:
    """Every value decoded from a JSON number: an int or a float, never a bool."""
    return set(map(type, values)) <= {int, float}


def _pairs_to_block(pairs, n: int) -> np.ndarray:
    if len(pairs) != n * n:
        raise DocumentError(f"block for M{n} needs {n * n} entries, got {len(pairs)}")
    pairs_ok = all(type(p) is list and len(p) == 2 for p in pairs)
    if not (pairs_ok and _json_numbers(chain.from_iterable(pairs))):
        raise DocumentError("matrix entries must be [re, im] pairs of JSON numbers")
    # (re, im) float64 pairs are the memory layout of complex128: the view is bit-exact
    return np.array(pairs, dtype=np.float64).view(np.complex128).reshape(n, n)


def element_to_doc(x: Element, label: str | None = None, unit_identified: bool | None = None) -> dict:
    doc = {
        "shape": list(x.shape.block_dims),
        "blocks": [_block_to_pairs(b) for b in x.blocks],
    }
    if label is not None:
        doc["label"] = label
    if unit_identified is not None:
        doc["unit_identified"] = bool(unit_identified)
    return doc


def element_from_doc(doc) -> Element:
    """Decode strictly: `shape` holds JSON integers, each entry pair JSON
    numbers, and `unit_identified`, when present, is a JSON boolean."""
    if not isinstance(doc, dict):
        raise DocumentError("operator document must be a JSON object")
    dims, blocks_raw = doc.get("shape"), doc.get("blocks")
    if not (isinstance(dims, list) and all(type(d) is int for d in dims)):
        raise DocumentError("shape must be a list of JSON integers")
    if type(doc.get("unit_identified", False)) is not bool:
        raise DocumentError("unit_identified must be a JSON boolean")
    if not isinstance(blocks_raw, list) or len(blocks_raw) != len(dims):
        raise DocumentError("blocks must be a list matching shape")
    try:
        shape = AlgebraShape(tuple(dims))
        blocks = [_pairs_to_block(p, n) for p, n in zip(blocks_raw, dims)]
        return Element(shape, tuple(blocks))
    except (TypeError, ValueError, OverflowError) as exc:
        raise DocumentError(str(exc)) from exc


def decode_json(raw: bytes):
    """The JSON value of raw; malformed JSON or text encoding raises DocumentError."""
    try:
        return json.loads(raw)
    except ValueError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from exc


def load_element(path: str) -> tuple[Element, dict, bytes]:
    """Read an operator document; returns (element, document, raw bytes)."""
    if path == "-":
        import sys

        raw = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            raw = fh.read()
    doc = decode_json(raw)
    return element_from_doc(doc), doc, raw


#: the numeric fields of a witness document, each finite
_WITNESS_NUMBERS = ("b", "norm_plus", "norm_minus", "norm_at_b", "margin", "spectral_point")


def witness_to_doc(w: PartialIsometryWitness) -> dict:
    doc = {"type": "partial-isometry-witness", "y": element_to_doc(w.y)}
    return doc | {key: getattr(w, key) for key in _WITNESS_NUMBERS}


def witness_from_doc(doc) -> PartialIsometryWitness:
    try:
        numbers = {key: doc[key] for key in _WITNESS_NUMBERS}
        bad = [k for k, v in numbers.items() if not (_json_numbers([v]) and np.isfinite(float(v)))]
        if bad:
            raise DocumentError(f"{', '.join(bad)} must be finite JSON numbers")
        floats = {key: float(value) for key, value in numbers.items()}
        return PartialIsometryWitness(y=element_from_doc(doc["y"]), **floats)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DocumentError(f"malformed witness document: {exc}") from exc


def certificate_to_doc(cert: InvertibilityCertificate) -> dict:
    return {
        "type": "invertibility-certificate",
        "u": element_to_doc(cert.u),
        "epsilon": cert.epsilon,
    }


def certificate_from_doc(doc) -> InvertibilityCertificate:
    try:
        if not _json_numbers([doc["epsilon"]]):
            raise DocumentError("epsilon must be a JSON number")
        return InvertibilityCertificate(
            u=element_from_doc(doc["u"]), epsilon=float(doc["epsilon"])
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DocumentError(f"malformed certificate document: {exc}") from exc


def _jsonable_evidence(evidence: dict) -> dict:
    out = {}
    for key, val in evidence.items():
        if isinstance(val, PartialIsometryWitness):
            out[key] = witness_to_doc(val)
        elif isinstance(val, InvertibilityCertificate):
            out[key] = certificate_to_doc(val)
        elif isinstance(val, dict):
            out[key] = _jsonable_evidence(val)
        elif isinstance(val, (np.floating, float)):
            out[key] = float(val)
        elif isinstance(val, (np.integer, int)):
            out[key] = int(val)
        else:
            out[key] = val
    return out


def verdict_to_doc(v: Verdict) -> dict:
    return {
        "predicate": v.predicate,
        "status": "classified",
        "algebraic": v.algebraic,
        "geometric": v.geometric,
        "agreement": v.agreement,
        "evidence": _jsonable_evidence(v.evidence),
        "tolerances": v.tolerances,
    }


def not_applicable_doc(predicate: str, reason: str) -> dict:
    return {"predicate": predicate, "status": "not-applicable", "reason": reason}
