"""JSON wire formats for operators, witnesses, certificates, and reports.

Matrices travel as row-major lists of [re, im] pairs so that round-trips
are bit-exact (Python's float repr is shortest-round-trip decimal).

Every document is written exactly as `json.dumps(obj, sort_keys=True,
indent=2)` writes it, byte for byte.  The stdlib's C encoder runs only
without `indent`, so `dumps` walks the value itself, with one special case:
a matrix block, a non-empty list of [re, im] pairs of finite floats, is
written by one `%`-format of a template with a `%r` slot per float, and a
block list met twice in one call, as the witness shared by two verdicts of
a report, is formatted once.  Every other scalar is written as
the stdlib writes it: strings, finite floats, ints, true, false and null
directly, the rest by json.dumps.  A document nested too deep to decode raises
DocumentError, which the command line reports with exit code 2.

The kinds of checkable evidence, the partial-isometry witness and the
invertibility certificate, are one table, `evidence_kinds`: `certify` reads
its builder, verifier, codec and messages there, and `verdict_to_doc`
encodes the evidence objects of a verdict through it; `report_verdicts`
encodes an object that two verdicts of one report hold once.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from itertools import chain
from typing import Callable

import numpy as np

from opgeo.algebra import AlgebraShape, Element, Tolerances
from opgeo.classify import (
    InvertibilityCertificate,
    PartialIsometryWitness,
    Verdict,
    construct_witness,
    invertibility_certificate,
    verify_certificate,
    verify_witness,
)


class DocumentError(ValueError):
    """The document does not parse into a valid object."""


def _block_text(pairs, nl: str) -> str | None:
    """The text of a matrix block, a non-empty list of [re, im] pairs of
    finite floats, whose closing bracket follows nl; None for any other list."""
    if set(map(type, pairs)) != {list} or set(map(len, pairs)) != {2}:
        return None
    flat = tuple(chain.from_iterable(pairs))
    if set(map(type, flat)) != {float}:
        return None
    inner = nl + "  "
    entry = inner + "  "
    pair = "[" + entry + "%r," + entry + "%r" + inner + "]"
    text = ("[" + inner + ("," + inner).join([pair] * len(pairs)) + nl + "]") % flat
    # a template holds brackets, commas and whitespace, and a finite float's
    # repr digits, ".", "e" and signs: an "n" is the repr of nan or inf
    return None if "n" in text else text


#: the stdlib's escaping of a string, as json.dumps applies it to keys and values
_string_text = json.encoder.encode_basestring_ascii


def _leaf_text(value, nl: str, blocks: dict) -> str | None:
    """The text of a value that dumps does not walk into, or None for a
    container it walks: a non-empty dict, or a non-empty list that is no
    block.  A scalar's text is the stdlib's: the repr of a finite float or
    an int, the stdlib's escaping of a string, true, false and null, and
    json.dumps of any other.  blocks maps (id, nl) of each list already
    met in this call to its block text or None."""
    if type(value) is float and math.isfinite(value):
        return float.__repr__(value)
    if type(value) is str:
        return _string_text(value)
    if value is None:
        return "null"
    if type(value) is bool:
        return "true" if value else "false"
    if type(value) is int:
        return int.__repr__(value)
    if isinstance(value, (list, tuple)) and value:
        key = (id(value), nl)
        if key not in blocks:
            blocks[key] = _block_text(value, nl)
        return blocks[key]
    if isinstance(value, dict) and value:
        return None
    return json.dumps(value)


def _walk(value, nl: str) -> tuple:
    """A stack frame of dumps: (prefix, child) for each entry of a container
    walked, the newline plus indent of its entries, and its closing text.
    The first prefix opens the container."""
    inner = nl + "  "
    if isinstance(value, dict):
        keys = sorted(value)
        prefixes = ["," + inner + _string_text(key) + ": " for key in keys]
        prefixes[0] = "{" + prefixes[0][1:]
        return zip(prefixes, map(value.__getitem__, keys)), inner, nl + "}"
    prefixes = ["," + inner] * len(value)
    prefixes[0] = "[" + inner
    return zip(prefixes, value), inner, nl + "]"


def dumps(obj) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2)`, byte for byte, for an
    acyclic JSON value with str keys, nested to any depth: the walk keeps
    its own stack.  A list met again at the same indent reuses its text;
    obj holds every list it walks, so no id is reused during the call."""
    out = []
    blocks = {}
    stack = [(iter([("", obj)]), "\n", "")]
    while stack:
        entries, nl, close = stack[-1]
        for prefix, value in entries:
            text = _leaf_text(value, nl, blocks)
            if text is None:
                out.append(prefix)
                stack.append(_walk(value, nl))
                break
            out.append(prefix + text)
        else:
            out.append(close)
            stack.pop()
    return "".join(out)


def digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def _block_to_pairs(b: np.ndarray) -> list:
    # complex128 is (re, im) float64 pairs in memory: the row-major float view is bit-exact
    return b.ravel().view(np.float64).reshape(-1, 2).tolist()


def _json_numbers(values) -> bool:
    """Every value decoded from a JSON number: an int or a float, never a bool."""
    return set(map(type, values)) <= {int, float}


def _pairs_to_block(pairs, n: int) -> np.ndarray:
    if len(pairs) != n * n:
        raise DocumentError(f"block for M{n} needs {n * n} entries, got {len(pairs)}")
    pairs_ok = set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}
    if not (pairs_ok and _json_numbers(flat := list(chain.from_iterable(pairs)))):
        raise DocumentError("matrix entries must be [re, im] pairs of JSON numbers")
    # (re, im) float64 pairs are the memory layout of complex128: the view is bit-exact
    return np.array(flat, dtype=np.float64).view(np.complex128).reshape(n, n)


def element_to_doc(x: Element, label: str | None = None) -> dict:
    doc = {
        "shape": list(x.shape.block_dims),
        "blocks": [_block_to_pairs(b) for b in x.blocks],
    }
    if label is not None:
        doc["label"] = label
    return doc


def element_from_doc(doc) -> Element:
    """Decode strictly: `shape` holds JSON integers, each entry pair JSON
    numbers, `unit_identified`, when present, is a JSON boolean, and
    `label`, when present, a JSON string (the commands echo it)."""
    if not isinstance(doc, dict):
        raise DocumentError("operator document must be a JSON object")
    dims, blocks_raw = doc.get("shape"), doc.get("blocks")
    if not (isinstance(dims, list) and all(type(d) is int for d in dims)):
        raise DocumentError("shape must be a list of JSON integers")
    if type(doc.get("unit_identified", False)) is not bool:
        raise DocumentError("unit_identified must be a JSON boolean")
    if type(doc.get("label", "")) is not str:
        raise DocumentError("label must be a JSON string")
    if not isinstance(blocks_raw, list) or len(blocks_raw) != len(dims):
        raise DocumentError("blocks must be a list matching shape")
    try:
        shape = AlgebraShape(tuple(dims))
        blocks = [_pairs_to_block(p, n) for p, n in zip(blocks_raw, dims)]
        return Element(shape, tuple(blocks))
    except (TypeError, ValueError, OverflowError) as exc:
        raise DocumentError(str(exc)) from exc


def decode_json(raw: bytes):
    """The JSON value of raw; malformed JSON, text encoding or nesting too
    deep for the decoder raises DocumentError."""
    try:
        return json.loads(raw)
    except (ValueError, RecursionError) as exc:
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
    """A missing or malformed field raises KeyError, TypeError or ValueError
    (DocumentError among them); `EvidenceKind.read` reports each as one
    DocumentError, as for `certificate_from_doc`."""
    numbers = {key: doc[key] for key in _WITNESS_NUMBERS}
    bad = [k for k, v in numbers.items() if not (_json_numbers([v]) and np.isfinite(float(v)))]
    if bad:
        raise DocumentError(f"{', '.join(bad)} must be finite JSON numbers")
    floats = {key: float(value) for key, value in numbers.items()}
    return PartialIsometryWitness(y=element_from_doc(doc["y"]), **floats)


def certificate_to_doc(cert: InvertibilityCertificate) -> dict:
    return {
        "type": "invertibility-certificate",
        "u": element_to_doc(cert.u),
        "epsilon": cert.epsilon,
    }


def certificate_from_doc(doc) -> InvertibilityCertificate:
    if not _json_numbers([doc["epsilon"]]):
        raise DocumentError("epsilon must be a JSON number")
    return InvertibilityCertificate(u=element_from_doc(doc["u"]), epsilon=float(doc["epsilon"]))


def _witness_report(x: Element, w: PartialIsometryWitness, *, tol: Tolerances) -> dict:
    verified, margin, deviation = verify_witness(x, w, tol=tol)
    return {"verified": verified, "margin": margin, "deviation": deviation}


def _certificate_report(x: Element, cert: InvertibilityCertificate, *, tol: Tolerances) -> dict:
    return {"verified": verify_certificate(x, cert, tol=tol), "epsilon": cert.epsilon}


@dataclass(frozen=True)
class EvidenceKind:
    """One kind of checkable evidence: `build(x, tol=)` emits it or returns
    None (then `refusal` is the stderr line), `verify(x, evidence, tol=)`
    re-checks it and returns the report `certify --verify` prints, and
    `to_doc` / `from_doc` are its document codec."""

    type: type
    noun: str
    refusal: str
    build: Callable
    verify: Callable
    to_doc: Callable
    from_doc: Callable

    def read(self, raw: bytes):
        """The evidence in the document raw; a malformed one raises
        DocumentError naming the noun."""
        doc = decode_json(raw)
        try:
            return self.from_doc(doc)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DocumentError(f"malformed {self.noun} document: {exc}") from exc


def evidence_kinds() -> dict[str, EvidenceKind]:
    """The evidence kinds, keyed by the `certify --predicate` name.  Built
    per call from this module's current bindings, which the benchmark's
    tracer rebinds; a command builds it once."""
    return {
        "invertible": EvidenceKind(
            InvertibilityCertificate, "certificate", "no certificate: operator is numerically singular",
            invertibility_certificate, _certificate_report, certificate_to_doc, certificate_from_doc,
        ),
        "partial-isometry": EvidenceKind(
            PartialIsometryWitness, "witness", "no witness: operator is a partial isometry at this resolution",
            construct_witness, _witness_report, witness_to_doc, witness_from_doc,
        ),
    }


def _jsonable_evidence(evidence: dict, encoders: dict) -> dict:
    """evidence as a JSON value: nested dicts walked, each witness or
    certificate replaced by the document of `encoders[type]`; every other
    value is a Python scalar already."""
    out = {}
    for key, val in evidence.items():
        if isinstance(val, dict):
            val = _jsonable_evidence(val, encoders)
        elif type(val) in encoders:
            val = encoders[type(val)](val)
        out[key] = val
    return out


def verdict_to_doc(v: Verdict, kinds: dict[str, EvidenceKind] | None = None) -> dict:
    """The document of v; kinds, the table of `evidence_kinds`, is built
    here unless the caller, encoding many verdicts, passes it."""
    encoders = {kind.type: kind.to_doc for kind in (kinds or evidence_kinds()).values()}
    return {
        "predicate": v.predicate,
        "status": "classified",
        "algebraic": v.algebraic,
        "geometric": v.geometric,
        "agreement": v.agreement,
        "evidence": _jsonable_evidence(v.evidence, encoders),
        "tolerances": v.tolerances,
    }


def not_applicable_doc(predicate: str, reason: str) -> dict:
    return {"predicate": predicate, "status": "not-applicable", "reason": reason}


def report_verdicts(verdicts: dict) -> list[dict]:
    """The verdict list of a classify report from classify_all's verdicts,
    each a Verdict or the reason it does not apply.  An evidence object two
    verdicts hold, as the witness of partial_isometry and extreme_point, is
    encoded once: both documents hold one dict, which dumps writes once."""
    memo = {}

    def once(to_doc):
        def encode(obj):
            # the memo holds obj, so its id is not reused during the report
            if id(obj) not in memo:
                memo[id(obj)] = (obj, to_doc(obj))
            return memo[id(obj)][1]

        return encode

    kinds = {name: replace(kind, to_doc=once(kind.to_doc)) for name, kind in evidence_kinds().items()}
    return [
        not_applicable_doc(name, v) if isinstance(v, str) else verdict_to_doc(v, kinds)
        for name, v in verdicts.items()
    ]
