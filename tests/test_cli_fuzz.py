"""Property test of the CLI boundary.

`cli.main` runs in-process on malformed operator documents, on malformed
documents of every evidence kind of `documents.evidence_kinds`, on
arbitrary `--tol` strings, and on junk harness shapes and `OPGEO_SEED`
values.  Every run must exit 0, 2, 3 or 4 without a traceback, and a
nonzero exit must explain itself in exactly one stderr line.  Block dims of
operators stay <= 4, harness runs take one T4 trial with blocks of at most
`MAX_BLOCK_DIM`, and the examples are derandomized, so the test is
deterministic and quick.
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import diag_element
from opgeo import documents
from opgeo.cli import main

FUZZ = settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: entries of a well-formed operator, including the extremes of the float range
reals = st.one_of(
    st.floats(-1.0, 1.0),
    st.sampled_from([0.0, 1.0, -1.0, 1e-320, 1e154, -1e200, 1e308]),
)
#: numbers a JSON document can hold but an operator cannot
numbers = st.one_of(
    reals,
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(10**400), 10**400),
)
junk = st.recursive(
    st.one_of(st.none(), st.booleans(), numbers, st.text(max_size=6)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=6), inner, max_size=3)
    ),
    max_leaves=6,
)
tol_strings = st.one_of(
    st.text(max_size=12),
    st.builds(
        "{}={}".format,
        st.sampled_from(["equality", "classification", "decomposition", ""]),
        st.one_of(
            st.text(max_size=6),
            st.floats().map(repr),
            st.sampled_from(["1e-3", "0.5", "1e400", "-0", "nan", "1_0"]),
        ),
    ),
)


@st.composite
def operators(draw):
    """A well-formed operator document, optionally of norm one, with at most
    one malformed part."""
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    blocks = [np.array([complex(draw(reals), draw(reals)) for _ in range(n * n)]) for n in dims]
    if draw(st.booleans()):
        top = max(np.linalg.norm(b.reshape(n, n), 2) for b, n in zip(blocks, dims))
        if 1e-12 < top < np.inf:
            blocks = [b / top for b in blocks]
    doc = {"shape": dims, "blocks": [[[z.real, z.imag] for z in b] for b in blocks]}
    where = draw(st.sampled_from(["none", "none", "shape", "blocks", "entry", "number", "unit", "drop"]))
    block = doc["blocks"][draw(st.integers(0, len(dims) - 1))]
    pair = block[draw(st.integers(0, len(block) - 1))]
    if where == "shape":
        doc["shape"] = draw(junk)
    elif where == "blocks":
        doc["blocks"] = draw(junk)
    elif where == "entry":
        block[block.index(pair)] = draw(junk)
    elif where == "number":
        pair[draw(st.integers(0, 1))] = draw(numbers)
    elif where == "unit":
        doc["unit_identified"] = draw(junk)
    elif where == "drop":
        del doc[draw(st.sampled_from(["shape", "blocks"]))]
    return doc


def _mutated(draw, base: dict, parts: dict):
    """base with one field replaced from its strategy in parts, or deleted,
    or the whole document replaced by junk."""
    doc = dict(base)
    key = draw(st.sampled_from(sorted(parts) + ["drop", "whole"]))
    if key == "whole":
        return draw(junk)
    if key == "drop":
        del doc[draw(st.sampled_from(sorted(base)))]
        return doc
    doc[key] = draw(parts[key])
    return doc


#: one operator serves every evidence kind: diag(1, 0.5) has norm 1, a
#: refuting witness and an invertibility certificate
EVIDENCE_X = diag_element([1.0, 0.5])


@st.composite
def evidence_documents(draw, kind: documents.EvidenceKind):
    """A document of kind built on EVIDENCE_X, with each numeric field drawn
    from numbers and the element field (the one that is a dict) from
    operators, or one field dropped, or the whole document junk."""
    base = kind.to_doc(kind.build(EVIDENCE_X))
    parts = {
        key: operators() if isinstance(value, dict) else numbers
        for key, value in base.items()
        if key != "type"
    }
    return _mutated(draw, base, parts)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _write(path, doc) -> str:
    path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    return str(path)


def _tol_args(tol: str | None) -> list:
    return [] if tol is None else [f"--tol={tol}"]


def assert_clean_exit(argv: list) -> None:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    if code:
        assert err.getvalue().endswith("\n") and err.getvalue().count("\n") == 1
    assert "Traceback" not in out.getvalue() + err.getvalue()


COMMANDS = [
    ["classify"],
    ["classify", "--unit"],
    ["certify", "--predicate", "invertible"],
    ["certify", "--predicate", "partial-isometry"],
    ["adjoint"],
    ["adjoint", "--unit"],
]


@FUZZ
@given(
    doc=st.one_of(operators(), junk, st.binary(max_size=16)),
    command=st.sampled_from(COMMANDS),
    tol=st.none() | tol_strings,
)
def test_operator_documents(workdir, doc, command, tol):
    path = _write(workdir / "x.json", doc)
    assert_clean_exit([command[0], path, *command[1:], *_tol_args(tol)])


@pytest.mark.parametrize("predicate", list(documents.evidence_kinds()))
@FUZZ
@given(data=st.data())
def test_evidence_documents(workdir, predicate, data):
    kind = documents.evidence_kinds()[predicate]
    doc = data.draw(st.one_of(evidence_documents(kind), st.binary(max_size=16)))
    x = _write(workdir / "half.json", documents.element_to_doc(EVIDENCE_X))
    e = _write(workdir / "e.json", doc)
    assert_clean_exit(["certify", x, "--predicate", predicate, "--verify", e])


@FUZZ
@given(tol=tol_strings, command=st.sampled_from(COMMANDS))
def test_tolerance_strings(workdir, tol, command):
    x = _write(workdir / "id.json", documents.element_to_doc(diag_element([1.0, 1.0])))
    assert_clean_exit([command[0], x, *command[1:], *_tol_args(tol)])


#: harness shapes: near-miss tokens from the shape grammar, and any text
shape_strings = st.one_of(
    st.text(max_size=12),
    st.lists(
        st.builds(
            "{}{}".format,
            st.sampled_from(["M", "m", "", "M-", "+", "MM"]),
            st.one_of(st.integers(-2, 80).map(str), st.sampled_from(["10" * 12, "1_0", "", "x", "2.5"])),
        ),
        min_size=1,
        max_size=3,
    ).map(",".join),
)
#: environment values: text without the NUL and surrogates an environment cannot hold
env_strings = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=8),
    st.integers(-(10**30), 10**30).map(str),
)


@FUZZ
@given(shapes=shape_strings, seed=st.none() | env_strings)
def test_harness_shapes_and_environment_seed(shapes, seed):
    with mock.patch.dict(os.environ):
        os.environ.pop("OPGEO_SEED", None)
        if seed is not None:
            os.environ["OPGEO_SEED"] = seed
        assert_clean_exit(["harness", "--trials", "1", "--suites", "T4", f"--shapes={shapes}"])
