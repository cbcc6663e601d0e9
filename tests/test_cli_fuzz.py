"""Property test of the CLI boundary.

`cli.main` runs in-process on malformed operator, witness and certificate
documents and on arbitrary `--tol` strings.  Every run must exit 0, 2, 3 or
4 without a traceback, and a nonzero exit must explain itself in exactly one
stderr line.  Block dims stay <= 4 and the examples are derandomized, so the
test is deterministic and quick.

Not covered: `harness --shapes M<huge>`, which still ends in an allocation
error.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import diag_element
from opgeo import documents
from opgeo.classify import construct_witness, invertibility_certificate
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


@st.composite
def witnesses(draw):
    base = documents.witness_to_doc(construct_witness(diag_element([1.0, 0.5])))
    number_fields = {key: numbers for key in base if key not in ("type", "y")}
    return _mutated(draw, base, {**number_fields, "y": operators()})


@st.composite
def certificates(draw):
    base = documents.certificate_to_doc(invertibility_certificate(diag_element([2.0, 1.0])))
    return _mutated(draw, base, {"epsilon": numbers, "u": operators()})


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


@FUZZ
@given(doc=st.one_of(witnesses(), st.binary(max_size=16)))
def test_witness_documents(workdir, doc):
    x = _write(workdir / "half.json", documents.element_to_doc(diag_element([1.0, 0.5])))
    w = _write(workdir / "w.json", doc)
    assert_clean_exit(["certify", x, "--predicate", "partial-isometry", "--verify", w])


@FUZZ
@given(doc=st.one_of(certificates(), st.binary(max_size=16)))
def test_certificate_documents(workdir, doc):
    x = _write(workdir / "two.json", documents.element_to_doc(diag_element([2.0, 1.0])))
    c = _write(workdir / "c.json", doc)
    assert_clean_exit(["certify", x, "--predicate", "invertible", "--verify", c])


@FUZZ
@given(tol=tol_strings, command=st.sampled_from(COMMANDS))
def test_tolerance_strings(workdir, tol, command):
    x = _write(workdir / "id.json", documents.element_to_doc(diag_element([1.0, 1.0])))
    assert_clean_exit([command[0], x, *command[1:], *_tol_args(tol)])
