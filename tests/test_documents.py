"""The document writer and the block conversions.

`documents.dumps` must write exactly what `json.dumps(obj, sort_keys=True,
indent=2)` writes, byte for byte, on any JSON value and on every document
the command line prints.  Blocks must round-trip bit-exactly through
`element_to_doc` and `element_from_doc`, and the decoder must reject
malformed entries with the same exit code and message as before.
"""

import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import opgeo
from opgeo import documents
from opgeo.algebra import AlgebraShape, Element
from opgeo.cli import main
from opgeo.generators import gen_norm_one_non_pi, gen_partial_isometry, gen_unitary


def stdlib_text(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# byte identity on JSON values

#: floats of every kind, with the extremes named
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 5e-324, -5e-324, 1e308, -1e308, math.nan, math.inf, -math.inf]),
)
finite_floats = st.floats(allow_nan=False, allow_infinity=False)
scalars = st.one_of(st.none(), st.booleans(), st.integers(), floats, st.text())
#: lists that are matrix blocks and lists that nearly are
pair_lists = st.one_of(
    st.lists(st.lists(finite_floats, min_size=2, max_size=2), min_size=1, max_size=6),
    st.lists(st.lists(st.one_of(floats, st.integers(), st.booleans()), min_size=2, max_size=2), max_size=4),
    st.lists(st.lists(finite_floats, max_size=3), max_size=4),
    st.just([[]]),
)
json_values = st.recursive(
    st.one_of(scalars, pair_lists),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(json_values)
def test_dumps_is_the_stdlib_text(value):
    assert documents.dumps(value) == stdlib_text(value)


@pytest.mark.parametrize(
    "value",
    [
        [[]],
        [],
        {},
        [[1.0, 2.0], [3.0]],
        [[1, 2.0]],
        [[1.0, True]],
        [[1.0, None]],
        [[-0.0, 5e-324], [1e308, -1e308], [1e-310, 1e300]],
        [[math.nan, 0.0]],
        [[0.0, -math.inf]],
        {"a": [[1.0, 2.0]], "b": [[[1.0, 2.0]]], "c": [[1.0, 2.0], [[1.0, 2.0]]]},
        {"é\x00\n ": ["\x1f", "\U0001f600", "\ud800", '"\\/'], "": {"": []}},
        [True, False, None, 0, -1, 10**30, 1.5, "x"],
        [True, False, None, 0, -5, 2**70, 1.0],
        {"t": True, "f": False, "n": None, "zero": 0, "neg": -5, "big": 2**70, "one": 1.0},
        {"a": [True, {"b": None, "c": [0, -5]}], "d": {"e": 2**70, "f": [1.0, False]}, "g": [[1, 0], [True, None]]},
        [(1.0, 2.0)],
        ([1.0, 2.0],),
        "x",
        math.nan,
        None,
    ],
)
def test_dumps_edge_values(value):
    assert documents.dumps(value) == stdlib_text(value)


# ---------------------------------------------------------------------------
# byte identity on values that reuse sub-objects: dumps keeps the text of a
# block list for the length of one call, keyed by the list's id and indent

#: the objects one value reuses: blocks, near-blocks, dicts holding them and
#: lists of scalars
shared_objects = st.one_of(
    pair_lists,
    st.dictionaries(st.text(max_size=3), pair_lists, min_size=1, max_size=3),
    st.lists(st.one_of(scalars, pair_lists), min_size=1, max_size=3),
)


@st.composite
def aliased_values(draw):
    """A value whose leaves are drawn, as the same objects, from a pool of
    one to three; the first of them is also at two keys of the top level
    and at depth three."""
    pool = draw(st.lists(shared_objects, min_size=1, max_size=3))

    def nest(inner):
        return st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3))

    tree = draw(st.recursive(st.sampled_from(pool), nest, max_leaves=12))
    return {"a": pool[0], "b": pool[0], "c": [{"d": pool[0]}, tree]}


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(aliased_values())
def test_dumps_is_the_stdlib_text_on_shared_objects(value):
    assert documents.dumps(value) == stdlib_text(value)


_SHARED_BLOCK = [[1.0, -2.5], [0.125, 3.0]]
_SHARED_DICT = {"y": _SHARED_BLOCK, "b": 0.5}
_SHARED_LIST = [1.0, [2.0, 3.0], "x"]
_SPECIAL_BLOCK = [[-0.0, 5e-324], [1e16, -1e16], [-5e-324, 0.0]]
_NAN_BLOCK = [[math.nan, 1.0], [2.0, 3.0]]


@pytest.mark.parametrize(
    "value",
    [
        {"a": _SHARED_BLOCK, "b": {"c": {"d": _SHARED_BLOCK}}},
        {"a": _SHARED_BLOCK, "b": _SHARED_BLOCK, "c": [_SHARED_BLOCK, [_SHARED_BLOCK]]},
        {"p": _SHARED_DICT, "q": [_SHARED_DICT], "r": {"s": _SHARED_DICT}},
        {"a": _SHARED_LIST, "b": _SHARED_LIST, "c": [_SHARED_LIST]},
        {"a": _SPECIAL_BLOCK, "b": {"c": {"d": _SPECIAL_BLOCK}}, "e": _SPECIAL_BLOCK},
        {"a": _NAN_BLOCK, "b": [_NAN_BLOCK], "c": _NAN_BLOCK},
        [_SHARED_BLOCK, _SHARED_BLOCK],
    ],
    ids=[
        "indents-2-and-6", "one-depth-and-two", "dict-holding-a-block", "non-block-list", "special-floats", "nan",
        "top-level-list",
    ],
)
def test_dumps_shared_objects(value):
    assert documents.dumps(value) == stdlib_text(value)


def test_blocks_of_100_sizes():
    # each block is one %-format of a template with a slot per float
    for count in range(1, 101):
        block = [[float(k) / 7.0, -float(count)] for k in range(count)]
        assert documents.dumps({"b": block}) == stdlib_text({"b": block})


# ---------------------------------------------------------------------------
# byte identity on every document the command line prints


@pytest.mark.parametrize(
    "dims", [(2,), (2, 3), (32,), (64,), (16, 16)], ids=["M2", "M2+M3", "M32", "M64", "M16+M16"]
)
def test_every_document_kind_is_the_stdlib_text(tmp_path, monkeypatch, dims):
    x = gen_norm_one_non_pi(AlgebraShape(dims), np.random.default_rng(sum(dims)))
    xpath = tmp_path / "x.json"
    xpath.write_text(json.dumps(documents.element_to_doc(x, label="x")))
    written = []
    writer = documents.dumps
    monkeypatch.setattr(documents, "dumps", lambda obj: written.append(obj) or writer(obj))

    def printed(*argv, emits=None):
        code, out, err = run_cli(*argv)
        assert (code, err) == (0, "")
        assert out == writer(written[-1]) + "\n" == stdlib_text(written[-1]) + "\n"
        if emits is not None:
            (tmp_path / emits).write_text(out)
        return out

    report = printed("classify", str(xpath), "--unit")
    assert '"type": "partial-isometry-witness"' in report
    assert '"type": "invertibility-certificate"' in report
    # partial_isometry and extreme_point hold one witness, written once and printed twice
    evidence = {v["predicate"]: v["evidence"] for v in json.loads(report)["verdicts"]}
    assert evidence["partial_isometry"]["witness"] == evidence["extreme_point"]["witness"]
    for predicate, evidence in (("partial-isometry", "w.json"), ("invertible", "c.json")):
        printed("certify", str(xpath), "--predicate", predicate, emits=evidence)
        verified = printed("certify", str(xpath), "--predicate", predicate, "--verify", str(tmp_path / evidence))
        assert json.loads(verified)["verified"] is True
    star = documents.element_from_doc(json.loads(printed("adjoint", str(xpath), "--unit")))
    assert star.shape == x.shape
    assert len(written) == 6


def _blocks_formatted(monkeypatch) -> list:
    """Record the length, in pairs, of each block `dumps` formats."""
    formatted = []
    block_text = documents._block_text

    def counted(pairs, nl):
        text = block_text(pairs, nl)
        if text is not None:
            formatted.append(len(pairs))
        return text

    monkeypatch.setattr(documents, "_block_text", counted)
    return formatted


_DRAWS = {
    "nonpi": gen_norm_one_non_pi,
    "pi": lambda shape, rng: gen_partial_isometry(shape, tuple(n // 2 for n in shape.block_dims), rng),
    "unitary": gen_unitary,
}


# Budget history: each classify report wrote the witness y twice, once in
# the partial_isometry verdict and once in extreme_point, which hold one
# witness object (3 blocks formatted at M6, 6 at M2+M3).  The verdicts of a
# report now share one encoder memo and dumps formats a block list once per
# call: y and the certificate's u once each.
@pytest.mark.parametrize(
    ("cls", "dims", "budget"),
    [("nonpi", (6,), 2), ("nonpi", (2, 3), 4), ("pi", (6,), 0), ("unitary", (6,), 1)],
    ids=["nonpi-M6", "nonpi-M2+M3", "pi-M6", "unitary-M6"],
)
def test_classify_formats_each_block_once(tmp_path, monkeypatch, cls, dims, budget):
    x = _DRAWS[cls](AlgebraShape(dims), np.random.default_rng(3))
    xpath = tmp_path / "x.json"
    xpath.write_text(json.dumps(documents.element_to_doc(x)))
    formatted = _blocks_formatted(monkeypatch)
    code, out, err = run_cli("classify", str(xpath), "--unit")
    assert (code, err) == (0, "")
    assert out == stdlib_text(json.loads(out)) + "\n"
    assert len(formatted) == budget


@pytest.mark.parametrize("predicate", ["partial-isometry", "invertible"])
def test_certify_emit_formats_one_block(tmp_path, monkeypatch, predicate):
    x = gen_norm_one_non_pi(AlgebraShape((6,)), np.random.default_rng(3))
    xpath = tmp_path / "x.json"
    xpath.write_text(json.dumps(documents.element_to_doc(x)))
    formatted = _blocks_formatted(monkeypatch)
    code, out, err = run_cli("certify", str(xpath), "--predicate", predicate)
    assert (code, err) == (0, "")
    assert formatted == [36]


def test_label_nested_950_deep(tmp_path):
    # a label must be a JSON string: echoed, this 1.9 kB document printed a
    # 1.8 MB report, quadratic in the depth
    depth = 950
    path = tmp_path / "deep.json"
    label = "[" * depth + '"x"' + "]" * depth
    path.write_text('{"shape": [1], "blocks": [[[1.0, 0.0]]], "label": ' + label + "}")
    paths = [str(Path(opgeo.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    for command in ("classify", "adjoint"):
        report = subprocess.run(
            [sys.executable, "-m", "opgeo.cli", command, str(path), "--unit"], capture_output=True, env=env
        )
        assert (report.returncode, report.stdout) == (2, b"")
        assert report.stderr == b"error: label must be a JSON string\n"
    # the walk writes what the stdlib's encoder writes at this depth, without
    # recursing; a fresh interpreter's stack holds both decodes
    ours = subprocess.run(
        [sys.executable, "-c", "import sys; from opgeo import documents; "
         "print(documents.dumps(documents.decode_json(sys.stdin.buffer.read())))"],
        input=path.read_bytes(),
        capture_output=True,
        env=env,
    )
    reference = subprocess.run(
        [sys.executable, "-c", "import json, sys; print(json.dumps(json.load(sys.stdin), sort_keys=True, indent=2))"],
        input=path.read_bytes(),
        capture_output=True,
    )
    assert ours.returncode == reference.returncode == 0
    assert ours.stdout == reference.stdout
    assert ours.stdout.count(b"[") >= depth


# ---------------------------------------------------------------------------
# block conversions


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.float64).view(np.uint64)


def _special_block(n: int) -> np.ndarray:
    rng = np.random.default_rng(n)
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b.flat[:4] = [complex(-0.0, 5e-324), complex(1e300, -0.0), complex(-1e-310, 1e-300), complex(0.0, -1e300)]
    return b


@pytest.mark.parametrize(
    "layout",
    [np.ascontiguousarray, np.asfortranarray, lambda b: np.repeat(np.repeat(b, 2, 0), 2, 1)[::2, ::2]],
    ids=["C", "F", "strided"],
)
def test_blocks_round_trip_bit_exactly(layout):
    blocks = [layout(_special_block(n)) for n in (2, 5)]
    x = Element.from_blocks(blocks)
    doc = documents.element_to_doc(x)
    # the pairs the per-entry conversion wrote, float for float and sign for sign
    per_entry = [[[float(z.real), float(z.imag)] for z in b.ravel()] for b in x.blocks]
    assert repr(doc["blocks"]) == repr(per_entry)
    assert repr([documents._block_to_pairs(b) for b in blocks]) == repr(per_entry)
    back = documents.element_from_doc(json.loads(documents.dumps(doc)))
    for a, b in zip(blocks, back.blocks):
        assert np.array_equal(_bits(a), _bits(b))


@pytest.mark.parametrize(
    ("entry", "message"),
    [
        ("[1.0]", "matrix entries must be [re, im] pairs of JSON numbers"),
        ("[1.0, 0.0, 0.0]", "matrix entries must be [re, im] pairs of JSON numbers"),
        ("[[1.0, 0.0], 0.0]", "matrix entries must be [re, im] pairs of JSON numbers"),
        ("[true, 0.0]", "matrix entries must be [re, im] pairs of JSON numbers"),
        ('["1.0", 0.0]', "matrix entries must be [re, im] pairs of JSON numbers"),
        ("[1" + "0" * 400 + ", 0.0]", "int too large to convert to float"),
        ("[1e400, 0.0]", "matrix has non-finite entries"),
    ],
    ids=["length-1", "length-3", "nested", "true", "string", "int-10^400", "1e400"],
)
def test_decoder_rejections_keep_their_messages(tmp_path, entry, message):
    path = tmp_path / "x.json"
    path.write_text('{"shape": [1], "blocks": [[' + entry + "]]}")
    assert run_cli("classify", str(path)) == (2, "", f"error: {message}\n")
