import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from conftest import diag_element
from opgeo import cli, documents
from opgeo.algebra import AlgebraShape, Element, element_norm
from opgeo.classify import DEFAULT_TOLERANCES, construct_witness, is_positive, is_projection, recover_adjoint
from opgeo.cli import main
from opgeo.generators import gen_invertible, gen_norm_one_non_pi
from opgeo.harness import MAX_BLOCK_DIM


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def identity3(tmp_path):
    return write_doc(
        tmp_path, "id3.json", documents.element_to_doc(Element.identity(AlgebraShape((3,))))
    )


@pytest.fixture
def diag_half(tmp_path):
    return write_doc(
        tmp_path, "half.json", documents.element_to_doc(diag_element([1.0, 0.5]))
    )


class TestClassify:
    def test_identity_all_predicates_true(self, identity3):
        code, out, _ = run_cli("classify", identity3, "--unit")
        assert code == 0
        report = json.loads(out)
        verdicts = {v["predicate"]: v for v in report["verdicts"]}
        assert set(verdicts) == {
            "partial_isometry", "unitary", "extreme_point", "invertible",
            "self_adjoint", "positive", "projection",
        }
        for v in verdicts.values():
            assert v["status"] == "classified"
            assert v["algebraic"] is True
            assert v["geometric"] is True
            assert v["agreement"] is True

    def test_unit_predicates_omitted_without_flag(self, identity3):
        code, out, _ = run_cli("classify", identity3)
        assert code == 0
        names = {v["predicate"] for v in json.loads(out)["verdicts"]}
        assert "self_adjoint" not in names
        assert "invertible" in names

    def test_norm_not_one_marks_not_applicable(self, tmp_path):
        path = write_doc(
            tmp_path, "big.json", documents.element_to_doc(diag_element([2.0, 1.0]))
        )
        code, out, _ = run_cli("classify", path)
        assert code == 0
        verdicts = {v["predicate"]: v for v in json.loads(out)["verdicts"]}
        assert verdicts["partial_isometry"]["status"] == "not-applicable"
        assert verdicts["unitary"]["status"] == "not-applicable"
        assert verdicts["invertible"]["algebraic"] is True

    def test_witness_embedded_for_non_isometry(self, diag_half):
        code, out, _ = run_cli("classify", diag_half)
        assert code == 0
        verdicts = {v["predicate"]: v for v in json.loads(out)["verdicts"]}
        w = verdicts["partial_isometry"]["evidence"]["witness"]
        assert w["b"] == pytest.approx(8.0)
        assert w["margin"] == pytest.approx(0.5)
        y = documents.element_from_doc(w["y"])
        np.testing.assert_allclose(y.blocks[0], np.diag([0.0, 0.125]), atol=1e-12)

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli("classify", str(path))
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("depth", [1200, 100_000])
    @pytest.mark.parametrize("command", ["classify", "adjoint"])
    def test_nesting_too_deep_to_decode_exits_2(self, tmp_path, command, depth):
        # the decoder's RecursionError once escaped: exit 1 and a traceback
        path = tmp_path / "deep.json"
        label = "[" * depth + '"x"' + "]" * depth
        path.write_text('{"shape": [1], "blocks": [[[1.0, 0.0]]], "label": ' + label + "}")
        code, out, err = run_cli(command, str(path), "--unit")
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid JSON: ") and err.count("\n") == 1

    @pytest.mark.parametrize("label", [None, 1, ["x"], {"a": "x"}, True], ids=["null", "int", "list", "dict", "bool"])
    @pytest.mark.parametrize("command", ["classify", "adjoint"])
    def test_label_not_a_string_exits_2(self, tmp_path, command, label):
        doc = documents.element_to_doc(Element.identity(AlgebraShape((2,)))) | {"label": label}
        code, out, err = run_cli(command, write_doc(tmp_path, "x.json", doc), "--unit")
        assert (code, out, err) == (2, "", "error: label must be a JSON string\n")

    @pytest.mark.parametrize("command", ["classify", "adjoint"])
    def test_string_label_echoes_byte_for_byte(self, tmp_path, command):
        label = 'é\x00\n "\\/\U0001f600' + "[" * 40
        raw = json.dumps(documents.element_to_doc(Element.identity(AlgebraShape((2,))), label=label))
        path = tmp_path / "x.json"
        path.write_text(raw)
        code, out, err = run_cli(command, str(path), "--unit")
        assert (code, err) == (0, "")
        assert json.loads(out)["label"] == label
        assert f'"label": {json.dumps(label)}' in out

    @pytest.mark.parametrize("command", [["classify"], ["certify", "--predicate", "invertible"], ["adjoint"]])
    def test_missing_input_exits_2(self, tmp_path, command):
        code, out, err = run_cli(command[0], str(tmp_path / "absent.json"), *command[1:])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_zero_element_exits_3(self, tmp_path):
        path = write_doc(
            tmp_path, "zero.json", documents.element_to_doc(diag_element([0.0, 0.0]))
        )
        code, _, err = run_cli("classify", path)
        assert code == 3

    def test_unit_identified_in_document(self, tmp_path):
        doc = documents.element_to_doc(Element.identity(AlgebraShape((2,)))) | {"unit_identified": True}
        path = write_doc(tmp_path, "u.json", doc)
        code, out, _ = run_cli("classify", path)
        assert code == 0
        names = {v["predicate"] for v in json.loads(out)["verdicts"]}
        assert "positive" in names

    def test_bad_tolerance_exits_2(self, identity3):
        code, _, err = run_cli("classify", identity3, "--tol", "bogus=1")
        assert code == 2

    def test_default_tolerances_are_the_one_frozen_object(self):
        assert cli._parse_tolerances(None) is DEFAULT_TOLERANCES
        loose = cli._parse_tolerances(["classification=1e-3"])
        assert loose.as_dict() == {"equality": 1e-8, "classification": 1e-3}

    def test_norm_gate_tolerance_reaches_the_routes(self, tmp_path):
        # the norm gate passes at classification=1e-3, and the witness route
        # classifies at the same tolerance
        path = write_doc(
            tmp_path, "x.json", documents.element_to_doc(diag_element([1.0005, 0.5, 0.2]))
        )
        code, out, err = run_cli("classify", path, "--tol", "classification=1e-3")
        assert code == 0
        assert err == ""
        verdicts = {v["predicate"]: v for v in json.loads(out)["verdicts"]}
        pi = verdicts["partial_isometry"]
        assert pi["status"] == "classified"
        assert not pi["algebraic"] and not pi["geometric"]
        assert "witness" in pi["evidence"]
        assert pi["tolerances"] == {"equality": 1e-8, "classification": 1e-3}

    @pytest.mark.parametrize("top", [1.0 + 5e-7, 1.0 - 5e-7])
    def test_off_unit_norm_within_default_tolerance(self, tmp_path, top):
        # ||x|| passes the default norm gate (1e-6); the witness is built for
        # the ray of x, so its invariants hold against ||x|| and it verifies
        path = write_doc(
            tmp_path, "x.json", documents.element_to_doc(diag_element([top, 0.5, 0.2]))
        )
        code, out, err = run_cli("classify", path)
        assert (code, err) == (0, "")
        verdicts = {v["predicate"]: v for v in json.loads(out)["verdicts"]}
        wpath = write_doc(tmp_path, "w.json", verdicts["partial_isometry"]["evidence"]["witness"])
        code, out, err = run_cli(
            "certify", path, "--predicate", "partial-isometry", "--verify", wpath
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["verified"] is True

    def test_route_evidence_depends_on_x_alone(self, tmp_path):
        # a norm-one non-Hermitian input: the routes before the unit
        # predicates run and draw; the CLI's identified unit and the
        # identity each route builds give the same documents
        x = gen_norm_one_non_pi(AlgebraShape((4,)), np.random.default_rng(0))
        path = write_doc(tmp_path, "x.json", documents.element_to_doc(x, label="x"))
        code, out, _ = run_cli("classify", path, "--unit")
        assert code == 0
        verdicts = {v["predicate"]: v for v in json.loads(out)["verdicts"]}
        for route in (is_positive, is_projection):
            alone = documents.verdict_to_doc(route(x))
            assert verdicts[alone["predicate"]] == json.loads(documents.dumps(alone))
        code, out, _ = run_cli("adjoint", path, "--unit")
        assert code == 0
        assert out == documents.dumps(documents.element_to_doc(recover_adjoint(x), label="x")) + "\n"

    def test_deterministic_bytes(self, diag_half):
        first = run_cli("classify", diag_half, "--unit")
        second = run_cli("classify", diag_half, "--unit")
        assert first == second

    @pytest.mark.parametrize("entries", [[1.0, 1.0, 1.0], [1.0, 0.5], [1.0, 0.0], [1.0, -0.5], [1.0, 0.5j]])
    def test_nested_evidence_booleans_are_json_booleans(self, tmp_path, entries):
        # the booleans inside evidence print as true/false, not as 1/0
        path = write_doc(tmp_path, "x.json", documents.element_to_doc(diag_element(entries)))
        code, out, _ = run_cli("classify", path, "--unit")
        assert code == 0
        evidence = {v["predicate"]: v["evidence"] for v in json.loads(out)["verdicts"]}
        flags = [evidence["self_adjoint"]["lumer"], evidence["self_adjoint"]["states"]]
        for name in ("positive", "projection"):
            flags += [evidence[name]["unanimous"], *evidence[name]["conditions"].values()]
        assert len(flags) == 10
        assert all(type(flag) is bool for flag in flags), flags


class TestCertify:
    def test_invertible_worked_example(self, tmp_path):
        path = write_doc(
            tmp_path, "x.json", documents.element_to_doc(diag_element([2.0, 1.0]))
        )
        code, out, _ = run_cli("certify", path, "--predicate", "invertible")
        assert code == 0
        cert = json.loads(out)
        assert cert["epsilon"] == pytest.approx(1.0)
        u = documents.element_from_doc(cert["u"])
        np.testing.assert_allclose(u.blocks[0], np.eye(2), atol=1e-12)

    def test_singular_exits_4(self, tmp_path):
        path = write_doc(
            tmp_path, "sing.json", documents.element_to_doc(diag_element([1.0, 0.0]))
        )
        code, _, err = run_cli("certify", path, "--predicate", "invertible")
        assert code == 4
        assert "singular" in err

    def test_emit_then_verify_round_trip(self, tmp_path):
        x = gen_invertible(AlgebraShape((2, 3)), np.random.default_rng(5))
        xpath = write_doc(tmp_path, "x.json", documents.element_to_doc(x))
        code, out, _ = run_cli("certify", xpath, "--predicate", "invertible")
        assert code == 0
        cpath = tmp_path / "cert.json"
        cpath.write_text(out)
        code, out2, _ = run_cli(
            "certify", xpath, "--predicate", "invertible", "--verify", str(cpath)
        )
        assert code == 0
        assert json.loads(out2)["verified"] is True

    def test_verify_wrong_epsilon_exits_4(self, tmp_path):
        path = write_doc(
            tmp_path, "x.json", documents.element_to_doc(diag_element([2.0, 1.0]))
        )
        cert_doc = {
            "type": "invertibility-certificate",
            "u": documents.element_to_doc(Element.identity(AlgebraShape((2,)))),
            "epsilon": 3.0,
        }
        cpath = write_doc(tmp_path, "cert.json", cert_doc)
        code, out, _ = run_cli(
            "certify", path, "--predicate", "invertible", "--verify", cpath
        )
        assert code == 4
        assert json.loads(out)["verified"] is False

    def test_verify_singular_with_epsilon_below_the_slack_exits_4(self, tmp_path):
        # diag(1, 0) is singular: an epsilon of 5e-9, below the slack
        # `equality`, must not verify
        path = write_doc(tmp_path, "x.json", documents.element_to_doc(diag_element([1.0, 0.0])))
        cert_doc = {
            "type": "invertibility-certificate",
            "u": documents.element_to_doc(Element.identity(AlgebraShape((2,)))),
            "epsilon": 5e-9,
        }
        cpath = write_doc(tmp_path, "cert.json", cert_doc)
        code, out, err = run_cli("certify", path, "--predicate", "invertible", "--verify", cpath)
        assert code == 4
        assert json.loads(out) == {"verified": False, "epsilon": 5e-9}
        assert "not verified" in err

    def test_partial_isometry_witness_round_trip(self, tmp_path, diag_half):
        code, out, _ = run_cli("certify", diag_half, "--predicate", "partial-isometry")
        assert code == 0
        wdoc = json.loads(out)
        assert wdoc["margin"] == pytest.approx(0.5)
        wpath = tmp_path / "wit.json"
        wpath.write_text(out)
        code, out2, _ = run_cli(
            "certify", diag_half, "--predicate", "partial-isometry", "--verify", str(wpath)
        )
        assert code == 0
        assert json.loads(out2)["verified"] is True

    def test_verify_witness_of_other_shape_exits_2(self, tmp_path, diag_half):
        w = construct_witness(diag_element([1.0, 0.5, 0.2]))
        wpath = write_doc(tmp_path, "w3.json", documents.witness_to_doc(w))
        code, out, err = run_cli(
            "certify", diag_half, "--predicate", "partial-isometry", "--verify", wpath
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "raw",
        [b"{not json", b"\xff\xfe", b'{"u": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", None],
        ids=["syntax", "encoding", "too-deep", "absent"],
    )
    @pytest.mark.parametrize("predicate", ["invertible", "partial-isometry"])
    def test_unreadable_verify_file_exits_2(self, tmp_path, diag_half, predicate, raw):
        vpath = tmp_path / "evidence.json"
        if raw is not None:
            vpath.write_bytes(raw)
        code, out, err = run_cli("certify", diag_half, "--predicate", predicate, "--verify", str(vpath))
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid JSON: " if raw else "error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("value", [float("inf"), float("nan")], ids=["Infinity", "NaN"])
    def test_non_finite_witness_number_exits_2(self, tmp_path, diag_half, value):
        _, out, _ = run_cli("certify", diag_half, "--predicate", "partial-isometry")
        wdoc = json.loads(out)
        wdoc["b"] = value  # json writes Infinity / NaN, and reads them back
        wpath = write_doc(tmp_path, "w.json", wdoc)
        code, out, err = run_cli(
            "certify", diag_half, "--predicate", "partial-isometry", "--verify", wpath
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "b must be finite" in err and err.count("\n") == 1

    @pytest.mark.parametrize("key", ["b", "norm_plus", "norm_minus", "norm_at_b", "margin", "spectral_point"])
    @pytest.mark.parametrize("kind", [str, bool])
    def test_witness_numbers_are_strict(self, tmp_path, diag_half, key, kind):
        # each of these verified with exit 0 before: float() read "8.0" and true
        _, out, _ = run_cli("certify", diag_half, "--predicate", "partial-isometry")
        wdoc = json.loads(out)
        wdoc[key] = str(wdoc[key]) if kind is str else True
        wpath = write_doc(tmp_path, "w.json", wdoc)
        code, out, err = run_cli(
            "certify", diag_half, "--predicate", "partial-isometry", "--verify", wpath
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and f"{key} must be" in err and err.count("\n") == 1

    @pytest.mark.parametrize("epsilon", ["1.0", True], ids=["string", "bool"])
    def test_certificate_epsilon_is_strict(self, tmp_path, epsilon):
        # each of these verified with exit 0 on diag(2, 1) before
        path = write_doc(tmp_path, "x.json", documents.element_to_doc(diag_element([2.0, 1.0])))
        _, out, _ = run_cli("certify", path, "--predicate", "invertible")
        cdoc = json.loads(out) | {"epsilon": epsilon}
        cpath = write_doc(tmp_path, "cert.json", cdoc)
        code, out, err = run_cli("certify", path, "--predicate", "invertible", "--verify", cpath)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "epsilon must be" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "predicate, noun, key", [("partial-isometry", "witness", "b"), ("invertible", "certificate", "epsilon")]
    )
    def test_missing_field_names_the_evidence_kind(self, tmp_path, diag_half, predicate, noun, key):
        _, out, _ = run_cli("certify", diag_half, "--predicate", predicate)
        doc = json.loads(out)
        del doc[key]
        path = write_doc(tmp_path, "evidence.json", doc)
        code, out, err = run_cli("certify", diag_half, "--predicate", predicate, "--verify", path)
        assert (code, out, err) == (2, "", f"error: malformed {noun} document: '{key}'\n")

    def test_integer_certificate_epsilon_is_a_number(self, tmp_path):
        path = write_doc(tmp_path, "x.json", documents.element_to_doc(diag_element([2.0, 1.0])))
        _, out, _ = run_cli("certify", path, "--predicate", "invertible")
        cpath = write_doc(tmp_path, "cert.json", json.loads(out) | {"epsilon": 1})
        code, out, _ = run_cli("certify", path, "--predicate", "invertible", "--verify", cpath)
        assert code == 0
        assert json.loads(out) == {"verified": True, "epsilon": 1.0}

    def test_rejected_verification_explains_itself(self, tmp_path, diag_half):
        _, out, _ = run_cli("certify", diag_half, "--predicate", "partial-isometry")
        wdoc = json.loads(out)
        wdoc["b"] = 1.0  # ||x + y|| = ||x||: no margin
        wpath = write_doc(tmp_path, "w.json", wdoc)
        code, out, err = run_cli(
            "certify", diag_half, "--predicate", "partial-isometry", "--verify", wpath
        )
        assert code == 4
        assert json.loads(out)["verified"] is False
        assert err.startswith("not verified: ") and err.count("\n") == 1

    def test_partial_isometry_of_true_pi_exits_4(self, identity3):
        code, _, err = run_cli("certify", identity3, "--predicate", "partial-isometry")
        assert code == 4
        assert "no witness" in err


class TestHarness:
    def test_json_deterministic_bytes(self):
        args = ("harness", "--seed", "7", "--trials", "2", "--suites", "T1F,T4",
                "--shapes", "M2,M2+M3", "--format", "json")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first == second
        code, out, _ = first
        assert code == 0
        doc = json.loads(out)
        assert all(s["passes"] == s["trials"] for s in doc["suites"])
        assert "wall_time_s" not in doc["suites"][0]

    def test_text_format(self):
        code, out, _ = run_cli(
            "harness", "--trials", "1", "--suites", "T2", "--shapes", "M2"
        )
        assert code == 0
        assert "PASS T2: 1/1 passed" in out

    def test_unknown_suite_exits_2(self):
        code, _, err = run_cli("harness", "--suites", "NOPE")
        assert code == 2
        assert "unknown suite" in err

    def test_bad_shape_exits_2(self):
        code, _, err = run_cli("harness", "--shapes", "M0", "--suites", "T1F")
        assert code == 2

    def test_undrawable_shape_exits_2(self):
        code, out, err = run_cli("harness", "--shapes", "M1")
        assert code == 2
        assert out == ""
        assert "cannot draw at shape M1" in err and err.count("\n") == 1

    @pytest.mark.parametrize("shape", ["M100000", "M10000000000"])
    def test_block_above_desk_scale_exits_2(self, monkeypatch, shape):
        def run_suite(cfg):
            raise AssertionError("a suite ran: its generators allocate every block")

        monkeypatch.setattr(cli, "run_suite", run_suite)
        code, out, err = run_cli("harness", "--shapes", shape, "--suites", "T4", "--trials", "1")
        assert (code, out) == (2, "")
        assert err == f"error: shape {shape} has a block above dimension {MAX_BLOCK_DIM}\n"

    @pytest.mark.parametrize(
        "tol", ["equality=-1", "classification=nan", "classification=1e-9", "decomposition=1e-10"]
    )
    def test_invalid_tolerance_exits_2(self, tol):
        code, out, err = run_cli("harness", "--tol", tol, "--suites", "ADJ")
        assert code == 2
        assert out == ""
        assert err.startswith("error: tolerance") and err.count("\n") == 1

    def test_seed_from_environment(self, monkeypatch):
        args = ("harness", "--trials", "1", "--suites", "T4", "--shapes", "M2", "--format", "json")
        monkeypatch.setenv("OPGEO_SEED", "7")
        code, out, _ = run_cli(*args)
        assert code == 0
        assert json.loads(out)["config"]["seed"] == 7
        code, out, _ = run_cli(*args, "--seed", "8")
        assert code == 0
        assert json.loads(out)["config"]["seed"] == 8

    def test_bad_environment_seed_exits_2_from_harness_alone(self, monkeypatch, identity3):
        monkeypatch.setenv("OPGEO_SEED", "abc")
        code, out, err = run_cli("harness", "--trials", "1", "--suites", "T4", "--shapes", "M2")
        assert (code, out) == (2, "")
        assert err == "error: OPGEO_SEED must be an integer, got 'abc'\n"
        code, out, _ = run_cli("harness", "--trials", "1", "--suites", "T4", "--shapes", "M2", "--seed", "1")
        assert code == 0
        assert run_cli("classify", identity3)[0] == 0

    def test_parser_is_built_once_and_keeps_no_tolerance(self):
        args = ("harness", "--trials", "1", "--suites", "ADJ", "--shapes", "M2", "--format", "json")
        code, out, _ = run_cli(*args, "--tol", "classification=1e-5")
        assert code == 0
        assert json.loads(out)["config"]["tolerances"]["classification"] == 1e-5
        code, out, _ = run_cli(*args)
        assert code == 0
        assert json.loads(out)["config"]["tolerances"] == {"equality": 1e-8, "classification": 1e-6}
        assert cli.build_parser() is cli.build_parser()

    def test_timing_flag_adds_wall_time(self):
        code, out, _ = run_cli(
            "harness", "--trials", "1", "--suites", "T1B", "--shapes", "M2",
            "--format", "json", "--timing",
        )
        assert code == 0
        assert "wall_time_s" in json.loads(out)["suites"][0]


class TestAdjoint:
    def test_recovers_conjugate_transpose(self, tmp_path):
        x = Element.from_blocks([np.array([[1.0, 2.0 + 1j], [0.0, -1j]])])
        path = write_doc(
            tmp_path, "x.json", documents.element_to_doc(x) | {"unit_identified": True}
        )
        code, out, _ = run_cli("adjoint", path)
        assert code == 0
        star = documents.element_from_doc(json.loads(out))
        assert element_norm(star - x.H) <= 1e-8

    def test_requires_unit(self, tmp_path):
        x = Element.identity(AlgebraShape((2,)))
        path = write_doc(tmp_path, "x.json", documents.element_to_doc(x))
        code, _, err = run_cli("adjoint", path)
        assert code == 3


class TestOverflow:
    """Finite entries whose arithmetic overflows: one stderr line, exit 2."""

    @pytest.mark.parametrize(
        "command, block",
        [
            (["classify", "--unit"], 1e308 * np.ones((2, 2))),
            (["classify", "--unit"], 1e308 * np.eye(2)),
            (["classify", "--unit"], 1e200 * np.eye(3)),
            (["adjoint", "--unit"], 1e308 * np.ones((2, 2))),  # a state value overflows
        ],
        ids=["classify-ones", "classify-identity", "classify-1e200", "adjoint-ones"],
    )
    def test_exits_2(self, tmp_path, command, block):
        path = write_doc(
            tmp_path, "big.json", documents.element_to_doc(Element.from_blocks([block]))
        )
        code, out, err = run_cli(command[0], path, *command[1:])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_adjoint_of_large_finite_entries(self, tmp_path):
        # the diagonal values halve before they add, so 1e308 + 9e307 does
        # not overflow
        x = Element.from_blocks([np.diag([1e308, 9e307]) + 1e307j * np.eye(2)])
        path = write_doc(tmp_path, "big.json", documents.element_to_doc(x))
        code, out, err = run_cli("adjoint", path, "--unit")
        assert (code, err) == (0, "")
        star = documents.element_from_doc(json.loads(out))
        assert element_norm(star - x.H) <= 1e-15 * element_norm(x)


class TestDocuments:
    def test_element_round_trip_bit_exact(self):
        x = gen_invertible(AlgebraShape((2, 3)), np.random.default_rng(11))
        doc = json.loads(json.dumps(documents.element_to_doc(x)))
        back = documents.element_from_doc(doc)
        for a, b in zip(x.blocks, back.blocks):
            assert np.array_equal(a, b)

    def test_rejects_wrong_block_count(self):
        with pytest.raises(documents.DocumentError):
            documents.element_from_doc({"shape": [2, 3], "blocks": [[[1.0, 0.0]] * 4]})

    def test_rejects_bad_entries(self):
        with pytest.raises(documents.DocumentError):
            documents.element_from_doc({"shape": [1], "blocks": [["oops"]]})

    @pytest.mark.parametrize("command", ["classify", "adjoint"])
    @pytest.mark.parametrize(
        "edit",
        [
            {"unit_identified": "false"},
            {"unit_identified": 1},
            {"shape": [2.7]},
            {"shape": [2.0]},
            {"shape": [True], "blocks": [[["1", "0"]]]},
            {"shape": [1], "blocks": [[[True, 0.0]]]},
            {"shape": [1], "blocks": [[["1", "0"]]]},
        ],
        ids=["unit-string", "unit-int", "shape-fraction", "shape-float", "shape-bool", "entry-bool", "entry-string"],
    )
    def test_json_types_are_strict(self, tmp_path, command, edit):
        # each of these decoded before; "false" turned the unit predicates on
        doc = documents.element_to_doc(Element.identity(AlgebraShape((2,)))) | edit
        code, out, err = run_cli(command, write_doc(tmp_path, "x.json", doc))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unit_identified_false_is_no_unit(self, tmp_path):
        doc = documents.element_to_doc(Element.identity(AlgebraShape((2,)))) | {"unit_identified": False}
        code, out, _ = run_cli("classify", write_doc(tmp_path, "x.json", doc))
        assert code == 0
        assert "positive" not in {v["predicate"] for v in json.loads(out)["verdicts"]}
