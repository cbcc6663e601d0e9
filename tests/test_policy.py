"""Source checks for the tolerance policy: one `Tolerances` object decides,
and every other small float is a named constant."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "opgeo"
#: classes whose field defaults may hold tolerance values
CONFIG_CLASSES = {"Tolerances", "WitnessConfig"}


def _is_constant_name(target: ast.expr) -> bool:
    return isinstance(target, ast.Name) and target.id.lstrip("_").isupper()


def _small_floats(node: ast.AST):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and type(sub.value) is float and 0.0 < abs(sub.value) < 1e-2:
            yield sub


def _unnamed_small_floats(tree: ast.Module):
    """Small float literals outside module-level UPPER_CASE assignments and
    outside the field defaults of CONFIG_CLASSES."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            if all(_is_constant_name(t) for t in targets):
                continue
        if isinstance(stmt, ast.ClassDef) and stmt.name in CONFIG_CLASSES:
            for sub in stmt.body:
                if not isinstance(sub, ast.AnnAssign):
                    yield from _small_floats(sub)
            continue
        yield from _small_floats(stmt)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_small_floats_are_named(path):
    tree = ast.parse(path.read_text())
    found = [f"{path.name}:{n.lineno}: {n.value!r}" for n in _unnamed_small_floats(tree)]
    assert found == [], "tolerance-like literals outside named constants: " + ", ".join(found)


def test_classifiers_take_no_float_tolerance():
    tree = ast.parse((SRC / "classify.py").read_text())
    offending = []
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
            continue
        a = fn.args
        for arg in a.posonlyargs + a.args + a.kwonlyargs:
            name = arg.arg.lower()
            if ("tol" in name or "threshold" in name) and getattr(arg.annotation, "id", None) != "Tolerances":
                offending.append(f"{fn.name}({arg.arg})")
    assert offending == []


def test_checker_flags_an_inline_tolerance():
    tree = ast.parse(
        "A_TOL = 1e-8\n"
        "class WitnessConfig:\n    gap: float = 1e-3\n"
        "def f(x, tol=1e-6):\n    return x <= 1e-8\n"
    )
    assert [n.value for n in _unnamed_small_floats(tree)] == [1e-6, 1e-8]
