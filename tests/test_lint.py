"""Source rules for the test files themselves."""

import ast
from pathlib import Path

TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def _relative_approx_without_abs(path):
    """Line numbers of the approx(...) calls in `path`, as pytest.approx or
    imported bare, that pass rel= and no abs=."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Call) and "approx" in (getattr(node.func, "attr", None),
                                                       getattr(node.func, "id", None)):
            keys = {k.arg for k in node.keywords}
            if "rel" in keys and "abs" not in keys:
                hits.append(node.lineno)
    return hits


def test_every_relative_approx_sets_abs():
    # approx's default abs=1e-12 swamps rel= for values near or below 1e-12,
    # so a relative tolerance holds only with abs=0 beside it
    found = {p.name: lines for p in TESTS if (lines := _relative_approx_without_abs(p))}
    assert found == {}, f"pytest.approx with rel= and no abs= at {found}"


def test_the_rule_sees_a_relative_approx_without_abs(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("import pytest\n"
                      "a = pytest.approx(1.0, rel=1e-9)\n"
                      "b = pytest.approx(1.0, rel=1e-9, abs=0)\n"
                      "c = pytest.approx(1.0, abs=1e-9)\n"
                      "d = pytest.approx(\n    1.0,\n    rel=1e-9)\n"
                      "from pytest import approx\n"
                      "e = approx(1.0, rel=1e-9)\n")
    assert _relative_approx_without_abs(sample) == [2, 5, 9]
