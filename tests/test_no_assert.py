"""No bare ``assert`` in the package: ``python -O`` strips them, so every
internal check must raise explicitly to hold in an optimised run."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "klinkage"


def test_package_has_no_assert_statements():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 15
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
