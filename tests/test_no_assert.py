"""No bare ``assert`` in the package: ``python -O`` strips them, so every
internal check must raise explicitly to hold in an optimised run.  No broad
``except`` either: it would swallow those internal checks with the failure
it meant to catch."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "klinkage"
BROAD = {"Exception", "BaseException"}


def _nodes():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 15
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            yield path.name, node


def _is_broad(handler: ast.ExceptHandler) -> bool:
    """A bare ``except:`` or one naming Exception or BaseException."""
    if handler.type is None:
        return True
    caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(c, ast.Name) and c.id in BROAD for c in caught)


def test_package_has_no_assert_statements():
    found = [f"{name}:{node.lineno}" for name, node in _nodes() if isinstance(node, ast.Assert)]
    assert found == []


def test_package_has_no_broad_except():
    found = [f"{name}:{node.lineno}" for name, node in _nodes()
             if isinstance(node, ast.ExceptHandler) and _is_broad(node)]
    assert found == []


@pytest.mark.parametrize("source", ["except:", "except Exception:", "except BaseException as e:",
                                    "except (KeyError, Exception):"])
def test_broad_except_is_recognised(source):
    handler = ast.parse(f"try:\n    pass\n{source}\n    pass\n").body[0].handlers[0]
    assert _is_broad(handler)
    assert not _is_broad(ast.parse("try:\n    pass\nexcept KeyError:\n    pass\n").body[0].handlers[0])
