"""No unused imports: every name a package module imports is read in that
module, or listed in its ``__all__``.  ``__init__.py`` is exempt, since its
imports are the package's public surface.  An import nothing reads is a
dependency nobody has, and it hides which modules really use which."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "klinkage"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree, module):
    """(module, name) for every imported name that no expression of the
    module reads and its ``__all__`` does not list."""
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.setdefault((alias.asname or alias.name).split(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((module, name) for name in imported if name not in used)


def test_the_detector_names_an_unused_import():
    sample = ast.parse("from __future__ import annotations\nimport os\nimport a.b\n"
                       "from x import y, z as w\n__all__ = ['y']\n\ndef f():\n"
                       "    from q import r\n    return a.b\n")
    assert _unused_imports(sample, "sample.py") == [("sample.py", "os"), ("sample.py", "r"),
                                                    ("sample.py", "w")]


def test_every_import_is_used():
    unused = [site for path in MODULES
              for site in _unused_imports(ast.parse(path.read_text(encoding="utf-8"), str(path)),
                                          path.name)]
    assert unused == []
