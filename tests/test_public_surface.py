"""One name per operation: ``klinkage`` exports only what its users call.

The users are the package itself (the solvers, ``cli`` and
``acceptance``), the benchmark in ``perfbench/`` and the README's Library
example.  A name that only its own module and ``__init__.py`` mention is
an alias or a definition nobody calls: delete it, or move it to a
``tests/ref_*.py`` oracle if the tests need it."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "klinkage"


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _exports():
    """(name, home module) for every name ``__init__.py`` imports."""
    return [(alias.asname or alias.name, f"{node.module}.py")
            for node in _tree(PACKAGE / "__init__.py").body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def _named(tree):
    """Names a module uses: ``ast.Name`` ids and imported aliases."""
    return {node.id if isinstance(node, ast.Name) else node.name for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.alias))}


def _benchmark_names():
    """Names ``perfbench/*.py`` uses, attributes and the dotted strings it traces included."""
    names = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        tree = _tree(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(node.value.split("."))
        names |= _named(tree)
    return names


def _readme_library_names():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library\n+```python\n(.*?)```", readme, re.S)
    return set(re.findall(r"\bkl\.(\w+)", block.group(1)))


def test_every_export_has_a_user():
    users = _benchmark_names() | _readme_library_names()
    by_module = {path.name: _named(_tree(path)) for path in PACKAGE.glob("*.py")
                 if path.name != "__init__.py"}
    unused = [name for name, home in _exports()
              if name not in users
              and not any(name in named for module, named in by_module.items() if module != home)]
    assert unused == []
