"""One vertex-id check: ``Digraph._check_vertices`` is the only code that
raises a "not in digraph" error.  It turns ids into a mask, checking each
one in order, and takes the caller's label (and, where ids must not repeat,
its repeat message), so a change to what counts as a vertex reaches every
exported function that takes ids at once; no function may write the check
out again as ``if not d.has_vertex(v): raise InputError(f"... not in digraph")``."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "klinkage"
MODULES = sorted(PACKAGE.glob("*.py"))


def _not_in_digraph_raises(tree, module):
    """(module, enclosing ``Class.function``) for every ``raise InputError(...)``
    whose message ends in ``not in digraph``."""
    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and _is_not_in_digraph(child.exc):
                yield module, owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, child.name if owner is None else f"{owner}.{child.name}")
            else:
                yield from visit(child, owner)

    yield from visit(tree, None)


def _is_not_in_digraph(exc) -> bool:
    if not (isinstance(exc, ast.Call) and getattr(exc.func, "id", None) == "InputError"
            and exc.args):
        return False
    message = exc.args[0]
    if isinstance(message, ast.JoinedStr):  # an f-string: its last literal piece
        message = message.values[-1] if message.values else None
    return (isinstance(message, ast.Constant) and isinstance(message.value, str)
            and message.value.endswith("not in digraph"))


def test_the_detector_names_a_hand_written_check():
    sample = ast.parse(
        "class G:\n    def f(self, vs):\n        for v in vs:\n"
        "            if not self.has_vertex(v):\n"
        "                raise InputError(f\"terminal {v} not in digraph\", vertices=(v,))\n"
        "def g(d, v):\n    if not d.has_vertex(v):\n"
        "        raise InputError(\"vertex not in digraph\")\n"
        "    raise InputError(f\"vertex {v} not in digraph minus X\")\n")
    assert list(_not_in_digraph_raises(sample, "sample.py")) == [
        ("sample.py", "G.f"), ("sample.py", "g")]


def test_check_vertices_is_the_only_not_in_digraph_raise():
    sites = [site for path in MODULES
             for site in _not_in_digraph_raises(
                 ast.parse(path.read_text(encoding="utf-8"), str(path)), path.name)]
    assert sites == [("digraph.py", "Digraph._check_vertices")]
