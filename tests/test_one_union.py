"""One row union: ``digraph._union(rows, mask)`` is the only loop that ORs
adjacency rows over the set bits of a vertex mask.  A BFS level, a full
bundle of parts and an in-reach are all that one step, so a change to its
body reaches every caller at once; no function may write it out again as
``for v in iter_bits(mask): acc |= rows[v]``."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "klinkage"
MODULES = sorted(PACKAGE.glob("*.py"))


def _row_unions(tree, module):
    """(module, enclosing function) for every ``for v in iter_bits(...)``
    whose whole body is one ``acc |= <subscript or call using v>``."""
    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.For) and _is_row_union(child):
                yield module, owner
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            yield from visit(child, child.name if is_def else owner)

    yield from visit(tree, None)


def _is_row_union(loop: ast.For) -> bool:
    it, target, body = loop.iter, loop.target, loop.body
    if not (isinstance(it, ast.Call) and getattr(it.func, "id", None) == "iter_bits"
            and isinstance(target, ast.Name) and len(body) == 1):
        return False
    stmt = body[0]
    return (isinstance(stmt, ast.AugAssign) and isinstance(stmt.op, ast.BitOr)
            and isinstance(stmt.value, (ast.Subscript, ast.Call))
            and any(isinstance(n, ast.Name) and n.id == target.id for n in ast.walk(stmt.value)))


def test_the_detector_names_a_hand_written_union():
    sample = ast.parse("def f(d, m):\n    acc = 0\n    for v in iter_bits(m):\n"
                       "        acc |= d.out_mask(v)\n    for w in iter_bits(m):\n"
                       "        acc |= 1 << w\n    return acc\n")
    assert list(_row_unions(sample, "sample.py")) == [("sample.py", "f")]


def test_union_is_the_only_row_union_loop():
    loops = [site for path in MODULES
             for site in _row_unions(ast.parse(path.read_text(encoding="utf-8"), str(path)),
                                     path.name)]
    assert loops == []
