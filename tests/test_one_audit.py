"""One hypothesis audit: the three solvers check, record and report their
hypotheses through ``linkage_semicomplete.audit_hypotheses``.  A witness
for every violated hypothesis is then a change to that one function, so
no solver may build a ``hypothesis_violated`` report or measure kappa on
its own.  The one other report site is ``solve_lqt``'s missing short
return path, which only the auxiliary construction can find."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "klinkage"
MODULES = sorted(PACKAGE.glob("*.py"))
HELPER = ("linkage_semicomplete.py", "audit_hypotheses")


def _calls(path):
    """(module, enclosing function, called name) for every call in ``path``."""
    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                yield path.name, owner, name
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            yield from visit(child, child.name if is_def else owner)

    yield from visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), None)


def test_hypothesis_reports_come_from_the_audit_helper():
    sites = sorted((module, owner) for path in MODULES for module, owner, name in _calls(path)
                   if name == "of_hypothesis")
    assert sites == [("linkage_lqt.py", "solve_lqt"), HELPER, HELPER]


def test_only_reports_and_cli_name_the_hypothesis_outcome():
    naming = {path.name for path in MODULES
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
              if isinstance(node, ast.Name) and node.id == "HYPOTHESIS_VIOLATED"
              or isinstance(node, ast.alias) and node.name == "HYPOTHESIS_VIOLATED"}
    assert naming == {"reports.py", "cli.py"}


def test_only_the_audit_helper_measures_kappa():
    callers = {(module, owner) for path in MODULES if path.name.startswith("linkage_")
               for module, owner, name in _calls(path) if name == "is_k_strong"}
    assert callers == {HELPER}
