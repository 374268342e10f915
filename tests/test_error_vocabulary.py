"""The error vocabulary and failures reported as data.

``klinkage.errors`` keeps only classes that some module raises, and every
stage failure of the golden grid carries a structured witness: the
``clause`` / ``vertices`` / ``counts`` of the error behind it, or the nested
report of an inner solve.  No report may fall back to a Python repr.
"""

from __future__ import annotations

import ast
import builtins
import inspect
import pathlib

import pytest

from klinkage import errors
from klinkage.jsonio import _jsonable, dumps_canonical, report_to_obj
from test_golden_reports import CASES, PINNED

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "klinkage"

CLASSES = {name for name, cls in vars(errors).items()
           if inspect.isclass(cls) and issubclass(cls, errors.KLinkageError)}


def _raised_names() -> set[str]:
    """Names of the classes some ``raise`` in the package instantiates."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                func = node.exc.func
                if isinstance(func, ast.Name):
                    names.add(func.id)
    return names


def test_errors_module_has_the_base_and_five_kinds():
    assert CLASSES == {"KLinkageError", "InputError", "FormatError", "PreconditionViolatedError",
                       "ConstructionFailedError", "BudgetExceededError"}
    assert issubclass(errors.InputError, ValueError)


def test_every_error_class_is_raised_somewhere():
    # the base class only groups the others; raising it would tell callers nothing
    assert CLASSES - {"KLinkageError"} - _raised_names() == set()


def test_no_exception_class_outside_the_errors_module():
    # a private exception class would be a second failure vocabulary
    exception_names = CLASSES | {name for name, value in vars(builtins).items()
                                 if inspect.isclass(value) and issubclass(value, BaseException)}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ClassDef):
                bases = {getattr(b, "id", getattr(b, "attr", None)) for b in node.bases}
                if bases & exception_names:
                    found.append(f"{path.name}:{node.lineno} {node.name}")
    assert found == []


def test_witness_carries_the_structured_fields():
    exc = errors.PreconditionViolatedError("need 6, have 1", clause="too few", vertices=(4, 2),
                                           counts={"need": 6, "have": 1})
    assert str(exc) == "need 6, have 1"
    assert exc.witness() == {"clause": "too few", "vertices": [4, 2],
                             "counts": {"need": 6, "have": 1}}
    plain = errors.InputError("vertex 9 not in digraph")
    assert plain.witness() == {"clause": "vertex 9 not in digraph", "vertices": [], "counts": {}}
    assert errors.witness_of("too few", (4, 2), {"need": 6, "have": 1}) == exc.witness()


def test_budget_error_keeps_its_message_and_fields():
    exc = errors.BudgetExceededError(12, 10)
    assert str(exc) == "search expanded 12 nodes, past its budget of 10"
    assert (exc.expanded, exc.budget) == (12, 10)
    assert exc.counts == {"expanded": 12, "budget": 10}


def test_budget_lets_its_limit_through_and_raises_past_it():
    budget = errors.Budget(2)
    budget.spend()
    budget.spend()
    with pytest.raises(errors.BudgetExceededError) as info:
        budget.spend()
    assert (info.value.expanded, info.value.budget) == (3, 2)
    bulk = errors.Budget(4)
    bulk.spend(4)
    with pytest.raises(errors.BudgetExceededError) as info:
        bulk.spend(5)
    assert (info.value.expanded, info.value.budget) == (9, 4)


def test_budget_rejects_a_negative_limit():
    with pytest.raises(errors.InputError, match="budget must be at least 0, got -1") as info:
        errors.Budget(-1)
    assert info.value.counts == {"budget": -1}
    with pytest.raises(errors.BudgetExceededError):
        errors.Budget(0).spend()


def _check_witness(witness, where):
    """A stage witness is an error's fields or a nested report, all the way down."""
    assert isinstance(witness, dict), where
    if "outcome" in witness:  # a nested report: its own failure must be data too
        if witness["outcome"] == "stage_failed":
            _check_witness(witness["witness"], where)
        return
    assert set(witness) == {"clause", "vertices", "counts"}, where
    assert isinstance(witness["clause"], str), where
    assert all(type(v) is int for v in witness["vertices"]), where
    assert all(isinstance(k, str) and type(v) is int for k, v in witness["counts"].items()), where


@pytest.mark.parametrize("name", sorted(n for n, (outcome, _, _) in PINNED.items()
                                        if outcome == "stage_failed"))
def test_golden_stage_failures_report_data(name):
    obj = report_to_obj(CASES[name]())
    _check_witness(obj["witness"], name)
    assert "SolveReport(" not in dumps_canonical(obj)


def test_jsonable_rejects_types_without_a_json_form():
    assert _jsonable({"pair": (1, 2), "n": None}) == {"pair": [1, 2], "n": None}
    with pytest.raises(TypeError, match="object"):
        _jsonable([1, object()])
