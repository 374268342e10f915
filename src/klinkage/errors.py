"""Exception types raised by the digraph and linkage machinery.

Five kinds, one per way a caller reacts:

- ``InputError``: an argument fails validation (also a ``ValueError``);
- ``FormatError``: a JSON artifact is malformed;
- ``PreconditionViolatedError``: a digraph lacks a structure that a step
  needs (semicompleteness, strongness, enough vertices, a short return path);
- ``ConstructionFailedError``: a search or greedy step ran out of candidates;
- ``BudgetExceededError``: an exponential search passed its budget.

Each error carries ``clause`` (the failed condition in words), ``vertices``
(the vertices it is about) and ``counts`` (the numbers it compared, by
name); ``witness()`` is the three as report data, built by ``witness_of``
as every stage failure's witness is.  ``str(exc)`` is the message, which
is the clause unless the raise site words it otherwise.

Every exponential search (the l-QT predicate, the anchor search, the
brute-force oracle) charges a ``Budget``, which raises the budget error.
"""

from __future__ import annotations


def witness_of(clause: str, vertices=(), counts: dict[str, int] | None = None) -> dict:
    """A failure as report data: its clause, the vertices and the counts it names."""
    return {"clause": clause, "vertices": list(vertices), "counts": dict(counts or {})}


class KLinkageError(Exception):
    """Base class for all library errors."""

    def __init__(self, message: str, *, clause: str | None = None, vertices=(),
                 counts: dict[str, int] | None = None):
        super().__init__(message)
        self.clause = message if clause is None else clause
        self.vertices = tuple(vertices)
        self.counts = counts or {}

    def witness(self) -> dict:
        """The failure as report data."""
        return witness_of(self.clause, self.vertices, self.counts)


class InputError(KLinkageError, ValueError):
    """An argument fails validation; also a ValueError for callers that catch one."""


class FormatError(KLinkageError):
    """Malformed JSON artifact; carries a field/line diagnostic."""


class PreconditionViolatedError(KLinkageError):
    """A digraph lacks a structure that a constructive step needs."""


class ConstructionFailedError(KLinkageError):
    """A search or greedy construction ran out of candidates."""


class BudgetExceededError(KLinkageError):
    """An exponential search passed its expansion budget."""

    def __init__(self, expanded: int, budget: int):
        super().__init__(
            f"search expanded {expanded} nodes, past its budget of {budget}",
            clause="search passed its expansion budget",
            counts={"expanded": expanded, "budget": budget},
        )
        self.expanded = expanded
        self.budget = budget


class Budget:
    """Work units of one search: ``spend`` raises
    ``BudgetExceededError(spent, limit)`` once ``spent`` passes ``limit``.
    A negative ``limit`` is an ``InputError``; 0 allows no work."""

    __slots__ = ("limit", "spent")

    def __init__(self, limit: float):
        if limit < 0:
            raise InputError(f"budget must be at least 0, got {limit}", counts={"budget": limit})
        self.limit = limit
        self.spent = 0

    def spend(self, units: int = 1) -> None:
        self.spent += units
        if self.spent > self.limit:
            raise BudgetExceededError(self.spent, self.limit)
