"""Path systems and linkage instances.

A path system is its paths: a path names its (source, target) pair by its
two ends, and the pairs a system must link come from its caller (a
``LinkageInstance``, or the pairs handed to ``verify.verify_linkage``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import Digraph
from .errors import InputError

__all__ = ["PathSystem", "LinkageInstance", "Infeasible"]


def _pair_tuples(pairs) -> tuple[tuple[int, int], ...]:
    """The terminal pairs as tuples; a pair without exactly two ids is an
    ``InputError`` that names it."""
    pairs = tuple(tuple(p) for p in pairs)
    for p in pairs:
        if len(p) != 2:
            raise InputError(f"terminal pair {p} must hold two ids", vertices=p)
    return pairs


@dataclass(frozen=True)
class PathSystem:
    """An ordered collection of vertex sequences, one per pair.

    The paths claim full pairwise vertex-disjointness.  Claims are
    certified by ``verify.verify_linkage``, never assumed.
    """

    paths: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.paths)

    def vertices(self) -> set[int]:
        return {v for p in self.paths for v in p}

    def initials(self) -> set[int]:
        return {p[0] for p in self.paths}

    def terminals(self) -> set[int]:
        return {p[-1] for p in self.paths}

    def total_vertices(self) -> int:
        return sum(len(p) for p in self.paths)


@dataclass(frozen=True)
class LinkageInstance:
    """A digraph with ordered terminal pairs; the 2k terminals are distinct."""

    digraph: Digraph
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "pairs", _pair_tuples(self.pairs))
        self.digraph._check_vertices([t for x, y in self.pairs for t in (x, y)],
                                     "terminal", "terminal {} used twice")
        if not self.pairs:
            raise InputError("at least one terminal pair required")

    @property
    def k(self) -> int:
        return len(self.pairs)

    def sources(self) -> list[int]:
        return [x for x, _ in self.pairs]

    def targets(self) -> list[int]:
        return [y for _, y in self.pairs]


@dataclass(frozen=True)
class Infeasible:
    """Negative answer for a disjoint-path query.

    ``separator`` (when known) is a vertex set meeting every candidate path;
    exhaustive searches leave it empty.
    """

    separator: tuple[int, ...] = ()
