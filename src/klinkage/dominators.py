"""Goodness widths, nearly in-dominating vertices and sets, degree dominators.

The key quantity is the 2-path width of (v, u): the number of common middle
vertices of v's out-neighbourhood and u's in-neighbourhood, i.e. the size of
a maximum family of independent length-2 (v, u)-paths.  A vertex v is
c-good for u when it dominates u or has width at least c.  A vertex u is
nearly in-dominating when for every c at most 2c vertices fail to be
c-good for it; every semicomplete digraph has one, and a maximum-in-degree
vertex of any spanning tournament always works.
"""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import Digraph, is_semicomplete, is_tournament, iter_bits, mask_of, spanning_tournament
from .errors import (
    InputError,
    NotSemicompleteError,
    NotTournamentError,
    SameVertexError,
    TooFewVerticesError,
    VertexInSetError,
    VertexOutOfRangeError,
)

__all__ = [
    "two_path_width",
    "is_c_good",
    "GoodnessProfile",
    "goodness_profile",
    "nearly_in_dominating_vertex",
    "verify_nearly_in_dominating",
    "verify_nearly_in_dominating_set",
    "nearly_in_dominating_set",
    "is_gamma_dominator",
    "is_in_king",
]


def two_path_width(d: Digraph, v: int, u: int) -> int:
    """Number of independent (v, u)-paths of length 2 (= common middles)."""
    if u == v:
        raise SameVertexError("width is defined for distinct vertices")
    for w in (u, v):
        if not d.has_vertex(w):
            raise VertexOutOfRangeError(f"vertex {w} not in digraph")
    middles = d.out_mask(v) & d.in_mask(u) & ~(1 << u) & ~(1 << v)
    return middles.bit_count()


def is_c_good(d: Digraph, v: int, u: int, c: int) -> bool:
    """v dominates u, or at least c independent length-2 (v, u)-paths exist."""
    if u == v:
        raise SameVertexError("goodness is defined for distinct vertices")
    if d.has_arc(v, u):
        return True
    return two_path_width(d, v, u) >= c


@dataclass(frozen=True)
class GoodnessProfile:
    """Per-vertex widths and dominators towards one target vertex."""

    target: int
    widths: dict[int, int]
    dominators: frozenset[int]

    def bad_count(self, c: int) -> int:
        """Vertices that are not c-good for the target."""
        return sum(
            1 for v, w in self.widths.items() if v not in self.dominators and w < c
        )


def goodness_profile(d: Digraph, u: int) -> GoodnessProfile:
    if not d.has_vertex(u):
        raise VertexOutOfRangeError(f"vertex {u} not in digraph")
    widths = {v: two_path_width(d, v, u) for v in d.vertices() if v != u}
    dominators = frozenset(iter_bits(d.in_mask(u)))
    return GoodnessProfile(u, widths, dominators)


def nearly_in_dominating_vertex(d: Digraph) -> int:
    """A vertex every other vertex is strongly biased towards.

    Takes the maximum-in-degree vertex of the deterministic spanning
    tournament (ties to the smallest id); for every c, at most 2c vertices
    fail to be c-good for it.
    """
    if d.order < 1:
        raise TooFewVerticesError("empty digraph")
    if not is_semicomplete(d):
        raise NotSemicompleteError("nearly in-dominating selection needs a semicomplete digraph")
    t = spanning_tournament(d)
    return max(t.vertices(), key=lambda v: (t.in_degree(v), -v))


@dataclass(frozen=True)
class NidReport:
    ok: bool
    worst_c: int | None = None
    bad_vertices: tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def verify_nearly_in_dominating(d: Digraph, u: int, c_max: int) -> NidReport:
    """Check |{v != u : not c-good for u}| <= 2c for every c in [1, c_max].

    The non-good count is monotone in c and stabilises once c exceeds the
    maximum width, so a finite sweep is exhaustive.  The report carries the
    worst c (largest excess) and the offending vertices when it fails.
    An empty sweep (``c_max`` < 1) would pass vacuously, so it is rejected.
    """
    if c_max < 1:
        raise InputError(f"c_max must be at least 1, got {c_max}")
    profile = goodness_profile(d, u)
    worst_c, worst_excess = None, 0
    for c in range(1, c_max + 1):
        excess = profile.bad_count(c) - 2 * c
        if excess > worst_excess:
            worst_c, worst_excess = c, excess
    if worst_c is None:
        return NidReport(True)
    bad = tuple(
        sorted(
            v
            for v, w in profile.widths.items()
            if v not in profile.dominators and w < worst_c
        )
    )
    return NidReport(False, worst_c, bad)


def verify_nearly_in_dominating_set(d: Digraph, xs, ys, us, c_max: int) -> bool:
    """Set-level check: for u in U and c, at most 2c vertices outside
    X, Y and U fail to be c-good for u in d minus X and Y."""
    sub = d.delete(set(xs) | set(ys))
    u_mask = mask_of(us)
    for u in us:
        widths = sorted(
            two_path_width(sub, v, u)
            for v in sub.vertices()
            if v != u and not u_mask >> v & 1 and not sub.has_arc(v, u)
        )
        below = 0
        for c in range(1, c_max + 1):
            while below < len(widths) and widths[below] < c:
                below += 1
            if below > 2 * c:
                return False
            if below == len(widths):
                break
    return True


def nearly_in_dominating_set(d: Digraph, xs, ys, m: int) -> list[int]:
    """Iteratively extract m nearly in-dominating vertices of d minus X, Y.

    u_i is the selected vertex of the subdigraph with X, Y and the earlier
    u_j removed.  Since 2-paths survive in supergraphs, the result is a
    nearly in-dominating set of d minus X and Y.
    """
    sub = d.delete(set(xs) | set(ys))
    if sub.order < m:
        raise TooFewVerticesError(f"need {m} vertices outside the terminals, have {sub.order}")
    if not is_semicomplete(sub):
        raise NotSemicompleteError("terminal-free subdigraph is not semicomplete")
    chosen: list[int] = []
    for _ in range(m):
        u = nearly_in_dominating_vertex(sub)
        chosen.append(u)
        sub = sub.delete({u})
    return chosen


def is_gamma_dominator(d: Digraph, v: int, us, gamma: int, direction: str = "out") -> bool:
    """Does v have at least gamma out- (or in-) neighbours inside U?"""
    u_mask = mask_of(us)
    if u_mask >> v & 1:
        raise VertexInSetError(f"vertex {v} lies in the reference set")
    if direction == "out":
        return (d.out_mask(v) & u_mask).bit_count() >= gamma
    if direction == "in":
        return (d.in_mask(v) & u_mask).bit_count() >= gamma
    raise InputError(f"direction must be 'out' or 'in', got {direction!r}")


def is_in_king(t: Digraph, v: int) -> bool:
    """Every other vertex reaches v by a path of length at most 2."""
    if not is_tournament(t):
        raise NotTournamentError("in-kings are defined on tournaments")
    if not t.has_vertex(v):
        raise VertexOutOfRangeError(f"vertex {v} not in digraph")
    reach = t.in_mask(v)
    for w in iter_bits(t.in_mask(v)):
        reach |= t.in_mask(w)
    reach |= 1 << v
    return reach & t.alive_mask == t.alive_mask
