"""Goodness widths, nearly in-dominating vertices and sets, degree dominators.

The key quantity is the 2-path width of (v, u): the number of common middle
vertices of v's out-neighbourhood and u's in-neighbourhood, i.e. the size of
a maximum family of independent length-2 (v, u)-paths.  A vertex v is
c-good for u when it dominates u or has width at least c.  A vertex u is
nearly in-dominating when for every c at most 2c vertices fail to be
c-good for it; every semicomplete digraph has one, and a maximum-in-degree
vertex of any spanning tournament always works.

The selection and the set-level check work on the digraph's masks and
build no subdigraph.  The tournament is the deterministic one of
``digraph.spanning_tournament`` (the arc from the larger to the smaller id
of each 2-cycle goes), so v's in-mask in it, restricted to the vertex mask
``alive``, is ``tin(v) = in[v] & alive & ~(out[v] >> v << v)``: v loses
the in-arcs from the larger ids it also points to.  Removing a set T
lowers v's in-degree by exactly ``popcount(tin(v) & T)``, so the in-degrees
are counted once, and each pick scans the vertices ranked by that first
count and stops at the first one whose first count is below the best
degree found: a set of m vertices costs one degree count, one sort and m
short scans.  The set check reads each width as one popcount and sorts
them; more than 2c widths lie below c exactly when the sorted width at
index 2c does, so the sweep over c is one comparison per even index.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import itemgetter

from .digraph import (Digraph, _flags, _is_semicomplete_on, is_semicomplete, is_tournament,
                      iter_bits, mask_of)
from .errors import InputError, PreconditionViolatedError

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
        raise InputError("width is defined for distinct vertices")
    for w in (u, v):
        if not d.has_vertex(w):
            raise InputError(f"vertex {w} not in digraph", vertices=(w,))
    middles = d.out_mask(v) & d.in_mask(u) & ~(1 << u) & ~(1 << v)
    return middles.bit_count()


def is_c_good(d: Digraph, v: int, u: int, c: int) -> bool:
    """v dominates u, or at least c independent length-2 (v, u)-paths exist."""
    if u == v:
        raise InputError("goodness is defined for distinct vertices")
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
        raise InputError(f"vertex {u} not in digraph", vertices=(u,))
    widths = {v: two_path_width(d, v, u) for v in d.vertices() if v != u}
    dominators = frozenset(iter_bits(d.in_mask(u)))
    return GoodnessProfile(u, widths, dominators)


def _ranked_picks(d: Digraph, alive: int, m: int) -> list[int]:
    """m maximum-in-degree picks, ties to the smallest id, from the spanning
    tournament of d on ``alive`` minus the earlier picks.  Each scan of the
    ranking stops below the best degree: no later degree can reach it."""
    flags = _flags(alive)
    ids = list(compress(range(d.n), flags))
    tins = [
        i & alive & ~(o >> v << v)
        for v, o, i in zip(ids, compress(d._out, flags), compress(d._in, flags))
    ]
    ranked = sorted(zip(map(int.bit_count, tins), ids, tins), key=itemgetter(0), reverse=True)
    taken = 0
    chosen: list[int] = []
    for _ in range(m):
        best, pick = -1, -1
        for first, v, tin in ranked:
            if first < best:
                break
            if taken >> v & 1:
                continue
            degree = first - (tin & taken).bit_count()
            if degree > best or (degree == best and v < pick):
                best, pick = degree, v
        chosen.append(pick)
        taken |= 1 << pick
    return chosen


def nearly_in_dominating_vertex(d: Digraph) -> int:
    """A vertex every other vertex is strongly biased towards.

    Takes the maximum-in-degree vertex of the deterministic spanning
    tournament (ties to the smallest id); for every c, at most 2c vertices
    fail to be c-good for it.
    """
    if d.order < 1:
        raise PreconditionViolatedError("empty digraph")
    if not is_semicomplete(d):
        raise PreconditionViolatedError("nearly in-dominating selection needs a semicomplete digraph")
    return _ranked_picks(d, d.alive_mask, 1)[0]


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
    X, Y and U fail to be c-good for u in d minus X and Y.

    Every u must be a vertex of d minus X and Y.  In that subdigraph the
    width of (v, u) is ``(out[v] & in[u] & alive).bit_count()``, and the
    vertices that can fail are those of ``alive`` outside U that do not
    dominate u.  With the widths sorted, more than 2c of them lie below c
    exactly when the one at index 2c does.  An empty sweep (``c_max`` < 1)
    would pass vacuously, so it is rejected.
    """
    if c_max < 1:
        raise InputError(f"c_max must be at least 1, got {c_max}")
    alive = d.alive_mask & ~d._check_vertices([*xs, *ys])
    out, inc = d._out, d._in
    u_mask = mask_of(us)
    for u in us:
        if not alive >> u & 1:
            raise InputError(f"vertex {u} not in digraph minus X and Y", vertices=(u,))
        in_u = inc[u] & alive
        widths = sorted(map(int.bit_count, map(in_u.__and__,
                                               compress(out, _flags(alive & ~u_mask & ~in_u)))))
        if any(map(int.__lt__, widths[2::2], range(1, c_max + 1))):
            return False
    return True


def nearly_in_dominating_set(d: Digraph, xs, ys, m: int) -> list[int]:
    """Iteratively extract m nearly in-dominating vertices of d minus X, Y.

    u_i is the selected vertex of the subdigraph with X, Y and the earlier
    u_j removed.  Since 2-paths survive in supergraphs, the result is a
    nearly in-dominating set of d minus X and Y.  Semicompleteness is
    checked once, on the mask of d minus X and Y (it survives deletion).
    """
    if m < 0:
        raise InputError(f"set size must be non-negative, got {m}")
    alive = d.alive_mask & ~d._check_vertices(set(xs) | set(ys))
    have = alive.bit_count()
    if have < m:
        raise PreconditionViolatedError(f"need {m} vertices outside the terminals, have {have}",
                                        clause="too few vertices outside the terminals",
                                        counts={"need": m, "have": have})
    if not _is_semicomplete_on(d, alive):
        raise PreconditionViolatedError("terminal-free subdigraph is not semicomplete")
    return _ranked_picks(d, alive, m)


def is_gamma_dominator(d: Digraph, v: int, us, gamma: int, direction: str = "out") -> bool:
    """Does v have at least gamma out- (or in-) neighbours inside U?"""
    u_mask = mask_of(us)
    if u_mask >> v & 1:
        raise InputError(f"vertex {v} lies in the reference set", vertices=(v,))
    if direction == "out":
        return (d.out_mask(v) & u_mask).bit_count() >= gamma
    if direction == "in":
        return (d.in_mask(v) & u_mask).bit_count() >= gamma
    raise InputError(f"direction must be 'out' or 'in', got {direction!r}")


def is_in_king(t: Digraph, v: int) -> bool:
    """Every other vertex reaches v by a path of length at most 2."""
    if not is_tournament(t):
        raise PreconditionViolatedError("in-kings are defined on tournaments")
    if not t.has_vertex(v):
        raise InputError(f"vertex {v} not in digraph", vertices=(v,))
    reach = t.in_mask(v)
    for w in iter_bits(t.in_mask(v)):
        reach |= t.in_mask(w)
    reach |= 1 << v
    return reach & t.alive_mask == t.alive_mask
