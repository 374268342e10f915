"""Goodness widths, nearly in-dominating vertices and sets, degree dominators.

The key quantity is the 2-path width of (v, u): the number of common middle
vertices of v's out-neighbourhood and u's in-neighbourhood, i.e. the size of
a maximum family of independent length-2 (v, u)-paths.  A vertex v is
c-good for u when it dominates u or has width at least c.  A vertex u is
nearly in-dominating when for every c at most 2c vertices fail to be
c-good for it; every semicomplete digraph has one, and a maximum-in-degree
vertex of any spanning tournament always works.

Everything works on the digraph's masks; a subdigraph is a vertex mask
``alive``.  One width pass, ``_widths``, reads the width of (v, u) inside
``alive`` as ``popcount(out[v] & in[u] & alive)``; the vertex check, the
set check and the goodness profile take their widths from it.  Sorted, the
widths of the vertices that do not dominate u decide both checks: more
than 2c of them lie below c exactly when the one at index 2c does.  On
failure the excess "widths below c, minus 2c" peaks at c = 1 or at
c = w + 1 for a width w, so the worst c is one scan of the same list.
``_first_c_good`` is the one scan for a c-good vertex.

The selection ranks the vertices by their in-degree in the spanning
tournament on ``alive``: ``digraph._spanning_in_masks`` gives the in-masks
``tin(v)`` and their popcounts, and decides semicompleteness from the same
pass.  Removing a set T lowers v's in-degree by exactly
``popcount(tin(v) & T)``, so the degrees are counted once, and each pick
scans the ranking until a first count falls below the best degree found.
The spanning tournament keeps or drops each arc by the ids of its two ends
alone, so deleting T from it gives the spanning tournament of d minus T.
The selection in d minus the terminals can therefore start from the
in-masks of all of d, with the terminals already taken.  The semicomplete
solver does so (``_dominating_picks``): one pass decides its audit's
semicompleteness and ranks its picks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .digraph import Digraph, _flags, _spanning_in_masks, _union, is_tournament, iter_bits
from .errors import InputError, PreconditionViolatedError

__all__ = [
    "is_c_good",
    "goodness_profile",
    "nearly_in_dominating_vertex",
    "verify_nearly_in_dominating",
    "verify_nearly_in_dominating_set",
    "nearly_in_dominating_set",
    "is_in_king",
]


def _widths(d: Digraph, u: int, alive: int, among: int) -> list[int]:
    """The widths of (v, u) inside ``alive`` for the vertices v of ``among``, in id order."""
    in_u = d._in[u] & alive
    return list(map(int.bit_count, map(in_u.__and__, compress(d._out, _flags(among)))))


def _too_many_bad(widths: list[int], c_max: int) -> bool:
    """Some c in [1, c_max] has more than 2c of the sorted ``widths`` below c."""
    return any(map(int.__lt__, widths[2::2], range(1, c_max + 1)))


def _first_c_good(d: Digraph, cands: int, s: int, alive: int, c: int) -> int | None:
    """The smallest vertex of the mask ``cands`` that is c-good for s inside
    ``alive``: it lies in ``in[s]``, or ``out[w] & in[s] & alive`` has c bits."""
    in_s, out = d._in[s] & alive, d._out
    for w in iter_bits(cands):
        if in_s >> w & 1 or (out[w] & in_s).bit_count() >= c:
            return w
    return None


def is_c_good(d: Digraph, v: int, u: int, c: int) -> bool:
    """v dominates u, or at least c independent length-2 (v, u)-paths exist."""
    if u == v:
        raise InputError("goodness is defined for distinct vertices")
    d._check_vertices((u, v))
    return _first_c_good(d, 1 << v, u, d.alive_mask, c) is not None


@dataclass(frozen=True)
class GoodnessProfile:
    """Per-vertex widths and dominators towards one target vertex."""

    target: int
    widths: dict[int, int]
    dominators: frozenset[int]


def goodness_profile(d: Digraph, u: int) -> GoodnessProfile:
    d._check_vertices((u,))
    others = d.alive_mask & ~(1 << u)
    widths = dict(zip(iter_bits(others), _widths(d, u, d.alive_mask, others)))
    return GoodnessProfile(u, widths, frozenset(iter_bits(d.in_mask(u))))


def _ranked_picks(ids: list[int], tins: list[int], degrees: list[int], m: int,
                  taken: int = 0) -> list[int]:
    """m maximum-in-degree picks, ties to the smallest id, from the spanning
    tournament with vertices ``ids``, in-masks ``tins`` and in-degrees
    ``degrees``, minus the vertices of the mask ``taken`` and the earlier
    picks.  Removing vertices never raises a degree, so each scan of the
    ranking stops below the best degree: no later degree can reach it."""
    ranked = sorted(range(len(ids)), key=degrees.__getitem__, reverse=True)
    chosen: list[int] = []
    for _ in range(m):
        best, pick = -1, -1
        for i in ranked:
            first = degrees[i]
            if first < best:
                break
            v = ids[i]
            if taken >> v & 1:
                continue
            degree = first - (tins[i] & taken).bit_count()
            if degree > best or (degree == best and v < pick):
                best, pick = degree, v
        chosen.append(pick)
        taken |= 1 << pick
    return chosen


def _check_room(m: int, have: int) -> None:
    """The selection's error when fewer than m vertices, ``have``, lie
    outside the terminals."""
    if have < m:
        raise PreconditionViolatedError(f"need {m} vertices outside the terminals, have {have}",
                                        clause="too few vertices outside the terminals",
                                        counts={"need": m, "have": have})


def _dominating_picks(rows: tuple[list[int], list[int], list[int]], terminals: int,
                      m: int) -> list[int]:
    """``nearly_in_dominating_set`` of a semicomplete digraph d, from
    ``rows`` = ``_spanning_in_masks`` on all of d and the mask ``terminals``
    of X and Y, a set of alive vertices.

    Deleting X and Y from d's spanning tournament gives the spanning
    tournament of d minus X and Y, so the picks start with the terminals
    taken.
    """
    _check_room(m, len(rows[0]) - terminals.bit_count())
    return _ranked_picks(*rows, m, terminals)


def nearly_in_dominating_vertex(d: Digraph) -> int:
    """A vertex every other vertex is strongly biased towards.

    Takes the maximum-in-degree vertex of the deterministic spanning
    tournament (ties to the smallest id); for every c, at most 2c vertices
    fail to be c-good for it.
    """
    if d.order < 1:
        raise PreconditionViolatedError("empty digraph")
    rows = _spanning_in_masks(d, d.alive_mask)
    if rows is None:
        raise PreconditionViolatedError("nearly in-dominating selection needs a semicomplete digraph")
    return _ranked_picks(*rows, 1)[0]


@dataclass(frozen=True)
class NidReport:
    ok: bool
    worst_c: int | None = None
    bad_vertices: tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def verify_nearly_in_dominating(d: Digraph, u: int, c_max: int) -> NidReport:
    """Check |{v != u : not c-good for u}| <= 2c for every c in [1, c_max].

    The test is the set check's, for U = {u} in d itself.  On failure the
    report carries the worst c (the first of largest excess) and the
    vertices not c-good for it.  An empty sweep (``c_max`` < 1) would pass
    vacuously, so it is rejected.
    """
    if c_max < 1:
        raise InputError(f"c_max must be at least 1, got {c_max}")
    d._check_vertices((u,))
    among = d.alive_mask & ~d._in[u] & ~(1 << u)
    widths = _widths(d, u, d.alive_mask, among)
    ranked = sorted(widths)
    if not _too_many_bad(ranked, c_max):
        return NidReport(True)
    worst_c, worst_excess = None, 0
    for below, w in enumerate(ranked, 1):  # below: the widths under c = w + 1
        if w >= c_max:
            break
        excess = below - 2 * (w + 1)
        if excess > worst_excess:
            worst_c, worst_excess = w + 1, excess
    bad = tuple(compress(iter_bits(among), map(worst_c.__gt__, widths)))
    return NidReport(False, worst_c, bad)


def verify_nearly_in_dominating_set(d: Digraph, xs, ys, us, c_max: int) -> bool:
    """Set-level check: for u in U and c, at most 2c vertices outside
    X, Y and U fail to be c-good for u in d minus X and Y.

    Every u must be a vertex of d minus X and Y.  The vertices that can
    fail for u are those of that subdigraph outside U that do not dominate
    u, and their widths come from the one width pass.  An empty sweep
    (``c_max`` < 1) would pass vacuously, so it is rejected.
    """
    if c_max < 1:
        raise InputError(f"c_max must be at least 1, got {c_max}")
    alive = d.alive_mask & ~d._check_vertices([*xs, *ys])
    u_mask = d._check_vertices(us)
    for u in us:
        if not alive >> u & 1:
            raise InputError(f"vertex {u} not in digraph minus X and Y", vertices=(u,))
        if _too_many_bad(sorted(_widths(d, u, alive, alive & ~u_mask & ~d._in[u])), c_max):
            return False
    return True


def nearly_in_dominating_set(d: Digraph, xs, ys, m: int) -> list[int]:
    """Iteratively extract m nearly in-dominating vertices of d minus X, Y.

    u_i is the selected vertex of the subdigraph with X, Y and the earlier
    u_j removed.  Since 2-paths survive in supergraphs, the result is a
    nearly in-dominating set of d minus X and Y.  Semicompleteness is
    decided once, on the mask of d minus X and Y (it survives deletion), by
    the spanning-tournament in-masks the picks rank.
    """
    if m < 0:
        raise InputError(f"set size must be non-negative, got {m}")
    alive = d.alive_mask & ~d._check_vertices(set(xs) | set(ys))
    _check_room(m, alive.bit_count())
    rows = _spanning_in_masks(d, alive)
    if rows is None:
        raise PreconditionViolatedError("terminal-free subdigraph is not semicomplete")
    return _ranked_picks(*rows, m)


def is_in_king(t: Digraph, v: int) -> bool:
    """Every other vertex reaches v by a path of length at most 2."""
    if not is_tournament(t):
        raise PreconditionViolatedError("in-kings are defined on tournaments")
    t._check_vertices((v,))
    reach = t.in_mask(v) | _union(t._in, t.in_mask(v)) | 1 << v
    return reach & t.alive_mask == t.alive_mask
