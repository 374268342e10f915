"""The l-QT layer's replaced implementations, used only as test oracles.

``ref_is_l_quasi_transitive`` collects, for every vertex, all endpoints of
simple paths of exactly l arcs and then checks adjacency to each.
``klinkage.digraph`` searches only from vertices with a non-neighbour,
enumerates paths of l - 2 arcs and tests the last two arcs of every
witness at once, as one mask: an unused out-neighbour of the path's end
inside the in-rows of the unused non-neighbours.  It stops at the first
witness and answers vacuous lengths at once; the tests require both to
give the same answers.

``ref_independent_short_paths`` harvests a pool by running two
shortest-path searches (the list BFS of ``ref_bfs``) per pick and taking
the shorter path.
``klinkage.linkage_lqt`` picks the same paths length by length on the
masks; the tests require both to return equal pools.
"""

from __future__ import annotations

from conftest import is_adjacent
from ref_bfs import ref_shortest_path
from klinkage.digraph import Digraph, is_semicomplete, iter_bits, mask_of
from klinkage.errors import InputError
from klinkage.linkage_lqt import ShortPathPool


def _exact_length_endpoints(d: Digraph, src: int, length: int) -> set[int]:
    """Vertices reachable from src by a simple path of exactly ``length`` arcs."""
    found: set[int] = set()
    stack = [(src, 1 << src, 0)]
    while stack:
        v, used, depth = stack.pop()
        if depth == length:
            found.add(v)
            continue
        for w in iter_bits(d.out_mask(v) & ~used):
            stack.append((w, used | (1 << w), depth + 1))
    found.discard(src)
    return found


def ref_is_l_quasi_transitive(d: Digraph, l: int) -> bool:
    """True iff every pair joined by a path of exactly ``l`` arcs is adjacent."""
    if l < 1:
        raise InputError("path length must be at least 1")
    if l == 1:
        return is_semicomplete(d)
    for u in d.vertices():
        for v in _exact_length_endpoints(d, u, l):
            if not is_adjacent(d, u, v):
                return False
    return True


def ref_independent_short_paths(d: Digraph, u: int, v: int, l: int, limit: int) -> ShortPathPool:
    """Extract pairwise-independent paths of length <= l+1 between u and v.

    Each round removes the interior of the shortest qualifying path (either
    direction, ties to u->v) from the residual digraph; a direct arc can be
    taken once per direction.  Stops once one direction holds ``limit``
    paths or no qualifying path remains.
    """
    if u == v:
        raise InputError("need two distinct vertices")
    forward: list[tuple[int, ...]] = []
    backward: list[tuple[int, ...]] = []
    removed = 0
    max_len = l + 1
    while len(forward) < limit and len(backward) < limit:
        pf = ref_shortest_path(d, u, v, removed, max_len, skip_direct=any(len(p) == 2 for p in forward))
        pb = ref_shortest_path(d, v, u, removed, max_len, skip_direct=any(len(p) == 2 for p in backward))
        pick = None
        if pf is not None and (pb is None or len(pf) <= len(pb)):
            pick, bucket = pf, forward
        elif pb is not None:
            pick, bucket = pb, backward
        if pick is None:
            residual = d.delete(iter_bits(removed))  # interiors only; u, v stay
            stalled_strong = residual.is_strong() and residual.order >= 2
            paths = (ref_shortest_path(d, u, v, removed), ref_shortest_path(d, v, u, removed))
            return ShortPathPool(
                u, v, tuple(forward), tuple(backward), stalled_strong,
                tuple(None if p is None else len(p) - 1 for p in paths),
            )
        bucket.append(tuple(pick))
        removed |= mask_of(pick[1:-1])
    return ShortPathPool(u, v, tuple(forward), tuple(backward))
