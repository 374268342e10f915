"""Exhaustive l-quasi-transitivity check, used only as a test oracle.

For every vertex it collects all endpoints of simple paths of exactly l
arcs and then checks adjacency to each.  ``klinkage.digraph`` searches
only from vertices with a non-neighbour, finishes each path of l - 1 arcs
with one mask test, stops at the first witness and answers vacuous
lengths at once; the tests require both to give the same answers.
"""

from __future__ import annotations

from klinkage.digraph import Digraph, is_semicomplete, iter_bits
from klinkage.errors import InputError


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
            if not d.is_adjacent(u, v):
                return False
    return True
