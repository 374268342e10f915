"""Dominating-set selection and both checks as first written, used only as a test oracle.

The selection rebuilds the deterministic spanning tournament of the
shrinking subdigraph on every step and takes its maximum-in-degree vertex
(ties to the smallest id); the set check builds the terminal-free
subdigraph and measures every width with ``two_path_width``; the vertex
check sweeps c from 1 to ``c_max`` and counts the vertices that are not
c-good at each c.  ``klinkage.dominators`` computes all three from the
masks with one width pass; the tests check that they agree.
"""

from __future__ import annotations

from klinkage.digraph import mask_of, spanning_tournament
from klinkage.dominators import NidReport
from klinkage.errors import InputError


def two_path_width(d, v: int, u: int) -> int:
    """Number of independent (v, u)-paths of length 2 (= common middles)."""
    if u == v:
        raise InputError("width is defined for distinct vertices")
    d._check_vertices((u, v))
    middles = d.out_mask(v) & d.in_mask(u) & ~(1 << u) & ~(1 << v)
    return middles.bit_count()


def nearly_in_dominating_vertex(d):
    t = spanning_tournament(d)
    return max(t.vertices(), key=lambda v: (t.in_degree(v), -v))


def nearly_in_dominating_set(d, xs, ys, m: int) -> list[int]:
    sub = d.delete(set(xs) | set(ys))
    chosen = []
    for _ in range(m):
        u = nearly_in_dominating_vertex(sub)
        chosen.append(u)
        sub = sub.delete({u})
    return chosen


def verify_nearly_in_dominating_set(d, xs, ys, us, c_max: int) -> bool:
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


def verify_nearly_in_dominating(d, u, c_max: int) -> NidReport:
    widths = {
        v: two_path_width(d, v, u) for v in d.vertices() if v != u and not d.has_arc(v, u)
    }
    worst_c, worst_excess = None, 0
    for c in range(1, c_max + 1):
        excess = sum(1 for w in widths.values() if w < c) - 2 * c
        if excess > worst_excess:
            worst_c, worst_excess = c, excess
    if worst_c is None:
        return NidReport(True)
    return NidReport(False, worst_c, tuple(sorted(v for v, w in widths.items() if w < worst_c)))
