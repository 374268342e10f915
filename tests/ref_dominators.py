"""Dominating-set selection and set check as first written, used only as a test oracle.

The selection rebuilds the deterministic spanning tournament of the
shrinking subdigraph on every step and takes its maximum-in-degree vertex
(ties to the smallest id); the set check builds the terminal-free
subdigraph and measures every width with ``two_path_width``.
``klinkage.dominators`` computes both from the masks without either
construction; the tests check that they agree.
"""

from __future__ import annotations

from klinkage.digraph import mask_of, spanning_tournament
from klinkage.dominators import two_path_width


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
