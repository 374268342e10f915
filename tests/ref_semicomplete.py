"""The semicomplete audit and the helper count as first written, used only as a test oracle.

``is_semicomplete`` tests each alive vertex's row on its own,
``min_out_degree`` takes one popcount per alive vertex, and
``partition_terminals`` counts each outside vertex's out-neighbours in U
with one popcount per vertex.  ``klinkage.digraph`` decides the first two
in one pass over the alive rows, and ``klinkage.linkage_semicomplete``
counts all the helpers at once with a bit-sliced counter over the in-masks
of U; the tests check that they agree.
"""

from __future__ import annotations

from klinkage.digraph import iter_bits, mask_of


def is_semicomplete(d) -> bool:
    alive = d.alive_mask
    for v in d.vertices():
        others = alive & ~(1 << v)
        if (d.out_mask(v) | d.in_mask(v)) & others != others:
            return False
    return True


def min_out_degree(d) -> int:
    return min(d._out[v].bit_count() for v in d.vertices())


def partition_terminals(d, xs, ys, us, k: int):
    xs, ys, us = list(xs), list(ys), list(us)
    u_mask = mask_of(us)
    outside = d.alive_mask & ~(mask_of(xs) | mask_of(ys) | u_mask)
    dominator_mask = 0
    for v in iter_bits(outside):
        if (d.out_mask(v) & u_mask).bit_count() >= 2 * k:
            dominator_mask |= 1 << v
    matched: list[int] = []
    matching: dict[int, int] = {}
    leftover: list[int] = []
    used = 0
    for x in xs:
        cands = d.out_mask(x) & dominator_mask
        if cands.bit_count() >= k:
            pick = next(iter_bits(cands & ~used))
            matched.append(x)
            matching[x] = pick
            used |= 1 << pick
        else:
            leftover.append(x)
    return matched, matching, leftover
