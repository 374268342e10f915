"""Bitset flow kernel: local connectivity computed on the Digraph's own masks.

Counts internally disjoint s->t paths by unit-capacity augmentation on the
vertex-split network: each vertex v has an in-node I(v) and an out-node O(v)
joined by a split edge, and each arc u->v becomes the edge O(u)->I(v).  The
source is O(s) and the sink I(t).  The flow lives in masks: ``used`` holds
the vertices whose split edge carries flow, ``flow_out[u]`` / ``flow_in[v]``
the heads / tails of the arcs that carry it.

Every residual edge joins an out-node to an in-node or the reverse, so an
augmenting path alternates between the two kinds.  Its BFS is
level-synchronous, with one Python int per frontier in the manner of
bottom-up BFS (Beamer, Asanovic & Patterson, SC'12):

- out-nodes to in-nodes: the unsaturated arcs ``out[u] & ~flow_out[u]``,
  plus the reversed split edge O(u)->I(u) of every used vertex;
- in-nodes to out-nodes: an unused vertex crosses its own split edge, a
  used vertex steps back to its flow predecessor.

The level masks are kept, and the path is recovered by walking them back
from I(t) on the flow as it was before the augmentation.  Only then is the
whole path applied: the walk reads the pre-augmentation flow at every step.

The flow does not start from zero.  The middles ``out[s] & in[t]`` give the
2-paths s->w->t, which share no inner vertex, so they form a feasible flow
(Menger's theorem in its simplest case).  When there are at least ``limit``
of them the answer is ``limit`` and nothing is allocated; otherwise the
augmentation starts from them.  Augmenting paths extend any feasible flow
to a maximum one, so the capped value is exactly that of a flow built from
zero.  The direct arc s->t is left free and found by the first BFS.  No
augmenting path cancels a seeded arc (that would pass O(s) or I(t) midway),
so the middles keep their 2-paths.  In semicomplete-like digraphs most
pairs have many 2-paths, so most bounded queries end at this first step.
"""

from __future__ import annotations

__all__ = ["local_connectivity"]


def local_connectivity(d, s: int, t: int, limit: int) -> int:
    """Maximum number of internally disjoint s->t paths in ``d``, capped at ``limit``.

    A direct arc counts as one path; ``limit`` <= 0 means no cap.
    """
    out, inc, alive = d._out, d._in, d._alive
    if limit <= 0:
        limit = d.n
    sbit, tbit = 1 << s, 1 << t
    # the 2-paths s->w->t (no loops, so w is neither s nor t)
    used = out[s] & inc[t] & alive
    flow = used.bit_count()
    if flow >= limit:
        return limit
    flow_out = [0] * d.n
    flow_in = [0] * d.n
    flow_out[s] = flow_in[t] = used
    rest = used
    while rest:
        low = rest & -rest
        rest ^= low
        w = low.bit_length() - 1
        flow_in[w] = sbit
        flow_out[w] = tbit

    while flow < limit:
        # BFS; levels[0] is O(s), odd levels hold in-nodes, even ones out-nodes
        levels = [sbit]
        front = sbit
        free_in = alive & ~sbit  # I(s) only leads back to the source
        free_out = alive & ~(sbit | tbit)
        while True:
            # stop at the first out-level with an unsaturated arc into I(t)
            hit = front & inc[t] & ~flow_in[t]
            if hit:
                break
            nxt = front & used
            rest = front
            while rest:
                low = rest & -rest
                rest ^= low
                u = low.bit_length() - 1
                nxt |= out[u] & ~flow_out[u]
            nxt &= free_in
            if not nxt:
                return flow
            free_in ^= nxt
            levels.append(nxt)
            front = nxt & ~used
            rest = nxt & used
            while rest:
                low = rest & -rest
                rest ^= low
                front |= flow_in[low.bit_length() - 1]
            front &= free_out
            if not front:
                return flow
            free_out ^= front
            levels.append(front)

        # walk back from I(t); record the arcs and split edges to flip
        x = (hit & -hit).bit_length() - 1
        arcs = [(x, t)]
        splits = 0
        for i in range(len(levels) - 1, 0, -2):
            # O(x) sits on level i; its in-node on level i-1 is forced
            if used >> x & 1:
                w = flow_out[x].bit_length() - 1
                arcs.append((x, w))
            else:
                w = x
                splits |= 1 << x
            # I(w) sits on level i-1; pick an out-node on level i-2
            prev = levels[i - 2]
            if (used & prev) >> w & 1:
                splits |= 1 << w
                x = w
            else:
                cand = prev & inc[w] & ~flow_in[w]
                x = (cand & -cand).bit_length() - 1
                arcs.append((x, w))
        for a, b in arcs:
            flow_out[a] ^= 1 << b
            flow_in[b] ^= 1 << a
        used ^= splits
        flow += 1
    return flow
