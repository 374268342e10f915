"""The per-node split-network search, used only as a test oracle.

This is the ``_SplitFlow`` that ``klinkage.connectivity`` ran before its
searches settled masks: a Dial bucket queue that pops one split-network
node at a time, with a ``dist`` and a ``prev`` entry per node and the
potentials as one list.  ``tests/test_connectivity.py`` runs it next to the
mask version search by search and compares the paths, the separator, the
reached masks and the potentials after every augmentation.
"""

from __future__ import annotations

from klinkage.digraph import Digraph, iter_bits, mask_of


_INF = float("inf")


class _SplitFlow:
    """Successive shortest paths on the split network of ``d``, never built.

    Nodes: entry(v) = v, exit(v) = v + n, the source 2n and the sink 2n + 1.
    Edges: the split edge entry(v) -> exit(v) (capacity 1, or 0 when v is
    avoided, cost 1), exit(u) -> entry(v) for every arc (capacity 2, so it
    never saturates, cost 0), source -> entry(x) for x in X and exit(y) ->
    sink for y in Y (capacity 1, cost 0).  The flow is held per vertex:
    ``used`` has the vertices whose split edge carries it, ``succ`` / ``pred``
    the head / tail of the arc that carries it out of / into each vertex,
    ``src_used`` / ``sink_used`` the X / Y vertices whose terminal edge does.
    """

    def __init__(self, d: Digraph, sources: list[int], sinks: list[int], avoid_mask: int):
        n = d.n
        self.out = d._out
        self.n = n
        self.sources = sources
        self.sinks = sinks
        self.avoid = avoid_mask
        self.pot = [0] * (2 * n + 2)
        self.used = 0
        self.succ = [-1] * n
        self.pred = [-1] * n
        self.src_used = 0
        self.sink_used = 0
        self.seen_in = self.seen_out = 0

    def _shortest(self):
        """Dijkstra from the source under reduced costs, run to exhaustion.

        Reduced costs are non-negative integers, so the queue is a list of
        buckets indexed by distance (Dial 1969), each a mask of nodes.  The
        next node is the lowest bit of the lowest non-empty bucket: the
        (distance, node) order of a binary heap with strict relaxation.  As
        in a heap, an improved node is queued again and its old entry is
        skipped when popped.  An edge into a settled node never relaxes it,
        so arcs into settled entries are not generated, nor is any reverse
        source edge (the source is settled first).  Arcs out of exit(x) are
        relaxed one potential class at a time: the entries of a class share
        one tentative distance nd, and the improved ones are those not
        queued in a bucket at or below nd.  Returns dist, the predecessor
        node of each reached node and the masks of the vertices whose entry
        / exit node was reached.
        """
        n, out, pot, pred = self.n, self.out, self.pot, self.pred
        used, closed = self.used, self.avoid | self.used
        src_used, sink_used = self.src_used, self.sink_used
        sink_open = mask_of(self.sinks) & ~sink_used
        src, snk = 2 * n, 2 * n + 1
        classes: dict[int, int] = {}  # potential -> mask of entry nodes
        for w in range(n):
            classes[pot[w]] = classes.get(pot[w], 0) | 1 << w
        dist = [_INF] * (2 * n + 2)
        prev = [-1] * (2 * n + 2)
        dist[src] = 0
        buckets = [1 << src]
        cur = 0
        seen_in = seen_out = 0

        def relax(w, nd, u):
            if nd < dist[w]:
                if nd >= len(buckets):
                    buckets.extend([0] * (nd + 1 - len(buckets)))
                buckets[nd] |= 1 << w
                dist[w] = nd
                prev[w] = u

        while True:
            while cur < len(buckets) and not buckets[cur]:
                cur += 1
            if cur == len(buckets):
                break
            low = buckets[cur] & -buckets[cur]
            buckets[cur] ^= low
            u = low.bit_length() - 1
            if dist[u] < cur:  # improved after it was queued here
                continue
            base = cur + pot[u]
            if u < n:  # entry(u): split edge, reverse flow arc
                seen_in |= low
                if not closed >> u & 1:
                    relax(u + n, base + 1 - pot[u + n], u)
                if pred[u] >= 0:
                    relax(pred[u] + n, base - pot[pred[u] + n], u)
            elif u < src:  # exit(x): reverse split edge, arcs, sink edge
                x = u - n
                seen_out |= 1 << x
                if used >> x & 1:
                    relax(x, base - 1 - pot[x], u)
                if sink_open >> x & 1:
                    relax(snk, base - pot[snk], u)
                rest = out[x] & ~seen_in
                for p, members in classes.items():
                    hit = rest & members
                    if not hit:
                        continue
                    rest ^= hit
                    nd = base - p
                    for queued in buckets[cur:nd + 1]:
                        hit &= ~queued
                    if hit:
                        if nd >= len(buckets):
                            buckets.extend([0] * (nd + 1 - len(buckets)))
                        buckets[nd] |= hit
                        while hit:
                            bit = hit & -hit
                            hit ^= bit
                            w = bit.bit_length() - 1
                            dist[w] = nd
                            prev[w] = u
                    if not rest:
                        break
            elif u == src:
                for x in self.sources:
                    if not src_used >> x & 1:
                        relax(x, base - pot[x], u)
            else:  # reverse sink edges
                for y in self.sinks:
                    if sink_used >> y & 1:
                        relax(y + n, base - pot[y + n], u)
        return dist, prev, seen_in, seen_out

    def _augment(self, prev) -> None:
        """Push one unit back along the predecessor chain from the sink."""
        n, succ, pred = self.n, self.succ, self.pred
        src = 2 * n
        w = 2 * n + 1
        u = prev[w]
        self.sink_used |= 1 << (u - n)
        while u != src:
            w, u = u, prev[u]
            if u == src:
                self.src_used |= 1 << w
            elif u < n:  # entry(u) -> exit(x): split edge or reverse arc x -> u
                x = w - n
                if x == u:
                    self.used |= 1 << u
                else:
                    # the walk meets this edge after the arc leaving exit(x)
                    # on the path, which may already have replaced succ[x]
                    if succ[x] == u:
                        succ[x] = -1
                    pred[u] = -1
            else:  # exit(x) -> entry(w): reverse split edge or arc x -> w
                x = u - n
                if x == w:
                    self.used &= ~(1 << w)
                else:
                    succ[x] = w
                    pred[w] = x

    def run(self, want: int) -> int:
        """Push up to ``want`` units; returns the flow."""
        snk = 2 * self.n + 1
        pot = self.pot
        flow = 0
        while flow < want:
            dist, prev, self.seen_in, self.seen_out = self._shortest()
            if dist[snk] == _INF:
                break
            top = dist[snk]
            for w, dw in enumerate(dist):
                if dw < _INF:
                    pot[w] += dw - top
            self._augment(prev)
            flow += 1
        return flow

    def separator(self) -> tuple[int, ...]:
        """After a run that fell short: the vertices of the residual cut.

        The last search reached exactly the residual reach of the source.
        A vertex is in the cut when its split edge leaves that reach or its
        used source edge enters it from outside.  A used sink edge never
        leaves it: exit(y) is then entered only by its full split edge.
        """
        return tuple(iter_bits(
            self.seen_in & ~self.seen_out | self.src_used & ~self.seen_in
        ))

    def paths(self) -> list[tuple[int, ...]]:
        """Decompose the flow into vertex-disjoint paths, in source order."""
        paths = []
        for u in self.sources:
            if not self.src_used >> u & 1:
                continue
            path = [u]
            while not self.sink_used >> path[-1] & 1:
                nxt = self.succ[path[-1]]
                if nxt < 0:
                    raise AssertionError("flow decomposition lost a path")
                path.append(nxt)
            paths.append(tuple(path))
        return paths
