"""Exact vertex connectivity and Menger-style disjoint path systems.

Local connectivity is unit-capacity max flow on the vertex-split network
(the bitset kernel in ``_kernel``).  The set-to-set routines run a
successive-shortest-path min-cost flow with unit vertex costs and
Dijkstra potentials (Suurballe & Tarjan, Networks 1984), whose searches
run on a bucket queue of node masks (Dial, CACM 1969), so the
minimum-total-vertex variant needed by the linkage pipelines is exact, and
the plain variant is deterministic.  That network is not built either: its
edges are generated from the Digraph's masks during each search, and the
flow is kept as per-vertex state.  Approximation is never used: callers
consume exact minimality.
"""

from __future__ import annotations

from typing import Iterable

from . import _kernel
from .digraph import Digraph, iter_bits, mask_of
from .errors import SameVertexError, SetOverlapError, SizeMismatchError, VertexOutOfRangeError
from .paths import Infeasible, PathSystem

__all__ = [
    "local_connectivity",
    "is_k_strong",
    "kappa",
    "menger_set_paths",
    "min_vertex_menger",
]


def local_connectivity(d: Digraph, x: int, y: int, limit: int | None = None) -> int:
    """Maximum number of internally disjoint (x, y)-paths.

    A direct arc counts as one path.  ``limit`` stops the augmentation early
    once that many paths are found (the return value is then a lower bound
    that equals ``limit``).
    """
    if x == y:
        raise SameVertexError("local connectivity needs two distinct vertices")
    for v in (x, y):
        if not d.has_vertex(v):
            raise VertexOutOfRangeError(f"vertex {v} not in digraph")
    return _kernel.local_connectivity(d, x, y, limit or 0)


def _pivot_pairs(d: Digraph, v: int):
    """Ordered non-adjacent pairs at pivot v: ascending u, (v, u) before (u, v).

    Only vertices that miss one of the two arcs with v are visited; which
    arc is missing is read off v's own masks.
    """
    out_v, in_v = d.out_mask(v), d.in_mask(v)
    for u in iter_bits(d.alive_mask & ~(out_v & in_v) & ~(1 << v)):
        if not out_v >> u & 1:
            yield v, u
        if not in_v >> u & 1:
            yield u, v


def is_k_strong(d: Digraph, k: int) -> bool:
    """True iff d has at least k+1 vertices and no vertex cut smaller than k.

    Uses the pivot reduction of Even (1975): fix any k vertices; a cut of
    size below k misses one of them, and that pivot then has a non-adjacent
    partner with small local connectivity.  Costs O(k * n) bounded flow
    runs instead of O(n^2).
    """
    if d.order < k + 1:
        return False
    if k <= 0:
        return True
    if not d.is_strong():
        return False
    for v in list(d.vertices())[:k]:
        for a, b in _pivot_pairs(d, v):
            if _kernel.local_connectivity(d, a, b, k) < k:
                return False
    return True


def kappa(d: Digraph) -> int:
    """Exact degree of strong connectivity; 0 iff not strong, n-1 at most.

    Scans pivot vertices v_0, v_1, ... accumulating the least local
    connectivity over non-adjacent ordered pairs at each pivot; once the
    number of processed pivots exceeds the running minimum, some pivot
    avoided every minimum cut and the minimum is exact.
    """
    if d.order < 2:
        raise VertexOutOfRangeError("connectivity degree needs at least 2 vertices")
    if not d.is_strong():
        return 0
    best = d.order - 1
    for i, v in enumerate(d.vertices()):
        if i > best:
            break
        for a, b in _pivot_pairs(d, v):
            best = min(best, _kernel.local_connectivity(d, a, b, best))
    return best


def _validate_sets(d: Digraph, groups: list[tuple[str, Iterable[int]]]):
    masks = []
    for name, vs in groups:
        m = 0
        for v in vs:
            if not d.has_vertex(v):
                raise VertexOutOfRangeError(f"{name} vertex {v} not in digraph")
            m |= 1 << v
        masks.append(m)
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            if masks[i] & masks[j]:
                shared = next(iter_bits(masks[i] & masks[j]))
                raise SetOverlapError(
                    f"{groups[i][0]} and {groups[j][0]} share vertex {shared}"
                )
    return masks


# -- min-cost flow on the split network, read off the masks ----------------


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


def _solve_menger(d: Digraph, sources: list[int], sinks: list[int], avoid_mask: int,
                  provenance: str):
    want = len(sinks)
    if want == 0:
        return PathSystem((), (), provenance)
    net = _SplitFlow(d, sources, sinks, avoid_mask)
    flow = net.run(want)
    if flow < want:
        sep = net.separator()
        free_part = [v for v in sep if not avoid_mask >> v & 1]
        if len(free_part) != flow:
            raise AssertionError("non-avoided separator part must match max flow")
        return Infeasible(separator=sep)
    raw = net.paths()
    pairing = tuple((p[0], p[-1]) for p in raw)
    return PathSystem(tuple(raw), pairing, provenance)


def menger_set_paths(d: Digraph, xs: Iterable[int], ys: Iterable[int],
                     avoid: Iterable[int] = ()) -> PathSystem | Infeasible:
    """|X| vertex-disjoint paths from X onto Y avoiding ``avoid``.

    Full disjointness, endpoints included.  Returns Infeasible carrying a
    separating set when no such system exists; its part outside ``avoid``
    is smaller than |X| (avoided vertices that block appear alongside).
    """
    xs, ys, avoid = list(xs), list(ys), list(avoid)
    if len(xs) != len(ys):
        raise SizeMismatchError(f"|X|={len(xs)} but |Y|={len(ys)}")
    _validate_sets(d, [("X", xs), ("Y", ys), ("avoid", avoid)])
    return _solve_menger(d, sorted(xs), sorted(ys), mask_of(avoid), "menger")


def min_vertex_menger(d: Digraph, us: Iterable[int], ys: Iterable[int],
                      avoid: Iterable[int] = ()) -> PathSystem | Infeasible:
    """|Y| disjoint U-to-Y paths of minimum total vertex count.

    Paths may start anywhere in U (one per sink).  Unit vertex costs in the
    flow network make the minimum exact; as a consequence no interior or
    terminal vertex of the result lies in U, which is checked.
    """
    us, ys, avoid = list(us), list(ys), list(avoid)
    if len(us) < len(ys):
        raise SizeMismatchError(f"need |U| >= |Y|, got {len(us)} < {len(ys)}")
    _validate_sets(d, [("U", us), ("Y", ys), ("avoid", avoid)])
    result = _solve_menger(d, sorted(us), sorted(ys), mask_of(avoid), "min-vertex-menger")
    if isinstance(result, PathSystem):
        uset = set(us)
        for p in result.paths:
            bad = uset.intersection(p[1:])
            if bad:
                raise AssertionError(f"minimum system revisits start set at {sorted(bad)}")
    return result
