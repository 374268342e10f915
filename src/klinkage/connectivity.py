"""Exact vertex connectivity and Menger-style disjoint path systems.

Local connectivity is unit-capacity max flow on the vertex-split network
(the bitset kernel in ``_kernel``).  The set-to-set routines run a
successive-shortest-path min-cost flow with unit vertex costs, so the
minimum-total-vertex variant needed by the linkage pipelines is exact, and
the plain variant is deterministic.  Approximation is never used: callers
consume exact minimality.
"""

from __future__ import annotations

import heapq
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


# -- min-cost flow on the split network ------------------------------------


class _McmfNet:
    """Successive-shortest-paths min-cost flow; unit bottlenecks throughout."""

    def __init__(self, n_nodes: int):
        self.n = n_nodes
        self.adj: list[list[int]] = [[] for _ in range(n_nodes)]
        self.eto: list[int] = []
        self.cap: list[int] = []
        self.cost: list[int] = []

    def add_edge(self, u: int, v: int, cap: int, cost: int) -> int:
        eid = len(self.eto)
        self.eto.append(v)
        self.cap.append(cap)
        self.cost.append(cost)
        self.adj[u].append(eid)
        self.eto.append(u)
        self.cap.append(0)
        self.cost.append(-cost)
        self.adj[v].append(eid + 1)
        return eid

    def run(self, src: int, snk: int, want: int) -> tuple[int, int]:
        """Push up to ``want`` units; returns (flow, total cost)."""
        pot = [0] * self.n
        flow = cost_total = 0
        inf = float("inf")
        while flow < want:
            dist = [inf] * self.n
            pred = [-1] * self.n
            dist[src] = 0
            heap = [(0, src)]
            while heap:
                dvu, u = heapq.heappop(heap)
                if dvu > dist[u]:
                    continue
                for eid in self.adj[u]:
                    if self.cap[eid] <= 0:
                        continue
                    v = self.eto[eid]
                    nd = dvu + self.cost[eid] + pot[u] - pot[v]
                    if nd < dist[v]:
                        dist[v] = nd
                        pred[v] = eid
                        heapq.heappush(heap, (nd, v))
            if dist[snk] == inf:
                break
            for v in range(self.n):
                if dist[v] < inf:
                    pot[v] += dist[v] - dist[snk]
            v = snk
            while v != src:
                eid = pred[v]
                self.cap[eid] -= 1
                self.cap[eid ^ 1] += 1
                cost_total += self.cost[eid]
                v = self.eto[eid ^ 1]
            flow += 1
        return flow, cost_total

    def residual_reachable(self, src: int) -> list[bool]:
        seen = [False] * self.n
        seen[src] = True
        stack = [src]
        while stack:
            u = stack.pop()
            for eid in self.adj[u]:
                v = self.eto[eid]
                if self.cap[eid] > 0 and not seen[v]:
                    seen[v] = True
                    stack.append(v)
        return seen


def _build_split_net(d: Digraph, sources: list[int], sinks: list[int], avoid_mask: int):
    """Split network with unit vertex capacities and unit vertex costs.

    Node layout: entry(v)=v, exit(v)=v+n, then source and sink terminals.
    Avoided vertices keep their edges but carry zero capacity, so they can
    show up in an infeasibility witness.  Arc edges get capacity 2 so
    minimum cuts consist of vertex edges only.
    """
    n = d.n
    net = _McmfNet(2 * n + 2)
    src, snk = 2 * n, 2 * n + 1
    split_eid = {}
    for v in d.vertices():
        split_eid[v] = net.add_edge(v, v + n, 0 if avoid_mask >> v & 1 else 1, 1)
    for u in d.vertices():
        for v in iter_bits(d.out_mask(u)):
            net.add_edge(u + n, v, 2, 0)
    source_eid = {u: net.add_edge(src, u, 1, 0) for u in sources}
    sink_eid = {y: net.add_edge(y + n, snk, 1, 0) for y in sinks}
    return net, src, snk, split_eid, source_eid, sink_eid


def _extract_paths(d: Digraph, net: _McmfNet, sources: list[int], source_eid, snk: int):
    """Decompose the integral flow into vertex-disjoint paths, in source order."""
    n = d.n
    used = [net.cap[eid ^ 1] for eid in range(0, len(net.eto), 2)]  # flow per fwd edge
    paths = []
    for u in sources:
        eid = source_eid[u]
        if used[eid // 2] == 0:
            continue
        used[eid // 2] = 0
        path = [u]
        node = u
        while True:
            out_node = node + n
            nxt = None
            for e in net.adj[out_node]:
                if e % 2 == 0 and used[e // 2] > 0:
                    nxt = e
                    break
            if nxt is None:
                raise AssertionError("flow decomposition lost a path")
            used[nxt // 2] -= 1
            target = net.eto[nxt]
            if target == snk:
                break
            path.append(target)
            node = target
        paths.append(tuple(path))
    return paths


def _separator(net: _McmfNet, src: int, split_eid, source_eid, sink_eid) -> tuple[int, ...]:
    seen = net.residual_reachable(src)
    sep = set()
    for v, eid in split_eid.items():
        if seen[net.eto[eid ^ 1]] and not seen[net.eto[eid]]:
            sep.add(v)
    for u, eid in source_eid.items():
        if not seen[net.eto[eid]] and net.cap[eid] == 0:
            sep.add(u)
    for y, eid in sink_eid.items():
        if seen[net.eto[eid ^ 1]] and net.cap[eid] == 0:
            sep.add(y)
    return tuple(sorted(sep))


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


def _solve_menger(d: Digraph, sources: list[int], sinks: list[int], avoid_mask: int,
                  provenance: str):
    want = len(sinks)
    if want == 0:
        return PathSystem((), (), provenance)
    net, src, snk, split_eid, source_eid, sink_eid = _build_split_net(
        d, sources, sinks, avoid_mask
    )
    flow, _cost = net.run(src, snk, want)
    if flow < want:
        sep = _separator(net, src, split_eid, source_eid, sink_eid)
        free_part = [v for v in sep if not avoid_mask >> v & 1]
        assert len(free_part) == flow, "non-avoided separator part must match max flow"
        return Infeasible(separator=sep)
    raw = _extract_paths(d, net, sources, source_eid, snk)
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
    terminal vertex of the result lies in U, which is asserted.
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
            assert not bad, f"minimum system revisits start set at {sorted(bad)}"
    return result
