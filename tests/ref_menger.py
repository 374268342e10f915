"""Explicit split-network min-cost flow for Menger systems, used only as a test oracle.

Builds the whole vertex-split network with paired residual edges and runs
successive shortest paths with potentials on it.  ``klinkage.connectivity``
runs the same algorithm on the Digraph's masks without building the
network; the tests check that both give identical paths and separators.
"""

from __future__ import annotations

import heapq

from klinkage import Infeasible, PathSystem
from klinkage.digraph import iter_bits, mask_of


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


def _build_split_net(d, sources: list[int], sinks: list[int], avoid_mask: int):
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


def _extract_paths(d, net: _McmfNet, sources: list[int], source_eid, snk: int):
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


def solve(d, sources, sinks, avoid=()) -> PathSystem | Infeasible:
    """The set-to-set system on the explicit network; sources and sinks are sorted first."""
    sources, sinks, avoid_mask = sorted(sources), sorted(sinks), mask_of(avoid)
    want = len(sinks)
    if want == 0:
        return PathSystem(())
    net, src, snk, split_eid, source_eid, sink_eid = _build_split_net(
        d, sources, sinks, avoid_mask
    )
    flow, _cost = net.run(src, snk, want)
    if flow < want:
        return Infeasible(separator=_separator(net, src, split_eid, source_eid, sink_eid))
    raw = _extract_paths(d, net, sources, source_eid, snk)
    return PathSystem(tuple(raw))
