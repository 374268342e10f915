"""Edge-list reference for local connectivity, used only as a test oracle.

Counts internally disjoint paths between two vertices by unit-capacity
augmentation on an explicit vertex-split network with paired residual
edges.  It shares no code with the bitset kernel in ``klinkage._kernel``,
which the tests check against it.
"""

from __future__ import annotations

from collections import deque

from conftest import out_neighbors


class _Prep:
    """Static split-network for one digraph, reusable for every (s, t) query.

    Nodes: entry(v) = v, exit(v) = v + n.  Edges come in (forward, reverse)
    pairs so edge i's reverse is i ^ 1.
    """

    __slots__ = ("n", "adj", "eto", "base_cap", "_cap", "_pred", "_stamp", "_seen")

    def __init__(self, n: int, adjacency: list[list[int]]):
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(2 * n)]
        self.eto: list[int] = []
        self.base_cap: list[int] = []

        def add(u, v):
            eid = len(self.eto)
            self.eto.append(v)
            self.base_cap.append(1)
            self.adj[u].append(eid)
            self.eto.append(u)
            self.base_cap.append(0)
            self.adj[v].append(eid + 1)

        for v in range(n):
            add(v, v + n)  # split arc entry(v) -> exit(v)
        for u in range(n):
            for v in adjacency[u]:
                add(u + n, v)  # exit(u) -> entry(v)

        self._cap = [0] * len(self.base_cap)
        self._pred = [-1] * (2 * n)
        self._seen = [0] * (2 * n)
        self._stamp = 0


def prepare(d) -> _Prep:
    """Split network of a Digraph; deleted vertices get no arcs."""
    return _Prep(d.n, [out_neighbors(d, v) if d.has_vertex(v) else [] for v in range(d.n)])


def local_connectivity(prep: _Prep, s: int, t: int, limit: int) -> int:
    """Max internally disjoint s->t paths, stopping early at ``limit``."""
    if limit <= 0:
        limit = prep.n
    cap = prep._cap
    cap[:] = prep.base_cap
    adj, eto = prep.adj, prep.eto
    pred, seen = prep._pred, prep._seen
    src, snk = s + prep.n, t

    flow = 0
    while flow < limit:
        prep._stamp += 1
        stamp = prep._stamp
        seen[src] = stamp
        queue = deque([src])
        reached = False
        while queue:
            u = queue.popleft()
            if u == snk:
                reached = True
                break
            for eid in adj[u]:
                if cap[eid] and seen[eto[eid]] != stamp:
                    v = eto[eid]
                    seen[v] = stamp
                    pred[v] = eid
                    queue.append(v)
        if not reached:
            break
        v = snk
        while v != src:
            eid = pred[v]
            cap[eid] -= 1
            cap[eid ^ 1] += 1
            v = eto[eid ^ 1]
        flow += 1
    return flow
