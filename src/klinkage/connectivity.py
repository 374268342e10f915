"""Exact vertex connectivity and Menger-style disjoint path systems.

Local connectivity is unit-capacity max flow on the vertex-split network
(the bitset kernel in ``_kernel``).  The set-to-set routines run a
successive-shortest-path min-cost flow with unit vertex costs and Dijkstra
potentials (Suurballe & Tarjan, Networks 1984) on that network, which is
never built: each search reads its edges off the Digraph's masks and
settles node masks, bucket by bucket (Dial, CACM 1969), in the order of a
per-node heap (see ``_SplitFlow``).  The first search of every flow has zero
potentials and no flow to undo, so its buckets are the levels of a BFS on
the masks, and it runs as one.  So the minimum-total-vertex variant the
linkage pipelines need is exact and the plain variant deterministic.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from . import _kernel
from .digraph import Digraph, iter_bits, mask_of
from .errors import InputError
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
    that equals ``limit``); ``None`` and ``0`` mean no cap, and a negative
    ``limit`` is rejected.
    """
    if limit is not None and limit < 0:
        raise InputError(f"limit must be None or non-negative, got {limit}")
    if x == y:
        raise InputError("local connectivity needs two distinct vertices")
    d._check_vertices((x, y))
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


def _pivot_scan(d: Digraph, cap: int) -> int:
    """min(kappa(d), cap), by the pivot reduction of Even (1975).

    Scans pivots v_0, v_1, ... and keeps the least local connectivity over
    the non-adjacent ordered pairs at each, each query capped at the running
    minimum.  Once i pivots are scanned and the minimum is at most i, it is
    exact: a smaller cut would miss a scanned pivot, and that pivot has a
    partner it separates.  The first pivot finds the empty cut of a digraph
    that is not strong, so no separate strong-connectivity test is needed.
    In semicomplete-like digraphs most pairs are settled by the kernel's
    first step, which counts the 2-paths a->w->b before any augmentation.
    """
    best = cap
    for i, v in enumerate(d.vertices()):
        if i >= best:
            break
        for a, b in _pivot_pairs(d, v):
            flow = _kernel.local_connectivity(d, a, b, best)
            if flow < best:
                if not flow:
                    return 0  # a 0 limit would lift the kernel's cap
                best = flow
    return best


def is_k_strong(d: Digraph, k: int) -> bool:
    """True iff d has at least k+1 vertices and no vertex cut smaller than k.

    Scans k pivots (Even 1975): O(k * n) bounded flow runs instead of O(n^2).
    """
    return d.order > k and (k <= 0 or _pivot_scan(d, k) >= k)


def kappa(d: Digraph) -> int:
    """Exact degree of strong connectivity; 0 iff not strong, n-1 at most."""
    if d.order < 2:
        raise InputError("connectivity degree needs at least 2 vertices")
    return _pivot_scan(d, d.order - 1)


def _validate_sets(d: Digraph, groups: list[tuple[str, Iterable[int]]]):
    """The groups' masks; no group repeats a vertex (``avoid`` may) or shares one."""
    masks = [d._check_vertices(vs, f"{name} vertex",
                               None if name == "avoid" else f"{name} repeats vertex {{}}")
             for name, vs in groups]
    for i, j in combinations(range(len(masks)), 2):
        if masks[i] & masks[j]:
            shared = next(iter_bits(masks[i] & masks[j]))
            raise InputError(f"{groups[i][0]} and {groups[j][0]} share vertex {shared}",
                             vertices=(shared,))
    return masks


# -- min-cost flow on the split network, read off the masks ----------------


def _relax(buckets: list[int], log: list, cur: int, nd: int, mask: int, improver: int) -> None:
    """Strict relaxation to ``nd`` of the unsettled nodes in ``mask``: those
    that no bucket in [cur, nd] holds are queued at nd and logged."""
    for queued in buckets[cur:nd + 1]:
        mask &= ~queued
    if mask:
        buckets.extend([0] * (nd + 1 - len(buckets)))
        buckets[nd] |= mask
        log.append((improver, mask))


def _pot_of(classes, node: int) -> int:
    """The potential of the class in ``classes`` whose mask holds ``node``."""
    for p, m in classes:
        if m >> node & 1:
            return p
    raise AssertionError(f"node {node} has no potential class")


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
    ``pot`` maps each potential to the mask of the nodes that have it.

    A search settles masks but matches a heap on (distance, node id) with
    strict relaxation, which pops a bucket's entries, then its exits, then
    the source and the sink:
    - Entries lead only to exits, and an exit has one in-neighbour: the
      entry of its vertex if that is open, else the entry of its flow
      successor, or the sink for a used sink.  So a bucket's entries settle
      together in any order, relaxing split edges per pair of classes.
    - An exit of class p at distance cur improves no entry once every
      unsettled entry, of class q say, is queued at or below cur + p - q,
      and that stays so in the bucket.  Such idle exits settle together in
      any order, unless they carry flow or end at an open sink.  The other
      exits pop one at a time, lowest id first (``_relax_exit``).
    - A node's predecessor is its last improver, which improved it after
      its own last improvement: the search logs (improver, improved mask),
      and one backward scan of the log reads the sink's path.

    The first search runs as a level BFS instead (``_bfs``).  With zero
    potentials a split edge costs 1 and every other edge 0, and with no flow
    no edge is reversed.  So bucket d holds the exits of the open entries of
    bucket d - 1 and the entries that those exits reach first, no node is
    improved after it is queued, and a bucket's exits pop in ascending id:
    an entry's predecessor is the lowest exit of its bucket with an arc into
    it, and the sink's the lowest exit of its bucket in Y.  The BFS reaches
    the same nodes at the same distances and finds the same sink's path as
    the Dial search.
    """

    def __init__(self, d: Digraph, sources: list[int], sinks: list[int], avoid_mask: int):
        n = self.n = d.n
        self.out, self.inc, self.alive, self.avoid = d._out, d._in, d._alive, avoid_mask
        self.source_mask, self.sink_mask = mask_of(sources), mask_of(sinks)
        self.pot = {0: (1 << (2 * n + 2)) - 1}
        self.succ, self.pred = [-1] * n, [-1] * n
        self.used = self.src_used = self.sink_used = self.seen_in = self.seen_out = 0

    def _bfs(self):
        """The first search, with zero potentials and no flow, as a level BFS.

        Level d has the exits X_d = E_{d-1} & open (E_0 = X) and the entries
        E_d that no earlier level has and X_d has arcs into; the sink
        settles at the first level whose exits meet Y.  Returns what
        ``_shortest`` returns, with a log of the sink's path only.
        """
        n, out, alive, sinks = self.n, self.out, self.alive, self.sink_mask
        src, snk = 2 * n, 2 * n + 1
        open_ = ~self.avoid & (1 << n) - 1
        ent = reached = self.source_mask
        settled, levels, top = 1 << src | ent, [(0, 1 << src), (0, ent)], None
        exit_levels = [0]  # X_d at index d
        while exits := ent & open_:
            dist = len(exit_levels)
            exit_levels.append(exits)
            level = exits << n
            if top is None and exits & sinks:
                top, level = dist, level | 1 << snk
            grow = reached
            while exits and grow != alive:  # a _union that stops once all is reached
                low = exits & -exits
                grow |= out[low.bit_length() - 1]
                exits ^= low
            ent, reached = grow & ~reached, grow
            levels.append((dist, level | ent))
            settled |= level | ent
        if top is None:
            return None, levels, [], settled
        hit = exit_levels[top] & sinks
        v = (hit & -hit).bit_length() - 1
        log = [(v + n, 1 << snk)]  # built from the sink back, then reversed
        for dist in range(top - 1, 0, -1):  # entry(v) in E_dist, its exit in X_dist+1
            hit = exit_levels[dist] & self.inc[v]
            u = (hit & -hit).bit_length() - 1
            log += [(-1, 1 << (v + n)), (u + n, 1 << v)]
            v = u
        log += [(-1, 1 << (v + n)), (src, 1 << v)]
        log.reverse()
        return top, levels, log, settled

    def _shortest(self):
        """Dijkstra from the source under reduced costs, run to exhaustion.

        Returns the sink's distance (None if unreached), the (distance, nodes
        settled there) levels, the log and the mask of settled nodes.
        """
        n, pred, used = self.n, self.pred, self.used
        full = (1 << n) - 1
        src, snk = 2 * n, 2 * n + 1
        pot = self.pot.items()
        # the classes' entry and exit parts, as vertex masks
        ents = [(p, m & full) for p, m in pot if m & full]
        exts = [(p, m >> n & full) for p, m in pot if m >> n & full]
        p_src, p_snk = _pot_of(pot, src), _pot_of(pot, snk)
        classes = ents, exts, p_snk
        open_ = full & ~(self.avoid | used)
        single = used | self.sink_mask & ~self.sink_used
        buckets: list[int] = []
        log = []  # (improver, improved mask); improver -1: entry(v) for exit(v)
        for q, m in ents:
            _relax(buckets, log, 0, p_src - q, self.source_mask & ~self.src_used & m, src)
        settled, levels, top, cur = 1 << src, [(0, 1 << src)], None, -1
        while cur + 1 < len(buckets):
            cur += 1
            before = settled
            while live := buckets[cur] & ~settled:
                if ent := live & full:
                    settled |= ent
                    if split := ent & open_:
                        for p, m in ents:
                            if part := split & m:
                                for q, mq in exts:
                                    if hit := part & mq:
                                        _relax(buckets, log, cur, cur + p + 1 - q, hit << n, -1)
                    for u in iter_bits(ent & used):
                        if pred[u] >= 0:  # reverse flow arc entry(u) -> exit(pred[u])
                            x = pred[u]
                            nd = cur + _pot_of(ents, u) - _pot_of(exts, x)
                            _relax(buckets, log, cur, nd, 1 << (x + n), u)
                elif exits := live >> n & full:
                    # exits of a class p >= bar are idle: each waiting entry
                    # of class q is queued at or below cur + bar - q
                    waiting, bar = self.alive & ~settled, -1 << n
                    for q, mq in ents:
                        rest, k = waiting & mq, cur
                        while rest and k < len(buckets):
                            rest &= ~buckets[k]
                            k += 1
                        if rest:
                            break
                        if k > cur:
                            bar = max(bar, q + k - 1 - cur)
                    else:
                        idle = exits & ~single & sum(m for p, m in exts if p >= bar)
                        exits ^= idle
                        settled |= idle << n
                    if exits:
                        x = (exits & -exits).bit_length() - 1
                        settled |= 1 << (x + n)
                        self._relax_exit(x, cur, settled, buckets, classes, log)
                else:  # the sink (the source was settled first)
                    settled |= 1 << snk
                    top = cur
                    for q, m in exts:  # reverse sink edges
                        _relax(buckets, log, cur, cur + p_snk - q, (self.sink_used & m) << n, snk)
            if settled != before:
                levels.append((cur, settled & ~before))
        return top, levels, log, settled

    def _relax_exit(self, x: int, cur: int, settled: int, buckets: list[int], classes, log) -> None:
        """Relax the edges out of exit(x), popped alone at distance ``cur``;
        ``classes`` holds the entry and exit class lists and the sink's
        potential."""
        ents, exts, p_snk = classes
        u, snk = x + self.n, 2 * self.n + 1
        base = cur + _pot_of(exts, x)
        if self.used >> x & 1:  # reverse split edge
            _relax(buckets, log, cur, base - 1 - _pot_of(ents, x), 1 << x & ~settled, u)
        if (self.sink_mask & ~self.sink_used) >> x & 1:
            _relax(buckets, log, cur, base - p_snk, 1 << snk & ~settled, u)
        rest = self.out[x] & ~settled
        for q, m in ents:
            if rest & m:
                _relax(buckets, log, cur, base - q, rest & m, u)

    def _augment(self, log) -> None:
        """Push one unit along the sink's path, scanning the log backwards."""
        n, succ, pred = self.n, self.succ, self.pred
        src, path = 2 * n, [2 * n + 1]
        for u, hit in reversed(log):
            if hit >> path[-1] & 1:
                path.append(path[-1] - n if u < 0 else u)
                if u == src:
                    break
        self.sink_used |= 1 << (path[1] - n)
        for w, u in zip(path[1:], path[2:]):
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
        full = (1 << self.n) - 1
        for flow in range(want):
            # no flow yet: zero potentials, so the search is a level BFS
            top, levels, log, settled = self._shortest() if self.src_used else self._bfs()
            self.seen_in, self.seen_out = settled & full, settled >> self.n & full
            if top is None:
                return flow
            pot: dict[int, int] = {}
            for p, m in self.pot.items():  # a reached node moves by dist - top
                for dist, level in levels + [(top, ~settled)]:
                    if m & level:
                        pot[p + dist - top] = pot.get(p + dist - top, 0) | m & level
            self.pot = pot
            self._augment(log)
        return want

    def separator(self) -> tuple[int, ...]:
        """After a run that fell short: the vertices of the residual cut.

        The last search reached exactly the residual reach of the source.
        A vertex is in the cut when its split edge leaves that reach or its
        used source edge enters it from outside.  A used sink edge never
        leaves it: exit(y) is then entered only by its full split edge.
        """
        return tuple(iter_bits(self.seen_in & ~self.seen_out | self.src_used & ~self.seen_in))

    def paths(self) -> list[tuple[int, ...]]:
        """Decompose the flow into vertex-disjoint paths, by ascending source."""
        paths = []
        for u in iter_bits(self.src_used):
            path = [u]
            while not self.sink_used >> path[-1] & 1:
                nxt = self.succ[path[-1]]
                if nxt < 0:
                    raise AssertionError("flow decomposition lost a path")
                path.append(nxt)
            paths.append(tuple(path))
        return paths


def _solve_menger(d: Digraph, sources: list[int], sinks: list[int], avoid_mask: int):
    want = len(sinks)
    if want == 0:
        return PathSystem(())
    net = _SplitFlow(d, sources, sinks, avoid_mask)
    flow = net.run(want)
    if flow < want:
        sep = net.separator()
        free_part = [v for v in sep if not avoid_mask >> v & 1]
        if len(free_part) != flow:
            raise AssertionError("non-avoided separator part must match max flow")
        return Infeasible(separator=sep)
    return PathSystem(tuple(net.paths()))


def menger_set_paths(d: Digraph, xs: Iterable[int], ys: Iterable[int],
                     avoid: Iterable[int] = ()) -> PathSystem | Infeasible:
    """|X| vertex-disjoint paths from X onto Y avoiding ``avoid``.

    Full disjointness, endpoints included.  Returns Infeasible carrying a
    separating set when no such system exists; its part outside ``avoid``
    is smaller than |X| (avoided vertices that block appear alongside).
    """
    xs, ys = list(xs), list(ys)
    if len(xs) != len(ys):
        raise InputError(f"|X|={len(xs)} but |Y|={len(ys)}")
    *_, avoid_mask = _validate_sets(d, [("X", xs), ("Y", ys), ("avoid", avoid)])
    return _solve_menger(d, sorted(xs), sorted(ys), avoid_mask)


def min_vertex_menger(d: Digraph, us: Iterable[int], ys: Iterable[int],
                      avoid: Iterable[int] = ()) -> PathSystem | Infeasible:
    """|Y| disjoint U-to-Y paths of minimum total vertex count.

    Paths may start anywhere in U (one per sink).  Unit vertex costs in the
    flow network make the minimum exact; as a consequence no interior or
    terminal vertex of the result lies in U, which is checked.
    """
    us, ys = list(us), list(ys)
    if len(us) < len(ys):
        raise InputError(f"need |U| >= |Y|, got {len(us)} < {len(ys)}")
    *_, avoid_mask = _validate_sets(d, [("U", us), ("Y", ys), ("avoid", avoid)])
    result = _solve_menger(d, sorted(us), sorted(ys), avoid_mask)
    if isinstance(result, PathSystem):
        bad = sorted(set(us).intersection(v for p in result.paths for v in p[1:]))
        if bad:
            raise AssertionError(f"minimum system revisits start set at {bad}")
    return result
