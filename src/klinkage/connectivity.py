"""Exact vertex connectivity and Menger-style disjoint path systems.

Local connectivity is unit-capacity max flow on the vertex-split network
(the bitset kernel in ``_kernel``).  The set-to-set routines run a
successive-shortest-path min-cost flow with unit vertex costs and Dijkstra
potentials (Suurballe & Tarjan, Networks 1984) on that network, which is
never built: each search reads its edges off the Digraph's masks and
settles node masks, bucket by bucket (Dial, CACM 1969), in the order of a
per-node heap (see ``_SplitFlow``).  So the minimum-total-vertex variant
the linkage pipelines need is exact and the plain variant deterministic.
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


def _pot_of(pot: list[tuple[int, int]], node: int) -> int:
    return next(p for p, m in pot if m >> node & 1)


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
    """

    def __init__(self, d: Digraph, sources: list[int], sinks: list[int], avoid_mask: int):
        n = self.n = d.n
        self.out, self.alive, self.avoid = d._out, d._alive, avoid_mask
        self.source_mask, self.sink_mask = mask_of(sources), mask_of(sinks)
        self.pot = {0: (1 << (2 * n + 2)) - 1}
        self.succ, self.pred = [-1] * n, [-1] * n
        self.used = self.src_used = self.sink_used = self.seen_in = self.seen_out = 0

    def _shortest(self):
        """Dijkstra from the source under reduced costs, run to exhaustion.

        Returns the sink's distance (None if unreached), the (distance, nodes
        settled there) levels, the log and the mask of settled nodes.
        """
        n, pred, used = self.n, self.pred, self.used
        full = (1 << n) - 1
        src, snk = 2 * n, 2 * n + 1
        pot = list(self.pot.items())
        open_ = full & ~(self.avoid | used)
        single = used | self.sink_mask & ~self.sink_used
        buckets: list[int] = []
        log = []  # (improver, improved mask); improver -1: entry(v) for exit(v)
        for q, m in pot:
            _relax(buckets, log, 0, _pot_of(pot, src) - q,
                   self.source_mask & ~self.src_used & m, src)
        settled, levels, top, cur = 1 << src, [(0, 1 << src)], None, -1
        while cur + 1 < len(buckets):
            cur += 1
            before = settled
            while live := buckets[cur] & ~settled:
                if ent := live & full:
                    settled |= ent
                    for p, m in pot:
                        split = ent & open_ & m
                        for q, mq in pot:
                            if hit := split & mq >> n:
                                _relax(buckets, log, cur, cur + p + 1 - q, hit << n, -1)
                    for u in iter_bits(ent & used):
                        if pred[u] >= 0:  # reverse flow arc entry(u) -> exit(pred[u])
                            x = pred[u] + n
                            nd = cur + _pot_of(pot, u) - _pot_of(pot, x)
                            _relax(buckets, log, cur, nd, 1 << x, u)
                elif exits := live >> n & full:
                    # exits of a class p >= bar are idle: each waiting entry
                    # of class q is queued at or below cur + bar - q
                    waiting, bar = self.alive & ~settled, -1 << n
                    for q, mq in pot:
                        rest, k = waiting & mq, cur
                        while rest and k < len(buckets):
                            rest &= ~buckets[k]
                            k += 1
                        if rest:
                            break
                        if k > cur:
                            bar = max(bar, q + k - 1 - cur)
                    else:
                        idle = exits & ~single & sum(m for p, m in pot if p >= bar) >> n
                        exits ^= idle
                        settled |= idle << n
                    if exits:
                        x = (exits & -exits).bit_length() - 1
                        settled |= 1 << (x + n)
                        self._relax_exit(x, cur, settled, buckets, pot, log)
                else:  # the sink (the source was settled first)
                    settled |= 1 << snk
                    top = cur
                    for q, m in pot:  # reverse sink edges
                        nd = cur + _pot_of(pot, snk) - q
                        _relax(buckets, log, cur, nd, self.sink_used << n & m, snk)
            if settled != before:
                levels.append((cur, settled & ~before))
        return top, levels, log, settled

    def _relax_exit(self, x: int, cur: int, settled: int, buckets: list[int], pot, log) -> None:
        """Relax the edges out of exit(x), popped alone at distance ``cur``."""
        u, snk = x + self.n, 2 * self.n + 1
        base = cur + _pot_of(pot, u)
        if self.used >> x & 1:  # reverse split edge
            _relax(buckets, log, cur, base - 1 - _pot_of(pot, x), 1 << x & ~settled, u)
        if (self.sink_mask & ~self.sink_used) >> x & 1:
            _relax(buckets, log, cur, base - _pot_of(pot, snk), 1 << snk & ~settled, u)
        rest = self.out[x] & ~settled
        for q, m in pot:
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
            top, levels, log, settled = self._shortest()
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
