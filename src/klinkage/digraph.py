"""Digraph representation and class predicates.

Vertices are stable integer ids 0..n-1.  Deletion is logical: a vertex
leaves the alive set but surviving vertices are never renumbered, so vertex
sets can be passed freely between nested subdigraphs.  Adjacency is stored
as per-vertex bitmasks, which keeps the dense operations (semicompleteness,
neighbourhood intersections, reachability) cheap for the semicomplete-style
inputs this library targets.

Digraph values are immutable after construction; every "mutation" returns a
new value sharing nothing mutable, so instances are safe to share across
threads or processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import (
    ArityMismatchError,
    BudgetExceededError,
    DuplicateArcError,
    InputError,
    NotACompositionError,
    NotAPartitionError,
    NotSemicompleteError,
    PartOverlapError,
    SelfLoopError,
    VertexOutOfRangeError,
)

__all__ = [
    "Digraph",
    "CompositionSpec",
    "build_digraph",
    "compose",
    "composition_from_digraph",
    "is_semicomplete",
    "is_tournament",
    "is_l_quasi_transitive",
    "spanning_tournament",
    "induced",
    "delete",
]

# Paths the l-quasi-transitivity search may push before it gives up; the
# same number as the exhaustive linkage oracle's default budget.
LQT_EXPANSION_BUDGET = 2_000_000


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Digraph:
    """A simple digraph: no loops, at most one arc per ordered pair.

    2-cycles are allowed (as two arcs).  ``n`` is the id capacity; the
    alive mask selects which ids are present.
    """

    __slots__ = ("n", "_alive", "_out", "_in")

    def __init__(self, n: int, alive: int, out_masks: list[int], in_masks: list[int]):
        self.n = n
        self._alive = alive
        self._out = out_masks
        self._in = in_masks

    # -- construction ----------------------------------------------------

    @classmethod
    def from_arcs(cls, n: int, arcs: Iterable[tuple[int, int]]) -> "Digraph":
        if n < 0:
            raise VertexOutOfRangeError(f"negative vertex count {n}")
        out = [0] * n
        inc = [0] * n
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise VertexOutOfRangeError(f"arc ({u},{v}) outside 0..{n - 1}")
            if u == v:
                raise SelfLoopError(f"self-loop at {u}")
            bit = 1 << v
            if out[u] & bit:
                raise DuplicateArcError(f"arc ({u},{v}) listed twice")
            out[u] |= bit
            inc[v] |= 1 << u
        return cls(n, (1 << n) - 1, out, inc)

    def _replace(self, alive: int, out: list[int], inc: list[int]) -> "Digraph":
        return Digraph(self.n, alive, out, inc)

    # -- basic queries ----------------------------------------------------

    @property
    def alive_mask(self) -> int:
        return self._alive

    @property
    def order(self) -> int:
        return self._alive.bit_count()

    def vertices(self) -> Iterator[int]:
        return iter_bits(self._alive)

    def has_vertex(self, v: int) -> bool:
        return 0 <= v < self.n and bool(self._alive >> v & 1)

    def has_arc(self, u: int, v: int) -> bool:
        return self.has_vertex(u) and bool(self._out[u] >> v & 1)

    def is_adjacent(self, u: int, v: int) -> bool:
        return self.has_arc(u, v) or self.has_arc(v, u)

    def out_mask(self, v: int) -> int:
        return self._out[v]

    def in_mask(self, v: int) -> int:
        return self._in[v]

    def out_neighbors(self, v: int) -> list[int]:
        return list(iter_bits(self._out[v]))

    def in_neighbors(self, v: int) -> list[int]:
        return list(iter_bits(self._in[v]))

    def out_degree(self, v: int) -> int:
        return self._out[v].bit_count()

    def in_degree(self, v: int) -> int:
        return self._in[v].bit_count()

    def min_out_degree(self) -> int:
        return min(self._out[v].bit_count() for v in self.vertices())

    @property
    def num_arcs(self) -> int:
        return sum(self._out[v].bit_count() for v in iter_bits(self._alive))

    def arcs(self) -> list[tuple[int, int]]:
        return [(u, v) for u in self.vertices() for v in iter_bits(self._out[u])]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return (
            self.n == other.n
            and self._alive == other._alive
            and all(self._out[v] == other._out[v] for v in self.vertices())
        )

    __hash__ = None  # unhashable: no caller keys on digraphs; __eq__ compares values

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, order={self.order}, arcs={self.num_arcs})"

    # -- derived digraphs -------------------------------------------------

    def _check_vertices(self, vs: Iterable[int]) -> int:
        m = 0
        for v in vs:
            if not self.has_vertex(v):
                raise VertexOutOfRangeError(f"vertex {v} not in digraph")
            m |= 1 << v
        return m

    def induced(self, keep: Iterable[int]) -> "Digraph":
        keep_mask = self._check_vertices(keep)
        return self._restrict(keep_mask)

    def delete(self, drop: Iterable[int]) -> "Digraph":
        drop_mask = self._check_vertices(drop)
        return self._restrict(self._alive & ~drop_mask)

    def _restrict(self, alive: int) -> "Digraph":
        out = [self._out[v] & alive if alive >> v & 1 else 0 for v in range(self.n)]
        inc = [self._in[v] & alive if alive >> v & 1 else 0 for v in range(self.n)]
        return self._replace(alive, out, inc)

    def add_arcs(self, arcs: Iterable[tuple[int, int]]) -> "Digraph":
        out = list(self._out)
        inc = list(self._in)
        for u, v in arcs:
            if not (self.has_vertex(u) and self.has_vertex(v)):
                raise VertexOutOfRangeError(f"arc ({u},{v}) touches a missing vertex")
            if u == v:
                raise SelfLoopError(f"self-loop at {u}")
            out[u] |= 1 << v
            inc[v] |= 1 << u
        return self._replace(self._alive, out, inc)

    def shifted(self, offset: int, capacity: int) -> "Digraph":
        """Re-embed this digraph with all ids moved up by ``offset``."""
        if offset < 0 or self.n + offset > capacity:
            raise VertexOutOfRangeError("shift does not fit in capacity")
        out = [0] * capacity
        inc = [0] * capacity
        for v in self.vertices():
            out[v + offset] = self._out[v] << offset
            inc[v + offset] = self._in[v] << offset
        return Digraph(capacity, self._alive << offset, out, inc)

    # -- reachability -----------------------------------------------------

    def reach_mask(self, start: int, forward: bool = True) -> int:
        """Bitmask of vertices reachable from ``start`` (inclusive)."""
        adj = self._out if forward else self._in
        seen = 1 << start
        frontier = seen
        while frontier:
            nxt = 0
            for v in iter_bits(frontier):
                nxt |= adj[v]
            nxt &= self._alive & ~seen
            seen |= nxt
            frontier = nxt
        return seen

    def is_strong(self) -> bool:
        if self._alive == 0:
            return False
        v0 = (self._alive & -self._alive).bit_length() - 1
        if self.reach_mask(v0, forward=True) != self._alive:
            return False
        return self.reach_mask(v0, forward=False) == self._alive

    def shortest_path(self, src: int, dst: int, forbidden: int = 0, max_len: int | None = None,
                      skip_direct: bool = False) -> list[int] | None:
        """Lexicographically smallest shortest src->dst path, or None.

        Interior vertices avoid ``forbidden``; the path has at most
        ``max_len`` arcs when that is given, and ``skip_direct`` rules out
        the arc src->dst itself.  The BFS levels are masks, each the OR of
        the out-masks of the level before.  The vertices of each level that
        lie on some shortest path are then found backwards from dst, and
        the path is walked forwards taking the lowest of them at each step:
        the path a BFS that scans out-neighbours in ascending order returns.
        """
        if src == dst:
            return [src]
        out, dst_bit = self._out, 1 << dst
        allowed = self._alive & ~forbidden | dst_bit
        seen = 1 << src
        levels = [seen]
        reach = out[src] & ~dst_bit if skip_direct else out[src]
        while True:
            frontier = reach & allowed & ~seen
            if frontier & dst_bit:
                break
            if not frontier or len(levels) == max_len:
                return None
            levels.append(frontier)
            seen |= frontier
            reach = 0
            for u in iter_bits(frontier):
                reach |= out[u]
        on_path = [dst_bit]  # per level, from the last: vertices on a shortest path
        for level in reversed(levels[1:]):
            into = 0
            for w in iter_bits(on_path[-1]):
                into |= self._in[w]
            on_path.append(level & into)
        path = [src]
        for mask in reversed(on_path):
            step = out[path[-1]] & mask
            path.append((step & -step).bit_length() - 1)
        return path


def build_digraph(n: int, arcs: Iterable[tuple[int, int]]) -> Digraph:
    """Construct a digraph on ids 0..n-1 with exactly the given arcs."""
    return Digraph.from_arcs(n, arcs)


def induced(d: Digraph, keep: Iterable[int]) -> Digraph:
    return d.induced(keep)


def delete(d: Digraph, drop: Iterable[int]) -> Digraph:
    return d.delete(drop)


# -- class predicates -----------------------------------------------------


def is_semicomplete(d: Digraph) -> bool:
    """True iff every pair of distinct alive vertices is joined by an arc."""
    alive = d.alive_mask
    for v in d.vertices():
        others = alive & ~(1 << v)
        if (d.out_mask(v) | d.in_mask(v)) & others != others:
            return False
    return True


def is_tournament(d: Digraph) -> bool:
    """Semicomplete with no 2-cycles: exactly one arc per pair."""
    if not is_semicomplete(d):
        return False
    return all(d.out_mask(v) & d.in_mask(v) == 0 for v in d.vertices())


def is_l_quasi_transitive(d: Digraph, l: int) -> bool:
    """True iff every pair joined by a path of exactly ``l`` arcs is adjacent.

    ``l`` = 2 is ordinary quasi-transitivity; ``l`` = 1 is read as
    semicompleteness (the conventional identification; the literal
    exact-length reading is vacuous at length one).  A witness ends at a
    non-neighbour of its start u, so only such u search: each simple path
    of l - 1 arcs from u ends in one mask test for an arc to an unused
    non-neighbour.  Past ``LQT_EXPANSION_BUDGET`` pushed paths the search
    raises ``BudgetExceededError``.
    """
    if l < 1:
        raise InputError("path length must be at least 1")
    if l == 1:
        return is_semicomplete(d)
    if l >= d.order:  # a path of l arcs needs l + 1 vertices
        return True
    alive, out, inc = d._alive, d._out, d._in
    budget, pushed = LQT_EXPANSION_BUDGET, 0
    for u in iter_bits(alive):
        bad = alive & ~(out[u] | inc[u] | 1 << u)
        if not bad:
            continue
        stack = [(u, 1 << u, 0)]
        while stack:
            v, used, depth = stack.pop()
            if depth == l - 1:
                if out[v] & bad & ~used:
                    return False
                continue
            step = out[v] & ~used
            pushed += step.bit_count()
            if pushed > budget:
                raise BudgetExceededError(pushed, budget)
            for w in iter_bits(step):
                stack.append((w, used | 1 << w, depth + 1))
    return True


def spanning_tournament(d: Digraph) -> Digraph:
    """Drop one arc from every 2-cycle: the arc from larger to smaller id goes.

    The tie-break makes the output deterministic; any spanning tournament
    would do for the dominator constructions built on top of this.  Each
    vertex's masks are computed directly: v keeps its out-arcs except those
    to smaller in-neighbours, and its in-arcs from smaller vertices or from
    vertices it does not point to.
    """
    if not is_semicomplete(d):
        raise NotSemicompleteError("spanning tournament needs a semicomplete digraph")
    out = [0] * d.n
    inc = [0] * d.n
    for v in d.vertices():
        below = (1 << v) - 1
        out_v, in_v = d.out_mask(v), d.in_mask(v)
        out[v] = out_v & ~(in_v & below)
        inc[v] = in_v & (below | ~out_v)
    return Digraph(d.n, d.alive_mask, out, inc)


# -- compositions ----------------------------------------------------------


@dataclass(frozen=True)
class CompositionSpec:
    """An outer digraph plus pre-embedded parts describing a composition.

    ``outer`` lives on ids 0..h-1; ``parts[i]`` is a digraph over the shared
    realization id space whose alive set is the i-th part.  Part alive sets
    must be pairwise disjoint.
    """

    outer: Digraph
    parts: tuple[Digraph, ...]

    @classmethod
    def from_local_parts(cls, outer: Digraph, local_parts: Sequence[Digraph]) -> "CompositionSpec":
        """Embed locally-numbered parts consecutively into one id space."""
        capacity = sum(p.n for p in local_parts)
        embedded = []
        offset = 0
        for p in local_parts:
            embedded.append(p.shifted(offset, capacity))
            offset += p.n
        return cls(outer, tuple(embedded))

    def part_vertex_ids(self) -> list[list[int]]:
        return [list(p.vertices()) for p in self.parts]


def compose(spec: CompositionSpec) -> Digraph:
    """Realize the composition: part arcs plus full bundles along outer arcs."""
    h = spec.outer.order
    if h < 2:
        raise ArityMismatchError("outer digraph needs at least 2 vertices")
    if h != len(spec.parts):
        raise ArityMismatchError(f"outer has {h} vertices but {len(spec.parts)} parts given")
    capacities = {p.n for p in spec.parts}
    if len(capacities) != 1:
        raise PartOverlapError("parts must share one id space")
    capacity = capacities.pop()

    alive = 0
    for p in spec.parts:
        if alive & p.alive_mask:
            raise PartOverlapError("part vertex sets overlap")
        alive |= p.alive_mask

    outer_ids = list(spec.outer.vertices())
    part_index = {hid: i for i, hid in enumerate(outer_ids)}
    out = [0] * capacity
    inc = [0] * capacity
    for p in spec.parts:
        for v in p.vertices():
            out[v] |= p.out_mask(v)
            inc[v] |= p.in_mask(v)
    for hi in outer_ids:
        for hj in iter_bits(spec.outer.out_mask(hi)):
            src_mask = spec.parts[part_index[hi]].alive_mask
            dst_mask = spec.parts[part_index[hj]].alive_mask
            for v in iter_bits(src_mask):
                out[v] |= dst_mask
            for w in iter_bits(dst_mask):
                inc[w] |= src_mask
    return Digraph(capacity, alive, out, inc)


def partition_masks(d: Digraph, parts: Iterable[Iterable[int]]) -> list[int]:
    """Each part's vertex mask, once the parts are checked to partition d."""
    masks = [mask_of(p) for p in parts]
    union = 0
    for m in masks:
        if m & union:
            raise NotAPartitionError("part vertex sets overlap")
        union |= m
    if union != d.alive_mask:
        raise NotAPartitionError("parts do not cover the digraph")
    return masks


def composition_from_digraph(d: Digraph, part_ids: Sequence[Iterable[int]]) -> CompositionSpec:
    """Recover a CompositionSpec from a realized digraph and its part lists.

    Validates the all-or-nothing bundle property between every ordered pair
    of parts.
    """
    masks = partition_masks(d, part_ids)
    h = len(masks)
    outer_arcs = []
    for i in range(h):
        for j in range(h):
            if i == j:
                continue
            cross = sum((d.out_mask(v) & masks[j]).bit_count() for v in iter_bits(masks[i]))
            full = masks[i].bit_count() * masks[j].bit_count()
            if cross == full:
                outer_arcs.append((i, j))
            elif cross != 0:
                raise NotACompositionError(
                    f"parts {i}->{j}: {cross} of {full} cross arcs present"
                )
    outer = Digraph.from_arcs(h, outer_arcs)
    parts = tuple(d.induced(iter_bits(m)) for m in masks)
    return CompositionSpec(outer, parts)
