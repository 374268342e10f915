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
from functools import reduce
from itertools import compress
from typing import Iterable, Iterator, Sequence

from .errors import Budget, InputError, PreconditionViolatedError

__all__ = [
    "Digraph",
    "CompositionSpec",
    "compose",
    "composition_from_digraph",
    "is_semicomplete",
    "is_tournament",
    "is_l_quasi_transitive",
    "spanning_tournament",
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


def _union(rows: Sequence[int], mask: int) -> int:
    """The OR of ``rows[v]`` over the set bits v of ``mask``: one BFS level,
    the full bundle of a part set, the in-reach of a vertex set."""
    acc = 0
    while mask:
        low = mask & -mask
        acc |= rows[low.bit_length() - 1]
        mask ^= low
    return acc


_FLAG = bytes.maketrans(b"01", b"\0\1")


def _flags(mask: int) -> bytes:
    """Byte i is 1 when bit i of ``mask`` is set, else 0: the selectors
    that make ``compress(masks, _flags(alive))`` the rows of ``alive``."""
    return bin(mask)[:1:-1].encode().translate(_FLAG)


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
        """The digraph on ids 0..n-1 with exactly ``arcs``, checked one arc
        at a time: the first arc out of range, a self-loop or a repeat raises."""
        if n < 0:
            raise InputError(f"negative vertex count {n}")
        out = [0] * n
        inc = [0] * n
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"arc ({u},{v}) outside 0..{n - 1}", vertices=(u, v))
            if u == v:
                raise InputError(f"self-loop at {u}", vertices=(u,))
            bit = 1 << v
            if out[u] & bit:
                raise InputError(f"arc ({u},{v}) listed twice", vertices=(u, v))
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
        return self.has_vertex(u) and self.has_vertex(v) and bool(self._out[u] >> v & 1)

    def out_mask(self, v: int) -> int:
        return self._out[v]

    def in_mask(self, v: int) -> int:
        return self._in[v]

    def out_degree(self, v: int) -> int:
        return self._out[v].bit_count()

    def in_degree(self, v: int) -> int:
        return self._in[v].bit_count()

    def min_out_degree(self) -> int:
        return min(map(int.bit_count, compress(self._out, _flags(self._alive))))

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
                raise InputError(f"vertex {v} not in digraph", vertices=(v,))
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
                raise InputError(f"arc ({u},{v}) touches a missing vertex", vertices=(u, v))
            if u == v:
                raise InputError(f"self-loop at {u}", vertices=(u,))
            out[u] |= 1 << v
            inc[v] |= 1 << u
        return self._replace(self._alive, out, inc)

    # -- reachability -----------------------------------------------------

    def reach_mask(self, start: int, forward: bool = True) -> int:
        """Bitmask of vertices reachable from ``start`` (inclusive)."""
        adj = self._out if forward else self._in
        seen = 1 << start
        frontier = seen
        while frontier:
            frontier = _union(adj, frontier) & self._alive & ~seen
            seen |= frontier
        return seen

    def is_strong(self) -> bool:
        if self._alive == 0:
            return False
        v0 = (self._alive & -self._alive).bit_length() - 1
        if self.reach_mask(v0, forward=True) != self._alive:
            return False
        return self.reach_mask(v0, forward=False) == self._alive

    def shortest_path(self, src: int, dst: int, forbidden: int = 0) -> list[int] | None:
        """Lexicographically smallest shortest src->dst path, or None.

        Interior vertices avoid ``forbidden``.  The BFS levels are masks,
        each the OR of the out-masks of the level before.  The vertices of
        each level that lie on some shortest path are then found backwards
        from dst, and the path is walked forwards taking the lowest of them
        at each step: the path a BFS that scans out-neighbours in ascending
        order returns.
        """
        if src == dst:
            return [src]
        out, dst_bit = self._out, 1 << dst
        allowed = self._alive & ~forbidden | dst_bit
        seen = 1 << src
        levels = [seen]
        reach = out[src]
        while True:
            frontier = reach & allowed & ~seen
            if frontier & dst_bit:
                break
            if not frontier:
                return None
            levels.append(frontier)
            seen |= frontier
            reach = _union(out, frontier)
        on_path = [dst_bit]  # per level, from the last: vertices on a shortest path
        for level in reversed(levels[1:]):
            on_path.append(level & _union(self._in, on_path[-1]))
        path = [src]
        for mask in reversed(on_path):
            step = out[path[-1]] & mask
            path.append((step & -step).bit_length() - 1)
        return path


# -- class predicates -----------------------------------------------------


def is_semicomplete(d: Digraph) -> bool:
    """True iff every pair of distinct alive vertices is joined by an arc.

    No row holds its own vertex, so each of the |alive| rows of
    ``(out | in) & alive`` has at most |alive| - 1 bits, and their total
    reaches |alive| * (|alive| - 1) exactly when every row is full.
    """
    alive = d._alive
    flags, count = _flags(alive), alive.bit_count()
    rows = map(int.__or__, compress(d._out, flags), compress(d._in, flags))
    return sum(map(int.bit_count, map(alive.__and__, rows))) == count * (count - 1)


def is_tournament(d: Digraph) -> bool:
    """Semicomplete with no 2-cycles: exactly one arc per pair."""
    count = d.order
    return is_semicomplete(d) and d.num_arcs == count * (count - 1) // 2


def is_l_quasi_transitive(d: Digraph, l: int) -> bool:
    """True iff every pair joined by a path of exactly ``l`` arcs is adjacent.

    ``l`` = 2 is ordinary quasi-transitivity; ``l`` = 1 is read as
    semicompleteness (the conventional identification; the literal
    exact-length reading is vacuous at length one).  A witness ends at a
    non-neighbour of its start u, so only such u search: each simple path
    of l - 2 arcs from u, ending at v, takes its last two arcs v -> x -> w
    in one mask test, an unused out-neighbour x of v in the in-rows of the
    unused non-neighbours w.  For l = 2 that path is u alone, so nothing is
    pushed.  Past ``LQT_EXPANSION_BUDGET`` pushed paths the search raises
    ``BudgetExceededError``.
    """
    if l < 1:
        raise InputError("path length must be at least 1")
    if l == 1:
        return is_semicomplete(d)
    if l >= d.order:  # a path of l arcs needs l + 1 vertices
        return True
    alive, out, inc = d._alive, d._out, d._in
    spend = Budget(LQT_EXPANSION_BUDGET).spend
    for u in iter_bits(alive):
        bad = alive & ~(out[u] | inc[u] | 1 << u)
        if not bad:
            continue
        stack = [(u, 1 << u, 0)]
        while stack:
            v, used, depth = stack.pop()
            if depth == l - 2:  # the last two arcs: a middle into an unused non-neighbour
                if out[v] & _union(inc, bad & ~used) & ~used:
                    return False
                continue
            step = out[v] & ~used
            spend(step.bit_count())
            for w in iter_bits(step):
                stack.append((w, used | 1 << w, depth + 1))
    return True


def _spanning_in_masks(d: Digraph, alive: int) -> tuple[list[int], list[int]] | None:
    """The ids of the mask ``alive`` and their in-masks in the spanning
    tournament of d on ``alive``, or None when d is not semicomplete there.

    v loses the in-arcs from the larger ids it also points to, so a pair
    leaves exactly one bit when it is adjacent and none when it is not: the
    in-masks hold |alive| * (|alive| - 1) / 2 bits exactly when every pair
    is adjacent.
    """
    flags = _flags(alive)
    ids = list(compress(range(d.n), flags))
    tins = [in_v & ~(out_v >> v << v) & alive
            for v, out_v, in_v in zip(ids, compress(d._out, flags), compress(d._in, flags))]
    count = len(ids)
    if sum(map(int.bit_count, tins)) < count * (count - 1) // 2:
        return None
    return ids, tins


def spanning_tournament(d: Digraph) -> Digraph:
    """Drop one arc from every 2-cycle: the arc from larger to smaller id goes.

    The tie-break makes the output deterministic; any spanning tournament
    would do for the dominator constructions built on top of this.  v keeps
    its out-arcs except those to smaller in-neighbours, and its in-arcs are
    those of ``_spanning_in_masks``.
    """
    rows = _spanning_in_masks(d, d._alive)
    if rows is None:
        raise PreconditionViolatedError("spanning tournament needs a semicomplete digraph")
    out = [0] * d.n
    inc = [0] * d.n
    for v, tin in zip(*rows):
        out[v] = d._out[v] & ~(d._in[v] & ((1 << v) - 1))
        inc[v] = tin
    return Digraph(d.n, d.alive_mask, out, inc)


# -- compositions ----------------------------------------------------------


@dataclass(frozen=True)
class CompositionSpec:
    """A composition: an outer digraph whose vertices carry parts, realized.

    ``outer`` lives on ids 0..h-1.  ``digraph`` is the realized digraph: the
    part arcs, plus the full bundle from part i to part j along every outer
    arc.  ``part_masks[i]`` is the vertex mask, in ``digraph``, of the part
    the i-th alive outer vertex carries.  Build one with
    ``from_local_parts`` or recover one with ``composition_from_digraph``.
    """

    outer: Digraph
    digraph: Digraph
    part_masks: tuple[int, ...]

    @classmethod
    def from_local_parts(cls, outer: Digraph, local_parts: Sequence[Digraph]) -> "CompositionSpec":
        """Embed locally-numbered parts consecutively into one id space and
        realize the composition.

        The i-th alive outer vertex carries the i-th part.  Every vertex of a
        part keeps its part masks, shifted by the part's offset, ORed with
        the part masks over the outer out-neighbours (out-mask) and
        in-neighbours (in-mask) of its carrier.
        """
        h = outer.order
        if h < 2:
            raise InputError("outer digraph needs at least 2 vertices")
        if h != len(local_parts):
            raise InputError(f"outer has {h} vertices but {len(local_parts)} parts given")
        carriers = list(iter_bits(outer._alive))
        offsets = []
        part_mask = [0] * outer.n
        capacity = 0
        for hid, p in zip(carriers, local_parts):
            offsets.append(capacity)
            part_mask[hid] = p._alive << capacity
            capacity += p.n
        out = [0] * capacity
        inc = [0] * capacity
        for hid, p, offset in zip(carriers, local_parts, offsets):
            succ = _union(part_mask, outer._out[hid])
            pred = _union(part_mask, outer._in[hid])
            for v in iter_bits(p._alive):
                out[v + offset] = p._out[v] << offset | succ
                inc[v + offset] = p._in[v] << offset | pred
        masks = tuple(part_mask[hid] for hid in carriers)
        return cls(outer, Digraph(capacity, _union(part_mask, outer._alive), out, inc), masks)

    def part_vertex_ids(self) -> list[list[int]]:
        return [list(iter_bits(m)) for m in self.part_masks]


def compose(spec: CompositionSpec) -> Digraph:
    """The realized digraph of ``spec``, which the spec holds.  Kept because
    ``perfbench/workloads.py`` calls ``kl.compose(spec)``."""
    return spec.digraph


def partition_masks(d: Digraph, parts: Iterable[Iterable[int]]) -> list[int]:
    """Each part's vertex mask, once the parts are checked to partition d:
    every id is a vertex of d, no part repeats one, no two share one, and
    together they cover d."""
    masks = []
    union = 0
    for part in parts:
        m = 0
        for v in part:
            if not d.has_vertex(v):
                raise InputError(f"part vertex {v} not in digraph", vertices=(v,))
            if m >> v & 1:
                raise InputError(f"part repeats vertex {v}", vertices=(v,))
            m |= 1 << v
        if m & union:
            raise InputError("part vertex sets overlap")
        union |= m
        masks.append(m)
    if union != d.alive_mask:
        raise InputError("parts do not cover the digraph")
    return masks


def composition_from_digraph(d: Digraph, part_ids: Sequence[Iterable[int]]) -> CompositionSpec:
    """Recover a CompositionSpec from a realized digraph and its part lists.

    Validates the all-or-nothing bundle property between every ordered pair
    of parts: part i sends the full bundle to part j when j lies in the AND
    of i's out-rows, and none when j misses their OR.  Cross arcs are
    counted only to word the error.  The spec keeps ``d`` as its
    ``digraph`` and the checked part masks as its ``part_masks``.
    """
    masks = partition_masks(d, part_ids)
    h = len(masks)
    if h < 2:
        raise InputError("outer digraph needs at least 2 vertices")
    outer_arcs = []
    for i, m in enumerate(masks):
        some = _union(d._out, m)
        every = reduce(int.__and__, compress(d._out, _flags(m)), d._alive)
        for j, mj in enumerate(masks):
            if i == j:
                continue
            if not mj & ~every:
                outer_arcs.append((i, j))
            elif some & mj:
                cross = sum((d._out[v] & mj).bit_count() for v in iter_bits(m))
                raise InputError(
                    f"parts {i}->{j}: {cross} of {m.bit_count() * mj.bit_count()} "
                    "cross arcs present"
                )
    return CompositionSpec(Digraph.from_arcs(h, outer_arcs), d, tuple(masks))
