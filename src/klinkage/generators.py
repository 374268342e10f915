"""Seeded digraph generators.

Every generator is a pure function of its arguments: the RNG is an explicit
splitmix64 stream, so identical seeds give byte-identical digraphs on every
platform and Python version.  Seeds should be echoed into any artifact
written from generated digraphs so runs can be replayed.
"""

from __future__ import annotations

from .digraph import CompositionSpec, Digraph
from .errors import BudgetExceededError, ConstructionFailedError, InputError, PreconditionViolatedError

__all__ = [
    "SplitMix64",
    "random_digraph",
    "random_tournament",
    "circulant_tournament",
    "random_semicomplete",
    "random_composition",
    "random_extended_tournament",
    "non_linked_family",
]

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64: 64-bit state, one multiply-xorshift chain per draw."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def bit(self) -> int:
        return self.next_u64() >> 63

    def uniform(self) -> float:
        return (self.next_u64() >> 11) / float(1 << 53)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), by rejection."""
        if n <= 0:
            raise InputError("randrange needs a positive bound")
        limit = _MASK64 + 1 - (_MASK64 + 1) % n
        while True:
            draw = self.next_u64()
            if draw < limit:
                return draw % n

    def sample(self, population: list[int], k: int) -> list[int]:
        """k distinct elements, partial Fisher-Yates order."""
        pool = list(population)
        if k > len(pool):
            raise InputError("sample larger than population")
        out = []
        for _ in range(k):
            idx = self.randrange(len(pool))
            out.append(pool.pop(idx))
        return out


def random_digraph(n: int, seed: int, tenths: int) -> Digraph:
    """Each ordered pair of distinct vertices gets an arc with probability
    tenths/10, one draw per pair in row-major order."""
    rng = SplitMix64(seed)
    return Digraph.from_arcs(
        n, [(u, v) for u in range(n) for v in range(n) if u != v and rng.randrange(10) < tenths]
    )


def random_tournament(n: int, seed: int) -> Digraph:
    """Orient each unordered pair by one RNG bit."""
    if n < 1:
        raise InputError("tournament needs at least one vertex")
    rng = SplitMix64(seed)
    arcs = []
    for i in range(n):
        for j in range(i + 1, n):
            arcs.append((i, j) if rng.bit() else (j, i))
    return Digraph.from_arcs(n, arcs)


def circulant_tournament(n: int) -> Digraph:
    """Rotational tournament: i dominates the next (n-1)/2 ids cyclically."""
    if n % 2 == 0:
        raise InputError(f"circulant tournament needs odd order, got {n}")
    if n < 3:
        raise InputError("circulant tournament needs at least 3 vertices")
    half = (n - 1) // 2
    arcs = [(i, (i + d) % n) for i in range(n) for d in range(1, half + 1)]
    return Digraph.from_arcs(n, arcs)


def _semicomplete_arcs(rng: SplitMix64, n: int, p_double: float) -> list[tuple[int, int]]:
    """Per pair, one bit orients it and one uniform draw below p_double adds the reverse arc."""
    if not 0.0 <= p_double <= 1.0:
        raise InputError("p_double must lie in [0, 1]")
    arcs = []
    for i in range(n):
        for j in range(i + 1, n):
            fwd = bool(rng.bit())
            arcs.append((i, j) if fwd else (j, i))
            if rng.uniform() < p_double:
                arcs.append((j, i) if fwd else (i, j))
    return arcs


def random_semicomplete(n: int, p_double: float, seed: int) -> Digraph:
    """Random tournament plus, per pair, the reverse arc with probability p_double."""
    return Digraph.from_arcs(n, _semicomplete_arcs(SplitMix64(seed), n, p_double))


def random_composition(
    h: int,
    part_sizes: list[int],
    p_double: float,
    seed: int,
    part_arcs: bool = False,
) -> CompositionSpec:
    """Random semicomplete outer digraph with arcless or random parts.

    With ``part_arcs`` each ordered intra-part pair gets an arc with
    probability 1/2, drawn from the same stream after the outer digraph.
    """
    if h != len(part_sizes):
        raise InputError(f"h={h} but {len(part_sizes)} part sizes given")
    if h < 2:
        raise InputError("a composition needs at least 2 parts")
    rng = SplitMix64(seed)
    outer = Digraph.from_arcs(h, _semicomplete_arcs(rng, h, p_double))

    local_parts = []
    for size in part_sizes:
        if size < 1:
            raise InputError("part sizes must be positive")
        arcs = []
        if part_arcs:
            for a in range(size):
                for b in range(size):
                    if a != b and rng.uniform() < 0.5:
                        arcs.append((a, b))
        local_parts.append(Digraph.from_arcs(size, arcs))
    return CompositionSpec.from_local_parts(outer, local_parts)


def random_extended_tournament(h: int, part_sizes: list[int], seed: int) -> CompositionSpec:
    """Tournament outer digraph with arcless parts.

    This family is quasi-transitive: the only non-adjacent pairs sit inside
    one part, and any intermediate-vertex chain between them routes through
    outer 3-cycles, never length 2.  It is the synthetic substrate for the
    quasi-transitive solvers.
    """
    return random_composition(h, part_sizes, 0.0, seed, part_arcs=False)


def _default_core() -> Digraph:
    # directed 4-cycle: strong, not 2-linked
    return Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def non_linked_family(
    k: int, core: Digraph | None = None
) -> tuple[CompositionSpec, list[tuple[int, int]]]:
    """Family of strong compositions that are not k-linked despite one huge part.

    The outer digraph has 2k-3 vertices: a transitive block on the first
    2k-4, with 2-cycles between the last vertex and all others.  All parts
    are single vertices except the last, which carries ``core``: a strong
    digraph that is not 2-linked.  Returns the composition spec together with the
    terminal assignment that cannot be linked: the exhaustive oracle finds
    core-local pairs (u, v), (x, y) admitting no disjoint (u, v)- and
    (x, y)-paths.
    """
    if k < 3:
        raise InputError(f"k={k}: the outer digraph would have fewer than 3 vertices")
    if core is None:
        core = _default_core()
    if core.alive_mask != (1 << core.n) - 1:
        raise InputError("core must use all ids 0..n-1")
    if not core.is_strong():
        raise PreconditionViolatedError("core digraph is not strong")

    from .verify import brute_force_k_linked

    try:
        res = brute_force_k_linked(core, 2)
    except BudgetExceededError as exc:
        raise ConstructionFailedError("could not certify the core as non-2-linked in budget") from exc
    if res is True:
        raise ConstructionFailedError("core digraph is 2-linked")
    (u, v), (x, y) = res

    r = 2 * k - 3
    outer_arcs = [(i, j) for i in range(r - 1) for j in range(i + 1, r - 1)]
    outer_arcs += [(i, r - 1) for i in range(r - 1)]
    outer_arcs += [(r - 1, i) for i in range(r - 1)]
    outer = Digraph.from_arcs(r, outer_arcs)

    parts = [Digraph.from_arcs(1, []) for _ in range(r - 1)] + [core]
    spec = CompositionSpec.from_local_parts(outer, parts)

    off = r - 1  # core ids shift by the number of single-vertex parts
    bad_pairs = []
    for i in range(1, k - 1):
        bad_pairs.append((2 * i - 1, 2 * i - 2))  # outer ids of v_{2i}, v_{2i-1}
    bad_pairs.append((u + off, v + off))
    bad_pairs.append((x + off, y + off))
    return spec, bad_pairs
