"""Ground truth: linkage certification and exhaustive disjoint-path search.

``verify_linkage`` certifies a path system against a digraph clause by
clause.  The brute-force searchers are exact backtracking that charges each
node expansion to an ``errors.Budget``, meant for small instances (the
solvers' outputs are cross-checked against them in tests, never the other
way around).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .digraph import Digraph, iter_bits
from .errors import Budget, InputError
from .paths import Infeasible, PathSystem, _pair_tuples

__all__ = [
    "LinkageReport",
    "verify_linkage",
    "brute_force_disjoint_paths",
    "brute_force_k_linked",
]

# Node expansions the brute-force searches may make by default.
_ORACLE_BUDGET = 2_000_000


@dataclass(frozen=True)
class LinkageReport:
    ok: bool
    clause: str | None = None
    detail: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_linkage(d: Digraph, pairs, ps: PathSystem) -> LinkageReport:
    """Certify: path i runs x_i to y_i, uses only arcs of d, all disjoint."""
    pairs = _pair_tuples(pairs)
    if len(ps.paths) != len(pairs):
        return LinkageReport(False, "Count", f"{len(ps.paths)} paths for {len(pairs)} pairs")
    for i, ((x, y), path) in enumerate(zip(pairs, ps.paths)):
        if not path or path[0] != x or path[-1] != y:
            return LinkageReport(False, "Pairing", f"path {i} does not run {x}->{y}")
        if len(set(path)) != len(path):
            dup = next(v for v in path if path.count(v) > 1)
            return LinkageReport(False, "Simple", f"path {i} repeats vertex {dup}")
        for u, v in zip(path, path[1:]):
            if not d.has_arc(u, v):
                return LinkageReport(False, "ArcMembership", f"path {i} uses missing arc ({u},{v})")
    seen: dict[int, int] = {}
    for i, path in enumerate(ps.paths):
        for v in path:
            if v in seen:
                return LinkageReport(
                    False, "Disjointness", f"vertex {v} on paths {seen[v]} and {i}"
                )
            seen[v] = i
    return LinkageReport(True)


def _search(d: Digraph, ordered_pairs, later_mask, idx: int, used: int, acc: list,
            budget: Budget, failed: set) -> bool:
    """Backtracking over pair index; each node pop spends one unit.

    ``failed`` memoizes (pair index, used-vertex mask) states already proven
    dead, so unions reached along different path orders are pruned.  A
    ``BudgetExceededError`` unwinds before the state it interrupts is
    memoized.
    """
    if idx == len(ordered_pairs):
        return True
    if (idx, used) in failed:
        return False
    x, y = ordered_pairs[idx]
    blocked = later_mask[idx] & ~(1 << y)  # terminals of later pairs stay free
    stack = [(x, 1 << x, (x,))]
    while stack:
        v, visited, path = stack.pop()
        budget.spend()
        if v == y:
            acc.append(path)
            if _search(d, ordered_pairs, later_mask, idx + 1, used | visited, acc, budget, failed):
                return True
            acc.pop()
            continue
        for w in iter_bits(d.out_mask(v) & ~visited & ~used & ~blocked):
            stack.append((w, visited | (1 << w), path + (w,)))
    failed.add((idx, used))
    return False


def _short_path_count(d: Digraph, x: int, y: int) -> int:
    direct = 1 if d.has_arc(x, y) else 0
    middles = (d.out_mask(x) & d.in_mask(y) & ~(1 << x) & ~(1 << y)).bit_count()
    return direct + middles


def _solve_pairs(d: Digraph, pairs, budget: Budget) -> PathSystem | Infeasible:
    """Hardest-first exhaustive search."""
    order = sorted(range(len(pairs)), key=lambda i: (_short_path_count(d, *pairs[i]), i))
    ordered = [pairs[i] for i in order]
    later_mask = []
    for i in range(len(ordered)):
        m = 0
        for x, y in ordered[i + 1:]:
            m |= (1 << x) | (1 << y)
        later_mask.append(m)
    acc: list[tuple[int, ...]] = []
    if not _search(d, ordered, later_mask, 0, 0, acc, budget, set()):
        return Infeasible()
    by_pair = dict(zip(ordered, acc))
    return PathSystem(tuple(by_pair[p] for p in pairs))


def brute_force_disjoint_paths(
    d: Digraph, pairs, budget: int = _ORACLE_BUDGET
) -> PathSystem | Infeasible:
    """Exhaustive backtracking for vertex-disjoint linking paths.

    Pairs with the fewest short connections are tried first to fail fast.
    The search may expand ``budget`` nodes; past that it raises
    ``BudgetExceededError``, so every answer it returns is exact.  The
    budget counts node expansions, not wall clock, so runs are reproducible.
    """
    pairs = _pair_tuples(pairs)
    terminals = [t for p in pairs for t in p]
    if len(set(terminals)) != len(terminals):
        raise InputError("terminal pairs share a vertex")
    d._check_vertices(terminals, "terminal")
    return _solve_pairs(d, pairs, Budget(budget))


def _pair_assignments(vertices: tuple[int, ...]):
    """Every split of the vertex tuple into a set of ordered pairs."""
    if not vertices:
        yield ()
        return
    first = vertices[0]
    rest = vertices[1:]
    for i, partner in enumerate(rest):
        remaining = rest[:i] + rest[i + 1:]
        for tail in _pair_assignments(remaining):
            yield ((first, partner),) + tail
            yield ((partner, first),) + tail


def brute_force_k_linked(d: Digraph, k: int, budget: int = _ORACLE_BUDGET):
    """Is every choice of 2k distinct terminals linkable?

    Returns True, or the first failing assignment in a fixed enumeration
    order (pair-index permutations are collapsed since they do not affect
    linkability).  One budget covers the whole sweep; past it the sweep
    raises ``BudgetExceededError``.
    """
    if k < 0:
        raise InputError(f"k must be non-negative, got {k}")
    alive = list(d.vertices())
    if len(alive) < 2 * k:
        raise InputError(f"need at least {2 * k} vertices, have {len(alive)}")
    tracker = Budget(budget)
    for chosen in combinations(alive, 2 * k):
        for assignment in _pair_assignments(chosen):
            if isinstance(_solve_pairs(d, list(assignment), tracker), Infeasible):
                return assignment
    return True
