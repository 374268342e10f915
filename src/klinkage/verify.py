"""Ground truth: linkage certification and exhaustive disjoint-path search.

``verify_linkage`` certifies a path system against a digraph clause by
clause.  The brute-force searchers are exact backtracking with an explicit
node-expansion budget, meant for small instances (the solvers' outputs are
cross-checked against them in tests, never the other way around).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .digraph import Digraph, iter_bits
from .errors import InputError
from .paths import BudgetExceeded, Infeasible, PathSystem

__all__ = [
    "LinkageReport",
    "verify_linkage",
    "brute_force_disjoint_paths",
    "brute_force_k_linked",
]


@dataclass(frozen=True)
class LinkageReport:
    ok: bool
    clause: str | None = None
    detail: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_linkage(d: Digraph, pairs, ps: PathSystem) -> LinkageReport:
    """Certify: path i runs x_i to y_i, uses only arcs of d, all disjoint."""
    pairs = [tuple(p) for p in pairs]
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


class _Budget:
    __slots__ = ("left", "spent")

    def __init__(self, limit: int):
        self.left = limit
        self.spent = 0

    def step(self) -> bool:
        if self.left <= 0:
            return False
        self.left -= 1
        self.spent += 1
        return True


def _search(d: Digraph, ordered_pairs, later_mask, idx: int, used: int, acc: list,
            budget: _Budget, failed: set):
    """Backtracking over pair index.  True / False / None (None = budget).

    ``failed`` memoizes (pair index, used-vertex mask) states already proven
    dead, so unions reached along different path orders are pruned.
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
        if not budget.step():
            return None
        if v == y:
            acc.append(path)
            sub = _search(d, ordered_pairs, later_mask, idx + 1, used | visited, acc,
                          budget, failed)
            if sub:
                return True
            if sub is None:
                return None
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


def _solve_pairs(d: Digraph, pairs, budget: _Budget):
    """Hardest-first exhaustive search; PathSystem / Infeasible / None."""
    order = sorted(range(len(pairs)), key=lambda i: (_short_path_count(d, *pairs[i]), i))
    ordered = [pairs[i] for i in order]
    later_mask = []
    for i in range(len(ordered)):
        m = 0
        for x, y in ordered[i + 1:]:
            m |= (1 << x) | (1 << y)
        later_mask.append(m)
    acc: list[tuple[int, ...]] = []
    outcome = _search(d, ordered, later_mask, 0, 0, acc, budget, set())
    if outcome is None:
        return None
    if not outcome:
        return Infeasible()
    by_pair = dict(zip(ordered, acc))
    return PathSystem(tuple(by_pair[p] for p in pairs), tuple(pairs), "brute-force")


def brute_force_disjoint_paths(
    d: Digraph, pairs, budget: int = 2_000_000
) -> PathSystem | Infeasible | BudgetExceeded:
    """Exhaustive backtracking for vertex-disjoint linking paths.

    Pairs with the fewest short connections are tried first to fail fast;
    the answer is exact whenever the budget is not exhausted.  The budget
    counts node expansions, not wall clock, so runs are reproducible.
    """
    pairs = [tuple(p) for p in pairs]
    terminals = [t for p in pairs for t in p]
    if len(set(terminals)) != len(terminals):
        raise InputError("terminal pairs share a vertex")
    for t in terminals:
        if not d.has_vertex(t):
            raise InputError(f"terminal {t} not in digraph")
    tracker = _Budget(budget)
    result = _solve_pairs(d, pairs, tracker)
    if result is None:
        return BudgetExceeded(tracker.spent)
    return result


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


def brute_force_k_linked(d: Digraph, k: int, budget: int = 5_000_000):
    """Is every choice of 2k distinct terminals linkable?

    Returns True, the first failing assignment in a fixed enumeration
    order (pair-index permutations are collapsed since they do not affect
    linkability), or BudgetExceeded.  One budget covers the whole sweep.
    """
    if k < 0:
        raise InputError(f"k must be non-negative, got {k}")
    alive = list(d.vertices())
    if len(alive) < 2 * k:
        raise InputError(f"need at least {2 * k} vertices, have {len(alive)}")
    tracker = _Budget(budget)
    for chosen in combinations(alive, 2 * k):
        for assignment in _pair_assignments(chosen):
            result = _solve_pairs(d, list(assignment), tracker)
            if result is None:
                return BudgetExceeded(tracker.spent)
            if isinstance(result, Infeasible):
                return assignment
    return True
