"""Linkage machinery for l-quasi-transitive digraphs.

Non-adjacent pairs in such a digraph are always joined by short paths in
one direction, and enough of them can be harvested to back a synthetic
"new arc" with a pool of independent replacement paths.  Adding those arcs
(plus throwaway arcs into the sources and out of the targets) yields a
semicomplete digraph where dominator-based routing works; every synthetic
arc on a chosen route is then substituted by a pooled path, with a global
reservation ledger keeping substitutions disjoint.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import combinations, permutations
from math import comb

from .connectivity import menger_set_paths
from .digraph import Digraph, is_l_quasi_transitive, is_semicomplete, iter_bits, mask_of, spanning_tournament
from .dominators import is_c_good, nearly_in_dominating_set
from .errors import (
    AvailablePathExhaustedError,
    InputError,
    KLinkageError,
    NotLQuasiTransitiveError,
    NotStrongError,
    PreconditionViolatedError,
    SizeMismatchError,
    ThresholdUnreachableError,
)
from .linkage_semicomplete import audit_kappa
from .paths import Infeasible, LinkageInstance, PathSystem
from .reports import SolveReport

__all__ = [
    "pool_threshold",
    "ShortPathPool",
    "independent_short_paths",
    "AuxiliaryDigraph",
    "build_auxiliary",
    "verify_short_anchor",
    "find_short_anchor_pair",
    "solve_lqt",
]


def pool_threshold(k: int, l: int) -> int:
    """Pool size that makes the pigeonhole and budget arguments airtight."""
    if k < 1 or l < 2:
        raise InputError("need k >= 1 and l >= 2")
    return comb(9 * k - 6, 2) * (l + 2) + (2 * l + 5) * k + 9 * k


@dataclass(frozen=True)
class ShortPathPool:
    """Independent short paths between two vertices, per direction.

    ``stalled_strong`` flags an extraction that stopped with a strong
    residual digraph but no qualifying path left; on l-quasi-transitive
    input that cannot happen for non-adjacent pairs.
    """

    u: int
    v: int
    forward: tuple[tuple[int, ...], ...]
    backward: tuple[tuple[int, ...], ...]
    stalled_strong: bool = False
    stall_distances: tuple[object, object] | None = None

    def counts(self) -> tuple[int, int]:
        return len(self.forward), len(self.backward)


def independent_short_paths(d: Digraph, u: int, v: int, l: int, limit: int) -> ShortPathPool:
    """Extract pairwise-independent paths of length <= l+1 between u and v.

    Each round removes the interior of the shortest qualifying path (either
    direction, ties to u->v) from the residual digraph; a direct arc can be
    taken once per direction.  Stops once one direction holds ``limit``
    paths or no qualifying path remains.
    """
    if u == v:
        raise InputError("need two distinct vertices")
    forward: list[tuple[int, ...]] = []
    backward: list[tuple[int, ...]] = []
    removed = 0
    max_len = l + 1
    while len(forward) < limit and len(backward) < limit:
        pf = d.shortest_path(u, v, removed, max_len, skip_direct=any(len(p) == 2 for p in forward))
        pb = d.shortest_path(v, u, removed, max_len, skip_direct=any(len(p) == 2 for p in backward))
        pick = None
        if pf is not None and (pb is None or len(pf) <= len(pb)):
            pick, bucket = pf, forward
        elif pb is not None:
            pick, bucket = pb, backward
        if pick is None:
            residual = d.delete(iter_bits(removed))  # interiors only; u, v stay
            stalled_strong = residual.is_strong() and residual.order >= 2
            paths = (d.shortest_path(u, v, removed), d.shortest_path(v, u, removed))
            return ShortPathPool(
                u, v, tuple(forward), tuple(backward), stalled_strong,
                tuple(None if p is None else len(p) - 1 for p in paths),
            )
        bucket.append(tuple(pick))
        removed |= mask_of(pick[1:-1])
    return ShortPathPool(u, v, tuple(forward), tuple(backward))


@dataclass(frozen=True)
class AuxiliaryDigraph:
    """The semicomplete auxiliary digraph with its replacement pools.

    ``new_arcs`` were added between non-adjacent pairs away from the
    terminals and each is backed by ``available[arc]``: independent paths
    of the original digraph, length at most l+1, sharing only endpoints.
    ``terminal_arcs`` only exist to make the digraph semicomplete around
    the terminals; no returned linkage may use them.
    """

    augmented: Digraph
    new_arcs: frozenset[tuple[int, int]]
    available: dict[tuple[int, int], tuple[tuple[int, ...], ...]]
    terminal_arcs: frozenset[tuple[int, int]]

    def pool_sizes(self) -> dict[tuple[int, int], int]:
        return {arc: len(pool) for arc, pool in self.available.items()}


def _check_pool(sub: Digraph, arc, pool, l: int) -> None:
    """Record-time validation: real paths, short, sharing only endpoints."""
    a, b = arc
    taken = 0
    for p in pool:
        if not (p[0] == a and p[-1] == b and len(p) <= l + 2):
            raise AssertionError(f"pool path {p} does not run {a}->{b} within {l + 1} arcs")
        if not all(sub.has_arc(u, v) for u, v in zip(p, p[1:])):
            raise AssertionError(f"pool path {p} leaves the terminal-free subdigraph")
        inner = mask_of(p[1:-1])
        if inner & taken:
            raise AssertionError("pool paths must share only their endpoints")
        taken |= inner


def build_auxiliary(d: Digraph, xs, ys, l: int, threshold: int) -> AuxiliaryDigraph:
    """Add backed arcs between non-adjacent non-terminal pairs.

    For each such pair the extraction runs in the terminal-free subdigraph;
    the direction first reaching ``threshold`` independent short paths gets
    the arc with the pool recorded.  A stall with a strong residual violates
    the short-return-distance law of l-quasi-transitive digraphs and is
    reported with the witness pair; a stall below threshold otherwise is
    ThresholdUnreachable.
    """
    if threshold < 1:
        raise InputError("threshold must be positive")
    if not d.is_strong():
        raise NotStrongError("auxiliary construction needs a strong digraph")
    xs, ys = list(xs), list(ys)
    terminal_mask = mask_of(xs) | mask_of(ys)
    sub = d.delete(iter_bits(terminal_mask))

    new_arcs = {}
    inner = list(sub.vertices())
    for i, u in enumerate(inner):
        for v in inner[i + 1:]:
            if sub.is_adjacent(u, v):
                continue
            pool = independent_short_paths(sub, u, v, l, threshold)
            nf, nb = pool.counts()
            if max(nf, nb) < threshold:
                if pool.stalled_strong:
                    raise NotLQuasiTransitiveError((u, v), *pool.stall_distances)
                raise ThresholdUnreachableError((u, v), (nf, nb))
            if nf >= threshold:
                arc, chosen = (u, v), pool.forward
            else:
                arc, chosen = (v, u), pool.backward
            _check_pool(sub, arc, chosen, l)
            new_arcs[arc] = chosen

    terminal_arcs = set()
    for x in xs:
        for w in d.vertices():
            if w != x and not d.has_arc(w, x):
                terminal_arcs.add((w, x))
    for y in ys:
        for w in d.vertices():
            if w != y and not d.has_arc(y, w):
                terminal_arcs.add((y, w))

    augmented = d.add_arcs(list(new_arcs) + sorted(terminal_arcs))
    if not is_semicomplete(augmented):
        raise AssertionError("auxiliary digraph must be semicomplete")
    return AuxiliaryDigraph(
        augmented, frozenset(new_arcs), dict(new_arcs), frozenset(terminal_arcs)
    )


# -- short anchoring -------------------------------------------------------


def _short_paths_between(d: Digraph, a: int, b: int, blocked: int, arc_ok=None):
    """All simple a->b paths of length <= 3 avoiding blocked interiors."""
    ok = arc_ok or (lambda u, v: True)
    out: list[tuple[int, ...]] = []
    if d.has_arc(a, b) and ok(a, b):
        out.append((a, b))
    free = d.alive_mask & ~blocked & ~(1 << a) & ~(1 << b)
    for w in iter_bits(d.out_mask(a) & d.in_mask(b) & free):
        if ok(a, w) and ok(w, b):
            out.append((a, w, b))
    for w1 in iter_bits(d.out_mask(a) & free):
        if not ok(a, w1):
            continue
        for w2 in iter_bits(d.out_mask(w1) & d.in_mask(b) & free & ~(1 << w1)):
            if ok(w1, w2) and ok(w2, b):
                out.append((a, w1, w2, b))
    return out


def _disjoint_short_linkage(d: Digraph, pairs, blocked: int = 0, arc_ok=None,
                            prefer=None) -> list[tuple[int, ...]] | None:
    """Backtracking for disjoint length-<=3 paths, one per pair."""
    endpoint_mask = mask_of(t for p in pairs for t in p)

    def rec(idx: int, used: int, acc: list):
        if idx == len(pairs):
            return True
        a, b = pairs[idx]
        cands = _short_paths_between(d, a, b, blocked | endpoint_mask | used, arc_ok)
        if prefer is not None:
            cands.sort(key=prefer)
        for path in cands:
            acc.append(path)
            if rec(idx + 1, used | mask_of(path[1:-1]), acc):
                return True
            acc.pop()
        return False

    acc: list[tuple[int, ...]] = []
    return acc if rec(0, 0, acc) else None


def verify_short_anchor(t: Digraph, u1, u2) -> bool:
    """Can u1 reach u2 by disjoint length-<=3 paths under every pairing?"""
    u1, u2 = list(u1), list(u2)
    if len(u1) != len(u2):
        raise SizeMismatchError("anchor sets must have equal size")
    if mask_of(u1) & mask_of(u2):
        raise SizeMismatchError("anchor sets must be disjoint")
    for perm in permutations(u2):
        if _disjoint_short_linkage(t, list(zip(u1, perm))) is None:
            return False
    return True


def find_short_anchor_pair(t: Digraph, k: int, budget: int = 20000,
                           allow_undersized: bool = False):
    """Search two disjoint k-sets where the first short anchors the second.

    Heuristic first (high out-degree sources vs high in-degree sinks), then
    exhaustive enumeration; ``budget`` caps the number of verified
    candidate pairs.  Returns (U1, U2) or None when the budget is spent;
    None never contradicts existence, only the search budget.
    """
    n = t.order
    if n < 9 * k - 6 and not allow_undersized:
        raise PreconditionViolatedError(
            f"anchor pair existence is guaranteed from {9 * k - 6} vertices, digraph has {n}"
        )
    alive = list(t.vertices())
    if n < 2 * k:
        return None
    by_out = sorted(alive, key=lambda v: (-t.out_degree(v), v))
    by_in = sorted(alive, key=lambda v: (-t.in_degree(v), v))
    heur_u1 = by_out[:k]
    heur_u2 = [v for v in by_in if v not in heur_u1][:k]
    tried = 0
    if len(heur_u2) == k:
        tried += 1
        if verify_short_anchor(t, heur_u1, heur_u2):
            return heur_u1, heur_u2
    for u1 in combinations(alive, k):
        rest = [v for v in alive if v not in u1]
        for u2 in combinations(rest, k):
            if tried >= budget:
                return None
            tried += 1
            if verify_short_anchor(t, list(u1), list(u2)):
                return list(u1), list(u2)
    return None


# -- the full pipeline ------------------------------------------------------


class _Ledger:
    """Reservation ledger: replacement interiors must be globally fresh."""

    def __init__(self, claimed: int):
        self.claimed = claimed

    def claim(self, vertices) -> None:
        self.claimed |= mask_of(vertices)

    def pick(self, pool, arc) -> tuple[int, ...]:
        for path in pool:
            if not mask_of(path[1:-1]) & self.claimed:
                self.claim(path[1:-1])
                return path
        raise AvailablePathExhaustedError(arc)


def _splice(augmented_path, d: Digraph, aux: AuxiliaryDigraph, ledger: _Ledger,
            reserved: dict | None = None) -> list[int]:
    """Rewrite a path of the auxiliary digraph into one of d."""
    out = [augmented_path[0]]
    for a, b in zip(augmented_path, augmented_path[1:]):
        if d.has_arc(a, b):
            out.append(b)
            continue
        if (a, b) in aux.terminal_arcs:
            raise AssertionError(f"terminal arc ({a},{b}) on a linking path")
        if reserved is not None and (a, b) in reserved:
            out.extend(reserved[(a, b)][1:])
            continue
        replacement = ledger.pick(aux.available[(a, b)], (a, b))
        out.extend(replacement[1:])
    return out


def solve_lqt(d: Digraph, pairs, l: int, threshold: int | None = None,
              anchor_budget: int = 20000, skip_audit: bool = False) -> SolveReport:
    """Linkage pipeline for l-quasi-transitive digraphs.

    The guaranteed connectivity bound is astronomically conservative, so
    ``threshold`` may be overridden: the solver is opportunistic and every
    outcome is certified, so a small pool threshold is sound for producing
    linkages, just not for guaranteeing success.  A ``BudgetExceededError``
    from the l-quasi-transitivity check propagates; no report is made.
    """
    pairs = tuple(tuple(p) for p in pairs)
    instance = LinkageInstance(d, pairs)
    k = instance.k
    xs, ys = instance.sources(), instance.targets()
    bound = 81 * k * k * (l + 2) ** 2
    pool_goal = pool_threshold(k, l) if threshold is None else threshold

    audit: dict = {
        "class": "lqt",
        "k": k,
        "l": l,
        "strong": d.is_strong(),
        "kappa_threshold": bound,
        "pool_threshold": pool_goal,
    }
    audit["l_quasi_transitive"] = is_l_quasi_transitive(d, l)
    if not audit["strong"]:
        return SolveReport.of_hypothesis("not strong", audit)
    if not audit["l_quasi_transitive"]:
        return SolveReport.of_hypothesis(f"not {l}-quasi-transitive", audit)
    violated = audit_kappa(audit, d, bound, ["kappa"] if skip_audit else None)
    if violated:
        return SolveReport.of_hypothesis(violated, audit)
    if not skip_audit and bound - 2 * k - 2 * pool_threshold(k, l) * (l + 2) <= 0:
        # connectivity slack that feeds the extraction argument
        raise AssertionError(f"kappa bound {bound} leaves no slack for the pool extraction")

    try:
        aux = build_auxiliary(d, xs, ys, l, pool_goal)
    except NotLQuasiTransitiveError as exc:
        return SolveReport.of_hypothesis(str(exc), audit)
    except (ThresholdUnreachableError, NotStrongError) as exc:
        return SolveReport.of_stage("auxiliary", str(exc), audit)
    audit["new_arcs"] = len(aux.new_arcs)
    # the same arc labels recur in every report on one digraph: interned,
    # reports kept together hold one copy of each
    audit["auxiliary"] = {
        sys.intern(f"{a}:{b}"): len(pool) for (a, b), pool in sorted(aux.available.items())
    }

    m = 9 * k - 6
    try:
        us = nearly_in_dominating_set(aux.augmented, xs, ys, m)
    except KLinkageError as exc:
        return SolveReport.of_stage("dominating-set", str(exc), audit)
    u_mask = mask_of(us)
    t_u = spanning_tournament(aux.augmented.induced(us))
    anchor = find_short_anchor_pair(t_u, k, anchor_budget, allow_undersized=True)
    if anchor is None:
        return SolveReport.of_stage("anchor-pair", "search budget exhausted", audit)
    u1, u2 = anchor

    augmented_free = aux.augmented.delete(set(xs) | set(ys))
    ledger = _Ledger(mask_of(xs) | mask_of(ys) | u_mask)

    # sources ride a real arc to a helper that is strongly good for its anchor
    base_paths: list[list[int]] = []
    helper_mask = 0
    for i, x in enumerate(xs):
        target = u1[i]
        cands = d.out_mask(x) & d.alive_mask & ~ledger.claimed & ~helper_mask
        helper = None
        for w in iter_bits(cands):
            if is_c_good(augmented_free, w, target, 11 * k):
                helper = w
                break
        if helper is None:
            return SolveReport.of_stage("source-helper", f"no good helper for source {x}", audit)
        helper_mask |= 1 << helper
        if aux.augmented.has_arc(helper, target):
            base_paths.append([x, helper, target])
        else:
            mids = (
                augmented_free.out_mask(helper)
                & augmented_free.in_mask(target)
                & ~u_mask
                & ~helper_mask
                & ~ledger.claimed
            )
            if not mids:
                return SolveReport.of_stage("source-helper", f"no second hop after {helper}", audit)
            mid = next(iter_bits(mids))
            helper_mask |= 1 << mid
            base_paths.append([x, helper, mid, target])
    ledger.claim(iter_bits(helper_mask))

    try:
        x_paths = [_splice(p, d, aux, ledger) for p in base_paths]
    except AvailablePathExhaustedError as exc:
        return SolveReport.of_stage("source-replacement", str(exc), audit)
    if any(len(p) > 2 * l + 5 for p in x_paths):
        raise AssertionError(f"a spliced source path has more than {2 * l + 5} vertices")

    # reserve replacements for every synthetic arc inside the dominator set,
    # so the target-side routing can avoid them before they are chosen
    reserved: dict[tuple[int, int], tuple[int, ...]] = {}
    unusable: set[tuple[int, int]] = set()
    for arc in sorted(aux.new_arcs):
        if u_mask >> arc[0] & 1 and u_mask >> arc[1] & 1:
            try:
                reserved[arc] = ledger.pick(aux.available[arc], arc)
            except AvailablePathExhaustedError:
                unusable.add(arc)
    reserve_interiors = sorted(v for path in reserved.values() for v in path[1:-1])
    if len(reserve_interiors) + len(us) > comb(m, 2) * (l + 2):
        raise AssertionError(f"reserved interiors and U exceed {comb(m, 2) * (l + 2)} vertices")

    b_mask = mask_of(v for p in x_paths for v in p) | u_mask | mask_of(reserve_interiors)
    avoid = [v for v in iter_bits(b_mask) if v not in u2]
    routed = menger_set_paths(d, u2, ys, avoid=avoid)
    if isinstance(routed, Infeasible):
        return SolveReport.of_stage("targets", routed.separator, audit)
    entry_for_target = {p[-1]: p[0] for p in routed.paths}
    tail_path = {p[0]: p for p in routed.paths}

    def arc_ok(a, b):
        if d.has_arc(a, b):
            return True
        return (a, b) in aux.new_arcs and (a, b) not in unusable

    def prefer(path):
        synthetic = sum(0 if d.has_arc(a, b) else 1 for a, b in zip(path, path[1:]))
        return (synthetic, len(path), path)

    link_pairs = [(u1[i], entry_for_target[ys[i]]) for i in range(k)]
    d_u = aux.augmented.induced(us)
    links = _disjoint_short_linkage(d_u, link_pairs, arc_ok=arc_ok, prefer=prefer)
    if links is None:
        return SolveReport.of_stage("anchor-link", "no disjoint short links inside the dominator set", audit)

    try:
        link_real = [_splice(p, d, aux, ledger, reserved) for p in links]
    except AvailablePathExhaustedError as exc:
        return SolveReport.of_stage("anchor-replacement", str(exc), audit)

    final = []
    for i in range(k):
        head = x_paths[i]
        mid = link_real[i]
        tail = tail_path[entry_for_target[ys[i]]]
        final.append(tuple(head + mid[1:] + list(tail[1:])))
    system = PathSystem(tuple(final), pairs, "lqt-pipeline")
    return SolveReport.certified(d, pairs, system, audit)
