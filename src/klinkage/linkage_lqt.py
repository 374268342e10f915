"""Linkage machinery for l-quasi-transitive digraphs.

Non-adjacent pairs in such a digraph are always joined by short paths in
one direction, and enough of them can be harvested to back a synthetic
"new arc" with a pool of independent replacement paths.  Adding those arcs
yields a digraph that is semicomplete once the terminals are deleted, and
dominator-based routing works there; every synthetic arc on a chosen route
is then substituted by a pooled path whose interior misses one claimed
mask: the terminals, the dominator set, the helpers and every earlier
substitution.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import combinations, permutations
from math import comb, inf
from typing import Iterator

from .connectivity import menger_set_paths
from .digraph import Digraph, _union, is_l_quasi_transitive, iter_bits, mask_of, spanning_tournament
from .dominators import _first_c_good, nearly_in_dominating_set
from .errors import Budget, ConstructionFailedError, InputError, PreconditionViolatedError, StageFailed
from .linkage_semicomplete import audit_hypotheses
from .paths import Infeasible, LinkageInstance, PathSystem
from .reports import SolveReport, stage

__all__ = [
    "pool_threshold",
    "ShortPathPool",
    "independent_short_paths",
    "build_auxiliary",
    "verify_short_anchor",
    "find_short_anchor_pair",
    "solve_lqt",
]


# Candidate lists the anchor-pair and anchor-link searches may expand by default.
_ANCHOR_BUDGET = 20_000


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


def independent_short_paths(d: Digraph, u: int, v: int, l: int, limit: int) -> ShortPathPool:
    """Extract pairwise-independent paths of length <= l+1 between u and v.

    The picks come length by length: for L = 1, 2, ..., first every u->v
    path of exactly L arcs, then every v->u one, each the lexicographically
    smallest path left once the interiors already picked are removed.  The
    extraction stops once one direction holds ``limit`` paths or no path of
    at most l+1 arcs is left.  This is the order of a loop that repeatedly
    takes the shorter of the two shortest paths (u->v on ties), a direct
    arc at most once per direction: removing interiors never shortens a
    path, so the shortest length only grows.  Lengths stop at l+1 and at
    the order minus one, and a direction stops at the first length that no
    walk through the free vertices reaches.  One ``free`` mask holds the
    vertices no pick has used, u and v excluded; lengths 1 and 2 are read
    off the masks, longer ones off walk levels through ``free``.
    """
    if u == v:
        raise InputError("need two distinct vertices")
    d._check_vertices((u, v))
    if limit < 1:
        return ShortPathPool(u, v, (), ())
    pools: tuple[list[tuple[int, ...]], list[tuple[int, ...]]] = ([], [])
    out, inc = d._out, d._in
    base = free = d._alive & ~(1 << u) & ~(1 << v)
    ends = ((u, v), (v, u))
    open_sides = [0, 1]
    for length in range(1, min(l + 1, d.order - 1) + 1):
        for side in list(open_sides):
            a, b = ends[side]
            bucket = pools[side]
            if length == 1:
                if out[a] >> b & 1:
                    bucket.append((a, b))
            elif length == 2:
                middles = out[a] & inc[b] & free
                while middles and len(bucket) < limit:
                    w = middles & -middles
                    middles ^= w
                    free ^= w
                    bucket.append((a, w.bit_length() - 1, b))
                if not inc[b] & free:
                    open_sides.remove(side)
            else:
                # no shorter a->b path runs through free, so every walk of
                # length arcs through it is a simple path: levels[j - 1]
                # holds the free vertices with a walk of j arcs to b
                first = out[a]  # first hops not yet tried; one that fails once fails for good
                while len(bucket) < limit:
                    levels = [inc[b] & free]
                    while len(levels) < length - 2 and levels[-1]:
                        levels.append(_union(inc, levels[-1]) & free)
                    if not levels[-1]:  # no path of length arcs or more is left
                        open_sides.remove(side)
                        break
                    top = levels[-1]
                    first &= free
                    while first:
                        c = (first & -first).bit_length() - 1
                        first ^= 1 << c
                        if out[c] & top:
                            break
                    else:
                        break
                    path = [a, c]
                    free ^= 1 << c
                    for level in reversed(levels):
                        w = out[path[-1]] & level
                        w &= -w
                        free ^= w
                        path.append(w.bit_length() - 1)
                    path.append(b)
                    bucket.append(tuple(path))
            if len(bucket) >= limit:
                return ShortPathPool(u, v, tuple(pools[0]), tuple(pools[1]))
        if not open_sides:
            break
    removed = base & ~free
    stalled_strong = d.delete(iter_bits(removed)).is_strong()  # interiors only; u, v stay
    paths = (d.shortest_path(u, v, removed), d.shortest_path(v, u, removed))
    return ShortPathPool(
        u, v, tuple(pools[0]), tuple(pools[1]), stalled_strong,
        tuple(None if p is None else len(p) - 1 for p in paths),
    )


def build_auxiliary(d: Digraph, xs, ys, l: int, threshold: int
                    ) -> dict[tuple[int, int], tuple[tuple[int, ...], ...]]:
    """Map each backed arc between non-adjacent non-terminal pairs to its pool.

    For each such pair the extraction runs in the terminal-free subdigraph;
    the direction first reaching ``threshold`` independent short paths gets
    the arc, backed by those paths (at most l+1 arcs, sharing only
    endpoints), so d plus the arcs, minus the terminals, is semicomplete.
    A pair whose ends have the out- and in-rows of an extracted pair's ends
    gets that pair's direction and interiors without an extraction of its
    own (the comment below gives the argument).  Nothing is re-checked: the
    solve certifies its paths against d.  A stall with a strong residual
    violates the short-return-distance law of l-quasi-transitive digraphs
    and raises PreconditionViolatedError with the witness pair; a stall
    below threshold otherwise raises ConstructionFailedError.
    """
    if threshold < 1:
        raise InputError("threshold must be positive")
    terminals = d._check_vertices([*xs, *ys])
    if not d.is_strong():
        raise PreconditionViolatedError("auxiliary construction needs a strong digraph")
    sub = d._restrict(d.alive_mask & ~terminals)

    new_arcs = {}
    # (forward?, pool) per key (out[u], in[u], out[v], in[v]): a pair whose
    # key was extracted before takes that direction and pool, ends renamed.
    # This is exact.  The extraction reaches length L only when no shorter
    # a->b path is left in free, and a, b are non-adjacent, so a vertex with
    # a's out-row or b's in-row is never picked or tried: it would shorten
    # the path.  The ends of a pair with the same key are such vertices, and
    # swapping vertices with equal rows is an automorphism, so it fixes
    # every candidate set and each lowest-id pick.  A key whose extraction
    # stalled has raised, so only backed pairs are reused.
    extracted = {}
    alive, out, inc = sub._alive, sub._out, sub._in
    for u in iter_bits(alive):
        # the non-neighbours of u above it, ascending
        for v in iter_bits(alive & ~(out[u] | inc[u]) & ~((2 << u) - 1)):
            key = (out[u], inc[u], out[v], inc[v])
            if key in extracted:
                forward, chosen = extracted[key]
                a, b = (u, v) if forward else (v, u)
                new_arcs[a, b] = tuple((a, *p[1:-1], b) for p in chosen)
                continue
            pool = independent_short_paths(sub, u, v, l, threshold)
            nf, nb = len(pool.forward), len(pool.backward)
            if max(nf, nb) < threshold:
                if pool.stalled_strong:  # a strong residual gives both distances
                    df, db = pool.stall_distances
                    raise PreconditionViolatedError(
                        f"pair {(u, v)} has no short return path (d{(u, v)}={df}, reverse={db})",
                        clause="no short return path", vertices=(u, v),
                        counts={"forward": df, "backward": db},
                    )
                raise ConstructionFailedError(
                    f"pair {(u, v)}: best per-direction counts {(nf, nb)}",
                    clause="pool extraction stalled below threshold", vertices=(u, v),
                    counts={"forward": nf, "backward": nb, "threshold": threshold},
                )
            forward = nf >= threshold
            arc, chosen = ((u, v), pool.forward) if forward else ((v, u), pool.backward)
            # the pool holds by construction: independent_short_paths takes
            # each hop from out rows ANDed with free or with a walk level
            # inside it, so every path is one of sub, with the loop's length,
            # at most l+1 arcs; and it clears each picked interior from free,
            # so the interiors are disjoint
            new_arcs[arc] = chosen
            extracted[key] = forward, chosen

    # semicomplete away from the terminals by construction: every
    # non-adjacent pair there got exactly one new arc
    return new_arcs


# -- short anchoring -------------------------------------------------------


def _short_paths_between(d: Digraph, a: int, b: int, blocked: int):
    """All simple a->b paths of length <= 3 avoiding blocked interiors."""
    out: list[tuple[int, ...]] = []
    if d.has_arc(a, b):
        out.append((a, b))
    free = d.alive_mask & ~blocked & ~(1 << a) & ~(1 << b)
    for w in iter_bits(d.out_mask(a) & d.in_mask(b) & free):
        out.append((a, w, b))
    for w1 in iter_bits(d.out_mask(a) & free):
        for w2 in iter_bits(d.out_mask(w1) & d.in_mask(b) & free & ~(1 << w1)):
            out.append((a, w1, w2, b))
    return out


def _disjoint_short_linkage(d: Digraph, pairs, budget: Budget,
                            prefer=None) -> list[tuple[int, ...]] | None:
    """Backtracking for disjoint length-<=3 paths, one per pair.

    Depth-first over the pairs in order, trying each pair's candidates in
    order; ``frames[i]`` holds pair i's untried candidates and the interiors
    used before it.  Each candidate list spends one unit of ``budget``.  An
    explicit stack, so no frame or closure refers to itself and nothing
    outlives the call.
    """
    blocked = mask_of(t for p in pairs for t in p)
    acc: list[tuple[int, ...]] = []
    frames: list[tuple[Iterator[tuple[int, ...]], int]] = []
    used = 0
    while len(acc) < len(pairs):
        a, b = pairs[len(acc)]
        budget.spend()
        cands = _short_paths_between(d, a, b, blocked | used)
        if prefer is not None:
            cands.sort(key=prefer)
        frames.append((iter(cands), used))
        while True:
            untried, before = frames[-1]
            path = next(untried, None)
            if path is not None:
                acc.append(path)
                used = before | mask_of(path[1:-1])
                break
            frames.pop()
            if not frames:
                return None
            acc.pop()
    return acc


def verify_short_anchor(t: Digraph, u1, u2, budget: Budget | None = None) -> bool:
    """Can u1 reach u2 by disjoint length-<=3 paths under every pairing?

    Each candidate list spends one unit of ``budget``, if one is given.
    """
    u1, u2 = list(u1), list(u2)
    t._check_vertices(u1 + u2, "anchor vertex")
    if len(u1) != len(u2):
        raise InputError("anchor sets must have equal size")
    if len(set(u1 + u2)) < len(u1) + len(u2):
        raise InputError("anchor sets must be disjoint, without repeats")
    budget = budget or Budget(inf)
    for perm in permutations(u2):
        if _disjoint_short_linkage(t, list(zip(u1, perm)), budget) is None:
            return False
    return True


def find_short_anchor_pair(t: Digraph, k: int, budget: int = _ANCHOR_BUDGET):
    """Search two disjoint k-sets where the first short anchors the second.

    Heuristic first (high out-degree sources vs high in-degree sinks), then
    exhaustive enumeration.  ``budget`` caps the candidate lists of the
    whole search (every pairing of every candidate pair); past it the search
    raises ``BudgetExceededError``.  None means every candidate pair failed.
    """
    if k < 1:
        raise InputError(f"k must be positive, got {k}", counts={"k": k})
    alive = list(t.vertices())
    if len(alive) < 2 * k:
        return None
    by_out = sorted(alive, key=lambda v: (-t.out_degree(v), v))
    by_in = sorted(alive, key=lambda v: (-t.in_degree(v), v))
    heur_u1 = by_out[:k]
    heur_u2 = [v for v in by_in if v not in heur_u1][:k]
    work = Budget(budget)
    if len(heur_u2) == k and verify_short_anchor(t, heur_u1, heur_u2, work):
        return heur_u1, heur_u2
    for u1 in combinations(alive, k):
        rest = [v for v in alive if v not in u1]
        for u2 in combinations(rest, k):
            if verify_short_anchor(t, list(u1), list(u2), work):
                return list(u1), list(u2)
    return None


# -- the full pipeline ------------------------------------------------------


def _fresh(pool, claimed: int, arc) -> tuple[int, ...]:
    """The first path of ``pool`` whose interior misses ``claimed``."""
    for path in pool:
        if not mask_of(path[1:-1]) & claimed:
            return path
    raise ConstructionFailedError(
        f"no disjoint replacement path left for arc {arc}",
        clause="no disjoint replacement path left", vertices=arc, counts={"pool": len(pool)},
    )


def _splice(augmented_path, d: Digraph, replacement: dict) -> list[int]:
    """Rewrite a path of the auxiliary digraph into one of d, each arc not
    in d by its path in ``replacement``."""
    out = [augmented_path[0]]
    for a, b in zip(augmented_path, augmented_path[1:]):
        if d.has_arc(a, b):
            out.append(b)
        elif (a, b) in replacement:
            out.extend(replacement[(a, b)][1:])
        else:  # a synthetic arc that got no replacement
            raise AssertionError(f"arc ({a},{b}) on a linking path has no replacement")
    return out


def solve_lqt(d: Digraph, pairs, l: int, threshold: int | None = None,
              anchor_budget: int = _ANCHOR_BUDGET, skip_audit: bool = False) -> SolveReport:
    """Linkage pipeline for l-quasi-transitive digraphs.

    The guaranteed connectivity bound is astronomically conservative, so
    ``threshold`` may be overridden: the solver is opportunistic and every
    outcome is certified, so a small pool threshold is sound for producing
    linkages, just not for guaranteeing success.  A ``BudgetExceededError``
    from the l-quasi-transitivity check propagates; no report is made.  The
    anchor-pair and anchor-link searches may each expand ``anchor_budget``
    candidate lists; past that the step fails with the budget witness.
    """
    instance = LinkageInstance(d, pairs)
    k = instance.k
    xs, ys = instance.sources(), instance.targets()
    bound = 81 * k * k * (l + 2) ** 2
    # malformed arguments fail before the audit, whatever the input and threshold
    full_pool = pool_threshold(k, l)
    pool_goal = full_pool if threshold is None else threshold
    if pool_goal < 1:
        raise InputError("threshold must be positive")
    Budget(anchor_budget)

    audit: dict = {"class": "lqt", "k": k, "l": l, "strong": d.is_strong(),
                   "kappa_threshold": bound, "pool_threshold": pool_goal,
                   "l_quasi_transitive": is_l_quasi_transitive(d, l)}
    violation = audit_hypotheses(
        audit, d, [("not strong", audit["strong"]),
                   (f"not {l}-quasi-transitive", audit["l_quasi_transitive"])],
        [], ["kappa"] if skip_audit else None)
    if violation:
        return violation
    if not skip_audit and bound - 2 * k - 2 * full_pool * (l + 2) <= 0:
        # connectivity slack that feeds the extraction argument
        raise AssertionError(f"kappa bound {bound} leaves no slack for the pool extraction")

    try:
        with stage("auxiliary"):
            try:
                available = build_auxiliary(d, xs, ys, l, pool_goal)
            except PreconditionViolatedError as exc:  # no short return path: d is strong here
                return SolveReport.of_hypothesis(exc.clause, audit, exc.witness())
        augmented = d.add_arcs(available)
        audit["new_arcs"] = len(available)
        # the same arc labels recur in every report on one digraph: interned,
        # reports kept together hold one copy of each
        audit["auxiliary"] = {
            sys.intern(f"{a}:{b}"): len(pool) for (a, b), pool in sorted(available.items())
        }

        m = 9 * k - 6
        with stage("dominating-set"):
            us = nearly_in_dominating_set(augmented, xs, ys, m)
        u_mask = mask_of(us)
        d_u = augmented.induced(us)
        with stage("anchor-pair"):
            anchor = find_short_anchor_pair(spanning_tournament(d_u), k, anchor_budget)
            if anchor is None:
                raise ConstructionFailedError("no short anchor pair in the dominator set",
                                              vertices=us, counts={"k": k})
        u1, u2 = anchor

        terminals = mask_of(xs) | mask_of(ys)
        free = augmented.alive_mask & ~terminals
        # every vertex in use: no later helper, middle or replacement interior
        # may touch it, and none of them lies in Y
        claimed = terminals | u_mask

        # sources ride a real arc to a helper that is strongly good for its anchor
        base_paths: list[list[int]] = []
        for i, x in enumerate(xs):
            target = u1[i]
            cands = d.out_mask(x) & d.alive_mask & ~claimed
            with stage("source-helper"):
                helper = _first_c_good(augmented, cands, target, free, 11 * k)
                if helper is None:
                    raise ConstructionFailedError(
                        "no out-neighbour of the source is c-good for its anchor",
                        vertices=(x, target), counts={"c": 11 * k})
            claimed |= 1 << helper
            if augmented.has_arc(helper, target):
                base_paths.append([x, helper, target])
            else:
                # out[helper] & in[target] & free has at least 11k bits; U (X and Y
                # lie outside free) takes at most 9k-6 of them, earlier helpers and
                # middles at most 2k-2: at least 8 are left
                mids = augmented.out_mask(helper) & augmented.in_mask(target) & free & ~claimed
                if not mids:
                    raise AssertionError(f"c-good helper {helper} has no middle towards {target}")
                mid = next(iter_bits(mids))
                claimed |= 1 << mid
                base_paths.append([x, helper, mid, target])

        # each synthetic arc of a source path gets a fresh replacement, in path order
        replacement: dict[tuple[int, int], tuple[int, ...]] = {}
        with stage("source-replacement"):
            for arc in (arc for p in base_paths for arc in zip(p, p[1:]) if arc in available):
                replacement[arc] = path = _fresh(available[arc], claimed, arc)
                claimed |= mask_of(path[1:-1])
        x_paths = [_splice(p, d, replacement) for p in base_paths]
        if any(len(p) > 2 * l + 5 for p in x_paths):
            raise AssertionError(f"a spliced source path has more than {2 * l + 5} vertices")

        # reserve replacements for every synthetic arc inside the dominator set,
        # so the target-side routing can avoid them before they are chosen
        reserved: dict[tuple[int, int], tuple[int, ...]] = {}
        for arc in sorted(available):
            if u_mask >> arc[0] & 1 and u_mask >> arc[1] & 1:
                try:
                    reserved[arc] = path = _fresh(available[arc], claimed, arc)
                except ConstructionFailedError:
                    continue  # no link may use it: the link digraph holds reserved arcs only
                claimed |= mask_of(path[1:-1])
        if sum(len(p) - 2 for p in reserved.values()) + len(us) > comb(m, 2) * (l + 2):
            raise AssertionError(f"reserved interiors and U exceed {comb(m, 2) * (l + 2)} vertices")

        # the source paths, U and the reservations: every claimed vertex outside Y
        with stage("targets"):
            routed = menger_set_paths(d, u2, ys, avoid=iter_bits(claimed & ~mask_of([*ys, *u2])))
            if isinstance(routed, Infeasible):
                raise ConstructionFailedError("a separator meets every U2-to-Y path",
                                              vertices=routed.separator, counts={"need": k})
        entry_for_target = {p[-1]: p[0] for p in routed.paths}
        tail_path = {p[0]: p for p in routed.paths}

        def prefer(path):
            synthetic = sum(0 if d.has_arc(a, b) else 1 for a, b in zip(path, path[1:]))
            return (synthetic, len(path), path)

        # a link lies inside U and uses d's arcs there and the reserved synthetic
        # ones: no synthetic arc without a disjoint replacement
        links_in = d.induced(us).add_arcs(reserved)
        link_pairs = [(u1[i], entry_for_target[ys[i]]) for i in range(k)]
        with stage("anchor-link"):
            links = _disjoint_short_linkage(links_in, link_pairs, Budget(anchor_budget), prefer)
            if links is None:
                raise ConstructionFailedError("no disjoint short links inside the dominator set",
                                              vertices=[v for pair in link_pairs for v in pair],
                                              counts={"k": k})
    except StageFailed as exc:
        return SolveReport.of_stage(*exc.args, audit)

    # the link digraph holds a synthetic arc only if it is reserved
    link_real = [_splice(p, d, reserved) for p in links]

    final = []
    for i in range(k):
        head = x_paths[i]
        mid = link_real[i]
        tail = tail_path[entry_for_target[ys[i]]]
        final.append(tuple(head + mid[1:] + list(tail[1:])))
    return SolveReport.certified(d, instance.pairs, PathSystem(tuple(final)), audit)
