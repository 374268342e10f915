"""The l-QT layer's replaced implementations, used only as test oracles.

``ref_is_l_quasi_transitive`` collects, for every vertex, all endpoints of
simple paths of exactly l arcs and then checks adjacency to each.
``klinkage.digraph`` searches only from vertices with a non-neighbour,
enumerates paths of l - 2 arcs and tests the last two arcs of every
witness at once, as one mask: an unused out-neighbour of the path's end
inside the in-rows of the unused non-neighbours.  It stops at the first
witness and answers vacuous lengths at once; the tests require both to
give the same answers.

``ref_independent_short_paths`` harvests a pool by running two
shortest-path searches (the list BFS of ``ref_bfs``) per pick and taking
the shorter path.  ``ref_levelled_short_paths`` picks the same paths
length by length on the masks, with one helper call per length and
direction that returns its picks as a list: a ``removed`` mask gathers
their interiors, and each call gets the free vertices as an argument.
``klinkage.linkage_lqt`` walks one ``free`` mask in a single loop,
clearing each picked vertex from it, and reads lengths 1 and 2 off the
masks; the tests require all three to return equal pools.

``ref_build_auxiliary`` is ``build_auxiliary`` with one extraction per
non-adjacent pair.  ``klinkage.linkage_lqt`` extracts once per key of the
pair's out- and in-rows and gives each later pair with that key the same
direction and interiors, its own ends swapped in; the tests require both
to return equal dicts in the same order, or the same error.

``ref_check_pool`` is the record-time check ``build_auxiliary`` ran on
every pool it kept: endpoints and at most l+1 arcs, arcs of the
terminal-free subdigraph, disjoint interiors.  All three hold by
construction, so ``klinkage.linkage_lqt`` no longer runs it; the tests run
it on every pool the golden, benchmark-pool and acceptance l-QT instances
build.

``ref_solve_lqt`` is the pipeline after the auxiliary digraph as a
reservation ledger kept it: a ``_Ledger`` object next to a helper mask, a
two-mode ``_splice`` that picks from the ledger or reads the reserved map,
the reserved interiors as a list and the Menger avoid set rebuilt from the
spliced source paths.  It also builds the auxiliary digraph as
``build_auxiliary`` once returned it: the backed arcs plus terminal arcs
into every source and out of every target, which made it semicomplete at
the terminals, and it checks that no linking path uses a terminal arc.
``klinkage.linkage_lqt.solve_lqt`` keeps one claimed mask and adds the
backed arcs only; the tests require both to give the same report bytes,
so no step of the solve reads the terminal arcs.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import islice
from math import comb

from conftest import is_adjacent
from ref_bfs import ref_shortest_path
from klinkage.connectivity import menger_set_paths
from klinkage.digraph import (
    Digraph,
    _union,
    is_l_quasi_transitive,
    is_semicomplete,
    iter_bits,
    mask_of,
    spanning_tournament,
)
from klinkage.dominators import _first_c_good, nearly_in_dominating_set
from klinkage.errors import (
    Budget,
    BudgetExceededError,
    ConstructionFailedError,
    InputError,
    PreconditionViolatedError,
    witness_of,
)
from klinkage.linkage_lqt import (
    _ANCHOR_BUDGET,
    ShortPathPool,
    _disjoint_short_linkage,
    build_auxiliary,
    find_short_anchor_pair,
    independent_short_paths,
    pool_threshold,
)
from klinkage.linkage_semicomplete import audit_hypotheses
from klinkage.paths import Infeasible, LinkageInstance, PathSystem
from klinkage.reports import SolveReport


def _exact_length_endpoints(d: Digraph, src: int, length: int) -> set[int]:
    """Vertices reachable from src by a simple path of exactly ``length`` arcs."""
    found: set[int] = set()
    stack = [(src, 1 << src, 0)]
    while stack:
        v, used, depth = stack.pop()
        if depth == length:
            found.add(v)
            continue
        for w in iter_bits(d.out_mask(v) & ~used):
            stack.append((w, used | (1 << w), depth + 1))
    found.discard(src)
    return found


def ref_is_l_quasi_transitive(d: Digraph, l: int) -> bool:
    """True iff every pair joined by a path of exactly ``l`` arcs is adjacent."""
    if l < 1:
        raise InputError("path length must be at least 1")
    if l == 1:
        return is_semicomplete(d)
    for u in d.vertices():
        for v in _exact_length_endpoints(d, u, l):
            if not is_adjacent(d, u, v):
                return False
    return True


def ref_independent_short_paths(d: Digraph, u: int, v: int, l: int, limit: int) -> ShortPathPool:
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
        pf = ref_shortest_path(d, u, v, removed, max_len, skip_direct=any(len(p) == 2 for p in forward))
        pb = ref_shortest_path(d, v, u, removed, max_len, skip_direct=any(len(p) == 2 for p in backward))
        pick = None
        if pf is not None and (pb is None or len(pf) <= len(pb)):
            pick, bucket = pf, forward
        elif pb is not None:
            pick, bucket = pb, backward
        if pick is None:
            residual = d.delete(iter_bits(removed))  # interiors only; u, v stay
            stalled_strong = residual.is_strong() and residual.order >= 2
            paths = (ref_shortest_path(d, u, v, removed), ref_shortest_path(d, v, u, removed))
            return ShortPathPool(
                u, v, tuple(forward), tuple(backward), stalled_strong,
                tuple(None if p is None else len(p) - 1 for p in paths),
            )
        bucket.append(tuple(pick))
        removed |= mask_of(pick[1:-1])
    return ShortPathPool(u, v, tuple(forward), tuple(backward))


def _paths_of_length(out: list[int], inc: list[int], a: int, b: int, length: int, free: int,
                     room: int) -> tuple[list[tuple[int, ...]], bool]:
    """Up to ``room`` a->b paths of exactly ``length`` arcs, interiors in ``free``.

    Each path is the lexicographically smallest one left once the interiors
    of the paths before it are removed.  The caller guarantees that no
    shorter a->b path runs through ``free``; then every walk of ``length``
    arcs through it is a simple path, so the search runs on walk levels:
    ``levels[j - 1]`` holds the free vertices with a walk of j arcs to b.
    The flag is False once no a->b path of ``length`` arcs or more can run
    through what is left of ``free``.  ``room`` is at least 1.
    """
    if length == 1:
        return ([(a, b)] if out[a] >> b & 1 else []), True
    if length == 2:
        middles = list(islice(iter_bits(out[a] & inc[b] & free), room))
        return [(a, w, b) for w in middles], bool(inc[b] & free & ~mask_of(middles))
    paths: list[tuple[int, ...]] = []
    first = out[a]  # first hops not yet tried; one that fails once fails for good
    while True:
        levels = [inc[b] & free]
        while len(levels) < length - 2 and levels[-1]:
            levels.append(_union(inc, levels[-1]) & free)
        if not levels[-1]:
            return paths, False
        top = levels[-1]
        first &= free
        while first:
            c = (first & -first).bit_length() - 1
            first ^= 1 << c
            if out[c] & top:
                break
        else:
            return paths, True
        path = [a, c]
        for level in reversed(levels):
            step = out[path[-1]] & level
            path.append((step & -step).bit_length() - 1)
        path.append(b)
        paths.append(tuple(path))
        if len(paths) == room:
            return paths, True
        free &= ~mask_of(path[1:-1])


def ref_levelled_short_paths(d: Digraph, u: int, v: int, l: int, limit: int) -> ShortPathPool:
    """Extract pairwise-independent paths of length <= l+1 between u and v,
    one ``_paths_of_length`` call per length and direction."""
    if u == v:
        raise InputError("need two distinct vertices")
    d._check_vertices((u, v))
    if limit < 1:
        return ShortPathPool(u, v, (), ())
    pools: tuple[list[tuple[int, ...]], list[tuple[int, ...]]] = ([], [])
    out, inc = d._out, d._in
    base = d._alive & ~(1 << u) & ~(1 << v)
    ends = ((u, v), (v, u))
    open_sides = [0, 1]
    removed = 0
    for length in range(1, min(l + 1, d.order - 1) + 1):
        for side in list(open_sides):
            bucket = pools[side]
            picked, more = _paths_of_length(out, inc, *ends[side], length, base & ~removed,
                                            limit - len(bucket))
            for path in picked:
                bucket.append(path)
                removed |= mask_of(path[1:-1])
            if len(bucket) >= limit:
                return ShortPathPool(u, v, tuple(pools[0]), tuple(pools[1]))
            if not more:
                open_sides.remove(side)
        if not open_sides:
            break
    stalled_strong = d.delete(iter_bits(removed)).is_strong()  # interiors only; u, v stay
    paths = (d.shortest_path(u, v, removed), d.shortest_path(v, u, removed))
    return ShortPathPool(
        u, v, tuple(pools[0]), tuple(pools[1]), stalled_strong,
        tuple(None if p is None else len(p) - 1 for p in paths),
    )


def ref_build_auxiliary(d: Digraph, xs, ys, l: int, threshold: int
                        ) -> dict[tuple[int, int], tuple[tuple[int, ...], ...]]:
    """Map each backed arc between non-adjacent non-terminal pairs to its
    pool, one ``independent_short_paths`` extraction per pair."""
    if threshold < 1:
        raise InputError("threshold must be positive")
    terminals = d._check_vertices([*xs, *ys])
    if not d.is_strong():
        raise PreconditionViolatedError("auxiliary construction needs a strong digraph")
    sub = d._restrict(d.alive_mask & ~terminals)

    new_arcs = {}
    alive, out, inc = sub._alive, sub._out, sub._in
    for u in iter_bits(alive):
        # the non-neighbours of u above it, ascending
        for v in iter_bits(alive & ~(out[u] | inc[u]) & ~((2 << u) - 1)):
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
            if nf >= threshold:
                new_arcs[(u, v)] = pool.forward
            else:
                new_arcs[(v, u)] = pool.backward
    return new_arcs


def ref_check_pool(sub: Digraph, arc, pool, l: int) -> None:
    """Raise AssertionError unless ``pool`` backs ``arc`` in ``sub``: paths
    of at most l+1 arcs, arcs of ``sub``, sharing only endpoints."""
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


@dataclass(frozen=True)
class _RefAuxiliary:
    """An auxiliary digraph with its terminal arcs recorded."""

    augmented: Digraph
    available: dict[tuple[int, int], tuple[tuple[int, ...], ...]]
    terminal_arcs: frozenset[tuple[int, int]]


def _with_terminal_arcs(d: Digraph, xs, ys, available) -> _RefAuxiliary:
    """The backed arcs plus terminal arcs into every source and out of every
    target, which make the auxiliary digraph semicomplete at the terminals."""
    terminal_arcs = set()
    for x in xs:
        terminal_arcs.update((w, x) for w in iter_bits(d._alive & ~d._in[x] & ~(1 << x)))
    for y in ys:
        terminal_arcs.update((y, w) for w in iter_bits(d._alive & ~d._out[y] & ~(1 << y)))
    augmented = d.add_arcs(list(available) + sorted(terminal_arcs))
    return _RefAuxiliary(augmented, available, frozenset(terminal_arcs))


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
        raise ConstructionFailedError(
            f"no disjoint replacement path left for arc {arc}",
            clause="no disjoint replacement path left", vertices=arc, counts={"pool": len(pool)},
        )


def _splice(augmented_path, d: Digraph, aux: _RefAuxiliary, ledger: _Ledger,
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


def ref_solve_lqt(d: Digraph, pairs, l: int, threshold: int | None = None,
                  anchor_budget: int = _ANCHOR_BUDGET, skip_audit: bool = False) -> SolveReport:
    """Linkage pipeline for l-quasi-transitive digraphs, with a reservation ledger."""
    pairs = tuple(tuple(p) for p in pairs)
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
        aux = _with_terminal_arcs(d, xs, ys, build_auxiliary(d, xs, ys, l, pool_goal))
    except PreconditionViolatedError as exc:  # no short return path: d is strong here
        return SolveReport.of_hypothesis(exc.clause, audit, exc.witness())
    except ConstructionFailedError as exc:
        return SolveReport.of_stage("auxiliary", exc.witness(), audit)
    audit["new_arcs"] = len(aux.available)
    # the same arc labels recur in every report on one digraph: interned,
    # reports kept together hold one copy of each
    audit["auxiliary"] = {
        sys.intern(f"{a}:{b}"): len(pool) for (a, b), pool in sorted(aux.available.items())
    }

    m = 9 * k - 6
    try:
        us = nearly_in_dominating_set(aux.augmented, xs, ys, m)
    except PreconditionViolatedError as exc:
        return SolveReport.of_stage("dominating-set", exc.witness(), audit)
    u_mask = mask_of(us)
    d_u = aux.augmented.induced(us)
    try:
        anchor = find_short_anchor_pair(spanning_tournament(d_u), k, anchor_budget)
    except BudgetExceededError as exc:
        return SolveReport.of_stage("anchor-pair", exc.witness(), audit)
    if anchor is None:
        return SolveReport.of_stage("anchor-pair", witness_of(
            "no short anchor pair in the dominator set", us, {"k": k}), audit)
    u1, u2 = anchor

    free = aux.augmented.alive_mask & ~(mask_of(xs) | mask_of(ys))
    ledger = _Ledger(mask_of(xs) | mask_of(ys) | u_mask)

    # sources ride a real arc to a helper that is strongly good for its anchor
    base_paths: list[list[int]] = []
    helper_mask = 0
    for i, x in enumerate(xs):
        target = u1[i]
        cands = d.out_mask(x) & d.alive_mask & ~ledger.claimed & ~helper_mask
        helper = _first_c_good(aux.augmented, cands, target, free, 11 * k)
        if helper is None:
            return SolveReport.of_stage("source-helper", witness_of(
                "no out-neighbour of the source is c-good for its anchor", (x, target),
                {"c": 11 * k}), audit)
        helper_mask |= 1 << helper
        if aux.augmented.has_arc(helper, target):
            base_paths.append([x, helper, target])
        else:
            # out[helper] & in[target] & free has at least 11k bits; the ledger
            # (U, as X and Y lie outside free) takes at most 9k-6 of them, earlier
            # helpers and middles at most 2k-2: at least 8 are left
            mids = (aux.augmented.out_mask(helper) & aux.augmented.in_mask(target) & free
                    & ~helper_mask & ~ledger.claimed)
            if not mids:
                raise AssertionError(f"c-good helper {helper} has no middle towards {target}")
            mid = next(iter_bits(mids))
            helper_mask |= 1 << mid
            base_paths.append([x, helper, mid, target])
    ledger.claim(iter_bits(helper_mask))

    try:
        x_paths = [_splice(p, d, aux, ledger) for p in base_paths]
    except ConstructionFailedError as exc:
        return SolveReport.of_stage("source-replacement", exc.witness(), audit)
    if any(len(p) > 2 * l + 5 for p in x_paths):
        raise AssertionError(f"a spliced source path has more than {2 * l + 5} vertices")

    # reserve replacements for every synthetic arc inside the dominator set,
    # so the target-side routing can avoid them before they are chosen
    reserved: dict[tuple[int, int], tuple[int, ...]] = {}
    for arc in sorted(aux.available):
        if u_mask >> arc[0] & 1 and u_mask >> arc[1] & 1:
            try:
                reserved[arc] = ledger.pick(aux.available[arc], arc)
            except ConstructionFailedError:
                pass  # no link may use it: the link digraph holds reserved arcs only
    reserve_interiors = sorted(v for path in reserved.values() for v in path[1:-1])
    if len(reserve_interiors) + len(us) > comb(m, 2) * (l + 2):
        raise AssertionError(f"reserved interiors and U exceed {comb(m, 2) * (l + 2)} vertices")

    b_mask = mask_of(v for p in x_paths for v in p) | u_mask | mask_of(reserve_interiors)
    avoid = [v for v in iter_bits(b_mask) if v not in u2]
    routed = menger_set_paths(d, u2, ys, avoid=avoid)
    if isinstance(routed, Infeasible):
        return SolveReport.of_stage("targets", witness_of(
            "a separator meets every U2-to-Y path", routed.separator, {"need": k}), audit)
    entry_for_target = {p[-1]: p[0] for p in routed.paths}
    tail_path = {p[0]: p for p in routed.paths}

    def prefer(path):
        synthetic = sum(0 if d.has_arc(a, b) else 1 for a, b in zip(path, path[1:]))
        return (synthetic, len(path), path)

    # a link lies inside U and uses d's arcs there and the reserved synthetic
    # ones: no terminal arc, no synthetic arc without a disjoint replacement
    links_in = d.induced(us).add_arcs(reserved)
    link_pairs = [(u1[i], entry_for_target[ys[i]]) for i in range(k)]
    try:
        links = _disjoint_short_linkage(links_in, link_pairs, Budget(anchor_budget), prefer)
    except BudgetExceededError as exc:
        return SolveReport.of_stage("anchor-link", exc.witness(), audit)
    if links is None:
        return SolveReport.of_stage("anchor-link", witness_of(
            "no disjoint short links inside the dominator set",
            [v for pair in link_pairs for v in pair], {"k": k}), audit)

    # no ledger pick: the link digraph holds a synthetic arc only if it is reserved
    link_real = [_splice(p, d, aux, ledger, reserved) for p in links]

    final = []
    for i in range(k):
        head = x_paths[i]
        mid = link_real[i]
        tail = tail_path[entry_for_target[ys[i]]]
        final.append(tuple(head + mid[1:] + list(tail[1:])))
    system = PathSystem(tuple(final))
    return SolveReport.certified(d, pairs, system, audit)
