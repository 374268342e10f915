"""The semicomplete audit, the helper count and the connectors as first
written, used only as a test oracle.

``is_semicomplete`` tests each alive vertex's row on its own,
``min_out_degree`` takes one popcount per alive vertex, and
``partition_terminals`` counts each outside vertex's out-neighbours in U
with one popcount per vertex.  ``klinkage.digraph`` decides the first two
in one pass over the alive rows, and ``klinkage.linkage_semicomplete``
counts all the helpers at once with a bit-sliced counter over the in-masks
of U.  ``ref_connect`` builds the connectors from the lists X, Y, W and U
and checks every clause on them itself, as ``ref_anchor_connectors`` had
already done; ``klinkage.linkage_semicomplete`` checks them once, in
``anchor_connectors``, and its pipeline hands ``_connect`` the masks it
holds.  The tests check that they agree.
"""

from __future__ import annotations

from klinkage.digraph import _union, iter_bits, mask_of
from klinkage.dominators import _first_c_good, verify_nearly_in_dominating_set
from klinkage.errors import ConstructionFailedError, PreconditionViolatedError
from klinkage.paths import PathSystem


def is_semicomplete(d) -> bool:
    alive = d.alive_mask
    for v in d.vertices():
        others = alive & ~(1 << v)
        if (d.out_mask(v) | d.in_mask(v)) & others != others:
            return False
    return True


def min_out_degree(d) -> int:
    return min(d._out[v].bit_count() for v in d.vertices())


def partition_terminals(d, xs, ys, us, k: int):
    xs, ys, us = list(xs), list(ys), list(us)
    u_mask = mask_of(us)
    outside = d.alive_mask & ~(mask_of(xs) | mask_of(ys) | u_mask)
    dominator_mask = 0
    for v in iter_bits(outside):
        if (d.out_mask(v) & u_mask).bit_count() >= 2 * k:
            dominator_mask |= 1 << v
    matched: list[int] = []
    matching: dict[int, int] = {}
    leftover: list[int] = []
    used = 0
    for x in xs:
        cands = d.out_mask(x) & dominator_mask
        if cands.bit_count() >= k:
            pick = next(iter_bits(cands & ~used))
            matched.append(x)
            matching[x] = pick
            used |= 1 << pick
        else:
            leftover.append(x)
    return matched, matching, leftover


def ref_anchor_connectors(d, xs, ys, ws, us, q, anchors, targets):
    xs, ys, ws, us = list(xs), list(ys), list(ws), list(us)
    anchors, targets = list(anchors), list(targets)
    d._check_vertices([*xs, *ys, *ws, *us, *anchors, *targets])
    _check_sets(xs, ys, ws, us)
    if not verify_nearly_in_dominating_set(d, xs, ys, us, d.order):
        raise PreconditionViolatedError("U is not a nearly in-dominating set outside X, Y")
    return ref_connect(d, xs, ys, ws, us, q, anchors, targets)


def _check_sets(xs, ys, ws, us):
    k = len(xs)
    x_mask, y_mask, w_mask, u_mask = map(mask_of, (xs, ys, ws, us))
    if x_mask & y_mask or x_mask & w_mask or y_mask & w_mask:
        raise PreconditionViolatedError("X, Y, W must be pairwise disjoint")
    if len(ys) != k:
        raise PreconditionViolatedError("|X| and |Y| must agree")
    if len(us) != 3 * k:
        raise PreconditionViolatedError(f"U must have 3k={3 * k} vertices, has {len(us)}")
    return x_mask, y_mask, w_mask, u_mask


def ref_connect(d, xs, ys, ws, us, q, anchors, targets):
    xs, ys, ws, us = list(xs), list(ys), list(ws), list(us)
    anchors, targets = list(anchors), list(targets)
    k = len(xs)
    x_mask, y_mask, w_mask, u_mask = _check_sets(xs, ys, ws, us)

    ini_q = q.initials()
    ini_mask = mask_of(ini_q)
    q_mask = mask_of(q.vertices())
    if len(q.paths) != k or not q.terminals() <= set(ys):
        raise PreconditionViolatedError("q-system must hold k disjoint paths onto Y")
    if not ini_q <= set(us):
        raise PreconditionViolatedError("q-system must start inside U")
    if q_mask & u_mask != ini_mask:
        raise PreconditionViolatedError(
            "q-system touches U off its initial vertices (not minimum)"
        )
    if len(anchors) > k:
        raise PreconditionViolatedError(f"at most k={k} anchors allowed")
    if len(targets) != len(anchors):
        raise PreconditionViolatedError("one target per anchor required")
    a_mask = mask_of(anchors)
    if a_mask & (w_mask | ini_mask):
        raise PreconditionViolatedError("anchors must avoid W and Ini(q)")
    t_mask = mask_of(targets)
    if len(targets) != t_mask.bit_count():
        raise PreconditionViolatedError(f"targets must be distinct (witness: {targets})",
                                        clause="targets must be distinct", vertices=targets)
    if t_mask & ~ini_mask or t_mask & w_mask:
        raise PreconditionViolatedError(f"targets must lie in Ini(q) minus W (witness: {targets})",
                                        clause="targets must lie in Ini(q) minus W", vertices=targets)

    y2_mask = mask_of(p[1] for p in q.paths if len(p) > 1)
    y3_mask = mask_of(p[2] for p in q.paths if len(p) > 2)
    outside = d.alive_mask & ~(x_mask | y_mask | u_mask)
    helper_pool = _union(d._out, u_mask & ~ini_mask)
    need = 7 * k + 3 * len(ws) + 7 * len(anchors)
    for a in anchors:
        have = (d.out_mask(a) & outside & helper_pool).bit_count()
        if have < need:
            raise PreconditionViolatedError(
                f"anchor needs {need} dominator-backed out-neighbours, has {have} (witness: {a})",
                clause="anchor needs dominator-backed out-neighbours", vertices=(a,),
                counts={"need": need, "have": have},
            )

    if not anchors:
        return PathSystem(())

    alive = d.alive_mask & ~d._check_vertices(set(xs) | set(ys))
    out, inc = d._out, d._in
    c = 3 * k + len(ws) + 3 * len(anchors)

    hops = []
    taken = 0
    for a, s in zip(anchors, targets):
        cand = out[a] & outside & helper_pool & ~y2_mask & ~w_mask & ~taken
        pick = _first_c_good(d, cand, s, alive, c)
        if pick is None:
            raise ConstructionFailedError(f"no first hop for anchor {a}", vertices=(a,))
        hops.append(pick)
        taken |= 1 << pick
    hop_mask = taken

    paths = []
    mid_taken = 0
    for a, hop, s in zip(anchors, hops, targets):
        if d.has_arc(hop, s):
            paths.append((a, hop, s))
            continue
        middles = out[hop] & inc[s] & alive & ~(
            a_mask | ini_mask | y2_mask | y3_mask | w_mask | hop_mask | mid_taken)
        if not middles:
            raise AssertionError(f"c-good hop {hop} has no middle towards {s}")
        mid = next(iter_bits(middles))
        mid_taken |= 1 << mid
        paths.append((a, hop, mid, s))

    forbidden = (q_mask & ~t_mask) | w_mask | ((x_mask | y_mask) & ~a_mask)
    for p in paths:
        overlap = mask_of(p) & forbidden
        if overlap:
            raise ConstructionFailedError(
                f"connector touched the protected region at {list(iter_bits(overlap))}",
                vertices=iter_bits(overlap),
            )
    return PathSystem(tuple(paths))
